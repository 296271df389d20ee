//! Release-mode pricing smoke test: on a region-scale LP, devex and
//! partial-devex pricing must keep their reduced costs incrementally —
//! a handful of full rescans per solve, not one per pivot — so a pricing
//! regression fails CI instead of silently landing.
//!
//! The regression this guards against is incremental reduced-cost
//! maintenance silently breaking, so that every pivot degrades back to a
//! full O(n·nnz) rescan. The rescan count (`PricingStats::full_rebuilds`)
//! shows exactly that and repeats from run to run; it is the gate. The
//! test used to compare wall clock against a rule that rescanned every
//! pivot on purpose, which measured how slow that baseline was as much as
//! anything about devex; the baseline left production with the other
//! never-selected solver paths, and the timings are printed for the log
//! only.

use std::time::Instant;

use ras_milp::simplex::{DualRule, LpResult, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// The `large_lp.rs` instance: 100,000 single-variable constraints,
/// `x_i >= 1` for the first `k` variables, optimum exactly `k`.
fn large_instance(n: usize, k: usize) -> StandardForm {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 2.0))
        .collect();
    for (i, v) in vars.iter().enumerate() {
        let rhs = if i < k { 1.0 } else { 0.0 };
        m.add_constraint(format!("c{i}"), LinExpr::from(*v), Sense::Ge, rhs);
    }
    m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, 1.0))));
    StandardForm::from_model(&m)
}

/// Times one cold solve under devex or, with `partial`, partial devex,
/// forced through the engine's test hook (the size rule alone would pick
/// partial devex on this LP).
fn time_solve(sf: &StandardForm, partial: bool) -> (f64, LpResult) {
    let start = Instant::now();
    let mut lp = Simplex::new(sf, SimplexConfig::default());
    lp.set_partial_pricing(partial);
    let r = lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(r.status, LpStatus::Optimal, "partial {partial} must solve");
    (secs, r)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 100,000-row solve per rule is only quick in release builds"
)]
fn devex_rules_rescan_rarely_on_region_scale_lp() {
    let n = 100_000;
    let k = 250;
    let sf = large_instance(n, k);

    let (devex, r_devex) = time_solve(&sf, false);
    let (partial, r_partial) = time_solve(&sf, true);
    println!(
        "devex {devex:.3}s ({} rescans / {} pivots)  partial {partial:.3}s ({} rescans / {} pivots)",
        r_devex.pricing.full_rebuilds,
        r_devex.iterations,
        r_partial.pricing.full_rebuilds,
        r_partial.iterations,
    );
    assert!((r_devex.objective - k as f64).abs() < 1e-6);
    assert!((r_partial.objective - r_devex.objective).abs() < 1e-6);

    // The gate: the incremental rules rescan on phase entry, after a
    // refactorization and to certify optimality — 4 and 5 times over
    // these 250 pivots. One rescan per 16 pivots leaves room for a
    // changed refactorization interval, none for a broken update.
    for (rule, r) in [("devex", &r_devex), ("partial devex", &r_partial)] {
        assert!(r.iterations >= k, "{rule}: {} pivots", r.iterations);
        assert!(
            16 * r.pricing.full_rebuilds <= r.iterations,
            "{rule} rescanned every column {} times in {} pivots",
            r.pricing.full_rebuilds,
            r.iterations
        );
    }
}
