//! Release-mode timing smoke test for the warm dual re-solve: after a
//! bound-only patch, re-solving from the persisted basis through the
//! dual simplex must clearly beat a cold solve of the patched LP, and
//! must do it with zero phase-1 iterations — the whole point of keeping
//! the basis is never rebuilding feasibility from scratch.
//!
//! The threshold is deliberately generous (the measured speedup is far
//! larger — see EXPERIMENTS.md); the point is to catch the pathological
//! regression where the dual path silently falls back to a cold start
//! on the hot bound-patch loop.
//!
//! The cold reference is itself a dual solve: the LP is past the size
//! gate, so `solve_lp` goes dual-first from the slack basis, with every
//! column on its lower bound, and never runs primal phase 1 (asserted
//! below). The bar therefore measures what the persisted basis saves
//! over the same long step started from nothing.

use std::time::Instant;

use ras_milp::simplex::{solve_lp, Basis, DualRule, LpStatus, Simplex, SimplexConfig};
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

fn time_cold(sf: &StandardForm, lower: &[f64]) -> (f64, f64) {
    let cfg = SimplexConfig::default();
    let start = Instant::now();
    let r = solve_lp(sf, lower, &sf.upper.clone(), &cfg);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(r.status, LpStatus::Optimal, "cold solve must finish");
    assert!(r.used_dual_simplex, "the cold reference goes dual-first");
    assert!(!r.warm_basis_used);
    assert_eq!(r.phase1_iterations, 0, "dual-first runs no phase 1");
    (secs, r.objective)
}

fn time_warm(sf: &StandardForm, lower: &[f64], basis: &Basis, rule: DualRule) -> (f64, f64) {
    let start = Instant::now();
    let r = Simplex::new(sf, SimplexConfig::default()).solve(lower, &sf.upper, Some(basis), rule);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(r.status, LpStatus::Optimal, "warm solve must finish");
    assert!(r.warm_basis_used, "warm basis must not fall back cold");
    assert_eq!(r.phase1_iterations, 0, "warm re-solve must skip phase 1");
    if rule == DualRule::LongStep {
        assert!(r.used_dual_simplex, "bound patch must route to the dual");
        assert!(r.dual_iterations > 0, "the patch must need repair pivots");
    }
    (secs, r.objective)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing assertions are only meaningful in release builds"
)]
fn warm_dual_resolve_beats_cold_on_region_scale_lp() {
    let n = 100_000;
    let k = 250;
    let sf = large_instance(n, k);

    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    assert!((base.objective - k as f64).abs() < 1e-6);
    let basis = base.basis.clone().expect("optimal solve persists a basis");

    // Bound-only patch: raise the lower bound of 50 active columns
    // above their current value of 1.0, so the basis goes primal
    // infeasible but stays dual feasible — the session round shape.
    let mut lower = sf.lower.clone();
    for j in (0..k).step_by(5) {
        lower[j] = 1.5;
    }

    // Warm the allocator/caches once, off the clock.
    let _ = time_cold(&sf, &lower);

    let (cold, obj_cold) = time_cold(&sf, &lower);
    let (warm_repair, obj_repair) = time_warm(&sf, &lower, &basis, DualRule::Repair);
    let (warm_dual, obj_dual) = time_warm(&sf, &lower, &basis, DualRule::LongStep);
    println!(
        "cold {cold:.3}s  warm-repair {warm_repair:.3}s ({:.1}x)  \
         warm-dual {warm_dual:.3}s ({:.1}x)",
        cold / warm_repair,
        cold / warm_dual
    );
    assert!((obj_repair - obj_cold).abs() < 1e-6);
    assert!((obj_dual - obj_cold).abs() < 1e-6);

    // Generous bar so CI noise on shared runners cannot flake an honest
    // pass; the measured margin is recorded in EXPERIMENTS.md.
    assert!(
        cold > 1.5 * warm_dual,
        "warm dual re-solve ({warm_dual:.3}s) must clearly beat cold ({cold:.3}s)"
    );
}
