//! Criterion benchmarks for the simplex pricing engine: the same LP
//! solved under devex and under partial devex (forced through the
//! engine's test hook, whatever the LP's size would pick), at sizes where
//! a full pricing scan is respectively cheap, noticeable, and dominant. These quantify
//! the pricing half of the paper's Section 3.5.3 solve-time budget the
//! way `solver.rs` quantifies whole LP and MIP solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ras_milp::simplex::{solve_lp, solve_lp_warm, DualRule, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// A transportation LP with `m` supplies and `m` demands (`m²` columns).
fn transportation(m: usize) -> StandardForm {
    let mut model = Model::new();
    let mut vars = Vec::new();
    for i in 0..m {
        for j in 0..m {
            vars.push(model.add_var(format!("x{i}_{j}"), VarType::Continuous, 0.0, f64::INFINITY));
        }
    }
    for i in 0..m {
        let e = LinExpr::sum((0..m).map(|j| (vars[i * m + j], 1.0)));
        model.add_constraint(format!("s{i}"), e, Sense::Le, 10.0 + (i % 3) as f64);
        let e = LinExpr::sum((0..m).map(|j| (vars[j * m + i], 1.0)));
        model.add_constraint(format!("d{i}"), e, Sense::Ge, 8.0 + (i % 2) as f64);
    }
    let mut obj = LinExpr::zero();
    for i in 0..m {
        for j in 0..m {
            obj += LinExpr::term(vars[i * m + j], 1.0 + ((i * 7 + j * 3) % 11) as f64);
        }
    }
    model.set_objective(obj);
    StandardForm::from_model(&model)
}

/// A diagonal region-scale LP: `n` rows, one structural nonzero per row
/// (the `large_lp.rs` shape, scaled down for bench iteration counts).
fn diagonal(n: usize, k: usize) -> StandardForm {
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

/// The two pricing rules: a name and whether it is partial devex.
const RULES: [(&str, bool); 2] = [("Devex", false), ("PartialDevex", true)];

fn solve_with(sf: &StandardForm, partial: bool) -> f64 {
    let mut lp = Simplex::new(sf, SimplexConfig::default());
    lp.set_partial_pricing(partial);
    let r = lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep);
    assert_eq!(r.status, LpStatus::Optimal);
    r.objective
}

fn bench_pricing_transportation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pricing_transportation");
    for m in [10usize, 30] {
        let sf = transportation(m);
        for (rule, partial) in RULES {
            group.bench_with_input(BenchmarkId::new(rule, m * m), &sf, |b, sf| {
                b.iter(|| solve_with(sf, partial))
            });
        }
    }
    group.finish();
}

fn bench_pricing_region_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("pricing_region_scale");
    group.sample_size(10);
    let sf = diagonal(20_000, 250);
    for (rule, partial) in RULES {
        group.bench_with_input(BenchmarkId::new(rule, 20_000), &sf, |b, sf| {
            b.iter(|| solve_with(sf, partial))
        });
    }
    group.finish();
}

/// Bound-patch re-solve: the session hot path. One cold solve persists
/// its basis, then a handful of upper bounds tighten (a round's count
/// patch) and the LP re-solves three ways: cold from scratch, warm
/// through the one-violation repair branch-and-bound nodes use
/// ([`DualRule::Repair`]), and warm through the long step the root
/// re-solve uses ([`DualRule::LongStep`]). Both warm paths should win —
/// the patched basis is dual feasible, so they need no phase 1.
fn bench_bound_patch_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("bound_patch_resolve");
    for m in [10usize, 30] {
        let sf = transportation(m);
        let cold_cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cold_cfg);
        assert_eq!(base.status, LpStatus::Optimal);
        let basis = base.basis.clone().expect("optimal solve persists a basis");
        // Tighten the bound of every 7th structural column that the
        // optimum uses, forcing real dual repair work.
        let mut upper = sf.upper.clone();
        for (j, v) in base.values.iter().take(m * m).enumerate() {
            if j % 7 == 0 && *v > 0.5 {
                upper[j] = (*v - 0.5).max(0.0);
            }
        }
        group.bench_with_input(BenchmarkId::new("cold", m * m), &sf, |b, sf| {
            b.iter(|| {
                let r = solve_lp(sf, &sf.lower.clone(), &upper, &cold_cfg);
                assert_eq!(r.status, LpStatus::Optimal);
                r.objective
            })
        });
        for (name, rule) in [
            ("warm_repair", DualRule::Repair),
            ("warm_dual", DualRule::LongStep),
        ] {
            group.bench_with_input(BenchmarkId::new(name, m * m), &sf, |b, sf| {
                b.iter(|| {
                    let mut lp = Simplex::new(sf, cold_cfg.clone());
                    let r = lp.solve(&sf.lower, &upper, Some(&basis), rule);
                    assert_eq!(r.status, LpStatus::Optimal);
                    r.objective
                })
            });
        }
    }
    group.finish();
}

/// The dual simplex as a standalone solver on the region-scale diagonal
/// LP: cold primal vs a dual re-solve from the optimal basis after an
/// RHS perturbation (which leaves the basis dual feasible by
/// construction).
fn bench_dual_simplex_region_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_resolve_region_scale");
    group.sample_size(10);
    let sf = diagonal(20_000, 250);
    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    let basis = base.basis.clone().expect("optimal solve persists a basis");
    let mut patched = sf.clone();
    // Raise every 50th active demand: the primal optimum goes
    // infeasible, the dual simplex pushes those rows back up.
    for i in (0..250).step_by(50) {
        patched.rhs[i] = 1.5;
    }
    group.bench_function(BenchmarkId::new("cold", 20_000), |b| {
        b.iter(|| {
            let r = solve_lp(
                &patched,
                &patched.lower.clone(),
                &patched.upper.clone(),
                &cfg,
            );
            assert_eq!(r.status, LpStatus::Optimal);
            r.objective
        })
    });
    group.bench_function(BenchmarkId::new("warm_dual", 20_000), |b| {
        b.iter(|| {
            let r = solve_lp_warm(
                &patched,
                &patched.lower.clone(),
                &patched.upper.clone(),
                &cfg,
                Some(&basis),
            );
            assert_eq!(r.status, LpStatus::Optimal);
            r.objective
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pricing_transportation,
    bench_pricing_region_scale,
    bench_bound_patch_resolve,
    bench_dual_simplex_region_scale
);
criterion_main!(benches);
