//! Criterion microbenchmarks for the MIP substrate: simplex LP solves,
//! branch-and-bound, and the linearization helpers. These quantify the
//! building blocks behind Figures 7–11.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ras_milp::simplex::{solve_lp, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, SolveConfig, VarType};

/// A transportation LP with `m` supplies and `m` demands.
fn transportation(m: usize, integer: bool) -> Model {
    let mut model = Model::new();
    let ty = if integer {
        VarType::Integer
    } else {
        VarType::Continuous
    };
    let mut vars = Vec::new();
    for i in 0..m {
        for j in 0..m {
            vars.push(model.add_var(format!("x{i}_{j}"), ty, 0.0, f64::INFINITY));
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
    model
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_lp");
    for m in [10usize, 20, 40] {
        let model = transportation(m, false);
        let sf = StandardForm::from_model(&model);
        group.bench_with_input(BenchmarkId::from_parameter(m * m), &sf, |b, sf| {
            b.iter(|| {
                let r = solve_lp(
                    sf,
                    &sf.lower.clone(),
                    &sf.upper.clone(),
                    &SimplexConfig::default(),
                );
                assert_eq!(r.status, ras_milp::simplex::LpStatus::Optimal);
                r.objective
            })
        });
    }
    group.finish();
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_and_bound");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(15));
    for m in [6usize, 10] {
        let model = transportation(m, true);
        group.bench_with_input(BenchmarkId::from_parameter(m * m), &model, |b, model| {
            b.iter(|| model.solve().expect("feasible").objective)
        });
    }
    group.finish();
}

fn bench_timeout_gap(c: &mut Criterion) {
    // Figure 9's mechanism: a timed-out solve still yields an incumbent.
    let model = transportation(12, true);
    let mut group = c.benchmark_group("timeout_gap");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("solve_with_timeout", |b| {
        b.iter(|| {
            let config = SolveConfig {
                time_limit_seconds: 0.05,
                ..SolveConfig::default()
            };
            model
                .solve_with(&config)
                .map(|s| s.stats.absolute_gap)
                .unwrap_or(f64::NAN)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex,
    bench_branch_and_bound,
    bench_timeout_gap
);
criterion_main!(benches);
