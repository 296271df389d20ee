//! Differential test of the sparse engine against a dense oracle: on
//! random bounded LPs the Forrest–Tomlin simplex must agree on status
//! and objective with the textbook tableau simplex of
//! `support::dense_simplex`, which shares no code with it, and its
//! solution must satisfy the model with dual feasible duals. Duals are
//! *not* compared — degenerate optima admit many valid dual vectors —
//! but dual feasibility at the reported primal point is a property
//! every optimal basis satisfies.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::simplex::{DualRule, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};
use support::dense_simplex::{self, Outcome};

fn random_model(rng: &mut StdRng) -> Model {
    let nv: usize = rng.gen_range(2..8);
    let nc = rng.gen_range(1..8);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                VarType::Continuous,
                0.0,
                rng.gen_range(1..9) as f64,
            )
        })
        .collect();
    for ci in 0..nc {
        let expr = LinExpr::sum(vars.iter().map(|v| (*v, rng.gen_range(-4..5) as f64)));
        let sense = match rng.gen_range(0..3) {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(format!("c{ci}"), expr, sense, rng.gen_range(-5..12) as f64);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..6) as f64)),
    ));
    m
}

/// Checks that `duals` is dual feasible for the solved LP: each column's
/// reduced cost has the sign its resting bound requires.
fn assert_dual_feasible(sf: &StandardForm, values: &[f64], duals: &[f64], tag: &str) {
    assert_eq!(duals.len(), sf.num_rows, "{tag}: dual length");
    for (j, &vj) in values.iter().enumerate().take(sf.num_cols()) {
        if sf.lower[j] == sf.upper[j] {
            continue; // Fixed columns constrain nothing.
        }
        let d = sf.costs[j] - sf.matrix.column_dot(j, duals);
        let at_lo = (vj - sf.lower[j]).abs() < 1e-6;
        let at_up = (sf.upper[j] - vj).abs() < 1e-6;
        if at_lo && at_up {
            continue;
        }
        if at_lo {
            assert!(d > -1e-5, "{tag}: col {j} at lower with d = {d}");
        } else if at_up {
            assert!(d < 1e-5, "{tag}: col {j} at upper with d = {d}");
        } else {
            assert!(d.abs() < 1e-5, "{tag}: basic col {j} with d = {d}");
        }
    }
}

#[test]
fn sparse_and_dense_agree_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
    let mut optimal_cases = 0;
    for case in 0..400 {
        let m = random_model(&mut rng);
        let sf = StandardForm::from_model(&m);
        let dense = dense_simplex::solve(&m);
        // A small refactor interval exercises the LU factorization and
        // the Forrest–Tomlin updates (not just the diagonal crash basis)
        // on these small instances.
        let mut lp = Simplex::new(&sf, SimplexConfig::default());
        lp.set_refactor_interval(4);
        let sparse = lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep);
        let Outcome::Optimal(dense_objective) = dense else {
            assert_eq!(
                (dense, sparse.status),
                (Outcome::Infeasible, LpStatus::Infeasible),
                "case {case}: bounded LPs are optimal or infeasible"
            );
            continue;
        };
        assert_eq!(
            sparse.status,
            LpStatus::Optimal,
            "case {case}: the oracle found {dense_objective}"
        );
        optimal_cases += 1;
        assert!(
            (dense_objective - sparse.objective).abs() < 1e-6,
            "case {case}: dense obj {dense_objective} vs sparse obj {}",
            sparse.objective
        );
        assert!(
            m.violations(&sparse.values[..m.num_vars()], 1e-5)
                .is_empty(),
            "case {case}: sparse solution violates the model"
        );
        assert_dual_feasible(
            &sf,
            &sparse.values,
            &sparse.duals,
            &format!("case {case} sparse"),
        );
    }
    assert!(
        optimal_cases > 100,
        "too few optimal cases exercised: {optimal_cases}"
    );
}
