//! A warm repair that gives up reports what it threw away.
//!
//! Branch and bound's node and dive solves re-solve from the parent's
//! basis; when the dual repair cannot proceed the engine resets and the
//! cold solve answers. The answer must be the cold solve's to the bit,
//! and the abandoned attempt's pivots, refactorizations and seconds are
//! reported beside it.

use ras_milp::simplex::{solve_lp, DualRule, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// A demand a hair past the capacity it shares a row sum with: within
/// the cold primal's phase-1 tolerance, past the dual repair's row
/// tolerance. Warm from the basis of the round with no demand, the
/// repair pivots the demand in, then meets the capacity row violated by
/// less than it can certify infeasible and gives up; the cold solve
/// answers. What the attempt spent is reported beside the answer, not in
/// it: a cold solve throws nothing away.
#[test]
fn a_fallen_back_repair_reports_what_it_threw_away() {
    let model = |demand: f64| {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("cap", LinExpr::from(x) + y, Sense::Le, 4.0);
        m.add_constraint("demand", LinExpr::from(x) + y, Sense::Ge, demand);
        m.set_objective(LinExpr::from(x) + 2.0 * y);
        m
    };
    let cfg = SimplexConfig::default();
    let idle = StandardForm::from_model(&model(0.0));
    let last = solve_lp(&idle, &idle.lower, &idle.upper, &cfg);
    assert_eq!(last.status, LpStatus::Optimal);

    let sf = StandardForm::from_model(&model(4.0 + 4e-7));
    let mut cold_lp = Simplex::new(&sf, cfg.clone());
    let cold = cold_lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep);
    assert_eq!(cold.status, LpStatus::Optimal);
    assert_eq!(
        (cold.discarded_iterations, cold.discarded_refactorizations),
        (0, 0)
    );
    assert_eq!(cold_lp.discarded_seconds(), 0.0);

    let mut warm_lp = Simplex::new(&sf, cfg);
    let warm = warm_lp.solve(
        &sf.lower,
        &sf.upper,
        last.basis.as_ref(),
        DualRule::LongStep,
    );
    assert!(!warm.warm_basis_used, "the repair must fall back");
    assert!(warm.discarded_iterations > 0, "the repair pivoted first");
    assert!(warm.discarded_refactorizations > 0);
    assert!(warm_lp.discarded_seconds() > 0.0);
    // The answer is the cold solve's, counters included.
    assert_eq!(warm.status, cold.status);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(
        (warm.iterations, warm.refactorizations),
        (cold.iterations, cold.refactorizations)
    );
}
