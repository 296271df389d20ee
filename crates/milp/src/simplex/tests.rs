//! Unit tests of the simplex engine, declared `#[cfg(test)] mod tests;`
//! in `mod.rs`.

// Repeats the declaration's attribute so that the file reads as test
// code on its own — to a reader and to `cargo xtask lint`, which scans
// file by file.
#![cfg(test)]

use super::*;
use crate::expr::LinExpr;
use crate::model::{Model, Sense, VarType};
use crate::tol;

/// A cold solve of `sf` on an engine the test hooks have set up.
fn solve_on(sf: &StandardForm, set_up: impl FnOnce(&mut Simplex<'_>)) -> LpResult {
    let mut lp = Simplex::new(sf, SimplexConfig::default());
    set_up(&mut lp);
    lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep)
}

fn lp(model: &Model) -> LpResult {
    let sf = StandardForm::from_model(model);
    solve_lp(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &SimplexConfig::default(),
    )
}

#[test]
fn textbook_2d_lp() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), obj 36.
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
    m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
    m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
    m.set_objective(-3.0 * x - 5.0 * y);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        (r.objective + 36.0).abs() < 1e-6,
        "objective {}",
        r.objective
    );
    assert!((r.values[0] - 2.0).abs() < 1e-6);
    assert!((r.values[1] - 6.0).abs() < 1e-6);
}

#[test]
fn equality_constraints() {
    // min x + y s.t. x + y = 10, x - y = 4 → (7, 3).
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    m.add_constraint("sum", 1.0 * x + 1.0 * y, Sense::Eq, 10.0);
    m.add_constraint("diff", 1.0 * x - 1.0 * y, Sense::Eq, 4.0);
    m.set_objective(1.0 * x + 1.0 * y);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.values[0] - 7.0).abs() < 1e-6);
    assert!((r.values[1] - 3.0).abs() < 1e-6);
}

#[test]
fn infeasible_detected() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
    m.add_constraint("hi", LinExpr::from(x), Sense::Ge, 2.0);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    m.set_objective(-1.0 * x);
    m.add_constraint("noop", LinExpr::from(x), Sense::Ge, 0.0);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Unbounded);
}

#[test]
fn negative_lower_bounds() {
    // min x s.t. x >= -5  → -5.
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, -5.0, 5.0);
    m.add_constraint("noop", LinExpr::from(x), Sense::Le, 100.0);
    m.set_objective(LinExpr::from(x));
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.values[0] + 5.0).abs() < 1e-6);
}

#[test]
fn free_variable_lp() {
    // min x + 2y, x free, y in [0, 10], x + y >= 4, x >= -3 via constraint.
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
    m.add_constraint("c", 1.0 * x + 1.0 * y, Sense::Ge, 4.0);
    m.add_constraint("lb", LinExpr::from(x), Sense::Ge, -3.0);
    m.set_objective(1.0 * x + 2.0 * y);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    // Optimum: x = 4, y = 0 → 4 (cheaper than using y).
    assert!(
        (r.objective - 4.0).abs() < 1e-6,
        "objective {}",
        r.objective
    );
}

#[test]
fn degenerate_lp_terminates() {
    // Many redundant constraints through the same vertex.
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    for i in 0..20 {
        m.add_constraint(format!("r{i}"), 1.0 * x + 1.0 * y, Sense::Le, 10.0);
    }
    m.add_constraint("cap", 1.0 * x - 1.0 * y, Sense::Le, 0.0);
    m.set_objective(-1.0 * x - 1.0 * y);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.objective + 10.0).abs() < 1e-6);
}

#[test]
fn transportation_lp() {
    // 2 supplies (10, 20), 3 demands (5, 15, 10), unit costs.
    let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
    let mut m = Model::new();
    let mut vars = Vec::new();
    for i in 0..2 {
        for j in 0..3 {
            vars.push(m.add_var(format!("x{i}{j}"), VarType::Continuous, 0.0, f64::INFINITY));
        }
    }
    for (i, supply) in [10.0, 20.0].iter().enumerate() {
        let e = LinExpr::sum((0..3).map(|j| (vars[i * 3 + j], 1.0)));
        m.add_constraint(format!("s{i}"), e, Sense::Le, *supply);
    }
    for (j, demand) in [5.0, 15.0, 10.0].iter().enumerate() {
        let e = LinExpr::sum((0..2).map(|i| (vars[i * 3 + j], 1.0)));
        m.add_constraint(format!("d{j}"), e, Sense::Ge, *demand);
    }
    let mut obj = LinExpr::zero();
    for i in 0..2 {
        for j in 0..3 {
            obj += LinExpr::term(vars[i * 3 + j], costs[i][j]);
        }
    }
    m.set_objective(obj);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    // Optimal plan: d0 ← s1 at cost 3 (15), d1 ← s1 at cost 1 (15),
    // d2 ← s0 at cost 5 (50): total 80.
    assert!(
        (r.objective - 80.0).abs() < 1e-6,
        "objective {}",
        r.objective
    );
}

#[test]
fn refactor_keeps_solution_consistent() {
    // Force many pivots with a tiny refactor interval.
    let mut m = Model::new();
    let n = 15;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 10.0))
        .collect();
    for i in 0..n - 1 {
        m.add_constraint(
            format!("c{i}"),
            1.0 * vars[i] + 1.0 * vars[i + 1],
            Sense::Le,
            7.0 + (i % 3) as f64,
        );
    }
    m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
    let sf = StandardForm::from_model(&m);
    let reference = solve_lp(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &SimplexConfig::default(),
    );
    let r = solve_on(&sf, |lp| lp.set_refactor_interval(3));
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.objective - reference.objective).abs() < 1e-5);
    assert!(m.violations(&r.values[..n], 1e-5).is_empty());
    assert!(r.refactorizations > 0, "interval 3 must refactor");
}

#[test]
fn bound_override_changes_optimum() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
    m.add_constraint("noop", LinExpr::from(x), Sense::Le, 100.0);
    m.set_objective(-1.0 * x);
    let sf = StandardForm::from_model(&m);
    let mut up = sf.upper.clone();
    up[0] = 3.0;
    let r = solve_lp(&sf, &sf.lower.clone(), &up, &SimplexConfig::default());
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.values[0] - 3.0).abs() < 1e-6);
}

/// With an effectively infinite refactor interval the engine runs on
/// Forrest–Tomlin updates alone; the answer must not drift.
#[test]
fn sparse_update_only_path_is_exact() {
    let mut m = Model::new();
    let n = 12;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 5.0))
        .collect();
    for i in 0..n - 1 {
        m.add_constraint(
            format!("c{i}"),
            2.0 * vars[i] + 1.0 * vars[i + 1],
            Sense::Le,
            6.0 + (i % 4) as f64,
        );
    }
    m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
    let sf = StandardForm::from_model(&m);
    let reference = lp(&m);
    let r = solve_on(&sf, |lp| lp.set_refactor_interval(usize::MAX));
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.objective - reference.objective).abs() < 1e-7);
    assert_eq!(r.refactorizations, 0, "update-only run must never refactor");
    assert!(r.basis_stats.updates > 0, "updates must be counted");
}

/// Warm-started re-solves agree with cold ones.
#[test]
fn sparse_warm_start_matches_cold() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
    m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
    m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
    m.set_objective(-2.0 * x - 3.0 * y);
    let sf = StandardForm::from_model(&m);
    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    let mut up = sf.upper.clone();
    up[0] = 2.0; // branch-style tightening
    let cold = solve_lp(&sf, &sf.lower.clone(), &up, &cfg);
    let warm = solve_lp_warm(&sf, &sf.lower.clone(), &up, &cfg, base.basis.as_ref());
    assert_eq!(cold.status, warm.status);
    assert!((cold.objective - warm.objective).abs() < 1e-7);
}

/// A singular warm basis must degrade safely (slack-basis repair or
/// cold fallback), never a wrong answer.
#[test]
fn singular_warm_basis_degrades_safely() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 3.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 3.0);
    // Rows are multiples of each other, so basis {x, y} is singular.
    m.add_constraint("a", 1.0 * x + 1.0 * y, Sense::Le, 4.0);
    m.add_constraint("b", 2.0 * x + 2.0 * y, Sense::Le, 8.0);
    m.set_objective(-1.0 * x - 1.0 * y);
    let sf = StandardForm::from_model(&m);
    let singular = Basis {
        basis: vec![0, 1],
        at_upper: vec![false, false],
    };
    let r = solve_lp_warm(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &SimplexConfig::default(),
        Some(&singular),
    );
    assert_eq!(r.status, LpStatus::Optimal);
    assert!((r.objective + 4.0).abs() < 1e-6, "{}", r.objective);
}

/// The crash basis makes a bound-feasible LP skip phase 1 entirely:
/// at an already-optimal vertex, zero pivots are needed.
#[test]
fn slack_crash_skips_phase_one() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 5.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 5.0);
    m.add_constraint("a", 1.0 * x + 1.0 * y, Sense::Le, 8.0);
    m.add_constraint("b", 1.0 * x - 1.0 * y, Sense::Le, 3.0);
    // Minimizing positive costs puts the optimum at the lower-bound
    // corner the crash basis already sits on.
    m.set_objective(2.0 * x + 1.0 * y);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert_eq!(r.iterations, 0, "crash basis should already be optimal");
    assert!(r.objective.abs() < 1e-9);
}

/// Every pricing rule reaches the same optimum on the fixture LPs —
/// they only differ in pivot selection, never in the answer.
#[test]
fn pricing_rules_agree_on_fixtures() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
    m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
    m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
    m.set_objective(-3.0 * x - 5.0 * y);
    let sf = StandardForm::from_model(&m);
    for partial in [false, true] {
        let r = solve_on(&sf, |lp| lp.set_partial_pricing(partial));
        assert_eq!(r.status, LpStatus::Optimal, "partial {partial}");
        assert!(
            (r.objective + 36.0).abs() < 1e-6,
            "partial {partial}: {}",
            r.objective
        );
    }
}

/// Partial pricing records its candidate-list activity: a solve
/// needs at least one full scan (the final optimality proof) and
/// reports hits only when the list actually served a pivot.
#[test]
fn partial_pricing_reports_stats() {
    let mut m = Model::new();
    let n = 30;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 10.0))
        .collect();
    for i in 0..n - 1 {
        m.add_constraint(
            format!("c{i}"),
            1.0 * vars[i] + 1.0 * vars[i + 1],
            Sense::Le,
            7.0 + (i % 3) as f64,
        );
    }
    m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
    let sf = StandardForm::from_model(&m);
    let r = solve_on(&sf, |lp| lp.set_partial_pricing(true));
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(r.pricing.full_rebuilds >= 1, "optimality needs a full scan");
    assert!(
        r.pricing.candidate_hits <= r.iterations,
        "hits cannot exceed pivots"
    );
}

/// Optimal duals must be dual feasible: reduced costs respect the
/// bound each variable rests on.
#[test]
fn duals_are_dual_feasible_at_optimum() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
    m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
    m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
    m.set_objective(-3.0 * x - 5.0 * y);
    let sf = StandardForm::from_model(&m);
    let r = lp(&m);
    assert_eq!(r.status, LpStatus::Optimal);
    assert_eq!(r.duals.len(), sf.num_rows);
    for j in 0..sf.num_cols() {
        let d = sf.costs[j] - sf.matrix.column_dot(j, &r.duals);
        let at_lo = (r.values[j] - sf.lower[j]).abs() < 1e-7;
        let at_up = (sf.upper[j] - r.values[j]).abs() < 1e-7;
        if at_lo {
            assert!(d > -1e-6, "col {j}: d = {d}");
        } else if at_up {
            assert!(d < 1e-6, "col {j}: d = {d}");
        } else {
            assert!(d.abs() < 1e-6, "col {j}: d = {d}");
        }
    }
}

/// A bound-only change re-solved from the persisted basis must go
/// through the dual simplex with **zero** phase-1 iterations — the
/// tentpole property of the warm re-solve hot path — and agree with
/// the cold answer.
#[test]
fn warm_bound_patch_uses_dual_simplex_with_zero_phase1() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
    let z = m.add_var("z", VarType::Continuous, 0.0, 8.0);
    m.add_constraint("a", 1.0 * x + 2.0 * y + 1.0 * z, Sense::Le, 12.0);
    m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
    m.add_constraint("c", 1.0 * y + 2.0 * z, Sense::Le, 10.0);
    m.set_objective(-2.0 * x - 3.0 * y - 1.0 * z);
    let sf = StandardForm::from_model(&m);
    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    // Tighten a bound that cuts off the old optimum.
    let mut up = sf.upper.clone();
    up[0] = 1.0;
    let cold = solve_lp(&sf, &sf.lower.clone(), &up, &cfg);
    let warm = solve_lp_warm(&sf, &sf.lower.clone(), &up, &cfg, base.basis.as_ref());
    assert_eq!(warm.status, cold.status);
    assert!(
        (warm.objective - cold.objective).abs() < 1e-7,
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(warm.warm_basis_used);
    assert!(warm.used_dual_simplex);
    assert_eq!(warm.phase1_iterations, 0, "dual re-solve must skip phase 1");
}

/// RHS-only changes preserve dual feasibility too: the dual simplex
/// re-solves a perturbed-capacity LP from the old basis exactly.
#[test]
fn warm_rhs_patch_resolves_via_dual() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
    m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
    m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
    m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
    m.set_objective(-3.0 * x - 5.0 * y);
    let mut sf = StandardForm::from_model(&m);
    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    // Shrink two capacities in place (what `Model::set_rhs` patches).
    sf.rhs[0] = 3.0;
    sf.rhs[2] = 14.0;
    let cold = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    let warm = solve_lp_warm(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &cfg,
        base.basis.as_ref(),
    );
    assert_eq!(warm.status, cold.status);
    assert!((warm.objective - cold.objective).abs() < 1e-7);
    assert!(warm.used_dual_simplex);
    assert_eq!(warm.phase1_iterations, 0);
}

/// [`DualRule::Repair`] runs the one-violation repair (the node re-solve
/// path); both rules' warm re-solves and the cold solve agree on the
/// fixtures, and only the long step reports the dual simplex.
#[test]
fn one_violation_repair_path_agrees() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
    m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
    m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
    m.set_objective(-2.0 * x - 3.0 * y);
    let sf = StandardForm::from_model(&m);
    let base = solve_lp(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &SimplexConfig::default(),
    );
    let mut up = sf.upper.clone();
    up[0] = 2.0;
    let cold = solve_lp(&sf, &sf.lower.clone(), &up, &SimplexConfig::default());
    for rule in [DualRule::LongStep, DualRule::Repair] {
        let mut lp = Simplex::new(&sf, SimplexConfig::default());
        let warm = lp.solve(&sf.lower, &up, base.basis.as_ref(), rule);
        assert_eq!(warm.status, cold.status, "{rule:?}");
        assert!((warm.objective - cold.objective).abs() < 1e-7, "{rule:?}");
        assert_eq!(
            warm.used_dual_simplex,
            rule == DualRule::LongStep,
            "dual flag must track the rule"
        );
        assert!(warm.iterations > 0, "{rule:?}: the patch needs pivots");
        assert_eq!(
            warm.dual_iterations > 0,
            rule == DualRule::LongStep,
            "{rule:?}: only the long step counts dual iterations"
        );
    }
}

/// A dual pivot whose FTRAN'd pivot element disagrees with the α-row
/// (drift injected through the test hook) refactorizes and retries, at
/// most twice; a third disagreement sends the solve cold. Every way it
/// ends, under either rule, the answer is the cold one.
#[test]
fn repair_drift_refactors_and_retries() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
    let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
    m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
    m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
    m.set_objective(-2.0 * x - 3.0 * y);
    let sf = StandardForm::from_model(&m);
    let base = solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default());
    let mut up = sf.upper.clone();
    up[0] = 2.0;
    let cold = solve_lp(&sf, &sf.lower, &up, &SimplexConfig::default());
    for rule in [DualRule::LongStep, DualRule::Repair] {
        for (drift, warm) in [(0, true), (1, true), (2, true), (3, false)] {
            let what = format!("{rule:?}, drift {drift}");
            let mut lp = Simplex::new(&sf, SimplexConfig::default());
            lp.inject_drift = drift;
            let r = lp.solve(&sf.lower, &up, base.basis.as_ref(), rule);
            assert_eq!(lp.inject_drift, 0, "{what}: the dual iteration pivoted");
            assert_eq!(r.status, cold.status, "{what}");
            assert!((r.objective - cold.objective).abs() < 1e-7, "{what}");
            assert_eq!(r.warm_basis_used, warm, "{what}");
            if warm {
                assert_eq!(r.basis_stats.refactors_accuracy, drift, "{what}");
            }
        }
    }
}

/// The bound-flip ratio test must handle a patch whose repair is
/// absorbed partly by flipping boxed nonbasics: boxed columns with
/// small ranges force flips before an entering pivot.
#[test]
fn dual_bound_flips_reach_the_cold_optimum() {
    let mut m = Model::new();
    // Many tightly boxed columns sharing one capacity row: after the
    // capacity drops, the dual repair must flip several of them.
    let vars: Vec<_> = (0..10)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 1.0))
        .collect();
    m.add_constraint(
        "cap",
        LinExpr::sum(vars.iter().map(|v| (*v, 1.0))),
        Sense::Le,
        9.0,
    );
    m.set_objective(LinExpr::sum(
        vars.iter().enumerate().map(|(i, v)| (*v, -1.0 - i as f64)),
    ));
    let sf = StandardForm::from_model(&m);
    let cfg = SimplexConfig::default();
    let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(base.status, LpStatus::Optimal);
    // Emulate `set_rhs`: capacity 9 → 3 strands six basics' worth of
    // mass above the new cap.
    let mut sf2 = sf;
    sf2.rhs[0] = 3.0;
    let cold = solve_lp(&sf2, &sf2.lower.clone(), &sf2.upper.clone(), &cfg);
    let warm = solve_lp_warm(
        &sf2,
        &sf2.lower.clone(),
        &sf2.upper.clone(),
        &cfg,
        base.basis.as_ref(),
    );
    assert_eq!(warm.status, cold.status);
    assert!(
        (warm.objective - cold.objective).abs() < 1e-7,
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(warm.used_dual_simplex);
    assert_eq!(warm.phase1_iterations, 0);
}

/// A region-shaped LP, as `tests/dual_differential.rs` draws them but
/// fixed: 32 classes of servers in 8 MSBs and 8 reservations, each class
/// rewarded for staying (−10), charged 0.01 elsewhere and every third one
/// a server short; per reservation a free `max`-over-MSBs column costing 5
/// and a capacity row net of it.
fn region_lp() -> Model {
    let (msbs, per_msb, reservations) = (8, 4, 8);
    let mut m = Model::new();
    let mut obj = LinExpr::zero();
    let mut held = vec![0.0; reservations];
    let mut vars = Vec::new();
    for c in 0..msbs * per_msb {
        let count = 2.0 + (c * 5 % 7) as f64;
        let current = c % reservations;
        let row: Vec<_> = (0..reservations)
            .map(|r| {
                let v = m.add_var(format!("x{c}_{r}"), VarType::Continuous, 0.0, count);
                obj += LinExpr::term(v, if r == current { -10.0 } else { 0.01 });
                v
            })
            .collect();
        held[current] += count;
        let lost = if c % 3 == 0 { 1.0 } else { 0.0 };
        let supply = LinExpr::sum(row.iter().map(|v| (*v, 1.0)));
        m.add_constraint(format!("supply{c}"), supply, Sense::Le, count - lost);
        vars.push(row);
    }
    for r in 0..reservations {
        let by_msb =
            (0..msbs).map(|i| LinExpr::sum((0..per_msb).map(|k| (vars[i * per_msb + k][r], 1.0))));
        let max_msb = m.max_over(format!("maxmsb{r}"), by_msb);
        obj += LinExpr::term(max_msb, 5.0);
        let total = LinExpr::sum(vars.iter().map(|row| (row[r], 1.0)));
        let capacity = (held[r] * 0.7).floor();
        m.add_constraint(format!("cap{r}"), total - max_msb, Sense::Ge, capacity);
    }
    m.set_objective(obj);
    m
}

/// A dual-first cold start runs its dual phase on perturbed costs, its
/// free `max` columns on implied bounds. Whichever way the attempt ends —
/// optimal, out of iterations, or stalled and fallen back to the primal —
/// the engine prices with `sf.costs` inside the caller's bounds again.
#[test]
fn cold_dual_exits_restore_costs_and_bounds() {
    let sf = StandardForm::from_model(&region_lp());
    let solve = |max_iterations: usize, perturb: bool| {
        let cfg = SimplexConfig {
            max_iterations,
            ..SimplexConfig::default()
        };
        let mut lp = Simplex::new(&sf, cfg);
        lp.set_cold_dual_gate(0, perturb);
        let r = lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep);
        assert_eq!(lp.costs[..lp.n0], sf.costs[..], "costs");
        assert_eq!(lp.lower[..lp.n0], sf.lower[..], "lower bounds");
        assert_eq!(lp.upper[..lp.n0], sf.upper[..], "upper bounds");
        r
    };
    let optimal = solve(200_000, true);
    assert_eq!(optimal.status, LpStatus::Optimal);
    assert!(optimal.used_dual_simplex);
    assert_eq!(optimal.phase1_iterations, 0);

    let limited = solve(10, true);
    assert_eq!(limited.status, LpStatus::IterationLimit);
    assert!(limited.used_dual_simplex);
    assert_eq!(limited.dual_iterations, 10);

    // Unperturbed, the attempt stalls past its budget: the primal
    // two-phase solve answers.
    let fallen_back = solve(200_000, false);
    assert_eq!(fallen_back.status, LpStatus::Optimal);
    assert!(!fallen_back.used_dual_simplex);
    assert!(fallen_back.phase1_iterations > 0);
    assert!((fallen_back.objective - optimal.objective).abs() < 1e-6);
}

/// One dive step on `bounds`, as branch and bound's dive takes it: every
/// structural column of `r` within `1e-9` of an integer is fixed at its
/// rounded value, and the first fractional one at its rounding. Returns
/// whether anything was fractional.
fn dive_step(n: usize, r: &LpResult, bounds: &mut (Vec<f64>, Vec<f64>)) -> bool {
    let mut rounded = false;
    for j in 0..n {
        let v = r.values[j];
        let near = (v - v.round()).abs() <= 1e-9;
        if near || !rounded {
            rounded |= !near;
            bounds.0[j] = v.round();
            bounds.1[j] = v.round();
        }
    }
    rounded
}

/// A dozen boxed columns under six packing rows with fractional
/// coefficients and right-hand sides: the LP optimum is fractional in a
/// few columns at a time, so a dive on it takes several steps.
fn packing_lp() -> Model {
    let mut m = Model::new();
    let xs: Vec<_> = (0..12)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 4.0))
        .collect();
    for r in 0..6 {
        let row = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (*x, 1.0 + ((i * 7 + r * 3) % 5) as f64 * 0.5));
        m.add_constraint(
            format!("r{r}"),
            LinExpr::sum(row),
            Sense::Le,
            7.3 + r as f64,
        );
    }
    m.set_objective(LinExpr::sum(
        xs.iter()
            .enumerate()
            .map(|(i, x)| (*x, -1.0 - (i % 4) as f64)),
    ));
    m
}

/// A dive on one engine: each step's LP starts from the basis the last
/// one returned, which the engine holds, so it takes the held install —
/// and returns, to the bit, what a fresh engine returns from that basis.
#[test]
fn held_install_matches_a_fresh_engine_along_a_dive() {
    let sf = StandardForm::from_model(&packing_lp());
    let cfg = SimplexConfig::default();
    let mut engine = Simplex::new(&sf, cfg.clone());
    let mut r = engine.solve(&sf.lower, &sf.upper, None, DualRule::Repair);
    let mut bounds = (sf.lower.clone(), sf.upper.clone());
    let mut steps = 0;
    while r.status == LpStatus::Optimal && dive_step(sf.num_structural, &r, &mut bounds) {
        let before = engine.held_installs();
        let held = engine.solve(&bounds.0, &bounds.1, r.basis.as_ref(), DualRule::Repair);
        assert_eq!(engine.held_installs(), before + 1, "step {steps}");
        let fresh = Simplex::new(&sf, cfg.clone()).solve(
            &bounds.0,
            &bounds.1,
            r.basis.as_ref(),
            DualRule::Repair,
        );
        assert_eq!(format!("{held:?}"), format!("{fresh:?}"), "step {steps}");
        r = held;
        steps += 1;
    }
    assert!(steps >= 3, "the dive took {steps} steps");
}

/// A bound that changes only its sign bit is a changed bound: a column
/// fixed at `0.0` and then at `-0.0` (what rounding `-3.5e-15` gives)
/// rests on `-0.0` after the held install, as after a fresh one.
#[test]
fn held_install_applies_a_bound_that_changed_only_its_sign() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
    let y = m.add_var("y", VarType::Continuous, -4.0, 8.0);
    m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
    m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
    m.set_objective(-2.0 * x - 3.0 * y);
    let sf = StandardForm::from_model(&m);
    let cfg = SimplexConfig::default();
    let mut engine = Simplex::new(&sf, cfg.clone());
    let mut r = engine.solve(&sf.lower, &sf.upper, None, DualRule::Repair);
    for zero in [0.0, -0.0, 0.0] {
        let (mut lo, mut up) = (sf.lower.clone(), sf.upper.clone());
        (lo[1], up[1]) = (zero, zero);
        let before = engine.held_installs();
        let held = engine.solve(&lo, &up, r.basis.as_ref(), DualRule::Repair);
        assert_eq!(engine.held_installs(), before + 1);
        let fresh =
            Simplex::new(&sf, cfg.clone()).solve(&lo, &up, r.basis.as_ref(), DualRule::Repair);
        assert_eq!(
            format!("{held:?}"),
            format!("{fresh:?}"),
            "y fixed at {zero:?}"
        );
        assert_eq!(
            held.values[1].to_bits(),
            zero.to_bits(),
            "y rests on {zero:?}"
        );
        r = held;
    }
}

/// The held install needs the basis the engine holds from an optimal
/// solve that a fresh install rebuilds: another basis, an engine whose
/// last solve proved infeasibility, and one whose last solve went
/// dual-first (its free columns may rest on implied bounds) all take the
/// full install — and still answer as a fresh engine does.
#[test]
fn held_install_needs_the_basis_the_engine_holds() {
    let sf = StandardForm::from_model(&region_lp());
    let cfg = SimplexConfig::default();
    let fresh = |lo: &[f64], up: &[f64], warm: Option<&Basis>, rule| {
        let mut lp = Simplex::new(&sf, cfg.clone());
        lp.set_cold_dual_gate(0, true);
        lp.solve(lo, up, warm, rule)
    };
    let (lo, up) = (&sf.lower, &sf.upper);
    let mut engine = Simplex::new(&sf, cfg.clone());
    engine.set_cold_dual_gate(0, true);

    // Dual-first cold: optimal, but not held.
    let dual_first = engine.solve(lo, up, None, DualRule::LongStep);
    assert!(dual_first.used_dual_simplex && dual_first.phase1_iterations == 0);
    let again = engine.solve(lo, up, dual_first.basis.as_ref(), DualRule::Repair);
    assert_eq!(engine.held_installs(), 0, "after a dual-first cold solve");
    assert_eq!(
        format!("{again:?}"),
        format!(
            "{:?}",
            fresh(lo, up, dual_first.basis.as_ref(), DualRule::Repair)
        )
    );

    // Another basis: the slack basis of the primal crash.
    let mut tight = (lo.clone(), up.clone());
    dive_step(sf.num_structural, &again, &mut tight);
    let other = Simplex::new(&sf, cfg.clone()).solve(&tight.0, &tight.1, None, DualRule::Repair);
    assert_ne!(
        other.basis.as_ref().map(|b| &b.basis),
        again.basis.as_ref().map(|b| &b.basis)
    );
    let r = engine.solve(&tight.0, &tight.1, other.basis.as_ref(), DualRule::Repair);
    assert_eq!(engine.held_installs(), 0, "another basis");
    assert_eq!(
        format!("{r:?}"),
        format!(
            "{:?}",
            fresh(&tight.0, &tight.1, other.basis.as_ref(), DualRule::Repair)
        )
    );

    // Held now; an infeasible solve drops it.
    let held = engine.solve(&tight.0, &tight.1, r.basis.as_ref(), DualRule::Repair);
    assert_eq!(engine.held_installs(), 1, "the basis the engine holds");
    let mut infeasible = tight.clone();
    for j in 0..sf.num_structural {
        if infeasible.1[j].is_finite() {
            infeasible.0[j] = infeasible.1[j];
        }
    }
    let none = engine.solve(
        &infeasible.0,
        &infeasible.1,
        held.basis.as_ref(),
        DualRule::Repair,
    );
    assert_eq!(none.status, LpStatus::Infeasible);
    assert_eq!(
        engine.held_installs(),
        2,
        "the infeasible solve started held"
    );
    engine.solve(&tight.0, &tight.1, held.basis.as_ref(), DualRule::Repair);
    assert_eq!(engine.held_installs(), 2, "after an infeasible solve");
}

/// A dive whose steps after the first keep the factors the step before
/// left: each such step factorizes only when a maintenance trigger fires,
/// and answers as a fresh engine does from the same basis — the same
/// status and, to the optimality tolerance, the same objective — with
/// values that meet every row and bound.
#[test]
fn kept_factor_dive_steps_agree_with_a_fresh_engine() {
    let sf = StandardForm::from_model(&packing_lp());
    let cfg = SimplexConfig::default();
    let mut engine = Simplex::new(&sf, cfg.clone());
    let mut r = engine.solve(&sf.lower, &sf.upper, None, DualRule::Repair);
    let mut bounds = (sf.lower.clone(), sf.upper.clone());
    let (mut steps, mut refactors) = (0, 0);
    while r.status == LpStatus::Optimal && dive_step(sf.num_structural, &r, &mut bounds) {
        let first = steps == 0;
        let kept_before = engine.kept_installs;
        let step = if first {
            engine.solve(&bounds.0, &bounds.1, r.basis.as_ref(), DualRule::Repair)
        } else {
            engine.solve_dive_step(&bounds.0, &bounds.1, r.basis.as_ref(), DualRule::Repair)
        };
        let kept = engine.kept_installs - kept_before;
        assert_eq!(kept, usize::from(!first), "step {steps}");
        let triggered = step.basis_stats.refactors_interval
            + step.basis_stats.refactors_growth
            + step.basis_stats.refactors_accuracy;
        if !first {
            assert_eq!(step.refactorizations, triggered, "step {steps}");
        }
        refactors += step.refactorizations;
        let fresh = Simplex::new(&sf, cfg.clone()).solve(
            &bounds.0,
            &bounds.1,
            r.basis.as_ref(),
            DualRule::Repair,
        );
        assert_eq!(step.status, fresh.status, "step {steps}");
        if step.status == LpStatus::Optimal {
            let obj = step.objective;
            assert!(
                (obj - fresh.objective).abs() <= tol::OPT * (1.0 + obj.abs()),
                "step {steps}: {obj} against {}",
                fresh.objective
            );
            let mut residual = sf.rhs.clone();
            for (j, &v) in step.values.iter().enumerate() {
                assert!(v >= bounds.0[j] - tol::PRIMAL_FEAS && v <= bounds.1[j] + tol::PRIMAL_FEAS);
                sf.matrix.scatter_column(j, -v, &mut residual);
            }
            assert!(
                residual.iter().all(|e| e.abs() <= tol::PRIMAL_FEAS),
                "step {steps}"
            );
        }
        r = step;
        steps += 1;
    }
    assert!(steps >= 3, "the dive took {steps} steps");
    assert!(
        refactors < steps,
        "{refactors} factorizations over {steps} steps"
    );
}

/// A kept-factor step whose bounds move nonbasic columns off the value
/// they rested on patches the basic values by the moved columns: lifting
/// the lower bound of two columns resting at zero, the step answers as a
/// fresh engine does, with values that meet every row.
#[test]
fn kept_factors_patch_the_basic_values_of_moved_columns() {
    let sf = StandardForm::from_model(&packing_lp());
    let cfg = SimplexConfig::default();
    let (lo, up) = (sf.lower.clone(), sf.upper.clone());
    let mut engine = Simplex::new(&sf, cfg.clone());
    let cold = engine.solve(&lo, &up, None, DualRule::Repair);
    let held = engine.solve(&lo, &up, cold.basis.as_ref(), DualRule::Repair);
    let basis = held.basis.clone().expect("an optimal basis");
    let at_rest: Vec<usize> = (0..sf.num_structural)
        .filter(|&j| !basis.basis.contains(&j) && !basis.at_upper[j] && held.values[j] == 0.0)
        .take(2)
        .collect();
    assert_eq!(at_rest.len(), 2, "two structural columns resting at zero");
    let mut lifted = lo.clone();
    for &j in &at_rest {
        lifted[j] = 0.5;
    }
    let kept_before = engine.kept_installs;
    let step = engine.solve_dive_step(&lifted, &up, Some(&basis), DualRule::Repair);
    assert_eq!(engine.kept_installs, kept_before + 1);
    let fresh = Simplex::new(&sf, cfg).solve(&lifted, &up, Some(&basis), DualRule::Repair);
    assert_eq!(step.status, LpStatus::Optimal);
    assert_eq!(fresh.status, LpStatus::Optimal);
    let obj = step.objective;
    assert!((obj - fresh.objective).abs() <= tol::OPT * (1.0 + obj.abs()));
    let mut residual = sf.rhs.clone();
    for (j, &v) in step.values.iter().enumerate() {
        sf.matrix.scatter_column(j, -v, &mut residual);
    }
    assert!(residual.iter().all(|e| e.abs() <= tol::PRIMAL_FEAS));
    for &j in &at_rest {
        assert!(step.values[j] >= 0.5 - tol::PRIMAL_FEAS);
    }
}
