//! Property-based differential test for warm-basis repair across model
//! edits.
//!
//! A continuous session re-solves models that differ from the previous
//! round by added/removed columns (variables) and rows (constraints).
//! The warm path remaps the old basis by name ([`ras_milp::Basis::remap`]),
//! repairs it with dual pivots — degrading to a slack basis or a cold
//! start when the remap is unusable — and must always land on the *same*
//! status and objective as a cold solve of the edited model. These tests
//! draw both the "old" and "new" model from one shared coefficient pool,
//! so the edit is a genuine column/row add/remove with names preserved.

// The vendored proptest macro expands one token at a time; the test
// bodies below get close to the default recursion limit.
#![recursion_limit = "512"]

use proptest::prelude::*;
use ras_milp::simplex::{solve_lp, solve_lp_warm, DualRule, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

const NV: usize = 5;
const NC: usize = 4;

/// Everything needed to build any masked sub-model of one coefficient
/// pool: `coeffs[i][j]` is row i's coefficient on variable j.
#[derive(Debug, Clone)]
struct Pool {
    coeffs: Vec<Vec<i32>>,
    costs: Vec<i32>,
    rhs: Vec<i32>,
    senses: Vec<u8>,
    upper: Vec<i32>,
}

/// Builds the sub-model selecting the masked variables and rows. Names
/// come from the pool index, so shared structure keeps shared names.
fn build(pool: &Pool, vars: &[bool], rows: &[bool]) -> Model {
    let mut m = Model::new();
    let mut handles = Vec::new();
    for (j, &keep) in vars.iter().enumerate() {
        if keep {
            let v = m.add_var(
                format!("v{j}"),
                VarType::Continuous,
                0.0,
                f64::from(pool.upper[j]),
            );
            handles.push((j, v));
        }
    }
    m.set_objective(LinExpr::sum(
        handles.iter().map(|&(j, v)| (v, f64::from(pool.costs[j]))),
    ));
    for (i, &keep) in rows.iter().enumerate() {
        if !keep {
            continue;
        }
        let expr = LinExpr::sum(
            handles
                .iter()
                .map(|&(j, v)| (v, f64::from(pool.coeffs[i][j]))),
        );
        let sense = match pool.senses[i] {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(format!("r{i}"), expr, sense, f64::from(pool.rhs[i]));
    }
    m
}

fn names(m: &Model) -> (Vec<String>, Vec<String>) {
    (
        m.vars().iter().map(|v| v.name.clone()).collect(),
        m.constraints().iter().map(|c| c.name.clone()).collect(),
    )
}

fn arb_pool() -> impl Strategy<Value = Pool> {
    (
        prop::collection::vec(prop::collection::vec(-3..=3i32, NV), NC),
        prop::collection::vec(-4..=4i32, NV),
        prop::collection::vec(0..=8i32, NC),
        prop::collection::vec(0..=2u8, NC),
        prop::collection::vec(1..=4i32, NV),
    )
        .prop_map(|(coeffs, costs, rhs, senses, upper)| Pool {
            coeffs,
            costs,
            rhs,
            senses,
            upper,
        })
}

/// A var/row keep-mask with at least one `true`.
fn arb_mask(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(0..=1u8, len).prop_map(move |raw| {
        let mut m: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        if !m.iter().any(|b| *b) {
            m[0] = true;
        }
        m
    })
}

/// Warm solve of an edited model (columns and rows added/removed relative
/// to where the basis came from) must match the cold solve of the same
/// edited model exactly — the repair can only change how much work is
/// done, never the answer. Skips silently (no old optimal basis) rather
/// than rejecting, since the vendored runner has no `prop_assume`.
fn check_differential(
    pool: &Pool,
    old_vars: &[bool],
    old_rows: &[bool],
    new_vars: &[bool],
    new_rows: &[bool],
) {
    let cfg = SimplexConfig::default();

    let old_model = build(pool, old_vars, old_rows);
    let old_sf = StandardForm::from_model(&old_model);
    let old = solve_lp(&old_sf, &old_sf.lower.clone(), &old_sf.upper.clone(), &cfg);
    let Some(old_basis) = old.basis.filter(|_| old.status == LpStatus::Optimal) else {
        return;
    };

    let new_model = build(pool, new_vars, new_rows);
    let new_sf = StandardForm::from_model(&new_model);
    let cold = solve_lp(&new_sf, &new_sf.lower.clone(), &new_sf.upper.clone(), &cfg);

    let (ov, or) = names(&old_model);
    let (nv, nr) = names(&new_model);
    let remapped = old_basis.remap(&ov, &or, &nv, &nr);
    prop_assert_eq!(remapped.basis.len(), new_sf.num_rows);

    let warm = solve_lp_warm(
        &new_sf,
        &new_sf.lower.clone(),
        &new_sf.upper.clone(),
        &cfg,
        Some(&remapped),
    );
    prop_assert_eq!(warm.status, cold.status, "warm and cold disagree on status");
    if cold.status == LpStatus::Optimal {
        prop_assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "objectives diverge: warm {} cold {}",
            warm.objective,
            cold.objective
        );
    }
}

/// Remapping onto an identical model is the identity on solve outcomes,
/// and the warm start must actually engage (the basis is already optimal,
/// so no repair can fail).
fn check_identity(pool: &Pool, vars: &[bool], rows: &[bool]) {
    let cfg = SimplexConfig::default();
    let model = build(pool, vars, rows);
    let sf = StandardForm::from_model(&model);
    let cold = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    let Some(basis) = cold
        .basis
        .as_ref()
        .filter(|_| cold.status == LpStatus::Optimal)
    else {
        return;
    };

    let (v, r) = names(&model);
    let remapped = basis.remap(&v, &r, &v, &r);
    let warm = solve_lp_warm(
        &sf,
        &sf.lower.clone(),
        &sf.upper.clone(),
        &cfg,
        Some(&remapped),
    );
    prop_assert_eq!(warm.status, LpStatus::Optimal);
    prop_assert!(warm.warm_basis_used, "identity warm start must engage");
    prop_assert!(
        (warm.objective - cold.objective).abs() < 1e-9,
        "identity remap changed the objective: {} vs {}",
        warm.objective,
        cold.objective
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn remapped_warm_solve_matches_cold(
        pool in arb_pool(),
        old_vars in arb_mask(NV),
        old_rows in arb_mask(NC),
        new_vars in arb_mask(NV),
        new_rows in arb_mask(NC),
    ) {
        check_differential(&pool, &old_vars, &old_rows, &new_vars, &new_rows);
    }

    #[test]
    fn identity_remap_is_accepted(
        pool in arb_pool(),
        vars in arb_mask(NV),
        rows in arb_mask(NC),
    ) {
        check_identity(&pool, &vars, &rows);
    }
}

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
