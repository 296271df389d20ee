//! Structural columns the model fixes (`lower == upper`) can never enter
//! the basis, so the simplex must not see them: appending such columns,
//! with nonzero matrix entries and costs, to an LP leaves its status, its
//! iteration count and the bits of its objective unchanged. The RAS model
//! relies on this — every model carries one elastic column per softenable
//! row, fixed at zero until softening raises its bound — and it holds
//! only because the size rules (the devex/partial-devex switch at
//! `AUTO_PARTIAL_MIN_COLS`, the simplex's one pricing rule; the
//! partial-pricing list cap; the dual-first gate and its budget) count
//! the columns the model leaves free, and because a fixed column's devex
//! weight never restarts the reference framework.

use ras_milp::simplex::{
    DualRule, LpResult, LpStatus, Simplex, SimplexConfig, AUTO_PARTIAL_MIN_COLS,
};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// A region-shaped LP: `msbs · per_msb` classes of servers and
/// `reservations` reservations, each class rewarded for staying (−10),
/// charged 0.01 elsewhere and every third one a server short; per
/// reservation a free `max`-over-MSBs column costing 5 and a capacity
/// row net of it.
fn region_lp(msbs: usize, per_msb: usize, reservations: usize) -> Model {
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

/// `model` with `k` columns appended, each fixed at zero, entering two
/// rows with nonzero coefficients and carrying a nonzero cost.
fn with_fixed(model: &Model, k: usize) -> Model {
    let mut m = model.clone();
    let mut obj = m.objective().clone();
    let rows = m.num_constraints();
    for i in 0..k {
        let v = m.add_var(format!("fixed{i}"), VarType::Continuous, 0.0, 0.0);
        let first = i % rows;
        m.add_term(first, v, 1.0 + (i % 3) as f64);
        m.add_term((first + 1 + i % 5) % rows, v, -2.0);
        obj += LinExpr::term(v, if i % 2 == 0 { 3.0 } else { -3.0 });
    }
    m.set_objective(obj);
    m
}

/// Columns the size rules count when nothing is fixed: structural and
/// slack, then one artificial per row.
fn columns(sf: &StandardForm) -> usize {
    sf.num_cols() + sf.num_rows
}

type Fingerprint = (LpStatus, usize, u64);

fn fingerprint(r: &LpResult) -> Fingerprint {
    (r.status, r.iterations, r.objective.to_bits())
}

/// Solves `model` cold under its own bounds by `rule`, through `gate`.
fn solve(model: &Model, rule: DualRule, gate: Option<usize>) -> LpResult {
    let sf = StandardForm::from_model(model);
    let mut lp = Simplex::new(&sf, SimplexConfig::default());
    if let Some(min_cols) = gate {
        lp.set_cold_dual_gate(min_cols, true);
    }
    lp.solve(&sf.lower, &sf.upper, None, rule)
}

/// Above the devex/partial threshold, with `k` large enough to move
/// `⌊√columns⌋` and so the partial-pricing list cap `2⌊√columns⌋`.
#[test]
fn fixed_columns_leave_partial_pricing_alone() {
    let base = region_lp(16, 8, 24);
    let sf = StandardForm::from_model(&base);
    let total = columns(&sf);
    assert!(total > AUTO_PARTIAL_MIN_COLS);
    let k = 100;
    let root = |n: usize| (n as f64).sqrt().floor();
    assert!(root(total + k) > root(total));
    // Primal two-phase from the slack crash (the repair's cold solve
    // never goes dual-first): partial pricing carries it.
    let plain = solve(&base, DualRule::Repair, None);
    assert_eq!(plain.status, LpStatus::Optimal);
    let fixed = solve(&with_fixed(&base, k), DualRule::Repair, None);
    assert_eq!(fingerprint(&fixed), fingerprint(&plain));
}

/// Below the threshold, with `k` large enough to lift the column count
/// past it: the LP stays on full devex.
#[test]
fn fixed_columns_keep_a_small_lp_on_devex() {
    let base = region_lp(16, 8, 22);
    let total = columns(&StandardForm::from_model(&base));
    assert!(total <= AUTO_PARTIAL_MIN_COLS);
    let k = AUTO_PARTIAL_MIN_COLS + 1 - total;
    let plain = solve(&base, DualRule::Repair, None);
    assert_eq!(plain.status, LpStatus::Optimal);
    let fixed = solve(&with_fixed(&base, k), DualRule::Repair, None);
    assert_eq!(fingerprint(&fixed), fingerprint(&plain));
}

/// The dual-first cold start: gated at the LP's own column count it stays
/// primal, fixed columns or not; gated open, it runs the same dual phase
/// — the same perturbation draws and the same budget.
#[test]
fn fixed_columns_leave_the_cold_dual_gate_and_budget_alone() {
    let base = region_lp(8, 4, 8);
    let total = columns(&StandardForm::from_model(&base));
    let extended = with_fixed(&base, 40);
    for (gate, dual_first) in [(total, false), (0, true)] {
        let plain = solve(&base, DualRule::LongStep, Some(gate));
        assert_eq!(plain.status, LpStatus::Optimal);
        assert_eq!(plain.used_dual_simplex, dual_first, "gate {gate}");
        let fixed = solve(&extended, DualRule::LongStep, Some(gate));
        assert_eq!(fixed.used_dual_simplex, dual_first, "gate {gate}");
        assert_eq!(fingerprint(&fixed), fingerprint(&plain), "gate {gate}");
    }
}
