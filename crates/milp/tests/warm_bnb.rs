//! Warm-start integrity at the branch-and-bound level: the search's
//! optimum matches an enumeration of every integer point, supplied
//! incumbents never change it — only the work needed to find it — and
//! candidate incumbents are validated and installed in one pass.
//!
//! At the LP level underneath it, the node re-solve path's
//! pattern-restricted dual ratio test must pick exactly what a scan of
//! every column (`support`) picks, and a node LP must be a pure function
//! of its bounds and its warm basis — what the search's look-ahead rests
//! on.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::simplex::{solve_lp, Basis, DualRule, LpResult, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{tol, LinExpr, Model, Sense, SolveConfig, SolveError, Status, VarType};

/// A random small integer program (feasibility not guaranteed).
fn random_mip(rng: &mut StdRng) -> Model {
    let nv = rng.gen_range(2..6);
    let nc = rng.gen_range(1..6);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                VarType::Integer,
                0.0,
                rng.gen_range(1..6) as f64,
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
        m.add_constraint(format!("c{ci}"), expr, sense, rng.gen_range(-4..10) as f64);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..6) as f64)),
    ));
    m
}

/// The optimum of a small bounded integer program by enumerating every
/// integer point: a reference that shares no code with branch and bound.
/// `None` when no point is feasible.
fn enumerated_optimum(model: &Model) -> Option<f64> {
    let vars = model.vars();
    let mut point: Vec<f64> = vars.iter().map(|v| v.lower).collect();
    let mut best: Option<f64> = None;
    loop {
        if model.violations(&point, tol::EPS).is_empty() {
            let obj = model.objective().eval(&point);
            best = Some(best.map_or(obj, |b| b.min(obj)));
        }
        // Next point, odometer style; done once every digit wrapped.
        let Some(j) = (0..point.len()).find(|&j| point[j] < vars[j].upper) else {
            return best;
        };
        point[j] += 1.0;
        for (k, value) in point.iter_mut().enumerate().take(j) {
            *value = vars[k].lower;
        }
    }
}

#[test]
fn heuristics_and_incumbents_never_change_the_optimum() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut optima_checked = 0;
    for case in 0..150 {
        let model = random_mip(&mut rng);
        match (enumerated_optimum(&model), model.solve()) {
            (Some(expected), Ok(b)) => {
                assert_eq!(b.status, Status::Optimal, "case {case}");
                assert!(
                    (expected - b.objective).abs() < 1e-6,
                    "case {case}: enumeration finds {expected}, the search {}",
                    b.objective
                );
                // Feed the optimum back as a warm incumbent: still the same.
                let warm = model
                    .solve_with(&SolveConfig {
                        incumbents: vec![b.values.clone()],
                        ..SolveConfig::default()
                    })
                    .expect("warm solve");
                assert!(
                    (warm.objective - b.objective).abs() < 1e-6,
                    "case {case}: warm incumbent changed the optimum"
                );
                assert!(warm.stats.incumbent_seeded, "case {case}");
                optima_checked += 1;
            }
            (None, Err(e)) => {
                assert_eq!(e, SolveError::Infeasible, "case {case}");
            }
            (expected, b) => panic!("case {case}: enumeration {expected:?}, search {b:?}"),
        }
    }
    assert!(
        optima_checked > 40,
        "too few feasible cases: {optima_checked}"
    );
}

#[test]
fn invalid_incumbents_are_ignored() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
    m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
    m.set_objective(-1.0 * x);
    // An incumbent that violates the constraint must be discarded.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![10.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 3);
    // An incumbent of the wrong arity must be discarded too.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![1.0, 2.0, 3.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 3);
}

#[test]
fn suboptimal_incumbent_is_improved_upon() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
    m.add_constraint("c", 1.0 * x, Sense::Le, 8.0);
    m.set_objective(-1.0 * x);
    // x = 2 is feasible but poor; the solver must still reach x = 8.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![2.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 8);
}

/// Candidates are validated once each, in list order, and the first of
/// the cheapest valid ones is installed. The model has two optimal points
/// and a fractional root relaxation (`x + y = 1.5`), so the search only
/// ever finds points as good as the installed one, never strictly better,
/// and returns the installed candidate's values.
#[test]
fn cheapest_valid_candidate_is_installed_first_on_ties() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 1.0);
    let y = m.add_var("y", VarType::Integer, 0.0, 1.0);
    m.add_constraint("c", 2.0 * x + 2.0 * y, Sense::Le, 3.0);
    m.set_objective(-1.0 * x - 1.0 * y);
    let (a, b) = (vec![1.0, 0.0], vec![0.0, 1.0]);
    let solve = |incumbents: Vec<Vec<f64>>| {
        m.solve_with(&SolveConfig {
            incumbents,
            ..SolveConfig::default()
        })
        .expect("feasible")
    };
    let wrong_arity = vec![1.0, 0.0, 0.0];
    let violating = vec![1.0, 1.0];
    let costly = vec![0.0, 0.0];
    let s = solve(vec![
        wrong_arity,
        violating.clone(),
        costly,
        b.clone(),
        a.clone(),
    ]);
    assert_eq!(s.values, b, "the first of the two cheapest wins");
    assert!(s.stats.incumbent_seeded);
    assert_eq!(s.objective, -1.0);

    let s = solve(vec![a.clone(), b]);
    assert_eq!(s.values, a);
    assert!(s.stats.incumbent_seeded);

    let s = solve(vec![violating, vec![0.5, 0.0], vec![1.0]]);
    assert!(!s.stats.incumbent_seeded, "no valid candidate");
    assert_eq!(s.objective, -1.0);
}

/// A random bounded LP with small integer data — degenerate vertices
/// and tied dual ratios are the norm — and a few nonzeros per row, so
/// the pivot row `ρ` stays sparse on the larger draws.
fn random_lp(rng: &mut StdRng) -> Model {
    let nv: usize = rng.gen_range(6..40);
    let nc = rng.gen_range(3..30);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            let ub = rng.gen_range(1..7) as f64;
            m.add_var(format!("x{i}"), VarType::Continuous, 0.0, ub)
        })
        .collect();
    for ci in 0..nc {
        let terms: Vec<_> = (0..rng.gen_range(2..7))
            .map(|_| (vars[rng.gen_range(0..nv)], rng.gen_range(1..4) as f64))
            .collect();
        let sense = if rng.gen_range(0..4) == 0 {
            Sense::Ge
        } else {
            Sense::Le
        };
        let rhs = rng.gen_range(4..24) as f64;
        m.add_constraint(format!("c{ci}"), LinExpr::sum(terms), sense, rhs);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..3) as f64)),
    ));
    m
}

/// The pattern-restricted dual ratio test of the node re-solve path must
/// pick, pivot for pivot and for the leaving row production chose, the
/// entering column a scan of every column picks: over warm re-solves
/// after branch-like bound changes, from optimal bases and from bases
/// with an artificial column swapped in. The oracle computes each `α_j`
/// as its own column dot where production reads the scattered α-row, and
/// prices `d_j` on the same duals (see `support`). Those duals, kept by
/// the dual step between factorizations, must stay within 1e-9 of a
/// fresh `B⁻ᵀc_B` at every repair pivot.
#[test]
fn pattern_restricted_ratio_test_matches_the_full_scan() {
    let mut rng = StdRng::seed_from_u64(0x5EED12);
    let (mut resolves, mut pivots, mut tied_pivots, mut artificial_bases) = (0, 0, 0, 0);
    let mut stepped_pivots = 0;
    let mut no_candidate = 0;
    while resolves < 720 {
        let model = random_lp(&mut rng);
        let sf = StandardForm::from_model(&model);
        let cold = solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default());
        let Some(basis) = cold
            .basis
            .clone()
            .filter(|_| cold.status == LpStatus::Optimal)
        else {
            continue;
        };
        let (rows, columns) = (sf.num_rows, sf.num_cols() + sf.num_rows);
        // One engine re-used across this LP's re-solves, as branch and
        // bound re-uses its own.
        let mut lp = Simplex::new(&sf, SimplexConfig::default());
        for _ in 0..3 {
            // Branches: cut up to three variables' ranges at their LP values.
            let (mut lower, mut upper) = (sf.lower.clone(), sf.upper.clone());
            for _ in 0..rng.gen_range(1..4) {
                let j = rng.gen_range(0..model.num_vars());
                if rng.gen_range(0..2) == 0 {
                    upper[j] = (cold.values[j] - 0.5).floor().max(lower[j]);
                } else {
                    lower[j] = (cold.values[j] + 0.5).ceil().min(upper[j]);
                }
            }
            let mut warm = basis.clone();
            if rng.gen_range(0..4) == 0 {
                // A remapped basis: some row covered by its artificial.
                let row = rng.gen_range(0..rows);
                warm.basis[row] = sf.num_cols() + row;
                artificial_bases += 1;
            }
            // Pivots of this re-solve so far: from the second on, the
            // duals were stepped, not recomputed.
            let mut solve_pivots = 0;
            let observed = lp.solve_observed(
                &lower,
                &upper,
                Some(&warm),
                DualRule::Repair,
                |lp, row, to_upper, entering| {
                    let (expected, tied) = support::full_scan_entering(lp, columns, to_upper);
                    assert_eq!(entering, expected, "entering column differs (row {row})");
                    let fresh = lp.fresh_duals().expect("the repair's basis factorizes");
                    let scale = fresh.iter().fold(1.0, |s: f64, v| s.max(v.abs()));
                    let drift = lp
                        .duals()
                        .iter()
                        .zip(&fresh)
                        .fold(0.0, |d: f64, (a, b)| d.max((a - b).abs()));
                    assert!(
                        drift <= 1e-9 * scale,
                        "maintained duals off by {drift:e} (row {row})"
                    );
                    stepped_pivots += usize::from(solve_pivots > 0);
                    solve_pivots += 1;
                    pivots += 1;
                    tied_pivots += usize::from(tied > 0);
                    no_candidate += usize::from(entering.is_none());
                },
            );
            // Observing changes nothing, and neither does re-use.
            let plain = Simplex::new(&sf, SimplexConfig::default()).solve(
                &lower,
                &upper,
                Some(&warm),
                DualRule::Repair,
            );
            assert_eq!(observed.status, plain.status);
            assert_eq!(observed.iterations, plain.iterations);
            assert_eq!(observed.objective.to_bits(), plain.objective.to_bits());
            resolves += 1;
        }
    }
    assert!(pivots > 500, "too few repair pivots observed: {pivots}");
    assert!(tied_pivots > 60, "too few tied dual ratios: {tied_pivots}");
    assert!(
        artificial_bases > 60,
        "too few artificial bases: {artificial_bases}"
    );
    assert!(no_candidate > 20, "too few dead-end rows: {no_candidate}");
    assert!(
        stepped_pivots > 100,
        "too few pivots on stepped duals: {stepped_pivots}"
    );
}

/// Asserts that every field of two LP results is bit for bit the same.
fn assert_same_lp(a: &LpResult, b: &LpResult, what: &str) {
    // The first index at which two vectors differ in length or in bits.
    let first_diff = |x: &[f64], y: &[f64]| {
        (x.len() != y.len())
            .then_some(x.len().min(y.len()))
            .or_else(|| {
                x.iter()
                    .zip(y)
                    .position(|(p, q)| p.to_bits() != q.to_bits())
            })
    };
    let basis = |lp: &LpResult| {
        lp.basis
            .as_ref()
            .map(|b| (b.basis.clone(), b.at_upper.clone()))
    };
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{what}: objective"
    );
    assert_eq!(first_diff(&a.values, &b.values), None, "{what}: values");
    assert_eq!(first_diff(&a.duals, &b.duals), None, "{what}: duals");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.phase1_iterations, b.phase1_iterations, "{what}: phase 1");
    assert_eq!(a.dual_iterations, b.dual_iterations, "{what}: dual");
    assert_eq!(
        a.used_dual_simplex, b.used_dual_simplex,
        "{what}: dual used"
    );
    assert_eq!(a.warm_basis_used, b.warm_basis_used, "{what}: warm used");
    assert_eq!(a.refactorizations, b.refactorizations, "{what}: refactors");
    assert_eq!(a.basis_stats, b.basis_stats, "{what}: basis stats");
    assert_eq!(a.pricing, b.pricing, "{what}: pricing");
    assert_eq!(basis(a), basis(b), "{what}: basis");
}

/// A node LP is a pure function of its bounds and its parent's basis:
/// neither what an engine solved before nor which engine solves it shows
/// in any field of the result. Branch and bound's look-ahead solves nodes
/// on a second engine, in an order of its own, and hands the results to a
/// search that must not be able to tell.
///
/// On a region-shaped LP under devex and one past the partial-pricing
/// threshold, nodes branch off the root basis along a random path — each
/// step a parent's two children, both cutting the parent's vertex off at
/// one column, the walk going on from a feasible one or restarting at the
/// root — and are solved in that order on one engine, then each on a
/// fresh engine, then in reverse order on one engine.
#[test]
fn node_lps_are_pure_functions_of_their_bounds_and_basis() {
    let mut rng = StdRng::seed_from_u64(0x0A11_0DE5);
    for (msbs, per_msb, reservations) in [(8, 4, 8), (16, 8, 34)] {
        let model = support::region_lp(&mut rng, msbs, per_msb, reservations);
        let sf = StandardForm::from_model(&model);
        let config = SimplexConfig::default();
        let root = solve_lp(&sf, &sf.lower, &sf.upper, &config);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut engine = Simplex::new(&sf, config.clone());
        let mut nodes: Vec<(Vec<f64>, Vec<f64>, Basis)> = Vec::new();
        let mut in_order = Vec::new();
        let (mut lower, mut upper, mut parent) = (sf.lower.clone(), sf.upper.clone(), root.clone());
        while nodes.len() < 48 {
            let warm = parent.basis.clone().expect("an optimal parent has a basis");
            let j = rng.gen_range(0..model.num_vars());
            let v = parent.values[j];
            let mut feasible = Vec::new();
            for (is_upper, bound) in [(true, v.ceil() - 1.0), (false, v.floor() + 1.0)] {
                let (mut lo, mut up) = (lower.clone(), upper.clone());
                if is_upper && bound >= lo[j] {
                    up[j] = bound;
                } else if !is_upper && bound <= up[j] {
                    lo[j] = bound;
                } else {
                    continue;
                }
                let lp = engine.solve(&lo, &up, Some(&warm), DualRule::Repair);
                if lp.status == LpStatus::Optimal {
                    feasible.push((lo.clone(), up.clone(), lp.clone()));
                }
                nodes.push((lo, up, warm.clone()));
                in_order.push(lp);
            }
            (lower, upper, parent) = if feasible.is_empty() {
                (sf.lower.clone(), sf.upper.clone(), root.clone())
            } else {
                feasible.swap_remove(rng.gen_range(0..feasible.len()))
            };
        }
        let shape = format!("{msbs}x{per_msb}x{reservations}");
        let repaired = in_order.iter().filter(|lp| lp.iterations > 0).count();
        assert!(repaired >= 40, "{shape}: only {repaired} nodes pivoted");
        for (i, (lo, up, warm)) in nodes.iter().enumerate() {
            let fresh =
                Simplex::new(&sf, config.clone()).solve(lo, up, Some(warm), DualRule::Repair);
            assert_same_lp(
                &in_order[i],
                &fresh,
                &format!("{shape} node {i}, fresh engine"),
            );
        }
        let mut reversed = Simplex::new(&sf, config.clone());
        for (i, (lo, up, warm)) in nodes.iter().enumerate().rev() {
            let lp = reversed.solve(lo, up, Some(warm), DualRule::Repair);
            assert_same_lp(
                &in_order[i],
                &lp,
                &format!("{shape} node {i}, reverse order"),
            );
        }
    }
}

/// The node repair's infeasibility verdict is the cold solve's. Random
/// LPs are re-solved from their optimal basis, on the repair's engine,
/// under random fixings: integral ones, which often leave no feasible
/// point, and every column nudged off its optimal value by less than the
/// feasibility tolerance, which leaves violations too small to prove
/// anything. Whenever the warm re-solve says infeasible, a cold solve must
/// say so too. Some verdicts must be the repair's own certificate (a warm
/// solve that found a row no column can enter), and some rows no column
/// can enter must not be taken for one.
#[test]
fn the_repairs_infeasible_verdict_agrees_with_a_cold_solve() {
    let mut rng = StdRng::seed_from_u64(0xF1A5);
    let (mut resolves, mut certified, mut declined) = (0, 0, 0);
    let config = SimplexConfig::default();
    while resolves < 600 {
        let model = random_lp(&mut rng);
        let sf = StandardForm::from_model(&model);
        let cold = solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default());
        let Some(basis) = cold
            .basis
            .clone()
            .filter(|_| cold.status == LpStatus::Optimal)
        else {
            continue;
        };
        let mut engine = Simplex::new(&sf, config.clone());
        for _ in 0..4 {
            let (mut lower, mut upper) = (sf.lower.clone(), sf.upper.clone());
            if rng.gen_range(0..2) == 0 {
                for _ in 0..rng.gen_range(1..6) {
                    let j = rng.gen_range(0..model.num_vars());
                    let v = rng.gen_range(0..=sf.upper[j] as i64) as f64;
                    (lower[j], upper[j]) = (v, v);
                }
            } else {
                for j in 0..model.num_vars() {
                    let v = (cold.values[j] + rng.gen_range(-1e-7..1e-7)).clamp(lower[j], upper[j]);
                    (lower[j], upper[j]) = (v, v);
                }
            }
            let mut blocked = false;
            let warm = engine.solve_observed(
                &lower,
                &upper,
                Some(&basis),
                DualRule::Repair,
                |_, _, _, entering| blocked |= entering.is_none(),
            );
            let again = solve_lp(&sf, &lower, &upper, &SimplexConfig::default());
            if warm.status == LpStatus::Infeasible {
                assert_eq!(
                    again.status,
                    LpStatus::Infeasible,
                    "re-solve {resolves}: the repair says infeasible, a cold solve does not"
                );
                certified += usize::from(warm.warm_basis_used);
            } else {
                declined += usize::from(blocked);
            }
            resolves += 1;
        }
    }
    assert!(certified > 20, "too few certified verdicts: {certified}");
    assert!(declined > 0, "no blocked row was left to the cold solve");
}
