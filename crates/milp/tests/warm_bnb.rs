//! Warm-start integrity at the branch-and-bound level: enabling warm
//! incumbents, heuristics, or presolve must never change the optimum —
//! only the work needed to find it.
//!
//! At the LP level underneath it, the node re-solve path's
//! pattern-restricted dual ratio test must pick exactly what a scan of
//! every column (`support`) picks.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::simplex::{solve_lp, solve_lp_warm, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, SolveConfig, VarType};

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

#[test]
fn heuristics_and_incumbents_never_change_the_optimum() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut optima_checked = 0;
    for case in 0..150 {
        let model = random_mip(&mut rng);
        let plain = model.solve_with(&SolveConfig {
            use_heuristics: false,
            ..SolveConfig::default()
        });
        let with_heuristics = model.solve();
        match (plain, with_heuristics) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "case {case}: heuristics changed the optimum {} -> {}",
                    a.objective,
                    b.objective
                );
                // Feed the optimum back as a warm incumbent: still the same.
                let warm = model
                    .solve_with(&SolveConfig {
                        initial_incumbent: Some(b.values.clone()),
                        ..SolveConfig::default()
                    })
                    .expect("warm solve");
                assert!(
                    (warm.objective - b.objective).abs() < 1e-6,
                    "case {case}: warm incumbent changed the optimum"
                );
                optima_checked += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "case {case}: heuristics changed the error kind"
                );
            }
            (a, b) => panic!("case {case}: divergent outcomes {a:?} vs {b:?}"),
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
            initial_incumbent: Some(vec![10.0]),
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 3);
    // An incumbent of the wrong arity must be discarded too.
    let s = m
        .solve_with(&SolveConfig {
            initial_incumbent: Some(vec![1.0, 2.0, 3.0]),
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
            initial_incumbent: Some(vec![2.0]),
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 8);
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
        let config = SimplexConfig {
            warm_dual: false,
            ..SimplexConfig::default()
        };
        // One engine re-used across this LP's re-solves, as branch and
        // bound re-uses its own.
        let mut lp = Simplex::new(&sf, config.clone());
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
            let plain = solve_lp_warm(&sf, &lower, &upper, &config, Some(&warm));
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
