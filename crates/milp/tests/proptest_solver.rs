//! Property-based tests: the exact solver must agree with brute force on
//! randomly generated small integer programs, and every reported solution
//! must satisfy the model it came from.

// The vendored proptest macro expands one token at a time; the larger
// test bodies below get close to the default recursion limit.
#![recursion_limit = "512"]

use proptest::prelude::*;
use ras_milp::simplex::{solve_lp, DualRule, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, SolveError, VarType};

/// Brute-force optimum of a pure-integer model with small box bounds.
///
/// Returns `None` when no feasible point exists.
fn brute_force(model: &Model) -> Option<f64> {
    let n = model.num_vars();
    let ranges: Vec<(i64, i64)> = model
        .vars()
        .iter()
        .map(|v| (v.lower as i64, v.upper as i64))
        .collect();
    let mut best: Option<f64> = None;
    let mut point = vec![0f64; n];
    fn recurse(
        model: &Model,
        ranges: &[(i64, i64)],
        point: &mut Vec<f64>,
        depth: usize,
        best: &mut Option<f64>,
    ) {
        if depth == ranges.len() {
            if model.violations(point, 1e-6).is_empty() {
                let obj = model.objective().eval(point);
                if best.is_none_or(|b| obj < b) {
                    *best = Some(obj);
                }
            }
            return;
        }
        for v in ranges[depth].0..=ranges[depth].1 {
            point[depth] = v as f64;
            recurse(model, ranges, point, depth + 1, best);
        }
    }
    recurse(model, &ranges, &mut point, 0, &mut best);
    best
}

/// Strategy: a random small integer program with up to 4 vars and 4
/// constraints, coefficients in [-5, 5], bounds in [0, 4].
fn small_mip() -> impl Strategy<Value = Model> {
    let coeff = -5..=5i32;
    let n_vars = 1..=4usize;
    let n_cons = 0..=4usize;
    (n_vars, n_cons).prop_flat_map(move |(nv, nc)| {
        let obj = prop::collection::vec(-5..=5i32, nv);
        let cons = prop::collection::vec(
            (
                prop::collection::vec(coeff.clone(), nv),
                0..=2u8,
                -6..=12i32,
            ),
            nc,
        );
        let uppers = prop::collection::vec(1..=4i32, nv);
        (obj, cons, uppers).prop_map(move |(obj, cons, uppers)| {
            let mut m = Model::new();
            let vars: Vec<_> = uppers
                .iter()
                .enumerate()
                .map(|(i, u)| m.add_var(format!("x{i}"), VarType::Integer, 0.0, *u as f64))
                .collect();
            for (ci, (coeffs, sense, rhs)) in cons.iter().enumerate() {
                let expr = LinExpr::sum(vars.iter().zip(coeffs).map(|(v, c)| (*v, *c as f64)));
                let sense = match sense {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                m.add_constraint(format!("c{ci}"), expr, sense, *rhs as f64);
            }
            m.set_objective(LinExpr::sum(
                vars.iter().zip(&obj).map(|(v, c)| (*v, *c as f64)),
            ));
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branch_and_bound_matches_brute_force(model in small_mip()) {
        let expected = brute_force(&model);
        match model.solve() {
            Ok(solution) => {
                let expected = expected.expect("solver found solution where brute force found none");
                prop_assert!(
                    (solution.objective - expected).abs() < 1e-6,
                    "solver {} != brute force {}", solution.objective, expected
                );
                prop_assert!(model.violations(&solution.values, 1e-6).is_empty());
            }
            Err(SolveError::Infeasible) => {
                prop_assert!(expected.is_none(), "solver says infeasible, brute force found {expected:?}");
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_mip(model in small_mip()) {
        // The root LP relaxation objective must lower-bound the integer optimum.
        let sf = ras_milp::standard::StandardForm::from_model(&model);
        let lp = ras_milp::simplex::solve_lp(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &ras_milp::simplex::SimplexConfig::default(),
        );
        if lp.status == ras_milp::simplex::LpStatus::Optimal {
            if let Ok(solution) = model.solve() {
                prop_assert!(
                    lp.objective <= solution.objective + 1e-6,
                    "LP bound {} above MIP optimum {}", lp.objective, solution.objective
                );
            }
        }
    }
}

/// Bound validity under limits: however early the search stops, the
/// reported `best_bound` must never exceed the true optimum (the
/// bound-corruption bugs this guards against were exactly limited nodes
/// leaking optimistic bounds into `best_bound`), and the reported gap
/// must be consistent with it. Returns an error message on violation.
fn check_bound_validity(model: &Model, max_nodes: usize) -> Result<(), String> {
    let expected = brute_force(model);
    let config = ras_milp::SolveConfig {
        max_nodes,
        ..ras_milp::SolveConfig::default()
    };
    match model.solve_with(&config) {
        Ok(solution) => {
            // The bound can never exceed the incumbent...
            if solution.stats.best_bound > solution.objective + 1e-6 {
                return Err(format!(
                    "bound {} overclaims incumbent {}",
                    solution.stats.best_bound, solution.objective
                ));
            }
            // ...nor the true optimum (bound validity).
            if let Some(opt) = expected {
                if solution.stats.best_bound > opt + 1e-6 {
                    return Err(format!(
                        "bound {} overclaims true optimum {}",
                        solution.stats.best_bound, opt
                    ));
                }
            }
            let want_gap = (solution.objective - solution.stats.best_bound).max(0.0);
            if (solution.stats.absolute_gap - want_gap).abs() > 1e-9 {
                return Err(format!(
                    "gap {} inconsistent with bound (want {want_gap})",
                    solution.stats.absolute_gap
                ));
            }
            // A solve that claims optimality must actually be optimal.
            if solution.status == ras_milp::Status::Optimal {
                let opt = expected.ok_or("optimal claim on infeasible model")?;
                if (solution.objective - opt).abs() > 1e-6 {
                    return Err(format!(
                        "claimed optimal {} but true optimum is {opt}",
                        solution.objective
                    ));
                }
            }
            Ok(())
        }
        Err(SolveError::Infeasible) if expected.is_some() => {
            Err(format!("solver says infeasible, optimum is {expected:?}"))
        }
        // Limits may stop anything before an incumbent exists.
        Err(SolveError::Infeasible) | Err(SolveError::NoIncumbent) => Ok(()),
        Err(e) => Err(format!("unexpected solver error: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reported_bound_never_overclaims(model in small_mip(), max_nodes in 1usize..12) {
        if let Err(msg) = check_bound_validity(&model, max_nodes) {
            prop_assert!(false, "{msg}");
        }
    }
}

/// Random LP relaxations: warm-started re-solves after a bound change
/// must agree with cold solves (that is the entire warm-start contract).
#[test]
fn warm_solve_matches_cold_on_random_lps() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ras_milp::simplex::{solve_lp, solve_lp_warm, SimplexConfig};
    use ras_milp::standard::StandardForm;

    let mut rng = StdRng::seed_from_u64(0xC01D);
    let mut checked = 0;
    for case in 0..400 {
        // `nv` must be usize: `j` below inherits its type and indexes the
        // bound vectors.
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
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        if base.status != ras_milp::simplex::LpStatus::Optimal {
            continue;
        }
        // Perturb one variable bound, branch-and-bound style.
        let j = rng.gen_range(0..nv);
        let mut lower = sf.lower.clone();
        let mut upper = sf.upper.clone();
        if rng.gen::<bool>() {
            lower[j] = (lower[j] + 1.0).min(upper[j]);
        } else {
            upper[j] = (upper[j] - 1.0).max(lower[j]);
        }
        let cold = solve_lp(&sf, &lower, &upper, &cfg);
        let warm = solve_lp_warm(&sf, &lower, &upper, &cfg, base.basis.as_ref());
        assert_eq!(
            cold.status, warm.status,
            "case {case}: status mismatch cold={:?} warm={:?}",
            cold.status, warm.status
        );
        if cold.status == ras_milp::simplex::LpStatus::Optimal {
            assert!(
                (cold.objective - warm.objective).abs() < 1e-5,
                "case {case}: cold {} vs warm {}",
                cold.objective,
                warm.objective
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "too few optimal cases exercised: {checked}");
}

/// `sf`'s bounds with one branch applied: column `j` (modulo the model's
/// `num_vars`) gets `value` as its upper bound when `upper` is 1, else as
/// its lower one, clamped into its range.
fn branched(
    sf: &StandardForm,
    num_vars: usize,
    (j, upper, value): (usize, u8, i32),
) -> [Vec<f64>; 2] {
    let (mut lo, mut up) = (sf.lower.clone(), sf.upper.clone());
    let j = j % num_vars;
    let v = f64::from(value).clamp(lo[j], up[j]);
    if upper == 1 {
        up[j] = v;
    } else {
        lo[j] = v;
    }
    [lo, up]
}

/// An engine with the dual-first cold start open to LPs of any size, so
/// that the long step's cold solves run the dual iteration too.
fn engine(sf: &StandardForm) -> Simplex<'_> {
    let mut lp = Simplex::new(sf, SimplexConfig::default());
    lp.set_cold_dual_gate(0, true);
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every `Simplex::solve` resets its engine (branch and bound's
    // look-ahead rests on it): an LP B solved on an engine that has just
    // solved A — warm from the root basis, leaving behind dual devex
    // weights, kept duals and maintained reduced costs — is, to every
    // printed digit of its result, B solved on a fresh engine. Under
    // both rules, with B warm from A's basis and cold.
    #[test]
    fn a_reused_engine_solves_like_a_fresh_one(
        model in small_mip(),
        cut_a in (0..4usize, 0..2u8, 0..=4i32),
        cut_b in (0..4usize, 0..2u8, 0..=4i32),
    ) {
        let sf = StandardForm::from_model(&model);
        let root = solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default());
        let [lo_a, up_a] = branched(&sf, model.num_vars(), cut_a);
        let [lo_b, up_b] = branched(&sf, model.num_vars(), cut_b);
        for rule in [DualRule::LongStep, DualRule::Repair] {
            for warm_from_a in [true, false] {
                let mut reused = engine(&sf);
                let a = reused.solve(&lo_a, &up_a, root.basis.as_ref(), rule);
                let warm = a.basis.filter(|_| warm_from_a);
                let again = reused.solve(&lo_b, &up_b, warm.as_ref(), rule);
                let fresh = engine(&sf).solve(&lo_b, &up_b, warm.as_ref(), rule);
                prop_assert_eq!(format!("{again:?}"), format!("{fresh:?}"));
            }
        }
    }
}
