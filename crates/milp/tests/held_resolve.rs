//! Held-install identity: an engine handed the warm basis it already
//! holds — the one its last optimal solve returned — applies only the
//! bounds that changed instead of resetting, and must return, to the bit
//! (`Debug` prints every field, each float in its shortest round-trip
//! digits), what a fresh engine returns from the same basis.
//!
//! The property walks random LPs with free, boxed and fixed columns the
//! way a dive does: each step fixes some columns at `round()` of their
//! values — a boxed column spanning zero rounds `-0.3` to `-0.0`, a bound
//! that equals `0.0` under `==` and differs in its bits — re-fixes some
//! columns fixed at one zero at the other, and loosens some earlier
//! fixings back to the model's bounds, then re-solves on the one engine
//! from the basis it holds and on a fresh one. Now and then a step hands
//! the engine an unrelated basis instead, which must take the full
//! install (the held-install count stays put) and still agree.

// The vendored proptest macro expands one token at a time; the test
// bodies below get close to the default recursion limit.
#![recursion_limit = "2048"]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::simplex::{Basis, DualRule, LpResult, LpStatus, Simplex, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// A random LP whose columns are free (no cost, so it stays bounded),
/// boxed — some across zero — or fixed, under rows built around a point
/// inside the bounds so that most draws are feasible.
fn random_lp(rng: &mut StdRng) -> Model {
    let nv = rng.gen_range(3..10);
    let nc = rng.gen_range(2..8);
    let mut m = Model::new();
    let mut point = Vec::new();
    let mut objective = Vec::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            let (lo, up, cost) = match rng.gen_range(0..5) {
                0 => (f64::NEG_INFINITY, f64::INFINITY, 0.0),
                1 => {
                    let v = rng.gen_range(-2..4) as f64;
                    (v, v, rng.gen_range(-3..4) as f64)
                }
                2 => (-3.0, 3.0, rng.gen_range(-3..4) as f64 + 0.5),
                _ => (0.0, rng.gen_range(1..6) as f64, rng.gen_range(-5..3) as f64),
            };
            let at = if lo.is_finite() {
                lo + (up - lo) * rng.gen_range(0.0..1.0)
            } else {
                rng.gen_range(-2.0..2.0)
            };
            point.push(at);
            let v = m.add_var(format!("x{i}"), VarType::Continuous, lo, up);
            objective.push((v, cost));
            v
        })
        .collect();
    for ci in 0..nc {
        let coefs: Vec<f64> = (0..nv).map(|_| rng.gen_range(-4..5) as f64 * 0.5).collect();
        let at: f64 = coefs.iter().zip(&point).map(|(a, x)| a * x).sum();
        let expr = LinExpr::sum(vars.iter().zip(&coefs).map(|(v, a)| (*v, *a)));
        let (sense, rhs) = match rng.gen_range(0..3) {
            0 => (Sense::Le, at + rng.gen_range(0.0..3.0)),
            1 => (Sense::Ge, at - rng.gen_range(0.0..3.0)),
            _ => (Sense::Eq, at),
        };
        m.add_constraint(format!("c{ci}"), expr, sense, rhs);
    }
    m.set_objective(LinExpr::sum(objective));
    m
}

fn fresh_solve(
    sf: &StandardForm,
    lo: &[f64],
    up: &[f64],
    warm: &Basis,
    rule: DualRule,
) -> LpResult {
    Simplex::new(sf, SimplexConfig::default()).solve(lo, up, Some(warm), rule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_installs_return_what_a_fresh_engine_returns(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sf = StandardForm::from_model(&random_lp(&mut rng));
        let n = sf.num_structural;
        let mut engine = Simplex::new(&sf, SimplexConfig::default());
        let first = engine.solve(&sf.lower, &sf.upper, None, DualRule::Repair);
        let mut held_by_engine = first.clone();
        let (mut lo, mut up) = (sf.lower.clone(), sf.upper.clone());
        for step in 0..8 {
            let Some(basis) = held_by_engine.basis.clone() else {
                break;
            };
            let rule = if rng.gen_bool(0.25) { DualRule::LongStep } else { DualRule::Repair };
            for j in 0..n {
                match rng.gen_range(0..6) {
                    0 => {
                        let v = held_by_engine.values[j].round();
                        (lo[j], up[j]) = (v, v);
                    }
                    1 => (lo[j], up[j]) = (sf.lower[j], sf.upper[j]),
                    // A column fixed at one zero re-fixed at the other, as
                    // rounding noise of the other sign does: equal under
                    // `==`, a changed bound all the same.
                    2 if lo[j] == 0.0 && up[j] == 0.0 => (lo[j], up[j]) = (-lo[j], -up[j]),
                    _ => {}
                }
            }
            // Now and then an unrelated basis: the one the first solve
            // returned, once the engine has moved past it.
            let unrelated = step > 1 && rng.gen_bool(0.2);
            let warm = match (&first.basis, unrelated) {
                (Some(b), true) if b.basis != basis.basis => b.clone(),
                _ => basis,
            };
            let takes_held = warm.basis == basis_of(&held_by_engine);
            let before = engine.held_installs();
            let got = engine.solve(&lo, &up, Some(&warm), rule);
            let want = fresh_solve(&sf, &lo, &up, &warm, rule);
            prop_assert_eq!(
                engine.held_installs(),
                before + usize::from(takes_held),
                "step {}: held install taken iff the engine held the basis",
                step
            );
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {}", step);
            if got.status != LpStatus::Optimal {
                break;
            }
            held_by_engine = got;
        }
    }
}

/// The basic columns of a result (empty when it carries no basis).
fn basis_of(lp: &LpResult) -> Vec<usize> {
    lp.basis
        .as_ref()
        .map(|b| b.basis.clone())
        .unwrap_or_default()
}
