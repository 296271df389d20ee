//! The pricing pass the live-column refresh replaced, kept as an oracle,
//! and the differential test that holds the refresh to it:
//! [`Simplex::full_scan_refresh`] prices every nonbasic column, fixed or
//! not, where [`refresh_reduced_costs`](Simplex::refresh_reduced_costs)
//! walks only the columns the current bounds leave free. The reduced cost
//! of every free column, the partial-pricing candidate list and the pick
//! that follows must agree to the bit; a fixed column's reduced cost is
//! poisoned before the live refresh, so a pick that read one would show.
//! Along the way the `live` bits and the basic bounds kept by row must
//! match the bounds they mirror.
//!
//! The basic values a refactorization sums over the columns with a
//! nonzero value are held to the full column walk the same way
//! ([`Simplex::check_basic_values`], which builds with debug assertions
//! also run on every 16th refactorization).
//!
//! The dive's bookkeeping has its oracle in the crate's `oracles` module.

// Repeats the declaration's attribute so that the file reads as test
// code on its own.
#![cfg(test)]

use super::*;
use crate::cast;
use crate::expr::LinExpr;
use crate::model::{Model, Sense, VarType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl Simplex<'_> {
    /// The refresh as it stood before it skipped fixed columns: the
    /// duals, then `d_j = c_j − yᵀA_j` for every nonbasic column and zero
    /// for every basic one, relisting the eligible ones when asked.
    // lint:allow(hot-path-index): reduced-cost array sized to n with the tableau
    fn full_scan_refresh(&mut self, relist: bool) {
        self.compute_duals();
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        for j in 0..self.n0 + self.m {
            self.d[j] = if self.position[j] != usize::MAX {
                0.0
            } else {
                self.costs[j] - self.column_dot(j, &self.y)
            };
            if relist && self.eligible_d(j).is_some() {
                cands.push(cast::idx32(j));
            }
        }
        self.candidates = cands;
        self.candidates_complete = false;
        if relist {
            self.cap_candidates();
        }
        self.d_valid = true;
        self.d_fresh = true;
        self.pricing.full_rebuilds += 1;
    }
}

/// What a refresh leaves for the pick: the reduced costs of the free
/// columns (as bits), the candidate list and whether it is complete, and
/// the pick itself.
type Priced = (Vec<(usize, u64)>, Vec<u32>, bool, Option<(usize, u64)>);

/// Runs one refresh on `engine`, the full scan or the live one (after
/// poisoning every reduced cost), and the pick after it.
fn priced(engine: &mut Simplex<'_>, full: bool, relist: bool) -> Priced {
    if full {
        engine.full_scan_refresh(relist);
    } else {
        engine.d.fill(f64::NAN);
        engine.refresh_reduced_costs(relist);
    }
    let free = (0..engine.n0 + engine.m)
        .filter(|&j| engine.lower[j] != engine.upper[j])
        .map(|j| (j, engine.d[j].to_bits()))
        .collect();
    let listed = (engine.candidates.clone(), engine.candidates_complete);
    let pick = engine.pick_by_rule().map(|(j, d)| (j, d.to_bits()));
    (free, listed.0, listed.1, pick)
}

/// Whether the engine's two kept mirrors agree with what they mirror:
/// the `live` bit of every column with its bounds, and each row's basic
/// bounds with its basic column's.
fn mirrors(engine: &Simplex<'_>) -> (bool, bool) {
    let live = (0..engine.n0 + engine.m)
        .all(|j| engine.is_live(j) == (engine.lower[j] != engine.upper[j]));
    let bits = |v: f64| v.to_bits();
    let rows = engine.basis.iter().enumerate().all(|(i, &b)| {
        bits(engine.lb[i]) == bits(engine.lower[b]) && bits(engine.ub[i]) == bits(engine.upper[b])
    });
    (live, rows)
}

/// A random LP of boxed columns, some fixed, under packing and covering
/// rows around a point inside the bounds.
fn random_lp(rng: &mut StdRng) -> Model {
    let nv = rng.gen_range(3..12);
    let nc = rng.gen_range(2..8);
    let mut m = Model::new();
    let mut point = Vec::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            let up = rng.gen_range(1..5) as f64;
            let lo = if rng.gen_bool(0.2) { up } else { 0.0 };
            point.push(lo + (up - lo) * rng.gen_range(0.0..1.0));
            m.add_var(format!("x{i}"), VarType::Continuous, lo, up)
        })
        .collect();
    for ci in 0..nc {
        let coefs: Vec<f64> = (0..nv).map(|_| rng.gen_range(-3..5) as f64 * 0.5).collect();
        let at: f64 = coefs.iter().zip(&point).map(|(a, x)| a * x).sum();
        let expr = LinExpr::sum(vars.iter().zip(&coefs).map(|(v, a)| (*v, *a)));
        if rng.gen_bool(0.5) {
            m.add_constraint(format!("c{ci}"), expr, Sense::Le, at + 1.0);
        } else {
            m.add_constraint(format!("c{ci}"), expr, Sense::Ge, at - 1.0);
        }
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..4) as f64)),
    ));
    m
}

/// Along a dive of re-solves on one engine — each fixing some columns
/// at their rounded values — the live refresh prices every free column,
/// lists the candidates and picks exactly as the full scan, relisting or
/// not; and the poisoned reduced costs it leaves ride into the next
/// solve, which must still be the one a fresh engine solves.
fn check_dive(seed: u64, partial: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sf = StandardForm::from_model(&random_lp(&mut rng));
    let mut engine = Simplex::new(&sf, SimplexConfig::default());
    engine.set_partial_pricing(partial);
    let mut r = engine.solve(&sf.lower, &sf.upper, None, DualRule::Repair);
    let (mut lo, mut up) = (sf.lower.clone(), sf.upper.clone());
    for step in 0..5 {
        prop_assert_eq!(mirrors(&engine), (true, true), "step {}", step);
        for relist in [false, true] {
            let full = priced(&mut engine, true, relist);
            let live = priced(&mut engine, false, relist);
            prop_assert_eq!(&live, &full, "step {}, relist {}", step, relist);
        }
        if r.status != LpStatus::Optimal {
            break;
        }
        for j in 0..sf.num_structural {
            if rng.gen_bool(0.3) {
                let v = r.values[j].round().clamp(sf.lower[j], sf.upper[j]);
                (lo[j], up[j]) = (v, v);
            }
        }
        let mut fresh = Simplex::new(&sf, SimplexConfig::default());
        fresh.set_partial_pricing(partial);
        let want = fresh.solve(&lo, &up, r.basis.as_ref(), DualRule::Repair);
        r = engine.solve(&lo, &up, r.basis.as_ref(), DualRule::Repair);
        prop_assert_eq!(format!("{r:?}"), format!("{want:?}"), "step {}", step);
    }
}

/// Along a dive of re-solves on one engine, refactorizing every few
/// pivots, the basic values a refactorization computes from the columns
/// `nonzero_x` holds equal the full walk's to the bit, and `nonzero_x`
/// holds exactly the columns with a nonzero value — whichever start
/// (cold primal, dual-first cold, warm, held) wrote them.
fn check_basic_values(seed: u64, rule: DualRule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sf = StandardForm::from_model(&random_lp(&mut rng));
    let mut engine = Simplex::new(&sf, SimplexConfig::default());
    engine.set_refactor_interval(rng.gen_range(1..4));
    engine.set_cold_dual_gate(0, rng.gen_bool(0.5));
    let (mut lo, mut up) = (sf.lower.clone(), sf.upper.clone());
    // Widened to `[−u, u]`, a column can rest at a negative value.
    for j in 0..sf.num_structural {
        if rng.gen_bool(0.3) {
            lo[j] = -up[j];
        }
    }
    let mut warm = None;
    for _ in 0..5 {
        let r = engine.solve(&lo, &up, warm.as_ref(), rule);
        if engine.refactor() {
            engine.check_basic_values();
        }
        if r.status != LpStatus::Optimal {
            break;
        }
        for j in 0..sf.num_structural {
            if rng.gen_bool(0.3) {
                let v = r.values[j].round().clamp(lo[j], up[j]);
                (lo[j], up[j]) = (v, v);
            }
        }
        warm = r.basis;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn live_refresh_matches_the_full_scan(seed in 0u64..u64::MAX, partial in 0u8..2) {
        check_dive(seed, partial == 1);
    }

    #[test]
    fn basic_values_match_the_full_walk(seed in 0u64..u64::MAX, long_step in 0u8..2) {
        let rule = if long_step == 1 { DualRule::LongStep } else { DualRule::Repair };
        check_basic_values(seed, rule);
    }
}
