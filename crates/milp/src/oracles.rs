//! The dive bookkeeping that [`DiveFixings`] replaced, kept as an
//! oracle, and the differential test that holds it to the oracle:
//! [`full_scan_step`] looks at every integer variable in every dive step
//! — the most fractional one first, then a pass that fixes each
//! near-integral one and keeps the least fractional other — where
//! [`DiveFixings::step`] visits only the integers not yet fixed and the
//! fixed ones the LP made basic. Bounds (to the bit) and choices must
//! agree along random dives whose LP results keep the one invariant the
//! narrowing rests on: a nonbasic column rests exactly on a bound.
//!
//! The pricing pass the live refresh replaced has its oracle in
//! `simplex::oracles`.

// Repeats the declaration's attribute so that the file reads as test
// code on its own.
#![cfg(test)]

use crate::branch::{most_fractional, DiveFixings};
use crate::tol;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dive step as it stood before [`DiveFixings`]: `None` when no
/// integer is fractional, else every near-integral integer fixed at its
/// rounded value in `lower`/`upper` and the least fractional other named
/// (the first in `int_vars` order on a tie).
fn full_scan_step(
    int_vars: &[usize],
    values: &[f64],
    lower: &mut [f64],
    upper: &mut [f64],
) -> Option<Option<usize>> {
    most_fractional(values, int_vars)?;
    let mut least: Option<(usize, f64)> = None;
    for &j in int_vars {
        let v = values[j];
        let frac = (v - v.round()).abs();
        if frac <= tol::PRIMAL_FEAS {
            lower[j] = v.round();
            upper[j] = v.round();
        } else {
            match least {
                Some((_, bf)) if frac >= bf => {}
                _ => least = Some((j, frac)),
            }
        }
    }
    Some(least.map(|(j, _)| j))
}

/// A value for a basic column inside `[lo, up]`, drawn so that every
/// case the step tells apart shows up: integral, within the tolerance of
/// an integer, a rounding-noise negative (which rounds to `-0.0`), and
/// plainly fractional.
fn basic_value(rng: &mut StdRng, lo: f64, up: f64) -> f64 {
    let at = lo + (up - lo) * rng.gen_range(0.0..1.0);
    match rng.gen_range(0..5) {
        0 => at.round(),
        1 => at.round() + rng.gen_range(-1e-9..1e-9),
        2 => -3.5e-15,
        3 => at.round() + rng.gen_range(-1e-5..1e-5),
        _ => at,
    }
}

/// Bounds as bits, so that `-0.0` and `0.0` differ.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random dive of up to a dozen steps: the new bookkeeping and the
/// full scan, each on its own copy of the bounds, agree on every choice
/// and every bound bit.
fn check_dive(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..40);
    let int_vars: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
    // Root bounds: integral boxes, some across zero, a few with a
    // fractional end a clamp can land on.
    let root: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(-2..2) as f64;
            let up = lo + rng.gen_range(0..5) as f64;
            if rng.gen_bool(0.1) {
                (lo, up + 0.5)
            } else {
                (lo, up)
            }
        })
        .collect();
    let (mut lower, mut upper): (Vec<f64>, Vec<f64>) = root.iter().copied().unzip();
    let (mut lower_full, mut upper_full) = (lower.clone(), upper.clone());
    let mut fixings = DiveFixings::new(&int_vars, n);
    for step in 0..12 {
        // An LP result under the current bounds: nonbasic columns on a
        // bound exactly, basic ones anywhere inside (a fixed basic column
        // may drift off its value).
        let basic: Vec<usize> = (0..n + 4).filter(|_| rng.gen_bool(0.35)).collect();
        let values: Vec<f64> = (0..n)
            .map(|j| {
                let (lo, up) = (lower[j], upper[j]);
                if basic.contains(&j) {
                    if lo == up {
                        lo + rng.gen_range(-1e-5..1e-5)
                    } else {
                        basic_value(&mut rng, lo, up)
                    }
                } else if rng.gen_bool(0.5) {
                    lo
                } else {
                    up
                }
            })
            .collect();
        let got = fixings.step(&values, &basic, &mut lower, &mut upper);
        let want = full_scan_step(&int_vars, &values, &mut lower_full, &mut upper_full);
        prop_assert_eq!(got, want, "step {}", step);
        prop_assert_eq!(bits(&lower), bits(&lower_full), "step {} lower", step);
        prop_assert_eq!(bits(&upper), bits(&upper_full), "step {} upper", step);
        let Some(Some(j)) = got else {
            break;
        };
        // Round the least fractional one, or — as a retry after an
        // infeasible LP does — the other way.
        let v = if rng.gen_bool(0.8) {
            values[j].round()
        } else {
            values[j].floor()
        };
        let v = v.clamp(root[j].0, root[j].1);
        (lower[j], upper[j]) = (v, v);
        (lower_full[j], upper_full[j]) = (v, v);
        fixings.settle(j, v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dive_fixings_match_the_full_scan(seed in 0u64..u64::MAX) {
        check_dive(seed);
    }
}
