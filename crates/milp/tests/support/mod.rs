//! Reference oracles for the differential tests: a whole-LP one in
//! [`dense_simplex`], and below it the full-scan ratio test. Also the
//! region-shaped LP several suites draw from.
//!
//! The one-violation warm repair (the re-solve every branch-and-bound
//! node runs) used to evaluate its dual ratio test on *every* nonbasic
//! column each pivot. Production now visits only the columns with an
//! entry in a row where `ρ = B⁻ᵀe_r` is nonzero; the full scan lives on
//! here, as the oracle that restriction is checked against.
//!
//! It covers which columns are marked, the order they are compared in,
//! and the α-row itself: production reads each `α_j` off the pivot row it
//! scattered through the rows where `ρ` is nonzero, while the oracle's
//! `Simplex::repair_candidate` computes it as an independent column dot
//! `ρᵀA_j`. Both price `d_j` on the duals the repair holds, so those are
//! pinned elsewhere: against a fresh `B⁻ᵀc_B` in `warm_bnb.rs`, and by
//! the primal/dual differential suites and the golden counts of
//! `tests/node_resolve_identity.rs`.

// Each test binary compiles this module and uses its own part of it.
#![allow(dead_code)]

pub mod dense_simplex;

use rand::rngs::StdRng;
use rand::Rng;
use ras_milp::simplex::Simplex;
use ras_milp::{tol, LinExpr, Model, Sense, VarType};

/// The entering column of a repair pivot by a scan over all `columns`
/// (structural, slack and artificial), and how many columns tied with
/// it on the dual ratio: smallest `|d_j / α_j|`, ties within the drop
/// tolerance going to the largest `|α_j|` and then to the lowest index.
pub fn full_scan_entering(
    lp: &Simplex<'_>,
    columns: usize,
    to_upper: bool,
) -> (Option<usize>, usize) {
    let mut best: Option<(usize, f64, f64)> = None; // (col, |ratio|, |alpha|)
    let mut tied = 0;
    for j in 0..columns {
        let Some((ratio, alpha)) = lp.repair_candidate(j, to_upper) else {
            continue;
        };
        match best {
            Some((_, br, _)) if ratio > br + tol::DROP => {}
            Some((_, br, ba)) if ratio >= br - tol::DROP => {
                tied += 1;
                if alpha > ba {
                    best = Some((j, ratio, alpha));
                }
            }
            _ => {
                tied = 0;
                best = Some((j, ratio, alpha));
            }
        }
    }
    (best.map(|(j, _, _)| j), tied)
}

/// A region-shaped LP: classes of servers in MSBs, each rewarded for
/// staying with the reservation that holds it (−10) and charged a little
/// for any other (0.01), a third of the classes one server short; per
/// reservation a free `max`-over-MSBs column costing 5 and a capacity row
/// net of it. Three distinct cost values.
pub fn region_lp(rng: &mut StdRng, msbs: usize, per_msb: usize, reservations: usize) -> Model {
    let mut m = Model::new();
    let classes = msbs * per_msb;
    let mut vars = Vec::new();
    let mut obj = LinExpr::zero();
    let mut held = vec![0.0; reservations];
    for c in 0..classes {
        let count = rng.gen_range(2..9) as f64;
        let current = rng.gen_range(0..reservations);
        let row: Vec<_> = (0..reservations)
            .map(|r| {
                let v = m.add_var(format!("x{c}_{r}"), VarType::Continuous, 0.0, count);
                obj += LinExpr::term(v, if r == current { -10.0 } else { 0.01 });
                v
            })
            .collect();
        held[current] += count;
        let lost = f64::from(u8::from(rng.gen_range(0..3) == 0));
        let supply = LinExpr::sum(row.iter().map(|v| (*v, 1.0)));
        m.add_constraint(format!("supply{c}"), supply, Sense::Le, count - lost);
        vars.push(row);
    }
    for r in 0..reservations {
        let by_msb =
            (0..msbs).map(|i| LinExpr::sum((0..per_msb).map(|k| (vars[i * per_msb + k][r], 1.0))));
        let max_msb = m.max_over(format!("maxmsb{r}"), by_msb);
        obj += LinExpr::term(max_msb, 5.0);
        let total = LinExpr::sum((0..classes).map(|c| (vars[c][r], 1.0)));
        let capacity = (held[r] * 0.7).floor();
        m.add_constraint(format!("cap{r}"), total - max_msb, Sense::Ge, capacity);
    }
    m.set_objective(obj);
    m
}
