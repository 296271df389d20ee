//! Reference oracles for the differential tests: a whole-LP one in
//! [`dense_simplex`], and below it the full-scan ratio test.
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

use ras_milp::simplex::Simplex;
use ras_milp::tol;

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
