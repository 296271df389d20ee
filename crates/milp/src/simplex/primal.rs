//! The primal simplex iteration: direction, ratio test and step.

use super::{LpStatus, Simplex};
use crate::nan::NanGuard;
use crate::tol;

impl Simplex<'_> {
    /// Runs pivots until optimal / unbounded / iteration limit.
    // lint:allow(hot-path-index): pricing loop; candidate columns bounded by n, rows by m
    pub(super) fn optimize(&mut self) -> LpStatus {
        // Pricing state resets on every (re)entry: the costs may have
        // changed (phase switch, warm-start cleanup) and devex restarts
        // from the reference framework of the current basis.
        self.d_valid = false;
        self.d_fresh = false;
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        self.candidates.clear();
        loop {
            if self.limit_reached() {
                return LpStatus::IterationLimit;
            }
            let use_bland = self.degenerate_run > 64;
            let Some((q, d_q)) = self.select_entering(use_bland) else {
                return LpStatus::Optimal;
            };
            self.iterations += 1;
            let sigma = if self.position[q] == usize::MAX && self.is_free(q) {
                if d_q < 0.0 {
                    1.0
                } else {
                    -1.0
                }
            } else if self.at_upper[q] {
                -1.0
            } else {
                1.0
            };
            self.compute_direction(q);
            match self.ratio_test(q, sigma, use_bland) {
                Ratio::Unbounded => return LpStatus::Unbounded,
                Ratio::BoundFlip(t) => {
                    self.apply_step(q, sigma, t, None);
                    self.set_nonbasic(q, !self.at_upper[q]);
                    // A bound flip leaves the basis — and therefore the
                    // duals and every reduced cost — unchanged; only the
                    // flipped column's eligibility sign changes, which
                    // `eligible_d` reads live.
                    if t <= tol::OPT {
                        self.degenerate_run += 1;
                    } else {
                        self.degenerate_run = 0;
                    }
                }
                Ratio::Pivot { t, row, to_upper } => {
                    let leaving = self.basis[row];
                    // The α-row (`ρᵀA` for ρ = B⁻ᵀe_row) must come from
                    // the *pre-pivot* basis, so extract it before
                    // `apply_step` updates the factors.
                    let incremental = self.d_valid && self.prepare_pivot_row(row, q);
                    self.apply_step(q, sigma, t, Some((row, to_upper)));
                    if incremental {
                        self.update_pricing_after_pivot(q, leaving, d_q);
                        self.d_fresh = false;
                    } else {
                        // The α-row was unusable: fall back to a
                        // refresh from the duals.
                        self.d_valid = false;
                        self.d_fresh = false;
                    }
                    if t <= tol::OPT {
                        self.degenerate_run += 1;
                    } else {
                        self.degenerate_run = 0;
                    }
                    self.pivots_since_refactor += 1;
                    self.maintain_basis();
                }
            }
        }
    }

    /// Computes `w = B⁻¹ A_q` into `self.w`, staging `A_q`'s spike for the
    /// basis update of the pivot that brings `q` in.
    pub(super) fn compute_direction(&mut self, q: usize) {
        self.w.iter_mut().for_each(|v| *v = 0.0);
        if q < self.n0 {
            self.sf.matrix.scatter_column(q, 1.0, &mut self.w);
        } else {
            self.w[q - self.n0] = self.art_sign[q - self.n0];
        }
        self.repr.ftran_entering(&mut self.w);
    }

    /// Ratio test: how far can the entering variable move?
    // lint:allow(hot-path-index): ratio test over basis slots, bounded by m
    fn ratio_test(&self, q: usize, sigma: f64, bland: bool) -> Ratio {
        let mut t_best = f64::INFINITY;
        let mut leave: Option<(usize, bool, f64)> = None; // (row, to_upper, |w|)
        for i in 0..self.m {
            let w_i = self.w[i];
            if w_i.abs() <= tol::EPS {
                continue;
            }
            let (x, lo, up) = (self.xb[i], self.lb[i], self.ub[i]);
            let rate = -sigma * w_i;
            let (limit, to_upper) = if rate < 0.0 {
                if lo.is_finite() {
                    ((x - lo) / -rate, false)
                } else {
                    continue;
                }
            } else if up.is_finite() {
                ((up - x) / rate, true)
            } else {
                continue;
            };
            let limit = limit.nmax(0.0);
            let better = match leave {
                None => limit < t_best - tol::DROP,
                Some((lr, _, lw)) => {
                    if bland {
                        limit < t_best - tol::DROP
                            || (limit <= t_best + tol::DROP && self.basis[i] < self.basis[lr])
                    } else {
                        limit < t_best - tol::DROP
                            || (limit <= t_best + tol::DROP && w_i.abs() > lw)
                    }
                }
            };
            if better {
                t_best = limit.min(t_best);
                leave = Some((i, to_upper, w_i.abs()));
            }
        }
        // Bound flip of the entering variable itself.
        let flip = self.upper[q] - self.lower[q];
        if flip.is_finite() && flip <= t_best {
            return Ratio::BoundFlip(flip);
        }
        match leave {
            None => Ratio::Unbounded,
            Some((row, to_upper, _)) => Ratio::Pivot {
                t: t_best,
                row,
                to_upper,
            },
        }
    }

    /// Moves the entering variable by `t` and optionally pivots.
    // lint:allow(hot-path-index): basic-value update over basis slots, bounded by m
    fn apply_step(&mut self, q: usize, sigma: f64, t: f64, pivot: Option<(usize, bool)>) {
        // Update basic values: x_B -= sigma * t * w.
        if t != 0.0 {
            for (xb, &w) in self.xb.iter_mut().zip(&self.w) {
                *xb -= sigma * t * w;
            }
        }
        let Some((row, to_upper)) = pivot else {
            return;
        };
        let leaving = self.basis[row];
        // Snap the leaving variable exactly onto the bound it hit.
        let bound = if to_upper {
            self.upper[leaving]
        } else {
            self.lower[leaving]
        };
        self.set_x(leaving, bound);
        self.at_upper[leaving] = to_upper;
        self.position[leaving] = usize::MAX;
        // Entering variable's new value.
        let from = if self.is_free(q) {
            self.x[q]
        } else if self.at_upper[q] {
            self.upper[q]
        } else {
            self.lower[q]
        };
        self.enter_row(row, q, from + sigma * t);
        self.record_basis_update(row);
    }
}

/// Outcome of the ratio test.
enum Ratio {
    /// No bound limits the step: the LP is unbounded in this direction.
    Unbounded,
    /// The entering variable hits its own opposite bound first.
    BoundFlip(f64),
    /// A basic variable leaves at `row` after a step of `t`.
    Pivot { t: f64, row: usize, to_upper: bool },
}
