//! Warm re-solves: the dual simplex (dual devex, bound-flip ratio test)
//! and the one-violation repair that branch-and-bound nodes use.

use super::engine::RefactorReason;
use super::{Basis, LpResult, LpStatus, Simplex};
use crate::cast;
use crate::nan::NanGuard;
use crate::tol;

/// Dual pivots between full reduced-cost refreshes: the dual iteration
/// patches `d` incrementally along each α-row, and the accumulated
/// drift is re-zeroed on this cadence (mirroring the primal side's
/// refresh-on-invalidation policy).
const DUAL_REFRESH_INTERVAL: usize = 100;

impl Simplex<'_> {
    /// Warm-started solve: install the given basis, repair primal
    /// feasibility with dual-simplex pivots, then finish with primal
    /// phase 2. Returns `None` when the warm path cannot proceed safely —
    /// the caller falls back to a cold start.
    // lint:allow(hot-path-index): warm-start driver; slots bounded by m, columns by n
    pub(super) fn run_warm(
        &mut self,
        warm: &Basis,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> Option<LpResult> {
        let m = self.m;
        // Real costs from the start; artificial columns are pinned at 0.
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        for i in 0..m {
            let art = self.n0 + i;
            self.costs[art] = 0.0;
            self.lower[art] = 0.0;
            self.upper[art] = 0.0;
            self.art_sign[i] = 1.0;
        }
        // Nonbasic columns rest on the bound recorded by the snapshot,
        // clamped to the (possibly tightened) current bounds.
        for j in 0..self.n0 {
            self.position[j] = usize::MAX;
            let prefer_upper = warm.at_upper.get(j).copied().unwrap_or(false);
            let (lo, up) = (self.lower[j], self.upper[j]);
            let (v, at_up) = if prefer_upper && up.is_finite() {
                (up, true)
            } else if lo.is_finite() {
                (lo, false)
            } else if up.is_finite() {
                (up, true)
            } else {
                (0.0, false)
            };
            self.x[j] = v;
            self.at_upper[j] = at_up;
        }
        for i in 0..m {
            self.position[self.n0 + i] = usize::MAX;
            self.x[self.n0 + i] = 0.0;
        }
        // Install the basis (reject stale or duplicated entries).
        for (row, &bj) in warm.basis.iter().enumerate() {
            if bj >= self.n0 + m || self.position[bj] != usize::MAX {
                return None;
            }
            self.basis[row] = bj;
            self.position[bj] = row;
        }
        if !self.refactor() {
            // A remapped basis can go singular when rows changed under
            // the model (two surviving columns that differed only in a
            // vanished row become dependent). Degrade to the always-
            // nonsingular slack basis but keep the warm bound snapshot:
            // the nonbasic values still encode the previous solution, so
            // the dual repair below starts near the old optimum instead
            // of from scratch.
            for &bj in &warm.basis {
                if bj < self.n0 + m {
                    self.position[bj] = usize::MAX;
                }
            }
            let n = self.n0 - m;
            for (i, slot) in self.basis.iter_mut().enumerate() {
                let slack = n + i;
                *slot = slack;
                self.position[slack] = i;
            }
            if !self.refactor() {
                return None;
            }
        }
        if self.config.warm_dual {
            // True dual simplex: the installed basis is dual feasible
            // after a bound/RHS-only change, so the dual iteration walks
            // straight back to optimality — zero phase-1 iterations.
            return match self.dual_optimize() {
                DualOutcome::PrimalFeasible => {
                    self.used_dual_simplex = true;
                    // Primal cleanup certifies optimality (normally zero
                    // pivots) and leaves fresh duals for the audit.
                    let status = self.optimize();
                    let mut result = self.finish(status);
                    result.warm_basis_used = true;
                    Some(result)
                }
                DualOutcome::Limit => {
                    self.used_dual_simplex = true;
                    let mut result = self.finish(LpStatus::IterationLimit);
                    result.warm_basis_used = true;
                    Some(result)
                }
                DualOutcome::Fallback => None,
            };
        }
        // One-violation repair (`warm_dual: false`): one dual pivot per
        // violated row, duals recomputed each time. This is what every
        // branch-and-bound node and dive step re-solves with — a branch
        // moves one bound, so a node is a handful of these pivots — and
        // with it the largest single cost of a warm round.
        let max_repair = 4 * m + 200;
        for _ in 0..max_repair {
            let Some((row, target, to_upper)) = self.select_leaving(None) else {
                // Primal feasible: a primal cleanup reaches optimality.
                let status = self.optimize();
                let mut result = self.finish(status);
                result.warm_basis_used = true;
                return Some(result);
            };
            if !self.dual_pivot(row, target, to_upper, observe) {
                return None;
            }
            self.iterations += 1;
            self.pivots_since_refactor += 1;
            if !self.maintain_basis() {
                return None;
            }
        }
        None
    }

    /// Dual simplex to primal feasibility: pick the most violated basic
    /// row (dual devex weighted), run the bound-flip ratio test over the
    /// α-row, flip every boxed candidate the violation can absorb with a
    /// single batched FTRAN, then pivot the first non-flip candidate in.
    /// Reduced costs are maintained incrementally (the dual step `θ`
    /// patches them along the α-row) and refreshed periodically.
    // lint:allow(hot-path-index): dual simplex kernel; rows bounded by m, columns by n
    fn dual_optimize(&mut self) -> DualOutcome {
        let m = self.m;
        // Dual devex row weights: reference framework = current rows.
        let mut dw = vec![1.0; m];
        // Row-space accumulator for batched bound flips.
        let mut flip_r = vec![0.0; m];
        let mut flips: Vec<(usize, f64)> = Vec::new();
        let mut cands: Vec<(u32, f64)> = Vec::new();
        self.d_valid = false;
        let mut pivots_since_refresh = 0usize;
        let mut consecutive_failures = 0usize;
        let mut dual_pivots = 0usize;
        let stall_cap = 10 * m + 1000;
        loop {
            if self.iterations >= self.config.max_iterations {
                return DualOutcome::Limit;
            }
            if dual_pivots > stall_cap {
                // A bound patch should never need this many pivots; a
                // cold solve is the safer bet than riding degeneracy.
                return DualOutcome::Fallback;
            }
            if self.iterations.is_multiple_of(32) {
                if let Some(deadline) = self.config.deadline {
                    if std::time::Instant::now() > deadline {
                        return DualOutcome::Limit;
                    }
                }
            }
            if !self.d_valid {
                self.refresh_reduced_costs(false);
                pivots_since_refresh = 0;
            }
            let Some((row, target, to_upper)) = self.select_leaving(Some(&dw)) else {
                return DualOutcome::PrimalFeasible;
            };
            let leaving = self.basis[row];
            // σ orients the violation: +1 above the upper bound (the
            // basic must decrease), −1 below the lower bound.
            let sigma = if to_upper { 1.0 } else { -1.0 };
            self.scatter_alpha_row(row);
            // Dual ratio test candidates: nonbasic columns whose feasible
            // move direction pushes the leaving variable toward `target`,
            // ranked by how soon their reduced cost hits zero.
            cands.clear();
            for idx in 0..self.alpha_cols.len() {
                let cj = self.alpha_cols[idx];
                let j = cast::idx(cj);
                if self.position[j] != usize::MAX || self.lower[j] == self.upper[j] {
                    continue;
                }
                let a_hat = sigma * self.alpha[j];
                let eligible = if self.is_free(j) {
                    a_hat.abs() > tol::EPS
                } else if self.at_upper[j] {
                    a_hat < -tol::EPS
                } else {
                    a_hat > tol::EPS
                };
                if !eligible {
                    continue;
                }
                // Dual feasibility keeps d_j/α̂_j ≥ 0 up to drift.
                let ratio = (self.d[j] / a_hat).nmax(0.0);
                cands.push((cj, ratio));
            }
            if cands.is_empty() {
                // No entering candidate: the row certifies primal
                // infeasibility — but after an incremental patch the warm
                // path plays it safe and lets the cold solve prove it.
                return DualOutcome::Fallback;
            }
            cands.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
            // Bound-flip (long-step) ratio test: a boxed candidate whose
            // full flip leaves the row still violated gets flipped
            // instead of entering, and the walk continues into the next
            // dual ratio — one pivot absorbs a whole run of degenerate
            // breakpoints.
            let mut remaining = (self.x[leaving] - target).abs();
            flips.clear();
            let mut entering: Option<usize> = None;
            for (k, &(cj, ratio)) in cands.iter().enumerate() {
                let j = cast::idx(cj);
                let a_hat = sigma * self.alpha[j];
                let range = self.upper[j] - self.lower[j];
                if range.is_finite() && remaining > a_hat.abs() * range + tol::OPT {
                    // Flip: x_j jumps to its opposite bound, absorbing
                    // |α̂_j|·range of the violation.
                    let delta = if self.at_upper[j] { -range } else { range };
                    flips.push((j, delta));
                    remaining -= a_hat.abs() * range;
                } else {
                    // Degenerate ties are the common case after a bound
                    // patch; break them toward the largest |α̂| — the
                    // most stable pivot, and the same rule the primal
                    // repair path uses, so both land on the same vertex.
                    let mut best_j = j;
                    let mut best_a = a_hat.abs();
                    for &(cj2, ratio2) in &cands[k + 1..] {
                        if ratio2 > ratio + tol::DROP {
                            break;
                        }
                        let j2 = cast::idx(cj2);
                        let a2 = (sigma * self.alpha[j2]).abs();
                        let range2 = self.upper[j2] - self.lower[j2];
                        if range2.is_finite() && remaining > a2 * range2 + tol::OPT {
                            continue;
                        }
                        if a2 > best_a {
                            best_a = a2;
                            best_j = j2;
                        }
                    }
                    entering = Some(best_j);
                    break;
                }
            }
            let Some(q) = entering else {
                // Every candidate flipped yet violation remains: no
                // entering column bounds the dual step. Fall back.
                return DualOutcome::Fallback;
            };
            // FTRAN the entering column and cross-check the α-row
            // *before* mutating any state, so a drift-retry is clean.
            self.compute_direction(q);
            let w_r = self.w[row];
            let expected = self.alpha[q];
            if w_r.abs() <= tol::EPS || (w_r - expected).abs() > tol::OPT * (1.0 + expected.abs()) {
                // Representation drift: refactorize, refresh, retry.
                consecutive_failures += 1;
                if consecutive_failures > 2 || !self.refactor_for(RefactorReason::Accuracy) {
                    return DualOutcome::Fallback;
                }
                continue;
            }
            consecutive_failures = 0;
            // Apply all flips with one batched FTRAN: x_B -= B⁻¹(Σ A_jΔ_j).
            if !flips.is_empty() {
                flip_r.iter_mut().for_each(|v| *v = 0.0);
                for &(j, delta) in &flips {
                    self.sf.matrix.scatter_column(j, delta, &mut flip_r);
                }
                self.repr.ftran(&mut flip_r);
                for (i, &fr) in flip_r.iter().enumerate().take(m) {
                    let b = self.basis[i];
                    self.x[b] -= fr;
                }
                for &(j, _) in &flips {
                    self.at_upper[j] = !self.at_upper[j];
                    self.x[j] = if self.at_upper[j] {
                        self.upper[j]
                    } else {
                        self.lower[j]
                    };
                }
            }
            // Dual step θ = d_q/α̂_q ≥ 0; primal step lands the leaving
            // variable exactly on its violated bound.
            let a_hat_q = sigma * w_r;
            let theta = (self.d[q] / a_hat_q).nmax(0.0);
            self.land_leaving(row, q, target, to_upper);
            // Reduced costs move along the α-row: d'_j = d_j − θ·σ·α_j.
            if theta != 0.0 {
                for idx in 0..self.alpha_cols.len() {
                    let j = cast::idx(self.alpha_cols[idx]);
                    if j == q || self.position[j] != usize::MAX {
                        continue;
                    }
                    self.d[j] -= theta * sigma * self.alpha[j];
                }
            }
            self.d[q] = 0.0;
            self.d[leaving] = -theta * sigma;
            self.d_fresh = false;
            // Dual devex weight update from the FTRAN direction.
            let a = w_r;
            let gamma_r = dw[row];
            let mut exploded = false;
            for (i, wgt) in dw.iter_mut().enumerate() {
                if i == row {
                    continue;
                }
                let w_i = self.w[i];
                if w_i != 0.0 {
                    let cand = (w_i / a) * (w_i / a) * gamma_r;
                    if cand > *wgt {
                        *wgt = cand;
                        exploded |= cand > 1e12;
                    }
                }
            }
            dw[row] = (gamma_r / (a * a)).nmax(1.0);
            exploded |= dw[row] > 1e12;
            if exploded {
                dw.iter_mut().for_each(|v| *v = 1.0);
            }
            self.record_basis_update(row);
            self.iterations += 1;
            self.dual_iterations += 1;
            dual_pivots += 1;
            pivots_since_refresh += 1;
            self.pivots_since_refactor += 1;
            if !self.maintain_basis() {
                return DualOutcome::Fallback;
            }
            if pivots_since_refresh >= DUAL_REFRESH_INTERVAL {
                // The incremental d-patches drift; refresh before they
                // can misrank the dual ratio test.
                self.d_valid = false;
            }
        }
    }

    /// Dual pricing: the leaving row, with the bound it must land on, as
    /// `(row, bound value, is_upper)`. Without weights (the one-violation
    /// repair) it is the largest bound violation; the dual simplex
    /// weights it by the dual devex reference framework
    /// (`violation²/w_i`), which spreads pivots across degenerate
    /// capacity rows instead of hammering one.
    // lint:allow(hot-path-index): leaving-row scan over m basis slots
    fn select_leaving(&self, dw: Option<&[f64]>) -> Option<(usize, f64, bool)> {
        let mut best: Option<(usize, f64, bool, f64)> = None;
        for i in 0..self.m {
            let Some((viol, target, to_upper)) = self.basic_violation(i) else {
                continue;
            };
            let merit = dw.map_or(viol, |dw| viol * viol / dw[i]);
            match best {
                Some((_, _, _, bm)) if bm >= merit => {}
                _ => best = Some((i, target, to_upper, merit)),
            }
        }
        best.map(|(i, t, u, _)| (i, t, u))
    }

    /// How far the basic variable of `row` sits outside its bounds, if it
    /// does: `(violation, violated bound, bound is the upper one)`.
    fn basic_violation(&self, row: usize) -> Option<(f64, f64, bool)> {
        let b = self.basis[row];
        let x = self.x[b];
        if x < self.lower[b] - tol::OPT {
            Some((self.lower[b] - x, self.lower[b], false))
        } else if x > self.upper[b] + tol::OPT {
            Some((x - self.upper[b], self.upper[b], true))
        } else {
            None
        }
    }

    /// Column `j` in the repair's dual ratio test (public for the tests'
    /// full-scan oracle only), for a leaving row — the one `ρ` and the
    /// duals were last computed for — whose basic variable lands on its
    /// upper bound or, `to_upper` false, its lower one: `(|d_j / α_j|, |α_j|)`
    /// when `j` may enter — nonbasic, not fixed, `|α_j|` above the pivot
    /// tolerance, free to move the way that pushes the leaving variable there.
    #[doc(hidden)]
    pub fn repair_candidate(&self, j: usize, to_upper: bool) -> Option<(f64, f64)> {
        if self.position[j] != usize::MAX || self.lower[j] == self.upper[j] {
            return None;
        }
        let alpha = self.column_dot(j, &self.rho);
        if alpha.abs() <= tol::EPS {
            return None;
        }
        // x_B[row] changes by -alpha * Δx_j, and must increase toward a
        // lower bound. At its upper bound x_j can only decrease (Δ < 0 →
        // x_B[row] += alpha·|Δ|), at its lower one only increase.
        let ok = if self.is_free(j) {
            true
        } else if self.at_upper[j] {
            (alpha > 0.0) != to_upper
        } else {
            (alpha < 0.0) != to_upper
        };
        if !ok {
            return None;
        }
        let d = self.costs[j] - self.column_dot(j, &self.y);
        Some(((d / alpha).abs(), alpha.abs()))
    }

    /// One dual-simplex pivot: the basic variable of `row` leaves onto
    /// `target`; an entering column is chosen by the dual ratio test.
    /// Returns false when no entering candidate exists (fall back cold).
    // lint:allow(hot-path-index): candidate bitmap sized to the n + m columns; rows bounded by m
    fn dual_pivot(
        &mut self,
        row: usize,
        target: f64,
        to_upper: bool,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> bool {
        // rho = row `row` of B⁻¹.
        self.repr.btran_unit(row, &mut self.rho);
        self.compute_duals();
        // α_j = ρᵀA_j is an exact ±0.0 — below any pivot tolerance — for
        // every column with no entry in a row where ρ ≠ 0, and ρ is
        // sparse (a few dozen rows of a thousand). Walk those rows of the
        // row-major mirror to mark the columns that can pass at all, then
        // evaluate only them, column-wise and in ascending order exactly
        // as a scan over every column would.
        self.ratio_cands.fill(0);
        for r in 0..self.m {
            if self.rho[r] != 0.0 {
                // The row's matrix columns, and its artificial.
                let reached = self.sf.matrix.row(r).map(|(j, _)| j);
                for j in reached.chain([self.n0 + r]) {
                    self.ratio_cands[j / 64] |= 1 << (j % 64);
                }
            }
        }
        let mut best: Option<(usize, f64, f64)> = None; // (col, |ratio|, |alpha|)
        for (word, &bits) in self.ratio_cands.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let j = word * 64 + cast::idx(bits.trailing_zeros());
                bits &= bits - 1;
                let Some((ratio, alpha)) = self.repair_candidate(j, to_upper) else {
                    continue;
                };
                match best {
                    Some((_, br, ba))
                        if ratio > br + tol::DROP || (ratio >= br - tol::DROP && alpha <= ba) => {}
                    _ => best = Some((j, ratio, alpha)),
                }
            }
        }
        observe(self, row, to_upper, best.map(|(q, _, _)| q));
        let Some((q, _, _)) = best else {
            return false;
        };
        // FTRAN for the entering column, then the standard pivot.
        self.compute_direction(q);
        if self.w[row].abs() <= tol::EPS {
            return false;
        }
        self.land_leaving(row, q, target, to_upper);
        self.record_basis_update(row);
        true
    }

    /// Moves along the FTRAN'd direction `self.w` of entering column `q`
    /// by the step that lands the basic variable of `row` exactly on
    /// `target`, and swaps the two in the basis.
    // lint:allow(hot-path-index): basic-value update over basis slots, bounded by m
    fn land_leaving(&mut self, row: usize, q: usize, target: f64, to_upper: bool) {
        let leaving = self.basis[row];
        let delta = (self.x[leaving] - target) / self.w[row];
        for i in 0..self.m {
            let b = self.basis[i];
            self.x[b] -= delta * self.w[i];
        }
        self.x[leaving] = target;
        self.at_upper[leaving] = to_upper;
        self.position[leaving] = usize::MAX;
        self.x[q] += delta;
        self.basis[row] = q;
        self.position[q] = row;
    }
}

/// Outcome of a [`Simplex::dual_optimize`] run.
enum DualOutcome {
    /// Primal feasibility restored; a primal cleanup certifies
    /// optimality (normally with zero further pivots).
    PrimalFeasible,
    /// The dual iteration cannot proceed safely (no entering candidate,
    /// repeated representation drift, stall): the caller falls back to
    /// a cold two-phase solve, which is always correct.
    Fallback,
    /// Iteration or deadline budget exhausted mid-repair.
    Limit,
}
