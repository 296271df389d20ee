//! The dual simplex (dual devex, bound-flip ratio test) — warm re-solves
//! from the previous basis and the dual-first cold start from the slack
//! basis — and the one-violation repair that branch-and-bound nodes use.

use super::engine::RefactorReason;
use super::{Basis, LpResult, LpStatus, Simplex};
use crate::cast;
use crate::nan::NanGuard;
use crate::tol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dual pivots between full reduced-cost refreshes: the dual iteration
/// patches `d` incrementally along each α-row, and the accumulated
/// drift is re-zeroed on this cadence (mirroring the primal side's
/// refresh-on-invalidation policy).
const DUAL_REFRESH_INTERVAL: usize = 100;

/// Refactorize-and-retry rounds a dual pivot gets when its FTRAN'd pivot
/// element disagrees with the α-row's before the solve falls back cold.
const DRIFT_RETRIES: usize = 2;

/// Relative size of the cost perturbation a dual-first cold start runs
/// its dual phase on: `ε_j = COLD_PERTURB·(1 + |c_j|)·(0.5 + 0.5·u_j)`,
/// `u_j` uniform in `[0, 1)` from a fixed seed.
const COLD_PERTURB: f64 = 1e-6;
const COLD_PERTURB_SEED: u64 = 0xC01D_D0A1;

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
            // A bound patch should never need more than this many
            // pivots; past it a cold solve is the safer bet than riding
            // degeneracy.
            let outcome = self.dual_optimize(10 * m + 1000);
            let status = self.after_dual(outcome)?;
            let mut result = self.finish(status);
            result.warm_basis_used = true;
            return Some(result);
        }
        // One-violation repair (`warm_dual: false`): one dual pivot per
        // violated row, the duals kept by the dual step and recomputed
        // once per factorization. This is what every branch-and-bound
        // node and dive step re-solves with — a branch moves one bound,
        // so a node is a handful of these pivots — and with it the
        // largest single cost of a warm round.
        let max_repair = 4 * m + 200;
        for _ in 0..max_repair {
            let Some((row, target, to_upper)) = self.select_leaving(None) else {
                // Primal feasible: a primal cleanup reaches optimality.
                let status = self.optimize();
                let mut result = self.finish(status);
                result.warm_basis_used = true;
                return Some(result);
            };
            match self.dual_pivot(row, target, to_upper, observe) {
                RepairPivot::Done => {}
                RepairPivot::Blocked => {
                    // No column can enter: the dual simplex's check decides
                    // whether the row certifies infeasibility.
                    return match self.infeasible_or_fallback(row) {
                        DualOutcome::Infeasible => {
                            let mut result = self.finish(LpStatus::Infeasible);
                            result.warm_basis_used = true;
                            Some(result)
                        }
                        _ => None,
                    };
                }
                RepairPivot::Failed => return None,
            }
            self.iterations += 1;
            self.pivots_since_refactor += 1;
            if !self.maintain_basis() {
                return None;
            }
        }
        None
    }

    /// Decides whether a cold solve goes dual-first (see
    /// [`run_cold_dual`]) and, if so, returns the structural columns
    /// that need an implied bound to rest on, with that bound. The
    /// attempt is made when the dual simplex is selected, the LP is one
    /// the pricing size rule calls large, every structural column has a
    /// finite bound on the side its cost pushes toward — its own, or
    /// for a free column one its rows imply — and at least one of them
    /// is an upper bound with room below it: the model rewards a current
    /// assignment, so the start is that plan and not the empty one.
    ///
    /// [`run_cold_dual`]: Self::run_cold_dual
    // lint:allow(hot-path-index): start-up pass; columns bounded by n
    pub(super) fn cold_dual_start(&self) -> Option<Vec<(usize, f64)>> {
        if !self.config.warm_dual || self.m == 0 || self.live_cols <= self.cold_dual_min_cols {
            return None;
        }
        let mut implied = Vec::new();
        let mut stays = false;
        for j in 0..self.n0 - self.m {
            let c = self.sf.costs[j];
            let (lo, up) = (self.lower[j], self.upper[j]);
            let rest = if self.rests_on_upper(j) { up } else { lo };
            if rest.is_finite() {
                stays |= c < 0.0 && lo < up;
            } else if c != 0.0 {
                implied.push((j, self.implied_bound(j, c > 0.0)?));
            }
        }
        stays.then_some(implied)
    }

    /// The bound structural column `j` rests on in the dual-first cold
    /// start: the one that keeps its reduced cost `c_j` dual feasible.
    fn rests_on_upper(&self, j: usize) -> bool {
        let c = self.sf.costs[j];
        c < 0.0 || (c == 0.0 && self.lower[j] == f64::NEG_INFINITY && self.upper[j].is_finite())
    }

    /// The tightest lower (or upper) bound the rows of structural column
    /// `j` imply for it, given the bounds of the other columns and of
    /// each row's slack: row `r` reads `a·x_j = b_r − s_r − Σ a_rk x_k`,
    /// and one end of the right-hand side's range bounds `x_j` on the
    /// wanted side. `None` when no row bounds it there.
    // lint:allow(hot-path-index): walks the rows of one column; indices from the packed matrix
    fn implied_bound(&self, j: usize, lower_side: bool) -> Option<f64> {
        let n = self.n0 - self.m;
        let mut best: Option<f64> = None;
        for (r, a) in self.sf.matrix.column(j) {
            // A lower bound on x_j comes from the smallest right-hand
            // side when a > 0 and, the division flipping it, from the
            // largest when a < 0; an upper bound the other way round.
            let smallest = (a > 0.0) == lower_side;
            let slack = if smallest {
                self.upper[n + r]
            } else {
                self.lower[n + r]
            };
            let mut rhs = self.sf.rhs[r] - slack;
            for (k, v) in self.sf.matrix.row(r) {
                if k != j && k < n {
                    let at_upper = (v > 0.0) == smallest;
                    rhs -= v * if at_upper {
                        self.upper[k]
                    } else {
                        self.lower[k]
                    };
                }
            }
            let bound = rhs / a;
            if bound.is_finite() {
                best = Some(best.map_or(bound, |b: f64| {
                    if lower_side {
                        b.nmax(bound)
                    } else {
                        b.nmin(bound)
                    }
                }));
            }
        }
        best
    }

    /// Dual-first cold start, from [`cold_dual_start`]: the all-slack
    /// basis with every structural column on the bound its cost pushes
    /// toward is dual feasible (`y = 0`, `d = c`) and, in a model whose
    /// negative costs reward staying put, *is* the current assignment —
    /// primal infeasible only in the rows the round's drift broke. The
    /// dual simplex repairs those; a primal cleanup on the true costs
    /// and bounds certifies optimality. No phase 1 runs and no warm
    /// basis was used. Returns `None` when the attempt stalls, runs out
    /// of its pivot budget or hits a singular refactorization: the
    /// caller resets and runs the primal two-phase solve.
    ///
    /// [`cold_dual_start`]: Self::cold_dual_start
    // lint:allow(hot-path-index): start-up pass; columns bounded by n, slots by m
    pub(super) fn run_cold_dual(&mut self, mut implied: Vec<(usize, f64)>) -> Option<LpResult> {
        let (m, n) = (self.m, self.n0 - self.m);
        // A free column with a cost rests, for the dual phase only, on
        // the bound its rows imply: redundant, so the feasible set and
        // every verdict on it stand.
        self.swap_implied_bounds(&mut implied);
        // Costs move away from the resting bound for the dual phase only:
        // the stay rewards and assignment costs take a handful of
        // distinct values, so unperturbed nearly every dual ratio ties
        // and the iteration rides degenerate pivots to its budget.
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        let mut rng = StdRng::seed_from_u64(COLD_PERTURB_SEED);
        for j in 0..n {
            let u: f64 = rng.gen();
            self.at_upper[j] = self.rests_on_upper(j);
            let rest = if self.at_upper[j] {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if !rest.is_finite() {
                // A free column without a cost is dual feasible at zero.
                self.x[j] = 0.0;
                continue;
            }
            self.x[j] = rest;
            if self.cold_dual_perturb && self.lower[j] < self.upper[j] {
                let eps = COLD_PERTURB * (1.0 + self.costs[j].abs()) * (0.5 + 0.5 * u);
                self.costs[j] += if self.at_upper[j] { -eps } else { eps };
            }
        }
        for i in 0..m {
            self.basis[i] = n + i;
            self.position[n + i] = i;
            // Artificials are pinned at zero throughout.
            self.upper[self.n0 + i] = 0.0;
        }
        if !self.refactor() {
            return None;
        }
        // Budget, in proportion to what the primal would spend: from
        // the crash basis it takes 0.5–1.5 pivots per column on the
        // region models, a repair that works 0.05–0.7 (and each of its
        // pivots costs less). One per column the model leaves free
        // abandons a stalled attempt for less than the solve it falls
        // back to.
        let outcome = self.dual_optimize(self.live_cols - m);
        // Whichever way the dual phase ended, everything after it prices
        // with the true costs inside the true bounds.
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        self.swap_implied_bounds(&mut implied);
        let status = self.after_dual(outcome)?;
        Some(self.finish(status))
    }

    /// Exchanges each listed value with the bound of its column on the
    /// side the column's cost pushes toward: called once it installs the
    /// implied bounds and keeps the infinite ones, called again it puts
    /// them back.
    // lint:allow(hot-path-index): listed columns are structural, bounded by n
    fn swap_implied_bounds(&mut self, implied: &mut [(usize, f64)]) {
        for (j, bound) in implied {
            let side = if self.sf.costs[*j] > 0.0 {
                &mut self.lower[*j]
            } else {
                &mut self.upper[*j]
            };
            std::mem::swap(side, bound);
        }
    }

    /// What a solve reports after its dual phase ended in `outcome`:
    /// once primal feasible, the primal cleanup certifies optimality
    /// (normally zero pivots) and leaves fresh duals for the audit.
    /// `None`: the dual iteration could not proceed safely, solve cold.
    fn after_dual(&mut self, outcome: DualOutcome) -> Option<LpStatus> {
        let status = match outcome {
            DualOutcome::PrimalFeasible => self.optimize(),
            DualOutcome::Infeasible => LpStatus::Infeasible,
            DualOutcome::Limit => LpStatus::IterationLimit,
            DualOutcome::Fallback => return None,
        };
        self.used_dual_simplex = true;
        Some(status)
    }

    /// Dual simplex to primal feasibility: pick the most violated basic
    /// row (dual devex weighted), run the bound-flip ratio test over the
    /// α-row, flip every boxed candidate the violation can absorb with a
    /// single batched FTRAN, then pivot the first non-flip candidate in.
    /// Reduced costs are maintained incrementally (the dual step `θ`
    /// patches them along the α-row) and refreshed periodically.
    // lint:allow(hot-path-index): dual simplex kernel; rows bounded by m, columns by n
    fn dual_optimize(&mut self, budget: usize) -> DualOutcome {
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
        loop {
            if self.iterations >= self.config.max_iterations {
                return DualOutcome::Limit;
            }
            if dual_pivots > budget {
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
                // infeasibility, if it still does on fresh factors.
                return self.infeasible_or_fallback(row);
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
                // entering column bounds the dual step.
                return self.infeasible_or_fallback(row);
            };
            // FTRAN the entering column and cross-check the α-row
            // *before* mutating any state, so a drift-retry is clean.
            self.compute_direction(q);
            let w_r = self.w[row];
            let expected = self.alpha[q];
            if w_r.abs() <= tol::EPS || (w_r - expected).abs() > tol::OPT * (1.0 + expected.abs()) {
                // Representation drift: refactorize, refresh, retry.
                consecutive_failures += 1;
                if consecutive_failures > DRIFT_RETRIES
                    || !self.refactor_for(RefactorReason::Accuracy)
                {
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

    /// The verdict when `row` is violated and the ratio test found no
    /// entering column: on fresh factors, the row of `B⁻¹` reads
    /// `x_B[row] = ρᵀb − Σ α_j x_j` over the nonbasic columns, and if
    /// moving every one of them to its helping bound still leaves a
    /// violation the primal's phase 1 would call infeasible (each row
    /// residual enters with weight `|ρ_i|`, so its sum-of-artificials
    /// threshold scales by `‖ρ‖∞`), no point satisfies the rows and
    /// bounds. Anything less clear falls back to the cold solve.
    // lint:allow(hot-path-index): one pass over the α-row; columns bounded by n, rows by m
    fn infeasible_or_fallback(&mut self, row: usize) -> DualOutcome {
        if self.repr.update_count() > 0 && !self.refactor_for(RefactorReason::Accuracy) {
            return DualOutcome::Fallback;
        }
        let Some((violation, _, to_upper)) = self.basic_violation(row) else {
            return DualOutcome::Fallback;
        };
        let sigma = if to_upper { 1.0 } else { -1.0 };
        self.scatter_alpha_row(row);
        let mut unabsorbed = violation;
        for &cj in &self.alpha_cols {
            let j = cast::idx(cj);
            let a_hat = sigma * self.alpha[j];
            if self.position[j] != usize::MAX || a_hat == 0.0 {
                continue;
            }
            let room = if a_hat > 0.0 {
                self.upper[j] - self.x[j]
            } else {
                self.x[j] - self.lower[j]
            };
            unabsorbed -= a_hat.abs() * room;
        }
        let rho_max = self.rho.iter().fold(1.0, |a, r| r.abs().nmax(a));
        if unabsorbed > self.infeasibility_threshold() * rho_max {
            DualOutcome::Infeasible
        } else {
            DualOutcome::Fallback
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

    /// Column `j` in the repair's dual ratio test, by the full-scan
    /// oracle's arithmetic (public for the tests only): `α_j` as the
    /// column dot `ρᵀA_j`, where the repair reads the α-row it scattered.
    /// See [`repair_ratio`](Self::repair_ratio).
    #[doc(hidden)]
    pub fn repair_candidate(&self, j: usize, to_upper: bool) -> Option<(f64, f64)> {
        self.repair_ratio(j, self.column_dot(j, &self.rho), to_upper)
    }

    /// Column `j`, whose entry in the pivot row is `alpha`, in the
    /// repair's dual ratio test for a leaving row — the one `ρ` was last
    /// computed for — whose basic variable lands on its upper bound or,
    /// `to_upper` false, its lower one: `(|d_j / α_j|, |α_j|)` when `j` may
    /// enter — nonbasic, not fixed, `|α_j|` above the pivot tolerance,
    /// free to move the way that pushes the leaving variable there — with
    /// `d_j = c_j − yᵀA_j` on the duals the repair holds, computed for
    /// such a column only.
    fn repair_ratio(&self, j: usize, alpha: f64, to_upper: bool) -> Option<(f64, f64)> {
        if self.position[j] != usize::MAX || self.lower[j] == self.upper[j] {
            return None;
        }
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
    /// The duals are recomputed once per factorization and otherwise kept
    /// by the dual step, `y += (d_q/α_q)·ρ`. The FTRAN'd pivot element is
    /// cross-checked against the α-row's; on disagreement the factors are
    /// rebuilt and the pivot retried, at most [`DRIFT_RETRIES`] times.
    /// Reports whether the pivot was made, found no entering candidate,
    /// or failed: the drift persisted or a rebuild failed.
    // lint:allow(hot-path-index): candidate bitmap sized to the n + m columns; rows bounded by m
    fn dual_pivot(
        &mut self,
        row: usize,
        target: f64,
        to_upper: bool,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> RepairPivot {
        for attempt in 0..=DRIFT_RETRIES {
            if !self.y_valid {
                self.compute_duals();
            }
            // ρ = row `row` of B⁻¹, and α_j = ρᵀA_j over the columns with
            // an entry in a row where ρ is nonzero — every other α_j is
            // an exact ±0.0, below any pivot tolerance, and ρ is sparse
            // (a few dozen rows of a thousand). Evaluate the touched
            // columns in ascending order, exactly as a scan over every
            // column would, so every tie breaks as it would there.
            self.scatter_alpha_row(row);
            self.ratio_cands.fill(0);
            for &cj in &self.alpha_cols {
                let j = cast::idx(cj);
                self.ratio_cands[j / 64] |= 1 << (j % 64);
            }
            let mut best: Option<(usize, f64, f64)> = None; // (col, |ratio|, |alpha|)
            for (word, &bits) in self.ratio_cands.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let j = word * 64 + cast::idx(bits.trailing_zeros());
                    bits &= bits - 1;
                    let Some((ratio, alpha)) = self.repair_ratio(j, self.alpha[j], to_upper) else {
                        continue;
                    };
                    match best {
                        Some((_, br, ba))
                            if ratio > br + tol::DROP
                                || (ratio >= br - tol::DROP && alpha <= ba) => {}
                        _ => best = Some((j, ratio, alpha)),
                    }
                }
            }
            observe(self, row, to_upper, best.map(|(q, _, _)| q));
            let Some((q, _, _)) = best else {
                return RepairPivot::Blocked;
            };
            self.compute_direction(q);
            #[cfg(test)]
            if self.inject_drift > 0 {
                self.inject_drift -= 1;
                self.w[row] += 1.0;
            }
            let (w_r, alpha_q) = (self.w[row], self.alpha[q]);
            if w_r.abs() > tol::EPS && (w_r - alpha_q).abs() <= tol::OPT * (1.0 + alpha_q.abs()) {
                let theta = (self.costs[q] - self.column_dot(q, &self.y)) / w_r;
                self.land_leaving(row, q, target, to_upper);
                self.record_basis_update(row);
                // The dual step: d'_j = d_j − θ·α_j zeroes d_q and keeps
                // every other basic column's d at zero.
                for (y, &r) in self.y.iter_mut().zip(&self.rho) {
                    *y += theta * r;
                }
                self.y_valid = true;
                return RepairPivot::Done;
            }
            // Representation drift: refactorize and retry.
            if attempt == DRIFT_RETRIES || !self.refactor_for(RefactorReason::Accuracy) {
                return RepairPivot::Failed;
            }
        }
        RepairPivot::Failed
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

/// Outcome of one [`Simplex::dual_pivot`] of the one-violation repair.
enum RepairPivot {
    /// The leaving row's basic variable landed on its bound.
    Done,
    /// No column can enter: the row may certify infeasibility.
    Blocked,
    /// The representation drift persisted or a rebuild failed.
    Failed,
}

/// Outcome of a [`Simplex::dual_optimize`] run.
enum DualOutcome {
    /// Primal feasibility restored; a primal cleanup certifies
    /// optimality (normally with zero further pivots).
    PrimalFeasible,
    /// A violated row that no move of the nonbasic columns inside their
    /// bounds can repair: the LP has no feasible point.
    Infeasible,
    /// The dual iteration cannot proceed safely (an unclear infeasible
    /// row, repeated representation drift, stall): the caller falls back
    /// to a cold two-phase solve, which is always correct.
    Fallback,
    /// Iteration or deadline budget exhausted mid-repair.
    Limit,
}
