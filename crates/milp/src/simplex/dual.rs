//! The dual iteration — one loop, run by the [`DualRule`] its call site
//! picks: the long step (dual devex, bound-flip ratio test) or the
//! one-violation repair that branch-and-bound nodes use — and the two
//! starts it runs from: a warm basis, or the dual-first cold start from
//! the slack basis.

use super::engine::RefactorReason;
use super::{Basis, DualRule, LpResult, LpStatus, Simplex};
use crate::cast;
use crate::nan::NanGuard;
use crate::tol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Long-step pivots between full reduced-cost refreshes: the long step
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
    /// Warm-started solve under `lower`/`upper`: install the given basis
    /// — on the held install when the engine holds it, on a reset engine
    /// otherwise — and factorize it, unless the held install kept the
    /// factors (`keep_factors`, see [`install_held`](Self::install_held));
    /// repair primal feasibility with the dual iteration under `rule`,
    /// then finish with primal phase 2. Returns `None` when the warm path
    /// cannot proceed safely — the caller falls back to a cold start.
    // lint:allow(hot-path-index): warm-start driver; slots bounded by m, columns by n
    pub(super) fn run_warm(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: &Basis,
        rule: DualRule,
        keep_factors: bool,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> Option<LpResult> {
        let m = self.m;
        let kept = if self.holds(warm) {
            self.install_held(lower, upper, warm, keep_factors)
        } else {
            self.reset(lower, upper);
            // Real costs from the start; artificial columns are pinned at 0.
            self.costs[..self.n0].copy_from_slice(&self.sf.costs);
            self.pin_artificials();
            // Nonbasic columns rest on the bound recorded by the snapshot,
            // clamped to the (possibly tightened) current bounds.
            for j in 0..self.n0 {
                self.rest_nonbasic(j, warm.at_upper.get(j).copied().unwrap_or(false));
            }
            // Install the basis (reject stale or duplicated entries).
            for (row, &bj) in warm.basis.iter().enumerate() {
                if bj >= self.n0 + m || self.position[bj] != usize::MAX {
                    return None;
                }
                self.basis[row] = bj;
                self.position[bj] = row;
            }
            false
        };
        if !kept && !self.refactor() {
            // A supplied basis can fail to factorize (one built
            // elsewhere can hold dependent columns). Degrade to the
            // always-nonsingular slack basis but keep the warm bound snapshot:
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
        // A bound patch should never need more than this many pivots;
        // past them a cold solve is the safer bet than riding degeneracy.
        // The repair, one pivot per violated row, stops at 4m + 200.
        let budget = match rule {
            DualRule::LongStep => 10 * m + 1000,
            DualRule::Repair => 4 * m + 199,
        };
        let outcome = self.dual_iterate(rule, budget, observe);
        let status = self.after_dual(rule, outcome)?;
        let mut result = self.finish(status);
        result.warm_basis_used = true;
        Some(result)
    }

    /// Decides whether a cold solve goes dual-first (see
    /// [`run_cold_dual`]) and, if so, returns the structural columns
    /// that need an implied bound to rest on, with that bound. The
    /// attempt is made (the long step's cold solves only) when the LP is
    /// one the pricing size rule calls large and every structural column
    /// with a cost has a finite bound on the side that cost pushes toward
    /// — its own, or for a free column one its rows imply — whether the
    /// start is a running plan or the empty one.
    ///
    /// [`run_cold_dual`]: Self::run_cold_dual
    // lint:allow(hot-path-index): start-up pass; columns bounded by n
    pub(super) fn cold_dual_start(&self) -> Option<Vec<(usize, f64)>> {
        if self.m == 0 || self.live_cols <= self.cold_dual_min_cols {
            return None;
        }
        let mut implied = Vec::new();
        for j in 0..self.n0 - self.m {
            let c = self.sf.costs[j];
            let rest = if self.rests_on_upper(j) {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if c != 0.0 && !rest.is_finite() {
                implied.push((j, self.implied_bound(j, c > 0.0)?));
            }
        }
        Some(implied)
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
    /// primal infeasible only in the rows the round's drift broke (from
    /// an empty region, the empty plan: every demand row). The long step
    /// repairs those; a primal cleanup on the true costs and bounds
    /// certifies optimality. No phase 1 runs and no warm
    /// basis was used. Returns `None` when the attempt stalls, runs out
    /// of its pivot budget or hits a singular refactorization: the
    /// caller resets and runs the primal two-phase solve.
    ///
    /// [`cold_dual_start`]: Self::cold_dual_start
    // lint:allow(hot-path-index): start-up pass; columns bounded by n, slots by m
    pub(super) fn run_cold_dual(
        &mut self,
        mut implied: Vec<(usize, f64)>,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> Option<LpResult> {
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
            self.set_nonbasic(j, self.rests_on_upper(j));
            if !self.x[j].is_finite() {
                // A free column without a cost is dual feasible at zero.
                self.set_x(j, 0.0);
                continue;
            }
            if self.cold_dual_perturb && self.lower[j] < self.upper[j] {
                let eps = COLD_PERTURB * (1.0 + self.costs[j].abs()) * (0.5 + 0.5 * u);
                self.costs[j] += if self.at_upper[j] { -eps } else { eps };
            }
        }
        for i in 0..m {
            self.basis[i] = n + i;
            self.position[n + i] = i;
        }
        // Artificials are pinned at zero throughout.
        self.pin_artificials();
        if !self.refactor() {
            return None;
        }
        // Budget, in proportion to what the primal would spend: from
        // the crash basis it takes 0.5–1.5 pivots per column on the
        // region models, a repair that works 0.05–0.7 (and each of its
        // pivots costs less). One per column the model leaves free
        // abandons a stalled attempt for less than the solve it falls
        // back to.
        let outcome = self.dual_iterate(DualRule::LongStep, self.live_cols - m, observe);
        // Whichever way the dual phase ended, everything after it prices
        // with the true costs inside the true bounds.
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        self.swap_implied_bounds(&mut implied);
        let status = self.after_dual(DualRule::LongStep, outcome)?;
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
            self.bounds_changed(*j);
        }
    }

    /// What a solve reports after its dual iteration ended in `outcome`:
    /// once primal feasible, the primal cleanup certifies optimality
    /// (normally zero pivots) and leaves fresh duals for the audit.
    /// `None`: the dual iteration could not proceed safely, solve cold
    /// (on an engine reset, counts included). Under the long step the
    /// solve counts as the dual simplex's, and its pivots so far as dual
    /// iterations; the repair's stay plain ones.
    fn after_dual(&mut self, rule: DualRule, outcome: DualOutcome) -> Option<LpStatus> {
        if rule == DualRule::LongStep {
            self.used_dual_simplex = true;
            self.dual_iterations = self.iterations;
        }
        match outcome {
            DualOutcome::PrimalFeasible => Some(self.optimize()),
            DualOutcome::Infeasible => Some(LpStatus::Infeasible),
            DualOutcome::Limit => Some(LpStatus::IterationLimit),
            DualOutcome::Fallback => None,
        }
    }

    /// The dual iteration, to primal feasibility. Each pass picks the
    /// leaving row by `rule`'s leaving rule and the entering column by its
    /// ratio test over the scattered α-row, cross-checks the FTRAN'd pivot
    /// element against the α-row before any state moves (on disagreement
    /// it refactorizes and starts the pass over, at most
    /// [`DRIFT_RETRIES`] times in a row), applies the ratio test's bound
    /// flips, lands the leaving row on its violated bound, updates the
    /// basis and the prices the ratio test reads, and maintains the
    /// factors. More than `budget` pivots send the solve cold.
    // lint:allow(hot-path-index): dual iteration kernel; rows bounded by m, columns by n
    fn dual_iterate(
        &mut self,
        rule: DualRule,
        budget: usize,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> DualOutcome {
        let m = self.m;
        // The long step's leaving rule weighs the rows by dual devex
        // (reference framework: the current rows); the repair's takes the
        // largest violation.
        let mut weights = (rule == DualRule::LongStep).then(|| vec![1.0; m]);
        let (mut cands, mut flips, mut flip_r) = (Vec::new(), Vec::new(), Vec::new());
        self.d_valid = false;
        let (mut pivots, mut since_refresh, mut failures) = (0, 0, 0);
        loop {
            if self.limit_reached() {
                return DualOutcome::Limit;
            }
            if pivots > budget {
                return DualOutcome::Fallback;
            }
            // The prices the ratio test reads: reduced costs refreshed
            // after each factorization and every DUAL_REFRESH_INTERVAL
            // pivots, before their d-patches drift enough to misrank it;
            // or duals recomputed once per factorization.
            match rule {
                DualRule::LongStep if !self.d_valid || since_refresh >= DUAL_REFRESH_INTERVAL => {
                    self.refresh_reduced_costs(false);
                    since_refresh = 0;
                }
                DualRule::Repair if !self.y_valid => self.compute_duals(),
                _ => {}
            }
            let Some((row, target, to_upper)) = self.select_leaving(weights.as_deref()) else {
                return DualOutcome::PrimalFeasible;
            };
            // σ orients the violation: +1 above the upper bound (the
            // basic must decrease), −1 below the lower bound.
            let sigma = if to_upper { 1.0 } else { -1.0 };
            self.scatter_alpha_row(row, true);
            let entering = match rule {
                DualRule::LongStep => {
                    self.long_step_ratio(row, sigma, target, &mut cands, &mut flips)
                }
                DualRule::Repair => self.repair_ratio_test(sigma),
            };
            observe(self, row, to_upper, entering);
            let Some(q) = entering else {
                // No column can enter: the row certifies primal
                // infeasibility, if it still does on fresh factors.
                return self.infeasible_or_fallback(row);
            };
            self.compute_direction(q);
            #[cfg(test)]
            if self.inject_drift > 0 {
                self.inject_drift -= 1;
                self.w[row] += 1.0;
            }
            let (w_r, alpha_q) = (self.w[row], self.alpha[q]);
            if w_r.abs() <= tol::EPS || (w_r - alpha_q).abs() > tol::OPT * (1.0 + alpha_q.abs()) {
                // Representation drift: refactorize and start over.
                failures += 1;
                if failures > DRIFT_RETRIES || !self.refactor_for(RefactorReason::Accuracy) {
                    return DualOutcome::Fallback;
                }
                continue;
            }
            failures = 0;
            // Apply all flips with one batched FTRAN: x_B -= B⁻¹(Σ A_jΔ_j).
            if !flips.is_empty() {
                flip_r.clear();
                flip_r.resize(m, 0.0);
                for &(j, delta) in &flips {
                    self.sf.matrix.scatter_column(j, delta, &mut flip_r);
                }
                self.repr.ftran(&mut flip_r);
                for (xb, &fr) in self.xb.iter_mut().zip(&flip_r) {
                    *xb -= fr;
                }
                for &(j, _) in &flips {
                    self.set_nonbasic(j, !self.at_upper[j]);
                }
            }
            let leaving = self.basis[row];
            self.land_leaving(row, q, target, to_upper);
            self.record_basis_update(row);
            match rule {
                DualRule::LongStep => {
                    // Dual step θ = d_q/α̂_q ≥ 0; reduced costs move along
                    // the α-row: d'_j = d_j − θ·σ·α_j.
                    let theta = (self.d[q] / (sigma * w_r)).nmax(0.0);
                    if theta != 0.0 {
                        for idx in 0..self.alpha_cols.len() {
                            let j = cast::idx(self.alpha_cols[idx]);
                            if j != q && self.position[j] == usize::MAX {
                                self.d[j] -= theta * sigma * self.alpha[j];
                            }
                        }
                    }
                    self.d[q] = 0.0;
                    self.d[leaving] = -theta * sigma;
                    self.d_fresh = false;
                }
                DualRule::Repair => {
                    // The dual step y += θ·ρ, θ = d_q/α_q: d'_j = d_j − θ·α_j
                    // zeroes d_q and keeps every other basic column's at zero.
                    let theta = (self.costs[q] - self.column_dot(q, &self.y)) / w_r;
                    for (y, &r) in self.y.iter_mut().zip(&self.rho) {
                        *y += theta * r;
                    }
                    self.y_valid = true;
                }
            }
            if let Some(dw) = &mut weights {
                update_dual_devex(dw, &self.w, row);
            }
            self.iterations += 1;
            pivots += 1;
            since_refresh += 1;
            self.pivots_since_refactor += 1;
            if !self.maintain_basis() {
                return DualOutcome::Fallback;
            }
        }
    }

    /// The long step's ratio test, on the maintained reduced costs: the
    /// α-row's candidates ranked by how soon their reduced cost hits
    /// zero, walked with the bound-flip rule — a boxed candidate whose
    /// full flip leaves the row still violated goes into `flips` instead
    /// of entering, and the walk goes on into the next dual ratio, so one
    /// pivot absorbs a whole run of degenerate breakpoints. `None` when
    /// nothing can enter, or everything flipped and violation remains.
    // lint:allow(hot-path-index): α-row candidates are columns < n + m
    fn long_step_ratio(
        &self,
        row: usize,
        sigma: f64,
        target: f64,
        cands: &mut Vec<(u32, f64)>,
        flips: &mut Vec<(usize, f64)>,
    ) -> Option<usize> {
        cands.clear();
        flips.clear();
        for &cj in &self.alpha_cols {
            let j = cast::idx(cj);
            let a_hat = sigma * self.alpha[j];
            if self.may_enter(j, a_hat) {
                // Dual feasibility keeps d_j/α̂_j ≥ 0 up to drift.
                cands.push((cj, (self.d[j] / a_hat).nmax(0.0)));
            }
        }
        cands.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        let mut remaining = (self.xb[row] - target).abs();
        for (k, &(cj, ratio)) in cands.iter().enumerate() {
            let j = cast::idx(cj);
            let a_hat = sigma * self.alpha[j];
            let range = self.upper[j] - self.lower[j];
            if range.is_finite() && remaining > a_hat.abs() * range + tol::OPT {
                // Flip: x_j jumps to its opposite bound, absorbing
                // |α̂_j|·range of the violation.
                flips.push((j, if self.at_upper[j] { -range } else { range }));
                remaining -= a_hat.abs() * range;
                continue;
            }
            // Degenerate ties are the common case after a bound patch;
            // break them toward the largest |α̂| — the most stable pivot,
            // and the same rule the primal repair path uses, so both land
            // on the same vertex.
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
            return Some(best_j);
        }
        None
    }

    /// The repair's ratio test, on the duals the dual step keeps: the
    /// smallest `|d_j / α_j|`, ties within the drop tolerance going to
    /// the largest `|α_j|`. Only columns with an entry in a row where `ρ`
    /// is nonzero can have `α_j ≠ 0` — every other one is an exact ±0.0,
    /// below any pivot tolerance, and `ρ` is sparse (a few dozen rows of a
    /// thousand) — and they are visited in ascending order, exactly as a
    /// scan over every column would, so every tie breaks as it would there.
    // lint:allow(hot-path-index): candidate bitmap sized to the n + m columns
    fn repair_ratio_test(&mut self, sigma: f64) -> Option<usize> {
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
                let Some((ratio, alpha)) = self.repair_ratio(j, self.alpha[j], sigma) else {
                    continue;
                };
                match best {
                    Some((_, br, ba))
                        if ratio > br + tol::DROP || (ratio >= br - tol::DROP && alpha <= ba) => {}
                    _ => best = Some((j, ratio, alpha)),
                }
            }
        }
        best.map(|(q, _, _)| q)
    }

    /// Whether column `j`, whose pivot-row entry oriented by the violation
    /// is `a_hat` (`σ·α_j`), may enter the dual ratio test: nonbasic, not
    /// fixed, `|α_j|` above the pivot tolerance, and free to move off its
    /// bound the way that pushes the leaving variable toward its bound.
    fn may_enter(&self, j: usize, a_hat: f64) -> bool {
        if self.position[j] != usize::MAX || !self.is_live(j) {
            return false;
        }
        if self.is_free(j) {
            a_hat.abs() > tol::EPS
        } else if self.at_upper[j] {
            a_hat < -tol::EPS
        } else {
            a_hat > tol::EPS
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
        self.scatter_alpha_row(row, false);
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

    /// The leaving row, with the bound it must land on, as `(row, bound
    /// value, is_upper)`. Without weights (the repair) it is the largest
    /// bound violation; the long step weights it by the dual devex
    /// reference framework (`violation²/w_i`), which spreads pivots across
    /// degenerate capacity rows instead of hammering one.
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
        let (x, lo, up) = (self.xb[row], self.lb[row], self.ub[row]);
        if x < lo - tol::OPT {
            Some((lo - x, lo, false))
        } else if x > up + tol::OPT {
            Some((x - up, up, true))
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
        let sigma = if to_upper { 1.0 } else { -1.0 };
        self.repair_ratio(j, self.column_dot(j, &self.rho), sigma)
    }

    /// Column `j`, whose entry in the pivot row is `alpha`, in the
    /// repair's dual ratio test for the leaving row `ρ` was last computed
    /// for, its violation oriented by `sigma`: `(|d_j / α_j|, |α_j|)` when
    /// `j` [may enter](Self::may_enter), with `d_j = c_j − yᵀA_j` on the
    /// duals the repair holds, computed for such a column only.
    fn repair_ratio(&self, j: usize, alpha: f64, sigma: f64) -> Option<(f64, f64)> {
        if !self.may_enter(j, sigma * alpha) {
            return None;
        }
        let d = self.costs[j] - self.column_dot(j, &self.y);
        Some(((d / alpha).abs(), alpha.abs()))
    }

    /// Moves along the FTRAN'd direction `self.w` of entering column `q`
    /// by the step that lands the basic variable of `row` exactly on
    /// `target`, and swaps the two in the basis.
    // lint:allow(hot-path-index): basic-value update over basis slots, bounded by m
    fn land_leaving(&mut self, row: usize, q: usize, target: f64, to_upper: bool) {
        let leaving = self.basis[row];
        let delta = (self.xb[row] - target) / self.w[row];
        for (xb, &w) in self.xb.iter_mut().zip(&self.w) {
            *xb -= delta * w;
        }
        self.set_x(leaving, target);
        self.at_upper[leaving] = to_upper;
        self.position[leaving] = usize::MAX;
        self.enter_row(row, q, self.x[q] + delta);
    }
}

/// The long step's leaving-rule update after a pivot on `row`: dual
/// devex weights from the FTRAN'd direction `w`, restarted once any
/// outgrows its numerical usefulness.
// lint:allow(hot-path-index): weights and direction are both sized to m
fn update_dual_devex(dw: &mut [f64], w: &[f64], row: usize) {
    let a = w[row];
    let gamma_r = dw[row];
    let mut exploded = false;
    for (i, wgt) in dw.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let w_i = w[i];
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
        dw.fill(1.0);
    }
}

/// Outcome of a [`Simplex::dual_iterate`] run.
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
