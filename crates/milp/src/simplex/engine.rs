//! The [`Simplex`] engine: its state, the choice between the warm, the
//! dual-first cold and the primal two-phase cold start, the primal
//! two-phase driver and the maintenance of the Forrest–Tomlin basis
//! factors.

use super::{
    Basis, BasisStats, DualRule, LpResult, LpStatus, PricingRule, PricingStats, SimplexConfig,
    AUTO_PARTIAL_MIN_COLS, REFACTOR_INTERVAL,
};
use crate::cast;
use crate::lu::{FtFactors, LuFactors};
use crate::standard::StandardForm;
use crate::tol;

/// Once the Forrest–Tomlin factors (spike fill plus row-elimination
/// etas) outgrow the fresh factorization's nonzeros by this factor, a
/// refactorization is cheaper than dragging the fill along.
const FT_MAX_FILL_RATIO: f64 = 4.0;

/// Why a refactorization was triggered (counted in [`BasisStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RefactorReason {
    /// The fixed pivot-count interval elapsed.
    Interval,
    /// Accumulated fill outgrew the factorization.
    Growth,
    /// An update reported numerical instability.
    Accuracy,
}

/// The simplex engine for one standard form: every vector a solve needs,
/// allocated once and reused by each [`solve`](Self::solve), which resets
/// it: a result never depends on what the engine solved before. Branch
/// and bound keeps one for the node and dive LPs its search solves, and
/// its look-ahead helper one more — a node re-solve is a
/// handful of pivots, and building a dozen `n + m` vectors around each
/// used to cost as much as the pivots. [`solve_lp`] and [`solve_lp_warm`]
/// wrap a throwaway instance.
///
/// [`solve_lp`]: super::solve_lp
/// [`solve_lp_warm`]: super::solve_lp_warm
pub struct Simplex<'a> {
    pub(super) sf: &'a StandardForm,
    pub(super) config: SimplexConfig,
    pub(super) m: usize,
    /// Columns: structural + slack (`n0`), then `m` artificials.
    pub(super) n0: usize,
    /// `n0 + m` less the structural columns the model fixes: what the
    /// size rules count, since a fixed column can never enter.
    pub(super) live_cols: usize,
    pub(super) lower: Vec<f64>,
    pub(super) upper: Vec<f64>,
    pub(super) costs: Vec<f64>,
    /// Sign of each artificial's identity coefficient.
    pub(super) art_sign: Vec<f64>,
    /// `0..m`: the row index of artificial `r` as the one-entry slice
    /// `unit_rows[r..=r]`, so every column reads as CSC slices.
    pub(super) unit_rows: Vec<u32>,
    /// Basic variable of each row.
    pub(super) basis: Vec<usize>,
    /// Row of a basic variable, or `usize::MAX` when nonbasic.
    pub(super) position: Vec<usize>,
    /// Basis factorization: sparse LU under Forrest–Tomlin updates.
    pub(super) repr: FtFactors,
    /// Current value of every variable.
    pub(super) x: Vec<f64>,
    /// Nonbasic-at-upper flag.
    pub(super) at_upper: Vec<bool>,
    pub(super) iterations: usize,
    pub(super) phase1_iterations: usize,
    pub(super) dual_iterations: usize,
    pub(super) used_dual_simplex: bool,
    pub(super) refactorizations: usize,
    pub(super) basis_stats: BasisStats,
    /// Set when a basis update was rejected; forces an accuracy
    /// refactorization before the next FTRAN/BTRAN is trusted.
    pub(super) update_rejected: bool,
    /// Pivots between scheduled refactorizations: [`REFACTOR_INTERVAL`],
    /// changed by tests alone.
    pub(super) refactor_interval: usize,
    pub(super) pivots_since_refactor: usize,
    pub(super) degenerate_run: usize,
    /// Duals `y = B⁻ᵀc_B`, recomputed by BTRAN or — across the pivots of
    /// the one-violation repair — kept by the dual step.
    pub(super) y: Vec<f64>,
    /// Whether `y` belongs to the current basis (up to the dual steps'
    /// drift). The repair keeps it so across its own pivots; every other
    /// basis change and every factorization clear it, so the repair
    /// recomputes `y` once per factorization.
    pub(super) y_valid: bool,
    // Scratch buffers.
    pub(super) w: Vec<f64>,
    pub(super) rho: Vec<f64>,
    // Pricing engine state (see `select_entering`).
    /// The rule `live_cols` picks at construction.
    pub(super) rule: PricingRule,
    /// Maintained reduced costs `d_j = c_j − yᵀA_j` for every column.
    pub(super) d: Vec<f64>,
    /// Whether `d` matches the current basis (up to incremental drift).
    pub(super) d_valid: bool,
    /// Whether `d` was recomputed from the duals with no pivot since.
    /// Optimality is only declared on a fresh scan: the incremental
    /// updates are allowed to drift between refreshes.
    pub(super) d_fresh: bool,
    /// Devex reference-framework weights.
    pub(super) devex: Vec<f64>,
    /// Partial-pricing candidate list (column indices).
    pub(super) candidates: Vec<u32>,
    /// Whether the list, when last built, held every eligible column
    /// (the cap cut nothing).
    pub(super) candidates_complete: bool,
    /// α-row scatter workspace: `alpha[j] = ρᵀA_j` for touched columns.
    pub(super) alpha: Vec<f64>,
    /// Epoch marks for `alpha` (valid iff equal to `alpha_epoch`).
    pub(super) alpha_mark: Vec<u32>,
    pub(super) alpha_epoch: u32,
    /// Columns touched by the current α-row scatter.
    pub(super) alpha_cols: Vec<u32>,
    /// One bit per column: the candidates of the repair's dual ratio
    /// test (see [`repair_ratio_test`](Self::repair_ratio_test)).
    pub(super) ratio_cands: Vec<u64>,
    pub(super) pricing: PricingStats,
    /// A cold solve goes dual-first only above this many `live_cols`:
    /// [`AUTO_PARTIAL_MIN_COLS`], lowered by tests alone.
    pub(super) cold_dual_min_cols: usize,
    /// Whether the dual-first cold start perturbs its costs (tests turn
    /// it off to reach the stall fallback).
    pub(super) cold_dual_perturb: bool,
    /// Test hook: the next this many dual pivots find their FTRAN
    /// pivot element off from the α-row, as representation drift would
    /// leave it.
    #[cfg(test)]
    pub(super) inject_drift: usize,
}

impl<'a> Simplex<'a> {
    /// Allocates the engine for `sf`.
    pub fn new(sf: &'a StandardForm, config: SimplexConfig) -> Self {
        let m = sf.num_rows;
        let n0 = sf.num_cols();
        let total = n0 + m;
        let fixed = (sf.lower.iter().zip(&sf.upper))
            .take(sf.num_structural)
            .filter(|(lo, up)| lo == up)
            .count();
        let live_cols = total - fixed;
        let rule = if live_cols > AUTO_PARTIAL_MIN_COLS {
            PricingRule::PartialDevex
        } else {
            PricingRule::Devex
        };
        Self {
            sf,
            config,
            m,
            n0,
            live_cols,
            lower: vec![0.0; total],
            upper: vec![0.0; total],
            costs: vec![0.0; total],
            art_sign: vec![1.0; m],
            unit_rows: (0..cast::idx32(m)).collect(),
            basis: vec![0; m],
            position: vec![usize::MAX; total],
            repr: FtFactors::diagonal(&vec![1.0; m]),
            x: vec![0.0; total],
            at_upper: vec![false; total],
            iterations: 0,
            phase1_iterations: 0,
            dual_iterations: 0,
            used_dual_simplex: false,
            refactorizations: 0,
            basis_stats: BasisStats::default(),
            update_rejected: false,
            refactor_interval: REFACTOR_INTERVAL,
            pivots_since_refactor: 0,
            degenerate_run: 0,
            y: vec![0.0; m],
            y_valid: false,
            w: vec![0.0; m],
            rho: vec![0.0; m],
            rule,
            d: vec![0.0; total],
            d_valid: false,
            d_fresh: false,
            devex: vec![1.0; total],
            candidates: Vec::new(),
            candidates_complete: false,
            alpha: vec![0.0; total],
            alpha_mark: vec![0; total],
            alpha_epoch: 0,
            alpha_cols: Vec::new(),
            ratio_cands: vec![0; total.div_ceil(64)],
            pricing: PricingStats::default(),
            cold_dual_min_cols: AUTO_PARTIAL_MIN_COLS,
            cold_dual_perturb: true,
            #[cfg(test)]
            inject_drift: 0,
        }
    }

    /// Test hook: lets LPs of more than `min_cols` columns (in place of
    /// [`AUTO_PARTIAL_MIN_COLS`]) take the dual-first cold start, with
    /// or without its cost perturbation.
    #[doc(hidden)]
    pub fn set_cold_dual_gate(&mut self, min_cols: usize, perturb: bool) {
        self.cold_dual_min_cols = min_cols;
        self.cold_dual_perturb = perturb;
    }

    /// Test hook: prices with partial devex (`true`) or full devex
    /// (`false`) whatever the LP's size, so the two rules can be compared
    /// on one LP.
    #[doc(hidden)]
    pub fn set_partial_pricing(&mut self, partial: bool) {
        self.rule = if partial {
            PricingRule::PartialDevex
        } else {
            PricingRule::Devex
        };
    }

    /// Test hook: refactorizes every `pivots` pivots in place of every
    /// 200 (a short interval stresses factorization, a huge one leaves
    /// the Forrest–Tomlin updates alone).
    #[doc(hidden)]
    pub fn set_refactor_interval(&mut self, pivots: usize) {
        self.refactor_interval = pivots;
    }

    /// Solves under the given bounds (length `n + m`, as in
    /// [`solve_lp`]), from `warm` when it is usable and cold otherwise
    /// (see [`solve_lp_warm`]), the dual iteration running by `rule`.
    /// Cold, the long step goes dual-first from the slack basis where
    /// that pays; otherwise, and always under the repair, the primal
    /// two-phase solve runs from the slack crash.
    ///
    /// [`solve_lp`]: super::solve_lp
    /// [`solve_lp_warm`]: super::solve_lp_warm
    pub fn solve(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        rule: DualRule,
    ) -> LpResult {
        self.solve_observed(lower, upper, warm, rule, |_, _, _, _| {})
    }

    /// Test hook: [`solve`](Self::solve), showing `observe` every pivot
    /// choice of the dual iteration before it is applied: the engine, the
    /// leaving row, whether its basic variable lands on its upper bound,
    /// and the entering column (`None`: no candidate; the solve returns
    /// infeasible if the row certifies it, else goes cold).
    #[doc(hidden)]
    pub fn solve_observed(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        rule: DualRule,
        mut observe: impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> LpResult {
        if let Some(basis) = warm.filter(|b| self.m > 0 && b.basis.len() == self.m) {
            self.reset(lower, upper);
            if let Some(result) = self.run_warm(basis, rule, &mut observe) {
                return result;
            }
        }
        self.reset(lower, upper);
        if rule == DualRule::LongStep {
            if let Some(implied) = self.cold_dual_start() {
                if let Some(result) = self.run_cold_dual(implied, &mut observe) {
                    return result;
                }
                self.reset(lower, upper);
            }
        }
        self.run()
    }

    /// Puts every vector and counter back to the state a fresh engine
    /// starts a solve from: all columns nonbasic at zero with zero cost,
    /// artificials free above zero.
    fn reset(&mut self, lower: &[f64], upper: &[f64]) {
        let n0 = self.n0;
        self.lower[..n0].copy_from_slice(lower);
        self.lower[n0..].fill(0.0);
        self.upper[..n0].copy_from_slice(upper);
        self.upper[n0..].fill(f64::INFINITY);
        self.costs.fill(0.0);
        self.art_sign.fill(1.0);
        self.position.fill(usize::MAX);
        self.x.fill(0.0);
        self.at_upper.fill(false);
        self.iterations = 0;
        self.phase1_iterations = 0;
        self.dual_iterations = 0;
        self.used_dual_simplex = false;
        self.refactorizations = 0;
        self.basis_stats = BasisStats::default();
        self.update_rejected = false;
        self.pivots_since_refactor = 0;
        self.degenerate_run = 0;
        self.d_valid = false;
        self.d_fresh = false;
        self.pricing = PricingStats::default();
        self.y.fill(0.0);
        self.y_valid = false;
    }

    /// `A_jᵀ v` for any column, including artificials.
    pub(super) fn column_dot(&self, j: usize, v: &[f64]) -> f64 {
        match j.checked_sub(self.n0) {
            None => self.sf.matrix.column_dot(j, v),
            Some(r) => self.art_sign[r] * v[r],
        }
    }

    // lint:allow(hot-path-index): phase driver; var indices bounded by tableau width n
    fn run(&mut self) -> LpResult {
        if self.m == 0 {
            return self.solve_unconstrained();
        }
        self.init_basis();
        // Phase 1 runs only when the crash basis left some infeasibility
        // (an artificial carrying a nonzero residual); a fully
        // slack-feasible start jumps straight to phase 2.
        let infeas0: f64 = (0..self.m).map(|i| self.x[self.n0 + i]).sum();
        if infeas0 > 0.0 {
            // Phase 1: minimize the sum of artificials.
            for j in 0..self.m {
                self.costs[self.n0 + j] = 1.0;
            }
            let status = self.optimize();
            self.phase1_iterations = self.iterations;
            if status == LpStatus::IterationLimit {
                return self.finish(LpStatus::IterationLimit);
            }
            let infeas: f64 = (0..self.m).map(|i| self.x[self.n0 + i]).sum();
            if infeas > self.infeasibility_threshold() {
                return self.finish(LpStatus::Infeasible);
            }
        }
        // Phase 2: true costs; artificials are pinned to zero.
        for j in 0..self.m {
            self.costs[self.n0 + j] = 0.0;
            self.lower[self.n0 + j] = 0.0;
            self.upper[self.n0 + j] = 0.0;
            self.x[self.n0 + j] = 0.0;
        }
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        let status = self.optimize();
        self.finish(status)
    }

    /// Row residual, summed over the rows, above which the LP counts as
    /// infeasible: the optimality tolerance scaled by the right-hand side.
    pub(super) fn infeasibility_threshold(&self) -> f64 {
        tol::OPT * (1.0 + self.sf.rhs.iter().map(|v| v.abs()).sum::<f64>())
    }

    /// Handles the degenerate `m == 0` case (no constraints).
    // lint:allow(hot-path-index): bound arrays are sized to n with the tableau
    fn solve_unconstrained(&mut self) -> LpResult {
        for j in 0..self.n0 {
            let c = self.sf.costs[j];
            let v = if c > 0.0 {
                self.lower[j]
            } else if c < 0.0 {
                self.upper[j]
            } else if self.lower[j].is_finite() {
                self.lower[j]
            } else if self.upper[j].is_finite() {
                self.upper[j]
            } else {
                0.0
            };
            if !v.is_finite() {
                return self.finish(LpStatus::Unbounded);
            }
            self.x[j] = v;
        }
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        self.finish(LpStatus::Optimal)
    }

    pub(super) fn finish(&self, status: LpStatus) -> LpResult {
        let objective = self.sf.obj_constant
            + (0..self.n0)
                .map(|j| self.sf.costs[j] * self.x[j])
                .sum::<f64>();
        let basis = (status == LpStatus::Optimal && self.m > 0).then(|| Basis {
            basis: self.basis.clone(),
            at_upper: self.at_upper[..self.n0].to_vec(),
        });
        LpResult {
            status,
            objective,
            values: self.x[..self.n0].to_vec(),
            duals: self.y.clone(),
            iterations: self.iterations,
            phase1_iterations: self.phase1_iterations,
            dual_iterations: self.dual_iterations,
            used_dual_simplex: self.used_dual_simplex,
            refactorizations: self.refactorizations,
            basis_stats: self.basis_stats,
            pricing: self.pricing,
            basis,
            warm_basis_used: false,
        }
    }

    /// Places all real columns nonbasic at a finite bound and installs
    /// the crash basis: each row is covered by its slack whenever the
    /// residual fits the slack's bounds (no phase-1 work for that row),
    /// and by an artificial otherwise.
    // lint:allow(hot-path-index): slack/artificial slots laid out over m rows just allocated
    fn init_basis(&mut self) {
        for j in 0..self.n0 {
            self.rest_nonbasic(j, false);
        }
        // Residual r = b - A x_N over all nonbasic real columns.
        let mut r = self.sf.rhs.clone();
        for j in 0..self.n0 {
            if self.x[j] != 0.0 {
                self.sf.matrix.scatter_column(j, -self.x[j], &mut r);
            }
        }
        let n = self.n0 - self.m; // structural column count
        let mut signs = vec![1.0; self.m];
        #[allow(clippy::needless_range_loop)] // Indexing several arrays in lockstep.
        for i in 0..self.m {
            let slack = n + i;
            let art = self.n0 + i;
            // Value the slack must take to close the row on its own
            // (its own nonbasic contribution is already inside r).
            let resid = r[i] + self.x[slack];
            if resid >= self.lower[slack] && resid <= self.upper[slack] {
                // Crash the slack basic: B's column is +e_i, the row is
                // feasible, and phase 1 has nothing to do here.
                self.basis[i] = slack;
                self.position[slack] = i;
                self.x[slack] = resid;
                self.art_sign[i] = 1.0;
                self.position[art] = usize::MAX;
                self.x[art] = 0.0;
            } else {
                let sign = if r[i] >= 0.0 { 1.0 } else { -1.0 };
                self.art_sign[i] = sign;
                self.basis[i] = art;
                self.position[art] = i;
                self.x[art] = r[i].abs();
                signs[i] = sign;
            }
        }
        // B = diag(signs), so B⁻¹ = diag(signs).
        self.repr = FtFactors::diagonal(&signs);
    }

    /// Puts nonbasic column `j` on its upper bound when `upper`, else on
    /// its lower one.
    pub(super) fn set_nonbasic(&mut self, j: usize, upper: bool) {
        self.at_upper[j] = upper;
        self.x[j] = if upper { self.upper[j] } else { self.lower[j] };
    }

    /// Rests nonbasic column `j` on a finite bound — the upper one when
    /// `prefer_upper` or the lower one is infinite — or, free, at zero.
    pub(super) fn rest_nonbasic(&mut self, j: usize, prefer_upper: bool) {
        let upper = self.upper[j].is_finite() && (prefer_upper || !self.lower[j].is_finite());
        self.set_nonbasic(j, upper);
        if !self.x[j].is_finite() {
            self.x[j] = 0.0;
        }
    }

    /// Whether the solve stops here with [`LpStatus::IterationLimit`]: the
    /// pivot cap is reached or — checked every 32 iterations, cheap next
    /// to a pivot — the deadline passed.
    pub(super) fn limit_reached(&self) -> bool {
        self.iterations >= self.config.max_iterations
            || (self.iterations.is_multiple_of(32)
                && self
                    .config
                    .deadline
                    .is_some_and(|d| std::time::Instant::now() > d))
    }

    /// Post-pivot basis maintenance: refactorize early when the last
    /// update was rejected (accuracy) or fill outgrew the factors
    /// (growth), and on the fixed pivot interval otherwise. Returns
    /// false only when a needed refactorization failed (singular basis,
    /// old state kept).
    pub(super) fn maintain_basis(&mut self) -> bool {
        let reason = if self.update_rejected {
            Some(RefactorReason::Accuracy)
        } else if self.repr.update_count() > 0 && self.repr.fill_ratio() > FT_MAX_FILL_RATIO {
            Some(RefactorReason::Growth)
        } else if self.pivots_since_refactor >= self.refactor_interval {
            Some(RefactorReason::Interval)
        } else {
            None
        };
        match reason {
            Some(r) => self.refactor_for(r),
            None => true,
        }
    }

    /// [`refactor`](Self::refactor) plus per-trigger accounting; clears
    /// the rejected-update flag on success (the rebuilt factors
    /// supersede the stale ones).
    pub(super) fn refactor_for(&mut self, reason: RefactorReason) -> bool {
        if !self.refactor() {
            return false;
        }
        self.update_rejected = false;
        match reason {
            RefactorReason::Interval => self.basis_stats.refactors_interval += 1,
            RefactorReason::Growth => self.basis_stats.refactors_growth += 1,
            RefactorReason::Accuracy => self.basis_stats.refactors_accuracy += 1,
        }
        true
    }

    /// Whether `j` is a structural column the model fixes (equal default
    /// bounds): one that can never enter, which `live_cols` leaves out.
    pub(super) fn model_fixes(&self, j: usize) -> bool {
        j < self.sf.num_structural && self.sf.lower.get(j) == self.sf.upper.get(j)
    }

    pub(super) fn is_free(&self, j: usize) -> bool {
        self.lower[j] == f64::NEG_INFINITY && self.upper[j] == f64::INFINITY
    }

    /// Computes `y = B⁻ᵀ c_B` into `self.y`.
    // lint:allow(hot-path-index): dual vector sized to m alongside the basis
    pub(super) fn compute_duals(&mut self) {
        for i in 0..self.m {
            self.y[i] = self.costs[self.basis[i]];
        }
        self.repr.btran(&mut self.y);
        self.y_valid = true;
    }

    /// Test hook: the duals as the engine holds them — within the
    /// one-violation repair, kept by the dual step since the last
    /// factorization.
    #[doc(hidden)]
    pub fn duals(&self) -> &[f64] {
        &self.y
    }

    /// Test hook: `B⁻ᵀc_B` of the current basis from a fresh
    /// factorization, the oracle for [`duals`](Self::duals). `None` when
    /// the basis does not factorize.
    #[doc(hidden)]
    pub fn fresh_duals(&self) -> Option<Vec<f64>> {
        let mut y: Vec<f64> = self.basis.iter().map(|&b| self.costs[b]).collect();
        FtFactors::from_lu(self.factor_basis()?).btran(&mut y);
        Some(y)
    }

    /// A fresh LU factorization of the current basis columns; `None` when
    /// the basis is numerically singular.
    fn factor_basis(&self) -> Option<LuFactors> {
        let (sf, basis) = (self.sf, &self.basis);
        let (unit_rows, art_sign) = (&self.unit_rows, &self.art_sign);
        LuFactors::factorize(
            self.m,
            |slot| column_of(sf, unit_rows, art_sign, basis[slot]),
            tol::DROP,
        )
    }

    /// Replaces column `row` of the factors by the entering column staged
    /// with its direction `self.w` and books the outcome: a rejected
    /// update (FT instability) flags an accuracy refactorization, which
    /// [`maintain_basis`](Self::maintain_basis) performs before the
    /// factors are used again. The basis changed, so `y` no longer
    /// belongs to it until recomputed or stepped.
    pub(super) fn record_basis_update(&mut self, row: usize) {
        match self.repr.update(row) {
            Ok(entries) => {
                self.basis_stats.updates += 1;
                self.basis_stats.spike_entries += entries;
            }
            Err(_) => self.update_rejected = true,
        }
        self.y_valid = false;
    }

    /// Rebuilds the basis representation from the current basis columns
    /// and recomputes basic values from the nonbasic assignment.
    ///
    /// Returns false when the basis is numerically singular (the old
    /// representation is kept so the caller can decide how to recover).
    // lint:allow(hot-path-index): rebuilds basis columns; slots and rows bounded by m
    pub(super) fn refactor(&mut self) -> bool {
        self.pivots_since_refactor = 0;
        let Some(lu) = self.factor_basis() else {
            return false;
        };
        self.repr = FtFactors::from_lu(lu);
        self.refactorizations += 1;
        // Recompute x_B = B⁻¹ (b − N x_N); the direction buffer is free
        // between pivots.
        let (sf, unit_rows, art_sign) = (self.sf, &self.unit_rows, &self.art_sign);
        let mut r = std::mem::take(&mut self.w);
        r.copy_from_slice(&self.sf.rhs);
        for j in 0..self.n0 + self.m {
            let xj = self.x[j];
            if self.position[j] == usize::MAX && xj != 0.0 {
                for (row, v) in column_of(sf, unit_rows, art_sign, j) {
                    r[row] -= v * xj;
                }
            }
        }
        self.repr.ftran(&mut r);
        for (i, &ri) in r.iter().enumerate() {
            self.x[self.basis[i]] = ri;
        }
        self.w = r;
        // The rebuilt representation supersedes whatever incremental
        // drift the maintained reduced costs accumulated against the old
        // one; force a refresh at the next pricing step. The repair's
        // dual steps restart from a BTRAN on the new factors too.
        self.d_valid = false;
        self.y_valid = false;
        true
    }
}

/// The `(row, value)` nonzeros of column `j`: a matrix column, or past
/// them the one-entry column of artificial `j − n0`.
fn column_of<'a>(
    sf: &'a StandardForm,
    unit_rows: &'a [u32],
    art_sign: &'a [f64],
    j: usize,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    let (rows, values) = match j.checked_sub(sf.num_cols()) {
        None => sf.matrix.column_slices(j),
        Some(r) => (&unit_rows[r..=r], &art_sign[r..=r]),
    };
    rows.iter().zip(values).map(|(r, v)| (cast::idx(*r), *v))
}
