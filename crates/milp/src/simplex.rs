//! Bounded-variable revised simplex: two-phase primal, plus a true dual
//! simplex for warm re-solves.
//!
//! The basis is held as a sparse LU factorization (see [`crate::lu`])
//! maintained with Forrest–Tomlin updates ([`crate::lu::FtFactors`]),
//! which keep `U` genuinely triangular between refactorizations. The
//! factors are rebuilt every few hundred pivots — or early, when an
//! update reports instability or fill growth.
//!
//! Cold solves start from a *crash* basis: every row whose residual fits
//! inside its slack's bounds gets the slack basic (no phase-1 work);
//! only the remaining rows receive an artificial variable, and phase 1
//! minimizes their sum. Phase 2 then minimizes the true objective.
//! Anti-cycling uses Bland's rule after a run of degenerate pivots.
//!
//! Warm solves ([`solve_lp_warm`]) skip both phases: a bound or RHS
//! change leaves the persisted basis *dual* feasible, so the dual simplex
//! (dual devex pricing, bound-flip ratio test) walks straight back to
//! optimality with **zero phase-1 iterations** — the re-solve path the
//! RAS session hits every round at the root. Branch-and-bound nodes
//! re-solve with the one-violation repair instead (`warm_dual: false`),
//! from one [`Simplex`] engine kept for the whole search.

use crate::cast;
use crate::lu::{FtFactors, LuFactors};
use crate::nan::NanGuard;
use crate::standard::StandardForm;
use crate::tol;

/// Above this many columns (structural + slack + artificial),
/// [`PricingRule::Auto`] switches from full devex pricing to partial
/// devex over a candidate list: below it a full scan per pivot is cheap
/// and the better pivot quality wins; above it the scan itself is the
/// bottleneck.
pub const AUTO_PARTIAL_MIN_COLS: usize = 4096;

/// Dual pivots between full reduced-cost refreshes: the dual iteration
/// patches `d` incrementally along each α-row, and the accumulated
/// drift is re-zeroed on this cadence (mirroring the primal side's
/// refresh-on-invalidation policy).
const DUAL_REFRESH_INTERVAL: usize = 100;

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// No feasible point exists (phase-1 optimum is positive).
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration limit reached before optimality.
    IterationLimit,
}

/// Entering-variable pricing rule (see [`SimplexConfig::pricing`]).
///
/// Both rules select from the same eligibility set (reduced cost pushes
/// the objective down from the bound the variable rests on), so they
/// reach the same optimum; they differ only in how many pivots they
/// take and what each selection scan costs. Anti-cycling is
/// orthogonal: after a long degenerate run the engine switches to
/// Bland's rule on exact reduced costs regardless of the configured
/// pricing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum PricingRule {
    /// Devex up to [`AUTO_PARTIAL_MIN_COLS`] columns, partial devex
    /// above.
    #[default]
    Auto,
    /// Devex reference-framework weights (Forrest & Goldfarb): pick the
    /// maximizer of `d_j² / w_j` over maintained reduced costs, update
    /// the weights of the columns touched by each pivot row.
    Devex,
    /// Devex merit restricted to a rotating candidate list, rebuilt from
    /// a full scan only when the list runs dry. The default for large
    /// models, where a full per-pivot scan dominates solve time.
    PartialDevex,
}

/// Pricing-engine counters for one LP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PricingStats {
    /// Pivots whose entering variable came straight from the candidate
    /// list (partial pricing only).
    pub candidate_hits: usize,
    /// Full scans over every column: reduced-cost refreshes plus
    /// candidate-list rebuilds.
    pub full_rebuilds: usize,
}

/// Basis-maintenance counters for one LP solve: update counts plus
/// refactorizations broken down by trigger. `refactors_interval +
/// refactors_growth + refactors_accuracy` can undercount
/// `LpResult::refactorizations` by the basis *installs* (cold crash /
/// warm basis), which are factorizations but not maintenance triggers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasisStats {
    /// Successful basis updates (Forrest–Tomlin column replacements).
    pub updates: usize,
    /// Refactorizations on the fixed pivot-count interval.
    pub refactors_interval: usize,
    /// Refactorizations because accumulated fill (spikes plus row-
    /// elimination etas) outgrew the factorization's nonzeros.
    pub refactors_growth: usize,
    /// Refactorizations because an update reported numerical instability
    /// (singular replacement diagonal, oversized multiplier).
    pub refactors_accuracy: usize,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Status.
    pub status: LpStatus,
    /// Objective value (meaningful for `Optimal` and `IterationLimit`).
    pub objective: f64,
    /// Values for all structural + slack columns.
    pub values: Vec<f64>,
    /// Row duals `y` from the final pricing pass (meaningful on
    /// `Optimal`; empty when there are no rows).
    pub duals: Vec<f64>,
    /// Total simplex iterations across both phases (dual included).
    pub iterations: usize,
    /// Iterations spent in primal phase 1 (minimizing artificial
    /// infeasibility). Warm dual re-solves report 0 by construction:
    /// bound-only changes keep the persisted basis dual feasible, so no
    /// artificial phase ever runs.
    pub phase1_iterations: usize,
    /// Dual-simplex iterations (warm re-solves only).
    pub dual_iterations: usize,
    /// True when the dual simplex drove the solve back to primal
    /// feasibility from a warm basis.
    pub used_dual_simplex: bool,
    /// Basis (re)factorizations performed.
    pub refactorizations: usize,
    /// Basis-maintenance counters (see [`BasisStats`]).
    pub basis_stats: BasisStats,
    /// Pricing-engine counters (see [`PricingStats`]).
    pub pricing: PricingStats,
    /// Optimal basis snapshot (present on `Optimal`), usable to warm-start
    /// a re-solve after bound changes via [`solve_lp_warm`].
    pub basis: Option<Basis>,
    /// True when the solve actually started from supplied warm-start state
    /// — the exact basis, or its slack-degraded bound snapshot — and the
    /// dual repair succeeded (no fallback to a cold two-phase solve).
    pub warm_basis_used: bool,
}

/// A basis snapshot: which column is basic in each row, and at which bound
/// each nonbasic real column rests.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Basis {
    /// Basic column per row (may include artificial columns pinned at 0).
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper flag for the `n + m` real columns.
    pub at_upper: Vec<bool>,
}

impl Basis {
    /// Re-targets this basis, recorded against one model, onto another
    /// model whose variables and constraints are matched *by name*.
    ///
    /// Column layout in both models follows [`StandardForm`]: `n`
    /// structural columns in variable order, then `m` slacks (with
    /// the slack of row `i` at column `n + i`), so slacks are matched
    /// through their row's name. Basic structural columns whose name
    /// survives map over; vanished columns leave their row to be
    /// covered by their own slack when it is still free, and by an
    /// artificial (`n + m + row`) otherwise. [`solve_lp_warm`] pins
    /// artificials to zero and repairs the result — or falls back to
    /// the slack crash when it is unusable — so remapping can only
    /// change how much repair work the next solve does, never its
    /// final objective.
    // lint:allow(hot-path-index): column remap over arrays allocated to the new width on entry
    pub fn remap(
        &self,
        old_vars: &[String],
        old_rows: &[String],
        new_vars: &[String],
        new_rows: &[String],
    ) -> Basis {
        use std::collections::HashMap;
        let (old_n, old_m) = (old_vars.len(), old_rows.len());
        let (new_n, new_m) = (new_vars.len(), new_rows.len());
        let var_index: HashMap<&str, usize> = new_vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();
        let row_index: HashMap<&str, usize> = new_rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.as_str(), i))
            .collect();
        // Map an old column index to the same-named new column.
        let map_col = |j: usize| -> Option<usize> {
            if j < old_n {
                var_index.get(old_vars[j].as_str()).copied()
            } else if j < old_n + old_m {
                // Slack of old row `j - old_n` -> slack of the same-named
                // new row.
                row_index
                    .get(old_rows[j - old_n].as_str())
                    .copied()
                    .map(|r| new_n + r)
            } else {
                // Artificials never survive a remap.
                None
            }
        };

        let n0 = new_n + new_m;
        let mut basis = vec![usize::MAX; new_m];
        let mut used = vec![false; n0];
        for (old_row, &bj) in self.basis.iter().enumerate() {
            let Some(new_col) = map_col(bj) else {
                continue;
            };
            let Some(&new_row) = old_rows
                .get(old_row)
                .and_then(|name| row_index.get(name.as_str()))
            else {
                continue;
            };
            if basis[new_row] == usize::MAX && !used[new_col] {
                basis[new_row] = new_col;
                used[new_col] = true;
            }
        }
        // Cover rows whose basic column vanished: own slack when free,
        // else the row's artificial (repaired or rejected downstream).
        for (row, b) in basis.iter_mut().enumerate() {
            if *b == usize::MAX {
                let slack = new_n + row;
                if !used[slack] {
                    *b = slack;
                    used[slack] = true;
                } else {
                    *b = n0 + row;
                }
            }
        }
        // Bound sides carry over by name; unmatched columns rest on
        // their lower bound.
        let mut at_upper = vec![false; n0];
        for (j, &up) in self.at_upper.iter().enumerate() {
            if up {
                if let Some(new_col) = map_col(j) {
                    at_upper[new_col] = true;
                }
            }
        }
        Basis { basis, at_upper }
    }
}

/// Tuning knobs for the simplex engine.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Hard cap on total pivots.
    pub max_iterations: usize,
    /// Optional wall-clock deadline; pivoting stops with
    /// [`LpStatus::IterationLimit`] once it passes. Branch and bound sets
    /// this from its own time limit so a single huge LP cannot blow
    /// through the solve budget.
    pub deadline: Option<std::time::Instant>,
    /// Rebuild the basis factorization after this many pivots.
    pub refactor_interval: usize,
    /// Entering-variable pricing rule (see [`PricingRule`]).
    pub pricing: PricingRule,
    /// Route warm re-solves through the true dual simplex (bound-flip
    /// ratio test, dual devex). `false` selects the one-violation repair
    /// loop, which is what branch and bound re-solves every node and
    /// dive LP with.
    pub warm_dual: bool,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            deadline: None,
            refactor_interval: 200,
            pricing: PricingRule::default(),
            warm_dual: true,
        }
    }
}

/// Solves the LP `min cᵀx  s.t.  Ax = b, lower <= x <= upper`.
///
/// `lower`/`upper` override the standard form's default bounds (same
/// length, `n + m`); branch-and-bound nodes use this to impose branching
/// bounds without rebuilding the matrix.
pub fn solve_lp(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    config: &SimplexConfig,
) -> LpResult {
    solve_lp_warm(sf, lower, upper, config, None)
}

/// Like [`solve_lp`] but warm-started from a previous optimal basis.
///
/// After a branch-and-bound bound change, the old basis stays dual
/// feasible; a short dual-simplex repair restores primal feasibility and
/// a primal cleanup finishes. Falls back to a cold start whenever the
/// warm basis is unusable (singular, stale, or the repair stalls), so the
/// result is always identical to a cold solve up to degeneracy.
pub fn solve_lp_warm(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    config: &SimplexConfig,
    warm: Option<&Basis>,
) -> LpResult {
    Simplex::new(sf, config.clone()).solve(lower, upper, warm)
}

/// Once the Forrest–Tomlin factors (spike fill plus row-elimination
/// etas) outgrow the fresh factorization's nonzeros by this factor, a
/// refactorization is cheaper than dragging the fill along.
const FT_MAX_FILL_RATIO: f64 = 4.0;

/// Why a refactorization was triggered (counted in [`BasisStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefactorReason {
    /// The fixed pivot-count interval elapsed.
    Interval,
    /// Accumulated fill outgrew the factorization.
    Growth,
    /// An update reported numerical instability.
    Accuracy,
}

/// The simplex engine for one standard form: every vector a solve needs,
/// allocated once and reused by each [`solve`](Self::solve). Branch and
/// bound keeps one for all its node and dive LPs — a node re-solve is a
/// handful of pivots, and building a dozen `n + m` vectors around each
/// used to cost as much as the pivots. [`solve_lp`] and [`solve_lp_warm`]
/// wrap a throwaway instance.
pub struct Simplex<'a> {
    sf: &'a StandardForm,
    config: SimplexConfig,
    m: usize,
    /// Columns: structural + slack (`n0`), then `m` artificials.
    n0: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    costs: Vec<f64>,
    /// Sign of each artificial's identity coefficient.
    art_sign: Vec<f64>,
    /// `0..m`: the row index of artificial `r` as the one-entry slice
    /// `unit_rows[r..=r]`, so every column reads as CSC slices.
    unit_rows: Vec<u32>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Row of a basic variable, or `usize::MAX` when nonbasic.
    position: Vec<usize>,
    /// Basis factorization: sparse LU under Forrest–Tomlin updates.
    repr: FtFactors,
    /// Current value of every variable.
    x: Vec<f64>,
    /// Nonbasic-at-upper flag.
    at_upper: Vec<bool>,
    iterations: usize,
    phase1_iterations: usize,
    dual_iterations: usize,
    used_dual_simplex: bool,
    refactorizations: usize,
    basis_stats: BasisStats,
    /// Set when a basis update was rejected; forces an accuracy
    /// refactorization before the next FTRAN/BTRAN is trusted.
    update_rejected: bool,
    pivots_since_refactor: usize,
    degenerate_run: usize,
    // Scratch buffers.
    y: Vec<f64>,
    w: Vec<f64>,
    rho: Vec<f64>,
    // Pricing engine state (see `select_entering`).
    /// Configured rule with `Auto` resolved at construction.
    rule: PricingRule,
    /// Maintained reduced costs `d_j = c_j − yᵀA_j` for every column.
    d: Vec<f64>,
    /// Whether `d` matches the current basis (up to incremental drift).
    d_valid: bool,
    /// Whether `d` was recomputed from the duals with no pivot since.
    /// Optimality is only declared on a fresh scan: the incremental
    /// updates are allowed to drift between refreshes.
    d_fresh: bool,
    /// Devex reference-framework weights.
    devex: Vec<f64>,
    /// Partial-pricing candidate list (column indices).
    candidates: Vec<u32>,
    /// Whether the list, when last built, held every eligible column
    /// (the cap cut nothing).
    candidates_complete: bool,
    /// α-row scatter workspace: `alpha[j] = ρᵀA_j` for touched columns.
    alpha: Vec<f64>,
    /// Epoch marks for `alpha` (valid iff equal to `alpha_epoch`).
    alpha_mark: Vec<u32>,
    alpha_epoch: u32,
    /// Columns touched by the current α-row scatter.
    alpha_cols: Vec<u32>,
    /// One bit per column: the candidates of the repair's dual ratio
    /// test (see [`dual_pivot`](Self::dual_pivot)).
    ratio_cands: Vec<u64>,
    pricing: PricingStats,
}

impl<'a> Simplex<'a> {
    /// Allocates the engine for `sf`.
    pub fn new(sf: &'a StandardForm, config: SimplexConfig) -> Self {
        let m = sf.num_rows;
        let n0 = sf.num_cols();
        let total = n0 + m;
        let rule = match config.pricing {
            PricingRule::Auto => {
                if total > AUTO_PARTIAL_MIN_COLS {
                    PricingRule::PartialDevex
                } else {
                    PricingRule::Devex
                }
            }
            explicit => explicit,
        };
        Self {
            sf,
            config,
            m,
            n0,
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
            pivots_since_refactor: 0,
            degenerate_run: 0,
            y: vec![0.0; m],
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
        }
    }

    /// Solves under the given bounds (length `n + m`, as in
    /// [`solve_lp`]), from `warm` when it is usable and from the slack
    /// crash otherwise (see [`solve_lp_warm`]).
    pub fn solve(&mut self, lower: &[f64], upper: &[f64], warm: Option<&Basis>) -> LpResult {
        self.solve_observed(lower, upper, warm, |_, _, _, _| {})
    }

    /// Test hook: [`solve`](Self::solve), showing `observe` every pivot
    /// choice of the warm one-violation repair before it is applied: the
    /// engine, the leaving row, whether its basic variable lands on its
    /// upper bound, and the entering column (`None`: no candidate, the
    /// solve goes cold).
    #[doc(hidden)]
    pub fn solve_observed(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        mut observe: impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> LpResult {
        if let Some(basis) = warm.filter(|b| self.m > 0 && b.basis.len() == self.m) {
            self.reset(lower, upper);
            if let Some(result) = self.run_warm(basis, &mut observe) {
                return result;
            }
        }
        self.reset(lower, upper);
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
    }

    /// `A_jᵀ v` for any column, including artificials.
    fn column_dot(&self, j: usize, v: &[f64]) -> f64 {
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
            if infeas > tol::OPT * (1.0 + self.sf.rhs.iter().map(|v| v.abs()).sum::<f64>()) {
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

    fn finish(&self, status: LpStatus) -> LpResult {
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
            let (lo, up) = (self.lower[j], self.upper[j]);
            let (v, at_up) = if lo.is_finite() {
                (lo, false)
            } else if up.is_finite() {
                (up, true)
            } else {
                (0.0, false)
            };
            self.x[j] = v;
            self.at_upper[j] = at_up;
            self.position[j] = usize::MAX;
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

    /// Runs pivots until optimal / unbounded / iteration limit.
    // lint:allow(hot-path-index): pricing loop; candidate columns bounded by n, rows by m
    fn optimize(&mut self) -> LpStatus {
        // Pricing state resets on every (re)entry: the costs may have
        // changed (phase switch, warm-start cleanup) and devex restarts
        // from the reference framework of the current basis.
        self.d_valid = false;
        self.d_fresh = false;
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        self.candidates.clear();
        loop {
            if self.iterations >= self.config.max_iterations {
                return LpStatus::IterationLimit;
            }
            // Deadline checks are cheap relative to a pivot.
            if self.iterations.is_multiple_of(32) {
                if let Some(deadline) = self.config.deadline {
                    if std::time::Instant::now() > deadline {
                        return LpStatus::IterationLimit;
                    }
                }
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
                    self.at_upper[q] = !self.at_upper[q];
                    self.x[q] = if self.at_upper[q] {
                        self.upper[q]
                    } else {
                        self.lower[q]
                    };
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

    /// Post-pivot basis maintenance: refactorize early when the last
    /// update was rejected (accuracy) or fill outgrew the factors
    /// (growth), and on the fixed pivot interval otherwise. Returns
    /// false only when a needed refactorization failed (singular basis,
    /// old state kept).
    fn maintain_basis(&mut self) -> bool {
        let reason = if self.update_rejected {
            Some(RefactorReason::Accuracy)
        } else if self.repr.update_count() > 0 && self.repr.fill_ratio() > FT_MAX_FILL_RATIO {
            Some(RefactorReason::Growth)
        } else if self.pivots_since_refactor >= self.config.refactor_interval {
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
    fn refactor_for(&mut self, reason: RefactorReason) -> bool {
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

    fn is_free(&self, j: usize) -> bool {
        self.lower[j] == f64::NEG_INFINITY && self.upper[j] == f64::INFINITY
    }

    /// Computes `y = B⁻ᵀ c_B` into `self.y`.
    // lint:allow(hot-path-index): dual vector sized to m alongside the basis
    fn compute_duals(&mut self) {
        for i in 0..self.m {
            self.y[i] = self.costs[self.basis[i]];
        }
        self.repr.btran(&mut self.y);
    }

    /// Selects an entering column; returns `(column, reduced cost)`.
    ///
    /// Reduced costs are *maintained*: refreshed from the duals only
    /// when invalidated (phase entry, refactorization, a failed α-row
    /// update) and otherwise patched incrementally per
    /// pivot. Because the incremental path may drift, `None` — proven
    /// optimality — is only ever returned after a scan over freshly
    /// recomputed reduced costs.
    fn select_entering(&mut self, use_bland: bool) -> Option<(usize, f64)> {
        if use_bland {
            // Bland's anti-cycling guarantee needs exact reduced costs.
            self.refresh_reduced_costs(false);
            return self.pick_bland();
        }
        let relist = self.rule == PricingRule::PartialDevex;
        if !self.d_valid {
            self.refresh_reduced_costs(relist);
        }
        if let Some(pick) = self.pick_by_rule() {
            return Some(pick);
        }
        if self.d_fresh {
            return None;
        }
        // The maintained costs found no candidate, but they may have
        // drifted; verify against exact reduced costs before declaring
        // optimality.
        self.refresh_reduced_costs(relist);
        self.pick_by_rule()
    }

    fn pick_by_rule(&mut self) -> Option<(usize, f64)> {
        match self.rule {
            PricingRule::Devex => self.pick_devex(),
            PricingRule::PartialDevex => self.pick_partial(),
            PricingRule::Auto => unreachable!("Auto is resolved at construction"),
        }
    }

    /// Recomputes the duals and every nonbasic reduced cost from scratch.
    /// With `relist`, the same pass rebuilds partial pricing's candidate
    /// list, which the pick that follows would otherwise do with a second
    /// full scan: the old list was ranked on drifted costs and is dropped
    /// either way.
    // lint:allow(hot-path-index): reduced-cost array sized to n with the tableau
    fn refresh_reduced_costs(&mut self, relist: bool) {
        self.compute_duals();
        // Take the list out so `eligible_d` can borrow `self`.
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

    /// The maintained reduced cost of `j` if it is an eligible entering
    /// candidate (nonbasic, not fixed, cost pushes off its bound).
    fn eligible_d(&self, j: usize) -> Option<f64> {
        if self.position[j] != usize::MAX || self.lower[j] == self.upper[j] {
            return None;
        }
        let d = self.d[j];
        let tol = tol::OPT;
        let eligible = if self.is_free(j) {
            d.abs() > tol
        } else if self.at_upper[j] {
            d > tol
        } else {
            d < -tol
        };
        eligible.then_some(d)
    }

    /// Bland's rule: the first eligible column.
    fn pick_bland(&self) -> Option<(usize, f64)> {
        (0..self.n0 + self.m).find_map(|j| self.eligible_d(j).map(|d| (j, d)))
    }

    /// Devex: maximize `d_j² / w_j` over all eligible columns.
    // lint:allow(hot-path-index): devex weights sized to n with the tableau
    fn pick_devex(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.n0 + self.m {
            let Some(d) = self.eligible_d(j) else {
                continue;
            };
            let merit = d * d / self.devex[j];
            match best {
                Some((_, _, bm)) if merit <= bm => {}
                _ => best = Some((j, d, merit)),
            }
        }
        best.map(|(j, d, _)| (j, d))
    }

    /// Partial devex: best devex merit over the candidate list, with
    /// lazy removal of entries that went ineligible; a dry list triggers
    /// one full-scan rebuild before giving up.
    // lint:allow(hot-path-index): candidate list holds column indices < n by construction
    fn pick_partial(&mut self) -> Option<(usize, f64)> {
        for attempt in 0..2 {
            let mut best: Option<(usize, f64, f64)> = None;
            let mut keep = 0;
            for idx in 0..self.candidates.len() {
                let j = cast::idx(self.candidates[idx]);
                if let Some(d) = self.eligible_d(j) {
                    self.candidates[keep] = cast::idx32(j);
                    keep += 1;
                    let merit = d * d / self.devex[j];
                    match best {
                        Some((_, _, bm)) if merit <= bm => {}
                        _ => best = Some((j, d, merit)),
                    }
                }
            }
            self.candidates.truncate(keep);
            if let Some((j, d, _)) = best {
                if attempt == 0 {
                    self.pricing.candidate_hits += 1;
                }
                return Some((j, d));
            }
            if attempt == 0 {
                if self.d_fresh && self.candidates_complete {
                    // Listed in full from these very reduced costs (bound
                    // flips since only took columns out): a rescan would
                    // find what the list had.
                    return None;
                }
                self.rebuild_candidates();
            }
        }
        None
    }

    /// Rebuilds the candidate list from a full eligibility scan.
    fn rebuild_candidates(&mut self) {
        self.pricing.full_rebuilds += 1;
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        cands.extend(
            (0..cast::idx32(self.n0 + self.m)).filter(|j| self.eligible_d(cast::idx(*j)).is_some()),
        );
        self.candidates = cands;
        self.cap_candidates();
    }

    /// Keeps the top slice of the candidate list by devex merit when it
    /// holds more than the cap.
    fn cap_candidates(&mut self) {
        let total = self.n0 + self.m;
        let cap = (cast::floor_usize((total as f64).sqrt()) * 2).clamp(64, 2048);
        self.candidates_complete = self.candidates.len() <= cap;
        if !self.candidates_complete {
            let (d, devex) = (&self.d, &self.devex);
            let merit = |j: &u32| {
                let j = cast::idx(*j);
                d[j] * d[j] / devex[j]
            };
            // `total_cmp`: a NaN merit (0/0 from a zeroed devex weight)
            // must not scramble the selection into an arbitrary slice —
            // under the total order NaN sorts to one end deterministically.
            self.candidates
                .select_nth_unstable_by(cap - 1, |a, b| merit(b).total_cmp(&merit(a)));
            self.candidates.truncate(cap);
        }
    }

    /// Extracts the pivot row for incremental pricing: `ρ = B⁻ᵀe_row` of
    /// the current (pre-pivot) basis, scattered into the α-row
    /// `alpha[j] = ρᵀA_j` over the columns reachable through the rows
    /// where ρ is nonzero (found via the matrix's row-major mirror).
    ///
    /// Returns false — caller falls back to a full refresh — when the
    /// α-row disagrees with the FTRAN'd direction on the entering
    /// column (`α_q` must equal `w[row]`), which signals numerical
    /// drift in the basis representation.
    fn prepare_pivot_row(&mut self, row: usize, q: usize) -> bool {
        self.scatter_alpha_row(row);
        let expected = self.w[row];
        let got = if self.alpha_mark[q] == self.alpha_epoch {
            self.alpha[q]
        } else {
            0.0
        };
        expected.abs() > tol::EPS && (got - expected).abs() <= tol::OPT * (1.0 + expected.abs())
    }

    /// Scatters the pivot row `ρ = B⁻ᵀe_row` into the α-row workspace:
    /// `alpha[j] = ρᵀA_j` over every column reachable through the rows
    /// where ρ is nonzero (found via the matrix's row-major mirror).
    /// Touched columns are listed in `alpha_cols` and validated against
    /// the bumped `alpha_epoch`.
    // lint:allow(hot-path-index): scatter into scratch sized to n; pattern indices from the packed row
    fn scatter_alpha_row(&mut self, row: usize) {
        self.repr.btran_unit(row, &mut self.rho);
        self.alpha_epoch = self.alpha_epoch.wrapping_add(1);
        let epoch = self.alpha_epoch;
        self.alpha_cols.clear();
        let sf = self.sf;
        for r in 0..self.m {
            let rho_r = self.rho[r];
            if rho_r.abs() <= tol::RHO_MIN {
                continue;
            }
            for (col, v) in sf.matrix.row(r) {
                if self.alpha_mark[col] != epoch {
                    self.alpha_mark[col] = epoch;
                    self.alpha[col] = 0.0;
                    self.alpha_cols.push(cast::idx32(col));
                }
                self.alpha[col] += rho_r * v;
            }
            // The artificial for row `r` is a single ±1 entry there.
            let art = self.n0 + r;
            if self.alpha_mark[art] != epoch {
                self.alpha_mark[art] = epoch;
                self.alpha[art] = 0.0;
                self.alpha_cols.push(cast::idx32(art));
            }
            self.alpha[art] += self.art_sign[r] * rho_r;
        }
    }

    /// Patches reduced costs and devex weights after the pivot that put
    /// `q` into the basis and dropped `leaving` out, using the α-row
    /// prepared by [`prepare_pivot_row`](Self::prepare_pivot_row):
    /// `d'_j = d_j − (d_q/α_q)·α_j`, and the devex reference-framework
    /// update `w'_j = max(w_j, (α_j/α_q)²·γ_q)`.
    // lint:allow(hot-path-index): devex/alpha arrays sized to n; rows bounded by m
    fn update_pricing_after_pivot(&mut self, q: usize, leaving: usize, d_q: f64) {
        let alpha_q = self.alpha[q];
        let ratio = d_q / alpha_q;
        let gamma_q = self.devex[q];
        let mut exploded = false;
        for idx in 0..self.alpha_cols.len() {
            let j = cast::idx(self.alpha_cols[idx]);
            // Basic columns (q included, freshly pivoted in) keep d = 0;
            // `leaving` gets its exact post-pivot values below.
            if j == q || j == leaving || self.position[j] != usize::MAX {
                continue;
            }
            let a_j = self.alpha[j];
            self.d[j] -= ratio * a_j;
            let scaled = a_j / alpha_q;
            let w_new = scaled * scaled * gamma_q;
            if w_new > self.devex[j] {
                self.devex[j] = w_new;
                exploded |= w_new > 1e12;
            }
        }
        self.d[q] = 0.0;
        self.d[leaving] = -ratio;
        let w_leave = (gamma_q / (alpha_q * alpha_q)).nmax(1.0);
        self.devex[leaving] = w_leave;
        exploded |= w_leave > 1e12;
        if exploded {
            // Restart the reference framework once weights outgrow their
            // numerical usefulness (standard devex practice).
            self.devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    /// Computes `w = B⁻¹ A_q` into `self.w`.
    fn compute_direction(&mut self, q: usize) {
        self.w.iter_mut().for_each(|v| *v = 0.0);
        if q < self.n0 {
            self.sf.matrix.scatter_column(q, 1.0, &mut self.w);
        } else {
            self.w[q - self.n0] = self.art_sign[q - self.n0];
        }
        self.repr.ftran(&mut self.w);
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
            let b = self.basis[i];
            let rate = -sigma * w_i;
            let (limit, to_upper) = if rate < 0.0 {
                if self.lower[b].is_finite() {
                    ((self.x[b] - self.lower[b]) / -rate, false)
                } else {
                    continue;
                }
            } else if self.upper[b].is_finite() {
                ((self.upper[b] - self.x[b]) / rate, true)
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
        let m = self.m;
        // Update basic values: x_B -= sigma * t * w.
        if t != 0.0 {
            for i in 0..m {
                let b = self.basis[i];
                self.x[b] -= sigma * t * self.w[i];
            }
        }
        let Some((row, to_upper)) = pivot else {
            return;
        };
        let leaving = self.basis[row];
        // Snap the leaving variable exactly onto the bound it hit.
        self.x[leaving] = if to_upper {
            self.upper[leaving]
        } else {
            self.lower[leaving]
        };
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
        self.x[q] = from + sigma * t;
        self.basis[row] = q;
        self.position[q] = row;
        self.record_basis_update(row);
    }

    /// Replaces column `row` of the factors by the pivot direction
    /// `self.w` and books the outcome: a rejected update (FT instability)
    /// flags an accuracy refactorization, which
    /// [`maintain_basis`](Self::maintain_basis) performs before the
    /// factors are used again.
    fn record_basis_update(&mut self, row: usize) {
        if self.repr.update(row, &self.w).is_ok() {
            self.basis_stats.updates += 1;
        } else {
            self.update_rejected = true;
        }
    }

    /// Rebuilds the basis representation from the current basis columns
    /// and recomputes basic values from the nonbasic assignment.
    ///
    /// Returns false when the basis is numerically singular (the old
    /// representation is kept so the caller can decide how to recover).
    // lint:allow(hot-path-index): rebuilds basis columns; slots and rows bounded by m
    fn refactor(&mut self) -> bool {
        self.pivots_since_refactor = 0;
        let (sf, basis) = (self.sf, &self.basis);
        let (unit_rows, art_sign) = (&self.unit_rows, &self.art_sign);
        let Some(lu) = LuFactors::factorize(
            self.m,
            |slot| column_of(sf, unit_rows, art_sign, basis[slot]),
            tol::DROP,
        ) else {
            return false;
        };
        self.repr = FtFactors::from_lu(lu);
        self.refactorizations += 1;
        // Recompute x_B = B⁻¹ (b − N x_N); the direction buffer is free
        // between pivots.
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
        // one; force a refresh at the next pricing step.
        self.d_valid = false;
        true
    }

    /// Warm-started solve: install the given basis, repair primal
    /// feasibility with dual-simplex pivots, then finish with primal
    /// phase 2. Returns `None` when the warm path cannot proceed safely —
    /// the caller falls back to a cold start.
    // lint:allow(hot-path-index): warm-start driver; slots bounded by m, columns by n
    fn run_warm(
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

/// Outcome of the ratio test.
enum Ratio {
    /// No bound limits the step: the LP is unbounded in this direction.
    Unbounded,
    /// The entering variable hits its own opposite bound first.
    BoundFlip(f64),
    /// A basic variable leaves at `row` after a step of `t`.
    Pivot { t: f64, row: usize, to_upper: bool },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense, VarType};

    fn lp(model: &Model) -> LpResult {
        let sf = StandardForm::from_model(model);
        solve_lp(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &SimplexConfig::default(),
        )
    }

    #[test]
    fn textbook_2d_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), obj 36.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
        m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
        m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
        m.set_objective(-3.0 * x - 5.0 * y);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(
            (r.objective + 36.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
        assert!((r.values[0] - 2.0).abs() < 1e-6);
        assert!((r.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 4 → (7, 3).
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        m.add_constraint("sum", 1.0 * x + 1.0 * y, Sense::Eq, 10.0);
        m.add_constraint("diff", 1.0 * x - 1.0 * y, Sense::Eq, 4.0);
        m.set_objective(1.0 * x + 1.0 * y);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 7.0).abs() < 1e-6);
        assert!((r.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("hi", LinExpr::from(x), Sense::Ge, 2.0);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        m.set_objective(-1.0 * x);
        m.add_constraint("noop", LinExpr::from(x), Sense::Ge, 0.0);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5  → -5.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, -5.0, 5.0);
        m.add_constraint("noop", LinExpr::from(x), Sense::Le, 100.0);
        m.set_objective(LinExpr::from(x));
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_lp() {
        // min x + 2y, x free, y in [0, 10], x + y >= 4, x >= -3 via constraint.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("c", 1.0 * x + 1.0 * y, Sense::Ge, 4.0);
        m.add_constraint("lb", LinExpr::from(x), Sense::Ge, -3.0);
        m.set_objective(1.0 * x + 2.0 * y);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        // Optimum: x = 4, y = 0 → 4 (cheaper than using y).
        assert!(
            (r.objective - 4.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        for i in 0..20 {
            m.add_constraint(format!("r{i}"), 1.0 * x + 1.0 * y, Sense::Le, 10.0);
        }
        m.add_constraint("cap", 1.0 * x - 1.0 * y, Sense::Le, 0.0);
        m.set_objective(-1.0 * x - 1.0 * y);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 10.0).abs() < 1e-6);
    }

    #[test]
    fn transportation_lp() {
        // 2 supplies (10, 20), 3 demands (5, 15, 10), unit costs.
        let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
        let mut m = Model::new();
        let mut vars = Vec::new();
        for i in 0..2 {
            for j in 0..3 {
                vars.push(m.add_var(format!("x{i}{j}"), VarType::Continuous, 0.0, f64::INFINITY));
            }
        }
        for (i, supply) in [10.0, 20.0].iter().enumerate() {
            let e = LinExpr::sum((0..3).map(|j| (vars[i * 3 + j], 1.0)));
            m.add_constraint(format!("s{i}"), e, Sense::Le, *supply);
        }
        for (j, demand) in [5.0, 15.0, 10.0].iter().enumerate() {
            let e = LinExpr::sum((0..2).map(|i| (vars[i * 3 + j], 1.0)));
            m.add_constraint(format!("d{j}"), e, Sense::Ge, *demand);
        }
        let mut obj = LinExpr::zero();
        for i in 0..2 {
            for j in 0..3 {
                obj += LinExpr::term(vars[i * 3 + j], costs[i][j]);
            }
        }
        m.set_objective(obj);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        // Optimal plan: d0 ← s1 at cost 3 (15), d1 ← s1 at cost 1 (15),
        // d2 ← s0 at cost 5 (50): total 80.
        assert!(
            (r.objective - 80.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
    }

    #[test]
    fn refactor_keeps_solution_consistent() {
        // Force many pivots with a tiny refactor interval.
        let mut m = Model::new();
        let n = 15;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 10.0))
            .collect();
        for i in 0..n - 1 {
            m.add_constraint(
                format!("c{i}"),
                1.0 * vars[i] + 1.0 * vars[i + 1],
                Sense::Le,
                7.0 + (i % 3) as f64,
            );
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
        let sf = StandardForm::from_model(&m);
        let reference = solve_lp(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &SimplexConfig::default(),
        );
        let tight = SimplexConfig {
            refactor_interval: 3,
            ..SimplexConfig::default()
        };
        let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &tight);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - reference.objective).abs() < 1e-5);
        assert!(m.violations(&r.values[..n], 1e-5).is_empty());
        assert!(r.refactorizations > 0, "interval 3 must refactor");
    }

    #[test]
    fn bound_override_changes_optimum() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("noop", LinExpr::from(x), Sense::Le, 100.0);
        m.set_objective(-1.0 * x);
        let sf = StandardForm::from_model(&m);
        let mut up = sf.upper.clone();
        up[0] = 3.0;
        let r = solve_lp(&sf, &sf.lower.clone(), &up, &SimplexConfig::default());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 3.0).abs() < 1e-6);
    }

    /// With an effectively infinite refactor interval the engine runs on
    /// Forrest–Tomlin updates alone; the answer must not drift.
    #[test]
    fn sparse_update_only_path_is_exact() {
        let mut m = Model::new();
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 5.0))
            .collect();
        for i in 0..n - 1 {
            m.add_constraint(
                format!("c{i}"),
                2.0 * vars[i] + 1.0 * vars[i + 1],
                Sense::Le,
                6.0 + (i % 4) as f64,
            );
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
        let sf = StandardForm::from_model(&m);
        let reference = lp(&m);
        let update_only = SimplexConfig {
            refactor_interval: usize::MAX,
            ..SimplexConfig::default()
        };
        let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &update_only);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - reference.objective).abs() < 1e-7);
        assert_eq!(r.refactorizations, 0, "update-only run must never refactor");
        assert!(r.basis_stats.updates > 0, "updates must be counted");
    }

    /// Warm-started re-solves agree with cold ones.
    #[test]
    fn sparse_warm_start_matches_cold() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
        m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
        m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
        m.set_objective(-2.0 * x - 3.0 * y);
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        assert_eq!(base.status, LpStatus::Optimal);
        let mut up = sf.upper.clone();
        up[0] = 2.0; // branch-style tightening
        let cold = solve_lp(&sf, &sf.lower.clone(), &up, &cfg);
        let warm = solve_lp_warm(&sf, &sf.lower.clone(), &up, &cfg, base.basis.as_ref());
        assert_eq!(cold.status, warm.status);
        assert!((cold.objective - warm.objective).abs() < 1e-7);
    }

    /// A singular warm basis must degrade safely (slack-basis repair or
    /// cold fallback), never a wrong answer.
    #[test]
    fn singular_warm_basis_degrades_safely() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 3.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 3.0);
        // Rows are multiples of each other, so basis {x, y} is singular.
        m.add_constraint("a", 1.0 * x + 1.0 * y, Sense::Le, 4.0);
        m.add_constraint("b", 2.0 * x + 2.0 * y, Sense::Le, 8.0);
        m.set_objective(-1.0 * x - 1.0 * y);
        let sf = StandardForm::from_model(&m);
        let singular = Basis {
            basis: vec![0, 1],
            at_upper: vec![false, false],
        };
        let r = solve_lp_warm(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &SimplexConfig::default(),
            Some(&singular),
        );
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 4.0).abs() < 1e-6, "{}", r.objective);
    }

    /// The crash basis makes a bound-feasible LP skip phase 1 entirely:
    /// at an already-optimal vertex, zero pivots are needed.
    #[test]
    fn slack_crash_skips_phase_one() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 5.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 5.0);
        m.add_constraint("a", 1.0 * x + 1.0 * y, Sense::Le, 8.0);
        m.add_constraint("b", 1.0 * x - 1.0 * y, Sense::Le, 3.0);
        // Minimizing positive costs puts the optimum at the lower-bound
        // corner the crash basis already sits on.
        m.set_objective(2.0 * x + 1.0 * y);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.iterations, 0, "crash basis should already be optimal");
        assert!(r.objective.abs() < 1e-9);
    }

    /// Every pricing rule reaches the same optimum on the fixture LPs —
    /// they only differ in pivot selection, never in the answer.
    #[test]
    fn pricing_rules_agree_on_fixtures() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
        m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
        m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
        m.set_objective(-3.0 * x - 5.0 * y);
        let sf = StandardForm::from_model(&m);
        for pricing in [PricingRule::Devex, PricingRule::PartialDevex] {
            let cfg = SimplexConfig {
                pricing,
                ..SimplexConfig::default()
            };
            let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
            assert_eq!(r.status, LpStatus::Optimal, "{pricing:?}");
            assert!(
                (r.objective + 36.0).abs() < 1e-6,
                "{pricing:?}: {}",
                r.objective
            );
        }
    }

    /// Partial pricing records its candidate-list activity: a solve
    /// needs at least one full scan (the final optimality proof) and
    /// reports hits only when the list actually served a pivot.
    #[test]
    fn partial_pricing_reports_stats() {
        let mut m = Model::new();
        let n = 30;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 10.0))
            .collect();
        for i in 0..n - 1 {
            m.add_constraint(
                format!("c{i}"),
                1.0 * vars[i] + 1.0 * vars[i + 1],
                Sense::Le,
                7.0 + (i % 3) as f64,
            );
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, -1.0))));
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig {
            pricing: PricingRule::PartialDevex,
            ..SimplexConfig::default()
        };
        let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(r.pricing.full_rebuilds >= 1, "optimality needs a full scan");
        assert!(
            r.pricing.candidate_hits <= r.iterations,
            "hits cannot exceed pivots"
        );
    }

    /// Optimal duals must be dual feasible: reduced costs respect the
    /// bound each variable rests on.
    #[test]
    fn duals_are_dual_feasible_at_optimum() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
        m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
        m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
        m.set_objective(-3.0 * x - 5.0 * y);
        let sf = StandardForm::from_model(&m);
        let r = lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.duals.len(), sf.num_rows);
        for j in 0..sf.num_cols() {
            let d = sf.costs[j] - sf.matrix.column_dot(j, &r.duals);
            let at_lo = (r.values[j] - sf.lower[j]).abs() < 1e-7;
            let at_up = (sf.upper[j] - r.values[j]).abs() < 1e-7;
            if at_lo {
                assert!(d > -1e-6, "col {j}: d = {d}");
            } else if at_up {
                assert!(d < 1e-6, "col {j}: d = {d}");
            } else {
                assert!(d.abs() < 1e-6, "col {j}: d = {d}");
            }
        }
    }

    /// A bound-only change re-solved from the persisted basis must go
    /// through the dual simplex with **zero** phase-1 iterations — the
    /// tentpole property of the warm re-solve hot path — and agree with
    /// the cold answer.
    #[test]
    fn warm_bound_patch_uses_dual_simplex_with_zero_phase1() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
        let z = m.add_var("z", VarType::Continuous, 0.0, 8.0);
        m.add_constraint("a", 1.0 * x + 2.0 * y + 1.0 * z, Sense::Le, 12.0);
        m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
        m.add_constraint("c", 1.0 * y + 2.0 * z, Sense::Le, 10.0);
        m.set_objective(-2.0 * x - 3.0 * y - 1.0 * z);
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        assert_eq!(base.status, LpStatus::Optimal);
        // Tighten a bound that cuts off the old optimum.
        let mut up = sf.upper.clone();
        up[0] = 1.0;
        let cold = solve_lp(&sf, &sf.lower.clone(), &up, &cfg);
        let warm = solve_lp_warm(&sf, &sf.lower.clone(), &up, &cfg, base.basis.as_ref());
        assert_eq!(warm.status, cold.status);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(warm.warm_basis_used);
        assert!(warm.used_dual_simplex);
        assert_eq!(warm.phase1_iterations, 0, "dual re-solve must skip phase 1");
    }

    /// RHS-only changes preserve dual feasibility too: the dual simplex
    /// re-solves a perturbed-capacity LP from the old basis exactly.
    #[test]
    fn warm_rhs_patch_resolves_via_dual() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x), Sense::Le, 4.0);
        m.add_constraint("c2", 2.0 * y, Sense::Le, 12.0);
        m.add_constraint("c3", 3.0 * x + 2.0 * y, Sense::Le, 18.0);
        m.set_objective(-3.0 * x - 5.0 * y);
        let mut sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        assert_eq!(base.status, LpStatus::Optimal);
        // Shrink two capacities in place (what `Model::set_rhs` patches).
        sf.rhs[0] = 3.0;
        sf.rhs[2] = 14.0;
        let cold = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        let warm = solve_lp_warm(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &cfg,
            base.basis.as_ref(),
        );
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective - cold.objective).abs() < 1e-7);
        assert!(warm.used_dual_simplex);
        assert_eq!(warm.phase1_iterations, 0);
    }

    /// `warm_dual: false` selects the one-violation repair loop (the node
    /// re-solve path); both warm paths and the cold solve agree on the
    /// fixtures.
    #[test]
    fn one_violation_repair_path_agrees() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 8.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 8.0);
        m.add_constraint("a", 1.0 * x + 2.0 * y, Sense::Le, 10.0);
        m.add_constraint("b", 3.0 * x + 1.0 * y, Sense::Le, 15.0);
        m.set_objective(-2.0 * x - 3.0 * y);
        let sf = StandardForm::from_model(&m);
        let base = solve_lp(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &SimplexConfig::default(),
        );
        let mut up = sf.upper.clone();
        up[0] = 2.0;
        let cold = solve_lp(&sf, &sf.lower.clone(), &up, &SimplexConfig::default());
        for warm_dual in [true, false] {
            let cfg = SimplexConfig {
                warm_dual,
                ..SimplexConfig::default()
            };
            let warm = solve_lp_warm(&sf, &sf.lower.clone(), &up, &cfg, base.basis.as_ref());
            assert_eq!(warm.status, cold.status, "warm_dual={warm_dual}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-7,
                "warm_dual={warm_dual}"
            );
            assert_eq!(
                warm.used_dual_simplex, warm_dual,
                "dual flag must track the configured path"
            );
        }
    }

    /// The bound-flip ratio test must handle a patch whose repair is
    /// absorbed partly by flipping boxed nonbasics: boxed columns with
    /// small ranges force flips before an entering pivot.
    #[test]
    fn dual_bound_flips_reach_the_cold_optimum() {
        let mut m = Model::new();
        // Many tightly boxed columns sharing one capacity row: after the
        // capacity drops, the dual repair must flip several of them.
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 1.0))
            .collect();
        m.add_constraint(
            "cap",
            LinExpr::sum(vars.iter().map(|v| (*v, 1.0))),
            Sense::Le,
            9.0,
        );
        m.set_objective(LinExpr::sum(
            vars.iter().enumerate().map(|(i, v)| (*v, -1.0 - i as f64)),
        ));
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        assert_eq!(base.status, LpStatus::Optimal);
        // Emulate `set_rhs`: capacity 9 → 3 strands six basics' worth of
        // mass above the new cap.
        let mut sf2 = sf;
        sf2.rhs[0] = 3.0;
        let cold = solve_lp(&sf2, &sf2.lower.clone(), &sf2.upper.clone(), &cfg);
        let warm = solve_lp_warm(
            &sf2,
            &sf2.lower.clone(),
            &sf2.upper.clone(),
            &cfg,
            base.basis.as_ref(),
        );
        assert_eq!(warm.status, cold.status);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(warm.used_dual_simplex);
        assert_eq!(warm.phase1_iterations, 0);
    }
}
