//! The [`Simplex`] engine: its state, the choice between the warm, the
//! dual-first cold and the primal two-phase cold start, the primal
//! two-phase driver and the maintenance of the Forrest–Tomlin basis
//! factors.

use super::{
    Basis, BasisStats, DualRule, LpResult, LpStatus, PricingRule, PricingStats, SimplexConfig,
    AUTO_PARTIAL_MIN_COLS, REFACTOR_INTERVAL,
};
use crate::cast;
use crate::lu::FtFactors;
use crate::standard::StandardForm;
use crate::tol;
use std::time::Instant;

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
/// allocated once and reused by each [`solve`](Self::solve). A solve
/// returns what a reset engine returns: a result never depends on what
/// the engine solved before. Branch and bound keeps one for the node and
/// dive LPs its search solves, and its look-ahead helper one more — a
/// node re-solve is a handful of pivots, and building a dozen `n + m`
/// vectors around each used to cost as much as the pivots. [`solve_lp`]
/// and [`solve_lp_warm`] wrap a throwaway instance.
///
/// **Held install.** Handed the warm basis it already holds — the one its
/// last optimal solve returned, as a dive step's next LP or a node solved
/// right after its parent is — the engine does not reset: it applies only
/// the bounds whose bits differ, re-rests those columns as a fresh install
/// would, and refactorizes and iterates exactly as a fresh install does.
/// Every other warm basis, and every cold start, resets the engine first.
/// Builds with debug assertions re-solve every 16th held install on a
/// fresh engine and assert the same `Debug` form.
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
    /// Current value of every nonbasic variable (a basic one's entry is
    /// stale: its value is kept by row, in `xb`). Written through
    /// [`set_x`](Self::set_x) alone, which keeps `nonzero_x`.
    pub(super) x: Vec<f64>,
    /// One bit per column: set while `x[j] != 0.0`. The basic values'
    /// right-hand side `b − N·x_N` walks only these columns.
    nonzero_x: Vec<u64>,
    /// Value of each row's basic variable.
    pub(super) xb: Vec<f64>,
    /// Bounds of each row's basic variable, mirrored from `lower` and
    /// `upper`: the leaving-row scans and the primal ratio test walk
    /// these three arrays in row order instead of gathering by column.
    pub(super) lb: Vec<f64>,
    pub(super) ub: Vec<f64>,
    /// Nonbasic-at-upper flag.
    pub(super) at_upper: Vec<bool>,
    /// One bit per column: set when the current bounds leave it free to
    /// move (`lower != upper`). Kept by every bound write; pricing and
    /// the dual iteration's pivot row walk only these columns.
    pub(super) live: Vec<u64>,
    pub(super) iterations: usize,
    pub(super) phase1_iterations: usize,
    pub(super) dual_iterations: usize,
    pub(super) used_dual_simplex: bool,
    pub(super) refactorizations: usize,
    pub(super) basis_stats: BasisStats,
    /// Pivots, refactorizations and seconds of the attempts the current
    /// solve threw away (see [`discarded_seconds`](Self::discarded_seconds)):
    /// kept apart from the counters above, which each reset zeroes.
    discarded_iterations: usize,
    discarded_refactorizations: usize,
    discarded_seconds: f64,
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
    /// [`AUTO_PARTIAL_MIN_COLS`], lifted for a root that starts from the
    /// running plan and lowered by tests.
    pub(super) cold_dual_min_cols: usize,
    /// Whether the dual-first cold start perturbs its costs (tests turn
    /// it off to reach the stall fallback).
    pub(super) cold_dual_perturb: bool,
    /// Whether the engine's state is the end of an optimal solve whose
    /// returned basis a fresh install would rebuild column for column:
    /// set by every optimal warm or primal solve, cleared by everything
    /// else — a dual-first cold solve among them, whose free columns may
    /// still rest on the bounds their rows implied.
    pub(super) held: bool,
    /// Warm solves that took the held install, over the engine's life.
    pub(super) held_installs: usize,
    /// Refactorizations over the engine's life, for the basic-value
    /// oracle.
    #[cfg(debug_assertions)]
    refactors_seen: usize,
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
            nonzero_x: vec![0; total.div_ceil(64)],
            xb: vec![0.0; m],
            lb: vec![0.0; m],
            ub: vec![0.0; m],
            at_upper: vec![false; total],
            live: vec![0; total.div_ceil(64)],
            iterations: 0,
            phase1_iterations: 0,
            dual_iterations: 0,
            used_dual_simplex: false,
            refactorizations: 0,
            basis_stats: BasisStats::default(),
            discarded_iterations: 0,
            discarded_refactorizations: 0,
            discarded_seconds: 0.0,
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
            held: false,
            held_installs: 0,
            #[cfg(debug_assertions)]
            refactors_seen: 0,
            #[cfg(test)]
            inject_drift: 0,
        }
    }

    /// Lets LPs of more than `min_cols` columns (in place of
    /// [`AUTO_PARTIAL_MIN_COLS`]) take the dual-first cold start, with
    /// or without its cost perturbation. Branch and bound lifts the gate
    /// (`0`, perturbed) for a root that starts from the running plan
    /// ([`SolveConfig::root_from_plan`](crate::SolveConfig::root_from_plan));
    /// tests lower it to reach small LPs, and turn the perturbation off to
    /// reach the stall fallback.
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
    /// Cold, the long step goes dual-first from the slack basis on an LP
    /// past the size gate, a running plan or none; below it, under the
    /// repair and on the attempt's fallback, the primal two-phase solve
    /// runs from the slack crash.
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
        #[cfg(debug_assertions)]
        let held_before = self.held_installs;
        #[cfg(all(test, debug_assertions))]
        let drift = self.inject_drift;
        let result = self.solve_from(lower, upper, warm, rule, &mut observe);
        #[cfg(debug_assertions)]
        if self.held_installs > held_before && self.held_installs.is_multiple_of(16) {
            // Held-install oracle: a fresh engine, tuned by the same test
            // hooks, must return this result to the bit (`Debug` prints
            // every field, each float in its shortest round-trip digits).
            // A deadline can cut either solve where it did not cut the
            // other, so a solve it limited proves nothing.
            let mut fresh = Simplex::new(self.sf, self.config.clone());
            fresh.rule = self.rule;
            fresh.refactor_interval = self.refactor_interval;
            fresh.set_cold_dual_gate(self.cold_dual_min_cols, self.cold_dual_perturb);
            #[cfg(all(test, debug_assertions))]
            {
                fresh.inject_drift = drift;
            }
            let again = fresh.solve(lower, upper, warm, rule);
            let limited = LpStatus::IterationLimit;
            if result.status != limited && again.status != limited {
                debug_assert!(
                    format!("{result:?}") == format!("{again:?}"),
                    "held install {} differs from a fresh engine's solve",
                    self.held_installs
                );
            }
        }
        result
    }

    /// The body of [`solve_observed`](Self::solve_observed): the warm
    /// start (held or fresh install), then the cold starts. An attempt
    /// that gives up leaves its counts to the discarded ones before the
    /// next start resets the engine.
    fn solve_from(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        rule: DualRule,
        observe: &mut impl FnMut(&Self, usize, bool, Option<usize>),
    ) -> LpResult {
        let start = Instant::now();
        self.discarded_iterations = 0;
        self.discarded_refactorizations = 0;
        self.discarded_seconds = 0.0;
        if let Some(basis) = warm.filter(|b| self.m > 0 && b.basis.len() == self.m) {
            if let Some(result) = self.run_warm(lower, upper, basis, rule, observe) {
                self.held = result.basis.is_some();
                return result;
            }
            self.discard_attempt(start);
        }
        self.held = false;
        self.reset(lower, upper);
        if rule == DualRule::LongStep {
            if let Some(implied) = self.cold_dual_start() {
                if let Some(result) = self.run_cold_dual(implied, observe) {
                    return result;
                }
                self.discard_attempt(start);
                self.reset(lower, upper);
            }
        }
        let result = self.run();
        self.held = result.basis.is_some();
        result
    }

    /// Files the attempt that just gave up under the discarded counts;
    /// the solve began at `start`.
    fn discard_attempt(&mut self, start: Instant) {
        self.discarded_iterations += self.iterations;
        self.discarded_refactorizations += self.refactorizations;
        self.discarded_seconds = start.elapsed().as_secs_f64();
    }

    /// Seconds the last solve spent on the attempts it threw away (their
    /// pivots and refactorizations are in
    /// [`LpResult::discarded_iterations`] and
    /// [`LpResult::discarded_refactorizations`]). A result never depends
    /// on the clock, so the seconds stay on the engine.
    pub fn discarded_seconds(&self) -> f64 {
        self.discarded_seconds
    }

    /// Test hook: the warm solves that installed the basis the engine
    /// already held (see the type's docs) over its life.
    #[doc(hidden)]
    pub fn held_installs(&self) -> usize {
        self.held_installs
    }

    /// Puts every vector and counter back to the state a fresh engine
    /// starts a solve from: all columns nonbasic at zero with zero cost,
    /// artificials free above zero.
    pub(super) fn reset(&mut self, lower: &[f64], upper: &[f64]) {
        let n0 = self.n0;
        self.held = false;
        self.position.fill(usize::MAX);
        self.lower[..n0].copy_from_slice(lower);
        self.lower[n0..].fill(0.0);
        self.upper[..n0].copy_from_slice(upper);
        self.upper[n0..].fill(f64::INFINITY);
        for j in 0..n0 + self.m {
            self.bounds_changed(j);
        }
        self.costs.fill(0.0);
        self.art_sign.fill(1.0);
        self.x.fill(0.0);
        self.nonzero_x.fill(0);
        self.at_upper.fill(false);
        self.reset_counters();
    }

    /// Whether `warm` is the basis the engine holds (see the type's docs):
    /// its last optimal solve returned it and nothing moved since.
    pub(super) fn holds(&self, warm: &Basis) -> bool {
        self.held && warm.basis == self.basis && warm.at_upper[..] == self.at_upper[..self.n0]
    }

    /// The held install: leaves the engine in the state a reset and a
    /// fresh install of `warm` under `lower`/`upper` would, touching only
    /// the columns whose bounds differ in their bits (`-0.0` is not
    /// `0.0`: a rounded `-3.5e-15` fixes a column at `-0.0`). Every other
    /// column already rests where the fresh install would rest it — the
    /// bound its flag names, which its last placement chose under these
    /// very bounds — and the basic values are the refactorization's to
    /// recompute. The artificials go back to `+1` columns at zero.
    // lint:allow(hot-path-index): bound arrays are sized to n0 with the tableau
    pub(super) fn install_held(&mut self, lower: &[f64], upper: &[f64], warm: &Basis) {
        let n0 = self.n0;
        for j in 0..n0 {
            let (lo, up) = (lower[j], upper[j]);
            if lo.to_bits() != self.lower[j].to_bits() || up.to_bits() != self.upper[j].to_bits() {
                self.lower[j] = lo;
                self.upper[j] = up;
                self.bounds_changed(j);
                self.rest_nonbasic(j, warm.at_upper[j]);
            }
        }
        debug_assert!(self.lower[n0..]
            .iter()
            .chain(&self.upper[n0..])
            .all(|&b| b == 0.0));
        debug_assert!(
            self.costs[..n0] == self.sf.costs[..] && self.costs[n0..].iter().all(|&c| c == 0.0)
        );
        self.art_sign.fill(1.0);
        for j in n0..n0 + self.m {
            self.set_x(j, 0.0);
        }
        self.at_upper[n0..].fill(false);
        self.reset_counters();
        self.held_installs += 1;
    }

    /// Zeroes every per-solve counter and invalidates the prices.
    fn reset_counters(&mut self) {
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
        let infeas0: f64 = (0..self.m).map(|i| self.value(self.n0 + i)).sum();
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
            let infeas: f64 = (0..self.m).map(|i| self.value(self.n0 + i)).sum();
            if infeas > self.infeasibility_threshold() {
                return self.finish(LpStatus::Infeasible);
            }
        }
        // Phase 2: true costs; artificials are pinned to zero.
        self.pin_artificials();
        for j in 0..self.m {
            let art = self.n0 + j;
            self.costs[art] = 0.0;
            match self.position[art] {
                usize::MAX => self.set_x(art, 0.0),
                row => self.xb[row] = 0.0,
            }
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
            self.set_x(j, v);
        }
        self.costs[..self.n0].copy_from_slice(&self.sf.costs);
        self.finish(LpStatus::Optimal)
    }

    pub(super) fn finish(&self, status: LpStatus) -> LpResult {
        let mut values = self.x[..self.n0].to_vec();
        for (&b, &v) in self.basis.iter().zip(&self.xb) {
            if let Some(value) = values.get_mut(b) {
                *value = v;
            }
        }
        let objective = self.sf.obj_constant
            + (0..self.n0)
                .map(|j| self.sf.costs[j] * values[j])
                .sum::<f64>();
        let basis = (status == LpStatus::Optimal && self.m > 0).then(|| Basis {
            basis: self.basis.clone(),
            at_upper: self.at_upper[..self.n0].to_vec(),
        });
        LpResult {
            status,
            objective,
            values,
            duals: self.y.clone(),
            iterations: self.iterations,
            phase1_iterations: self.phase1_iterations,
            dual_iterations: self.dual_iterations,
            used_dual_simplex: self.used_dual_simplex,
            refactorizations: self.refactorizations,
            discarded_iterations: self.discarded_iterations,
            discarded_refactorizations: self.discarded_refactorizations,
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
                self.art_sign[i] = 1.0;
                self.position[art] = usize::MAX;
                self.set_x(art, 0.0);
                self.enter_row(i, slack, resid);
            } else {
                let sign = if r[i] >= 0.0 { 1.0 } else { -1.0 };
                self.art_sign[i] = sign;
                self.enter_row(i, art, r[i].abs());
                signs[i] = sign;
            }
        }
        // B = diag(signs), so B⁻¹ = diag(signs).
        self.repr.reset_diagonal(&signs);
    }

    /// Puts nonbasic column `j` on its upper bound when `upper`, else on
    /// its lower one.
    pub(super) fn set_nonbasic(&mut self, j: usize, upper: bool) {
        self.at_upper[j] = upper;
        self.set_x(j, if upper { self.upper[j] } else { self.lower[j] });
    }

    /// Sets `x[j]`, filing column `j` in [`nonzero_x`](Self::nonzero_x).
    pub(super) fn set_x(&mut self, j: usize, value: f64) {
        self.x[j] = value;
        let bit = 1 << (j % 64);
        if value != 0.0 {
            self.nonzero_x[j / 64] |= bit;
        } else {
            self.nonzero_x[j / 64] &= !bit;
        }
    }

    /// Rests nonbasic column `j` on a finite bound — the upper one when
    /// `prefer_upper` or the lower one is infinite — or, free, at zero.
    pub(super) fn rest_nonbasic(&mut self, j: usize, prefer_upper: bool) {
        let upper = self.upper[j].is_finite() && (prefer_upper || !self.lower[j].is_finite());
        self.set_nonbasic(j, upper);
        if !self.x[j].is_finite() {
            self.set_x(j, 0.0);
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

    /// Whether the current bounds leave column `j` free to move.
    pub(super) fn is_live(&self, j: usize) -> bool {
        self.live[j / 64] >> (j % 64) & 1 == 1
    }

    /// Files column `j`, whose bounds were just written, in
    /// [`live`](Self::live) and, when it is basic, in its row's mirror.
    pub(super) fn bounds_changed(&mut self, j: usize) {
        let bit = 1 << (j % 64);
        if self.lower[j] == self.upper[j] {
            self.live[j / 64] &= !bit;
        } else {
            self.live[j / 64] |= bit;
        }
        if let Some(row) = self
            .position
            .get(j)
            .copied()
            .filter(|&row| row != usize::MAX)
        {
            self.lb[row] = self.lower[j];
            self.ub[row] = self.upper[j];
        }
    }

    /// Makes `q` the basic variable of `row`, at `value`.
    pub(super) fn enter_row(&mut self, row: usize, q: usize, value: f64) {
        self.basis[row] = q;
        self.position[q] = row;
        self.xb[row] = value;
        self.lb[row] = self.lower[q];
        self.ub[row] = self.upper[q];
    }

    /// The value of column `j`, basic or not.
    pub(super) fn value(&self, j: usize) -> f64 {
        match self.position[j] {
            usize::MAX => self.x[j],
            row => self.xb[row],
        }
    }

    /// Pins every artificial column at zero.
    pub(super) fn pin_artificials(&mut self) {
        let n0 = self.n0;
        self.lower[n0..].fill(0.0);
        self.upper[n0..].fill(0.0);
        for j in n0..n0 + self.m {
            self.bounds_changed(j);
        }
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
        let (sf, basis) = (self.sf, &self.basis);
        let (unit_rows, art_sign) = (&self.unit_rows, &self.art_sign);
        let column = |slot: usize| column_of(sf, unit_rows, art_sign, basis[slot]);
        FtFactors::factorize(self.m, column, tol::DROP)?.btran(&mut y);
        Some(y)
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

    /// Rebuilds the basis representation, in place, from the current
    /// basis columns and recomputes basic values from the nonbasic
    /// assignment.
    ///
    /// Returns false when the basis is numerically singular (the old
    /// representation is kept so the caller can decide how to recover).
    // lint:allow(hot-path-index): rebuilds basis columns; slots and rows bounded by m
    pub(super) fn refactor(&mut self) -> bool {
        self.pivots_since_refactor = 0;
        let (sf, basis) = (self.sf, &self.basis);
        let (unit_rows, art_sign) = (&self.unit_rows, &self.art_sign);
        let column = |slot: usize| column_of(sf, unit_rows, art_sign, basis[slot]);
        if !self.repr.refactorize(column, tol::DROP) {
            return false;
        }
        self.refactorizations += 1;
        // Recompute x_B = B⁻¹ (b − N x_N); the direction buffer is free
        // between pivots. The nonbasic columns with a nonzero value, in
        // ascending column order: structural and slack columns, then the
        // artificials' one entries.
        let n0 = self.n0;
        let mut r = std::mem::take(&mut self.w);
        r.copy_from_slice(&self.sf.rhs);
        for (word, &bits) in self.nonzero_x.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let j = 64 * word + cast::idx(bits.trailing_zeros());
                bits &= bits - 1;
                if self.position[j] != usize::MAX {
                    continue;
                }
                let xj = self.x[j];
                match j.checked_sub(n0) {
                    None => {
                        let (rows, values) = self.sf.matrix.column_slices(j);
                        for (&row, &v) in rows.iter().zip(values) {
                            r[cast::idx(row)] -= v * xj;
                        }
                    }
                    Some(i) => r[i] -= self.art_sign[i] * xj,
                }
            }
        }
        self.repr.ftran(&mut r);
        self.xb.copy_from_slice(&r);
        for (i, &b) in self.basis.iter().enumerate() {
            self.lb[i] = self.lower[b];
            self.ub[i] = self.upper[b];
        }
        self.w = r;
        #[cfg(debug_assertions)]
        {
            self.refactors_seen += 1;
            if self.refactors_seen.is_multiple_of(16) {
                self.check_basic_values();
            }
        }
        // The rebuilt representation supersedes whatever incremental
        // drift the maintained reduced costs accumulated against the old
        // one; force a refresh at the next pricing step. The repair's
        // dual steps restart from a BTRAN on the new factors too.
        self.d_valid = false;
        self.y_valid = false;
        true
    }

    /// Basic-value oracle: `nonzero_x` must hold exactly the columns with
    /// `x[j] != 0.0`, and `x_B` must equal, to the bit, the solve of the
    /// right-hand side summed over every nonbasic column in column order.
    #[cfg(any(test, debug_assertions))]
    // lint:allow(hot-path-index): oracle walk; `nonzero_x` has a bit and the matrix a row in range for every column
    pub(super) fn check_basic_values(&mut self) {
        for (j, &xj) in self.x.iter().enumerate() {
            assert_eq!(
                self.nonzero_x[j / 64] >> (j % 64) & 1 == 1,
                xj != 0.0,
                "nonzero_x misfiles column {j} at {xj}"
            );
        }
        let mut r = self.sf.rhs.clone();
        let n0 = self.n0;
        let nonbasic = self.x[..n0].iter().zip(&self.position[..n0]);
        for (j, (&xj, &pos)) in nonbasic.enumerate() {
            if pos == usize::MAX && xj != 0.0 {
                let (rows, values) = self.sf.matrix.column_slices(j);
                for (&row, &v) in rows.iter().zip(values) {
                    r[cast::idx(row)] -= v * xj;
                }
            }
        }
        let artificials = self.x[n0..].iter().zip(&self.position[n0..]);
        for ((&xj, &pos), (ri, &sign)) in artificials.zip(r.iter_mut().zip(&self.art_sign)) {
            if pos == usize::MAX && xj != 0.0 {
                *ri -= sign * xj;
            }
        }
        self.repr.ftran(&mut r);
        let same = r
            .iter()
            .zip(&self.xb)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "x_B over the nonzero columns differs from the full walk's"
        );
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
