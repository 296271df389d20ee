//! Bounded-variable revised simplex: two-phase primal, plus one dual
//! iteration, run by the rule each call site names, for warm re-solves
//! and for large cold solves.
//!
//! The basis is held as a sparse LU factorization (see [`crate::lu`])
//! maintained with Forrest–Tomlin updates ([`crate::lu::FtFactors`]),
//! which keep `U` genuinely triangular between refactorizations. Each
//! update's spike is the entering column's own FTRAN stopped before the
//! `U` solve, staged when the pivot's direction is computed, so it costs
//! the nonzeros that vector has and nothing more. The factors are rebuilt
//! every 200 pivots — or early, when an update reports instability or
//! fill growth.
//!
//! A caller configures two things ([`SimplexConfig`]): the pivot limit
//! and the deadline. Which dual iteration runs ([`DualRule`]) is not
//! configuration: each call site names it with the solve. Neither the
//! pricing rule nor the refactorization interval is an option: pricing
//! is devex up to [`AUTO_PARTIAL_MIN_COLS`] live columns and partial
//! devex above, and tests reach the other rule, or a shorter interval,
//! through the engine's hidden test hooks.
//!
//! Cold solves start from a *crash* basis: every row whose residual fits
//! inside its slack's bounds gets the slack basic (no phase-1 work);
//! only the remaining rows receive an artificial variable, and phase 1
//! minimizes their sum. Phase 2 then minimizes the true objective.
//! Anti-cycling uses Bland's rule after a run of degenerate pivots.
//!
//! Some cold solves under [`DualRule::LongStep`] go **dual-first**
//! instead. With every structural column resting on the bound its cost
//! pushes toward, the all-slack basis is dual feasible (`y = 0`,
//! `d = c`); in a model that rewards each server for staying where it is
//! (negative cost on the "stay" columns, RAS Expression 1) that start
//! *is* the plan already running, primal infeasible only in the rows the
//! round's drift broke, and the dual simplex repairs it in a tenth of the
//! pivots the primal needs to rebuild the plan from nothing. From an
//! empty region the start is the empty plan, and the same repair builds
//! it (at paper scale in seconds, where the primal phase 1 runs into its
//! iteration cap). The attempt is made, read off the LP and not an
//! option, when the pricing size rule calls the LP large: more than
//! [`AUTO_PARTIAL_MIN_COLS`] columns the model does not fix (smaller LPs
//! solve in milliseconds either way, and on some the dual start costs
//! plan quality). The one exception is a root whose caller vouches that
//! the slack basis is the running plan
//! ([`SolveConfig::root_from_plan`](crate::SolveConfig::root_from_plan),
//! which RAS sets for its hard phase-1 solve, round 0 included): it goes
//! dual-first at any size, since no basis is carried from one round to
//! the next. Phase-2 and softened roots keep the gate, where lifting it
//! measured dearer plans. A free column with a cost rests, for the
//! dual phase, on the bound its own rows imply (the `max`-over-MSBs
//! columns of the region model: `t ≥ Σ x ≥ 0`); if a column has no
//! dual-feasible finite bound, own or implied, the attempt is skipped.
//! The dual phase runs on costs perturbed away from the resting bound by
//! a seeded `1e-6·(1 + |c_j|)·(0.5 + 0.5·u_j)` — the region model's
//! costs take a handful of distinct values, and unperturbed nearly every
//! dual ratio ties (the 40-spec region root stalls past its budget, and
//! some 104-row miniatures of it cycle) — with the true costs and bounds
//! restored before the primal cleanup, on every exit. Its budget is one
//! pivot per unfixed column, in proportion to the primal's own spend
//! from the crash basis (0.5–1.5 per column on the region models); on stall,
//! budget or a singular refactorization the engine resets and runs the
//! primal two-phase solve, exactly as a warm start that cannot proceed
//! does. Such a solve reports `used_dual_simplex`, zero
//! `phase1_iterations` and — it was a cold solve — `warm_basis_used ==
//! false`.
//!
//! Warm solves ([`solve_lp_warm`]) skip both phases: a bound or RHS
//! change leaves the persisted basis *dual* feasible, so the dual
//! iteration walks straight back to optimality with **zero phase-1
//! iterations**. It is one loop — leaving row, ratio test over the
//! scattered pivot row `ρᵀA`, a cross-check of the pivot element against
//! the FTRAN'd column (refactorize and retry on drift), the landing on the
//! violated bound, the basis update and its maintenance — and the rule
//! changes only the leaving row and the ratio test:
//!
//! - [`DualRule::LongStep`], the dual simplex proper: the leaving row by
//!   dual devex, the bound-flip ratio test on maintained reduced costs.
//!   The root re-solve the RAS session hits every round runs it, and so
//!   do [`solve_lp`] and [`solve_lp_warm`].
//! - [`DualRule::Repair`], the one-violation repair: the largest violation
//!   leaves, and one column enters by the dual ratio on duals recomputed
//!   once per factorization and otherwise kept by the dual step
//!   `y += (d_q/α_q)·ρ`. Branch-and-bound nodes re-solve with it, from a
//!   [`Simplex`] engine kept for the whole search (the search's own, or
//!   its look-ahead helper's: a solve returns what a reset engine
//!   returns, so the result cannot tell them apart). Its cold solves are
//!   primal only.
//!
//! The primal cleanup after either, like every path's, declares
//! optimality only on freshly recomputed reduced costs — those of the
//! columns the current bounds leave free: a fixed column can never
//! enter, so its reduced cost is never priced or read.
//!
//! A warm solve handed the basis its engine already holds (a dive step's
//! next LP, a node solved right after its parent) takes the **held
//! install**: only the bounds whose bits changed are applied, and the
//! refactorization and the iteration run exactly as after a fresh
//! install (see [`Simplex`]). Basic values and their bounds are kept by
//! row, so the leaving-row scans walk contiguous arrays.
//!
//! Under either rule, warm or cold, the dual iteration proves
//! infeasibility itself: a violated row whose nonbasic columns, each
//! moved to its helping bound, still cannot absorb the violation —
//! checked on fresh factors, against the threshold the primal's phase 1
//! uses — has no feasible point, and the solve returns
//! [`LpStatus::Infeasible`] instead of falling back to a cold primal that
//! would spend a whole phase 1 re-proving it.

mod basis;
mod dual;
mod engine;
mod pricing;
mod primal;

pub use basis::Basis;
pub use engine::Simplex;

use crate::standard::StandardForm;

/// Above this many columns (structural + slack + artificial, counting
/// only the structural columns the model does not fix — a column whose
/// bounds are equal can never enter), the simplex prices with partial
/// devex over a candidate list instead of full devex: below it a full
/// scan per pivot is cheap and the better pivot quality wins; above it
/// the scan itself is the bottleneck. No option overrides this switch.
/// The same count sizes the candidate list and gates and budgets the
/// dual-first cold start; only a root that starts from the running plan
/// ([`SolveConfig::root_from_plan`](crate::SolveConfig::root_from_plan))
/// skips the gate.
pub const AUTO_PARTIAL_MIN_COLS: usize = 4096;

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// No feasible point exists (phase-1 optimum is positive, or a row
    /// of the dual simplex that no move inside the bounds can repair).
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration limit reached before optimality.
    IterationLimit,
}

/// Pivots between scheduled refactorizations of the basis factors (an
/// update that reports instability or fill growth refactorizes early).
const REFACTOR_INTERVAL: usize = 200;

/// Entering-variable pricing rule, chosen by the LP's size: devex up to
/// [`AUTO_PARTIAL_MIN_COLS`] live columns, partial devex above (tests
/// force either through [`Simplex::set_partial_pricing`]).
///
/// Both rules select from the same eligibility set (reduced cost pushes
/// the objective down from the bound the variable rests on), so they
/// reach the same optimum; they differ only in how many pivots they
/// take and what each selection scan costs. Anti-cycling is
/// orthogonal: after a long degenerate run the engine switches to
/// Bland's rule on exact reduced costs whatever the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PricingRule {
    /// Devex reference-framework weights (Forrest & Goldfarb): pick the
    /// maximizer of `d_j² / w_j` over maintained reduced costs, update
    /// the weights of the columns touched by each pivot row.
    Devex,
    /// Devex merit restricted to a rotating candidate list, rebuilt from
    /// a full scan only when the list runs dry: for large models, where
    /// a full per-pivot scan dominates solve time.
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
    /// Entries those updates inserted into `U`: each one's spike, the
    /// entering column's L/eta-stage nonzeros off the diagonal.
    /// `spike_entries / updates` is the fill an update costs.
    pub spike_entries: usize,
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
    /// infeasibility). Dual solves report 0 by construction: a warm one
    /// starts from a basis that bound-only changes left dual feasible, a
    /// dual-first cold one from the dual-feasible slack basis, so no
    /// artificial phase ever runs.
    pub phase1_iterations: usize,
    /// Long-step ([`DualRule::LongStep`]) iterations: of a warm
    /// re-solve, or of a dual-first cold start.
    pub dual_iterations: usize,
    /// True when the long step carried the solve — back to primal
    /// feasibility, to an infeasible row or to the iteration limit — from
    /// a warm basis or, on a dual-first cold start, from the slack basis
    /// ([`warm_basis_used`](Self::warm_basis_used) tells the two apart).
    pub used_dual_simplex: bool,
    /// Basis (re)factorizations performed.
    pub refactorizations: usize,
    /// Pivots of the attempts this solve threw away before the start
    /// that answered: a refused warm start, a dual-first cold start that
    /// fell back, or both. They are not in [`iterations`](Self::iterations).
    pub discarded_iterations: usize,
    /// Refactorizations of those attempts, not in
    /// [`refactorizations`](Self::refactorizations).
    pub discarded_refactorizations: usize,
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

/// The rule a dual iteration runs by, named at each solve's call site:
/// the leaving row and the ratio test are all that differ (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualRule {
    /// The dual simplex proper: the leaving row by dual devex, the
    /// bound-flip (long-step) ratio test on maintained reduced costs. A
    /// cold solve goes dual-first where that pays. The solve reports
    /// [`LpResult::used_dual_simplex`] and counts its dual pivots in
    /// [`LpResult::dual_iterations`].
    LongStep,
    /// The one-violation repair: the largest violation leaves, one column
    /// enters by the dual ratio on duals the dual step keeps. Its pivots
    /// count as plain iterations, and a cold solve under it is primal only.
    Repair,
}

/// Tuning knobs for the simplex engine: two limits. The dual iteration's
/// rule is not one of them — each call site names it with the solve
/// ([`DualRule`]).
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Hard cap on total pivots.
    pub max_iterations: usize,
    /// Optional wall-clock deadline; pivoting stops with
    /// [`LpStatus::IterationLimit`] once it passes. Branch and bound sets
    /// this from its own time limit so a single huge LP cannot blow
    /// through the solve budget.
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            deadline: None,
        }
    }
}

/// Solves the LP `min cᵀx  s.t.  Ax = b, lower <= x <= upper`, cold
/// under [`DualRule::LongStep`].
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
/// After a bound or right-hand-side change the old basis stays dual
/// feasible; the long step restores primal feasibility and a primal
/// cleanup finishes. Falls back to a cold start whenever the
/// warm basis is unusable (singular, stale, or the repair stalls), so the
/// result is always identical to a cold solve up to degeneracy. Without a
/// basis the solve is cold: dual-first where that pays (module docs),
/// else the primal two-phase solve.
pub fn solve_lp_warm(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    config: &SimplexConfig,
    warm: Option<&Basis>,
) -> LpResult {
    Simplex::new(sf, config.clone()).solve(lower, upper, warm, DualRule::LongStep)
}

#[cfg(test)]
mod oracles;
#[cfg(test)]
mod tests;
