//! Solver results, statistics, and configuration.

use crate::tol;

/// Final status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Status {
    /// Proven optimal within tolerances.
    Optimal,
    /// A feasible incumbent exists but limits stopped the proof of
    /// optimality; [`SolveStats::gap`] reports the remaining gap. This is
    /// the normal production outcome for RAS phase 1 (paper Figure 9).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Proven unbounded.
    Unbounded,
    /// Limits hit before any feasible point was found.
    #[default]
    Unknown,
}

/// Statistics from a solve, used by the Figures 7–11 experiments.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iterations: usize,
    /// Primal phase-1 iterations across all LP solves. Zero whenever
    /// every LP either crashed feasible or was solved by the dual
    /// simplex (warm from a basis, or cold and dual-first).
    pub phase1_iterations: usize,
    /// Dual-simplex iterations across all LP solves (warm re-solves and
    /// dual-first cold starts).
    pub dual_iterations: usize,
    /// True when the dual simplex carried at least one LP, warm or cold.
    pub used_dual_simplex: bool,
    /// Phase-1 iterations of the root LP alone — the number the
    /// continuous-session gate checks: a root that went dual-first from
    /// the slack basis reports 0 here.
    pub root_phase1_iterations: usize,
    /// True when the dual simplex solved the root LP: dual-first from the
    /// slack basis, with no fallback to the primal two-phase solve.
    pub root_used_dual_simplex: bool,
    /// Total basis (re)factorizations across all LP solves.
    pub lp_refactorizations: usize,
    /// Successful basis updates (Forrest–Tomlin column replacements)
    /// across all LP solves.
    pub basis_updates: usize,
    /// Entries those updates inserted into `U` across all LP solves
    /// (`simplex::BasisStats::spike_entries`); sums in `absorb`.
    pub spike_entries: usize,
    /// Refactorizations triggered by the fixed pivot interval.
    pub refactors_interval: usize,
    /// Refactorizations triggered by update fill growth (FT spike/eta
    /// nonzeros outgrowing the fresh factors).
    pub refactors_growth: usize,
    /// Refactorizations triggered by a numerically rejected update.
    pub refactors_accuracy: usize,
    /// Pivots served straight from the partial-pricing candidate list
    /// across all LP solves (see `simplex::PricingStats`).
    pub pricing_candidate_hits: usize,
    /// Full pricing scans (reduced-cost refreshes plus candidate-list
    /// rebuilds) across all LP solves.
    pub pricing_full_rebuilds: usize,
    /// Pivots of the attempts the LP solves threw away — a refused warm
    /// start, a dual-first cold start that fell back — across all LP
    /// solves. No other counter includes them.
    pub discarded_iterations: usize,
    /// Refactorizations of those attempts across all LP solves.
    pub discarded_refactorizations: usize,
    /// Seconds the root LP spent on the attempts it threw away (a
    /// dual-first start that fell back): part of `root_lp_seconds`.
    pub root_discarded_seconds: f64,
    /// Wall-clock seconds spent in the solve.
    pub solve_seconds: f64,
    /// Best proven lower bound on the objective.
    pub best_bound: f64,
    /// Absolute gap `incumbent − best_bound` (0 when proven optimal).
    pub absolute_gap: f64,
    /// Relative gap `absolute_gap / max(1, |incumbent|)`.
    pub gap: f64,
    /// True when a limit (time/nodes) stopped the solve early.
    pub hit_limit: bool,
    /// Seconds spent building the standard form (paper's "Solver Build").
    pub setup_seconds: f64,
    /// Seconds spent in the root LP relaxation (paper's "Initial State").
    pub root_lp_seconds: f64,
    /// Seconds spent in branch and bound proper (paper's "MIP" step).
    pub mip_seconds: f64,
    /// Seconds the search thread spent in its rounding dives, the root
    /// dive and the periodic ones: part of `mip_seconds`.
    pub dive_seconds: f64,
    /// LPs the rounding dives solved, the root dive's and the periodic
    /// ones' (their pivots count in `simplex_iterations` too).
    pub dive_lps: usize,
    /// LP solves on the search's own engine that installed the basis the
    /// engine already held — a dive step's, or a node's solved right after
    /// its parent — by applying only the bounds that changed (see
    /// [`Simplex`](crate::simplex::Simplex)). Which nodes the search
    /// solves itself depends on what the look-ahead solved first, so like
    /// [`nodes_solved_ahead`](Self::nodes_solved_ahead) it depends on
    /// thread timing and no identity check may read it.
    pub held_installs: usize,
    /// True when a supplied incumbent validated and was installed as the
    /// starting best-known solution.
    pub incumbent_seeded: bool,
    /// Nodes pruned against the seeded incumbent before any better
    /// solution was found — the direct payoff of warm incumbent seeding.
    pub nodes_pruned_by_seed: usize,
    /// Nodes whose LP result came from the look-ahead: solved before their
    /// pop, by the helper thread or by the search while it waited for the
    /// helper (see [`crate::branch`]). Unlike every counter above it
    /// depends on thread timing, so it changes from run to run and no
    /// identity check may read it; the search never does.
    pub nodes_solved_ahead: usize,
    /// LPs the look-ahead solved for nodes the search never popped
    /// (pruned, or still open when it stopped). Timing-dependent, like
    /// [`nodes_solved_ahead`](Self::nodes_solved_ahead).
    pub lp_solves_discarded: usize,
    /// Outcome of the model auditor and solution certificate checkers
    /// (see [`crate::audit`]); certified clean on every returned solution.
    pub audit: crate::audit::AuditReport,
}

impl SolveStats {
    /// Accumulates one LP solve's counters into the MIP-level totals.
    pub fn record_lp(&mut self, lp: &crate::simplex::LpResult) {
        self.simplex_iterations += lp.iterations;
        self.phase1_iterations += lp.phase1_iterations;
        self.dual_iterations += lp.dual_iterations;
        self.used_dual_simplex |= lp.used_dual_simplex;
        self.lp_refactorizations += lp.refactorizations;
        self.basis_updates += lp.basis_stats.updates;
        self.spike_entries += lp.basis_stats.spike_entries;
        self.refactors_interval += lp.basis_stats.refactors_interval;
        self.refactors_growth += lp.basis_stats.refactors_growth;
        self.refactors_accuracy += lp.basis_stats.refactors_accuracy;
        self.pricing_candidate_hits += lp.pricing.candidate_hits;
        self.pricing_full_rebuilds += lp.pricing.full_rebuilds;
        self.discarded_iterations += lp.discarded_iterations;
        self.discarded_refactorizations += lp.discarded_refactorizations;
    }

    /// Folds another solve's statistics into this one, for a caller that
    /// reports several solves as one (the sharded round): work counters
    /// (`dive_lps` and `held_installs` among them), the look-ahead's two
    /// counters, `root_discarded_seconds` and `absolute_gap` sum, the
    /// `used_dual_simplex` / `root_used_dual_simplex` / `hit_limit` flags OR,
    /// `solve_seconds` takes the longer solve (shards run side by side). What
    /// has no merge is left as it is in `self`: `best_bound` and `gap` (no
    /// common incumbent to be relative to), the per-step seconds
    /// (`dive_seconds` among them), the `incumbent_seeded` flag (the
    /// caller decides which solves vote) and
    /// `audit`, whose fold
    /// ([`AuditReport::absorb`](crate::AuditReport::absorb)) has no identity
    /// to start from: the caller starts it at the first report.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.simplex_iterations += other.simplex_iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.dual_iterations += other.dual_iterations;
        self.used_dual_simplex |= other.used_dual_simplex;
        self.root_phase1_iterations += other.root_phase1_iterations;
        self.root_used_dual_simplex |= other.root_used_dual_simplex;
        self.lp_refactorizations += other.lp_refactorizations;
        self.basis_updates += other.basis_updates;
        self.spike_entries += other.spike_entries;
        self.refactors_interval += other.refactors_interval;
        self.refactors_growth += other.refactors_growth;
        self.refactors_accuracy += other.refactors_accuracy;
        self.pricing_candidate_hits += other.pricing_candidate_hits;
        self.pricing_full_rebuilds += other.pricing_full_rebuilds;
        self.discarded_iterations += other.discarded_iterations;
        self.discarded_refactorizations += other.discarded_refactorizations;
        self.root_discarded_seconds += other.root_discarded_seconds;
        self.solve_seconds = self.solve_seconds.max(other.solve_seconds);
        self.absolute_gap += other.absolute_gap;
        self.hit_limit |= other.hit_limit;
        self.nodes_pruned_by_seed += other.nodes_pruned_by_seed;
        self.nodes_solved_ahead += other.nodes_solved_ahead;
        self.lp_solves_discarded += other.lp_solves_discarded;
        self.dive_lps += other.dive_lps;
        self.held_installs += other.held_installs;
    }
}

/// Configuration for a MIP solve.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Wall-clock limit in seconds (the paper's phase-1 timeout).
    pub time_limit_seconds: f64,
    /// Node limit for branch and bound.
    pub max_nodes: usize,
    /// Stop when the relative gap falls below this value.
    pub rel_gap_tol: f64,
    /// Stop when the absolute gap falls below this value.
    pub abs_gap_tol: f64,
    /// The dual iteration the root LP runs by: `true` picks
    /// [`DualRule::LongStep`](crate::simplex::DualRule::LongStep) — a
    /// cold root that goes dual-first where that pays (see
    /// [`crate::simplex`]) — and `false`
    /// [`DualRule::Repair`](crate::simplex::DualRule::Repair), the rule
    /// node, dive and look-ahead re-solves always run, whose cold solves
    /// are primal only. The one remaining switch between the rules; it
    /// goes once the frozen end-to-end benchmark stops naming it.
    pub warm_dual: bool,
    /// Stop once an incumbent exists and the best bound has not improved
    /// for this many consecutive nodes (0 disables). Mirrors how
    /// production deployments cut losses on symmetric plateaus instead of
    /// burning the whole timeout (the residual gap is still reported).
    pub stall_node_limit: usize,
    /// Candidate incumbents, full variable assignments, in order of
    /// preference. Branch and bound validates each once — the right
    /// length, no violation beyond [`tol::PRIMAL_FEAS`] — rounds its
    /// integer columns and installs the cheapest; on a tie the earlier
    /// candidate wins. The installed one seeds the search: the solver then
    /// only returns something else if it is strictly better, which is what
    /// makes steady-state re-solves quiescent (paper Expression 1's
    /// purpose).
    pub incumbents: Vec<Vec<f64>>,
    /// The root starts from the running plan: the caller vouches that the
    /// model rewards every structural column for resting where the plan
    /// the region already runs puts it, so the slack basis *is* that plan
    /// and the long-step root goes dual-first from it whatever the LP's
    /// size, not only past [`AUTO_PARTIAL_MIN_COLS`] (see
    /// [`crate::simplex`], "Cold solves"). The attempt's fallback to the
    /// primal two-phase solve stays. RAS sets it for the hard phase-1
    /// solve alone.
    ///
    /// [`AUTO_PARTIAL_MIN_COLS`]: crate::simplex::AUTO_PARTIAL_MIN_COLS
    pub root_from_plan: bool,
    /// When the model auditor and solution certificate checkers run (see
    /// [`crate::audit`]): [`crate::audit::AuditMode::On`], its one value —
    /// every solve is audited, and a solution whose certificate fails is
    /// refused with [`SolveError::Uncertified`]. The field stays only
    /// because the frozen end-to-end benchmark names it.
    pub audit: crate::audit::AuditMode,
}

impl Default for SolveConfig {
    fn default() -> Self {
        Self {
            time_limit_seconds: 60.0,
            max_nodes: 100_000,
            rel_gap_tol: tol::PRIMAL_FEAS,
            abs_gap_tol: tol::PRIMAL_FEAS,
            warm_dual: true,
            stall_node_limit: 0,
            incumbents: Vec::new(),
            root_from_plan: false,
            audit: crate::audit::AuditMode::default(),
        }
    }
}

/// A MIP solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Final status.
    pub status: Status,
    /// Objective value of the incumbent (meaningful for `Optimal`/`Feasible`).
    pub objective: f64,
    /// Values of the model's structural variables.
    pub values: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// Value of one variable.
    pub fn value(&self, var: crate::expr::Var) -> f64 {
        self.values[var.index()]
    }

    /// Value of one variable rounded to the nearest integer (checked:
    /// a NaN value maps to 0 instead of saturating silently).
    pub fn int_value(&self, var: crate::expr::Var) -> i64 {
        crate::cast::rounded_i64(self.values[var.index()])
    }

    /// True when the solve produced a usable assignment.
    pub fn is_usable(&self) -> bool {
        matches!(self.status, Status::Optimal | Status::Feasible)
    }
}

/// Errors from a MIP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible assignment.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Limits hit before any feasible point was found.
    NoIncumbent,
    /// The model outgrew the solver's `u32` variable indices while it
    /// was being built. This is a size problem, not a statement about
    /// feasibility.
    TooLarge,
    /// The static model auditor found reject-level defects (NaN
    /// coefficients, crossed bounds, dangling variable references, …) and
    /// refused the solve. Carries every finding, reject- and flag-level,
    /// so the caller can report them all at once (see [`crate::audit`]).
    InvalidModel(Vec<crate::audit::AuditIssue>),
    /// The solution the search settled on failed its certificate (root
    /// LP or MIP, see [`crate::audit`]) and was refused. Carries every
    /// violation.
    Uncertified(Vec<crate::audit::AuditIssue>),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::NoIncumbent => {
                write!(f, "limits reached before a feasible solution was found")
            }
            SolveError::TooLarge => {
                write!(f, "model exceeds the solver's variable index range")
            }
            SolveError::InvalidModel(issues) | SolveError::Uncertified(issues) => {
                let what = match self {
                    SolveError::InvalidModel(_) => "model failed the static audit",
                    _ => "solution failed its certificate",
                };
                let is_reject =
                    |i: &&crate::audit::AuditIssue| i.severity == crate::audit::Severity::Reject;
                let rejects = issues.iter().filter(is_reject).count();
                write!(f, "{what}: {rejects} defect(s)")?;
                if let Some(first) = issues.iter().find(is_reject) {
                    write!(f, " (first: {first})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = SolveConfig::default();
        assert!(c.time_limit_seconds > 0.0);
        assert!(c.incumbents.is_empty() && !c.root_from_plan);
    }

    #[test]
    fn error_messages() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
    }

    #[test]
    fn usable_statuses() {
        let mk = |status| Solution {
            status,
            objective: 0.0,
            values: vec![],
            stats: SolveStats::default(),
        };
        assert!(mk(Status::Optimal).is_usable());
        assert!(mk(Status::Feasible).is_usable());
        assert!(!mk(Status::Infeasible).is_usable());
    }
}
