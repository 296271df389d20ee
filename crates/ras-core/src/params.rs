//! Solver parameters: the cost coefficients of Table 1, plus the
//! limits and switches of one solve. The reduction is not a choice:
//! every solve groups symmetric servers into equivalence classes, and
//! since that reduction is exact no round re-solves an unreduced model.
//!
//! The coefficients and limits every run uses at one value are constants
//! here rather than [`SolverParams`] fields:
//!
//! * [`SPREAD_PENALTY`] — `β`, per RRU over a spread threshold;
//! * [`BUFFER_COST`] — `τ`, per RRU of correlated-failure buffer;
//! * [`SOFTEN_PENALTY`] — per RRU of softened-constraint slack;
//! * [`DEFAULT_MSB_SHARE`] / [`DEFAULT_RACK_SHARE`] — `αF` / `αK` when a
//!   spec sets none;
//! * [`MAX_ASSIGNMENT_VARS`] — the assignment-variable budget of one MIP;
//! * [`PHASE2_RESERVATION_FRACTION`] — the share of reservations phase 2
//!   refines;
//! * [`ASSIGNMENT_COST`] — the epsilon per assigned server.

use ras_milp::AuditMode;

use crate::aggregate::AggregationLevel;
use crate::classes::Granularity;
use ras_milp::tol;

/// Cost `β` per RRU exceeding a spread threshold.
pub const SPREAD_PENALTY: f64 = 50.0;

/// Cost `τ` per RRU of correlated-failure buffer (the per-reservation
/// maximum MSB usage of Expression 4).
pub const BUFFER_COST: f64 = 5.0;

/// Penalty per RRU of softened-constraint slack; "high-priority
/// objectives associated with fixing as many constraints as possible"
/// — set well above every other coefficient.
pub const SOFTEN_PENALTY: f64 = 10_000.0;

/// Default `αF` (MSB share limit) when a spec does not set one.
pub const DEFAULT_MSB_SHARE: f64 = 0.10;

/// Default `αK` (rack share limit) when a spec does not set one.
pub const DEFAULT_RACK_SHARE: f64 = 0.05;

/// Assignment-variable budget for one MIP (the paper found ≈10 M to be
/// the practical upper limit; scaled down for this reproduction).
pub const MAX_ASSIGNMENT_VARS: usize = 2_000_000;

/// Fraction of reservations phase 2 may refine (paper: 10 %).
pub const PHASE2_RESERVATION_FRACTION: f64 = 0.10;

/// Tiny cost per assigned server. Acquiring a free server is otherwise
/// free, which creates over-allocation among alternative optima —
/// surplus the *next* solve would shed as churn. The epsilon pins the
/// minimal allocation without influencing any real trade-off (it is far
/// below every other coefficient).
pub const ASSIGNMENT_COST: f64 = 0.01;

/// Weights and limits of the RAS MIP (paper Table 1 and Section 4.6).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverParams {
    /// Movement cost `Ms` for a server with running containers.
    pub move_cost_in_use: f64,
    /// Movement cost `Ms` for an idle server — the paper uses a 10×
    /// smaller penalty "since their moves are virtually free".
    pub move_cost_unused: f64,
    /// Bonus for following through on a move already planned by the
    /// previous solve ("maintain the same move in the current solve",
    /// Section 3.5.1). Must be smaller than any movement cost.
    pub stability_bonus: f64,
    /// Wall-clock budget per phase in seconds.
    pub phase_time_limit: f64,
    /// Relative MIP gap at which a solve counts as done. Production RAS
    /// stops well short of proven optimality (Figure 9): gaps below the
    /// smallest meaningful cost difference change nothing operationally.
    pub mip_rel_gap: f64,
    /// Absolute MIP gap at which a solve counts as done; set just below
    /// the smallest objective coefficient (the stability bonus).
    pub mip_abs_gap: f64,
    /// Give up proving optimality after this many nodes without bound
    /// improvement (the incumbent is kept; its gap is reported); 0
    /// disables the rule. The same count bounds the look-ahead walk. The
    /// default is 8: the root dive or a supplied candidate provides
    /// nearly every plan, so the node search mostly proves bound; budgets
    /// 1 to 16 return the same medium plans on 29 of 30 swept instances,
    /// and 8 takes about half the medium round time of the old 48
    /// (EXPERIMENTS.md, *Node budget by evidence*).
    pub stall_node_limit: usize,
    /// Class granularity of the phase-1 (region-wide) solve. The warm
    /// path, the cold path, and every per-shard build read this one
    /// setting, so they cannot silently diverge. [`Granularity::Msb`] is
    /// the paper's choice; [`Granularity::Rack`] trades solve time for
    /// rack-aware phase-1 decisions on small regions.
    pub phase1_granularity: Granularity,
    /// Number of POP-style shards the region solve is partitioned into
    /// (1 = monolithic), an upper bound: the solver picks the largest
    /// count whose every shard can carry its capacity slice, down to one.
    /// Each shard is a set of whole MSB subtrees solved concurrently on
    /// its own worker thread; a cheap
    /// merge/reconcile pass recombines the plans. See [`crate::shard`].
    pub shards: usize,
    /// When the MIP auditor runs: [`AuditMode::On`], its one value. Every
    /// solve is audited (static model audit before it, certificate checks
    /// after) in every build, warm rounds against the same invariants as
    /// cold ones, and a phase whose certificate fails is refused
    /// ([`ras_milp::SolveError::Uncertified`]). Nothing reads the field;
    /// it stays only because the frozen end-to-end benchmark names it.
    pub audit: AuditMode,
    /// The dual iteration the root LP runs by, passed on as
    /// [`ras_milp::SolveConfig::warm_dual`]: `true` picks the long step
    /// ([`ras_milp::simplex::DualRule::LongStep`]) — warm re-solves of
    /// bound-only round diffs with zero phase-1 iterations, and cold
    /// roots of a region that already runs a plan starting dual-first
    /// from it (a restarted solver, a softened retry); `false` picks the
    /// one-violation repair branch-and-bound nodes use, whose cold
    /// solves are primal only. Not a production setting: the field goes
    /// once the frozen end-to-end benchmark stops naming it.
    pub warm_dual: bool,
    /// The reduction solves build before the MIP (see
    /// [`crate::aggregate`]); its one value is
    /// [`AggregationLevel::Classes`], the paper's symmetric-server classes.
    pub aggregation: AggregationLevel,
}

impl Default for SolverParams {
    fn default() -> Self {
        Self {
            move_cost_in_use: 100.0,
            move_cost_unused: 10.0,
            stability_bonus: 1.0,
            phase_time_limit: 15.0,
            mip_rel_gap: tol::GAP_REL,
            mip_abs_gap: 0.9,
            stall_node_limit: 8,
            phase1_granularity: Granularity::Msb,
            shards: 1,
            audit: AuditMode::On,
            warm_dual: true,
            aggregation: AggregationLevel::Classes,
        }
    }
}

impl SolverParams {
    /// The in-use/unused cost ratio (paper: 10×).
    pub fn move_cost_ratio(&self) -> f64 {
        self.move_cost_in_use / self.move_cost_unused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let p = SolverParams::default();
        assert_eq!(p.move_cost_ratio(), 10.0);
        assert!(SOFTEN_PENALTY > p.move_cost_in_use);
        assert!(ASSIGNMENT_COST < p.stability_bonus);
        assert!(p.stability_bonus < p.move_cost_unused);
        assert_eq!(PHASE2_RESERVATION_FRACTION, 0.10);
        assert_eq!(p.aggregation, AggregationLevel::Classes);
    }
}
