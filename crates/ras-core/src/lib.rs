//! RAS core: continuously optimized region-wide server-to-reservation
//! assignment (the paper's primary contribution).
//!
//! A *reservation* is a logical cluster with guaranteed capacity expressed
//! in relative resource units (RRUs). The [`solver::AsyncSolver`] takes a
//! broker snapshot of the whole region, formulates the assignment as a
//! mixed-integer program (Section 3.5.3 of the paper), reduces it by
//! grouping symmetric servers into equivalence classes (Section 3.5.2),
//! solves it in two phases (region-wide without rack goals, then rack
//! goals for the worst reservations), and emits per-server *target*
//! bindings that the Online Mover materializes.
//!
//! Module map:
//!
//! * [`reservation`] — reservation specs, spread policies, affinity;
//! * [`rru`] — relative-resource-unit tables;
//! * [`params`] — the MIP weights of Table 1 (`Ms`, `β`, `τ`, `αK`, `αF`, `θ`);
//! * [`classes`] — symmetric-server equivalence-class reduction;
//! * [`aggregate`] — the round's one reduction: the equivalence classes
//!   with their interned labels, which the solved counts index directly;
//! * [`model`] — the MIP build (Expressions 1–7) with constraint softening;
//! * [`heuristic`] — the greedy spread-aware incumbent;
//! * [`assign`] — concretization of class counts into per-server targets;
//! * [`phases`] — the one phase body and the phase-2 refinement;
//! * [`session`] — the continuous round body, phase 1 through the same
//!   phase body, with the running plan as its one warm start;
//! * [`shard`] — POP-style partition and merge math (capacity split,
//!   reconcile pass, regional evaluator, per-shard folds);
//! * [`solver`] — the Async Solver: the one owner of a round (a
//!   function of its inputs; it memoizes only the shard plan), writing
//!   targets to the broker;
//! * [`baseline`] — Twine's previous greedy assignment (evaluation baseline);
//! * [`buffers`] — failure-buffer sizing and accounting;
//! * [`emergency`] — the out-of-band emergency allocation path;
//! * [`explain`] — per-reservation explanations of a placement;
//! * [`error`] — the crate's error type;
//! * [`stats`] — per-phase timing/size breakdowns (Figures 8, 10, 11).

pub mod aggregate;
pub mod assign;
pub mod baseline;
pub mod buffers;
pub mod classes;
pub mod emergency;
pub mod error;
pub mod explain;
pub mod heuristic;
pub mod model;
#[cfg(test)]
mod oracles;
pub mod params;
pub mod phases;
pub mod reservation;
pub mod rru;
pub mod session;
pub mod shard;
pub mod solver;
pub mod stats;

pub use aggregate::{build_reduction, AggregationLevel, Reduction, ReductionStats};
pub use error::CoreError;
pub use params::SolverParams;
pub use ras_milp::cast;
pub use ras_milp::{AuditMode, AuditReport};
pub use reservation::{DcAffinity, ReservationKind, ReservationSpec, SpreadPolicy};
pub use rru::RruTable;
pub use session::WarmReport;
pub use shard::{
    evaluate_targets, sharded_tolerance, PlanScore, ReconcileReport, ShardPlan, ShardReport,
    ShardedReport,
};
pub use solver::{AsyncSolver, SolveOutput};
