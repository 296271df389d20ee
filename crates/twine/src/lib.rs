//! The Twine container allocator & scheduler (level 2 of the paper's
//! architecture) plus the Health Check Service.
//!
//! RAS hands each reservation a set of servers; this crate places
//! containers *within one reservation* in real time (seconds), stacking
//! containers from different jobs on the same server, spreading replicas
//! across racks, and rescheduling containers off failed servers onto the
//! reservation's embedded buffer capacity. Because the candidate set is
//! just the reservation's members — not the whole region — placement
//! latency stays low regardless of region size, which is the entire point
//! of the two-level split.
//!
//! [`TwineAllocator`] is the one record of every job: its spec, its live
//! containers and its [`JobState`]. A container keeps its [`ContainerId`]
//! for life: an evacuation drains a server's containers in ascending id
//! and re-places each under its own id, so a job's container list stays
//! true through every move.

pub mod allocator;
pub mod health;
pub mod job;

pub use allocator::{Candidate, LatencyStats, PlacementError, PlacementPolicyKind, TwineAllocator};
pub use job::{ContainerId, ContainerSpec, JobId, JobSpec, JobState};
