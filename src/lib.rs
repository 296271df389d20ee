//! # RAS — Continuously Optimized Region-Wide Datacenter Resource Allocation
//!
//! A from-scratch Rust reproduction of *RAS* (Newell et al., SOSP 2021):
//! Facebook's region-scale Resource Allowance System. RAS splits resource
//! allocation into two levels — a mixed-integer-programming solver
//! continuously assigns *servers* to *reservations* (logical clusters
//! with guaranteed capacity) off the critical path, while the Twine
//! container allocator places containers on servers inside each
//! reservation in real time.
//!
//! This umbrella crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `ras-topology` | region / datacenter / MSB / rack / server model and generators |
//! | [`milp`] | `ras-milp` | pure-Rust MIP solver (simplex + branch & bound) |
//! | [`broker`] | `ras-broker` | the Resource Broker: versioned server records and events |
//! | [`core`] | `ras-core` | reservations, RRUs, the MIP formulation, two-phase solving |
//! | [`mover`] | `ras-mover` | the Online Mover: target execution, buffer replacement, elastic loans |
//! | [`twine`] | `ras-twine` | container allocator & scheduler, health-check service |
//! | [`workloads`] | `ras-workloads` | service profiles, request generator, power & network models |
//! | [`sim`] | `ras-sim` | discrete-event regional simulation |
//!
//! # Examples
//!
//! ```
//! use ras::core::{AsyncSolver, ReservationSpec};
//! use ras::core::rru::RruTable;
//! use ras::broker::{ResourceBroker, SimTime};
//! use ras::topology::{RegionBuilder, RegionTemplate};
//!
//! // A synthetic region of 2 DCs × 3 MSBs.
//! let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
//! let mut broker = ResourceBroker::new(region.server_count());
//!
//! // One reservation: 40 RRUs on any hardware, MSB-failure-proof.
//! let spec = ReservationSpec::guaranteed(
//!     "web", 40.0, RruTable::uniform(&region.catalog, 1.0));
//! broker.register_reservation("web");
//!
//! // Solve and persist targets.
//! let mut solver = AsyncSolver::default();
//! let out = solver.solve(&region, &[spec], &broker.snapshot(SimTime::ZERO)).unwrap();
//! solver.apply(&out, &mut broker).unwrap();
//! assert!(broker.pending_moves().len() >= 40);
//! ```

pub use ras_broker as broker;
pub use ras_core as core;
pub use ras_milp as milp;
pub use ras_mover as mover;
pub use ras_sim as sim;
pub use ras_topology as topology;
pub use ras_twine as twine;
pub use ras_workloads as workloads;
