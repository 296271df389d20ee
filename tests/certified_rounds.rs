//! Every plan the solver hands out is certified, in every build profile.
//!
//! The MIP auditor runs on every solve and its verdict binds: a solution
//! whose certificate fails is refused (`SolveError::Uncertified`), never
//! returned. So rounds run with default `SolverParams` — no audit setting
//! anywhere — must come back with every phase's model checked and its
//! certificate clean, under `cargo test` and plain `cargo test --release`
//! alike; and a spec no plan can meet, an infinite capacity, must be
//! refused with an error naming it rather than planned.

use ras::broker::{ReservationId, ResourceBroker, SimTime};
use ras::core::{AsyncSolver, CoreError, ReservationSpec, SolverParams};
use ras::topology::{Region, RegionTemplate};
use ras_bench::instance;

fn setup() -> (Region, Vec<ReservationSpec>, ResourceBroker) {
    let (region, specs) = instance::portfolio(RegionTemplate::tiny(), 2, 8, 0.6);
    let broker = instance::broker_for(&region, &specs);
    (region, specs, broker)
}

#[test]
fn default_rounds_certify_every_phase() {
    for shards in [1, 3] {
        let (region, specs, mut broker) = setup();
        let mut solver = AsyncSolver::new(SolverParams {
            shards,
            ..SolverParams::default()
        });
        // Round 0 solves cold, round 1 warm from it.
        for round in 0..2u64 {
            let snapshot = broker.snapshot(SimTime::from_hours(round));
            let output = solver
                .solve(&region, &specs, &snapshot)
                .expect("the round solves");
            let phases = output.audit_phases();
            assert!(!phases.is_empty());
            for (i, phase) in phases.iter().enumerate() {
                let audit = &phase.mip_stats.audit;
                assert!(
                    audit.model_checked && audit.certified_clean(),
                    "shards {shards}, round {round}, phase {i}: {audit:?}"
                );
            }
            solver.apply(&output, &mut broker).expect("apply");
        }
    }
}

#[test]
fn an_infinite_capacity_is_refused_naming_the_reservation() {
    let (region, mut specs, broker) = setup();
    specs[1].capacity = f64::INFINITY;
    let err = AsyncSolver::new(SolverParams::default())
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect_err("no plan meets an infinite capacity");
    assert_eq!(
        err,
        CoreError::NonFiniteCapacity {
            reservation: ReservationId::from_index(1),
            capacity: f64::INFINITY,
        }
    );
}
