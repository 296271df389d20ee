//! A quiet round is a fixed point (monolithic half).
//!
//! A quiet round is one whose inputs — bindings, availability, specs and
//! parameters — equal the previous round's once that round's plan was
//! applied. On random tiny regions at one shard, the rounds converge,
//! and every quiet round after that returns the same targets, plans no
//! move and runs no phase 2, from the solver that planned the region and
//! from a fresh one alike: a round reads its inputs, not solver history.
//! The sharded half does not hold yet and is pinned in
//! `tests/known_defects.rs`.

use proptest::prelude::*;
use ras::broker::{ResourceBroker, SimTime};
use ras::core::rru::RruTable;
use ras::core::{AsyncSolver, ReservationSpec, SolveOutput};
use ras::topology::{RegionBuilder, RegionTemplate};

/// The last round index by which a region must reach a round that keeps
/// the broker's targets without phase 2. Round 1 is the first quiet
/// round, and at one shard it already keeps round 0's plan.
const CONVERGE_WITHIN: u64 = 1;

fn arb_world() -> impl Strategy<Value = (u64, Vec<f64>)> {
    // Seed plus 1-3 reservation sizes, each 10..60 RRUs.
    (0u64..1000, prop::collection::vec(10.0f64..60.0, 1..4))
}

/// Writes the round's targets and completes every move it planned.
fn apply_and_materialize(solver: &AsyncSolver, out: &SolveOutput, broker: &mut ResourceBroker) {
    solver.apply(out, broker).expect("apply");
    for s in broker.pending_moves() {
        let target = broker.record(s).expect("a region server").target;
        broker.bind_current(s, target).expect("the move completes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn monolithic_quiet_rounds_are_fixed_points((seed, sizes) in arb_world()) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), seed).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let specs: Vec<ReservationSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                ReservationSpec::guaranteed(
                    format!("svc{i}"),
                    c.round(),
                    RruTable::uniform(&region.catalog, 1.0),
                )
            })
            .collect();
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        let mut solver = AsyncSolver::default();

        // Converge: solve, apply and materialize until a round keeps the
        // targets it was given and runs no phase 2.
        let mut hour = 0;
        let plan = loop {
            prop_assert!(hour <= CONVERGE_WITHIN, "seed {}: no fixed point", seed);
            let snapshot = broker.snapshot(SimTime::from_hours(hour));
            let out = solver.solve(&region, &specs, &snapshot).expect("the round solves");
            let kept = out.targets.iter().zip(&snapshot.records).all(|(t, r)| *t == r.target);
            apply_and_materialize(&solver, &out, &mut broker);
            hour += 1;
            if kept && out.phase2.is_none() {
                break out.targets;
            }
        };

        for quiet in 0..3 {
            let snapshot = broker.snapshot(SimTime::from_hours(hour));
            let kept = solver.solve(&region, &specs, &snapshot).expect("a kept round");
            let fresh = AsyncSolver::default()
                .solve(&region, &specs, &snapshot)
                .expect("a fresh round");
            for (who, out) in [("kept", &kept), ("fresh", &fresh)] {
                prop_assert!(out.targets == plan, "seed {} quiet {} {}: targets", seed, quiet, who);
                prop_assert_eq!(out.moves.total(), 0, "seed {} quiet {} {}", seed, quiet, who);
                prop_assert!(out.phase2.is_none(), "seed {} quiet {} {}: phase 2", seed, quiet, who);
            }
            apply_and_materialize(&solver, &kept, &mut broker);
            hour += 1;
        }
    }
}
