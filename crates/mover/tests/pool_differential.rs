//! Differential oracle for the mover's replacement pools: after *any*
//! interleaving of bind / unbind / `mark_down` / `mark_up` / container
//! count changes / target execution / failure handling, on a tiny and a
//! medium region, `OnlineMover::handle_failures` replaces every failed
//! server with the one the fleet scan (`support`) picks, and inspects a
//! number of servers bounded by hardware types and buffers, not the fleet.

mod support;

use std::sync::OnceLock;

use proptest::prelude::*;
use ras_broker::{
    ReservationId, ResourceBroker, SimTime, SubscriberId, UnavailabilityEvent, UnavailabilityKind,
};
use ras_core::rru::RruTable;
use ras_core::ReservationSpec;
use ras_mover::{MoverConfig, OnlineMover};
use ras_topology::{Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};

/// Servers the operations may name.
const POOL: usize = 96;
/// Two guaranteed reservations (one that takes only some hardware), two
/// shared buffers, one elastic.
const RESERVATIONS: u8 = 5;

#[derive(Debug, Clone)]
enum Op {
    Bind { server: u8, reservation: Option<u8> },
    Down { server: u8, planned: bool },
    Up { server: u8 },
    Containers { server: u8, count: u32 },
    Target { server: u8, reservation: Option<u8> },
    ExecuteTargets,
    HandleFailures,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reservation = || prop::option::of(0..RESERVATIONS);
    prop_oneof![
        (0u8..=254, reservation()).prop_map(|(server, reservation)| Op::Bind {
            server,
            reservation
        }),
        (0u8..=254, 0u8..4).prop_map(|(server, planned)| Op::Down {
            server,
            planned: planned == 0,
        }),
        (0u8..=254, 0u8..4).prop_map(|(server, planned)| Op::Down {
            server,
            planned: planned == 0,
        }),
        (0u8..=254).prop_map(|server| Op::Up { server }),
        // The lowest ids are the likeliest answers: keep them busy.
        (0u8..24, 0u32..3).prop_map(|(server, count)| Op::Containers { server, count }),
        (0u8..=254, reservation()).prop_map(|(server, reservation)| Op::Target {
            server,
            reservation
        }),
        Just(Op::ExecuteTargets),
        Just(Op::HandleFailures),
    ]
}

fn specs(region: &Region) -> Vec<ReservationSpec> {
    let all = RruTable::uniform(&region.catalog, 1.0);
    // Only every other hardware type serves the picky reservation.
    let mut some = RruTable::empty(&region.catalog);
    for hw in region.catalog.iter().step_by(2) {
        some.set(hw.id, 1.0);
    }
    vec![
        ReservationSpec::guaranteed("web", 10.0, all.clone()),
        ReservationSpec::guaranteed("picky", 10.0, some),
        ReservationSpec::shared_buffer("buffer-a", 5.0, all.clone()),
        ReservationSpec::shared_buffer("buffer-b", 5.0, all.clone()),
        ReservationSpec::elastic("batch", all),
    ]
}

fn pool_of(region: &Region) -> Vec<ServerId> {
    let stride = region.server_count() / POOL;
    (0..POOL)
        .map(|i| ServerId::from_index(i * stride))
        .collect()
}

fn regions() -> &'static [Region; 2] {
    static REGIONS: OnceLock<[Region; 2]> = OnceLock::new();
    REGIONS.get_or_init(|| {
        [
            RegionBuilder::new(RegionTemplate::tiny(), 42).build(),
            RegionBuilder::new(RegionTemplate::medium(), 42).build(),
        ]
    })
}

fn new_broker(region: &Region, pool: &[ServerId]) -> ResourceBroker {
    let mut broker = ResourceBroker::new(region.server_count());
    for r in 0..RESERVATIONS {
        broker.register_reservation(format!("r{r}"));
    }
    // Everything outside the pool belongs to the elastic reservation, so
    // that replacements come from servers the operations can reach.
    let elastic = ReservationId::from_index(usize::from(RESERVATIONS) - 1);
    for s in 0..region.server_count() {
        broker
            .bind_current(ServerId::from_index(s), Some(elastic))
            .unwrap();
    }
    for (i, s) in pool.iter().enumerate() {
        let binding = (i % 6 != 5).then_some(ReservationId::from_index(i % 4));
        broker.bind_current(*s, binding).unwrap();
    }
    broker
}

/// Applies the operations both sides share.
fn apply(broker: &mut ResourceBroker, pool: &[ServerId], op: &Op) {
    let pick = |i: u8| pool[i as usize % pool.len()];
    let reservation = |r: Option<u8>| r.map(|r| ReservationId::from_index(usize::from(r)));
    match *op {
        Op::Bind {
            server,
            reservation: r,
        } => {
            broker.bind_current(pick(server), reservation(r)).unwrap();
        }
        Op::Down { server, planned } => {
            let server = pick(server);
            let kind = if planned {
                UnavailabilityKind::PlannedMaintenance
            } else {
                UnavailabilityKind::UnplannedHardware
            };
            broker
                .mark_down(UnavailabilityEvent {
                    server,
                    kind,
                    scope: ScopeId::Server(server),
                    start: SimTime::ZERO,
                    expected_end: None,
                })
                .unwrap();
        }
        Op::Up { server } => broker.mark_up(pick(server), SimTime::ZERO).unwrap(),
        Op::Containers { server, count } => {
            broker.set_running_containers(pick(server), count).unwrap();
        }
        Op::Target {
            server,
            reservation: r,
        } => {
            broker.set_target(pick(server), reservation(r)).unwrap();
        }
        Op::ExecuteTargets | Op::HandleFailures => {}
    }
}

/// `execute_targets` as a plain walk: every up server's binding follows
/// its target.
fn execute_by_scan(broker: &mut ResourceBroker) -> usize {
    let pending: Vec<_> = broker
        .iter()
        .filter(|(_, r)| r.target != r.current && r.is_up())
        .map(|(s, r)| (s, r.target))
        .collect();
    for (s, target) in &pending {
        broker.bind_current(*s, *target).unwrap();
    }
    pending.len()
}

fn run(region: &Region, ops: &[Op]) {
    let pool = pool_of(region);
    let specs = specs(region);
    let mut indexed = new_broker(region, &pool);
    let mut scanned = new_broker(region, &pool);
    let mut mover = OnlineMover::new(&mut indexed, MoverConfig::default());
    let subscriber: SubscriberId = scanned.subscribe();
    // Every pool lookup inspects one server: the ideal pass looks at the
    // failed type in each buffer, the fallback at each type in the free
    // pool and each buffer.
    let buffers = 2;
    let per_replacement = buffers + region.catalog.len() * (buffers + 1);
    for (step, op) in ops.iter().enumerate() {
        apply(&mut indexed, &pool, op);
        apply(&mut scanned, &pool, op);
        match op {
            Op::ExecuteTargets => {
                let moved = mover.execute_targets(&mut indexed, SimTime::ZERO, |_, _| {});
                assert_eq!(moved, execute_by_scan(&mut scanned), "step {step}");
            }
            Op::HandleFailures => {
                let got = mover.handle_failures(region, &specs, &mut indexed, SimTime::ZERO);
                let want =
                    support::handle_failures_by_scan(region, &specs, &mut scanned, subscriber);
                assert_eq!(got, want, "step {step}: replacements differ");
                assert!(
                    mover.last_servers_inspected <= per_replacement * got.len().max(1),
                    "step {step}: inspected {} servers for {} replacements",
                    mover.last_servers_inspected,
                    got.len()
                );
            }
            _ => {}
        }
        for s in &pool {
            assert_eq!(
                indexed.record(*s).unwrap().current,
                scanned.record(*s).unwrap().current,
                "step {step} {op:?}: binding of {s}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pools_replace_with_the_scans_server_tiny(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        run(&regions()[0], &ops);
    }

    #[test]
    fn pools_replace_with_the_scans_server_medium(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        run(&regions()[1], &ops);
    }
}
