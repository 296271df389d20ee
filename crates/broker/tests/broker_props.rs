//! Property-based tests for the Resource Broker: version monotonicity,
//! CAS linearizability under random operation sequences, snapshot
//! isolation, event-delivery completeness, and the maintained membership
//! sets and change feed against a fresh walk of the records.

use proptest::prelude::*;
use ras_broker::{
    EventNotice, ReservationId, ResourceBroker, ServerRecord, SimTime, UnavailabilityEvent,
    UnavailabilityKind,
};
use ras_topology::{ScopeId, ServerId};

/// A random broker operation.
#[derive(Debug, Clone)]
enum Op {
    SetTarget(u32, Option<u32>),
    Bind(u32, Option<u32>),
    SetElastic(u32, Option<u32>),
    Containers(u32, u32),
    /// Server, index into [`KINDS`], and the expected end's offset from
    /// the start when the event knows it.
    Down(u32, usize, Option<u64>),
    Up(u32),
}

const KINDS: [UnavailabilityKind; 4] = [
    UnavailabilityKind::PlannedMaintenance,
    UnavailabilityKind::UnplannedHardware,
    UnavailabilityKind::UnplannedSoftware,
    UnavailabilityKind::CorrelatedFailure,
];

/// Server ids: a few low ones (so operations meet on one server), the
/// ids on both sides of the first word boundary (64), and any of the
/// fleet, whose 150 servers span three words of the broker's sets.
fn arb_server(servers: u32) -> impl Strategy<Value = u32> {
    prop_oneof![0..8u32, 60..70u32, 0..servers].prop_map(move |s| s % servers)
}

fn arb_op(servers: u32, reservations: u32) -> impl Strategy<Value = Op> {
    let s = || arb_server(servers);
    let r = || prop::option::of(0..reservations);
    prop_oneof![
        (s(), r()).prop_map(|(s, r)| Op::SetTarget(s, r)),
        (s(), r()).prop_map(|(s, r)| Op::Bind(s, r)),
        (s(), r()).prop_map(|(s, r)| Op::SetElastic(s, r)),
        (s(), 0u32..5).prop_map(|(s, c)| Op::Containers(s, c)),
        (s(), 0..KINDS.len(), prop::option::of(1u64..48))
            .prop_map(|(s, kind, end)| Op::Down(s, kind, end)),
        s().prop_map(Op::Up),
    ]
}

const N: u32 = 150;

fn reservation(r: Option<u32>) -> Option<ReservationId> {
    r.map(|r| ReservationId::from_index(r as usize))
}

/// Every field of a record, the event's included, by value. The
/// destructuring is exhaustive, so a field added to either type must be
/// added here.
type RecordFields = (
    Option<ReservationId>,
    Option<ReservationId>,
    Option<ReservationId>,
    Option<(
        ServerId,
        UnavailabilityKind,
        ScopeId,
        SimTime,
        Option<SimTime>,
    )>,
    u32,
    u64,
);

fn fields(record: &ServerRecord) -> RecordFields {
    let ServerRecord {
        target,
        current,
        elastic,
        unavailability,
        running_containers,
        version,
    } = record;
    let event = unavailability.as_deref().map(|event| {
        let UnavailabilityEvent {
            server,
            kind,
            scope,
            start,
            expected_end,
        } = *event;
        (server, kind, scope, start, expected_end)
    });
    (
        *target,
        *current,
        *elastic,
        event,
        *running_containers,
        *version,
    )
}

fn apply(broker: &mut ResourceBroker, op: &Op, t: u64) {
    match op {
        Op::SetTarget(s, r) => {
            let _ = broker.set_target(ServerId(*s), reservation(*r));
        }
        Op::Bind(s, r) => {
            let _ = broker.bind_current(ServerId(*s), reservation(*r));
        }
        Op::SetElastic(s, r) => {
            let _ = broker.set_elastic(ServerId(*s), reservation(*r));
        }
        Op::Containers(s, c) => {
            let _ = broker.set_running_containers(ServerId(*s), *c);
        }
        Op::Down(s, kind, end) => {
            let _ = broker.mark_down(UnavailabilityEvent {
                server: ServerId(*s),
                kind: KINDS[*kind],
                scope: ScopeId::Server(ServerId(*s)),
                start: SimTime(t),
                expected_end: end.map(|d| SimTime(t + d)),
            });
        }
        Op::Up(s) => {
            let _ = broker.mark_up(ServerId(*s), SimTime(t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn versions_are_monotonic(ops in prop::collection::vec(arb_op(N, 3), 1..60)) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        let mut last_versions = vec![0u64; N as usize];
        for (t, op) in ops.iter().enumerate() {
            apply(&mut broker, op, t as u64);
            for s in 0..N {
                let v = broker.record(ServerId(s)).unwrap().version;
                prop_assert!(v >= last_versions[s as usize], "version went backwards");
                last_versions[s as usize] = v;
            }
        }
    }

    #[test]
    fn cas_only_succeeds_on_matching_version(
        ops in prop::collection::vec(arb_op(N, 3), 1..40),
        cas_at in 0usize..40,
    ) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        let mut stale: Option<(ServerId, u64)> = None;
        for (t, op) in ops.iter().enumerate() {
            if t == cas_at {
                stale = Some((ServerId(0), broker.record(ServerId(0)).unwrap().version));
            }
            apply(&mut broker, op, t as u64);
        }
        if let Some((s, v)) = stale {
            let now = broker.record(s).unwrap().version;
            let result = broker.cas_target(s, v, Some(ReservationId::from_index(1)));
            if now == v {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err(), "stale CAS must fail ({v} vs {now})");
            }
        }
    }

    #[test]
    fn snapshots_are_isolated(ops in prop::collection::vec(arb_op(N, 3), 1..40)) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        let mid = ops.len() / 2;
        for (t, op) in ops[..mid].iter().enumerate() {
            apply(&mut broker, op, t as u64);
        }
        let snapshot = broker.snapshot(SimTime(mid as u64));
        let live: Vec<RecordFields> = broker.iter().map(|(_, r)| fields(r)).collect();
        for (t, op) in ops[mid..].iter().enumerate() {
            apply(&mut broker, op, (mid + t) as u64);
        }
        // The snapshot holds every field of every record, the event's
        // included, as the broker had it at the snapshot point, and
        // observed none of the writes after it.
        prop_assert_eq!(snapshot.records.len(), live.len());
        for (s, (record, at_snapshot)) in snapshot.records.iter().zip(&live).enumerate() {
            prop_assert_eq!(&fields(record), at_snapshot, "server {}", s);
            prop_assert_eq!(record.is_up(), at_snapshot.3.is_none(), "server {}", s);
        }
        for (s, record) in broker.iter() {
            prop_assert_eq!(record.is_up(), record.unavailability.is_none(), "{}", s);
        }
    }

    #[test]
    fn every_down_up_pair_is_delivered(ops in prop::collection::vec(arb_op(N, 3), 1..60)) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        let sub = broker.subscribe();
        let mut expected = 0usize;
        for (t, op) in ops.iter().enumerate() {
            let was_up = match op {
                Op::Down(s, ..) => broker.record(ServerId(*s)).unwrap().is_up(),
                Op::Up(s) => !broker.record(ServerId(*s)).unwrap().is_up(),
                _ => false,
            };
            apply(&mut broker, op, t as u64);
            match op {
                // mark_down always publishes; mark_up only on transition.
                Op::Down(..) => expected += 1,
                Op::Up(_) if was_up => expected += 1,
                _ => {}
            }
        }
        let notices = broker.drain_events(sub);
        prop_assert_eq!(notices.len(), expected);
        // Down notices carry the event payload.
        for n in notices {
            match n {
                EventNotice::Down(e) => prop_assert!(e.server.0 < N),
                EventNotice::Recovered { server, .. } => prop_assert!(server.0 < N),
            }
        }
    }

    #[test]
    fn maintained_sets_equal_a_fresh_filter(
        ops in prop::collection::vec(arb_op(N, 3), 1..80),
        cas in prop::collection::vec((arb_server(N), prop::option::of(0u32..3)), 0..8),
    ) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        let check = |broker: &ResourceBroker| {
            let servers_where = |keep: &dyn Fn(&ServerRecord) -> bool| -> Vec<ServerId> {
                broker.iter().filter(|(_, r)| keep(r)).map(|(s, _)| s).collect()
            };
            for r in (0..3).map(ReservationId::from_index) {
                let scan = servers_where(&|rec| rec.current == Some(r));
                assert_eq!(broker.members_of(r), scan);
                assert_eq!(broker.members(r).collect::<Vec<_>>(), scan);
                assert_eq!(broker.member_count(r), scan.len());
            }
            assert_eq!(
                broker.unbound().collect::<Vec<_>>(),
                servers_where(&|rec| rec.current.is_none())
            );
            assert_eq!(
                broker.pending_moves(),
                servers_where(&|rec| rec.target != rec.current)
            );
        };
        check(&broker);
        for (t, op) in ops.iter().enumerate() {
            apply(&mut broker, op, t as u64);
            check(&broker);
        }
        // Emergency-path writes keep the pending set current too.
        for (s, target) in cas {
            let v = broker.record(ServerId(s)).unwrap().version;
            broker.cas_target(ServerId(s), v, reservation(target)).unwrap();
            check(&broker);
        }
    }

    #[test]
    fn change_feed_reports_every_changed_server(
        ops in prop::collection::vec(arb_op(N, 3), 1..80),
        drain_every in 1usize..12,
    ) {
        let mut broker = ResourceBroker::new(N as usize);
        for _ in 0..3 {
            broker.register_reservation("r");
        }
        // What a consumer indexes: binding, health, container count.
        let view = |broker: &ResourceBroker, s: u32| {
            let r = broker.record(ServerId(s)).unwrap();
            (r.current, r.is_up(), r.running_containers)
        };
        let feed = broker.watch_changes();
        let drained = |broker: &mut ResourceBroker| {
            let mut changed = Vec::new();
            broker.take_changes(feed, |s, _| changed.push(s));
            changed
        };
        prop_assert_eq!(
            drained(&mut broker).len(),
            N as usize,
            "a new consumer starts from every server"
        );
        let mut seen: Vec<_> = (0..N).map(|s| view(&broker, s)).collect();
        for (t, op) in ops.iter().enumerate() {
            apply(&mut broker, op, t as u64);
            if t % drain_every != 0 {
                continue;
            }
            let changed = drained(&mut broker);
            let mut once = changed.clone();
            once.sort_unstable();
            once.dedup();
            prop_assert_eq!(once.len(), changed.len(), "a server is reported once per drain");
            for s in 0..N {
                let now = view(&broker, s);
                if now != seen[s as usize] {
                    prop_assert!(changed.contains(&ServerId(s)), "change of {} not reported", s);
                    seen[s as usize] = now;
                }
            }
        }
    }
}
