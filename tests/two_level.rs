//! The two-level architecture's central performance claim: container
//! placement work scales with *reservation* size, not *region* size —
//! because RAS removed server assignment from the critical path.

use std::collections::BTreeSet;

use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::rru::RruTable;
use ras::core::{AsyncSolver, ReservationSpec};
use ras::mover::{MoverConfig, OnlineMover};
use ras::topology::{Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras::twine::{ContainerSpec, JobSpec, JobState, TwineAllocator};

/// Places one job in a region of the given template and returns the
/// candidate-evaluation count of the placement call.
fn candidates_for(template: RegionTemplate, seed: u64) -> usize {
    let region = RegionBuilder::new(template, seed).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![ReservationSpec::guaranteed(
        "web",
        30.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    broker.register_reservation("web");
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    for s in broker.pending_moves() {
        let t = broker.record(s).map(|r| r.target).unwrap_or(None);
        let _ = broker.bind_current(s, t);
    }
    let mut twine = TwineAllocator::new();
    let id = twine.submit(
        &region,
        &mut broker,
        JobSpec {
            name: "probe".into(),
            reservation: ras::broker::ReservationId::from_index(0),
            container: ContainerSpec::small(),
            replicas: 5,
            rack_anti_affinity: false,
        },
    );
    assert_eq!(twine.state(id), Some(JobState::Running));
    twine.last_candidates_evaluated
}

#[test]
fn placement_work_tracks_reservation_not_region() {
    // Same 30-RRU reservation in a 360-server and a 7200-server region:
    // the candidate set the allocator scans must stay in the same ballpark
    // (member count), not grow 20× with the region.
    let small = candidates_for(RegionTemplate::tiny(), 31);
    let large = candidates_for(RegionTemplate::medium(), 31);
    assert!(
        large <= small * 3,
        "placement work grew with region size: {small} -> {large}"
    );
}

/// Replicas of the probe job and failed members of
/// [`level2_work`].
const REPLICAS: usize = 6;
const FAILURES: usize = 5;

/// Binds `members` to one guaranteed reservation of the medium region
/// (the rest of the first 3 000 servers to another, the next 100 to a
/// shared buffer, so that only the reservation's size varies between
/// calls), places one anti-affinity job
/// of [`REPLICAS`] and replaces [`FAILURES`] failed members. Returns the
/// work counters: `(candidates evaluated, servers the mover inspected)`.
fn level2_work(region: &Region, members: &[ServerId]) -> (usize, usize) {
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", members.len() as f64, rru.clone()),
        ReservationSpec::shared_buffer("buffer", 100.0, rru.clone()),
        ReservationSpec::guaranteed("rest", 3000.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    let web = broker.register_reservation("web");
    let buffer = broker.register_reservation("buffer");
    let rest = broker.register_reservation("rest");
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    for i in 0..3000 {
        broker.bind_current(ServerId(i), Some(rest)).expect("bind");
    }
    for s in members {
        broker.bind_current(*s, Some(web)).expect("bind member");
    }
    for i in 3000..3100 {
        broker
            .bind_current(ServerId(i), Some(buffer))
            .expect("bind buffer");
    }

    let mut twine = TwineAllocator::new();
    let (placed, unplaced) = twine.submit_partial(
        region,
        &mut broker,
        JobSpec {
            name: "probe".into(),
            reservation: web,
            container: ContainerSpec::small(),
            replicas: REPLICAS as u32,
            rack_anti_affinity: true,
        },
    );
    assert_eq!((placed.len(), unplaced), (REPLICAS, 0));

    // The first member of some racks fails (both member sets hold them).
    for i in 0..FAILURES {
        let server = ServerId::from_index(i * 60);
        broker
            .mark_down(UnavailabilityEvent {
                server,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(server),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .expect("mark down");
    }
    let replaced = mover.handle_failures(region, &specs, &mut broker, SimTime::ZERO);
    assert_eq!(replaced.len(), FAILURES);
    (
        twine.last_candidates_evaluated,
        mover.last_servers_inspected,
    )
}

#[test]
fn level2_work_is_flat_in_reservation_size() {
    // A counter, not a clock: the allocator scores one representative per
    // capacity-state bucket and steps over the racks the job already
    // uses; the mover looks at pool heads. Neither walks the members, so
    // 30 times the members cost exactly the same work.
    let region = RegionBuilder::new(RegionTemplate::medium(), 31).build();
    // 100 members: two servers of every sixth rack of the first 3 000
    // servers; 3 000 members: all of them.
    let few: Vec<ServerId> = (0..100).map(|i| ServerId(i / 2 * 60 + i % 2)).collect();
    let many: Vec<ServerId> = (0..3000).map(ServerId).collect();
    // Buckets are per hardware type, so both sets must offer the same types.
    let types = |members: &[ServerId]| -> BTreeSet<_> {
        members.iter().map(|s| region.server(*s).hardware).collect()
    };
    assert_eq!(
        types(&few),
        types(&many),
        "pick a seed whose sets share their types"
    );

    let (place_few, replace_few) = level2_work(&region, &few);
    let (place_many, replace_many) = level2_work(&region, &many);
    assert_eq!(place_few, place_many, "allocator work for the job");
    assert_eq!(replace_few, replace_many, "mover work for the failures");
    assert!(
        place_many <= 64 * REPLICAS,
        "{place_many} candidates for {REPLICAS} replicas"
    );
    assert!(
        replace_many <= 64 * FAILURES,
        "{replace_many} servers for {FAILURES} replacements"
    );
}

#[test]
fn capacity_requests_do_not_block_container_requests() {
    // While a (slow) capacity request is being solved, container
    // placement inside existing reservations keeps working — here by
    // construction: Twine only reads broker bindings, never the solver.
    let region = RegionBuilder::new(RegionTemplate::tiny(), 32).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![ReservationSpec::guaranteed(
        "web",
        30.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    let web = broker.register_reservation("web");
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    for s in broker.pending_moves() {
        let t = broker.record(s).map(|r| r.target).unwrap_or(None);
        let _ = broker.bind_current(s, t);
    }
    // Take the snapshot a big new capacity request would solve against…
    let snapshot = broker.snapshot(SimTime::from_hours(1));
    // …and place containers meanwhile.
    let mut twine = TwineAllocator::new();
    let id = twine.submit(
        &region,
        &mut broker,
        JobSpec {
            name: "during-solve".into(),
            reservation: web,
            container: ContainerSpec::small(),
            replicas: 10,
            rack_anti_affinity: true,
        },
    );
    assert_eq!(twine.state(id), Some(JobState::Running));
    // The solver still sees its consistent snapshot from before.
    assert!(snapshot.records.iter().all(|r| r.running_containers == 0));
}

#[test]
fn evacuated_containers_stay_with_their_jobs() {
    // A failure drains a member of a RAS-built reservation: every
    // container moves under its own id, so a scale-down and a job stop
    // afterwards reach the moved ones too and nothing keeps running for a
    // job that no longer wants it.
    let region = RegionBuilder::new(RegionTemplate::tiny(), 32).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![ReservationSpec::guaranteed(
        "web",
        30.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    let web = broker.register_reservation("web");
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    for s in broker.pending_moves() {
        let t = broker.record(s).map(|r| r.target).unwrap_or(None);
        let _ = broker.bind_current(s, t);
    }
    let mut twine = TwineAllocator::new();
    let id = twine.submit(
        &region,
        &mut broker,
        JobSpec {
            name: "stateful".into(),
            reservation: web,
            container: ContainerSpec::small(),
            replicas: 12,
            rack_anti_affinity: false,
        },
    );
    assert_eq!(twine.state(id), Some(JobState::Running));
    let ids = twine.containers_of(id).to_vec();
    let victim = twine.server_of(ids[0]).expect("placed");
    broker
        .mark_down(UnavailabilityEvent {
            server: victim,
            kind: UnavailabilityKind::UnplannedHardware,
            scope: ScopeId::Server(victim),
            start: SimTime::ZERO,
            expected_end: None,
        })
        .expect("mark down");
    let (moved, lost) = twine.evacuate(&region, &mut broker, victim);
    assert!(moved > 0 && lost == 0, "moved {moved}, lost {lost}");
    assert_eq!(twine.containers_of(id), ids.as_slice(), "ids kept");
    assert!(ids.iter().all(|c| twine.server_of(*c) != Some(victim)));

    twine.scale(&region, &mut broker, id, 4).expect("known job");
    assert_eq!(twine.container_count(), 4);
    twine.stop_job(&mut broker, id);
    assert_eq!(twine.container_count(), 0);
    assert!(broker.iter().all(|(_, rec)| rec.running_containers == 0));
}

#[test]
fn host_profiles_are_reservation_scoped() {
    // Reservations carry host profiles; the mover applies them on join.
    // What the library guarantees: the spec keeps the profile and moves
    // re-derive it from the target reservation.
    let region = RegionBuilder::new(RegionTemplate::tiny(), 33).build();
    let spec = ReservationSpec::guaranteed("db", 10.0, RruTable::uniform(&region.catalog, 1.0))
        .with_host_profile(7);
    assert_eq!(spec.host_profile, 7);
    let clone = spec.clone();
    assert_eq!(clone.host_profile, 7, "profiles survive spec plumbing");
}
