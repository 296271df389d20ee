//! Regression tests for latent level-2 placement bugs.
//!
//! They drive the allocator's *public* job API and fail against the
//! pre-fix behavior:
//!
//! 1. `submit_partial` used to mint a fresh `JobId` on every call, so a
//!    scheduler retry (after capacity arrived) placed the remaining
//!    replicas under a *new* identity — the rack anti-affinity scan saw
//!    no prior replicas and happily co-located the job on one rack,
//!    while the job table accumulated duplicate specs.
//! 2. `evacuate` freed the victim's capacity before re-placing each
//!    container, so a still-up (preempted) server was the tightest
//!    best-fit for its own evacuees and they bounced straight back.
//! 3. `evacuate` collected its victims by walking a `HashMap`, so the
//!    order in which a server's *mixed* containers were re-placed — and
//!    with it where each landed — differed from process to process.
//! 4. `evacuate` re-placed every container under a fresh id while a
//!    separate scheduler kept each job's old ids: after an evacuation a
//!    scale-down or a job stop missed the moved containers (they kept
//!    running), and a lossy evacuation made `process` re-place the moved
//!    containers as well as the lost ones.

use ras_broker::{ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_topology::{Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras_twine::{ContainerId, ContainerSpec, JobSpec, JobState, TwineAllocator};

fn region() -> Region {
    RegionBuilder::new(RegionTemplate::tiny(), 42).build()
}

fn job(r: ReservationId, spec: ContainerSpec, replicas: u32, anti: bool) -> JobSpec {
    JobSpec {
        name: "j".into(),
        reservation: r,
        container: spec,
        replicas,
        rack_anti_affinity: anti,
    }
}

/// An anti-affinity job that only half-places must keep its identity
/// across the retry, so the second replica lands on a *different* rack
/// even when a same-rack server is the tighter best-fit.
#[test]
fn retry_after_capacity_arrival_respects_rack_anti_affinity() {
    let region = region();
    let mut broker = ResourceBroker::new(region.server_count());
    let r = broker.register_reservation("web");
    let mut alloc = TwineAllocator::new();

    // a = first server; b = a sibling in the same rack; c = any server
    // in a different rack.
    let a = ServerId(0);
    let rack_a = region.server(a).rack;
    let b = (1..region.server_count() as u32)
        .map(ServerId)
        .find(|s| region.server(*s).rack == rack_a)
        .expect("tiny region has more than one server per rack");
    let c = (1..region.server_count() as u32)
        .map(ServerId)
        .find(|s| region.server(*s).rack != rack_a)
        .expect("tiny region has more than one rack");

    // Only `a` is bound; fill it until exactly one small slot remains.
    broker.bind_current(a, Some(r)).unwrap();
    let (ac, am) = alloc.free_capacity_of(&region, a);
    let filler_a = job(
        r,
        ContainerSpec {
            cores: ac - 7.0,
            memory_gib: am - 12.0,
        },
        1,
        false,
    );
    let fa = alloc.submit(&region, &mut broker, filler_a);
    assert_eq!(alloc.state(fa), Some(JobState::Running));

    // The anti-affinity job wants 2 replicas; only 1 fits right now.
    let anti = alloc.submit(
        &region,
        &mut broker,
        job(r, ContainerSpec::small(), 2, true),
    );
    assert_eq!(alloc.state(anti), Some(JobState::Pending));
    assert_eq!(alloc.placed_replicas(anti), 1);

    // Capacity arrives: `b` (same rack as the placed replica) is filled
    // until it is the tightest best-fit for a small container, `c`
    // (different rack) stays empty and is therefore the *loosest* fit.
    broker.bind_current(b, Some(r)).unwrap();
    let (bc, bm) = alloc.free_capacity_of(&region, b);
    let filler_b = job(
        r,
        ContainerSpec {
            cores: bc - 5.0,
            memory_gib: bm - 9.0,
        },
        1,
        false,
    );
    let fb = alloc.submit(&region, &mut broker, filler_b);
    assert_eq!(alloc.state(fb), Some(JobState::Running));
    broker.bind_current(c, Some(r)).unwrap();

    // The retry must remember replica 1 on rack(a): anti-affinity sends
    // replica 2 to `c`, not to the tighter same-rack `b`.
    alloc.process(&region, &mut broker);
    assert_eq!(alloc.state(anti), Some(JobState::Running));
    assert_eq!(alloc.placed_replicas(anti), 2);
    assert_eq!(
        alloc.containers_on(c),
        1,
        "retried replica must spread to the other rack"
    );
    assert_eq!(
        alloc.containers_on(b),
        1,
        "same-rack server must only hold its filler container"
    );
}

/// Draining a still-up (preempted) server must not hand its containers
/// straight back to it, even though it is the tightest fit for them.
#[test]
fn preempted_server_drain_does_not_bounce_back() {
    let region = region();
    let mut broker = ResourceBroker::new(region.server_count());
    let r = broker.register_reservation("web");
    for i in 0..30 {
        broker.bind_current(ServerId(i), Some(r)).unwrap();
    }
    let mut alloc = TwineAllocator::new();
    let id = alloc.submit(
        &region,
        &mut broker,
        job(r, ContainerSpec::small(), 2, false),
    );
    assert_eq!(alloc.state(id), Some(JobState::Running));

    // Best-fit stacks both replicas on one server, which makes that
    // server the tightest fit for its own evacuees.
    let victim = broker
        .iter()
        .find(|(_, rec)| rec.running_containers == 2)
        .map(|(s, _)| s)
        .expect("best-fit stacks both replicas on one server");

    // Preemption drain: the server stays up.
    let (moved, lost) = alloc.evacuate(&region, &mut broker, victim);
    assert_eq!((moved, lost), (2, 0));
    assert_eq!(
        alloc.containers_on(victim),
        0,
        "evacuees must not land back on the drained server"
    );
    assert_eq!(broker.record(victim).unwrap().running_containers, 0);
    assert_eq!(alloc.state(id), Some(JobState::Running));
    assert_eq!(alloc.placed_replicas(id), 2);
}

/// A server holding three container shapes of three anti-affinity jobs
/// is drained in ascending container id, so every container lands on the
/// same server in every repetition (each repetition's hash maps draw
/// their own `RandomState`, as separate processes would).
#[test]
fn mixed_evacuation_lands_the_same_way_every_time() {
    let region = region();
    let victim = ServerId(0);
    let drain = || -> Vec<Option<ServerId>> {
        let mut broker = ResourceBroker::new(region.server_count());
        let r = broker.register_reservation("web");
        let mut alloc = TwineAllocator::new();
        // Only the victim is bound while the load arrives, so all of it
        // stacks there.
        broker.bind_current(victim, Some(r)).unwrap();
        let load = [
            (ContainerSpec::small(), 2),
            (ContainerSpec::memory_heavy(), 1),
            (ContainerSpec::cores_heavy(), 1),
        ];
        for (spec, replicas) in load {
            let (placed, unplaced) =
                alloc.submit_partial(&region, &mut broker, job(r, spec, replicas, true));
            assert_eq!((placed.len(), unplaced), (replicas as usize, 0));
        }
        assert_eq!(alloc.containers_on(victim), 4);
        // Capacity arrives in two racks, fewer than the load has
        // containers, so where a container lands depends on who went
        // first.
        for i in [10, 11, 20] {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        assert_eq!(alloc.evacuate(&region, &mut broker, victim), (4, 0));
        // Re-placed containers keep their ids.
        (0..20).map(|c| alloc.server_of(ContainerId(c))).collect()
    };
    let first = drain();
    assert_eq!(first.iter().flatten().count(), 4);
    assert!(first[..4].iter().all(|s| s.is_some_and(|s| s != victim)));
    for repetition in 1..20 {
        assert_eq!(drain(), first, "repetition {repetition} landed differently");
    }
}

/// A scale-down and a job stop after an evacuation reach the moved
/// containers: nothing keeps running for a job that no longer wants it.
#[test]
fn scale_and_stop_after_an_evacuation_reach_the_moved_containers() {
    let region = region();
    let mut broker = ResourceBroker::new(region.server_count());
    let r = broker.register_reservation("web");
    for i in 0..30 {
        broker.bind_current(ServerId(i), Some(r)).unwrap();
    }
    let mut alloc = TwineAllocator::new();
    let (placed, _) = alloc.submit_partial(
        &region,
        &mut broker,
        job(r, ContainerSpec::small(), 2, false),
    );
    let id = alloc.job_of(placed[0]).unwrap();
    let victim = alloc.server_of(placed[0]).unwrap();
    assert_eq!(alloc.containers_on(victim), 2, "best-fit stacks both");
    assert_eq!(alloc.evacuate(&region, &mut broker, victim), (2, 0));

    alloc.scale(&region, &mut broker, id, 1).unwrap();
    assert_eq!(alloc.placed_replicas(id), 1);
    assert_eq!(alloc.container_count(), 1, "the scale-down stopped one");

    alloc.stop_job(&mut broker, id);
    assert_eq!(alloc.container_count(), 0, "the stop reached the moved one");
    let running: u32 = broker.iter().map(|(_, rec)| rec.running_containers).sum();
    assert_eq!(running, 0);
}

/// After a lossy evacuation, `process` re-places only what was lost: the
/// moved containers still count towards their job.
#[test]
fn process_after_a_lossy_evacuation_places_only_the_lost() {
    let region = region();
    let mut broker = ResourceBroker::new(region.server_count());
    let r = broker.register_reservation("web");
    // Four servers of one hardware type, each holding exactly six
    // containers: the victim, two more members and a spare bound later.
    let victim = ServerId(0);
    let hardware = region.server(victim).hardware;
    let same: Vec<ServerId> = (0..region.server_count() as u32)
        .map(ServerId)
        .filter(|s| region.server(*s).hardware == hardware)
        .take(4)
        .collect();
    assert_eq!(same.len(), 4);
    let hw = region.catalog.get(hardware);
    let sixth = ContainerSpec {
        cores: (hw.cores / 6) as f64,
        memory_gib: (hw.memory_gib / 6) as f64,
    };
    for s in &same[..3] {
        broker.bind_current(*s, Some(r)).unwrap();
    }
    let mut alloc = TwineAllocator::new();
    // Best-fit fills the victim, then the next member, then 3 of 6 on
    // the third.
    let id = alloc.submit(&region, &mut broker, job(r, sixth, 6, false));
    alloc.scale(&region, &mut broker, id, 15).unwrap();
    assert_eq!(alloc.placed_replicas(id), 15);
    assert_eq!(alloc.containers_on(victim), 6);

    broker
        .mark_down(UnavailabilityEvent {
            server: victim,
            kind: UnavailabilityKind::UnplannedHardware,
            scope: ScopeId::Server(victim),
            start: SimTime::ZERO,
            expected_end: None,
        })
        .unwrap();
    assert_eq!(alloc.evacuate(&region, &mut broker, victim), (3, 3));
    assert_eq!(alloc.state(id), Some(JobState::Degraded));
    // The victim held ids 0–5 and drained in ascending id: 0–2 moved
    // under their own ids, 3–5 were lost.
    let kept: Vec<ContainerId> = (0..3).chain(6..15).map(ContainerId).collect();
    assert_eq!(alloc.containers_of(id), kept.as_slice());

    // The spare arrives with room for all six victims; only the three
    // lost ones may take it.
    broker.bind_current(same[3], Some(r)).unwrap();
    alloc.process(&region, &mut broker);
    assert_eq!(alloc.state(id), Some(JobState::Running));
    assert_eq!(alloc.placed_replicas(id), 15);
    assert_eq!(alloc.container_count(), 15, "no container placed twice");
    assert_eq!(alloc.containers_on(same[3]), 3);
}
