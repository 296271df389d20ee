//! Regression tests for three latent level-2 placement bugs.
//!
//! They drive the *public* scheduler and allocator APIs and fail against
//! the pre-fix allocator behavior:
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

use ras_broker::{ReservationId, ResourceBroker, SimTime};
use ras_topology::{Region, RegionBuilder, RegionTemplate, ServerId};
use ras_twine::{
    ContainerId, ContainerSpec, JobId, JobSpec, JobState, TwineAllocator, TwineScheduler,
};

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
    let mut sched = TwineScheduler::new();

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
    let (ac, am) = sched.allocator.free_capacity_of(&region, a);
    let filler_a = job(
        r,
        ContainerSpec {
            cores: ac - 7.0,
            memory_gib: am - 12.0,
        },
        1,
        false,
    );
    let fa = sched.submit(&region, &mut broker, filler_a);
    assert_eq!(sched.state(fa), Some(JobState::Running));

    // The anti-affinity job wants 2 replicas; only 1 fits right now.
    let anti = sched.submit(
        &region,
        &mut broker,
        job(r, ContainerSpec::small(), 2, true),
    );
    assert_eq!(sched.state(anti), Some(JobState::Pending));
    assert_eq!(sched.placed_replicas(anti), 1);

    // Capacity arrives: `b` (same rack as the placed replica) is filled
    // until it is the tightest best-fit for a small container, `c`
    // (different rack) stays empty and is therefore the *loosest* fit.
    broker.bind_current(b, Some(r)).unwrap();
    let (bc, bm) = sched.allocator.free_capacity_of(&region, b);
    let filler_b = job(
        r,
        ContainerSpec {
            cores: bc - 5.0,
            memory_gib: bm - 9.0,
        },
        1,
        false,
    );
    let fb = sched.submit(&region, &mut broker, filler_b);
    assert_eq!(sched.state(fb), Some(JobState::Running));
    broker.bind_current(c, Some(r)).unwrap();

    // The retry must remember replica 1 on rack(a): anti-affinity sends
    // replica 2 to `c`, not to the tighter same-rack `b`.
    sched.process(&region, &mut broker, SimTime::from_minutes(5));
    assert_eq!(sched.state(anti), Some(JobState::Running));
    assert_eq!(sched.placed_replicas(anti), 2);
    assert_eq!(
        sched.allocator.containers_on(c),
        1,
        "retried replica must spread to the other rack"
    );
    assert_eq!(
        sched.allocator.containers_on(b),
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
    let mut sched = TwineScheduler::new();
    let id = sched.submit(
        &region,
        &mut broker,
        job(r, ContainerSpec::small(), 2, false),
    );
    assert_eq!(sched.state(id), Some(JobState::Running));

    // Best-fit stacks both replicas on one server, which makes that
    // server the tightest fit for its own evacuees.
    let victim = broker
        .iter()
        .find(|(_, rec)| rec.running_containers == 2)
        .map(|(s, _)| s)
        .expect("best-fit stacks both replicas on one server");

    // Preemption drain: the server stays up.
    let (moved, lost) = sched.evacuate(&region, &mut broker, victim);
    assert_eq!((moved, lost), (2, 0));
    assert_eq!(
        sched.allocator.containers_on(victim),
        0,
        "evacuees must not land back on the drained server"
    );
    assert_eq!(broker.record(victim).unwrap().running_containers, 0);
    assert_eq!(sched.state(id), Some(JobState::Running));
    assert_eq!(sched.placed_replicas(id), 2);
}

/// A server holding three container shapes of two anti-affinity jobs is
/// drained in ascending container id, so every container lands on the
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
        // stacks there: job 0 changes shape between its two submissions.
        broker.bind_current(victim, Some(r)).unwrap();
        let load = [
            (JobId(0), ContainerSpec::small(), 2),
            (JobId(1), ContainerSpec::memory_heavy(), 1),
            (JobId(0), ContainerSpec::cores_heavy(), 1),
        ];
        for (id, spec, replicas) in load {
            let (placed, unplaced) =
                alloc.submit_partial_as(&region, &mut broker, id, job(r, spec, replicas, true));
            assert_eq!((placed.len(), unplaced), (replicas as usize, 0));
        }
        assert_eq!(alloc.containers_on(victim), 4);
        // Capacity arrives in two racks, fewer than job 0 has replicas,
        // so where a container lands depends on who went first.
        for i in [10, 11, 20] {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        assert_eq!(alloc.evacuate(&region, &mut broker, victim), (4, 0));
        // Re-placed containers carry fresh ids, minted in drain order.
        (0..20).map(|c| alloc.server_of(ContainerId(c))).collect()
    };
    let first = drain();
    assert_eq!(first.iter().flatten().count(), 4);
    for repetition in 1..20 {
        assert_eq!(drain(), first, "repetition {repetition} landed differently");
    }
}
