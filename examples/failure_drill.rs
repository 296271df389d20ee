//! Failure drill: run a simulated week with random failures, maintenance
//! and one forced MSB-scale outage, and watch buffers absorb everything.
//!
//! Demonstrates the full loop: hourly solves, the Online Mover's
//! <1-minute shared-buffer replacement for random failures, embedded
//! buffers absorbing the correlated failure, and elastic loans being
//! revoked when the buffers are needed.
//!
//! Run with: `cargo run --release --example failure_drill`

use ras::broker::UnavailabilityKind;
use ras::core::rru::RruTable;
use ras::core::ReservationSpec;
use ras::mover::ElasticManager;
use ras::sim::{FailureRates, SimConfig, Simulation};
use ras::topology::{MsbId, RegionBuilder, RegionTemplate, ScopeId};
use ras::twine::health::{report_scope_down, report_scope_up};
use ras::twine::{ContainerSpec, JobSpec};

fn main() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 21).build();
    let config = SimConfig {
        failures: FailureRates {
            hardware_per_server_per_day: 0.01,
            msb_failures_per_month: 0.0, // We force one manually below.
            ..FailureRates::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(region, config);
    let catalog = sim.region.catalog.clone();

    // Guaranteed capacity + shared random-failure buffer + one elastic pool.
    let web = sim.add_spec(ReservationSpec::guaranteed(
        "web",
        50.0,
        RruTable::uniform(&catalog, 1.0),
    ));
    sim.add_shared_buffers(0.02);
    let elastic = sim.add_spec(ReservationSpec::elastic(
        "ml-offline",
        RruTable::uniform(&catalog, 1.0),
    ));

    // Day 1–2: steady state, containers running.
    sim.run_hours(24);
    let job = JobSpec {
        name: "web-frontend".into(),
        reservation: web,
        container: ContainerSpec::small(),
        replicas: 40,
        rack_anti_affinity: true,
    };
    let placed = {
        let Simulation {
            region,
            broker,
            twine,
            ..
        } = &mut sim;
        let id = twine.submit(region, broker, job);
        twine.placed_replicas(id)
    };
    println!("day 1: {placed} containers running in web");

    // Loan idle capacity to the elastic pool.
    let mgr = ElasticManager::new(elastic);
    let loaned = {
        let Simulation {
            broker,
            mover,
            specs,
            ..
        } = &mut sim;
        mgr.loan_idle(
            specs,
            broker,
            30,
            ras::broker::SimTime::from_hours(24),
            &mut mover.log,
        )
    };
    println!(
        "elastic: {} idle servers loaned to ml-offline",
        loaned.len()
    );

    sim.run_hours(24);
    let sample = sim.metrics.latest().unwrap();
    println!(
        "day 2: unavailability total={:.2}% unplanned={:.2}%",
        sample.unavailable_total * 100.0,
        sample.unavailable_unplanned * 100.0
    );

    // Day 3: force the failure of web's fullest MSB.
    let mut per_msb = vec![0usize; sim.region.msbs().len()];
    for s in sim.broker.members_of(web) {
        per_msb[sim.region.server(s).msb.index()] += 1;
    }
    let (worst, count) = per_msb
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map(|(i, c)| (i, *c))
        .unwrap();
    println!("day 3: forcing MSB {worst} failure ({count} web servers inside)");

    // Buffers are needed: revoke elastic loans (75 % now, 25 % delayed).
    let (immediate, delayed) = {
        let Simulation { broker, mover, .. } = &mut sim;
        mgr.revoke(
            broker,
            30,
            ras::broker::SimTime::from_hours(48),
            &mut mover.log,
        )
    };
    println!(
        "elastic revoke: {} immediate, {} within 30 min",
        immediate.len(),
        delayed.len()
    );

    let now = sim.now();
    {
        let Simulation {
            region,
            broker,
            twine,
            ..
        } = &mut sim;
        report_scope_down(
            broker,
            region,
            ScopeId::Msb(MsbId::from_index(worst)),
            UnavailabilityKind::CorrelatedFailure,
            now,
            Some(now.plus_hours(6)),
        )
        .expect("inject MSB failure");
        // Twine immediately restarts containers on embedded buffers.
        let victims: Vec<_> = broker
            .iter()
            .filter(|(_, r)| !r.is_up() && r.running_containers > 0)
            .map(|(s, _)| s)
            .collect();
        let mut moved = 0;
        for v in victims {
            moved += twine.evacuate(region, broker, v).0;
        }
        println!("twine: {moved} containers restarted on embedded buffers");
    }

    // Surviving healthy capacity still covers the guarantee.
    let healthy = sim
        .broker
        .members_of(web)
        .into_iter()
        .filter(|s| sim.broker.record(*s).unwrap().is_up())
        .count();
    println!(
        "web: {healthy} healthy servers after MSB loss (guarantee: 50) → {}",
        if healthy >= 50 { "SURVIVES" } else { "FAILS" }
    );
    assert!(healthy >= 50);
    assert_eq!(sim.twine.container_count(), 40, "no container lost");

    // Run through recovery: the drill injected the outage manually, so
    // it also clears it manually after the 6-hour window.
    sim.run_hours(6);
    let now = sim.now();
    report_scope_up(
        &mut sim.broker,
        &sim.region,
        ScopeId::Msb(MsbId::from_index(worst)),
        now,
    )
    .expect("clear MSB failure");
    sim.run_hours(6);
    println!(
        "after recovery: unavailability={:.2}%",
        sim.metrics.latest().unwrap().unavailable_total * 100.0
    );
}
