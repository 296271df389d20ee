//! Failure-injection ("chaos") integration tests: the simulated region
//! must uphold its capacity guarantees while random failures, planned
//! maintenance and correlated outages rain down.

use ras::broker::ReservationId;
use ras::core::rru::RruTable;
use ras::core::ReservationSpec;
use ras::sim::{FailureRates, SimConfig, Simulation};
use ras::topology::{RegionBuilder, RegionTemplate};

fn sim_with_failures(failures: FailureRates, seed: u64) -> (Simulation, ReservationId) {
    let region = RegionBuilder::new(RegionTemplate::tiny(), seed).build();
    let config = SimConfig {
        seed,
        solve_interval_hours: 2,
        tick_secs: 1200,
        failures,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(region, config);
    let catalog = sim.region.catalog.clone();
    let web = sim.add_spec(ReservationSpec::guaranteed(
        "web",
        45.0,
        RruTable::uniform(&catalog, 1.0),
    ));
    sim.add_shared_buffers(0.02);
    (sim, web)
}

#[test]
fn guarantee_survives_random_failure_storm() {
    let rates = FailureRates {
        hardware_per_server_per_day: 0.02, // 20× the paper's rate.
        software_per_server_per_day: 0.2,
        msb_failures_per_month: 0.0,
        power_row_per_row_per_year: 0.0,
        maintenance_per_msb_per_week: 0.0,
        ..FailureRates::default()
    };
    let (mut sim, web) = sim_with_failures(rates, 201);
    sim.run_hours(48);
    let healthy = sim
        .broker
        .members_of(web)
        .into_iter()
        .filter(|s| sim.broker.record(*s).unwrap().is_up())
        .count();
    assert!(
        healthy >= 44,
        "healthy membership {healthy} dropped below the guarantee"
    );
}

#[test]
fn correlated_failures_absorbed_by_embedded_buffers() {
    let rates = FailureRates {
        msb_failures_per_month: 20.0, // Roughly one outage every 36 hours.
        msb_outage_hours: (2.0, 4.0),
        hardware_per_server_per_day: 0.0,
        software_per_server_per_day: 0.0,
        power_row_per_row_per_year: 0.0,
        maintenance_per_msb_per_week: 0.0,
        ..FailureRates::default()
    };
    let (mut sim, web) = sim_with_failures(rates, 202);
    let mut worst_case = usize::MAX;
    for _ in 0..72 {
        sim.run_hours(1);
        let healthy = sim
            .broker
            .members_of(web)
            .into_iter()
            .filter(|s| sim.broker.record(*s).unwrap().is_up())
            .count();
        worst_case = worst_case.min(healthy);
    }
    // Even mid-outage, the embedded buffer keeps >= Cr healthy servers.
    assert!(
        worst_case >= 45,
        "embedded buffer breached: only {worst_case} healthy at the worst hour"
    );
}

#[test]
fn maintenance_pressure_does_not_trigger_replacement_churn() {
    let rates = FailureRates {
        maintenance_per_msb_per_week: 50.0,
        maintenance_hours: (1.0, 3.0),
        hardware_per_server_per_day: 0.0,
        software_per_server_per_day: 0.0,
        msb_failures_per_month: 0.0,
        power_row_per_row_per_year: 0.0,
        ..FailureRates::default()
    };
    let (mut sim, _) = sim_with_failures(rates, 203);
    sim.run_hours(24);
    // Planned maintenance must not consume the shared buffer: no
    // FailureReplacement moves.
    let replacement_moves = sim
        .mover
        .log
        .records()
        .iter()
        .filter(|r| r.reason == ras::mover::MoveReason::FailureReplacement)
        .count();
    assert_eq!(
        replacement_moves, 0,
        "planned events must be absorbed by embedded buffers"
    );
    // And maintenance actually happened.
    let peak = sim
        .metrics
        .samples()
        .iter()
        .map(|s| s.unavailable_planned)
        .fold(0.0, f64::max);
    assert!(peak > 0.0, "no maintenance was injected");
}

#[test]
fn mixed_chaos_region_stays_standing() {
    // Everything at once, elevated rates, three simulated days.
    let rates = FailureRates {
        hardware_per_server_per_day: 0.005,
        software_per_server_per_day: 0.1,
        msb_failures_per_month: 5.0,
        maintenance_per_msb_per_week: 3.0,
        ..FailureRates::default()
    };
    let (mut sim, web) = sim_with_failures(rates, 204);
    sim.run_hours(72);
    // The region must never report more unavailability than it has
    // servers, metrics must be sane, and the reservation must be intact
    // at the end (post-recovery).
    for s in sim.metrics.samples() {
        assert!(s.unavailable_total <= 1.0);
        assert!(s.unavailable_unplanned <= s.unavailable_total + 1e-9);
    }
    let members = sim.broker.member_count(web);
    assert!(members >= 45, "membership {members} lost during chaos");
}
