//! Figure 16: weekly server-movement churn, in-use vs unused moves.
//!
//! The paper's week: hourly churn stays under ≈1.5 % of the fleet, the
//! average hourly rate of *unused* moves is ≈10.6× the in-use rate (the
//! 10× smaller movement penalty at work), spikes align with working
//! hours (capacity requests from engineers), and off-hours moves are
//! mostly failure-driven.

use ras_broker::SimTime;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_sim::{FailureRates, SimConfig, Simulation};
use ras_topology::{RegionBuilder, RegionTemplate};
use ras_twine::{ContainerSpec, JobSpec};
use ras_workloads::{RequestGenerator, RequestGeneratorConfig};

use crate::{fmt, Experiment, Shape};

/// Regenerates Figure 16: a measured week, one day at [`Shape::Smoke`].
pub fn run(shape: Shape) -> Vec<Experiment> {
    let days = shape.pick(7u64, 1);
    let region = RegionBuilder::new(RegionTemplate::tiny(), 16).build();
    let fleet = region.server_count() as f64;
    let config = SimConfig {
        seed: 1616,
        solve_interval_hours: 1,
        tick_secs: 1200,
        failures: FailureRates {
            hardware_per_server_per_day: 0.004, // Off-hours move driver.
            ..FailureRates::quiet()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(region, config);
    let catalog = sim.region.catalog.clone();
    // Base load: 8 reservations at ~80 % fleet utilization, with
    // containers so most servers are in-use.
    let mut ids = Vec::new();
    for i in 0..8 {
        let id = sim.add_spec(ReservationSpec::guaranteed(
            format!("svc{i}"),
            (fleet * 0.095).round() + i as f64,
            RruTable::uniform(&catalog, 1.0),
        ));
        ids.push(id);
    }
    sim.add_shared_buffers(0.02);
    sim.solve_now().expect("the base load solves");
    // Spread containers so ~80 % of members run work (the paper's
    // occupancy) — anti-affinity prevents best-fit from packing them
    // onto a handful of hosts, which would leave every move "unused".
    for id in &ids {
        let job = JobSpec {
            name: format!("job{}", id.0),
            reservation: *id,
            container: ContainerSpec::small(),
            replicas: 34,
            rack_anti_affinity: true,
        };
        let Simulation {
            region,
            broker,
            twine,
            ..
        } = &mut sim;
        let _ = twine.submit(region, broker, job);
    }
    // Bootstrap day: the initial region build-out is not churn; let the
    // system settle before the measured week starts.
    sim.run_hours(24);

    // The measured days, with a diurnal capacity-request stream: requests
    // resize reservations during working hours.
    let gen = RequestGenerator::new(RequestGeneratorConfig::default());
    let mut rng_state = 0x1234_5678_u64;
    let mut rand01 = move || {
        // Tiny deterministic LCG, enough to thin out request arrivals.
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) as f64 / (1u64 << 31) as f64
    };
    let week_start = sim.now().as_hours();
    for hour in 0..days * 24 {
        let now = SimTime::from_hours(week_start + hour);
        // Working-hours resize probability follows the arrival-rate curve.
        let p = gen.arrival_rate(now) / 40.0;
        if rand01() < p {
            let victim = (hour as usize * 7) % sim.specs.len();
            if sim.specs[victim].kind == ras_core::reservation::ReservationKind::Guaranteed {
                let grow = rand01() < 0.5;
                let factor = if grow { 1.12 } else { 0.9 };
                let c = sim.specs[victim].capacity;
                sim.specs[victim].capacity = (c * factor).max(4.0).round();
            }
        }
        sim.run_hours(1);
    }

    let mut exp = Experiment::new(
        "fig16",
        "Hourly server-move churn: in-use vs unused",
        "churn ≤1.5%/h; unused moves ≈10.6× in-use; spikes in working hours",
        &["day", "in-use moves", "unused moves", "peak hourly churn %"],
    );
    let samples: Vec<_> = sim
        .metrics
        .samples()
        .iter()
        .filter(|s| s.hour >= week_start)
        .cloned()
        .collect();
    for day in 0..days {
        let window: Vec<_> = samples
            .iter()
            .filter(|s| (s.hour - week_start) / 24 == day)
            .collect();
        let in_use: usize = window.iter().map(|s| s.moves.0).sum();
        let unused: usize = window.iter().map(|s| s.moves.1).sum();
        let peak = window
            .iter()
            .map(|s| (s.moves.0 + s.moves.1) as f64 / fleet)
            .fold(0.0, f64::max);
        exp.row(&[
            format!("{day}"),
            in_use.to_string(),
            unused.to_string(),
            fmt(peak * 100.0, 2),
        ]);
    }
    let total_in_use: usize = samples.iter().map(|s| s.moves.0).sum();
    let total_unused: usize = samples.iter().map(|s| s.moves.1).sum();
    exp.note(format!(
        "unused/in-use ratio over the week: {:.1}× (paper: 10.6×)",
        total_unused as f64 / total_in_use.max(1) as f64
    ));
    // (moves, hours) in working hours and off hours.
    let (mut working, mut offhours) = ((0, 0), (0, 0));
    for s in &samples {
        let t = SimTime::from_hours(s.hour);
        let bucket = if t.day_of_week() < 5 && (9..=17).contains(&t.hour_of_day()) {
            &mut working
        } else {
            &mut offhours
        };
        bucket.0 += s.moves.0 + s.moves.1;
        bucket.1 += 1;
    }
    exp.note(format!(
        "moves per working hour {:.1} vs off hour {:.1} (working-hour spikes)",
        working.0 as f64 / working.1 as f64,
        offhours.0 as f64 / offhours.1 as f64
    ));
    if let Some((hour, e)) = sim.solve_errors.first() {
        let n = sim.solve_errors.len();
        exp.fail(format!("{n} solves failed, first at hour {hour}: {e}"));
    }
    vec![exp]
}
