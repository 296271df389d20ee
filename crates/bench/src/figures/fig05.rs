//! Figure 5: server unavailability events over one month.
//!
//! Reproduces the month-long trace: combined planned + unplanned
//! unavailability exceeding 5 % at peaks, unplanned usually < 0.5 % with
//! spikes past 3 %, planned maintenance the majority contributor, and at
//! least one MSB-scale correlated failure causing a ≈4 % dip.

use ras_sim::{FailureRates, SimConfig, Simulation};
use ras_topology::{RegionBuilder, RegionTemplate};

use crate::{fmt, Experiment, Shape};

/// Regenerates Figure 5.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 5).build();
    // No reservation is ever placed: a pure failure trace.
    let config = SimConfig {
        seed: 55,
        solve_interval_hours: u64::MAX,
        tick_secs: 1200,
        failures: FailureRates {
            // Slightly elevated software rate so weekly spikes show at
            // this fleet size.
            software_per_server_per_day: 0.05,
            ..FailureRates::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(region, config);
    let days = 28;
    sim.run_hours(24 * days);
    assert!(sim.solve_errors.is_empty(), "{:?}", sim.solve_errors);

    let mut exp = Experiment::new(
        "fig05",
        "Server unavailability events over one month",
        "total >5% at peaks, unplanned <0.5% spiking >3%, ≈4% correlated event",
        &[
            "day",
            "total%",
            "planned%",
            "unplanned%",
            "hardware%",
            "correlated%",
        ],
    );
    for d in 0..days {
        let window = sim.metrics.window(d * 24, (d + 1) * 24);
        let avg = |f: &dyn Fn(&ras_sim::HourSample) -> f64| {
            window.iter().map(|s| f(s)).sum::<f64>() / window.len().max(1) as f64
        };
        let peak = |f: &dyn Fn(&ras_sim::HourSample) -> f64| {
            window.iter().map(|s| f(s)).fold(0.0, f64::max)
        };
        exp.row(&[
            d.to_string(),
            fmt(peak(&|s| s.unavailable_total) * 100.0, 2),
            fmt(avg(&|s| s.unavailable_planned) * 100.0, 2),
            fmt(avg(&|s| s.unavailable_unplanned) * 100.0, 2),
            fmt(avg(&|s| s.unavailable_hardware) * 100.0, 3),
            fmt(peak(&|s| s.unavailable_correlated) * 100.0, 2),
        ]);
    }
    let peak_total = sim
        .metrics
        .samples()
        .iter()
        .map(|s| s.unavailable_total)
        .fold(0.0, f64::max);
    let peak_corr = sim
        .metrics
        .samples()
        .iter()
        .map(|s| s.unavailable_correlated)
        .fold(0.0, f64::max);
    let mean_unplanned = sim.metrics.mean_of(|s| s.unavailable_unplanned);
    exp.note(format!(
        "peak total unavailability {:.1}% (paper: >5%)",
        peak_total * 100.0
    ));
    exp.note(format!(
        "peak correlated {:.1}% of fleet — one MSB is {:.1}% here (paper: ≈4%)",
        peak_corr * 100.0,
        100.0 / sim.region.msbs().len() as f64
    ));
    exp.note(format!(
        "mean unplanned {:.2}% (paper: usually <0.5%)",
        mean_unplanned * 100.0
    ));
    vec![exp]
}
