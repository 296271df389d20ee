//! Ablation: two-phase solving vs a single monolithic phase.
//!
//! Phase 1 drops rack goals so symmetry reduction can group servers
//! MSB-wide; a monolithic solve keeps rack goals everywhere and pays for
//! it in variables and time (Section 3.5.2: "the symmetry strategy …
//! cannot be applied to servers with different location properties").

use std::time::Instant;

use ras_broker::SimTime;
use ras_core::classes::Granularity;
use ras_core::phases::{rack_overages, run_phase};
use ras_core::AsyncSolver;
use ras_topology::RegionTemplate;

use crate::{fmt, instance, Experiment, Shape};

/// Regenerates the two-phase ablation.
pub fn run(_: Shape) -> Vec<Experiment> {
    let inst = instance::build(RegionTemplate::tiny(), 66, 10, 0.75);
    let snapshot = inst.broker.snapshot(SimTime::ZERO);
    let mut params = inst.params.clone();
    // Tight rack limits so rack goals matter in both configurations.
    let mut specs = inst.specs.clone();
    for spec in specs.iter_mut() {
        if spec.kind == ras_core::reservation::ReservationKind::Guaranteed {
            spec.spread.rack_share = Some(0.02);
        }
    }
    params.phase_time_limit = 20.0;

    let mut exp = Experiment::new(
        "ablation_phases",
        "Two-phase solving vs one monolithic rack-granularity solve",
        "phasing trades a little optimality for a large cut in variables and solve time",
        &[
            "configuration",
            "assignment vars",
            "seconds",
            "rack overage (RRUs)",
        ],
    );

    // Two-phase (the production path).
    let t0 = Instant::now();
    let two = match AsyncSolver::new(params.clone()).solve(&inst.region, &specs, &snapshot) {
        Ok(out) => out,
        Err(e) => {
            exp.fail(format!("two-phase solve failed: {e}"));
            return vec![exp];
        }
    };
    let two_secs = t0.elapsed().as_secs_f64();
    let two_overage: f64 = rack_overages(&inst.region, &specs, &two.targets)
        .iter()
        .map(|(_, o)| o)
        .sum();
    let two_vars =
        two.phase1.assignment_vars + two.phase2.as_ref().map_or(0, |p| p.assignment_vars);
    exp.row(&[
        "two-phase".into(),
        two_vars.to_string(),
        fmt(two_secs, 2),
        fmt(two_overage, 1),
    ]);

    // Monolithic: one rack-granularity solve over everything.
    let t1 = Instant::now();
    match run_phase(
        &inst.region,
        &specs,
        &snapshot,
        &params,
        Granularity::Rack,
        true,
        None,
    ) {
        Ok((targets, stats)) => {
            let mono_overage: f64 = rack_overages(&inst.region, &specs, &targets)
                .iter()
                .map(|(_, o)| o)
                .sum();
            exp.row(&[
                "monolithic (rack everywhere)".into(),
                stats.assignment_vars.to_string(),
                fmt(t1.elapsed().as_secs_f64(), 2),
                fmt(mono_overage, 1),
            ]);
            exp.note(format!(
                "monolithic uses {:.1}× the variables of two-phase",
                stats.assignment_vars as f64 / two_vars.max(1) as f64
            ));
        }
        Err(e) => {
            exp.row(&[
                "monolithic (rack everywhere)".into(),
                "-".into(),
                fmt(t1.elapsed().as_secs_f64(), 2),
                format!("failed: {e}"),
            ]);
            exp.fail(format!("monolithic solve failed: {e}"));
        }
    }
    vec![exp]
}
