//! Figures 10 + 11: setup time and solver memory vs assignment variables.
//!
//! The paper sweeps production regions and shows both the non-MIP setup
//! time (RAS build + solver build + initial state) and the solver memory
//! growing *linearly* in the number of assignment variables. We sweep
//! synthetic region sizes and measure the same two quantities; the MIP
//! step is excluded exactly as in the paper's Figure 10.

use std::time::Instant;

use ras_broker::SimTime;
use ras_core::classes::{build_classes, Granularity};
use ras_core::model::build_model;
use ras_milp::simplex::{solve_lp, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_topology::RegionTemplate;

use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figures 10 and 11: six sizes, the smallest two at
/// [`Shape::Smoke`].
pub fn run(shape: Shape) -> Vec<Experiment> {
    let wide = RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 6,
        power_rows_per_msb: 5,
        racks_per_power_row: 10,
        servers_per_rack: 10,
    };
    let sweeps = [
        (RegionTemplate::tiny(), 8usize),
        (RegionTemplate::medium(), 16),
        (RegionTemplate::medium(), 40),
        (RegionTemplate::medium(), 80),
        (wide.clone(), 64),
        (wide, 96),
    ];
    let mut exp10 = Experiment::new(
        "fig10",
        "Setup time (RAS build + solver build + initial state) vs assignment variables",
        "setup time grows linearly with assignment variables",
        &[
            "servers",
            "reservations",
            "assignment vars",
            "setup seconds",
        ],
    );
    let mut exp11 = Experiment::new(
        "fig11",
        "Solver memory vs assignment variables",
        "memory grows linearly with assignment variables (≤24 GB at 6M vars)",
        &["servers", "reservations", "assignment vars", "model MB"],
    );
    let mut points = Vec::new();
    let sizes = shape.pick(sweeps.len(), 2);
    for (template, reservations) in sweeps.into_iter().take(sizes) {
        let servers = template.server_count();
        let inst = instance::build(template, 10, reservations, 0.8);
        let snapshot = inst.broker.snapshot(SimTime::ZERO);
        // Phase-2-style build (rack granularity) maximizes variables.
        let t0 = Instant::now();
        let classes = build_classes(&inst.region, &snapshot, Granularity::Rack, None);
        let ras = build_model(
            &inst.region,
            &inst.specs,
            &classes,
            &inst.params,
            true,
            None,
        );
        let ras_build = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let sf = StandardForm::from_model(&ras.model);
        let solver_build = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        // Initial state: the root LP with a tight pivot budget (the paper
        // measures loading the initial assignment + the initial LP pass,
        // not a solve to optimality).
        let lp_cfg = SimplexConfig {
            max_iterations: 200,
            ..SimplexConfig::default()
        };
        let _ = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &lp_cfg);
        let initial_state = t2.elapsed().as_secs_f64();
        let setup = ras_build + solver_build + initial_state;
        let mem_mb = ras.model.memory_estimate_bytes() as f64 / 1e6;
        exp10.row(&[
            servers.to_string(),
            reservations.to_string(),
            ras.assignment_var_count.to_string(),
            fmt(setup, 3),
        ]);
        exp11.row(&[
            servers.to_string(),
            reservations.to_string(),
            ras.assignment_var_count.to_string(),
            fmt(mem_mb, 2),
        ]);
        points.push((ras.assignment_var_count as f64, setup, mem_mb));
    }
    // Linearity check: correlation of vars vs setup and vars vs memory.
    let corr = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(f).sum::<f64>() / n;
        let cov = points.iter().map(|p| (p.0 - mx) * (f(p) - my)).sum::<f64>();
        let vx = points
            .iter()
            .map(|p| (p.0 - mx).powi(2))
            .sum::<f64>()
            .sqrt();
        let vy = points
            .iter()
            .map(|p| (f(p) - my).powi(2))
            .sum::<f64>()
            .sqrt();
        cov / (vx * vy)
    };
    exp10.note(format!(
        "correlation(vars, setup seconds) = {:.3} (1.0 = perfectly linear)",
        corr(&|p| p.1)
    ));
    exp11.note(format!("correlation(vars, memory) = {:.3}", corr(&|p| p.2)));
    vec![exp10, exp11]
}
