//! Figure 9: phase-1 MIP quality gap under the solve timeout.
//!
//! The paper imposes a timeout on phase 1 and measures how far the
//! interrupted solutions are from proven optimality, in units of the
//! model's own cost coefficients: 90 % of solves are optimal to within
//! 200 in-use-server preemption costs, and 99 % are optimal up to the
//! softened-constraint penalty (i.e. the residual gap can never be "a
//! constraint was left broken that optimal would fix").

use ras_broker::SimTime;
use ras_core::classes::{build_classes, Granularity};
use ras_core::heuristic::greedy_counts;
use ras_core::model::{build_model, soften_baseline};
use ras_core::phases::candidate_incumbents;
use ras_milp::SolveConfig;
use ras_topology::RegionTemplate;

use crate::{fmt, instance, percentile, Experiment, Shape};

/// Regenerates Figure 9: 50 rounds, 3 at [`Shape::Smoke`]. A round that
/// fails or publishes no finite gap (the root LP always runs to
/// completion, so every solve has a bound) is a regression, not a data
/// point: it fails the figure.
pub fn run(shape: Shape) -> Vec<Experiment> {
    let rounds: u64 = shape.pick(50, 3);
    // A satisfiable region (the paper's fleets are not demand-infeasible;
    // Figure 9 measures optimization quality under the timeout, not
    // capacity shortfalls — those belong to the softening machinery).
    let mut inst = instance::build(RegionTemplate::medium(), 9, 20, 0.65);
    // Keep the instance satisfiable: cap the newest-generation-only
    // request tail (the synthetic region's gen-3 pool is proportionally
    // smaller than production's), widening those requests to the 8-type
    // fungibility mode.
    let wide = instance::newer_compute(&inst.region.catalog);
    for spec in inst.specs.iter_mut() {
        if spec.name.starts_with("svc") && spec.rru.eligible_count() <= 2 {
            spec.rru = wide.clone();
        }
    }
    // A deliberately tight timeout so some solves are interrupted mid-
    // proof (the paper's phase-1 timeout), but late enough that the
    // search improves on its warm incumbent first.
    let config = SolveConfig {
        time_limit_seconds: 1.0,
        stall_node_limit: 0,
        ..SolveConfig::default()
    };
    let mut exp = Experiment::new(
        "fig09",
        "Phase-1 MIP quality gap under timeout",
        "90% optimal within 200 preemption-costs; 99% optimal up to softened constraints",
        &["percentile", "absolute gap", "gap in preemptions"],
    );
    let mut gaps = Vec::new();
    let mut timed_out = 0usize;
    for round in 0..rounds {
        instance::perturb(&mut inst, round);
        let snapshot = inst.broker.snapshot(SimTime::from_hours(round));
        let classes = build_classes(&inst.region, &snapshot, Granularity::Msb, None);
        // Exactly the production path: hard model first, the same model
        // softened in place when the region cannot fully satisfy the
        // requests (the paper's 99 %-optimal-up-to-softened-constraints
        // bucket exists *because* production solves are often
        // softened), each offered `run_phase`'s candidate incumbents.
        let greedy = greedy_counts(&inst.region, &inst.specs, &classes, &inst.params);
        let candidates = |ras: &ras_core::model::RasModel| candidate_incumbents(ras, &greedy);
        let mut ras = build_model(
            &inst.region,
            &inst.specs,
            &classes,
            &inst.params,
            false,
            None,
        );
        let mut cfg = config.clone();
        cfg.incumbents = candidates(&ras);
        let mut result = ras.model.solve_with(&cfg);
        if matches!(
            result,
            Err(ras_milp::SolveError::Infeasible) | Err(ras_milp::SolveError::NoIncumbent)
        ) {
            ras.soften(&soften_baseline(&inst.region, &inst.specs, &classes));
            cfg.incumbents = candidates(&ras);
            result = ras.model.solve_with(&cfg);
        }
        match result {
            Ok(solution) => {
                if !solution.stats.absolute_gap.is_finite() {
                    exp.fail(format!(
                        "round {round}: gap {}",
                        solution.stats.absolute_gap
                    ));
                }
                gaps.push(solution.stats.absolute_gap.max(0.0));
                if solution.stats.hit_limit {
                    timed_out += 1;
                }
                // Materialize this solve so the next round perturbs a
                // production-like incremental state rather than drifting
                // arbitrarily far from the last materialized assignment.
                let counts = ras.decode(&solution);
                let targets = ras_core::assign::concretize(
                    &inst.region,
                    &snapshot,
                    &classes,
                    &counts,
                    inst.specs.len(),
                );
                for (i, t) in targets.iter().enumerate() {
                    let s = ras_topology::ServerId::from_index(i);
                    if inst
                        .broker
                        .record(s)
                        .map(|r| r.current != *t)
                        .unwrap_or(false)
                    {
                        let _ = inst.broker.bind_current(s, *t);
                    }
                }
            }
            Err(e) => exp.fail(format!("round {round}: {e}")),
        }
    }
    gaps.sort_by(|a, b| a.total_cmp(b));
    let preemption_cost = inst.params.move_cost_in_use;
    let within_200 = gaps
        .iter()
        .filter(|g| **g <= 200.0 * preemption_cost)
        .count() as f64
        / gaps.len() as f64;
    let below_soften = gaps
        .iter()
        .filter(|g| **g < ras_core::params::SOFTEN_PENALTY)
        .count() as f64
        / gaps.len() as f64;

    for p in [50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        let g = percentile(&gaps, p);
        exp.row(&[fmt(p, 0), fmt(g, 1), fmt(g / preemption_cost, 1)]);
    }
    exp.note(format!(
        "{:.0}% of solves proven within 200 preemption-costs of optimal (paper: 90%)",
        within_200 * 100.0
    ));
    exp.note(format!(
        "{:.0}% of solves have gap below the softened-constraint penalty (paper: 99%)",
        below_soften * 100.0
    ));
    exp.note(format!(
        "{timed_out}/{} solves hit the {}s timeout",
        gaps.len(),
        config.time_limit_seconds
    ));
    vec![exp]
}
