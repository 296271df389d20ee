//! Continuous operation: cold-vs-warm solve time per round.
//!
//! The paper's deployment re-solves the region continuously (~every 30
//! minutes) against inputs that drift by at most a few percent between
//! rounds. This experiment quantifies what a warm round of one
//! [`ras_core::AsyncSolver`] costs in that regime: one solver solves 8
//! consecutive rounds with ≤ 2 % fleet churn per round, and every round's
//! snapshot is *also* solved by a fresh, cold solver for comparison.
//!
//! Reproduction criteria: warm rounds average ≥ 2× faster than the cold
//! round 0, every warm round's phase-1 root starts from the running plan
//! (dual-first, no phase 1, nothing discarded), and warm/cold agree on
//! status and phase-1 objective within the MIP gap tolerance. A fresh
//! solver on a warm round's input is as fast as the warm one: the plan
//! a warm round starts from is in that input, not in the solver.
//!
//! The solver certificate-checks every solve in every build and refuses a
//! plan whose certificate fails; a refused round, cold or warm-started,
//! panics `run_continuous` and so fails the figure.

use ras_sim::continuous::{run_continuous, ContinuousConfig};
use ras_topology::{RegionBuilder, RegionTemplate};

use crate::{fmt, Experiment, Shape};

/// Regenerates the continuous-operation experiment.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 23).build();
    let config = ContinuousConfig {
        rounds: 8,
        churn_fraction: 0.02,
        cold_compare: true,
        ..ContinuousConfig::default()
    };
    let reports = run_continuous(&region, &config);

    let mut exp = Experiment::new(
        "fig_continuous",
        "Continuous operation: cold vs warm solve time per round",
        "warm rounds >=2x faster than the cold round 0; statuses and objectives agree with a cold solve of the same input",
        &[
            "round",
            "churned",
            "warm_s",
            "cold_s",
            "speedup",
            "lp_iters",
            "p1_iters",
            "dual_iters",
            "dual",
            "moves",
            "root",
            "seeded",
            "pruned",
        ],
    );
    for r in &reports {
        let cold = r.cold_solve_seconds.unwrap_or(f64::NAN);
        exp.row(&[
            r.round.to_string(),
            r.churned.to_string(),
            fmt(r.solve_seconds, 4),
            fmt(cold, 4),
            fmt(cold / r.solve_seconds.max(1e-12), 2),
            r.lp_iterations.to_string(),
            r.phase1.mip_stats.root_phase1_iterations.to_string(),
            r.phase1.mip_stats.dual_iterations.to_string(),
            (if r.warm.dual_resolve { "dual" } else { "-" }).to_string(),
            r.moves.to_string(),
            (if r.root_started_from_plan() {
                "plan"
            } else if r.phase1.mip_stats.root_discarded_seconds > 0.0 {
                "fallback"
            } else {
                "primal"
            })
            .to_string(),
            r.warm.incumbent_seeded.to_string(),
            r.phase1.mip_stats.nodes_pruned_by_seed.to_string(),
        ]);
    }

    let warm = &reports[1..];
    let warm_mean = warm.iter().map(|r| r.solve_seconds).sum::<f64>() / warm.len() as f64;
    let cold_mean = warm
        .iter()
        .filter_map(|r| r.cold_solve_seconds)
        .sum::<f64>()
        / warm.len() as f64;
    let round0 = reports[0].solve_seconds;
    exp.note(format!(
        "warm mean {:.4}s vs cold-same-input mean {:.4}s ({:.1}x) vs round-0 cold {:.4}s ({:.1}x)",
        warm_mean,
        cold_mean,
        cold_mean / warm_mean.max(1e-12),
        round0,
        round0 / warm_mean.max(1e-12),
    ));
    let tol = config.params.mip_abs_gap + 1e-6;
    let agree = reports.iter().all(|r| {
        r.cold_status_matches.unwrap_or(true)
            && r.cold_objective
                .map(|c| (c - r.phase1.objective).abs() <= tol)
                .unwrap_or(true)
    });
    exp.note(format!(
        "warm/cold agree on status and phase-1 objective (tol {tol}): {agree}"
    ));
    let seeded = warm.iter().filter(|r| r.warm.incumbent_seeded).count();
    exp.note(format!(
        "incumbent seeded in {seeded}/{} warm rounds",
        warm.len()
    ));
    // The warm-path contract: every warm round's phase-1 root starts
    // from the running plan — dual-first from the slack basis, with zero
    // phase-1 iterations and no attempt thrown away. Phase 1 rebuilding
    // feasibility from scratch would mean the plan bought nothing. No
    // warm round at all fails too: a run that checked nothing would
    // otherwise pass 0/0.
    let from_plan = warm.iter().filter(|r| r.root_started_from_plan()).count();
    exp.note(format!(
        "warm rounds whose phase-1 root started from the running plan: {from_plan}/{}",
        warm.len()
    ));
    if warm.is_empty() {
        exp.fail("no warm round to check");
    }
    if from_plan != warm.len() {
        exp.fail("a warm round's phase-1 root did not start from the running plan");
    }
    vec![exp]
}
