//! Continuous operation: round-0 vs warm solve time per round.
//!
//! The paper's deployment re-solves the region continuously (~every 30
//! minutes) against inputs that drift by at most a few percent between
//! rounds. This experiment quantifies what a warm round of one
//! [`ras_core::AsyncSolver`] costs in that regime: one solver solves 8
//! consecutive rounds with ≤ 2 % fleet churn per round.
//!
//! Reproduction criteria: warm rounds average ≥ 2× faster than the cold
//! round 0, and every warm round's phase-1 root starts from the running
//! plan (dual-first, no phase 1, nothing discarded). The plan a warm
//! round starts from is in its input, not in the solver: a fresh solver
//! plans the same snapshot to the bit (`ras-sim`'s `continuous_rounds`
//! test pins that).
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
        ..ContinuousConfig::default()
    };
    let reports = run_continuous(&region, &config);

    let mut exp = Experiment::new(
        "fig_continuous",
        "Continuous operation: cold round 0 vs warm solve time per round",
        "warm rounds >=2x faster than the cold round 0; every warm root starts from the running plan",
        &[
            "round",
            "churned",
            "warm_s",
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
        let stats = &r.phase1.mip_stats;
        exp.row(&[
            r.round.to_string(),
            r.churned.to_string(),
            fmt(r.solve_seconds, 4),
            r.lp_iterations.to_string(),
            stats.root_phase1_iterations.to_string(),
            stats.dual_iterations.to_string(),
            (if stats.root_used_dual_simplex {
                "dual"
            } else {
                "-"
            })
            .to_string(),
            r.moves.to_string(),
            (if r.root_started_from_plan() {
                "plan"
            } else if stats.root_discarded_seconds > 0.0 {
                "fallback"
            } else {
                "primal"
            })
            .to_string(),
            stats.incumbent_seeded.to_string(),
            stats.nodes_pruned_by_seed.to_string(),
        ]);
    }

    let warm = &reports[1..];
    let warm_mean = warm.iter().map(|r| r.solve_seconds).sum::<f64>() / warm.len() as f64;
    let round0 = reports[0].solve_seconds;
    exp.note(format!(
        "warm mean {:.4}s vs round-0 cold {:.4}s ({:.1}x)",
        warm_mean,
        round0,
        round0 / warm_mean.max(1e-12),
    ));
    let seeded = warm
        .iter()
        .filter(|r| r.phase1.mip_stats.incumbent_seeded)
        .count();
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
