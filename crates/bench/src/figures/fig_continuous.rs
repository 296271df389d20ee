//! Continuous operation: cold-vs-warm solve time per round.
//!
//! The paper's deployment re-solves the region continuously (~every 30
//! minutes) against inputs that drift by at most a few percent between
//! rounds. This experiment quantifies what the warm caches of one
//! [`ras_core::AsyncSolver`] buy in that regime: one solver solves 8
//! consecutive rounds with ≤ 2 % fleet churn per round, and every round's
//! snapshot is *also* solved by a fresh, cold solver for comparison.
//!
//! Reproduction criteria: warm rounds average ≥ 2× faster than the cold
//! solve of the same input, the warm basis is accepted and the incumbent
//! seed installed once the session settles, and warm/cold agree on
//! status and phase-1 objective within the MIP gap tolerance.
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
        "warm rounds >=2x faster than cold on the same input; statuses and objectives agree",
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
            "names",
            "basis",
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
            (if r.warm.model_reused {
                "same"
            } else if r.warm.seed_supplied {
                "changed"
            } else {
                "-"
            })
            .to_string(),
            (if r.warm.warm_basis_accepted {
                "accepted"
            } else if r.warm.warm_basis_supplied {
                "fallback"
            } else {
                "-"
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
    let settled = warm
        .iter()
        .filter(|r| r.warm.warm_basis_accepted && r.warm.incumbent_seeded)
        .count();
    exp.note(format!(
        "warm basis accepted + incumbent seeded in {settled}/{} warm rounds",
        warm.len()
    ));
    // The warm-path contract for bound-only rounds: a model with last
    // round's name space whose warm basis sticks must re-solve via the
    // dual simplex with zero phase-1 iterations — phase 1 rebuilding
    // feasibility from scratch would mean the persisted basis bought
    // nothing. No such round at all fails too: a session that stopped
    // recognising an unchanged name space would otherwise pass 0/0.
    let bound_only_rounds: Vec<_> = warm
        .iter()
        .filter(|r| r.warm.bounds_only_patch && r.warm.warm_basis_accepted)
        .collect();
    let phase1_free = bound_only_rounds
        .iter()
        .filter(|r| r.phase1.mip_stats.root_phase1_iterations == 0)
        .count();
    exp.note(format!(
        "bound-only warm rounds with zero phase-1 iterations: {phase1_free}/{}",
        bound_only_rounds.len()
    ));
    if bound_only_rounds.is_empty() {
        exp.fail("no bound-only warm round to check");
    }
    if phase1_free != bound_only_rounds.len() {
        exp.fail("bound-only warm round ran phase-1 iterations");
    }
    vec![exp]
}
