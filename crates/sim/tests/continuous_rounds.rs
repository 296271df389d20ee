//! End-to-end continuous-operation test: a kept solver's rounds are a
//! fresh solver's rounds, and warm rounds are measurably cheaper than the
//! cold round 0.
//!
//! The timing assertion mirrors the `fig_continuous` reproduction
//! criterion (warm rounds ≥ 2× faster than round 0 on average) and is
//! only meaningful with optimizations on, so it is ignored in debug
//! builds; CI runs it with `cargo test --release`. The fresh-solver
//! identity runs in every profile.

use ras_core::{AsyncSolver, SolveOutput, SolverParams};
use ras_sim::continuous::{portfolio, run_continuous, run_rounds, ContinuousConfig, RoundReport};
use ras_topology::{Region, RegionBuilder, RegionTemplate};

/// Runs `cfg`'s rounds and re-solves every round's snapshot with a
/// fresh solver: the same targets, phase-1 objective bits and phase-2
/// presence. A round reads no solver history, so keeping the solver is
/// never a different answer, with churn or without.
fn rounds_equal_fresh_solves(region: &Region, cfg: &ContinuousConfig) -> Vec<RoundReport> {
    let specs = portfolio(region, cfg.utilization);
    let mut round = 0;
    let reports = run_rounds(region, cfg, |snapshot, kept: &SolveOutput, _, _| {
        let fresh = AsyncSolver::new(cfg.params.clone())
            .solve(region, &specs, snapshot)
            .expect("a fresh solver solves the round's snapshot");
        assert_eq!(fresh.targets, kept.targets, "round {round}: targets");
        assert_eq!(
            fresh.phase1.objective.to_bits(),
            kept.phase1.objective.to_bits(),
            "round {round}: fresh objective {} vs kept {}",
            fresh.phase1.objective,
            kept.phase1.objective
        );
        assert_eq!(
            fresh.phase2.is_some(),
            kept.phase2.is_some(),
            "round {round}: phase 2"
        );
        round += 1;
    });
    assert_eq!(round, cfg.rounds);
    reports
}

#[test]
fn kept_rounds_equal_fresh_solves() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let cfg = ContinuousConfig {
        rounds: 6,
        churn_fraction: 0.0,
        ..ContinuousConfig::default()
    };
    let reports = rounds_equal_fresh_solves(&region, &cfg);
    assert_eq!(reports.len(), 6);
    for r in &reports[1..] {
        assert!(r.root_started_from_plan(), "round {} root", r.round);
        assert!(
            r.phase1.mip_stats.incumbent_seeded,
            "round {} incumbent",
            r.round
        );
    }
}

/// The same identity for sharded rounds under churn: every shard's
/// round, the merge and the reconcile pass read only the round's inputs.
#[test]
fn kept_sharded_rounds_equal_fresh_solves() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let cfg = ContinuousConfig {
        rounds: 4,
        churn_fraction: 0.02,
        params: SolverParams {
            shards: 2,
            ..SolverParams::default()
        },
        ..ContinuousConfig::default()
    };
    let reports = rounds_equal_fresh_solves(&region, &cfg);
    assert!(reports.iter().all(|r| r.shards == 2));
}

/// Every continuous round — the cold round 0 and every warm-started
/// round after it — is certificate-checked in every build: primal
/// feasibility, bounds, integrality and the best-bound claim hold for
/// warm solves exactly as for cold ones, or the solver refuses the round
/// and `run_continuous` panics on it. Five churned rounds returning is
/// the check.
#[test]
fn audited_rounds_certify_clean_warm_and_cold() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 11).build();
    let cfg = ContinuousConfig {
        rounds: 5,
        churn_fraction: 0.02,
        ..ContinuousConfig::default()
    };
    let reports = run_continuous(&region, &cfg);
    assert_eq!(reports.len(), 5);
}

/// Warm rounds must be ≥ 2× faster than the cold round 0 on average
/// (the `fig_continuous` reproduction criterion; in practice the gap is
/// ~10×), and every churned round on the benchmark configuration must be
/// a fresh solver's round. Wall-clock in debug builds is dominated by
/// unoptimized bounds checks, so this only runs under `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertion needs --release")]
fn warm_rounds_beat_cold_by_2x_in_release() {
    let region = RegionBuilder::new(RegionTemplate::medium(), 23).build();
    let cfg = ContinuousConfig {
        rounds: 8,
        churn_fraction: 0.02,
        ..ContinuousConfig::default()
    };
    let reports = rounds_equal_fresh_solves(&region, &cfg);
    let round0 = reports[0].solve_seconds;
    let warm = &reports[1..];
    let warm_mean = warm.iter().map(|r| r.solve_seconds).sum::<f64>() / warm.len() as f64;
    assert!(
        round0 >= 2.0 * warm_mean,
        "warm rounds not 2x faster: round0 {round0:.4}s, warm mean {warm_mean:.4}s"
    );
    // Every warm round's phase-1 root starts from the running plan, and
    // a run with no warm round proves nothing.
    assert!(!warm.is_empty(), "no warm round to check");
    for r in warm {
        assert!(
            r.root_started_from_plan(),
            "round {}: the root did not go dual-first from the plan: {:?}",
            r.round,
            r.phase1.mip_stats
        );
    }
    let seeded = warm
        .iter()
        .filter(|r| r.phase1.mip_stats.incumbent_seeded)
        .count();
    assert!(
        seeded >= warm.len() - 1,
        "the incumbent seed must install on drift rounds: {seeded}/{}",
        warm.len()
    );
}
