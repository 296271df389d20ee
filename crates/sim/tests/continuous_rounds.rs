//! End-to-end continuous-operation test: the warm session must be
//! measurably cheaper than a cold solve and must agree with it.
//!
//! The timing assertion mirrors the `fig_continuous` reproduction
//! criterion (warm rounds ≥ 2× faster than round 0 on average) and is
//! only meaningful with optimizations on, so it is ignored in debug
//! builds; CI runs it with `cargo test --release`. The zero-churn
//! agreement assertions run in every profile.

use ras_sim::continuous::{run_continuous, ContinuousConfig};
use ras_topology::{RegionBuilder, RegionTemplate};

/// Warm and cold solves of the same snapshot must report the same status
/// and the same phase-1 objective within the solver's own gap tolerance:
/// the session machinery is an accelerator, never a different answer.
///
/// Churn is zero here so every solve terminates on the proven gap. With
/// churn, a solve can instead terminate on the stall-node heuristic, and
/// a stalled search may stop an extra move-cost above the other side
/// depending on which incumbent it happened to hold — the churned
/// configuration is covered by the release-mode test below.
#[test]
fn warm_rounds_agree_with_cold_solves() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let cfg = ContinuousConfig {
        rounds: 6,
        churn_fraction: 0.0,
        cold_compare: true,
        ..ContinuousConfig::default()
    };
    let reports = run_continuous(&region, &cfg);
    assert_eq!(reports.len(), 6);
    let tol = cfg.params.mip_abs_gap + 1e-6;
    for r in &reports {
        assert_eq!(
            r.cold_status_matches,
            Some(true),
            "round {}: warm and cold status differ",
            r.round
        );
        let cold = r.cold_objective.expect("cold objective recorded");
        assert!(
            (cold - r.phase1.objective).abs() <= tol,
            "round {}: warm objective {} vs cold {} (tol {tol})",
            r.round,
            r.phase1.objective,
            cold
        );
    }
    for r in &reports[1..] {
        assert!(r.root_started_from_plan(), "round {} root", r.round);
        assert!(r.warm.incumbent_seeded, "round {} incumbent", r.round);
    }
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
/// (the ISSUE acceptance criterion; in practice the gap is ~10×), and
/// warm/cold must agree under churn on the benchmark configuration.
/// Wall-clock in debug builds is dominated by unoptimized bounds checks,
/// so this only runs under `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertion needs --release")]
fn warm_rounds_beat_cold_by_2x_in_release() {
    let region = RegionBuilder::new(RegionTemplate::medium(), 23).build();
    let cfg = ContinuousConfig {
        rounds: 8,
        churn_fraction: 0.02,
        cold_compare: true,
        ..ContinuousConfig::default()
    };
    let reports = run_continuous(&region, &cfg);
    let tol = cfg.params.mip_abs_gap + 1e-6;
    for r in &reports {
        assert_eq!(
            r.cold_status_matches,
            Some(true),
            "round {}: warm and cold status differ",
            r.round
        );
        let cold = r.cold_objective.expect("cold objective recorded");
        assert!(
            (cold - r.phase1.objective).abs() <= tol,
            "round {}: warm objective {} vs cold {} (tol {tol})",
            r.round,
            r.phase1.objective,
            cold
        );
    }
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
            r.warm
        );
    }
    let seeded = warm.iter().filter(|r| r.warm.incumbent_seeded).count();
    assert!(
        seeded >= warm.len() - 1,
        "the incumbent seed must install on drift rounds: {seeded}/{}",
        warm.len()
    );
}
