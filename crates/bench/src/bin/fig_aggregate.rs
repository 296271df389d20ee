//! Aggregation-pipeline ablation: Classes vs Clusters.
//!
//! The two-sided aggregation pipeline ([`ras_core::aggregate`]) folds
//! symmetric servers into equivalence classes and CvxCluster-style
//! reservation clusters into single aggregate specs before the MIP ever
//! sees them, then disaggregates the reduced solution back into
//! per-server targets. This experiment runs the same continuous churn
//! trace once per [`ras_core::AggregationLevel`] and checks the
//! reproduction gates:
//!
//! * every round at every level audit-certifies clean
//!   ([`ras_core::AuditMode::On`]);
//! * `Clusters` shrinks the phase-1 variable space ≥ 2× relative to the
//!   Classes-level model in every round;
//! * the clustered objective stays within the documented sharded
//!   tolerance of the Classes solve, and every exact-model ratchet the
//!   session runs comes back OK.
//!
//! Environment knobs: `RAS_FIG_AGGREGATE_SIZE` (one of
//! `tiny|medium|large|paper`, default `medium`) and
//! `RAS_FIG_AGGREGATE_ROUNDS` (default 4). CI smoke-runs `tiny`; the
//! `paper` size (4 DCs, 36 MSBs, 104 400 servers) reproduces the
//! numbers quoted in EXPERIMENTS.md.

use ras_bench::{fmt, Experiment};
use ras_core::{sharded_tolerance, AggregationLevel, AuditMode, SolverParams};
use ras_sim::continuous::{run_continuous, ContinuousConfig, RoundReport};
use ras_topology::{RegionBuilder, RegionTemplate};

fn template(name: &str) -> Option<RegionTemplate> {
    match name {
        "tiny" => Some(RegionTemplate::tiny()),
        "medium" => Some(RegionTemplate::medium()),
        "large" => Some(RegionTemplate::large()),
        // The paper's production example: 4 DCs, 36 MSBs, ~10⁵ servers.
        "paper" => Some(RegionTemplate {
            datacenters: 4,
            msbs_per_datacenter: 9,
            power_rows_per_msb: 10,
            racks_per_power_row: 29,
            servers_per_rack: 10,
        }),
        _ => None,
    }
}

fn params_for(level: AggregationLevel) -> SolverParams {
    SolverParams {
        aggregation: level,
        audit: AuditMode::On,
        exact_ratchet_interval: 2,
        ..SolverParams::default()
    }
}

fn run_level(
    region: &ras_topology::Region,
    rounds: usize,
    level: AggregationLevel,
) -> Vec<RoundReport> {
    let config = ContinuousConfig {
        rounds,
        churn_fraction: 0.02,
        cold_compare: false,
        params: params_for(level),
        ..ContinuousConfig::default()
    };
    run_continuous(region, &config)
}

fn level_name(level: AggregationLevel) -> &'static str {
    match level {
        AggregationLevel::Classes => "classes",
        AggregationLevel::Clusters => "clusters",
    }
}

fn main() {
    let size = std::env::var("RAS_FIG_AGGREGATE_SIZE").unwrap_or_else(|_| "medium".into());
    let rounds: usize = std::env::var("RAS_FIG_AGGREGATE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let Some(tpl) = template(&size) else {
        eprintln!("fig_aggregate: unknown size {size:?} (tiny|medium|large|paper)");
        std::process::exit(1);
    };
    let region = RegionBuilder::new(tpl, 23).build();

    let mut exp = Experiment::new(
        "fig_aggregate",
        "Two-sided aggregation ablation: Classes vs Clusters on one churn trace",
        "all rounds certified; Clusters >=2x variable reduction within the sharded \
         tolerance of Classes; every exact-model ratchet OK",
        &[
            "level",
            "round",
            "churned",
            "solve_s",
            "objective",
            "vars_full",
            "vars_red",
            "ratio",
            "clusters",
            "repair",
            "ratchet",
            "audit",
        ],
    );

    let levels = [AggregationLevel::Classes, AggregationLevel::Clusters];
    let runs: Vec<(AggregationLevel, Vec<RoundReport>)> = levels
        .iter()
        .map(|&level| (level, run_level(&region, rounds, level)))
        .collect();

    for (level, reports) in &runs {
        for r in reports {
            exp.row(&[
                level_name(*level).to_string(),
                r.round.to_string(),
                r.churned.to_string(),
                fmt(r.solve_seconds, 4),
                fmt(r.phase1.objective, 2),
                r.phase1.reduction.vars_full.to_string(),
                r.phase1.reduction.vars_reduced.to_string(),
                format!("{:.2}x", r.phase1.reduction.reduction_ratio()),
                r.phase1.reduction.spec_clusters.to_string(),
                r.phase1.disagg.repair_moves.to_string(),
                (if r.ratchet_checked {
                    if r.ratchet_ok {
                        "ok"
                    } else {
                        "DIRTY"
                    }
                } else {
                    "-"
                })
                .to_string(),
                (if r.audit_certified {
                    "certified".to_string()
                } else {
                    format!("{} violations", r.audit_violations)
                }),
            ]);
        }
    }

    let mut failures = 0usize;

    let uncertified: usize = runs
        .iter()
        .flat_map(|(_, reports)| reports.iter())
        .filter(|r| !r.audit_certified || r.audit_violations != 0)
        .count();
    if uncertified != 0 {
        eprintln!("fig_aggregate: {uncertified} round(s) failed audit certification");
        failures += 1;
    }

    let classes = &runs[0].1;
    let clusters = &runs[1].1;

    let params = params_for(AggregationLevel::Clusters);
    let mut max_gap = 0.0f64;
    let mut min_ratio = f64::INFINITY;
    for (c, base) in clusters.iter().zip(classes) {
        let tol = sharded_tolerance(2, &params, base.phase1.objective);
        let gap = (c.phase1.objective - base.phase1.objective).abs();
        let ratio = c.phase1.reduction.reduction_ratio();
        max_gap = max_gap.max(gap);
        min_ratio = min_ratio.min(ratio);
        if gap > tol {
            eprintln!(
                "fig_aggregate: round {} clustered objective gap {gap:.4} exceeds tolerance {tol:.4}",
                c.round
            );
            failures += 1;
        }
        if ratio < 2.0 {
            eprintln!(
                "fig_aggregate: round {} reduction ratio {ratio:.2} below the 2x gate",
                c.round
            );
            failures += 1;
        }
        if c.ratchet_checked && !c.ratchet_ok {
            eprintln!(
                "fig_aggregate: round {} exact-model ratchet dirty (gap {})",
                c.round, c.warm.ratchet_gap
            );
            failures += 1;
        }
    }
    let ratchets = clusters.iter().filter(|r| r.ratchet_checked).count();
    if ratchets == 0 {
        eprintln!("fig_aggregate: no round ran the exact-model ratchet");
        failures += 1;
    }

    let mean = |reports: &[RoundReport]| {
        reports.iter().map(|r| r.solve_seconds).sum::<f64>() / reports.len().max(1) as f64
    };
    exp.note(format!(
        "mean solve: classes {:.4}s, clusters {:.4}s ({:.2}x vs classes)",
        mean(classes),
        mean(clusters),
        mean(classes) / mean(clusters).max(1e-12),
    ));
    exp.note(format!(
        "clusters: min reduction ratio {min_ratio:.2}x, max objective gap {max_gap:.4}, \
         {ratchets}/{} rounds ratchet-checked",
        clusters.len()
    ));
    exp.finish();
    if failures > 0 {
        eprintln!("fig_aggregate: {failures} gate(s) failed");
        std::process::exit(1);
    }
}
