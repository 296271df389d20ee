//! Sharded region solves at paper scale.
//!
//! The paper's region-wide allocator covers 10⁵–10⁶ servers across tens
//! of MSBs and re-solves inside a ~15-minute budget. This experiment
//! drives the POP-style sharded solve (an [`ras_core::AsyncSolver`] with
//! `shards` set) across region sizes up to a paper-scale fleet (4 DCs × 9 MSBs ×
//! 104 400 servers) and checks the reproduction gates:
//!
//! * every shard's phase certifies clean under [`ras_core::AuditMode::On`],
//!   and the round's aggregate certificate (`phase1.mip_stats.audit`) is
//!   clean exactly when they all are;
//! * the merged plan satisfies every regional capacity constraint;
//! * the sharded objective lands within [`ras_core::sharded_tolerance`]
//!   of the monolithic solve of the same input;
//! * the sharded round fits the paper's 15-minute budget.
//!
//! Environment knobs: `RAS_FIG_SCALE_SIZES` (comma list of
//! `tiny|medium|large|paper`, default `tiny,medium`),
//! `RAS_FIG_SCALE_SHARDS` (default 4). CI smoke-runs `tiny` with 4
//! shards; the `large`/`paper` rows are for release-mode scalability
//! runs.

use std::time::Instant;

use ras_bench::{fmt, Experiment};
use ras_broker::{ResourceBroker, SimTime};
use ras_core::{
    evaluate_targets, sharded_tolerance, AsyncSolver, AuditMode, SolveOutput, SolverParams,
};
use ras_sim::continuous::portfolio;
use ras_topology::{RegionBuilder, RegionTemplate};

const ROUND_BUDGET_SECONDS: f64 = 900.0;

/// Branch-and-bound nodes solved ahead by a look-ahead helper, and nodes
/// in all, over every phase of every shard. A search starts a helper
/// only while fewer searches than cores are in their node loop, so shards
/// that outnumber the cores mostly run without one.
fn solved_ahead(output: &SolveOutput) -> (usize, usize) {
    output
        .audit_phases()
        .into_iter()
        .fold((0, 0), |(ahead, nodes), p| {
            (
                ahead + p.mip_stats.nodes_solved_ahead,
                nodes + p.mip_stats.nodes,
            )
        })
}

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

fn main() {
    let sizes = std::env::var("RAS_FIG_SCALE_SIZES").unwrap_or_else(|_| "tiny,medium".into());
    let shards: usize = std::env::var("RAS_FIG_SCALE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    let mut exp = Experiment::new(
        "fig_scale",
        "Sharded region solve at increasing fleet scale",
        "every shard certified; merged plan feasible; objective within tolerance of monolithic; \
         round fits the 15-minute budget",
        &[
            "size",
            "servers",
            "msbs",
            "k",
            "mono_s",
            "shard_s",
            "speedup",
            "mono_obj",
            "shard_obj",
            "tol",
            "released",
            "certified",
        ],
    );

    let mut failures = 0usize;
    let mut look_ahead = Vec::new();
    for name in sizes.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some(tpl) = template(name) else {
            eprintln!("fig_scale: unknown size {name:?} (tiny|medium|large|paper)");
            failures += 1;
            continue;
        };
        let region = RegionBuilder::new(tpl, 23).build();
        let specs = portfolio(&region, 0.6);
        let mut broker = ResourceBroker::new(region.server_count());
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        let snapshot = broker.snapshot(SimTime::ZERO);
        let params = SolverParams {
            audit: AuditMode::On,
            ..SolverParams::default()
        };

        let mono_start = Instant::now();
        let mono = AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snapshot)
            .expect("monolithic solve");
        let mono_seconds = mono_start.elapsed().as_secs_f64();
        let mono_score = evaluate_targets(&region, &specs, &snapshot, &params, &mono.targets);

        let sharded_params = SolverParams {
            shards,
            ..params.clone()
        };
        let shard_start = Instant::now();
        let sharded = AsyncSolver::new(sharded_params)
            .solve(&region, &specs, &snapshot)
            .expect("sharded solve");
        let shard_seconds = shard_start.elapsed().as_secs_f64();
        let score = evaluate_targets(&region, &specs, &snapshot, &params, &sharded.targets);

        let k = sharded.sharded.as_ref().map_or(1, |r| r.shards.len());
        let ((mono_ahead, mono_nodes), (shard_ahead, shard_nodes)) =
            (solved_ahead(&mono), solved_ahead(&sharded));
        look_ahead.push(format!(
            "{name} {mono_ahead} of {mono_nodes} mono, {shard_ahead} of {shard_nodes} sharded"
        ));
        let certified = sharded
            .audit_phases()
            .iter()
            .all(|p| p.mip_stats.audit.certified_clean());
        // The round's own certificate is the fold of its shards'.
        let aggregate_agrees = sharded.phase1.mip_stats.audit.certified_clean() == certified;
        let tol = sharded_tolerance(k, &params, mono_score.objective);
        let within_tol = (score.objective - mono_score.objective).abs() <= tol;
        let feasible = score.capacity_feasible(1e-6);
        let in_budget = shard_seconds <= ROUND_BUDGET_SECONDS;

        exp.row(&[
            name.to_string(),
            region.server_count().to_string(),
            region.msbs().len().to_string(),
            k.to_string(),
            fmt(mono_seconds, 3),
            fmt(shard_seconds, 3),
            fmt(mono_seconds / shard_seconds.max(1e-12), 2),
            fmt(mono_score.objective, 2),
            fmt(score.objective, 2),
            fmt(tol, 2),
            sharded
                .sharded
                .as_ref()
                .map_or(0, |r| r.reconcile.released)
                .to_string(),
            (if certified { "yes" } else { "NO" }).to_string(),
        ]);

        if !certified || !aggregate_agrees || !within_tol || !feasible || !in_budget {
            eprintln!(
                "fig_scale: {name} gate failed (certified={certified} \
                 aggregate_agrees={aggregate_agrees} within_tol={within_tol} \
                 feasible={feasible} in_budget={in_budget})"
            );
            failures += 1;
        }
    }

    exp.note(format!(
        "gates: all shards audit-certified, and the round's aggregate certificate agrees; \
         merged plan capacity-feasible; \
         |sharded - mono| <= k*abs_gap + 5% of |mono|; sharded round <= {ROUND_BUDGET_SECONDS}s"
    ));
    exp.note(format!(
        "branch-and-bound nodes solved ahead by a look-ahead helper: {}",
        look_ahead.join(", ")
    ));
    exp.finish();
    if failures > 0 {
        eprintln!("fig_scale: {failures} size(s) failed their gates");
        std::process::exit(1);
    }
}
