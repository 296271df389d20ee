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
//! Every size, `paper` included, runs at a requested k = 4 in well under
//! a second on a release build.

use std::time::Instant;

use ras_broker::SimTime;
use ras_core::{
    evaluate_targets, sharded_tolerance, AsyncSolver, AuditMode, SolveOutput, SolverParams,
};
use ras_sim::continuous::portfolio;
use ras_topology::{RegionBuilder, RegionTemplate};

use crate::{fmt, instance, Experiment, Shape};

const ROUND_BUDGET_SECONDS: f64 = 900.0;

/// Requested shard count.
const SHARDS: usize = 4;

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

/// Regenerates the sharded-scale experiment.
pub fn run(_: Shape) -> Vec<Experiment> {
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

    let mut look_ahead = Vec::new();
    // The paper's production example is 4 DCs, 36 MSBs, ~10⁵ servers.
    let paper = RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 9,
        power_rows_per_msb: 10,
        racks_per_power_row: 29,
        servers_per_rack: 10,
    };
    for (name, tpl) in [
        ("tiny", RegionTemplate::tiny()),
        ("medium", RegionTemplate::medium()),
        ("large", RegionTemplate::large()),
        ("paper", paper),
    ] {
        let region = RegionBuilder::new(tpl, 23).build();
        let specs = portfolio(&region, 0.6);
        let snapshot = instance::broker_for(&region, &specs).snapshot(SimTime::ZERO);
        let params = SolverParams {
            audit: AuditMode::On,
            ..SolverParams::default()
        };

        let mono_start = Instant::now();
        let mono = match AsyncSolver::new(params.clone()).solve(&region, &specs, &snapshot) {
            Ok(out) => out,
            Err(e) => {
                exp.fail(format!("{name}: monolithic solve failed: {e}"));
                continue;
            }
        };
        let mono_seconds = mono_start.elapsed().as_secs_f64();
        let mono_score = evaluate_targets(&region, &specs, &snapshot, &params, &mono.targets);

        let sharded_params = SolverParams {
            shards: SHARDS,
            ..params.clone()
        };
        let shard_start = Instant::now();
        let sharded = match AsyncSolver::new(sharded_params).solve(&region, &specs, &snapshot) {
            Ok(out) => out,
            Err(e) => {
                exp.fail(format!("{name}: sharded solve failed: {e}"));
                continue;
            }
        };
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
            name.into(),
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
            exp.fail(format!(
                "{name} gate failed (certified={certified} \
                 aggregate_agrees={aggregate_agrees} within_tol={within_tol} \
                 feasible={feasible} in_budget={in_budget})"
            ));
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
    vec![exp]
}
