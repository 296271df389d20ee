//! Turns a run's records into the named metrics, and writes the result
//! and trace files.

use std::path::{Path, PathBuf};

use ras_core::stats::PhaseStats;
use ras_core::SolveOutput;

use crate::check::Violation;
use crate::driver::{RoundRecord, RunResult};
use crate::json::Json;
use crate::layers::reported_children;
use crate::workloads::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::Args;

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Failed and attempted operations of a run, with the reasons.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// `(kind, count)` for every kind that occurred.
    pub kinds: Vec<(String, usize)>,
}

pub fn outcome(run: &RunResult) -> Outcome {
    let mut kinds: Vec<(String, usize)> = Vec::new();
    let mut add = |kind: &str, n: usize| {
        if n > 0 {
            kinds.push((kind.to_string(), n));
        }
    };
    // The drill is no round, but it can lose evacuees, leave a failure
    // unreplaced or strand a container like one.
    let all: Vec<&RoundRecord> = run.rounds.iter().chain([&run.drill]).collect();
    add(
        "round_error",
        all.iter().filter(|r| r.error.is_some()).count(),
    );
    for v in Violation::ALL {
        add(
            v.name(),
            all.iter().filter(|r| r.violations.contains(&v)).count(),
        );
    }
    let evacuees: usize = all.iter().map(|r| r.evac_moved + r.evac_lost).sum();
    let lost: usize = all.iter().map(|r| r.evac_lost).sum();
    let wanted: usize = all.iter().map(|r| r.replace_wanted).sum();
    let served: usize = all
        .iter()
        .map(|r| r.replace_served.min(r.replace_wanted))
        .sum();
    add("unplaced_replica", run.placements.replicas_unplaced);
    add("lost_evacuee", lost);
    add("unserved_replacement", wanted - served);
    let failed = all.iter().filter(|r| r.failed()).count()
        + run.placements.replicas_unplaced
        + lost
        + (wanted - served);
    Outcome {
        attempted: all.len() + run.placements.replicas_wanted + evacuees + wanted,
        failed,
        kinds,
    }
}

fn outputs(rounds: &[RoundRecord]) -> Vec<&SolveOutput> {
    rounds.iter().filter_map(|r| r.output.as_ref()).collect()
}

/// Seconds of rack-goal refinement in a round: the monolithic phase 2,
/// or the slowest shard's.
fn phase2_seconds(o: &SolveOutput) -> f64 {
    let of = |p: Option<&PhaseStats>| p.map_or(0.0, |p| p.total_seconds);
    match &o.sharded {
        Some(s) => s
            .shards
            .iter()
            .map(|sh| of(sh.phase2.as_ref()))
            .fold(0.0, f64::max),
        None => of(o.phase2.as_ref()),
    }
}

fn per_round(rounds: &[RoundRecord], f: impl Fn(&RoundRecord) -> f64) -> f64 {
    mean(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn per_output(rounds: &[RoundRecord], f: impl Fn(&SolveOutput) -> f64) -> f64 {
    mean(&outputs(rounds).into_iter().map(f).collect::<Vec<_>>())
}

fn frac(rounds: &[RoundRecord], f: impl Fn(&SolveOutput) -> bool) -> f64 {
    per_output(rounds, |o| f64::from(u8::from(f(o))))
}

/// The end-to-end metrics, in `END_TO_END` order.
pub fn end_to_end(run: &RunResult) -> Vec<f64> {
    let rounds = &run.rounds;
    let gaps: Vec<f64> = outputs(rounds)
        .iter()
        .map(|o| o.phase1.mip_stats.gap)
        .collect();
    let requested: f64 = rounds.iter().map(|r| r.requested_rru).sum();
    let shortfall: f64 = rounds.iter().map(|r| r.shortfall_rru).sum();
    END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => median(&run.setup_samples_s),
            "round_s" => per_round(rounds, |r| r.round_s),
            "plan_cost" => per_round(rounds, |r| r.plan_cost),
            "plan_proven_frac" => 1.0 - median(&gaps),
            "moves_per_round" => per_round(rounds, |r| r.moves_executed as f64),
            "served_frac" => 1.0 - shortfall / requested.max(1.0),
            "place_us_p50" => percentile(&run.placements.place_us, 50.0),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// The per-layer metrics, in `PER_LAYER` order. Times and counts are
/// means per timed round unless the name says otherwise; the `probe`
/// values come from one replay on the first timed round's inputs.
pub fn per_layer(run: &RunResult) -> Vec<f64> {
    let rounds = &run.rounds;
    let probe = run.probe.clone().unwrap_or_default();
    let sum_phases = |f: fn(&PhaseStats) -> f64| {
        per_output(rounds, |o| f(&o.phase1) + o.phase2.as_ref().map_or(0.0, f))
    };
    let sum_stats = |f: fn(&PhaseStats) -> usize| {
        per_output(rounds, |o| {
            o.audit_phases().into_iter().map(f).sum::<usize>() as f64
        })
    };
    let round_s = per_round(rounds, |r| r.round_s);
    let solve_s = per_round(rounds, |r| r.solve_s);
    let attributed = per_output(rounds, |o| {
        reported_children(o).iter().map(|(_, s)| *s).sum::<f64>()
    });
    let mip_s = sum_phases(|p| p.mip_seconds);
    let nodes = sum_stats(|p| p.mip_stats.nodes);
    let with_drill = || rounds.iter().chain(std::iter::once(&run.drill));
    let evacuated: usize = with_drill().map(|r| r.evac_moved + r.evac_lost).sum();
    let evac_s: f64 = with_drill().map(|r| r.evac_s).sum();
    // Only a failure inside a guaranteed reservation makes the mover
    // search for a replacement; the others cost it nothing.
    let replace_us: Vec<f64> = rounds
        .iter()
        .filter(|r| r.replace_wanted > 0)
        .map(|r| r.replace_s * 1e6 / r.replace_wanted as f64)
        .collect();
    let shard_times = |o: &SolveOutput| -> Vec<f64> {
        o.sharded.as_ref().map_or_else(Vec::new, |s| {
            s.shards.iter().map(|sh| sh.phase1.total_seconds).collect()
        })
    };
    PER_LAYER
        .iter()
        .map(|m| match m.name {
            "simplex.root_s" => sum_phases(|p| p.initial_state_seconds),
            "simplex.root_iterations" => probe.root_iterations as f64,
            "simplex.root_phase1_iterations" => sum_stats(|p| p.mip_stats.root_phase1_iterations),
            "simplex.us_per_pivot" => probe.root_us_per_pivot,
            "simplex.refactors" => sum_stats(|p| p.mip_stats.lp_refactorizations),
            "simplex.basis_updates" => sum_stats(|p| p.mip_stats.basis_updates),
            "simplex.pricing_rebuilds" => sum_stats(|p| p.mip_stats.pricing_full_rebuilds),
            "branch.mip_s" => mip_s,
            "branch.nodes" => nodes,
            "branch.lp_iterations" => sum_stats(|p| p.mip_stats.simplex_iterations),
            "branch.us_per_node" => mip_s * 1e6 / nodes.max(1.0),
            "branch.nodes_pruned_by_seed" => sum_stats(|p| p.mip_stats.nodes_pruned_by_seed),
            "branch.stalled_frac" => frac(rounds, |o| o.phase1.mip_stats.hit_limit),
            "phases.soften_attempt_s" => probe.soften_attempt_s,
            "phases.softened_rounds" => outputs(rounds)
                .iter()
                .filter(|o| o.audit_phases().iter().any(|p| !p.softened.is_empty()))
                .count() as f64,
            "phases.softened_constraints" => sum_stats(|p| p.softened.len()),
            "phases.phase2_s" => per_output(rounds, phase2_seconds),
            "phases.phase2_runs" => outputs(rounds)
                .iter()
                .filter(|o| phase2_seconds(o) > 0.0)
                .count() as f64,
            "session.warm_basis_accepted_frac" => frac(rounds, |o| o.warm.warm_basis_accepted),
            "session.bounds_only_frac" => frac(rounds, |o| o.warm.bounds_only_patch),
            "session.dual_resolve_frac" => frac(rounds, |o| o.warm.dual_resolve),
            "session.model_reused_frac" => frac(rounds, |o| o.warm.model_reused),
            "session.seed_installed_frac" => frac(rounds, |o| o.warm.incumbent_seeded),
            "classes.build_s" => probe.classes_build_s,
            "classes.count" => probe.classes_count as f64,
            "aggregate.reduction_ratio" => per_output(rounds, |o| {
                let r = &o.phase1.reduction;
                r.servers as f64 / r.classes.max(1) as f64
            }),
            "model.build_s" => probe.model_build_s,
            "model.assignment_vars" => probe.model_assignment_vars as f64,
            "model.rows" => probe.model_rows as f64,
            "model.memory_mb" => probe.model_memory_mb,
            "standard.build_s" => probe.standard_build_s,
            "presolve.tighten_s" => probe.presolve_tighten_s,
            "heuristic.incumbent_s" => probe.heuristic_incumbent_s,
            "assign.concretize_s" => probe.concretize_s,
            "broker.snapshot_s" => per_round(rounds, |r| r.snapshot_s),
            "broker.apply_s" => per_round(rounds, |r| r.apply_s),
            "solver.validate_s" => probe.validate_s,
            "solver.solve_s" => solve_s,
            "solver.unattributed_s" => solve_s - attributed,
            "solver.unattributed_frac" => (solve_s - attributed) / solve_s.max(f64::MIN_POSITIVE),
            "shard.plan_s" => probe.shard_plan_s,
            "shard.merge_s" => per_output(rounds, |o| {
                o.sharded
                    .as_ref()
                    .map_or(0.0, |s| s.reconcile.merge_seconds)
            }),
            "shard.released" => per_output(rounds, |o| {
                o.sharded
                    .as_ref()
                    .map_or(0.0, |s| s.reconcile.released as f64)
            }),
            "shard.imbalance" => per_output(rounds, |o| {
                let t = shard_times(o);
                if t.is_empty() {
                    1.0
                } else {
                    t.iter().copied().fold(0.0, f64::max) / mean(&t).max(f64::MIN_POSITIVE)
                }
            }),
            "audit.model_s" => probe.audit_model_s,
            "audit.certificate_s" => probe.audit_certificate_s,
            "audit.violations" => sum_stats(|p| p.mip_stats.audit.violations.len()),
            "mover.execute_s" => per_round(rounds, |r| r.mover_s),
            "mover.moves_executed" => per_round(rounds, |r| r.moves_executed as f64),
            "mover.preemptions" => per_round(rounds, |r| r.preemptions as f64),
            "mover.replacements" => per_round(rounds, |r| r.replace_served as f64),
            "mover.replace_us_p50" => median(&replace_us),
            "twine.place_us_p95" => percentile(&run.placements.place_us, 95.0),
            "twine.submit_us" => mean(&run.placements.submit_us),
            "twine.candidates_per_place" => mean(&run.placements.candidates_per_place),
            "twine.evacuate_us" => evac_s * 1e6 / evacuated.max(1) as f64,
            "twine.stop_us" => mean(&run.placements.stop_us),
            "twine.evac_lost" => with_drill().map(|r| r.evac_lost).sum::<usize>() as f64,
            "round0_cold_s" => run.round0_cold_s,
            "process.peak_rss_mb" => peak_rss_mb(),
            "trace.round_s" => round_s,
            other => unreachable!("per-layer metric {other} has no definition"),
        })
        .collect()
}

/// Where result and trace files go: `bench_e2e/` under the cargo target
/// directory, which inside a checkout is inside the checkout.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench_e2e")
}

fn metrics_json(metrics: &[Metric], values: &[f64]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .zip(values)
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The one-line result object the contract asks for.
pub fn result_line(outcome: &Outcome, metrics: &[Metric], values: &[f64]) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics, values)),
    ])
}

fn write(path: &Path, json: &Json) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, format!("{json}\n")));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Writes `<workload>.json` (or `<workload>.traced.json`) and, for a
/// traced run, `trace-<workload>.json`. A run on another instance than
/// the recorded one has `.instance<seed>` after the workload's name, so
/// that it does not replace the recorded instance's files.
#[allow(clippy::too_many_arguments)]
pub fn write_files(
    w: &Workload,
    args: &Args,
    inputs_hash: u64,
    run: &RunResult,
    outcome: &Outcome,
    metrics: &[Metric],
    values: &[f64],
    fingerprint: Json,
) {
    let dir = output_dir();
    let traced = args.traced;
    let name = match args.instance_seed {
        Some(seed) => format!("{}.instance{seed}", w.name),
        None => w.name.to_string(),
    };
    let suffix = if traced { ".traced" } else { "" };
    let result = Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Num(args.seed as f64)),
        ("traced", Json::Bool(traced)),
        ("timed_rounds", Json::Num(run.rounds.len() as f64)),
        ("instance_seed", Json::Num(w.shape.instance_seed as f64)),
        ("inputs_hash", Json::Str(format!("{inputs_hash:016x}"))),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failed_frac",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Obj(
                outcome
                    .kinds
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(metrics, values)),
        ("machine", fingerprint),
    ]);
    write(&dir.join(format!("{name}{suffix}.json")), &result);
    if traced {
        write(
            &dir.join(format!("trace-{name}.json")),
            &run.trace.to_json(),
        );
    }
}
