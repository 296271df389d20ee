//! The benchmark's workloads and metric tables: the single place that
//! says what is run, why, and how far each number may move.
//! `BENCHMARK.json` is printed from these tables (`--describe`).

use ras_topology::RegionTemplate;

use crate::gen::{Demand, Shape};

/// Seconds one run measures for at the recorded round counts
/// (`BENCHMARK.json`'s `run_seconds`). `--seconds` scales the counts.
pub const RUN_SECONDS: u64 = 20;

/// Fewest timed rounds a run ever makes, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 5;

/// The recorded instances were picked so that the work counters repeat
/// and no operation fails. `--all` and `--repeat` also run every workload
/// once on this other instance seed (`--instance-seed`), which nobody
/// tuned for, and check only that every operation succeeds.
pub const SECOND_INSTANCE: u64 = 3;

/// How each timed round treats the solver's warm state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionMode {
    /// A fresh `AsyncSolver` per round: slack-crash root LP every time.
    Cold,
    /// One `AsyncSolver` for the run: every timed round is warm.
    Warm,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub session: SessionMode,
    /// `SolverParams::shards`.
    pub shards: usize,
    /// A timed round slower than this is a failed round.
    pub slo_s: f64,
    /// Recorded `gen::Inputs::hash` of `shape`; a run that generates
    /// another value fails before it measures anything.
    pub inputs_hash: u64,
    /// The same for the `--smoke` shape.
    pub smoke_inputs_hash: u64,
    /// Plan metrics and work counters repeat exactly between runs, and
    /// `--repeat` demands it.
    pub exact: bool,
}

impl Workload {
    /// The hard model must be feasible: no softening, no shortfall.
    pub fn satisfiable(&self) -> bool {
        self.shape.demand != Demand::OverSubscribed
    }
}

/// The paper-scale region: 104 400 servers in 36 MSBs.
fn paper() -> RegionTemplate {
    RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 9,
        power_rows_per_msb: 10,
        racks_per_power_row: 29,
        servers_per_rack: 10,
    }
}

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "cold-m40-sat",
            why: "fresh solver per round on 40 satisfiable Figure-4 specs: the slack-crash root LP dominates, so simplex work shows here",
            shape: Shape {
                instance_seed: 8,
                template: RegionTemplate::medium(),
                request_specs: 40,
                utilization: 0.65,
                demand: Demand::Satisfiable,
                rounds: 5,
                resize_fraction: 0.0,
                failures_per_round: 24,
                burst_jobs: 8000,
                drill_failures: 360,
            },
            session: SessionMode::Cold,
            shards: 1,
            slo_s: 60.0,
            inputs_hash: 0x5954ae43db1e020d,
            smoke_inputs_hash: 0x33c81d7ab5a62bfd,
            exact: true,
        },
        Workload {
            name: "warm-m24-sat",
            why: "one warm session over 24 satisfiable specs: the warm basis is accepted and branch-and-bound carries the round, root-LP work must not show",
            shape: Shape {
                instance_seed: 1,
                template: RegionTemplate::medium(),
                request_specs: 24,
                utilization: 0.65,
                demand: Demand::Satisfiable,
                rounds: 16,
                resize_fraction: 0.1,
                failures_per_round: 24,
                burst_jobs: 8000,
                drill_failures: 360,
            },
            session: SessionMode::Warm,
            shards: 1,
            slo_s: 30.0,
            inputs_hash: 0xfc5fd22949e59abf,
            smoke_inputs_hash: 0xab7931484833def6,
            exact: true,
        },
        Workload {
            name: "loop-m24-over",
            why: "the same loop over-subscribed at 0.85: every round proves infeasibility, softens and re-solves, dropping the warm basis",
            shape: Shape {
                instance_seed: 1,
                template: RegionTemplate::medium(),
                request_specs: 24,
                utilization: 0.85,
                demand: Demand::OverSubscribed,
                rounds: 8,
                resize_fraction: 0.1,
                failures_per_round: 24,
                burst_jobs: 8000,
                drill_failures: 360,
            },
            session: SessionMode::Warm,
            shards: 1,
            slo_s: 30.0,
            inputs_hash: 0xbb126eb0bbfaa35e,
            smoke_inputs_hash: 0x3eaa8294144e2fe8,
            // About one run in seven takes a second trajectory from the
            // third round on: the program sums rack overages in `HashMap`
            // order after phase 1 (README, finding 8). Until that is
            // fixed the plan metrics are held to their bounds here, not
            // to equality.
            exact: false,
        },
        Workload {
            name: "fleet-paper-uniform",
            why: "104 400 servers, two uniform specs, 2 shards, 64 rounds of 0.5 % churn: the solver does almost nothing, so snapshot, reduction, merge, mover and Twine's per-replica scan carry the numbers",
            shape: Shape {
                instance_seed: 1,
                template: paper(),
                request_specs: 2,
                utilization: 0.6,
                demand: Demand::Uniform,
                // A round is 24 ms of two threads on a shared machine:
                // 16 rounds of 2 % churn spread `round_s` by 0.14 to 0.27
                // over ten runs, 64 rounds of a quarter of the churn by
                // 0.05, for the same total churn and mover time.
                rounds: 64,
                resize_fraction: 0.0,
                failures_per_round: 522,
                burst_jobs: 600,
                drill_failures: 2088,
            },
            session: SessionMode::Warm,
            shards: 2,
            slo_s: 15.0,
            inputs_hash: 0xc78d7b4e2b711734,
            smoke_inputs_hash: 0x270459dadcc05eed,
            exact: true,
        },
    ]
}

/// `--smoke`: the same workloads and code paths on the tiny region with
/// two timed rounds each.
pub fn smoke(mut w: Workload) -> Workload {
    w.shape.template = RegionTemplate::tiny();
    // At 360 servers a 0.85 portfolio starves whole reservations, and
    // their jobs cannot place; one over-subscribed request is enough.
    w.shape.utilization = w.shape.utilization.min(0.65);
    w.shape.request_specs = w.shape.request_specs.min(10);
    w.shape.rounds = 2;
    w.shape.failures_per_round = w.shape.failures_per_round.min(3);
    w.shape.burst_jobs = 4;
    w.shape.drill_failures = 18;
    w.inputs_hash = w.smoke_inputs_hash;
    w
}

/// One metric's contract.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// The value is a count or a plan property that the fixed round
    /// sequence makes repeat exactly: `--repeat` demands equality.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

pub const END_TO_END: &[Metric] = &[
    timing("setup_s", "s", 0.25),
    timing("round_s", "s", 0.25),
    exact("plan_cost", "cost", "lower", 0.01),
    exact("plan_proven_frac", "ratio", "higher", 0.002),
    exact("moves_per_round", "count", "lower", 0.05),
    exact("served_frac", "ratio", "higher", 0.01),
    timing("place_us_p50", "us", 0.25),
];

/// A per-layer time (or a ratio of times): no bound, never exact.
const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

/// A per-layer work counter (or a ratio of counters): repeats exactly.
const fn counter(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    exact(name, unit, better, 0.0)
}

pub const PER_LAYER: &[Metric] = &[
    layer("simplex.root_s", "s", "lower"),
    counter("simplex.root_iterations", "count", "lower"),
    counter("simplex.root_phase1_iterations", "count", "lower"),
    layer("simplex.us_per_pivot", "us", "lower"),
    counter("simplex.refactors", "count", "lower"),
    counter("simplex.basis_updates", "count", "lower"),
    counter("simplex.pricing_rebuilds", "count", "lower"),
    layer("branch.mip_s", "s", "lower"),
    counter("branch.nodes", "count", "lower"),
    counter("branch.lp_iterations", "count", "lower"),
    layer("branch.us_per_node", "us", "lower"),
    counter("branch.nodes_pruned_by_seed", "count", "higher"),
    counter("branch.stalled_frac", "ratio", "lower"),
    layer("phases.soften_attempt_s", "s", "lower"),
    counter("phases.softened_rounds", "count", "lower"),
    counter("phases.softened_constraints", "count", "lower"),
    layer("phases.phase2_s", "s", "lower"),
    counter("phases.phase2_runs", "count", "lower"),
    counter("session.warm_basis_accepted_frac", "ratio", "higher"),
    counter("session.bounds_only_frac", "ratio", "higher"),
    counter("session.dual_resolve_frac", "ratio", "higher"),
    counter("session.model_reused_frac", "ratio", "higher"),
    counter("session.seed_installed_frac", "ratio", "higher"),
    layer("classes.build_s", "s", "lower"),
    counter("classes.count", "count", "lower"),
    counter("aggregate.reduction_ratio", "ratio", "higher"),
    layer("model.build_s", "s", "lower"),
    counter("model.assignment_vars", "count", "lower"),
    counter("model.rows", "count", "lower"),
    layer("model.memory_mb", "MB", "lower"),
    layer("standard.build_s", "s", "lower"),
    layer("presolve.tighten_s", "s", "lower"),
    layer("heuristic.incumbent_s", "s", "lower"),
    layer("assign.concretize_s", "s", "lower"),
    layer("broker.snapshot_s", "s", "lower"),
    layer("broker.apply_s", "s", "lower"),
    layer("solver.validate_s", "s", "lower"),
    layer("solver.solve_s", "s", "lower"),
    layer("solver.unattributed_s", "s", "lower"),
    layer("solver.unattributed_frac", "ratio", "lower"),
    layer("shard.plan_s", "s", "lower"),
    layer("shard.merge_s", "s", "lower"),
    counter("shard.released", "count", "lower"),
    layer("shard.imbalance", "ratio", "lower"),
    layer("audit.model_s", "s", "lower"),
    layer("audit.certificate_s", "s", "lower"),
    counter("audit.violations", "count", "lower"),
    layer("mover.execute_s", "s", "lower"),
    counter("mover.moves_executed", "count", "lower"),
    counter("mover.preemptions", "count", "lower"),
    counter("mover.replacements", "count", "higher"),
    layer("mover.replace_us_p50", "us", "lower"),
    layer("twine.place_us_p95", "us", "lower"),
    layer("twine.submit_us", "us", "lower"),
    counter("twine.candidates_per_place", "count", "lower"),
    layer("twine.evacuate_us", "us", "lower"),
    layer("twine.stop_us", "us", "lower"),
    counter("twine.evac_lost", "count", "lower"),
    layer("round0_cold_s", "s", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("trace.round_s", "s", "lower"),
];
