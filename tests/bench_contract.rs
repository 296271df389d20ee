//! The API the benchmark is written against, where tier-1 can see it.
//!
//! `bench_e2e` (the package `BENCHMARK.json` runs) lives outside the
//! workspace, so `cargo build` and `cargo test` never compile it: a PR
//! that renames or deletes something it uses finds out only when the
//! benchmark driver runs. This test spells out, on a tiny region, the
//! exact shapes its frozen files use — the struct literals of
//! `driver.rs` and `layers.rs`, the calls of `layers::probe`, and every
//! `SolveStats` field `report.rs` reads — so that such a PR stops
//! compiling here first. Keep the shapes as they are; when the benchmark
//! itself changes (a `benchmark` PR), change them with it.

use ras::broker::{ResourceBroker, SimTime};
use ras::core::model::build_model_labeled;
use ras::core::rru::RruTable;
use ras::core::{build_reduction, AsyncSolver, AuditMode, ReservationSpec, SolverParams};
use ras::milp::audit::check_lp_certificate;
use ras::milp::simplex::{solve_lp, SimplexConfig};
use ras::milp::standard::StandardForm;
use ras::milp::{AuditConfig, AuditReport, SolveConfig, SolveStats};
use ras::topology::{RegionBuilder, RegionTemplate};

/// `report.rs`: every counter it turns into a metric.
fn read_like_report(stats: &SolveStats) -> (usize, bool, f64) {
    let counters = [
        stats.nodes,
        stats.simplex_iterations,
        stats.root_phase1_iterations,
        stats.lp_refactorizations,
        stats.basis_updates,
        stats.pricing_full_rebuilds,
        stats.nodes_pruned_by_seed,
        stats.audit.violations.len(),
    ];
    (counters.iter().sum(), stats.hit_limit, stats.gap)
}

#[test]
fn benchmark_api_shapes_compile_and_run() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", 40.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 20.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let snapshot = broker.snapshot(SimTime::ZERO);

    // driver.rs: the solver settings of every workload.
    let params = SolverParams {
        audit: AuditMode::On,
        phase_time_limit: 300.0,
        shards: 1,
        ..SolverParams::default()
    };
    let output = AsyncSolver::new(params.clone())
        .solve(&region, &specs, &snapshot)
        .expect("a tiny satisfiable region solves");
    let (work, _hit_limit, gap) = read_like_report(&output.phase1.mip_stats);
    assert!(work > 0, "a solve counts some work");
    assert!(gap.is_finite());
    assert!(output.phase1.mip_stats.audit.certified_clean());

    // layers.rs: reduction, model and standard form of the same inputs.
    let reduction = build_reduction(
        &region,
        &snapshot,
        &specs,
        params.phase1_granularity,
        params.aggregation,
        None,
    );
    let ras = build_model_labeled(
        &region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        &params,
        false,
        None,
    );
    let sf = StandardForm::from_model(&ras.model);

    // layers.rs: the cold root LP and its certificate.
    let (lower, upper) = (sf.lower.clone(), sf.upper.clone());
    let lp = solve_lp(&sf, &lower, &upper, &SimplexConfig::default());
    assert!(lp.iterations > 0);
    let audit_cfg = AuditConfig::default();
    let mut report = AuditReport::default();
    check_lp_certificate(&sf, &lower, &upper, &lp, &audit_cfg, &mut report);
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    // layers.rs: the hard model's own solve.
    let config = SolveConfig {
        time_limit_seconds: params.phase_time_limit,
        rel_gap_tol: params.mip_rel_gap,
        abs_gap_tol: params.mip_abs_gap,
        stall_node_limit: params.stall_node_limit,
        audit: params.audit,
        warm_dual: params.warm_dual,
        ..SolveConfig::default()
    };
    let solution = ras
        .model
        .solve_with(&config)
        .expect("the hard model solves");
    let (work, _, _) = read_like_report(&solution.stats);
    assert!(work > 0);
}
