//! The API the benchmark is written against, where tier-1 can see it.
//!
//! `bench_e2e` (the package `BENCHMARK.json` runs) lives outside the
//! workspace, so `cargo build` and `cargo test` never compile it: a PR
//! that renames or deletes something it uses finds out only when the
//! benchmark is run. These tests spell out, on a tiny region, the
//! exact shapes its frozen files use — the struct literals of
//! `driver.rs` and `layers.rs`, every call of `layers::probe`, the plan
//! valuation of `driver.rs`, every `SolveStats`, `PhaseStats`,
//! `WarmReport` and `ReductionStats` field `layers.rs` and `report.rs`
//! read, the mover and Twine calls of `driver.rs`, and the portfolio
//! generator calls of `gen.rs` — so that a change that breaks one stops
//! compiling here first. Keep the shapes as they are; when the benchmark
//! itself changes, change them with it.

use ras::broker::{
    ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind,
};
use ras::core::assign::concretize;
use ras::core::buffers::shared_buffer_specs;
use ras::core::classes::build_classes;
use ras::core::heuristic::greedy_counts;
use ras::core::model::build_model_labeled;
use ras::core::rru::RruTable;
use ras::core::stats::PhaseStats;
use ras::core::{
    build_reduction, evaluate_targets, AsyncSolver, AuditMode, ReservationSpec, ShardPlan,
    SolveOutput, SolverParams,
};
use ras::milp::audit::{
    audit_model, audit_standard_form, check_lp_certificate, check_mip_certificate,
};
use ras::milp::presolve::tighten;
use ras::milp::simplex::{solve_lp, SimplexConfig};
use ras::milp::standard::StandardForm;
use ras::milp::{AuditConfig, AuditReport, SolveConfig, SolveStats};
use ras::mover::{MoverConfig, OnlineMover};
use ras::topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras::twine::{ContainerId, ContainerSpec, JobSpec, TwineAllocator};
use ras::workloads::{RequestGenerator, RequestGeneratorConfig, StandardServices};

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

/// `layers.rs`: the four step timers of a phase.
fn phase_timers(p: &PhaseStats) -> [f64; 4] {
    [
        p.ras_build_seconds,
        p.solver_build_seconds,
        p.initial_state_seconds,
        p.mip_seconds,
    ]
}

/// `report.rs`: the warm-start flags and the reduction sizes it reads.
fn read_like_session(output: &SolveOutput) -> ([bool; 5], usize, usize) {
    let w = &output.warm;
    let flags = [
        w.warm_basis_accepted,
        w.bounds_only_patch,
        w.dual_resolve,
        w.model_reused,
        w.incumbent_seeded,
    ];
    let r = &output.phase1.reduction;
    (flags, r.servers, r.classes)
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

    // driver.rs: the solver settings of every workload. Its `audit` field
    // names `AuditMode::On`, the one value and the default.
    let params = SolverParams {
        phase_time_limit: 300.0,
        shards: 1,
        ..SolverParams::default()
    };
    assert_eq!(params.audit, AuditMode::On);
    let output = AsyncSolver::new(params.clone())
        .solve(&region, &specs, &snapshot)
        .expect("a tiny satisfiable region solves");
    let (work, _hit_limit, gap) = read_like_report(&output.phase1.mip_stats);
    assert!(work > 0, "a solve counts some work");
    assert!(gap.is_finite());
    assert!(output.phase1.mip_stats.audit.certified_clean());
    assert!(phase_timers(&output.phase1).iter().all(|t| *t >= 0.0));
    let (_flags, servers, classes) = read_like_session(&output);
    assert!(servers >= classes && classes > 0);

    // driver.rs: every plan valued on the regional yardstick.
    let score = evaluate_targets(&region, &specs, &snapshot, &params, &output.targets);
    assert!(score.objective.is_finite());
    let shortfall: f64 = score.capacity_shortfall.iter().sum();
    assert!(shortfall >= 0.0);

    // layers.rs: the class build, then reduction, model and standard
    // form of the same inputs.
    let classes = build_classes(&region, &snapshot, params.phase1_granularity, None);
    assert!(!classes.is_empty());
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

    // layers.rs: audits, presolve, the greedy incumbent and the shard plan.
    let audit_cfg = AuditConfig::default();
    let _ = audit_model(&ras.model, &audit_cfg);
    let _ = audit_standard_form(&sf, &audit_cfg);
    let tightened = tighten(&ras.model).expect("a satisfiable model presolves");
    assert_eq!(tightened.lower.len(), tightened.upper.len());
    let greedy = greedy_counts(&region, &reduction.specs, &reduction.classes, &params);
    let _ = ras.incumbent_from_counts(&greedy);
    let _ = ShardPlan::build(&region, params.shards.max(1));

    // layers.rs: the applied plan as per-class counts in the reduced
    // spec space, concretized again and certified against the model.
    let mut counts = vec![vec![0usize; reduction.specs.len()]; reduction.classes.len()];
    for (ci, class) in reduction.classes.iter().enumerate() {
        for s in &class.servers {
            if let Some(r) = output.targets.get(s.index()).copied().flatten() {
                let slot = reduction
                    .reduced_index(r)
                    .and_then(|g| counts[ci].get_mut(g));
                if let Some(slot) = slot {
                    *slot += 1;
                }
            }
        }
    }
    let replayed = concretize(&region, &snapshot, &reduction.classes, &counts, specs.len());
    assert_eq!(replayed.len(), region.server_count());
    let plan = ras.incumbent_from_counts(&counts);
    let objective = ras.model.objective().eval(&plan);
    let mut mip_report = AuditReport::default();
    check_mip_certificate(
        &ras.model,
        &plan,
        objective,
        &SolveStats::default(),
        &audit_cfg,
        &mut mip_report,
    );

    // layers.rs: the cold root LP and its certificate.
    let (lower, upper) = (sf.lower.clone(), sf.upper.clone());
    let lp = solve_lp(&sf, &lower, &upper, &SimplexConfig::default());
    assert!(lp.iterations > 0);
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

/// `gen.rs`: the Figure-4 portfolio from the program's own generators.
fn figure4_like(region: &ras::topology::Region, seed: u64) -> Vec<ReservationSpec> {
    let headline = [
        StandardServices::web(),
        StandardServices::feed1(),
        StandardServices::feed2(),
        StandardServices::datastore(),
    ];
    let mut specs: Vec<ReservationSpec> = headline
        .iter()
        .map(|p| p.reservation(&region.catalog, 8.0))
        .collect();
    // The struct update is the literal `gen.rs` writes.
    #[allow(clippy::needless_update)]
    let mut requests = RequestGenerator::new(RequestGeneratorConfig {
        seed: seed ^ 0xF164,
        ..RequestGeneratorConfig::default()
    });
    for i in 0..2 {
        let request = requests.sample(&region.catalog, SimTime::ZERO);
        let mut spec = request.to_spec(&region.catalog, format!("svc{i}"));
        spec.capacity = 8.0;
        specs.push(spec);
    }
    specs.extend(shared_buffer_specs(region, 0.02));
    specs
}

#[test]
fn mover_twine_and_generator_shapes_compile_and_run() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let specs = figure4_like(&region, 1);
    assert!(specs.len() > 6, "the generators add a shared buffer");
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }

    // driver.rs `set_up`: the mover, the allocator, round 0 applied and
    // materialised.
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    let mut twine = TwineAllocator::new();
    let params = SolverParams {
        phase_time_limit: 300.0,
        shards: 1,
        ..SolverParams::default()
    };
    let mut solver = AsyncSolver::new(params);
    let snapshot = broker.snapshot(SimTime::ZERO);
    let output = solver
        .solve(&region, &specs, &snapshot)
        .expect("a tiny Figure-4 portfolio solves");
    solver
        .apply(&output, &mut broker)
        .expect("the plan applies");
    let moved = mover.execute_targets(&mut broker, SimTime::ZERO, |_, _| {});
    assert!(moved > 0, "round 0 binds servers");

    // driver.rs `submit_jobs` / `stop_jobs`.
    let spec = JobSpec {
        name: "job0-0".into(),
        reservation: ReservationId::from_index(0),
        container: ContainerSpec::small(),
        replicas: 4,
        rack_anti_affinity: true,
    };
    let (placed, unplaced): (Vec<ContainerId>, u32) =
        twine.submit_partial(&region, &mut broker, spec);
    assert_eq!(placed.len() + unplaced as usize, 4);
    assert!(!placed.is_empty() && twine.last_candidates_evaluated > 0);
    let stopped = placed[0];
    twine.stop(&mut broker, stopped);

    // driver.rs `apply_ops`: a failure, the mover's replacement and
    // Twine's evacuation of the failed server.
    let busy = |broker: &ResourceBroker| {
        (0..region.server_count())
            .map(ServerId::from_index)
            .filter(|s| broker.record(*s).map_or(0, |r| r.running_containers) > 0)
            .collect::<Vec<_>>()
    };
    let server = busy(&broker)[0];
    let now = SimTime::from_hours(1);
    let _ = broker.mark_down(UnavailabilityEvent {
        server,
        kind: UnavailabilityKind::UnplannedHardware,
        scope: ScopeId::Server(server),
        start: now,
        expected_end: Some(now.plus_hours(1)),
    });
    let replaced: Vec<(ServerId, ServerId)> =
        mover.handle_failures(&region, &specs, &mut broker, now);
    assert!(replaced.len() <= 1);
    let (moved, lost): (usize, usize) = twine.evacuate(&region, &mut broker, server);
    assert!(moved + lost > 0, "the failed server's containers leave it");

    // driver.rs `round`: the mover preempting through Twine.
    let victim = busy(&broker)[0];
    broker
        .set_target(victim, Some(ReservationId::from_index(1)))
        .expect("the server exists");
    let mut preemptions = 0;
    let executed: usize = mover.execute_targets(&mut broker, now, |s, b| {
        preemptions += 1;
        let (m, l) = twine.evacuate(&region, b, s);
        assert!(m + l > 0, "a preempted server's containers leave it");
    });
    assert!(preemptions >= 1 && executed >= preemptions);
}
