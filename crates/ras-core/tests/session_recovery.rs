//! Failed-round recovery, shard-plan and sharded-vs-monolithic
//! differential tests, all through the one round owner, [`AsyncSolver`].
//!
//! Recovery contract: a continuous round that fails mid-solve must leave
//! the solver *usable* — every shard's warm state and the round numbering
//! dropped, the error telling the caller the next round runs cold — and
//! that next round must solve and certify exactly like a fresh solver's
//! round 0.
//!
//! Differential contract: a POP-style sharded solve of the same input
//! must land within [`ras_core::sharded_tolerance`] of the monolithic
//! objective, with both plans valued by the one regional evaluator.

use ras_broker::{ResourceBroker, SimTime};
use ras_core::reservation::{DcAffinity, ReservationSpec};
use ras_core::rru::RruTable;
use ras_core::{
    evaluate_targets, sharded_tolerance, AsyncSolver, CoreError, SolveOutput, SolverParams,
};
use ras_topology::{Region, RegionBuilder, RegionTemplate};

fn region() -> Region {
    RegionBuilder::new(RegionTemplate::tiny(), 42).build()
}

fn portfolio(region: &Region) -> Vec<ReservationSpec> {
    let rru = RruTable::uniform(&region.catalog, 1.0);
    vec![
        ReservationSpec::guaranteed("web", 80.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 40.0, rru),
    ]
}

fn broker_for(region: &Region, specs: &[ReservationSpec]) -> ResourceBroker {
    let mut broker = ResourceBroker::new(region.server_count());
    for spec in specs {
        broker.register_reservation(&spec.name);
    }
    broker
}

fn params(shards: usize) -> SolverParams {
    SolverParams {
        shards,
        ..SolverParams::default()
    }
}

/// A spec that passes validation but whose model the static audit must
/// reject mid-solve: a datacenter-affinity tolerance of `-∞` makes each
/// affinity row `≤ -∞`, which no point satisfies.
fn poisoned(region: &Region, mut specs: Vec<ReservationSpec>) -> Vec<ReservationSpec> {
    let dc = region.datacenters()[0].id;
    specs[0].dc_affinity = Some(DcAffinity::single(dc, f64::NEG_INFINITY));
    specs
}

fn certified_clean(out: &SolveOutput) -> bool {
    out.audit_phases()
        .iter()
        .all(|p| p.mip_stats.audit.certified_clean())
}

#[test]
fn failed_warm_round_invalidates_session_then_recovers_cold() {
    let region = region();
    let specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    let mut solver = AsyncSolver::new(params(1));
    let out0 = solver
        .solve(&region, &specs, &snap)
        .expect("round 0 solves");
    assert_eq!(out0.warm.round, 0);
    assert!(solver.is_warm(), "round 0 must leave warm state behind");

    // Round 1 fails mid-solve: the audited model rejects the poisoned
    // spec. The solver must report the invalidation explicitly.
    let err = solver
        .solve(&region, &poisoned(&region, specs.clone()), &snap)
        .expect_err("poisoned round must fail");
    match &err {
        CoreError::SessionInvalidated { round, cause } => {
            assert_eq!(*round, 1, "the failing round is round 1");
            assert!(
                matches!(**cause, CoreError::Solver(_)),
                "cause must surface the solver failure, got {cause:?}"
            );
        }
        other => panic!("expected SessionInvalidated, got {other:?}"),
    }
    assert!(!solver.is_warm(), "warm state must be dropped");
    assert_eq!(solver.rounds(), 0, "round numbering must restart");

    // The solver remains usable: the next round runs cold — round number
    // 0, no model reuse — and still certifies clean under the auditor.
    let out = solver
        .solve(&region, &specs, &snap)
        .expect("recovery round solves");
    assert_eq!(out.warm.round, 0, "recovery round is a fresh round 0");
    assert!(!out.warm.model_reused && !out.warm.warm_basis_supplied);
    assert!(certified_clean(&out), "recovery round must certify clean");
    assert!(solver.is_warm(), "and it re-arms the warm machinery");
}

#[test]
fn failed_cold_round_returns_the_raw_error() {
    let region = region();
    let specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    // A fresh solver has no warm state to lose: the error passes through
    // unwrapped.
    for shards in [1, 3] {
        let err = AsyncSolver::new(params(shards))
            .solve(&region, &poisoned(&region, specs.clone()), &snap)
            .expect_err("poisoned cold round must fail");
        assert!(
            matches!(err, CoreError::Solver(_)),
            "shards={shards}: cold failure must surface the raw error: {err:?}"
        );
    }
}

#[test]
fn failed_sharded_round_invalidates_all_shards_then_recovers() {
    let region = region();
    let specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    let mut solver = AsyncSolver::new(params(3));
    solver
        .solve(&region, &specs, &snap)
        .expect("sharded round 0 solves");
    assert!(solver.is_warm());

    let err = solver
        .solve(&region, &poisoned(&region, specs.clone()), &snap)
        .expect_err("poisoned sharded round must fail");
    match &err {
        CoreError::SessionInvalidated { round: 1, cause } => assert!(
            matches!(**cause, CoreError::Solver(_)),
            "the cause is wrapped once: {cause:?}"
        ),
        other => panic!("one failing shard invalidates every shard: {other:?}"),
    }
    assert!(!solver.is_warm(), "every shard's warm state is dropped");
    assert_eq!(solver.rounds(), 0);

    let out = solver
        .solve(&region, &specs, &snap)
        .expect("sharded recovery round solves");
    assert_eq!(out.warm.round, 0, "recovery is a fresh round 0");
    assert!(!out.warm.model_reused);
    assert_eq!(out.sharded.as_ref().map(|s| s.shards.len()), Some(3));
    assert!(
        certified_clean(&out),
        "every shard must certify clean after recovery"
    );
}

#[test]
fn sharded_solve_matches_monolithic_within_documented_tolerance() {
    let region = region();
    let specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);
    let params = SolverParams::default();

    let mono = AsyncSolver::new(params.clone())
        .solve(&region, &specs, &snap)
        .expect("monolithic solve");
    assert!(mono.sharded.is_none());
    let mono_score = evaluate_targets(&region, &specs, &snap, &params, &mono.targets);
    assert!(mono_score.capacity_feasible(1e-6));

    for k in [2usize, 3] {
        let sharded = AsyncSolver::new(SolverParams {
            shards: k,
            ..params.clone()
        })
        .solve(&region, &specs, &snap)
        .expect("sharded solve");
        assert_eq!(sharded.sharded.as_ref().map(|s| s.shards.len()), Some(k));
        let score = evaluate_targets(&region, &specs, &snap, &params, &sharded.targets);
        assert!(
            score.capacity_feasible(1e-6),
            "k={k}: merged plan infeasible: {:?}",
            score.capacity_shortfall
        );
        let tol = sharded_tolerance(k, &params, mono_score.objective);
        assert!(
            (score.objective - mono_score.objective).abs() <= tol,
            "k={k}: sharded {} vs monolithic {} exceeds tolerance {tol}",
            score.objective,
            mono_score.objective
        );
    }
}

/// When no partition into two or more shards can carry its capacity
/// slices, the plan falls back to one shard, and that round is the
/// monolithic round: the same targets and objective, every phase's
/// certificate in reach of `audit_phases`.
#[test]
fn one_shard_fallback_round_is_the_monolithic_round() {
    let region = region();
    let specs = vec![ReservationSpec::guaranteed(
        "web",
        280.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    let mono = AsyncSolver::new(params(1))
        .solve(&region, &specs, &snap)
        .expect("monolithic round");
    assert!(certified_clean(&mono));

    let fallback = AsyncSolver::new(params(2))
        .solve(&region, &specs, &snap)
        .expect("fallback round");
    assert!(
        fallback.sharded.is_none(),
        "one shard is not a sharded round"
    );
    assert!(
        certified_clean(&fallback),
        "every phase certified: {:?}",
        fallback
            .audit_phases()
            .iter()
            .map(|p| &p.mip_stats.audit)
            .collect::<Vec<_>>()
    );
    assert_eq!(fallback.targets, mono.targets);
    assert_eq!(
        fallback.phase1.objective.to_bits(),
        mono.phase1.objective.to_bits()
    );
}

/// A spec change that re-partitions the region drops every shard's warm
/// state, so the round after it is numbered 0, like any other cold round.
#[test]
fn shard_repartition_restarts_round_numbering() {
    let region = region();
    let mut specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    let mut solver = AsyncSolver::new(SolverParams {
        shards: 3,
        ..SolverParams::default()
    });
    let out0 = solver.solve(&region, &specs, &snap).expect("round 0");
    assert_eq!(out0.sharded.as_ref().map(|s| s.shards.len()), Some(3));

    specs[0].capacity = 160.0;
    let out = solver
        .solve(&region, &specs, &snap)
        .expect("re-partitioned");
    let report = out.sharded.as_ref().expect("still sharded");
    assert_eq!(
        report.shards.len(),
        2,
        "the larger slice needs bigger shards"
    );
    for shard in &report.shards {
        assert_eq!(shard.warm.round, 0, "shard {} runs cold", shard.shard);
        assert!(!shard.warm.warm_basis_supplied);
    }
    assert_eq!(out.warm.round, 0, "a re-partition restarts the numbering");
    assert_eq!(solver.rounds(), 1);
}
