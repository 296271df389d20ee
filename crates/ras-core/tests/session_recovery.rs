//! Failed-round recovery, shard-plan and sharded-vs-monolithic
//! differential tests, all through the one round owner, [`AsyncSolver`].
//!
//! Recovery contract: a continuous round that fails mid-solve returns its
//! cause as it is and leaves the solver as it found it — the solver keeps
//! no round state — so the next round solves and certifies exactly like
//! a fresh solver's round on the same snapshot.
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

/// Asserts two rounds planned the same: targets, phase-1 status and
/// objective bits, phase-2 presence, moves and the shard count.
fn assert_same_round(a: &SolveOutput, b: &SolveOutput, what: &str) {
    assert_eq!(a.targets, b.targets, "{what}: targets");
    assert_eq!(a.phase1.status, b.phase1.status, "{what}: status");
    assert_eq!(
        a.phase1.objective.to_bits(),
        b.phase1.objective.to_bits(),
        "{what}: objective {} vs {}",
        a.phase1.objective,
        b.phase1.objective
    );
    assert_eq!(a.phase2.is_some(), b.phase2.is_some(), "{what}: phase 2");
    assert_eq!(a.moves, b.moves, "{what}: moves");
    assert_eq!(
        a.sharded.as_ref().map(|s| s.shards.len()),
        b.sharded.as_ref().map(|s| s.shards.len()),
        "{what}: shards"
    );
}

/// A failed round — any shard failing — returns its cause as it is,
/// whether the solver is fresh or has solved before, and leaves nothing
/// behind: the next round is a fresh solver's round, bit for bit, and
/// certifies clean.
#[test]
fn a_failed_round_at_any_shard_count_returns_its_cause_and_leaves_nothing() {
    let region = region();
    let specs = portfolio(&region);
    let poisoned = poisoned(&region, specs.clone());
    for shards in [1, 2, 3] {
        let what = format!("shards={shards}");
        let mut broker = broker_for(&region, &specs);
        let snap = broker.snapshot(SimTime::ZERO);

        let err = AsyncSolver::new(params(shards))
            .solve(&region, &poisoned, &snap)
            .expect_err("a poisoned round fails on a fresh solver");
        assert!(
            matches!(err, CoreError::Solver(_)),
            "{what}: the cause comes back unwrapped: {err:?}"
        );

        // A solver with a solved and applied round fails the same way.
        let mut solver = AsyncSolver::new(params(shards));
        let out0 = solver
            .solve(&region, &specs, &snap)
            .expect("round 0 solves");
        solver.apply(&out0, &mut broker).expect("round 0 applies");
        let snap1 = broker.snapshot(SimTime::from_hours(1));
        let err = solver
            .solve(&region, &poisoned, &snap1)
            .expect_err("a poisoned round fails after a solved one");
        assert!(
            matches!(err, CoreError::Solver(_)),
            "{what}: the cause comes back unwrapped: {err:?}"
        );

        let next = solver
            .solve(&region, &specs, &snap1)
            .expect("the next round solves");
        let fresh = AsyncSolver::new(params(shards))
            .solve(&region, &specs, &snap1)
            .expect("a fresh solver's round solves");
        assert_same_round(&next, &fresh, &what);
        assert!(certified_clean(&next), "{what}: the next round certifies");
    }
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

/// A spec change that re-partitions the region: the round after it
/// solves on the new partition, exactly as a fresh solver does.
#[test]
fn shard_repartition_solves_on_the_new_partition() {
    let region = region();
    let mut specs = portfolio(&region);
    let snap = broker_for(&region, &specs).snapshot(SimTime::ZERO);

    let mut solver = AsyncSolver::new(params(3));
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
    let fresh = AsyncSolver::new(params(3))
        .solve(&region, &specs, &snap)
        .expect("a fresh solver's round");
    assert_same_round(&out, &fresh, "re-partitioned");
}
