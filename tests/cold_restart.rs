//! A solver restart costs what a warm round costs, and both start their
//! phase-1 root from the running plan.
//!
//! No round carries a basis, but every structural column resting on the
//! bound its cost pushes toward is a dual-feasible start: the hard
//! phase-1 root goes dual-first from it at any size (`ras::milp::simplex`,
//! "Cold solves"), with no phase 1. Where the region already runs a
//! plan, the model rewards every server for staying, so that start is
//! the running plan; from an empty broker it is the empty plan, and
//! round 0 takes the same path. A warm round and a restarted solver's
//! round are then one phase-1 solve. These tests pin that route on
//! medium regions past the size gate and below it, and that a phase-2
//! root and a softened retry's root below the gate keep the primal
//! two-phase start.

use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::model::build_model_labeled;
use ras::core::solver::SolveOutput;
use ras::core::stats::PhaseStats;
use ras::core::{build_reduction, AsyncSolver, ReservationSpec, SolverParams};
use ras::milp::simplex::AUTO_PARTIAL_MIN_COLS;
use ras::milp::standard::StandardForm;
use ras::topology::{Region, RegionTemplate, ScopeId, ServerId};
use ras_bench::instance;

fn params(warm_dual: bool) -> SolverParams {
    SolverParams {
        warm_dual,
        ..SolverParams::default()
    }
}

/// One round by a solver that has never solved before.
fn fresh_round(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &ResourceBroker,
    warm_dual: bool,
) -> SolveOutput {
    AsyncSolver::new(params(warm_dual))
        .solve(region, specs, &broker.snapshot(SimTime::ZERO))
        .expect("the round solves")
}

/// The columns the simplex's size gate counts in the phase-1 model of
/// `broker`'s snapshot: structural columns the model does not fix, plus
/// a slack and an artificial per row.
fn phase1_live_columns(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &ResourceBroker,
) -> usize {
    let params = SolverParams::default();
    let snapshot = broker.snapshot(SimTime::ZERO);
    let granularity = params.phase1_granularity;
    let reduction = build_reduction(
        region,
        &snapshot,
        specs,
        granularity,
        params.aggregation,
        None,
    );
    let ras = build_model_labeled(
        region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        &params,
        false,
        None,
    );
    let sf = StandardForm::from_model(&ras.model);
    let fixed = (sf.lower.iter().zip(&sf.upper))
        .take(sf.num_structural)
        .filter(|(lo, up)| lo == up)
        .count();
    sf.num_cols() + sf.num_rows - fixed
}

/// The phase-1 root went dual-first from the slack basis: no primal
/// phase 1, no attempt thrown away.
fn assert_root_from_plan(phase: &PhaseStats, what: &str) {
    let stats = &phase.mip_stats;
    assert!(
        stats.root_used_dual_simplex,
        "{what}: the root went dual-first"
    );
    assert_eq!(stats.root_phase1_iterations, 0, "{what}");
    assert_eq!(
        stats.root_discarded_seconds, 0.0,
        "{what}: nothing discarded"
    );
    assert!(
        stats.best_bound.is_finite(),
        "{what}: bound {}",
        stats.best_bound
    );
}

/// A medium region of `reservations` requests running the plan of a
/// first round, 24 of its bound servers then failed: `(region, specs,
/// broker, round 0's output, the solver that planned it)`.
fn region_after_round_zero(
    reservations: usize,
    utilization: f64,
) -> (
    Region,
    Vec<ReservationSpec>,
    ResourceBroker,
    SolveOutput,
    AsyncSolver,
) {
    let (region, specs) =
        instance::portfolio(RegionTemplate::medium(), 2, reservations, utilization);
    let mut broker = instance::broker_for(&region, &specs);
    let mut solver = AsyncSolver::new(params(true));
    let round0 = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("round 0 solves");
    solver.apply(&round0, &mut broker).expect("round 0 applies");
    for s in broker.pending_moves() {
        let target = broker.record(s).expect("a pending server exists").target;
        broker.bind_current(s, target).expect("the move completes");
    }
    let bound = (0..region.server_count())
        .map(ServerId::from_index)
        .filter(|&s| broker.record(s).is_ok_and(|r| r.current.is_some()));
    for server in bound.step_by(97).take(24).collect::<Vec<_>>() {
        broker
            .mark_down(UnavailabilityEvent {
                server,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(server),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .expect("a bound server fails");
    }
    (region, specs, broker, round0, solver)
}

#[test]
fn restarted_solver_repairs_the_running_plan_with_the_dual() {
    // 24 requests put the rounds after round 0 past the size gate, 8 keep
    // them below it; every phase-1 root takes the same route either way.
    for (reservations, past_gate) in [(24, true), (8, false)] {
        let what = |round: &str| format!("{reservations} requests, {round}");
        let (region, specs, broker, round0, mut solver) =
            region_after_round_zero(reservations, 0.5);

        // Round 0's model is below the size gate, and its phase-1 root
        // still goes dual-first, from the empty plan. Phase 2's root
        // keeps the gate, so below it the primal two-phase solve runs.
        let empty = instance::broker_for(&region, &specs);
        assert!(phase1_live_columns(&region, &specs, &empty) <= AUTO_PARTIAL_MIN_COLS);
        assert_root_from_plan(&round0.phase1, &what("round 0"));
        let phase2 = round0.phase2.as_ref().expect("round 0 refines its racks");
        assert!(
            !phase2.mip_stats.root_used_dual_simplex,
            "{}: phase 2 runs primal",
            what("round 0")
        );

        let restarted = fresh_round(&region, &specs, &broker, true);
        assert!(restarted.phase1.softened.is_empty());
        assert_eq!(
            phase1_live_columns(&region, &specs, &broker) > AUTO_PARTIAL_MIN_COLS,
            past_gate,
            "{}",
            what("the restarted round")
        );
        assert_root_from_plan(&restarted.phase1, &what("the restarted round"));
        let stats = &restarted.phase1.mip_stats;
        assert!(
            stats.audit.certified_clean(),
            "{:?}",
            stats.audit.violations
        );

        // The warm round of the solver that planned round 0 carries
        // nothing the restarted one lacks: on the same snapshot, the same
        // round — phase 1, phase 2 and the plan.
        let warm = solver
            .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
            .expect("the warm round solves");
        assert_root_from_plan(&warm.phase1, &what("the warm round"));
        assert_eq!(
            warm.phase1.objective.to_bits(),
            restarted.phase1.objective.to_bits(),
            "{}",
            what("the warm round")
        );
        assert_eq!(
            warm.phase1.mip_stats.simplex_iterations,
            stats.simplex_iterations
        );
        assert_eq!(
            warm.targets,
            restarted.targets,
            "{}",
            what("the warm round")
        );
        assert_eq!(
            warm.phase2.is_some(),
            restarted.phase2.is_some(),
            "{}",
            what("the warm round")
        );
        assert_eq!(warm.moves, restarted.moves, "{}", what("the warm round"));

        // The same round from the slack crash: the same root LP, so each
        // objective lies within the other solve's proven gap.
        let primal = fresh_round(&region, &specs, &broker, false);
        let primal_stats = &primal.phase1.mip_stats;
        assert!(!primal_stats.root_used_dual_simplex);
        assert!(primal_stats.root_phase1_iterations > 0);
        let gap = stats.absolute_gap.max(primal_stats.absolute_gap);
        let apart = (restarted.phase1.objective - primal.phase1.objective).abs();
        assert!(
            apart <= gap + 1e-6,
            "{}: objectives {} and {} are {apart} apart, gaps {} and {}",
            what("the restarted round"),
            restarted.phase1.objective,
            primal.phase1.objective,
            stats.absolute_gap,
            primal_stats.absolute_gap
        );
    }
}

#[test]
fn round_zero_past_the_size_gate_goes_dual_first() {
    // Nothing runs yet, and nothing rewards staying: the start is the
    // empty plan, which the long step repairs as it would a running one.
    let (region, specs) = instance::portfolio(RegionTemplate::medium(), 2, 40, 0.5);
    let broker = instance::broker_for(&region, &specs);
    assert!(phase1_live_columns(&region, &specs, &broker) > AUTO_PARTIAL_MIN_COLS);
    let round0 = fresh_round(&region, &specs, &broker, true);
    assert!(round0.phase1.softened.is_empty());
    assert_root_from_plan(&round0.phase1, "round 0");
    for phase in round0.audit_phases() {
        let audit = &phase.mip_stats.audit;
        assert!(audit.certified_clean(), "{:?}", audit.violations);
    }
}

#[test]
fn restarted_solver_softens_what_the_primal_softens() {
    let (region, specs, broker, round0, _) = region_after_round_zero(24, 0.85);
    assert!(!round0.phase1.softened.is_empty(), "over-subscribed");
    // Round 0 is below the size gate. Its hard root started from the
    // empty plan; the softened retry keeps the gate, so its root — the
    // one the round reports — runs primal.
    let empty = instance::broker_for(&region, &specs);
    assert!(phase1_live_columns(&region, &specs, &empty) <= AUTO_PARTIAL_MIN_COLS);
    assert!(!round0.phase1.mip_stats.root_used_dual_simplex);

    // The dual proves the hard model infeasible itself; the softened
    // model built next is the one the primal's verdict leads to.
    let restarted = fresh_round(&region, &specs, &broker, true);
    let primal = fresh_round(&region, &specs, &broker, false);
    assert!(!restarted.phase1.softened.is_empty());
    assert_eq!(restarted.phase1.softened, primal.phase1.softened);
    let stats = &restarted.phase1.mip_stats;
    assert!(
        stats.audit.certified_clean(),
        "{:?}",
        stats.audit.violations
    );
    assert!(
        stats.root_used_dual_simplex,
        "the softened root past the gate went dual-first"
    );
    assert_eq!(stats.root_phase1_iterations, 0);
    assert!(primal.phase1.mip_stats.root_phase1_iterations > 0);
}
