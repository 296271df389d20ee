//! A solver restart costs what a warm round costs.
//!
//! A fresh `AsyncSolver` has no basis to start from, but the model it
//! builds rewards every server for staying where it is, so the plan the
//! region already runs is a dual-feasible start: the cold root LP goes
//! dual-first from it (`ras::milp::simplex`, "Cold solves"), with no
//! phase 1 and no warm basis. These tests pin that on a medium region
//! where the model is past the size gate — and that round 0, which has no
//! plan to start from, still takes the primal path.

use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::solver::SolveOutput;
use ras::core::{AsyncSolver, ReservationSpec, SolverParams};
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

/// A medium region running the plan of a first round, 24 of its bound
/// servers then failed: `(region, specs, broker, round 0's output)`.
fn region_after_round_zero(
    utilization: f64,
) -> (Region, Vec<ReservationSpec>, ResourceBroker, SolveOutput) {
    let (region, specs) = instance::portfolio(RegionTemplate::medium(), 2, 24, utilization);
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
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
    (region, specs, broker, round0)
}

#[test]
fn restarted_solver_repairs_the_running_plan_with_the_dual() {
    let (region, specs, broker, round0) = region_after_round_zero(0.5);

    // From an empty broker nothing rewards staying: the empty plan is no
    // start worth repairing, and the primal two-phase solve runs.
    let first = &round0.phase1.mip_stats;
    assert!(!first.root_used_dual_simplex);
    assert!(first.root_phase1_iterations > 0);

    let restarted = fresh_round(&region, &specs, &broker, true);
    let stats = &restarted.phase1.mip_stats;
    assert!(restarted.phase1.softened.is_empty());
    assert!(
        restarted.phase1.assignment_vars > 4096,
        "past the size gate"
    );
    assert!(
        stats.root_used_dual_simplex,
        "the cold root went dual-first"
    );
    assert_eq!(stats.root_phase1_iterations, 0);
    assert!(!stats.warm_basis_accepted, "a fresh solver has no basis");
    assert!(
        stats.audit.certified_clean(),
        "{:?}",
        stats.audit.violations
    );

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
        "objectives {} and {} are {apart} apart, gaps {} and {}",
        restarted.phase1.objective,
        primal.phase1.objective,
        stats.absolute_gap,
        primal_stats.absolute_gap
    );
}

#[test]
fn restarted_solver_softens_what_the_primal_softens() {
    let (region, specs, broker, round0) = region_after_round_zero(0.85);
    assert!(!round0.phase1.softened.is_empty(), "over-subscribed");

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
        "the softened root went dual-first"
    );
    assert_eq!(stats.root_phase1_iterations, 0);
    assert!(primal.phase1.mip_stats.root_phase1_iterations > 0);
}
