//! Known defects, pinned as they behave today.
//!
//! Each test here asserts a wrong outcome on purpose, so that the change
//! fixing the defect must flip it (and say so) instead of passing it by
//! unnoticed. The comment on each test states the outcome it should
//! assert once fixed.

use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::rru::RruTable;
use ras::core::{AsyncSolver, ReservationSpec, SolverParams};
use ras::mover::{MoverConfig, OnlineMover};
use ras::topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};

/// Known defect: `OnlineMover::handle_failures` binds a replacement's
/// `current` to the impacted reservation but leaves its `target` at the
/// shared buffer, so an `execute_targets` that runs before the next solve
/// moves the replacement straight back. Every loop today solves and
/// applies before it executes targets, which hides it.
///
/// Fixed, the replacement is not pending (`pending_moves()` empty) and
/// the next `execute_targets` executes no move, leaving server 5 in web.
#[test]
fn known_defect_failure_replacement_is_moved_back_to_the_buffer() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", 5.0, rru.clone()),
        ReservationSpec::shared_buffer("buffer", 3.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    let web = broker.register_reservation("web");
    let buffer = broker.register_reservation("buffer");
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    // Web on servers 0–4, the buffer on 5–7, targets and bindings agreed.
    for i in 0..8 {
        let target = if i < 5 { web } else { buffer };
        broker.set_target(ServerId(i), Some(target)).unwrap();
    }
    assert_eq!(
        mover.execute_targets(&mut broker, SimTime::ZERO, |_, _| {}),
        8
    );
    assert!(broker.pending_moves().is_empty());

    let at = SimTime::from_minutes(10);
    broker
        .mark_down(UnavailabilityEvent {
            server: ServerId(2),
            kind: UnavailabilityKind::UnplannedHardware,
            scope: ScopeId::Server(ServerId(2)),
            start: at,
            expected_end: None,
        })
        .unwrap();
    let replacements = mover.handle_failures(&region, &specs, &mut broker, at);
    assert_eq!(replacements, vec![(ServerId(2), ServerId(5))]);
    assert_eq!(broker.record(ServerId(5)).unwrap().current, Some(web));

    // The defect: the replacement's target still names the buffer.
    assert_eq!(broker.pending_moves(), vec![ServerId(5)]);
    assert_eq!(
        mover.execute_targets(&mut broker, at.plus_secs(120), |_, _| {}),
        1
    );
    assert_eq!(broker.record(ServerId(5)).unwrap().current, Some(buffer));
    // Web is back to its five servers, one of them (server 2) down.
    let web_members: Vec<ServerId> = (0..5).map(ServerId).collect();
    assert_eq!(broker.members_of(web), web_members);
}

/// Known defect: a sharded quiet round is not a fixed point. Each shard's
/// phase 1 plans its universe before the merge, and `reconcile` then
/// releases the surplus the per-shard buffers leave, so the broker's
/// targets never equal a shard's phase-1 plan: the steady-state check
/// never fires, every shard runs phase 2 in every round, and the first
/// quiet round after round 0's plan is applied moves servers (9 here).
/// At one shard the same region keeps round 0's plan from round 1 on
/// (`tests/quiet_rounds.rs`).
///
/// Fixed, every round from round 1 on returns round 0's targets, plans
/// 0 moves and runs phase 2 in no shard.
#[test]
fn known_defect_sharded_quiet_rounds_run_phase_2_and_move() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 108).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", 40.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 25.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::new(SolverParams {
        shards: 2,
        ..SolverParams::default()
    });
    let mut moves = Vec::new();
    for hour in 0..4 {
        let snapshot = broker.snapshot(SimTime::from_hours(hour));
        let out = solver.solve(&region, &specs, &snapshot).unwrap();
        let sharded = out.sharded.as_ref().expect("a sharded round");
        // The defect: every shard refines its plan again, every round.
        assert!(
            sharded.shards.iter().all(|s| s.phase2.is_some()),
            "round {hour}"
        );
        assert!(sharded.reconcile.released > 0, "round {hour}");
        moves.push(out.moves.total());
        solver.apply(&out, &mut broker).unwrap();
        for s in broker.pending_moves() {
            let target = broker.record(s).unwrap().target;
            broker.bind_current(s, target).unwrap();
        }
    }
    // The defect: round 1, the first quiet round, moves servers.
    assert!(moves[1] > 0, "moves per round: {moves:?}");
}
