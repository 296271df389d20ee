//! Known defects, pinned as they behave today.
//!
//! Each test here asserts a wrong outcome on purpose, so that the change
//! fixing the defect must flip it (and say so) instead of passing it by
//! unnoticed. The comment on each test states the outcome it should
//! assert once fixed.

use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::rru::RruTable;
use ras::core::ReservationSpec;
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
