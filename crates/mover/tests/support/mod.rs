//! The fleet scan [`ras_mover::OnlineMover`]'s replacement pools replaced,
//! kept as the oracle of the differential test: every failure walks
//! `ResourceBroker::iter` in id order for an idle, healthy, eligible
//! server of a shared buffer or the free pool.

use ras_broker::{EventNotice, ReservationId, ResourceBroker, SubscriberId};
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_topology::{Region, ServerId};

/// The replacement the fleet scan picks for `failed`.
pub fn scan_replacement(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &ResourceBroker,
    impacted_spec: &ReservationSpec,
    failed: ServerId,
) -> Option<ServerId> {
    let failed_hw = region.server(failed).hardware;
    let is_buffer = |r: Option<ReservationId>| match r {
        Some(id) => specs
            .get(id.index())
            .is_some_and(|s| s.kind == ReservationKind::SharedBuffer),
        None => false,
    };
    let mut fallback = None;
    for (server, record) in broker.iter() {
        if server == failed || !record.is_up() || record.running_containers > 0 {
            continue;
        }
        let hw = region.server(server).hardware;
        if !impacted_spec.rru.eligible(hw) {
            continue;
        }
        let from_buffer = is_buffer(record.current);
        let from_pool = record.current.is_none();
        if !from_buffer && !from_pool {
            continue;
        }
        if from_buffer && hw == failed_hw {
            return Some(server); // Ideal: same type, from the buffer.
        }
        if fallback.is_none() && (from_buffer || from_pool) {
            fallback = Some(server);
        }
    }
    fallback
}

/// `OnlineMover::handle_failures` over the scan: drains the subscriber's
/// notices and binds a replacement for every unplanned failure of a
/// guaranteed reservation's server. Returns `(failed, replacement)` pairs.
pub fn handle_failures_by_scan(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &mut ResourceBroker,
    subscriber: SubscriberId,
) -> Vec<(ServerId, ServerId)> {
    let mut replacements = Vec::new();
    for notice in broker.drain_events(subscriber) {
        let EventNotice::Down(event) = notice else {
            continue;
        };
        if !event.kind.is_unplanned() {
            continue;
        }
        let Some(impacted) = broker.record(event.server).ok().and_then(|r| r.current) else {
            continue;
        };
        let Some(spec) = specs.get(impacted.index()) else {
            continue;
        };
        if spec.kind != ReservationKind::Guaranteed {
            continue;
        }
        if let Some(replacement) = scan_replacement(region, specs, broker, spec, event.server) {
            if broker.bind_current(replacement, Some(impacted)).is_ok() {
                replacements.push((event.server, replacement));
            }
        }
    }
    replacements
}
