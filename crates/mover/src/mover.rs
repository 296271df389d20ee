//! Target execution and failure replacement.

use std::collections::BTreeMap;

use ras_broker::{ChangeFeedId, EventNotice, ReservationId, ResourceBroker, SimTime, SubscriberId};
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_topology::{HardwareTypeId, Region, ServerId, ServerSet};

use crate::log::{MoveLog, MoveReason, MoveRecord};

/// Simulated seconds to provide a failure replacement (paper: < 1 min).
pub const REPLACEMENT_LATENCY_SECS: u64 = 60;

/// Mover tuning. It has no settings: the mover executes every pending
/// move each cycle. [`OnlineMover::new`] still takes it because callers,
/// the benchmark driver among them, pass `MoverConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct MoverConfig {}

/// Where an idle, up server is filed: its hardware type and its binding.
/// Whether a binding is a shared buffer is the caller's `specs` to say, at
/// the time of the failure.
type Pool = (HardwareTypeId, Option<ReservationId>);

/// The Online Mover.
#[derive(Debug)]
pub struct OnlineMover {
    subscriber: SubscriberId,
    /// The broker change feed that keeps `pools` current.
    feed: ChangeFeedId,
    /// Up servers without containers, ascending within each pool — the
    /// only servers a failure replacement can come from.
    pools: BTreeMap<Pool, ServerSet>,
    /// The pool each server is filed in, indexed by [`ServerId::index`].
    filed: Vec<Option<Pool>>,
    /// Executed-move log (Figure 16's data source).
    pub log: MoveLog,
    /// Work counter of the latest [`OnlineMover::handle_failures`] call:
    /// pool servers inspected over all its replacements. The pools keep
    /// it proportional to hardware types times buffer reservations, not
    /// to fleet size.
    pub last_servers_inspected: usize,
}

impl OnlineMover {
    /// Creates a mover and subscribes it to broker events and changes.
    pub fn new(broker: &mut ResourceBroker, _config: MoverConfig) -> Self {
        Self {
            subscriber: broker.subscribe(),
            feed: broker.watch_changes(),
            pools: BTreeMap::new(),
            filed: Vec::new(),
            log: MoveLog::new(),
            last_servers_inspected: 0,
        }
    }

    /// Executes pending solver targets: for every server whose `target`
    /// differs from `current`, preempt (via `preempt`, which the caller
    /// wires to the Twine allocator), clean up, apply the host profile,
    /// and flip the binding. Returns the number of moves executed.
    pub fn execute_targets(
        &mut self,
        broker: &mut ResourceBroker,
        at: SimTime,
        mut preempt: impl FnMut(ServerId, &mut ResourceBroker),
    ) -> usize {
        let pending = broker.pending_moves();
        let mut executed = 0;
        for server in pending {
            let Ok(record) = broker.record(server) else {
                continue;
            };
            // Down servers cannot be reconfigured; the move waits.
            if !record.is_up() {
                continue;
            }
            let (from, target) = (record.current, record.target);
            let in_use = record.running_containers > 0;
            if in_use {
                // Preempt containers off the host (host cleanup + OS
                // reconfiguration follow in the real system).
                preempt(server, broker);
            }
            if broker.bind_current(server, target).is_err() {
                continue;
            }
            self.log.push(MoveRecord {
                server,
                from,
                to: target,
                at,
                in_use,
                reason: MoveReason::SolverTarget,
            });
            executed += 1;
        }
        executed
    }

    /// Drains unavailability notices and provides replacements for
    /// *unplanned* single-server failures from the shared buffer (planned
    /// events are pre-baked into embedded buffers and need no action;
    /// correlated failures are absorbed by embedded buffers too).
    ///
    /// Returns `(failed, replacement)` pairs, each completed within
    /// [`REPLACEMENT_LATENCY_SECS`] of the notice.
    pub fn handle_failures(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        broker: &mut ResourceBroker,
        at: SimTime,
    ) -> Vec<(ServerId, ServerId)> {
        let notices = broker.drain_events(self.subscriber);
        let mut replacements = Vec::new();
        self.last_servers_inspected = 0;
        for notice in notices {
            let EventNotice::Down(event) = notice else {
                continue;
            };
            if !event.kind.is_unplanned() {
                continue;
            }
            let Ok(record) = broker.record(event.server) else {
                continue;
            };
            let Some(impacted) = record.current else {
                continue;
            };
            let Some(spec) = specs.get(impacted.index()) else {
                continue;
            };
            if spec.kind != ReservationKind::Guaranteed {
                continue;
            }
            self.sync(region, broker);
            if let Some(replacement) =
                self.find_buffer_replacement(region, specs, spec, event.server)
            {
                let done = at.plus_secs(REPLACEMENT_LATENCY_SECS);
                let from = broker
                    .record(replacement)
                    .map(|r| r.current)
                    .unwrap_or(None);
                if broker.bind_current(replacement, Some(impacted)).is_ok() {
                    // The quick decision may be suboptimal; the next solve
                    // is free to improve it (targets unchanged here).
                    self.log.push(MoveRecord {
                        server: replacement,
                        from,
                        to: Some(impacted),
                        at: done,
                        in_use: false,
                        reason: MoveReason::FailureReplacement,
                    });
                    replacements.push((event.server, replacement));
                }
            }
        }
        replacements
    }

    /// Brings the pools up to the broker's state: re-files every server
    /// the change feed reports.
    fn sync(&mut self, region: &Region, broker: &mut ResourceBroker) {
        self.filed.resize(region.server_count(), None);
        let (filed, pools) = (&mut self.filed, &mut self.pools);
        broker.take_changes(self.feed, |server, record| {
            // A server the region does not describe is no replacement
            // for anything.
            let Some(filed) = filed.get_mut(server.index()) else {
                return;
            };
            let pool = (record.is_up() && record.running_containers == 0)
                .then(|| (region.server(server).hardware, record.current));
            if *filed == pool {
                return;
            }
            if let Some(old) = std::mem::replace(filed, pool) {
                let mut was_filed = false;
                if let Some(servers) = pools.get_mut(&old) {
                    was_filed = servers.remove(server);
                    if servers.is_empty() {
                        pools.remove(&old);
                    }
                }
                debug_assert!(was_filed, "{server} missing from its pool");
            }
            if let Some(new) = pool {
                let is_new = pools.entry(new).or_default().insert(server);
                debug_assert!(is_new, "{server} filed twice");
            }
        });
    }

    /// Finds a healthy, idle server in a shared-buffer reservation (or
    /// the free pool as a fallback) that the impacted workload can use —
    /// preferring the same hardware type as the failed server.
    ///
    /// The answer is the one an id-ordered walk of the fleet gives: the
    /// first buffer server of the failed server's type if that type is
    /// eligible and one exists, else the lowest-id eligible server of the
    /// buffers and the free pool. Each pool is ascending, so its head is
    /// all of it that can be the answer.
    fn find_buffer_replacement(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        impacted_spec: &ReservationSpec,
        failed: ServerId,
    ) -> Option<ServerId> {
        let failed_hw = region.server(failed).hardware;
        let buffers = || {
            specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.kind == ReservationKind::SharedBuffer)
                .map(|(i, _)| Some(ReservationId::from_index(i)))
        };
        let mut inspected = 0;
        let mut head = |hw: HardwareTypeId, binding: Option<ReservationId>| {
            let first = self.pools.get(&(hw, binding))?.next_from(ServerId(0));
            inspected += 1;
            first
        };
        let mut choice = None;
        if impacted_spec.rru.eligible(failed_hw) {
            // Ideal: same type, from the buffer.
            choice = buffers().filter_map(|b| head(failed_hw, b)).min();
        }
        if choice.is_none() {
            choice = region
                .catalog
                .iter()
                .filter(|hw| impacted_spec.rru.eligible(hw.id))
                .flat_map(|hw| {
                    std::iter::once(None)
                        .chain(buffers())
                        .map(move |binding| (hw.id, binding))
                })
                .filter_map(|(hw, binding)| head(hw, binding))
                .min();
        }
        self.last_servers_inspected += inspected;
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_broker::{UnavailabilityEvent, UnavailabilityKind};
    use ras_core::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn executes_pending_targets() {
        let (_region, mut broker) = setup();
        let r0 = broker.register_reservation("web");
        let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
        for i in 0..5 {
            broker.set_target(ServerId(i), Some(r0)).unwrap();
        }
        let moved = mover.execute_targets(&mut broker, SimTime::ZERO, |_, _| {});
        assert_eq!(moved, 5);
        assert!(broker.pending_moves().is_empty());
        assert_eq!(broker.member_count(r0), 5);
        assert_eq!(mover.log.totals(), (0, 5));
    }

    #[test]
    fn preempts_busy_servers_and_logs_in_use() {
        let (_region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let r1 = broker.register_reservation("b");
        broker.bind_current(ServerId(0), Some(r0)).unwrap();
        broker.set_running_containers(ServerId(0), 2).unwrap();
        let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
        broker.set_target(ServerId(0), Some(r1)).unwrap();
        let mut preempted = Vec::new();
        mover.execute_targets(&mut broker, SimTime::ZERO, |s, _| preempted.push(s));
        assert_eq!(preempted, vec![ServerId(0)]);
        assert_eq!(mover.log.totals(), (1, 0));
        assert_eq!(broker.record(ServerId(0)).unwrap().current, Some(r1));
    }

    #[test]
    fn down_servers_wait_for_recovery() {
        let (_region, mut broker) = setup();
        let r0 = broker.register_reservation("web");
        let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
        broker.set_target(ServerId(0), Some(r0)).unwrap();
        broker
            .mark_down(UnavailabilityEvent {
                server: ServerId(0),
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(ServerId(0)),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        assert_eq!(
            mover.execute_targets(&mut broker, SimTime::ZERO, |_, _| {}),
            0
        );
        assert_eq!(broker.pending_moves().len(), 1, "move stays pending");
    }

    #[test]
    fn unplanned_failure_gets_buffer_replacement() {
        let (region, mut broker) = setup();
        let specs = vec![
            ras_core::ReservationSpec::guaranteed(
                "web",
                5.0,
                RruTable::uniform(&region.catalog, 1.0),
            ),
            ras_core::ReservationSpec::shared_buffer(
                "buffer",
                3.0,
                RruTable::uniform(&region.catalog, 1.0),
            ),
        ];
        let web = broker.register_reservation("web");
        let buf = broker.register_reservation("buffer");
        let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
        for i in 0..5 {
            broker.bind_current(ServerId(i), Some(web)).unwrap();
        }
        for i in 5..8 {
            broker.bind_current(ServerId(i), Some(buf)).unwrap();
        }
        broker
            .mark_down(UnavailabilityEvent {
                server: ServerId(2),
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(ServerId(2)),
                start: SimTime::from_minutes(10),
                expected_end: None,
            })
            .unwrap();
        let replacements =
            mover.handle_failures(&region, &specs, &mut broker, SimTime::from_minutes(10));
        assert_eq!(replacements.len(), 1);
        let (failed, replacement) = replacements[0];
        assert_eq!(failed, ServerId(2));
        // The replacement joined the impacted reservation within a minute.
        assert_eq!(broker.record(replacement).unwrap().current, Some(web));
        let last = *mover.log.records().last().unwrap();
        assert_eq!(last.reason, MoveReason::FailureReplacement);
        assert!(last.at.since(SimTime::from_minutes(10)) <= 60);
    }

    #[test]
    fn planned_and_correlated_events_need_no_replacement() {
        let (region, mut broker) = setup();
        let specs = vec![ras_core::ReservationSpec::guaranteed(
            "web",
            5.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let web = broker.register_reservation("web");
        let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
        broker.bind_current(ServerId(0), Some(web)).unwrap();
        for kind in [
            UnavailabilityKind::PlannedMaintenance,
            UnavailabilityKind::CorrelatedFailure,
        ] {
            broker
                .mark_down(UnavailabilityEvent {
                    server: ServerId(0),
                    kind,
                    scope: ScopeId::Server(ServerId(0)),
                    start: SimTime::ZERO,
                    expected_end: None,
                })
                .unwrap();
            let replacements = mover.handle_failures(&region, &specs, &mut broker, SimTime::ZERO);
            assert!(
                replacements.is_empty(),
                "{kind:?} must be absorbed by embedded buffers"
            );
            broker.mark_up(ServerId(0), SimTime::ZERO).unwrap();
            let _ = broker.drain_events(mover.subscriber);
        }
    }
}
