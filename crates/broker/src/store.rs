//! The broker store: versioned records plus the subscription fan-out.

use ras_topology::{ServerId, ServerSet};

use crate::events::{
    ChangeFeedId, ChangeFeeds, EventNotice, EventQueue, SubscriberId, UnavailabilityEvent,
};
use crate::record::{ReservationId, ServerRecord};
use crate::time::SimTime;

/// Errors returned by broker writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The server identifier is not registered.
    UnknownServer(ServerId),
    /// A compare-and-set failed because the record moved on.
    VersionConflict {
        /// The server whose write failed.
        server: ServerId,
        /// Version the caller expected.
        expected: u64,
        /// Version actually stored.
        actual: u64,
    },
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownServer(s) => write!(f, "unknown server {s}"),
            BrokerError::VersionConflict {
                server,
                expected,
                actual,
            } => write!(
                f,
                "version conflict on {server}: expected {expected}, found {actual}"
            ),
        }
    }
}

impl std::error::Error for BrokerError {}

/// A point-in-time copy of every record, consumed by the Async Solver.
#[derive(Debug, Clone)]
pub struct BrokerSnapshot {
    /// When the snapshot was taken.
    pub taken_at: SimTime,
    /// Records indexed by [`ServerId::index`].
    pub records: Vec<ServerRecord>,
}

impl BrokerSnapshot {
    /// Record for one server.
    pub fn record(&self, server: ServerId) -> &ServerRecord {
        &self.records[server.index()]
    }
}

/// The region's server-state store (paper Figure 6, bottom).
///
/// Membership is indexed where it changes: every write that moves
/// `current` or `target` also moves the server between the
/// [`ServerSet`]s below (one bit per server, O(1) per move), so
/// [`ResourceBroker::members_of`], [`ResourceBroker::member_count`] and
/// [`ResourceBroker::pending_moves`] never walk the fleet.
#[derive(Debug, Default)]
pub struct ResourceBroker {
    records: Vec<ServerRecord>,
    reservation_names: Vec<String>,
    events: EventQueue,
    /// `members[r]`: servers with `current == Some(r)`.
    members: Vec<ServerSet>,
    /// Servers with `current == None`.
    unbound: ServerSet,
    /// Servers with `target != current`.
    pending: ServerSet,
    changes: ChangeFeeds,
}

/// Files `server` in the pending-move set `pending` when its record `r`
/// has `target != current`, and takes it out otherwise.
fn file_pending(pending: &mut ServerSet, server: ServerId, r: &ServerRecord) {
    if r.target != r.current {
        pending.insert(server);
    } else {
        pending.remove(server);
    }
}

impl ResourceBroker {
    /// Creates a broker tracking `server_count` servers, all unassigned.
    pub fn new(server_count: usize) -> Self {
        Self {
            records: vec![ServerRecord::default(); server_count],
            unbound: (0..server_count).map(ServerId::from_index).collect(),
            ..Self::default()
        }
    }

    /// Registers a reservation name, returning its identifier.
    pub fn register_reservation(&mut self, name: impl Into<String>) -> ReservationId {
        self.reservation_names.push(name.into());
        ReservationId::from_index(self.reservation_names.len() - 1)
    }

    /// Number of tracked servers.
    pub fn server_count(&self) -> usize {
        self.records.len()
    }

    /// Read one record.
    pub fn record(&self, server: ServerId) -> Result<&ServerRecord, BrokerError> {
        self.records
            .get(server.index())
            .ok_or(BrokerError::UnknownServer(server))
    }

    fn record_mut(&mut self, server: ServerId) -> Result<&mut ServerRecord, BrokerError> {
        self.records
            .get_mut(server.index())
            .ok_or(BrokerError::UnknownServer(server))
    }

    /// The set holding the servers bound to `binding`.
    fn bound_set(&mut self, binding: Option<ReservationId>) -> &mut ServerSet {
        match binding {
            None => &mut self.unbound,
            Some(r) => {
                // Bindings may name a reservation that was never registered.
                if self.members.len() <= r.index() {
                    self.members.resize_with(r.index() + 1, ServerSet::new);
                }
                &mut self.members[r.index()]
            }
        }
    }

    /// Re-files `server` in the pending-move set after a write to its
    /// `target` or `current`.
    fn refile_pending(&mut self, server: ServerId) {
        file_pending(&mut self.pending, server, &self.records[server.index()]);
    }

    /// Writes the solver's target for one server (unconditional).
    pub fn set_target(
        &mut self,
        server: ServerId,
        target: Option<ReservationId>,
    ) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        r.target = target;
        r.version += 1;
        self.refile_pending(server);
        Ok(())
    }

    /// Writes the solver's targets for the fleet, `targets[i]` for
    /// server `i`, in one pass over the records: every server whose target
    /// differs gets the write [`Self::set_target`] makes, in ascending id
    /// order, and every other record is left as it is (its version does
    /// not move). Entries past the fleet are ignored; servers past the
    /// end of `targets` keep their target.
    pub fn apply_targets(&mut self, targets: &[Option<ReservationId>]) {
        for (i, (r, target)) in self.records.iter_mut().zip(targets).enumerate() {
            if r.target != *target {
                r.target = *target;
                r.version += 1;
                file_pending(&mut self.pending, ServerId::from_index(i), r);
            }
        }
    }

    /// Compare-and-set write of the target, used by the emergency
    /// out-of-band path so it cannot clobber a concurrent solve result.
    pub fn cas_target(
        &mut self,
        server: ServerId,
        expected_version: u64,
        target: Option<ReservationId>,
    ) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        if r.version != expected_version {
            return Err(BrokerError::VersionConflict {
                server,
                expected: expected_version,
                actual: r.version,
            });
        }
        r.target = target;
        r.version += 1;
        self.refile_pending(server);
        Ok(())
    }

    /// Materializes a binding: the Online Mover sets `current` after the
    /// preempt/cleanup/reconfigure sequence completes.
    pub fn bind_current(
        &mut self,
        server: ServerId,
        current: Option<ReservationId>,
    ) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        let previous = std::mem::replace(&mut r.current, current);
        // Any rebinding also cancels an elastic loan.
        r.elastic = None;
        r.version += 1;
        if previous != current {
            let was_filed = self.bound_set(previous).remove(server);
            let is_new = self.bound_set(current).insert(server);
            debug_assert!(
                was_filed && is_new,
                "{server} filed under the wrong binding"
            );
            self.refile_pending(server);
            self.changes.mark(server);
        }
        Ok(())
    }

    /// Loans an idle server to an elastic reservation.
    pub fn set_elastic(
        &mut self,
        server: ServerId,
        elastic: Option<ReservationId>,
    ) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        r.elastic = elastic;
        r.version += 1;
        Ok(())
    }

    /// Updates the container count reported by the Twine allocator.
    pub fn set_running_containers(&mut self, server: ServerId, n: u32) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        let changed = r.running_containers != n;
        r.running_containers = n;
        r.version += 1;
        if changed {
            self.changes.mark(server);
        }
        Ok(())
    }

    /// Health Check Service: marks a server down and notifies subscribers.
    pub fn mark_down(&mut self, event: UnavailabilityEvent) -> Result<(), BrokerError> {
        let r = self.record_mut(event.server)?;
        let was_up = r.unavailability.replace(Box::new(event)).is_none();
        r.version += 1;
        self.events.publish(EventNotice::Down(event));
        if was_up {
            self.changes.mark(event.server);
        }
        Ok(())
    }

    /// Health Check Service: clears a server's unavailability.
    pub fn mark_up(&mut self, server: ServerId, at: SimTime) -> Result<(), BrokerError> {
        let r = self.record_mut(server)?;
        if r.unavailability.take().is_some() {
            r.version += 1;
            self.events.publish(EventNotice::Recovered { server, at });
            self.changes.mark(server);
        }
        Ok(())
    }

    /// Registers an event subscriber (Mover, Twine).
    pub fn subscribe(&mut self) -> SubscriberId {
        self.events.subscribe()
    }

    /// Drains pending notices for one subscriber.
    pub fn drain_events(&mut self, subscriber: SubscriberId) -> Vec<EventNotice> {
        self.events.drain(subscriber)
    }

    /// Registers a change-feed consumer (Mover, Twine). Its first
    /// [`ResourceBroker::take_changes`] reports every server.
    pub fn watch_changes(&mut self) -> ChangeFeedId {
        self.changes.subscribe(self.records.len())
    }

    /// Shows `visit` the servers whose binding (`current`), health
    /// (`is_up`) or container count changed since this consumer's last
    /// call — each once, in first-change order, with its record as it is
    /// now — so the consumer can update whatever it derives from them.
    ///
    /// # Panics
    ///
    /// Panics if the handle was not issued by this broker.
    pub fn take_changes(
        &mut self,
        consumer: ChangeFeedId,
        mut visit: impl FnMut(ServerId, &ServerRecord),
    ) {
        let records = &self.records;
        self.changes.drain(consumer, |server| {
            // Only servers with a record are ever marked.
            if let Some(record) = records.get(server.index()) {
                visit(server, record);
            }
        });
    }

    /// Takes a consistent snapshot for the Async Solver.
    pub fn snapshot(&self, at: SimTime) -> BrokerSnapshot {
        BrokerSnapshot {
            taken_at: at,
            records: self.records.clone(),
        }
    }

    /// Servers whose target differs from their current binding — the
    /// Online Mover's work queue, ascending.
    pub fn pending_moves(&self) -> Vec<ServerId> {
        self.pending.iter().collect()
    }

    /// Servers currently bound to a reservation, ascending.
    pub fn members_of(&self, reservation: ReservationId) -> Vec<ServerId> {
        self.members(reservation).collect()
    }

    /// [`ResourceBroker::members_of`] without the allocation: borrows the
    /// member set and yields it in ascending order.
    pub fn members(&self, reservation: ReservationId) -> impl Iterator<Item = ServerId> + '_ {
        self.members.get(reservation.index()).into_iter().flatten()
    }

    /// Servers bound to no reservation (the free pool), ascending.
    pub fn unbound(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.unbound.iter()
    }

    /// Count of servers currently bound to a reservation.
    pub fn member_count(&self, reservation: ReservationId) -> usize {
        self.members
            .get(reservation.index())
            .map_or(0, ServerSet::len)
    }

    /// Iterates `(server, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, &ServerRecord)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (ServerId::from_index(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::UnavailabilityKind;
    use ras_topology::ScopeId;

    fn broker() -> ResourceBroker {
        ResourceBroker::new(4)
    }

    #[test]
    fn set_and_read_target() {
        let mut b = broker();
        let r = b.register_reservation("web");
        b.set_target(ServerId(1), Some(r)).unwrap();
        assert_eq!(b.record(ServerId(1)).unwrap().target, Some(r));
        assert_eq!(b.record(ServerId(0)).unwrap().target, None);
    }

    /// One pass over the records leaves the broker exactly as a
    /// `set_target` per changed server, in id order, does: the same
    /// targets, versions and pending moves, unchanged records untouched.
    #[test]
    fn apply_targets_is_set_target_per_changed_server() {
        let before = || {
            let mut b = ResourceBroker::new(6);
            let web = b.register_reservation("web");
            let feed = b.register_reservation("feed");
            b.bind_current(ServerId(1), Some(web)).unwrap();
            b.bind_current(ServerId(2), Some(feed)).unwrap();
            b.set_target(ServerId(2), Some(web)).unwrap();
            b.set_target(ServerId(3), Some(feed)).unwrap();
            (b, web, feed)
        };
        let (mut a, web, feed) = before();
        let (mut b, _, _) = before();
        let targets = [None, Some(web), Some(feed), Some(feed), Some(web), None];
        a.apply_targets(&targets);
        for (i, t) in targets.iter().enumerate() {
            let s = ServerId::from_index(i);
            if b.record(s).unwrap().target != *t {
                b.set_target(s, *t).unwrap();
            }
        }
        let state = |x: &ResourceBroker| -> Vec<(Option<ReservationId>, u64)> {
            x.iter().map(|(_, r)| (r.target, r.version)).collect()
        };
        assert_eq!(state(&a), state(&b));
        assert_eq!(a.pending_moves(), b.pending_moves());
        assert_eq!(a.pending_moves(), vec![ServerId(3), ServerId(4)]);
    }

    #[test]
    fn unknown_server_rejected() {
        let mut b = broker();
        assert!(matches!(
            b.set_target(ServerId(99), None),
            Err(BrokerError::UnknownServer(_))
        ));
    }

    #[test]
    fn cas_succeeds_then_conflicts() {
        let mut b = broker();
        let r = b.register_reservation("web");
        let v = b.record(ServerId(0)).unwrap().version;
        b.cas_target(ServerId(0), v, Some(r)).unwrap();
        let err = b.cas_target(ServerId(0), v, None).unwrap_err();
        assert!(matches!(err, BrokerError::VersionConflict { .. }));
    }

    #[test]
    fn pending_moves_tracks_divergence() {
        let mut b = broker();
        let r = b.register_reservation("web");
        b.set_target(ServerId(2), Some(r)).unwrap();
        assert_eq!(b.pending_moves(), vec![ServerId(2)]);
        b.bind_current(ServerId(2), Some(r)).unwrap();
        assert!(b.pending_moves().is_empty());
        assert_eq!(b.members_of(r), vec![ServerId(2)]);
        assert_eq!(b.member_count(r), 1);
    }

    #[test]
    fn binding_cancels_elastic_loan() {
        let mut b = broker();
        let guaranteed = b.register_reservation("web");
        let elastic = b.register_reservation("elastic");
        b.set_elastic(ServerId(0), Some(elastic)).unwrap();
        assert_eq!(b.record(ServerId(0)).unwrap().elastic, Some(elastic));
        b.bind_current(ServerId(0), Some(guaranteed)).unwrap();
        assert_eq!(b.record(ServerId(0)).unwrap().elastic, None);
    }

    #[test]
    fn down_and_up_publish_notices() {
        let mut b = broker();
        let sub = b.subscribe();
        let event = UnavailabilityEvent {
            server: ServerId(1),
            kind: UnavailabilityKind::UnplannedHardware,
            scope: ScopeId::Server(ServerId(1)),
            start: SimTime::from_hours(1),
            expected_end: None,
        };
        b.mark_down(event).unwrap();
        assert!(!b.record(ServerId(1)).unwrap().is_up());
        b.mark_up(ServerId(1), SimTime::from_hours(2)).unwrap();
        assert!(b.record(ServerId(1)).unwrap().is_up());
        let notices = b.drain_events(sub);
        assert_eq!(notices.len(), 2);
        // Marking an already-up server up again publishes nothing.
        b.mark_up(ServerId(1), SimTime::from_hours(3)).unwrap();
        assert!(b.drain_events(sub).is_empty());
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let mut b = broker();
        let r = b.register_reservation("web");
        b.set_target(ServerId(0), Some(r)).unwrap();
        let snap = b.snapshot(SimTime::from_hours(1));
        b.set_target(ServerId(0), None).unwrap();
        assert_eq!(snap.record(ServerId(0)).target, Some(r));
        assert_eq!(snap.taken_at, SimTime::from_hours(1));
    }
}
