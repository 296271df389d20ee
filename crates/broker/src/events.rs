//! Unavailability events and polled subscription queues.
//!
//! The Health Check Service writes unavailability events into the broker;
//! the Online Mover and the Twine allocator subscribe (paper Figure 6,
//! step 7). For deterministic simulation the "callback" is modeled as a
//! per-subscriber queue drained by each component on its own schedule.
//!
//! Beside the notice queues sits the *change feed* ([`ChangeFeeds`]): per
//! consumer, the set of servers whose binding, health or container count
//! changed since that consumer last drained it. Consumers re-read those
//! records and update their own typed indexes, so the broker never learns
//! about hardware types or container shapes.

use ras_topology::{ScopeId, ServerId};

use crate::time::SimTime;

/// Classification of an unavailability event (paper Section 2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnavailabilityKind {
    /// Planned maintenance (server, switch, power device, kernel update).
    /// Planned events are absorbed by embedded buffers; the solver still
    /// counts these servers as usable capacity.
    PlannedMaintenance,
    /// Unplanned hardware failure (repairs last days to weeks).
    UnplannedHardware,
    /// Unplanned software failure (crashes, bad kernels; minutes to hours).
    UnplannedSoftware,
    /// Correlated failure of a power/network/cooling device taking out a
    /// whole scope (power row or MSB).
    CorrelatedFailure,
}

impl UnavailabilityKind {
    /// True for the two unplanned single-server kinds, which the Online
    /// Mover must replace from the shared buffer within a minute.
    pub fn is_unplanned(self) -> bool {
        matches!(
            self,
            UnavailabilityKind::UnplannedHardware | UnavailabilityKind::UnplannedSoftware
        )
    }
}

/// One unavailability event affecting one server.
///
/// Correlated failures are fanned out into one event per member server,
/// all carrying the failing [`ScopeId`] so subscribers can recognize the
/// common cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnavailabilityEvent {
    /// The affected server.
    pub server: ServerId,
    /// Event class.
    pub kind: UnavailabilityKind,
    /// The failing fault domain (equals `Server(server)` for random
    /// failures, the row/MSB for correlated ones).
    pub scope: ScopeId,
    /// When the event started.
    pub start: SimTime,
    /// Expected end, when known (planned maintenance always knows it).
    pub expected_end: Option<SimTime>,
}

/// Handle identifying a subscriber's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(pub u32);

/// A change notice delivered to subscribers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventNotice {
    /// A server became unavailable.
    Down(UnavailabilityEvent),
    /// A server recovered (event cleared).
    Recovered {
        /// The recovered server.
        server: ServerId,
        /// When it recovered.
        at: SimTime,
    },
}

/// Per-subscriber FIFO queues of event notices.
#[derive(Debug, Default)]
pub struct EventQueue {
    queues: Vec<Vec<EventNotice>>,
}

impl EventQueue {
    /// Creates an empty queue set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new subscriber and returns its handle.
    pub fn subscribe(&mut self) -> SubscriberId {
        self.queues.push(Vec::new());
        SubscriberId((self.queues.len() - 1) as u32)
    }

    /// Publishes a notice to every subscriber.
    pub fn publish(&mut self, notice: EventNotice) {
        for q in &mut self.queues {
            q.push(notice);
        }
    }

    /// Drains all pending notices for one subscriber.
    ///
    /// # Panics
    ///
    /// Panics if the subscriber handle was not issued by this queue.
    pub fn drain(&mut self, subscriber: SubscriberId) -> Vec<EventNotice> {
        std::mem::take(&mut self.queues[subscriber.0 as usize])
    }
}

/// Handle identifying a consumer's change feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChangeFeedId(pub u32);

/// One consumer's pending changes: each server at most once, in the order
/// it first changed.
#[derive(Debug)]
struct ChangeFeed {
    changed: Vec<ServerId>,
    /// `listed[s]` ⇔ `s` is in `changed` (keeps the list duplicate-free and
    /// therefore bounded by the fleet size however late the consumer drains).
    listed: Vec<bool>,
}

/// Per-consumer sets of servers changed since the consumer's last drain.
#[derive(Debug, Default)]
pub struct ChangeFeeds {
    feeds: Vec<ChangeFeed>,
}

impl ChangeFeeds {
    /// Registers a consumer. Its first drain reports all `server_count`
    /// servers (ascending), so a consumer builds its index and keeps it
    /// current through one code path.
    pub fn subscribe(&mut self, server_count: usize) -> ChangeFeedId {
        self.feeds.push(ChangeFeed {
            changed: (0..server_count).map(ServerId::from_index).collect(),
            listed: vec![true; server_count],
        });
        ChangeFeedId((self.feeds.len() - 1) as u32)
    }

    /// Records a change of `server` for every consumer.
    pub fn mark(&mut self, server: ServerId) {
        for feed in &mut self.feeds {
            if let Some(listed) = feed.listed.get_mut(server.index()) {
                if !*listed {
                    *listed = true;
                    feed.changed.push(server);
                }
            }
        }
    }

    /// Hands one consumer's pending changes to `visit`, in first-change
    /// order, and forgets them.
    ///
    /// # Panics
    ///
    /// Panics if the handle was not issued by this feed set.
    pub fn drain(&mut self, consumer: ChangeFeedId, mut visit: impl FnMut(ServerId)) {
        let feed = &mut self.feeds[consumer.0 as usize];
        for server in feed.changed.drain(..) {
            feed.listed[server.index()] = false;
            visit(server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::MsbId;

    fn event() -> UnavailabilityEvent {
        UnavailabilityEvent {
            server: ServerId(3),
            kind: UnavailabilityKind::CorrelatedFailure,
            scope: ScopeId::Msb(MsbId(1)),
            start: SimTime::from_hours(5),
            expected_end: None,
        }
    }

    #[test]
    fn publish_reaches_every_subscriber() {
        let mut q = EventQueue::new();
        let a = q.subscribe();
        let b = q.subscribe();
        q.publish(EventNotice::Down(event()));
        assert_eq!(q.drain(a).len(), 1);
        assert_eq!(q.drain(b).len(), 1);
        assert!(q.drain(a).is_empty(), "drain must consume");
    }

    #[test]
    fn late_subscriber_misses_earlier_notices() {
        let mut q = EventQueue::new();
        let a = q.subscribe();
        q.publish(EventNotice::Down(event()));
        let late = q.subscribe();
        assert_eq!(q.drain(a).len(), 1);
        assert!(q.drain(late).is_empty());
    }

    #[test]
    fn change_feed_lists_each_server_once_per_drain() {
        let mut feeds = ChangeFeeds::default();
        let drained = |feeds: &mut ChangeFeeds, consumer| {
            let mut got = Vec::new();
            feeds.drain(consumer, |s| got.push(s));
            got
        };
        let a = feeds.subscribe(3);
        assert_eq!(
            drained(&mut feeds, a),
            vec![ServerId(0), ServerId(1), ServerId(2)]
        );
        let b = feeds.subscribe(3);
        feeds.mark(ServerId(2));
        feeds.mark(ServerId(0));
        feeds.mark(ServerId(2));
        assert_eq!(
            drained(&mut feeds, a),
            vec![ServerId(2), ServerId(0)],
            "first-change order"
        );
        assert!(drained(&mut feeds, a).is_empty(), "a drain must consume");
        assert_eq!(
            drained(&mut feeds, b).len(),
            3,
            "a late consumer still starts from everything"
        );
    }

    #[test]
    fn unplanned_classification() {
        assert!(UnavailabilityKind::UnplannedHardware.is_unplanned());
        assert!(!UnavailabilityKind::PlannedMaintenance.is_unplanned());
        assert!(!UnavailabilityKind::CorrelatedFailure.is_unplanned());
    }
}
