//! The Resource Broker: the region's source of truth for server state.
//!
//! In the paper (Figure 6) the Resource Broker is a highly-available
//! store that maintains, for every server: the *target* reservation
//! written by the Async Solver, the *current* reservation materialized by
//! the Online Mover, an *elastic* loan, and *unavailability* events
//! written by the Health Check Service. The Twine allocator and the
//! Online Mover subscribe to unavailability events via callback.
//!
//! This crate reproduces that interface as an in-process, lock-protected
//! store with versioned compare-and-set updates and polled subscription
//! queues (deterministic under simulation).

pub mod events;
pub mod record;
pub mod store;
pub mod time;

pub use events::{
    ChangeFeedId, ChangeFeeds, EventNotice, EventQueue, SubscriberId, UnavailabilityEvent,
    UnavailabilityKind,
};
pub use record::{ReservationId, ServerRecord};
pub use store::{BrokerError, BrokerSnapshot, ResourceBroker};
pub use time::SimTime;
