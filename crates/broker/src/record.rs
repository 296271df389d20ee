//! Per-server broker records and reservation identifiers.

use ras_topology::ServerId;

use crate::events::UnavailabilityEvent;

/// Identifier of a reservation (logical cluster).
///
/// The shared random-failure buffer and elastic reservations are ordinary
/// reservations with their own identifiers (paper Section 3.5.1 treats
/// the buffer as "a standalone special reservation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(pub u32);

impl ReservationId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32`.
    pub fn from_index(index: usize) -> Self {
        // lint:allow(solver-unwrap): the documented contract, as for the topology ids; an index is a position in a spec list
        Self(u32::try_from(index).expect("reservation index exceeds u32"))
    }
}

impl std::fmt::Display for ReservationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// The broker's record for one server (the row sketched in Figure 6:
/// `{ID, CPU, Rack, …} | Target | Current | Elastic | Unavailability`).
#[derive(Debug, Clone, Default)]
pub struct ServerRecord {
    /// Reservation the Async Solver wants this server in.
    pub target: Option<ReservationId>,
    /// Reservation the server is currently bound to (set by the Mover).
    pub current: Option<ReservationId>,
    /// Elastic reservation currently borrowing this (otherwise idle) server.
    pub elastic: Option<ReservationId>,
    /// Active unavailability event, if any.
    pub unavailability: Option<UnavailabilityEvent>,
    /// Containers currently running (maintained by the Twine allocator;
    /// drives the movement cost `Ms` — in-use servers are ~10× costlier
    /// to move, Section 4.6).
    pub running_containers: u32,
    /// Monotonic version for compare-and-set writes.
    pub version: u64,
}

impl ServerRecord {
    /// True when the server is usable for placement right now.
    ///
    /// Planned maintenance counts as *usable* capacity for the solver
    /// (Section 3.5.1: "unavailability due to planned maintenance is
    /// treated as usable capacity"), but not for container placement.
    pub fn is_up(&self) -> bool {
        self.unavailability.is_none()
    }

    /// True when no container runs on the server and it is not loaned.
    pub fn is_idle(&self) -> bool {
        self.running_containers == 0 && self.elastic.is_none()
    }
}

/// A server identifier paired with its record, as returned by snapshots.
#[derive(Debug, Clone)]
pub struct ServerState {
    /// The server.
    pub server: ServerId,
    /// Its record at snapshot time.
    pub record: ServerRecord,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_id_roundtrip() {
        let r = ReservationId::from_index(9);
        assert_eq!(r.index(), 9);
        assert_eq!(r.to_string(), "R9");
    }

    #[test]
    fn fresh_record_is_up_and_idle() {
        let r = ServerRecord::default();
        assert!(r.is_up());
        assert!(r.is_idle());
    }

    #[test]
    fn loaned_server_is_not_idle() {
        let r = ServerRecord {
            elastic: Some(ReservationId(1)),
            ..ServerRecord::default()
        };
        assert!(!r.is_idle());
    }
}
