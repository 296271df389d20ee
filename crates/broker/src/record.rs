//! Per-server broker records and reservation identifiers.

use std::num::NonZeroU32;

use crate::events::UnavailabilityEvent;

/// Identifier of a reservation (logical cluster).
///
/// The shared random-failure buffer and elastic reservations are ordinary
/// reservations with their own identifiers (paper Section 3.5.1 treats
/// the buffer as "a standalone special reservation").
///
/// Stored as `index + 1` in a [`NonZeroU32`], so `Option<ReservationId>`
/// takes 4 bytes, not 8: every [`ServerRecord`] holds three of them, and a
/// round copies and walks one record per server. The encoding keeps the
/// order, so the derived `Ord` sorts identifiers (and class keys holding
/// them) by index; `Debug` and `Display` print the index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(NonZeroU32);

impl ReservationId {
    /// Dense index.
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// Builds an identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX` or more (the stored `index + 1`
    /// must fit a `u32`).
    pub fn from_index(index: usize) -> Self {
        let stored = u32::try_from(index)
            .ok()
            .and_then(|i| NonZeroU32::MIN.checked_add(i));
        // lint:allow(solver-unwrap): the documented contract, as for the topology ids; an index is a position in a spec list
        Self(stored.expect("reservation index exceeds u32::MAX - 1"))
    }
}

impl std::fmt::Debug for ReservationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ReservationId").field(&self.index()).finish()
    }
}

impl std::fmt::Display for ReservationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.index())
    }
}

/// The broker's record for one server (the row sketched in Figure 6:
/// `{ID, CPU, Rack, …} | Target | Current | Elastic | Unavailability`).
///
/// 32 bytes: every round snapshots the whole array, so the record keeps
/// only what the fleet's servers carry. The reservation fields are 4 bytes
/// each (see [`ReservationId`]), and the unavailability event, absent on
/// nearly every server, sits behind a pointer: inline it takes 40 bytes.
#[derive(Debug, Clone, Default)]
pub struct ServerRecord {
    /// Reservation the Async Solver wants this server in.
    pub target: Option<ReservationId>,
    /// Reservation the server is currently bound to (set by the Mover).
    pub current: Option<ReservationId>,
    /// Elastic reservation currently borrowing this (otherwise idle) server.
    pub elastic: Option<ReservationId>,
    /// Active unavailability event, if any (boxed: see the type docs).
    pub unavailability: Option<Box<UnavailabilityEvent>>,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_id_roundtrip() {
        for index in [0, 1, 9, 63, 1 << 31, u32::MAX as usize - 1] {
            assert_eq!(ReservationId::from_index(index).index(), index);
        }
    }

    /// Sorted class keys (and every other ordered use) stay in index
    /// order under the `index + 1` encoding.
    #[test]
    fn reservation_id_order_is_index_order() {
        let indices = [0, 1, 2, 63, 64, 1 << 31, u32::MAX as usize - 1];
        for &a in &indices {
            for &b in &indices {
                let (ra, rb) = (ReservationId::from_index(a), ReservationId::from_index(b));
                assert_eq!(ra.cmp(&rb), a.cmp(&b), "R{a} vs R{b}");
            }
        }
        assert!(None < Some(ReservationId::from_index(0)));
    }

    #[test]
    fn reservation_id_display_is_the_index() {
        assert_eq!(ReservationId::from_index(0).to_string(), "R0");
        assert_eq!(ReservationId::from_index(9).to_string(), "R9");
        assert_eq!(
            ReservationId::from_index(u32::MAX as usize - 1).to_string(),
            format!("R{}", u32::MAX - 1)
        );
    }

    #[test]
    fn reservation_id_debug_is_the_index() {
        assert_eq!(
            format!("{:?}", ReservationId::from_index(3)),
            "ReservationId(3)"
        );
        assert_eq!(
            format!("{:?}", Some(ReservationId::from_index(0))),
            "Some(ReservationId(0))"
        );
    }

    #[test]
    #[should_panic(expected = "reservation index exceeds")]
    fn reservation_id_refuses_u32_max() {
        let _ = ReservationId::from_index(u32::MAX as usize);
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
            elastic: Some(ReservationId::from_index(1)),
            ..ServerRecord::default()
        };
        assert!(!r.is_idle());
    }
}
