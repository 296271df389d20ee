//! The out-of-band emergency allocation path (paper Section 5.4).
//!
//! "For emergencies, RAS provides an out-of-band mechanism to directly
//! write server assignments to the Resource Broker to grant immediate
//! capacity without obeying all placement guarantees. Then, future solves
//! will correct any placement guarantees that were broken." The same path
//! doubles as a backup when the Async Solver is unavailable, and it is the
//! operator's path while rounds are refused: a round whose solve fails
//! (a failed certificate included) applies nothing, so the broker keeps
//! the previous targets until a round succeeds, and capacity needed
//! meanwhile is granted here.

use ras_broker::{ReservationId, ResourceBroker};
use ras_topology::{Region, ServerId};

use crate::error::CoreError;
use crate::reservation::ReservationSpec;
use ras_milp::tol;

/// The emergency allocator: immediate, guarantee-free grants.
#[derive(Debug, Default, Clone)]
pub struct EmergencyPath;

impl EmergencyPath {
    /// Immediately grants `rru_amount` RRUs of capacity to `reservation`
    /// by binding free, healthy, eligible servers (both `target` and
    /// `current` are written so neither the Mover nor the next solve can
    /// race it away before the emergency passes).
    ///
    /// Returns the servers granted. Fails with
    /// [`CoreError::CapacityUnavailable`] when the free pool cannot cover
    /// the request; everything granted so far is kept (partial grants are
    /// better than nothing during an outage).
    pub fn grant(
        &self,
        region: &Region,
        spec: &ReservationSpec,
        reservation: ReservationId,
        rru_amount: f64,
        broker: &mut ResourceBroker,
    ) -> Result<Vec<ServerId>, CoreError> {
        let mut granted = Vec::new();
        let mut got = 0.0;
        for server in region.servers() {
            if got >= rru_amount {
                break;
            }
            let v = spec.rru.value(server.hardware);
            if v <= 0.0 {
                continue;
            }
            let record = broker
                .record(server.id)
                .map_err(|e| CoreError::Broker(e.to_string()))?;
            if record.current.is_some() || !record.is_up() {
                continue;
            }
            let version = record.version;
            // CAS so a concurrent solve result is never clobbered.
            if broker
                .cas_target(server.id, version, Some(reservation))
                .is_err()
            {
                continue;
            }
            broker
                .bind_current(server.id, Some(reservation))
                .map_err(|e| CoreError::Broker(e.to_string()))?;
            got += v;
            granted.push(server.id);
        }
        if got + tol::EPS < rru_amount {
            return Err(CoreError::CapacityUnavailable {
                shortfalls: vec![(reservation, rru_amount - got)],
            });
        }
        Ok(granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate};

    #[test]
    fn grants_immediately_from_free_pool() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r0 = broker.register_reservation("urgent");
        let spec =
            ReservationSpec::guaranteed("urgent", 10.0, RruTable::uniform(&region.catalog, 1.0));
        let granted = EmergencyPath
            .grant(&region, &spec, r0, 10.0, &mut broker)
            .expect("grant");
        assert_eq!(granted.len(), 10);
        // Current is bound immediately — no mover involvement.
        assert_eq!(broker.member_count(r0), 10);
        assert!(broker.pending_moves().is_empty());
    }

    #[test]
    fn partial_grant_reports_shortfall_but_keeps_servers() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r0 = broker.register_reservation("urgent");
        let spec =
            ReservationSpec::guaranteed("urgent", 1e9, RruTable::uniform(&region.catalog, 1.0));
        let err = EmergencyPath
            .grant(&region, &spec, r0, 1e9, &mut broker)
            .unwrap_err();
        assert!(matches!(err, CoreError::CapacityUnavailable { .. }));
        assert_eq!(broker.member_count(r0), region.server_count());
    }

    #[test]
    fn skips_occupied_and_down_servers() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let other = broker.register_reservation("other");
        let r0 = broker.register_reservation("urgent");
        broker.bind_current(ServerId(0), Some(other)).unwrap();
        broker
            .mark_down(ras_broker::UnavailabilityEvent {
                server: ServerId(1),
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(ServerId(1)),
                start: ras_broker::SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let spec =
            ReservationSpec::guaranteed("urgent", 2.0, RruTable::uniform(&region.catalog, 1.0));
        let granted = EmergencyPath
            .grant(&region, &spec, r0, 2.0, &mut broker)
            .expect("grant");
        assert!(!granted.contains(&ServerId(0)));
        assert!(!granted.contains(&ServerId(1)));
    }
}
