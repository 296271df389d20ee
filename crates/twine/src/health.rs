//! The Health Check Service (paper Figure 6, step 7).
//!
//! Monitors the fleet and writes unavailability events into the Resource
//! Broker; the Online Mover and the Twine allocator react through their
//! subscriptions. In this reproduction the "monitoring" input comes from
//! the failure injectors in `ras-sim`.

use ras_broker::{BrokerError, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_topology::{Region, ScopeId, ServerId};

/// Health Check Service: the single writer of unavailability state. It
/// keeps none of its own: the broker's records are the source of truth.
#[derive(Debug, Default)]
pub struct HealthCheckService;

impl HealthCheckService {
    /// Creates the service.
    pub fn new() -> Self {
        Self
    }

    /// Reports one server down.
    pub fn report_down(
        &mut self,
        broker: &mut ResourceBroker,
        server: ServerId,
        kind: UnavailabilityKind,
        scope: ScopeId,
        at: SimTime,
        expected_end: Option<SimTime>,
    ) -> Result<(), BrokerError> {
        broker.mark_down(UnavailabilityEvent {
            server,
            kind,
            scope,
            start: at,
            expected_end,
        })
    }

    /// Reports a whole fault domain down (correlated failure): every
    /// member server gets an event carrying the failing scope.
    pub fn report_scope_down(
        &mut self,
        broker: &mut ResourceBroker,
        region: &Region,
        scope: ScopeId,
        kind: UnavailabilityKind,
        at: SimTime,
        expected_end: Option<SimTime>,
    ) -> Result<usize, BrokerError> {
        let members: Vec<ServerId> = region
            .servers()
            .iter()
            .filter(|s| s.scope_id(scope.scope()) == scope)
            .map(|s| s.id)
            .collect();
        for server in &members {
            self.report_down(broker, *server, kind, scope, at, expected_end)?;
        }
        Ok(members.len())
    }

    /// Reports one server recovered.
    pub fn report_up(
        &mut self,
        broker: &mut ResourceBroker,
        server: ServerId,
        at: SimTime,
    ) -> Result<(), BrokerError> {
        broker.mark_up(server, at)
    }

    /// Recovers every server of a fault domain.
    pub fn report_scope_up(
        &mut self,
        broker: &mut ResourceBroker,
        region: &Region,
        scope: ScopeId,
        at: SimTime,
    ) -> Result<usize, BrokerError> {
        let members: Vec<ServerId> = region
            .servers()
            .iter()
            .filter(|s| s.scope_id(scope.scope()) == scope)
            .map(|s| s.id)
            .collect();
        for server in &members {
            self.report_up(broker, *server, at)?;
        }
        Ok(members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::{MsbId, RegionBuilder, RegionTemplate};

    fn down_count(broker: &ResourceBroker) -> usize {
        broker.iter().filter(|(_, rec)| !rec.is_up()).count()
    }

    #[test]
    fn scope_down_hits_every_member() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 1).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let mut hcs = HealthCheckService::new();
        let msb = MsbId(0);
        let n = hcs
            .report_scope_down(
                &mut broker,
                &region,
                ScopeId::Msb(msb),
                UnavailabilityKind::CorrelatedFailure,
                SimTime::ZERO,
                None,
            )
            .unwrap();
        assert_eq!(n, region.servers_in_msb(msb).count());
        assert_eq!(down_count(&broker), n);
        for s in region.servers_in_msb(msb) {
            let rec = broker.record(s.id).unwrap();
            assert!(!rec.is_up());
            assert_eq!(rec.unavailability.unwrap().scope, ScopeId::Msb(msb));
        }
        let up = hcs
            .report_scope_up(
                &mut broker,
                &region,
                ScopeId::Msb(msb),
                SimTime::from_hours(3),
            )
            .unwrap();
        assert_eq!(up, n);
        assert_eq!(down_count(&broker), 0);
    }

    #[test]
    fn single_server_roundtrip() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 1).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let mut hcs = HealthCheckService::new();
        let s = ServerId(7);
        hcs.report_down(
            &mut broker,
            s,
            UnavailabilityKind::UnplannedHardware,
            ScopeId::Server(s),
            SimTime::ZERO,
            None,
        )
        .unwrap();
        assert_eq!(down_count(&broker), 1);
        hcs.report_up(&mut broker, s, SimTime::from_hours(1))
            .unwrap();
        assert!(broker.record(s).unwrap().is_up());
    }
}
