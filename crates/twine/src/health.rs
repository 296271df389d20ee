//! The Health Check Service (paper Figure 6, step 7).
//!
//! Monitors the fleet and writes unavailability events into the Resource
//! Broker; the Online Mover and the Twine allocator react through their
//! subscriptions. In this reproduction the "monitoring" input comes from
//! the failure injectors in `ras-sim`. The service keeps no state of its
//! own: the broker's records are the source of truth, so a single
//! server's failure or recovery is one `ResourceBroker::mark_down` /
//! `mark_up` call, and the two functions here fan a whole fault domain
//! out to its member servers.

use ras_broker::{BrokerError, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_topology::{Region, ScopeId, ServerId};

/// The servers of one fault domain, in id order.
fn members(region: &Region, scope: ScopeId) -> Vec<ServerId> {
    region
        .servers()
        .iter()
        .filter(|s| s.scope_id(scope.scope()) == scope)
        .map(|s| s.id)
        .collect()
}

/// Reports a whole fault domain down (correlated failure): every member
/// server gets an event carrying the failing scope. Returns the number
/// of servers reported.
pub fn report_scope_down(
    broker: &mut ResourceBroker,
    region: &Region,
    scope: ScopeId,
    kind: UnavailabilityKind,
    at: SimTime,
    expected_end: Option<SimTime>,
) -> Result<usize, BrokerError> {
    let members = members(region, scope);
    for &server in &members {
        broker.mark_down(UnavailabilityEvent {
            server,
            kind,
            scope,
            start: at,
            expected_end,
        })?;
    }
    Ok(members.len())
}

/// Recovers every server of a fault domain. Returns the number of
/// servers reported.
pub fn report_scope_up(
    broker: &mut ResourceBroker,
    region: &Region,
    scope: ScopeId,
    at: SimTime,
) -> Result<usize, BrokerError> {
    let members = members(region, scope);
    for &server in &members {
        broker.mark_up(server, at)?;
    }
    Ok(members.len())
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
        let msb = MsbId(0);
        let n = report_scope_down(
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
            assert_eq!(
                rec.unavailability.as_ref().unwrap().scope,
                ScopeId::Msb(msb)
            );
        }
        let up = report_scope_up(
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
        let s = ServerId(7);
        let n = report_scope_down(
            &mut broker,
            &region,
            ScopeId::Server(s),
            UnavailabilityKind::UnplannedHardware,
            SimTime::ZERO,
            None,
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(down_count(&broker), 1);
        let up = report_scope_up(
            &mut broker,
            &region,
            ScopeId::Server(s),
            SimTime::from_hours(1),
        )
        .unwrap();
        assert_eq!(up, 1);
        assert!(broker.record(s).unwrap().is_up());
    }
}
