//! Elastic reservations (paper Section 3.4).
//!
//! Buffers that are not actively absorbing failures or maintenance are
//! loaned to elastic reservations (asynchronous compute, offline ML
//! training). When failure handling needs the capacity back, loans are
//! revoked in two waves: 75 % immediately, the remaining 25 % within 30
//! minutes (mirroring the maintenance-concurrency limit of Section 3.3.1).

use ras_broker::{ReservationId, ResourceBroker, SimTime};
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_topology::ServerId;

use crate::log::{MoveLog, MoveReason, MoveRecord};

/// Fraction of a revocation cleared immediately (the rest is delayed).
const IMMEDIATE_FRACTION: f64 = 0.75;
/// Delay for the second revocation wave, in seconds.
const DELAYED_SECS: u64 = 30 * 60;

/// Manages loans for one elastic reservation.
#[derive(Debug)]
pub struct ElasticManager {
    /// The elastic reservation receiving loans.
    pub elastic: ReservationId,
}

impl ElasticManager {
    /// Creates a manager with the paper's 75 % / 30 min split.
    pub fn new(elastic: ReservationId) -> Self {
        Self { elastic }
    }

    /// Loans idle, healthy servers to the elastic reservation: free-pool
    /// servers, shared-buffer members, and idle servers inside guaranteed
    /// reservations (embedded buffers) are all fair game.
    ///
    /// Returns the servers loaned (up to `limit`).
    pub fn loan_idle(
        &self,
        specs: &[ReservationSpec],
        broker: &mut ResourceBroker,
        limit: usize,
        at: SimTime,
        log: &mut MoveLog,
    ) -> Vec<ServerId> {
        let candidates: Vec<ServerId> = broker
            .iter()
            .filter(|(_, rec)| {
                rec.is_up()
                    && rec.running_containers == 0
                    && rec.elastic.is_none()
                    && match rec.current {
                        None => true,
                        Some(r) => specs
                            .get(r.index())
                            .is_some_and(|s| s.kind != ReservationKind::Elastic),
                    }
            })
            .map(|(s, _)| s)
            .take(limit)
            .collect();
        for s in &candidates {
            let from = broker.record(*s).map(|r| r.current).unwrap_or(None);
            if broker.set_elastic(*s, Some(self.elastic)).is_ok() {
                log.push(MoveRecord {
                    server: *s,
                    from,
                    to: Some(self.elastic),
                    at,
                    in_use: false,
                    reason: MoveReason::ElasticLoan,
                });
            }
        }
        candidates
    }

    /// Revokes up to `needed` loans. Returns `(immediate, delayed)`:
    /// `immediate` loans are cleared now, `delayed` ones are scheduled for
    /// `at + DELAYED_SECS` (the caller clears them then).
    pub fn revoke(
        &self,
        broker: &mut ResourceBroker,
        needed: usize,
        at: SimTime,
        log: &mut MoveLog,
    ) -> (Vec<ServerId>, Vec<(ServerId, SimTime)>) {
        let loaned: Vec<ServerId> = broker
            .iter()
            .filter(|(_, rec)| rec.elastic == Some(self.elastic))
            .map(|(s, _)| s)
            .take(needed)
            .collect();
        let cut = ras_core::cast::ceil_usize(loaned.len() as f64 * IMMEDIATE_FRACTION);
        let mut immediate = Vec::new();
        let mut delayed = Vec::new();
        for (i, s) in loaned.into_iter().enumerate() {
            if i < cut {
                if broker.set_elastic(s, None).is_ok() {
                    log.push(MoveRecord {
                        server: s,
                        from: Some(self.elastic),
                        to: broker.record(s).map(|r| r.current).unwrap_or(None),
                        at,
                        in_use: false,
                        reason: MoveReason::ElasticRevoke,
                    });
                    immediate.push(s);
                }
            } else {
                delayed.push((s, at.plus_secs(DELAYED_SECS)));
            }
        }
        (immediate, delayed)
    }

    /// Completes a delayed revocation (called by the simulator when the
    /// scheduled time arrives).
    pub fn complete_revoke(
        &self,
        broker: &mut ResourceBroker,
        server: ServerId,
        at: SimTime,
        log: &mut MoveLog,
    ) {
        if broker
            .record(server)
            .map(|r| r.elastic == Some(self.elastic))
            .unwrap_or(false)
            && broker.set_elastic(server, None).is_ok()
        {
            log.push(MoveRecord {
                server,
                from: Some(self.elastic),
                to: broker.record(server).map(|r| r.current).unwrap_or(None),
                at,
                in_use: false,
                reason: MoveReason::ElasticRevoke,
            });
        }
    }

    /// Servers currently loaned out.
    pub fn loaned(&self, broker: &ResourceBroker) -> Vec<ServerId> {
        broker
            .iter()
            .filter(|(_, rec)| rec.elastic == Some(self.elastic))
            .map(|(s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_core::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (ras_topology::Region, ResourceBroker, ReservationId) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let elastic = broker.register_reservation("elastic");
        (region, broker, elastic)
    }

    #[test]
    fn loans_idle_servers_and_revokes_in_waves() {
        let (region, mut broker, elastic) = setup();
        let specs = vec![ras_core::ReservationSpec::elastic(
            "elastic",
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let mgr = ElasticManager::new(elastic);
        let mut log = MoveLog::new();
        let loaned = mgr.loan_idle(&specs, &mut broker, 8, SimTime::ZERO, &mut log);
        assert_eq!(loaned.len(), 8);
        assert_eq!(mgr.loaned(&broker).len(), 8);

        let (immediate, delayed) = mgr.revoke(&mut broker, 8, SimTime::from_hours(1), &mut log);
        assert_eq!(immediate.len(), 6, "75 % of 8 = 6 immediate");
        assert_eq!(delayed.len(), 2);
        assert_eq!(mgr.loaned(&broker).len(), 2);
        // Delayed wave lands within 30 minutes.
        for (s, when) in &delayed {
            assert_eq!(when.since(SimTime::from_hours(1)), 30 * 60);
            mgr.complete_revoke(&mut broker, *s, *when, &mut log);
        }
        assert!(mgr.loaned(&broker).is_empty());
    }

    #[test]
    fn busy_servers_are_never_loaned() {
        let (region, mut broker, elastic) = setup();
        let specs = vec![ras_core::ReservationSpec::elastic(
            "elastic",
            RruTable::uniform(&region.catalog, 1.0),
        )];
        broker.set_running_containers(ServerId(0), 1).unwrap();
        let mgr = ElasticManager::new(elastic);
        let mut log = MoveLog::new();
        let loaned = mgr.loan_idle(&specs, &mut broker, 3, SimTime::ZERO, &mut log);
        assert!(!loaned.contains(&ServerId(0)));
    }

    #[test]
    fn binding_to_guaranteed_cancels_loan() {
        let (region, mut broker, elastic) = setup();
        let _ = region;
        let specs: Vec<ras_core::ReservationSpec> = Vec::new();
        let web = broker.register_reservation("web");
        let mgr = ElasticManager::new(elastic);
        let log = MoveLog::new();
        let _ = specs;
        broker.set_elastic(ServerId(0), Some(elastic)).unwrap();
        assert_eq!(mgr.loaned(&broker).len(), 1);
        // The mover rebinding the server (e.g. failure replacement)
        // implicitly revokes the loan.
        broker.bind_current(ServerId(0), Some(web)).unwrap();
        assert!(mgr.loaned(&broker).is_empty());
        let _ = log.records();
    }
}
