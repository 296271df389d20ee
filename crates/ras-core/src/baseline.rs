//! Twine's previous greedy server assignment (paper Section 1.1).
//!
//! The baseline for Figures 12, 14 and 15: when a container cannot fit,
//! a free server is greedily acquired from the shared region-level pool
//! — first eligible server found, with no fault-domain spread, no buffer
//! planning, and no network affinity. When capacity shrinks, surplus
//! servers return to the free pool.

use ras_broker::{ReservationId, ResourceBroker};
use ras_topology::Region;

use crate::reservation::ReservationSpec;

/// Greedy region-pool allocator.
///
/// Operates directly on broker `current` bindings, exactly like the old
/// on-critical-path acquisition: there is no target/mover indirection.
#[derive(Debug, Default, Clone)]
pub struct GreedyAllocator;

impl GreedyAllocator {
    /// Grows or shrinks each reservation's binding to meet its RRU
    /// capacity, walking the free pool in server-id order (the "simple
    /// heuristics to make quick server-assignment decisions").
    ///
    /// Returns the number of servers acquired and released.
    pub fn rebalance(
        &self,
        region: &Region,
        specs: &[ReservationSpec],
        broker: &mut ResourceBroker,
    ) -> (usize, usize) {
        let mut acquired = 0usize;
        let mut released = 0usize;
        for (ri, spec) in specs.iter().enumerate() {
            let res = ReservationId::from_index(ri);
            // Current RRUs held.
            let mut held: f64 = broker
                .members_of(res)
                .iter()
                .map(|s| spec.rru.value(region.server(*s).hardware))
                .sum();
            if held < spec.capacity {
                // Greedy acquisition: first free eligible server wins.
                for server in region.servers() {
                    if held >= spec.capacity {
                        break;
                    }
                    // A server missing from the broker (stale snapshot)
                    // is simply not available to the greedy pass.
                    let Ok(record) = broker.record(server.id) else {
                        continue;
                    };
                    let free = record.current.is_none() && record.is_up();
                    let v = spec.rru.value(server.hardware);
                    if free && v > 0.0 && broker.bind_current(server.id, Some(res)).is_ok() {
                        held += v;
                        acquired += 1;
                    }
                }
            } else {
                // Release surplus idle servers back to the pool.
                let members = broker.members_of(res);
                for s in members {
                    if held <= spec.capacity {
                        break;
                    }
                    let Ok(record) = broker.record(s) else {
                        continue;
                    };
                    let v = spec.rru.value(region.server(s).hardware);
                    if record.running_containers == 0
                        && held - v >= spec.capacity
                        && broker.bind_current(s, None).is_ok()
                    {
                        held -= v;
                        released += 1;
                    }
                }
            }
        }
        (acquired, released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn greedy_fills_capacity_in_id_order() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            20.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let r0 = broker.register_reservation("web");
        let (acquired, released) = GreedyAllocator.rebalance(&region, &specs, &mut broker);
        assert_eq!(acquired, 20);
        assert_eq!(released, 0);
        // Greedy walks in id order → first 20 servers, i.e. concentrated
        // in the oldest racks (this is exactly the pathology RAS fixes).
        let members = broker.members_of(r0);
        assert_eq!(members.len(), 20);
        assert!(members.iter().all(|s| s.index() < 40));
    }

    #[test]
    fn greedy_concentrates_in_few_msbs() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            30.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let r0 = broker.register_reservation("web");
        GreedyAllocator.rebalance(&region, &specs, &mut broker);
        let mut by_msb = vec![0usize; region.msbs().len()];
        for s in broker.members_of(r0) {
            by_msb[region.server(s).msb.index()] += 1;
        }
        let used = by_msb.iter().filter(|c| **c > 0).count();
        assert!(
            used <= region.msbs().len() / 2,
            "greedy should concentrate, used {used} MSBs"
        );
    }

    #[test]
    fn shrink_releases_idle_servers_only() {
        let (region, mut broker) = setup();
        let mut specs = vec![ReservationSpec::guaranteed(
            "web",
            10.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let r0 = broker.register_reservation("web");
        GreedyAllocator.rebalance(&region, &specs, &mut broker);
        // Pin one member with containers, then shrink to 2.
        let members = broker.members_of(r0);
        broker.set_running_containers(members[0], 5).unwrap();
        specs[0].capacity = 2.0;
        let (_, released) = GreedyAllocator.rebalance(&region, &specs, &mut broker);
        assert_eq!(released, 8);
        let rest = broker.members_of(r0);
        assert!(rest.contains(&members[0]), "busy server must stay");
    }
}
