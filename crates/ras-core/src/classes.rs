//! Symmetric-server equivalence classes (paper Section 3.5.2).
//!
//! Servers whose assignment variables would have identical coefficients
//! in every constraint and objective are merged into one integer variable
//! counting how many of the class go to each reservation. The class key
//! is: hardware type × location (MSB in phase 1, rack in phase 2) ×
//! current reservation × previous-solve target × in-use flag. Servers
//! that are unavailable for *unplanned* reasons are excluded entirely
//! (the availability constraint); planned maintenance remains usable
//! capacity (Section 3.3.1).

use std::collections::BTreeMap;

use ras_broker::{BrokerSnapshot, ReservationId, ServerRecord, UnavailabilityKind};
use ras_topology::{DatacenterId, HardwareTypeId, MsbId, RackId, Region, ServerId};
use serde::{Deserialize, Serialize};

/// Location granularity of the class key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Phase 1: group by MSB, ignoring racks (fewer, larger classes).
    Msb,
    /// Phase 2: group by rack (more, smaller classes).
    Rack,
}

/// One equivalence class of interchangeable servers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EquivClass {
    /// Member servers (all interchangeable under the model).
    pub servers: Vec<ServerId>,
    /// Common hardware type.
    pub hardware: HardwareTypeId,
    /// Common MSB.
    pub msb: MsbId,
    /// Common datacenter.
    pub datacenter: DatacenterId,
    /// Common rack (only at [`Granularity::Rack`]).
    pub rack: Option<RackId>,
    /// Reservation the members are currently bound to.
    pub current: Option<ReservationId>,
    /// Target already planned by a previous solve (stability objective).
    pub target: Option<ReservationId>,
    /// True when members run containers (movement cost `Ms` is ~10×).
    pub in_use: bool,
}

impl EquivClass {
    /// Number of members.
    pub fn count(&self) -> usize {
        self.servers.len()
    }

    /// Stable identity of the class, derived from its grouping key alone
    /// (never from member count or position). Model variable/constraint
    /// names embed this label so a basis snapshotted in one round can be
    /// matched by name against the next round's model even after classes
    /// appeared, vanished, or were reordered (see `ras_milp::Basis::remap`).
    /// Labels are built once per [`Reduction`](crate::aggregate::Reduction)
    /// into an interned table; model build and basis remap reuse that
    /// table instead of re-deriving a fresh `String` per class per round.
    pub fn label(&self) -> String {
        use std::fmt::Write;
        fn opt(out: &mut String, r: Option<ReservationId>) {
            match r {
                Some(r) => {
                    let _ = write!(out, "{}", r.0);
                }
                None => out.push('-'),
            }
        }
        let mut out = String::with_capacity(24);
        let _ = write!(out, "h{}.m{}.k", self.hardware.0, self.msb.0);
        match self.rack {
            Some(r) => {
                let _ = write!(out, "{}", r.0);
            }
            None => out.push('-'),
        }
        out.push_str(".c");
        opt(&mut out, self.current);
        out.push_str(".t");
        opt(&mut out, self.target);
        out.push_str(".u");
        out.push(if self.in_use { '1' } else { '0' });
        out
    }
}

/// Builds the equivalence classes for one solve.
///
/// `include` optionally restricts the class universe (phase 2 passes the
/// servers belonging to the refined reservations plus the free pool).
pub fn build_classes(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> Vec<EquivClass> {
    build_classes_counted(region, snapshot, granularity, include).0
}

/// True when an unplanned or correlated outage removes the server from
/// the assignable pool; planned maintenance does not.
pub(crate) fn unplanned_unavailable(record: &ServerRecord) -> bool {
    record
        .unavailability
        .as_ref()
        .is_some_and(|event| event.kind != UnavailabilityKind::PlannedMaintenance)
}

/// [`build_classes`] plus the number of servers it excluded as
/// unplanned-unavailable, so reduction stats can account for the whole
/// universe instead of dropping those servers silently.
pub fn build_classes_counted(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> (Vec<EquivClass>, usize) {
    type Key = (
        u32,                   // hardware
        u32,                   // msb
        Option<u32>,           // rack
        Option<ReservationId>, // current
        Option<ReservationId>, // target
        bool,                  // in_use
    );
    let mut groups: BTreeMap<Key, Vec<ServerId>> = BTreeMap::new();
    let mut excluded = 0usize;
    #[cfg(debug_assertions)]
    let mut universe = 0usize;
    for server in region.servers() {
        if let Some(f) = include {
            if !f(server.id) {
                continue;
            }
        }
        #[cfg(debug_assertions)]
        {
            universe += 1;
        }
        let record = snapshot.record(server.id);
        if unplanned_unavailable(record) {
            excluded += 1;
            continue;
        }
        let rack = match granularity {
            Granularity::Msb => None,
            Granularity::Rack => Some(server.rack.0),
        };
        let key: Key = (
            server.hardware.0,
            server.msb.0,
            rack,
            record.current,
            record.target,
            record.running_containers > 0,
        );
        groups.entry(key).or_default().push(server.id);
    }
    let classes: Vec<EquivClass> = groups
        .into_iter()
        .map(|((hw, msb, rack, current, target, in_use), servers)| {
            let probe = region.server(servers[0]);
            EquivClass {
                servers,
                hardware: HardwareTypeId(hw),
                msb: MsbId(msb),
                datacenter: probe.datacenter,
                rack: rack.map(RackId),
                current,
                target,
                in_use,
            }
        })
        .collect();
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        total_servers(&classes) + excluded,
        universe,
        "every include-filtered server must be classed or counted excluded"
    );
    (classes, excluded)
}

/// Total member count across classes.
pub fn total_servers(classes: &[EquivClass]) -> usize {
    classes.iter().map(|c| c.count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent};
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn classes_partition_the_available_fleet() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(total_servers(&classes), region.server_count());
        for class in &classes {
            for s in &class.servers {
                let server = region.server(*s);
                assert_eq!(server.hardware, class.hardware);
                assert_eq!(server.msb, class.msb);
            }
        }
    }

    #[test]
    fn msb_granularity_is_coarser_than_rack() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let coarse = build_classes(&region, &snap, Granularity::Msb, None).len();
        let fine = build_classes(&region, &snap, Granularity::Rack, None).len();
        assert!(coarse < fine, "coarse {coarse} >= fine {fine}");
    }

    #[test]
    fn unplanned_down_servers_are_excluded_planned_kept() {
        let (region, mut broker) = setup();
        let down = ServerId(0);
        let maint = ServerId(1);
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        broker
            .mark_down(UnavailabilityEvent {
                server: maint,
                kind: UnavailabilityKind::PlannedMaintenance,
                scope: ScopeId::Server(maint),
                start: SimTime::ZERO,
                expected_end: Some(SimTime::from_hours(4)),
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(total_servers(&classes), region.server_count() - 1);
        let members: Vec<ServerId> = classes.iter().flat_map(|c| c.servers.clone()).collect();
        assert!(!members.contains(&down));
        assert!(members.contains(&maint));
    }

    #[test]
    fn container_state_splits_classes() {
        let (region, mut broker) = setup();
        // Two servers in the same rack (same hardware): one busy.
        let rack = region.racks()[0].clone();
        broker.set_running_containers(rack.servers[0], 3).unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Rack, None);
        let own: Vec<&EquivClass> = classes.iter().filter(|c| c.rack == Some(rack.id)).collect();
        assert_eq!(own.len(), 2, "busy and idle members must split");
        assert!(own.iter().any(|c| c.in_use && c.count() == 1));
    }

    #[test]
    fn include_filter_limits_universe() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let keep = |s: ServerId| s.index() < 20;
        let classes = build_classes(&region, &snap, Granularity::Msb, Some(&keep));
        assert_eq!(total_servers(&classes), 20);
    }

    #[test]
    fn counted_builder_accounts_for_exclusions() {
        let (region, mut broker) = setup();
        let down = ServerId(3);
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let (classes, excluded) = build_classes_counted(&region, &snap, Granularity::Msb, None);
        assert_eq!(excluded, 1);
        assert_eq!(total_servers(&classes) + excluded, region.server_count());
    }

    #[test]
    fn determinism() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let a = build_classes(&region, &snap, Granularity::Msb, None);
        let b = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.servers, y.servers);
        }
    }
}
