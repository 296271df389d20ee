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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ras_broker::{BrokerSnapshot, ReservationId, ServerRecord, UnavailabilityKind};
use ras_topology::{DatacenterId, HardwareTypeId, MsbId, RackId, Region, Server, ServerId};

/// Location granularity of the class key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Phase 1: group by MSB, ignoring racks (fewer, larger classes).
    Msb,
    /// Phase 2: group by rack (more, smaller classes).
    Rack,
}

/// One equivalence class of interchangeable servers.
#[derive(Debug, Clone)]
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
    /// names embed this label, so a class keeps its names from one round
    /// to the next. Labels are built once per
    /// [`Reduction`](crate::aggregate::Reduction) into an interned table;
    /// the model build reuses that table instead of re-deriving a fresh
    /// `String` per class per round.
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
/// `scope` optionally restricts the class universe to a list of servers
/// in ascending id order (a shard's members, or phase 2's universe: the
/// servers of the refined reservations plus the free pool); `None`
/// classes the whole region.
pub fn build_classes(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    scope: Option<&[ServerId]>,
) -> Vec<EquivClass> {
    build_classes_counted(region, snapshot, granularity, scope).0
}

/// True when an unplanned or correlated outage removes the server from
/// the assignable pool; planned maintenance does not.
pub(crate) fn unplanned_unavailable(record: &ServerRecord) -> bool {
    record
        .unavailability
        .as_ref()
        .is_some_and(|event| event.kind != UnavailabilityKind::PlannedMaintenance)
}

/// A class's grouping key, in the order classes are emitted.
pub(crate) type ClassKey = (
    u32,                   // hardware
    u32,                   // msb
    Option<u32>,           // rack
    Option<ReservationId>, // current
    Option<ReservationId>, // target
    bool,                  // in_use
);

/// [`build_classes`] plus the number of servers it excluded as
/// unplanned-unavailable, so reduction stats can account for the whole
/// universe instead of dropping those servers silently.
///
/// Walks only the servers in scope, once, in ascending id order. Each
/// server joins its group through a hash of its key (a run of servers
/// with one key, as a rack's usually are, skips even that); the few
/// hundred distinct keys are sorted once at the end, so the classes come
/// out in key order with their members in id order.
pub fn build_classes_counted(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    scope: Option<&[ServerId]>,
) -> (Vec<EquivClass>, usize) {
    let mut index: HashMap<ClassKey, usize, FastHash> = HashMap::default();
    let mut groups: Vec<(ClassKey, Vec<ServerId>)> = Vec::new();
    let mut last: Option<(ClassKey, usize)> = None;
    let (mut universe, mut excluded) = (0usize, 0usize);
    for server in scope_servers(region, scope) {
        universe += 1;
        let record = snapshot.record(server.id);
        if unplanned_unavailable(record) {
            excluded += 1;
            continue;
        }
        let rack = match granularity {
            Granularity::Msb => None,
            Granularity::Rack => Some(server.rack.0),
        };
        let key: ClassKey = (
            server.hardware.0,
            server.msb.0,
            rack,
            record.current,
            record.target,
            record.running_containers > 0,
        );
        let group = match last {
            Some((k, g)) if k == key => g,
            _ => {
                let g = *index.entry(key).or_insert_with(|| {
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                });
                last = Some((key, g));
                g
            }
        };
        groups[group].1.push(server.id);
    }
    groups.sort_unstable_by_key(|(key, _)| *key);
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
    debug_assert_eq!(
        total_servers(&classes) + excluded,
        universe,
        "every server in scope must be classed or counted excluded"
    );
    (classes, excluded)
}

/// A multiply-rotate hasher for the small integer keys of the per-server
/// grouping passes: a few multiplies per key instead of SipHash's rounds.
/// Keys come from the region and the broker, not from an adversary.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(u64::try_from(i).unwrap_or(u64::MAX));
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) of [`FastHasher`].
pub(crate) type FastHash = BuildHasherDefault<FastHasher>;

/// The servers of `scope`, which lists them in ascending id order, or
/// every server of the region when there is none.
pub(crate) fn scope_servers<'a>(
    region: &'a Region,
    scope: Option<&'a [ServerId]>,
) -> impl Iterator<Item = &'a Server> + 'a {
    debug_assert!(
        scope.is_none_or(|servers| servers.windows(2).all(|w| w[0] < w[1])),
        "a scope lists servers in ascending id order"
    );
    let all = scope
        .is_none()
        .then(|| region.servers())
        .into_iter()
        .flatten();
    let listed = scope.into_iter().flatten().map(|s| region.server(*s));
    all.chain(listed)
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
    fn scope_limits_universe() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let scope: Vec<ServerId> = (0..20).map(ServerId::from_index).collect();
        let classes = build_classes(&region, &snap, Granularity::Msb, Some(&scope));
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
