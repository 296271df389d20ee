//! Concretization: turning class counts back into per-server targets.
//!
//! The MIP decides *how many* servers of each equivalence class go to
//! each reservation; this module decides *which ones*. Selection rules:
//!
//! 1. members already bound to the reservation stay (no move);
//! 2. remaining slots are filled from unclaimed members, preferring racks
//!    where the reservation currently has the least capacity, which
//!    realizes the rack spread that phase 1 never saw.
//!
//! A pick costs what its rack and the picks cost, not what the region
//! costs: the unclaimed members sit in a min-heap of racks, and a rack's
//! load is counted from its own members the first time it is needed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_topology::{RackId, Region, ServerId};

use crate::classes::EquivClass;

/// Applies class counts to servers, producing a full target assignment.
///
/// `counts[class][reservation]` comes from [`RasModel::decode`]. Servers
/// outside every class (unavailable ones, and servers outside a scoped
/// solve's universe) keep their current binding.
///
/// Each new slot goes to the unclaimed member minimizing `(servers of the
/// reservation in its rack, server id)`, the rack count including this
/// call's earlier picks. Cost: O(members · log members) per class that
/// still needs servers after the keep pass, O(racks of the class) per
/// reservation it fills, O(log racks) per pick, and one walk of each
/// `(rack, reservation)` pair's rack the first time a pick considers it.
///
/// [`RasModel::decode`]: crate::model::RasModel::decode
pub fn concretize(
    region: &Region,
    snapshot: &BrokerSnapshot,
    classes: &[EquivClass],
    counts: &[Vec<usize>],
    reservations: usize,
) -> Vec<Option<ReservationId>> {
    // Default: keep whatever the server is currently bound to.
    let mut targets: Vec<Option<ReservationId>> = (0..region.server_count())
        .map(|i| snapshot.records[i].current)
        .collect();
    // Per-(rack, reservation) server count used for spread-aware picks,
    // filled on first use (see `rack_load`) and raised by one per pick.
    let mut loads: HashMap<(RackId, ReservationId), usize> = HashMap::new();

    for (ci, class) in classes.iter().enumerate() {
        // Every class member is reassigned from scratch below.
        for s in &class.servers {
            targets[s.index()] = None;
        }
        let mut need: Vec<usize> = (0..reservations)
            .map(|ri| counts[ci].get(ri).copied().unwrap_or(0).min(class.count()))
            .collect();
        // Pass 1: keep members already in a reservation that still wants
        // them, one walk over the members. (A merged aggregation class
        // can hold members bound to several reservations; per-server
        // matching keeps each with its own.)
        let mut unclaimed: Vec<ServerId> = Vec::with_capacity(class.count());
        for &s in &class.servers {
            match snapshot.records[s.index()].current {
                Some(cur) if need.get(cur.index()).copied().unwrap_or(0) > 0 => {
                    need[cur.index()] -= 1;
                    targets[s.index()] = Some(cur);
                }
                _ => unclaimed.push(s),
            }
        }
        if need.iter().all(|n| *n == 0) {
            // Whatever is left becomes free-pool capacity (target None).
            continue;
        }
        // Pass 2: fill remaining demand, preferring least-loaded racks.
        // Within a rack every member has the same load, so the rack's
        // candidate is its smallest unclaimed id: each rack is a queue of
        // its unclaimed members in id order.
        let rack_of = |s: &ServerId| region.server(*s).rack;
        unclaimed.sort_unstable_by_key(|s| (rack_of(s), *s));
        let mut queues: Vec<(RackId, &[ServerId])> = unclaimed
            .chunk_by(|a, b| rack_of(a) == rack_of(b))
            .map(|members| (rack_of(&members[0]), members))
            .collect();
        for (ri, need) in need.into_iter().enumerate() {
            if need == 0 {
                continue;
            }
            let res = ReservationId::from_index(ri);
            // Ids are unique, so `(load, id)` orders exactly like a scan's
            // `min_by_key` over every unclaimed member.
            let mut heap: BinaryHeap<Reverse<(usize, ServerId, usize)>> = BinaryHeap::new();
            for (q, (rack, members)) in queues.iter().enumerate() {
                if let Some(&s) = members.first() {
                    heap.push(Reverse((
                        rack_load(&mut loads, region, snapshot, *rack, res),
                        s,
                        q,
                    )));
                }
            }
            for _ in 0..need {
                let Some(Reverse((load, s, q))) = heap.pop() else {
                    break;
                };
                targets[s.index()] = Some(res);
                let (rack, members) = &mut queues[q];
                *loads.entry((*rack, res)).or_default() += 1;
                *members = &members[1..];
                if let Some(&next) = members.first() {
                    heap.push(Reverse((load + 1, next, q)));
                }
            }
        }
        // Whatever is left becomes free-pool capacity (target None).
    }
    targets
}

/// Servers of `res` in `rack`: those bound to it in `snapshot`, counted
/// from the rack's members the first time the pair is asked for, plus
/// the picks `concretize` has recorded in `loads` since.
fn rack_load(
    loads: &mut HashMap<(RackId, ReservationId), usize>,
    region: &Region,
    snapshot: &BrokerSnapshot,
    rack: RackId,
    res: ReservationId,
) -> usize {
    *loads.entry((rack, res)).or_insert_with(|| {
        region
            .rack(rack)
            .servers
            .iter()
            .filter(|s| snapshot.records[s.index()].current == Some(res))
            .count()
    })
}

/// Move statistics between a current binding and a target assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Moves of servers with running containers (preemptions).
    pub in_use: usize,
    /// Moves of idle servers.
    pub unused: usize,
}

impl MoveStats {
    /// Total moves.
    pub fn total(&self) -> usize {
        self.in_use + self.unused
    }
}

/// Counts planned moves: servers whose target differs from their current
/// binding and that are currently bound somewhere.
pub fn count_moves(snapshot: &BrokerSnapshot, targets: &[Option<ReservationId>]) -> MoveStats {
    let mut stats = MoveStats::default();
    for (i, record) in snapshot.records.iter().enumerate() {
        if record.current.is_some() && targets[i] != record.current {
            if record.running_containers > 0 {
                stats.in_use += 1;
            } else {
                stats.unused += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{build_classes, Granularity};
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn exact_counts_are_realized() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Ask for 3 servers from every class.
        let counts: Vec<Vec<usize>> = classes.iter().map(|c| vec![c.count().min(3)]).collect();
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let assigned = targets.iter().filter(|t| **t == Some(r0)).count();
        let expected: usize = counts.iter().map(|row| row[0]).sum();
        assert_eq!(assigned, expected);
    }

    #[test]
    fn existing_members_are_kept_first() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        // Bind the first whole class's worth of servers.
        let snap0 = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap0, Granularity::Msb, None);
        let class = &classes[0];
        for s in &class.servers {
            broker.bind_current(*s, Some(r0)).unwrap();
        }
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Find the class that now has current == r0; keep all but one.
        let (ci, class) = classes
            .iter()
            .enumerate()
            .find(|(_, c)| c.current == Some(r0))
            .unwrap();
        let mut counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        counts[ci][0] = class.count() - 1;
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let kept = class
            .servers
            .iter()
            .filter(|s| targets[s.index()] == Some(r0))
            .count();
        assert_eq!(kept, class.count() - 1);
        let moves = count_moves(&snap, &targets);
        assert_eq!(moves.total(), 1, "exactly the one surplus server moves out");
    }

    #[test]
    fn unavailable_servers_keep_current_binding() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let victim = ServerId(5);
        broker.bind_current(victim, Some(r0)).unwrap();
        broker
            .mark_down(ras_broker::UnavailabilityEvent {
                server: victim,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(victim),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        assert_eq!(targets[victim.index()], Some(r0));
    }

    #[test]
    fn new_assignments_spread_across_racks() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Pick the largest class (spanning several racks) and assign half.
        let (ci, class) = classes
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.count())
            .unwrap();
        let take = class.count() / 2;
        let mut counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        counts[ci][0] = take;
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let mut per_rack: HashMap<u32, usize> = HashMap::new();
        for s in &class.servers {
            if targets[s.index()].is_some() {
                *per_rack.entry(region.server(*s).rack.0).or_default() += 1;
            }
        }
        if per_rack.len() > 1 {
            let max = per_rack.values().max().unwrap();
            let min = per_rack.values().min().unwrap();
            assert!(
                max - min <= 1,
                "round-robin rack spread expected: {per_rack:?}"
            );
        }
    }

    #[test]
    fn move_stats_classify_in_use() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        broker.bind_current(ServerId(0), Some(r0)).unwrap();
        broker.bind_current(ServerId(1), Some(r0)).unwrap();
        broker.set_running_containers(ServerId(0), 2).unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let mut targets: Vec<Option<ReservationId>> =
            (0..region.server_count()).map(|_| None).collect();
        targets[2] = Some(r0); // New binding: not a move (current is None).
        let moves = count_moves(&snap, &targets);
        assert_eq!(moves.in_use, 1);
        assert_eq!(moves.unused, 1);
        assert_eq!(moves.total(), 2);
    }
}
