//! `assign::concretize` and `phases::rack_overages` against the scans they
//! replaced, kept here as oracles.
//!
//! `concretize` picks from a per-rack heap whose loads are counted on
//! first use; the oracle rescans every unclaimed member per pick over a
//! region-wide `(rack, reservation)` map. `rack_overages` sums rack by
//! rack; the oracle sums into a hash map and sorts its keys. On random
//! regions, bindings, class masks and counts — including classes whose
//! members are bound to several reservations, counts past a class's size
//! and racks already holding the reservation — the targets must be equal
//! and the overages equal bit for bit.

use std::collections::HashMap;

use proptest::prelude::*;
use ras_broker::{BrokerSnapshot, ReservationId, ResourceBroker, SimTime};
use ras_core::assign::concretize;
use ras_core::classes::{build_classes, EquivClass, Granularity};
use ras_core::model::solver_visible;
use ras_core::params::DEFAULT_RACK_SHARE;
use ras_core::phases::rack_overages;
use ras_core::{ReservationSpec, RruTable};
use ras_topology::{HardwareTypeId, Region, RegionBuilder, RegionTemplate, ServerId};

/// The scan `concretize`: the oracle for the heap.
fn scan_concretize(
    region: &Region,
    snapshot: &BrokerSnapshot,
    classes: &[EquivClass],
    counts: &[Vec<usize>],
    reservations: usize,
) -> Vec<Option<ReservationId>> {
    let mut targets: Vec<Option<ReservationId>> = (0..region.server_count())
        .map(|i| snapshot.records[i].current)
        .collect();
    let mut rack_load: HashMap<(u32, u32), usize> = HashMap::new();
    for server in region.servers() {
        if let Some(r) = snapshot.records[server.id.index()].current {
            *rack_load.entry((server.rack.0, r.0)).or_default() += 1;
        }
    }
    for (ci, class) in classes.iter().enumerate() {
        for s in &class.servers {
            targets[s.index()] = None;
        }
        let mut need: Vec<usize> = (0..reservations)
            .map(|ri| counts[ci].get(ri).copied().unwrap_or(0).min(class.count()))
            .collect();
        let mut unclaimed: Vec<ServerId> = Vec::new();
        for &s in &class.servers {
            match snapshot.records[s.index()].current {
                Some(cur) if need.get(cur.index()).copied().unwrap_or(0) > 0 => {
                    need[cur.index()] -= 1;
                    targets[s.index()] = Some(cur);
                }
                _ => unclaimed.push(s),
            }
        }
        for (ri, need) in need.into_iter().enumerate() {
            let res = ReservationId::from_index(ri);
            for _ in 0..need {
                let Some(best_pos) = unclaimed
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| {
                        let rack = region.server(**s).rack.0;
                        let load = rack_load.get(&(rack, res.0)).copied().unwrap_or(0);
                        (load, s.index())
                    })
                    .map(|(pos, _)| pos)
                else {
                    break;
                };
                let s = unclaimed.swap_remove(best_pos);
                targets[s.index()] = Some(res);
                let rack = region.server(s).rack.0;
                *rack_load.entry((rack, res.0)).or_default() += 1;
            }
        }
    }
    targets
}

/// The hash-map `rack_overages`: the oracle for the rack-by-rack sums.
fn map_rack_overages(
    region: &Region,
    specs: &[ReservationSpec],
    targets: &[Option<ReservationId>],
) -> Vec<(usize, f64)> {
    let mut per_rack: HashMap<(u32, u32), f64> = HashMap::new();
    for server in region.servers() {
        if let Some(r) = targets[server.id.index()] {
            if let Some(spec) = specs.get(r.index()) {
                let v = spec.rru.value(server.hardware);
                if v > 0.0 {
                    *per_rack.entry((server.rack.0, r.0)).or_default() += v;
                }
            }
        }
    }
    let mut per_rack: Vec<_> = per_rack.into_iter().collect();
    per_rack.sort_unstable_by_key(|(key, _)| *key);
    let mut overage = vec![0.0; specs.len()];
    for ((_, r), rru) in per_rack {
        let ri = r as usize;
        let spec = &specs[ri];
        if !solver_visible(spec) || spec.capacity <= 0.0 {
            continue;
        }
        let limit = spec.spread.rack_share.unwrap_or(DEFAULT_RACK_SHARE) * spec.capacity;
        if rru > limit {
            overage[ri] += rru - limit;
        }
    }
    let mut ranked: Vec<(usize, f64)> = overage.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

/// SplitMix64: every random choice of a case follows from its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Uniform in `[lo, hi)` with a full mantissa, so sums of three or
    /// more terms usually round differently in different orders.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// A region built by hand: one to two datacenters of one to three MSBs,
/// racks of one to twelve servers, each server's hardware drawn
/// independently, so a rack's RRU terms differ and their sum depends on
/// the order they are added in.
fn mixed_region(mix: &mut Mix) -> Region {
    let catalog = RegionBuilder::new(RegionTemplate::tiny(), 1)
        .build()
        .catalog;
    let hardware: Vec<HardwareTypeId> = catalog.iter().map(|hw| hw.id).collect();
    let mut region = Region::new("mixed", catalog);
    for d in 0..1 + mix.below(2) {
        let dc = region.add_datacenter(format!("dc{d}"));
        for m in 0..1 + mix.below(3) {
            let msb = region.add_msb(dc, m as u32);
            for _ in 0..1 + mix.below(2) {
                let row = region.add_power_row(msb);
                for _ in 0..1 + mix.below(4) {
                    let rack = region.add_rack(row);
                    for _ in 0..1 + mix.below(12) {
                        region.add_server(rack, hardware[mix.below(hardware.len())]);
                    }
                }
            }
        }
    }
    region
}

/// A mixed region whose servers are bound at random to `reservations`
/// reservations (a third stay free), and its snapshot.
fn bound_region(reservations: usize, mix: &mut Mix) -> (Region, BrokerSnapshot) {
    let region = mixed_region(mix);
    let mut broker = ResourceBroker::new(region.server_count());
    let ids: Vec<ReservationId> = (0..reservations)
        .map(|ri| broker.register_reservation(format!("r{ri}")))
        .collect();
    for server in region.servers() {
        if mix.chance(66) {
            let r = ids[mix.below(reservations)];
            broker.bind_current(server.id, Some(r)).unwrap();
        }
    }
    (region, broker.snapshot(SimTime::ZERO))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_concretize_matches_the_scan(seed in 0u64..u64::MAX, reservations in 1..=4usize) {
        let mut mix = Mix(seed);
        let (region, snapshot) = bound_region(reservations, &mut mix);
        // A random scope, then merges of neighbouring classes, so
        // one class can hold members bound to several reservations.
        let scope: Vec<ServerId> = (0..region.server_count())
            .filter(|_| mix.chance(80))
            .map(ServerId::from_index)
            .collect();
        let granularity = if mix.chance(50) { Granularity::Msb } else { Granularity::Rack };
        let mut classes: Vec<EquivClass> = Vec::new();
        for class in build_classes(&region, &snapshot, granularity, Some(&scope)) {
            match classes.last_mut() {
                Some(last) if mix.chance(40) => {
                    last.servers.extend(class.servers);
                    last.servers.sort_unstable();
                }
                _ => classes.push(class),
            }
        }
        // Counts up to two past the class size, per reservation, so some
        // classes run out of members before their demand is met.
        let counts: Vec<Vec<usize>> = classes
            .iter()
            .map(|c| (0..reservations).map(|_| mix.below(c.count() + 3)).collect())
            .collect();
        let heap = concretize(&region, &snapshot, &classes, &counts, reservations);
        let scan = scan_concretize(&region, &snapshot, &classes, &counts, reservations);
        prop_assert_eq!(heap, scan);
    }

    #[test]
    fn rack_by_rack_overages_match_the_map_bit_for_bit(
        seed in 0u64..u64::MAX,
        reservations in 1..=4usize,
    ) {
        let mut mix = Mix(seed);
        let region = mixed_region(&mut mix);
        // Non-dyadic RRU values, some hardware ineligible, some specs
        // invisible or empty, random rack shares.
        let specs: Vec<ReservationSpec> = (0..reservations)
            .map(|ri| {
                let mut rru = RruTable::uniform(&region.catalog, 1.0);
                for hw in region.catalog.iter() {
                    let v = if mix.chance(20) { 0.0 } else { mix.real(0.05, 5.0) };
                    rru.set(hw.id, v);
                }
                let mut spec = if mix.chance(15) {
                    ReservationSpec::elastic(format!("r{ri}"), rru)
                } else {
                    let capacity = if mix.chance(10) { 0.0 } else { mix.real(1.0, 12.0) };
                    ReservationSpec::guaranteed(format!("r{ri}"), capacity, rru)
                };
                spec.spread.rack_share = (!mix.chance(30)).then(|| mix.real(0.01, 0.2));
                spec
            })
            .collect();
        // Targets may name a reservation past the spec list.
        let targets: Vec<Option<ReservationId>> = (0..region.server_count())
            .map(|_| (!mix.chance(25)).then(|| ReservationId::from_index(mix.below(reservations + 1))))
            .collect();
        let bits = |r: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            r.into_iter().map(|(i, v)| (i, v.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(rack_overages(&region, &specs, &targets)),
            bits(map_rack_overages(&region, &specs, &targets))
        );
    }
}
