//! The walks the sharded round's passes replaced, kept as oracles, and
//! the differential tests that hold the passes to them.
//!
//! - [`btree_classes`], the class build that walked the whole region,
//!   tested every server against the scope's mask and filed it in a
//!   `BTreeMap`, against [`build_classes_counted`], which walks the
//!   scope's own servers and groups them through a hash of the key;
//! - [`per_reservation_reconcile`], which walked the region once per
//!   reservation, against [`reconcile`], which files every reservation's
//!   servers in one walk and reads their [`Standing`] where the oracle
//!   read their records.
//!
//! The ignored `paper_scale_walks` test times each pair at the paper's
//! region size:
//! `cargo test --release -p ras-core --lib oracles::paper_scale_walks -- --ignored --nocapture`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_broker::{
    BrokerSnapshot, ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind,
};
use ras_milp::nan;
use ras_milp::tol;
use ras_topology::{
    HardwareTypeId, MsbId, RackId, Region, RegionBuilder, RegionTemplate, ScopeId, ServerId,
};

use crate::classes::{
    build_classes_counted, unplanned_unavailable, ClassKey, EquivClass, Granularity,
};
use crate::model::solver_visible;
use crate::phases::phase2_universe;
use crate::reservation::ReservationSpec;
use crate::rru::RruTable;
use crate::shard::{reconcile, standings, ShardPlan, Standing};

/// The class builder the flat grouping replaced: a walk of the whole
/// region that tests every server against a mask and files the ones in
/// scope in a `BTreeMap` keyed by the class key. The oracle of
/// [`build_classes_counted`].
fn btree_classes(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    include: Option<&[bool]>,
) -> (Vec<EquivClass>, usize) {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<ClassKey, Vec<ServerId>> = BTreeMap::new();
    let mut excluded = 0usize;
    for server in region.servers() {
        if include.is_some_and(|mask| !mask[server.id.index()]) {
            continue;
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
        let key: ClassKey = (
            server.hardware.0,
            server.msb.0,
            rack,
            record.current,
            record.target,
            record.running_containers > 0,
        );
        groups.entry(key).or_default().push(server.id);
    }
    let classes = groups
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
    (classes, excluded)
}

/// The reconcile pass the one-walk filing replaced: one walk of the
/// region per visible reservation. The oracle of [`reconcile`].
fn per_reservation_reconcile(
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    targets: &mut [Option<ReservationId>],
) -> (usize, f64) {
    let n_msb = region.msbs().len();
    let mut released = 0usize;
    let mut released_rru = 0.0f64;
    for (ri, spec) in specs.iter().enumerate() {
        if !solver_visible(spec) || spec.capacity <= 0.0 {
            continue;
        }
        let res = ReservationId::from_index(ri);
        let mut total = 0.0f64;
        let mut by_msb = vec![0.0f64; n_msb];
        let mut candidates: Vec<Vec<(ServerId, f64)>> = vec![Vec::new(); n_msb];
        for server in region.servers() {
            let record = snapshot.record(server.id);
            if unplanned_unavailable(record) {
                continue;
            }
            if targets[server.id.index()] != Some(res) || !spec.rru.eligible(server.hardware) {
                continue;
            }
            let v = spec.rru.value(server.hardware);
            total += v;
            by_msb[server.msb.index()] += v;
            if record.current.is_none() {
                candidates[server.msb.index()].push((server.id, v));
            }
        }
        for stack in &mut candidates {
            stack.sort_by(|a, b| a.1.total_cmp(&b.1));
        }
        let buffered = spec.survives_msb_loss();
        let feasible = |total: f64, max_msb: f64| {
            let effective = if buffered { total - max_msb } else { total };
            effective >= spec.capacity - tol::EPS
        };
        loop {
            let mut order: Vec<usize> = (0..n_msb).collect();
            order.sort_by(|a, b| by_msb[*b].total_cmp(&by_msb[*a]));
            let mut committed = false;
            for mi in order {
                let Some(&(s, v)) = candidates[mi].last() else {
                    continue;
                };
                let new_total = total - v;
                let old = by_msb[mi];
                by_msb[mi] = old - v;
                let new_max = by_msb.iter().copied().fold(0.0, nan::fmax);
                if feasible(new_total, new_max) {
                    candidates[mi].pop();
                    total = new_total;
                    targets[s.index()] = None;
                    released += 1;
                    released_rru += v;
                    committed = true;
                    break;
                }
                by_msb[mi] = old;
            }
            if !committed {
                break;
            }
        }
    }
    (released, released_rru)
}

/// Every field of a class, its label included, in one comparable form.
fn fingerprint(classes: &[EquivClass]) -> Vec<String> {
    classes
        .iter()
        .map(|c| format!("{c:?} {}", c.label()))
        .collect()
}

/// A tiny region, or a medium one a quarter of the time.
fn random_region(rng: &mut StdRng) -> Region {
    let template = if rng.gen_bool(0.25) {
        RegionTemplate::medium()
    } else {
        RegionTemplate::tiny()
    };
    RegionBuilder::new(template, rng.gen_range(0..1_000u64)).build()
}

/// A snapshot of `region` that binds a `bound` share of the servers at
/// random to `reservations` reservations, plans a target (a reservation
/// or the free pool) for a `planned` share, runs containers on a fifth
/// and takes a tenth down: unplanned hardware, software and correlated
/// outages, and planned maintenance.
fn random_snapshot(
    rng: &mut StdRng,
    region: &Region,
    reservations: usize,
    bound: f64,
    planned: f64,
) -> BrokerSnapshot {
    let mut snap = ResourceBroker::new(region.server_count()).snapshot(SimTime::ZERO);
    let kinds = [
        UnavailabilityKind::PlannedMaintenance,
        UnavailabilityKind::UnplannedHardware,
        UnavailabilityKind::UnplannedSoftware,
        UnavailabilityKind::CorrelatedFailure,
    ];
    let pick = |rng: &mut StdRng, share: f64| {
        rng.gen_bool(share)
            .then(|| ReservationId::from_index(rng.gen_range(0..reservations)))
    };
    for (i, record) in snap.records.iter_mut().enumerate() {
        record.current = pick(rng, bound);
        record.target = if rng.gen_bool(planned) {
            pick(rng, bound)
        } else {
            record.current
        };
        if rng.gen_bool(0.2) {
            record.running_containers = rng.gen_range(1..4u32);
        }
        if rng.gen_bool(0.1) {
            let server = ServerId::from_index(i);
            record.unavailability = Some(Box::new(UnavailabilityEvent {
                server,
                kind: kinds[rng.gen_range(0..kinds.len())],
                scope: ScopeId::Server(server),
                start: SimTime::ZERO,
                expected_end: None,
            }));
        }
    }
    snap
}

/// `reservations` specs over `region`'s catalog: RRU tables with a
/// quarter of the hardware ineligible and non-dyadic values elsewhere,
/// and each spec buffered (a guaranteed spec), unbuffered (a shared
/// buffer, or a guaranteed spec without an MSB buffer), invisible
/// (elastic) or, a tenth of the time, asking for nothing. Capacities
/// are a share of what an even split of the region would give.
fn random_specs(rng: &mut StdRng, region: &Region, reservations: usize) -> Vec<ReservationSpec> {
    let even = region.server_count() as f64 / reservations as f64;
    (0..reservations)
        .map(|ri| {
            let mut rru = RruTable::uniform(&region.catalog, 1.0);
            for hw in region.catalog.iter() {
                let v = if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(0.05..3.0)
                };
                rru.set(hw.id, v);
            }
            let capacity = if rng.gen_bool(0.1) {
                0.0
            } else {
                even * rng.gen_range(0.05..0.4)
            };
            let name = format!("r{ri}");
            match rng.gen_range(0..5) {
                0 => ReservationSpec::elastic(name, rru),
                1 => ReservationSpec::shared_buffer(name, capacity, rru),
                2 => ReservationSpec {
                    msb_buffer: false,
                    ..ReservationSpec::guaranteed(name, capacity, rru)
                },
                _ => ReservationSpec::guaranteed(name, capacity, rru),
            }
        })
        .collect()
}

/// A plan targeting nine servers in ten at random, one reservation past
/// the spec list included: far more than the specs ask for.
fn over_assigned(rng: &mut StdRng, n: usize, reservations: usize) -> Vec<Option<ReservationId>> {
    (0..n)
        .map(|_| {
            rng.gen_bool(0.9)
                .then(|| ReservationId::from_index(rng.gen_range(0..reservations + 1)))
        })
        .collect()
}

/// A snapshot of `region` shaped like a running region's: each rack
/// serves one of `reservations` reservations with a random number of its
/// servers (the rest are free), half of the bound servers run
/// containers, one server in twenty is planned elsewhere and one in a
/// hundred is down.
fn rack_bound_snapshot(rng: &mut StdRng, region: &Region, reservations: usize) -> BrokerSnapshot {
    let mut snap = ResourceBroker::new(region.server_count()).snapshot(SimTime::ZERO);
    for rack in region.racks() {
        let r = ReservationId::from_index(rng.gen_range(0..reservations));
        let bound = rng.gen_range(0..=rack.servers.len());
        for (k, s) in rack.servers.iter().enumerate() {
            let record = &mut snap.records[s.index()];
            record.current = (k < bound).then_some(r);
            record.target = record.current;
            if record.current.is_some() && rng.gen_bool(0.5) {
                record.running_containers = 1;
            }
            if rng.gen_bool(0.05) {
                record.target = rng
                    .gen_bool(0.5)
                    .then(|| ReservationId::from_index(rng.gen_range(0..reservations)));
            }
            if rng.gen_bool(0.01) {
                record.unavailability = Some(Box::new(UnavailabilityEvent {
                    server: *s,
                    kind: UnavailabilityKind::UnplannedHardware,
                    scope: ScopeId::Server(*s),
                    start: SimTime::ZERO,
                    expected_end: None,
                }));
            }
        }
    }
    snap
}

/// A scope's servers as the mask the B-tree builder took.
fn mask_of(region: &Region, scope: &[ServerId]) -> Vec<bool> {
    let mut mask = vec![false; region.server_count()];
    for s in scope {
        mask[s.index()] = true;
    }
    mask
}

// The flat grouping over a scope's own servers builds exactly the B-tree
// builder's classes over the same scope as a mask: the same classes in
// the same order, the same members, every field and label equal, and
// the same excluded count. Scopes: the whole region, each shard of a 2-
// and a 3-shard plan, and a phase-2 universe (the free pool plus two
// reservations' servers, within a shard), at both granularities.
//
// Reconcile's one walk releases exactly what the per-reservation walks
// released: the same targets, the same count and the same released RRUs
// to the bit, on over-assigned plans with bound servers (never
// released) and outages of every kind.
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    #[test]
    fn flat_grouping_matches_the_btree_builder(
        seed in 0u64..u64::MAX,
        reservations in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let region = random_region(&mut rng);
        let snap = random_snapshot(&mut rng, &region, reservations, 0.66, 0.5);
        let targets: Vec<Option<ReservationId>> =
            snap.records.iter().map(|r| r.current).collect();
        let mut scopes: Vec<Option<Vec<ServerId>>> = vec![None];
        for k in [2, 3] {
            for shard in ShardPlan::build(&region, k).shards {
                let selected = [0, (reservations - 1).min(2)];
                let universe = phase2_universe(&region, &targets, &selected, Some(&shard.servers));
                scopes.push(Some(universe));
                scopes.push(Some(shard.servers));
            }
        }
        for scope in &scopes {
            let mask = scope.as_ref().map(|servers| mask_of(&region, servers));
            for granularity in [Granularity::Msb, Granularity::Rack] {
                let (flat, flat_excluded) =
                    build_classes_counted(&region, &snap, granularity, scope.as_deref());
                let (tree, tree_excluded) =
                    btree_classes(&region, &snap, granularity, mask.as_deref());
                proptest::prop_assert_eq!(fingerprint(&flat), fingerprint(&tree));
                proptest::prop_assert_eq!(flat_excluded, tree_excluded);
            }
        }
    }

    #[test]
    fn one_walk_reconcile_matches_the_per_reservation_walks(
        seed in 0u64..u64::MAX,
        reservations in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let region = random_region(&mut rng);
        let specs = random_specs(&mut rng, &region, reservations);
        let snap = random_snapshot(&mut rng, &region, reservations, 0.3, 0.0);
        let targets = over_assigned(&mut rng, region.server_count(), reservations);
        // The standings a sharded round reads: from the classes of the
        // shards of a plan, which must equal the records'.
        let plan = ShardPlan::build(&region, 2);
        let classes: Vec<EquivClass> = plan
            .shards
            .iter()
            .flat_map(|shard| {
                build_classes_counted(&region, &snap, Granularity::Msb, Some(&shard.servers)).0
            })
            .collect();
        let standing = standings(region.server_count(), &classes);
        let from_records: Vec<Standing> = snap.records.iter().map(Standing::of).collect();
        proptest::prop_assert_eq!(&standing, &from_records);
        let (mut walked, mut oracle) = (targets.clone(), targets);
        let (released, rru) = reconcile(&region, &specs, &standing, &mut walked);
        let (want, want_rru) = per_reservation_reconcile(&region, &specs, &snap, &mut oracle);
        proptest::prop_assert_eq!(released, want);
        proptest::prop_assert_eq!(rru.to_bits(), want_rru.to_bits());
        proptest::prop_assert_eq!(walked, oracle);
    }
}

/// The median of `runs` timings of `f`, in milliseconds.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[runs / 2]
}

/// Each kept walk against its replacement at the paper's region size
/// (104 400 servers in 36 MSBs) with a 100-reservation portfolio: the
/// class build over the whole region and over each shard of a 2-shard
/// plan, and reconcile over an over-assigned plan. Prints the medians;
/// asserts only that both sides agree. Run it in release (see the module
/// documentation).
#[test]
#[ignore = "timing at paper scale; run in release with --ignored --nocapture"]
fn paper_scale_walks() {
    let template = RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 9,
        power_rows_per_msb: 10,
        racks_per_power_row: 29,
        servers_per_rack: 10,
    };
    let region = RegionBuilder::new(template, 1).build();
    let reservations = 100;
    let mut rng = StdRng::seed_from_u64(7);
    let snap = rack_bound_snapshot(&mut rng, &region, reservations);
    let plan = ShardPlan::build(&region, 2);
    let runs = 21;
    println!(
        "{} servers, {} MSBs, {reservations} reservations, median of {runs} runs",
        region.server_count(),
        region.msbs().len()
    );
    for shard in std::iter::once(None).chain(plan.shards.iter().map(Some)) {
        let scope = shard.map(|s| s.servers.as_slice());
        let mask = scope.map(|servers| mask_of(&region, servers));
        let granularity = Granularity::Msb;
        let flat = build_classes_counted(&region, &snap, granularity, scope);
        let tree = btree_classes(&region, &snap, granularity, mask.as_deref());
        assert_eq!(fingerprint(&flat.0), fingerprint(&tree.0));
        let tree_ms = median_ms(runs, || {
            std::hint::black_box(btree_classes(&region, &snap, granularity, mask.as_deref()));
        });
        let flat_ms = median_ms(runs, || {
            std::hint::black_box(build_classes_counted(&region, &snap, granularity, scope));
        });
        let name = shard.map_or("region".to_string(), |s| format!("shard {}", s.index));
        println!(
            "class build, {name}: {} classes, b-tree walk {tree_ms:.3} ms, flat grouping {flat_ms:.3} ms",
            flat.0.len()
        );
    }
    let specs = random_specs(&mut rng, &region, reservations);
    // The plan keeps every bound server and acquires a fifth of the free
    // ones: the surplus a sharded round's merge hands reconcile.
    let targets: Vec<Option<ReservationId>> = snap
        .records
        .iter()
        .map(|r| {
            r.current.or_else(|| {
                rng.gen_bool(0.2)
                    .then(|| ReservationId::from_index(rng.gen_range(0..reservations)))
            })
        })
        .collect();
    let mut released = (0, 0, 0.0f64.to_bits());
    let per_ms = median_ms(runs, || {
        let mut t = targets.clone();
        let (n, rru) = per_reservation_reconcile(&region, &specs, &snap, &mut t);
        released.0 = n;
        released.2 = rru.to_bits();
    });
    // A sharded round files its servers by the standings its shards'
    // classes give them, so that derivation is timed with the walk.
    let classes: Vec<EquivClass> = plan
        .shards
        .iter()
        .flat_map(|shard| {
            build_classes_counted(&region, &snap, Granularity::Msb, Some(&shard.servers)).0
        })
        .collect();
    let one_ms = median_ms(runs, || {
        let mut t = targets.clone();
        let standing = standings(region.server_count(), &classes);
        let (n, rru) = reconcile(&region, &specs, &standing, &mut t);
        released.1 = n;
        assert_eq!(rru.to_bits(), released.2);
    });
    assert_eq!(released.0, released.1);
    println!(
        "reconcile: {} released, per-reservation walks {per_ms:.3} ms, standings and one walk {one_ms:.3} ms",
        released.0
    );
}
