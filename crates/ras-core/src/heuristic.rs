//! Greedy spread-aware assignment heuristic.
//!
//! The paper's Section 5.1 notes that infrastructures with simpler needs
//! "may use simpler heuristics ... to dynamically assign servers to
//! logical clusters, without using MIP". This module is that heuristic:
//! a spread-aware greedy pass over equivalence classes. RAS itself uses
//! it to construct a *warm incumbent* for cold-start solves (regions
//! with no current assignment), which the exact branch-and-bound then
//! only improves upon.

use crate::classes::EquivClass;
use crate::model::solver_visible;
use crate::params::{SolverParams, DEFAULT_MSB_SHARE};
use crate::reservation::ReservationSpec;
use ras_milp::cast;
use ras_milp::nan;
use ras_milp::nan::NanGuard;
use ras_topology::Region;

/// Greedily assigns class counts to reservations.
///
/// For every visible reservation (largest capacity first) the heuristic
/// fills MSBs in least-loaded-first order, capped per MSB at the spread
/// limit `αF · Cr` (relaxed multiplicatively whenever supply forces it),
/// preferring classes already bound to the reservation, until the
/// any-MSB-loss requirement `total − max_msb ≥ Cr` (or plain `total ≥
/// Cr`) is met or supply runs out.
///
/// Returns `counts[class][reservation]`. Every weight it reads is a
/// [`crate::params`] constant; `_params` stays only because the frozen
/// end-to-end benchmark passes it.
pub fn greedy_counts(
    region: &Region,
    specs: &[ReservationSpec],
    classes: &[EquivClass],
    _params: &SolverParams,
) -> Vec<Vec<usize>> {
    let n_msb = region.msbs().len();
    let mut counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0usize; specs.len()]).collect();
    let mut remaining: Vec<usize> = classes.iter().map(|c| c.count()).collect();

    // Reservation order: scarcest hardware first (fewest eligible types
    // — they cannot dodge contention), then biggest demand first.
    let mut order: Vec<usize> = (0..specs.len())
        .filter(|ri| solver_visible(&specs[*ri]) && specs[*ri].capacity > 0.0)
        .collect();
    order.sort_by(|a, b| {
        specs[*a]
            .rru
            .eligible_count()
            .cmp(&specs[*b].rru.eligible_count())
            .then_with(|| specs[*b].capacity.total_cmp(&specs[*a].capacity))
    });

    let n_dc = region.datacenters().len();
    // Aggregate load across reservations: used as a visit tiebreak so
    // different reservations interleave across MSBs instead of piling
    // onto the same least-indexed ones (the paper's near-uniform spread).
    let mut global_load = vec![0.0f64; n_msb];
    for ri in order {
        let spec = &specs[ri];
        let buffered = spec.survives_msb_loss();
        let mut per_msb = vec![0.0f64; n_msb];
        let mut per_dc = vec![0.0f64; n_dc];
        let mut total = 0.0f64;
        // Per-datacenter caps from the affinity constraint (Expression 7):
        // allocation in DC g may not exceed (share + θ)·Cr.
        let dc_cap: Vec<f64> = (0..n_dc)
            .map(|di| match &spec.dc_affinity {
                Some(aff) => {
                    (aff.share(ras_topology::DatacenterId::from_index(di)) + aff.tolerance)
                        * spec.capacity
                }
                None => f64::INFINITY,
            })
            .collect();
        let msb_dc: Vec<usize> = region.msbs().iter().map(|m| m.datacenter.index()).collect();
        // Per-MSB quota: the spread limit when one is set; the default
        // when an embedded buffer needs the max-MSB footprint kept low;
        // unlimited otherwise (e.g. single-DC ML reservations).
        let mut quota = match (spec.spread.msb_share, buffered) {
            (Some(alpha), _) => (alpha * spec.capacity).nmax(1.0),
            (None, true) => (DEFAULT_MSB_SHARE * spec.capacity).nmax(1.0),
            (None, false) => f64::INFINITY,
        };
        // Affinity share of each MSB's datacenter, for visit priority.
        let dc_share: Vec<f64> = (0..n_dc)
            .map(|di| match &spec.dc_affinity {
                Some(aff) => aff.share(ras_topology::DatacenterId::from_index(di)),
                None => 0.0,
            })
            .collect();
        let satisfied = |total: f64, per_msb: &[f64]| {
            let max = per_msb.iter().cloned().fold(0.0, nan::fmax);
            if buffered {
                total - max >= spec.capacity
            } else {
                total >= spec.capacity
            }
        };
        // Two preference passes: keep current members first, then any.
        'outer: for _ in 0..40 {
            let mut progressed = false;
            for prefer_current in [true, false] {
                // Visit MSBs in datacenters the reservation wants first
                // (affinity lower bounds), least-loaded first within.
                let mut msb_order: Vec<usize> = (0..n_msb).collect();
                msb_order.sort_by(|a, b| {
                    dc_share[msb_dc[*b]]
                        .total_cmp(&dc_share[msb_dc[*a]])
                        .then_with(|| per_msb[*a].total_cmp(&per_msb[*b]))
                        .then_with(|| global_load[*a].total_cmp(&global_load[*b]))
                });
                for mi in msb_order {
                    if satisfied(total, &per_msb) {
                        break 'outer;
                    }
                    if per_msb[mi] >= quota || per_dc[msb_dc[mi]] >= dc_cap[msb_dc[mi]] {
                        continue;
                    }
                    for (ci, class) in classes.iter().enumerate() {
                        if class.msb.index() != mi
                            || remaining[ci] == 0
                            || !spec.rru.eligible(class.hardware)
                        {
                            continue;
                        }
                        if prefer_current && class.current.map(|r| r.index()) != Some(ri) {
                            continue;
                        }
                        let v = spec.rru.value(class.hardware);
                        let msb_room = (quota - per_msb[mi]) / v;
                        let dc_room = (dc_cap[msb_dc[mi]] - per_dc[msb_dc[mi]]) / v;
                        let room = cast::floor_usize(msb_room.nmin(dc_room));
                        let take = remaining[ci].min(room.max(1));
                        // Never breach the hard DC cap (the MSB quota is
                        // soft and may be exceeded by one server).
                        let take = if v * take as f64 + per_dc[msb_dc[mi]] > dc_cap[msb_dc[mi]] {
                            cast::floor_usize(dc_room)
                        } else {
                            take
                        }
                        .min(remaining[ci]);
                        if take == 0 {
                            continue;
                        }
                        counts[ci][ri] += take;
                        remaining[ci] -= take;
                        per_msb[mi] += v * take as f64;
                        per_dc[msb_dc[mi]] += v * take as f64;
                        global_load[mi] += take as f64;
                        total += v * take as f64;
                        progressed = true;
                        if per_msb[mi] >= quota || satisfied(total, &per_msb) {
                            break;
                        }
                    }
                }
            }
            if satisfied(total, &per_msb) {
                break;
            }
            if !progressed {
                // Every MSB is at quota (or out of supply): relax.
                quota *= 1.5;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{build_classes, Granularity};
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 31).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn meets_capacity_with_buffer() {
        let (region, broker) = setup();
        let specs = vec![
            ReservationSpec::guaranteed("a", 60.0, RruTable::uniform(&region.catalog, 1.0)),
            ReservationSpec::guaranteed("b", 45.0, RruTable::uniform(&region.catalog, 1.0)),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts = greedy_counts(&region, &specs, &classes, &SolverParams::default());
        for (ri, spec) in specs.iter().enumerate() {
            let mut per_msb = vec![0.0; region.msbs().len()];
            let mut total = 0.0;
            for (ci, class) in classes.iter().enumerate() {
                let v = counts[ci][ri] as f64 * spec.rru.value(class.hardware);
                per_msb[class.msb.index()] += v;
                total += v;
            }
            let max = per_msb.iter().cloned().fold(0.0, f64::max);
            assert!(
                total - max >= spec.capacity - 1e-9,
                "{}: {total} - {max} < {}",
                spec.name,
                spec.capacity
            );
        }
    }

    #[test]
    fn respects_class_supply() {
        let (region, broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "a",
            100.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts = greedy_counts(&region, &specs, &classes, &SolverParams::default());
        for (ci, class) in classes.iter().enumerate() {
            let assigned: usize = counts[ci].iter().sum();
            assert!(assigned <= class.count());
        }
    }

    #[test]
    fn prefers_current_members() {
        let (region, mut broker) = setup();
        let a = broker.register_reservation("a");
        // Bind 30 spread-out servers to a.
        let step = region.server_count() / 30;
        for i in 0..30 {
            broker
                .bind_current(ras_topology::ServerId::from_index(i * step), Some(a))
                .unwrap();
        }
        let specs = vec![ReservationSpec::guaranteed(
            "a",
            25.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts = greedy_counts(&region, &specs, &classes, &SolverParams::default());
        let kept: usize = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.current == Some(a))
            .map(|(ci, _)| counts[ci][0])
            .sum();
        assert!(
            kept >= 25,
            "greedy should reuse current members, kept {kept}"
        );
    }

    #[test]
    fn ineligible_hardware_untouched() {
        let (region, broker) = setup();
        let gpu = region.catalog.by_name("C5").unwrap().id;
        let mut rru = RruTable::empty(&region.catalog);
        rru.set(gpu, 1.0);
        let mut spec = ReservationSpec::guaranteed("gpu-only", 2.0, rru);
        spec.msb_buffer = false;
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts = greedy_counts(&region, &[spec], &classes, &SolverParams::default());
        for (ci, class) in classes.iter().enumerate() {
            if class.hardware != gpu {
                assert_eq!(counts[ci][0], 0);
            }
        }
    }
}
