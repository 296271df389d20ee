//! Failure-buffer sizing and accounting (paper Section 3.3).
//!
//! * The *shared random-failure buffer* is a set of special reservations
//!   (one per hardware type) sized by forecast — currently 2 % of region
//!   capacity.
//! * The *embedded correlated-failure buffer* is not a separate pool: it
//!   is the spare headroom inside every reservation, equal to its largest
//!   per-MSB capacity (it must survive the loss of any MSB). This module
//!   computes the accounting the paper reports: 94 % guaranteed / 2 %
//!   random buffer / ~4 % embedded buffer, plus the optimal and
//!   perfect-spread lower bounds (4.06 % and 2.8 % in the paper's
//!   36-MSB region).

use ras_broker::ReservationId;
use ras_topology::Region;

use crate::reservation::{ReservationKind, ReservationSpec};
use crate::rru::RruTable;
use ras_milp::nan;
use ras_milp::tol;

/// Builds the shared random-failure buffer reservations: one per hardware
/// type, each sized at `fraction` of that type's fleet (Section 3.5.3:
/// "a special reservation for each hardware type").
pub fn shared_buffer_specs(region: &Region, fraction: f64) -> Vec<ReservationSpec> {
    let mut per_type = vec![0usize; region.catalog.len()];
    for s in region.servers() {
        per_type[s.hardware.index()] += 1;
    }
    region
        .catalog
        .iter()
        .filter(|hw| per_type[hw.id.index()] > 0)
        .map(|hw| {
            let capacity = (per_type[hw.id.index()] as f64 * fraction).ceil();
            let mut rru = RruTable::empty(&region.catalog);
            rru.set(hw.id, 1.0);
            ReservationSpec::shared_buffer(format!("buffer.{}", hw.name), capacity, rru)
        })
        .collect()
}

/// Region-level capacity accounting under an assignment.
#[derive(Debug, Clone, Default)]
pub struct BufferAccounting {
    /// Fraction of servers bound to guaranteed reservations, *excluding*
    /// their embedded buffers.
    pub guaranteed_fraction: f64,
    /// Fraction of servers in shared random-failure buffer reservations.
    pub random_buffer_fraction: f64,
    /// Fraction of servers that constitute embedded correlated-failure
    /// buffers (each reservation's largest per-MSB footprint).
    pub embedded_buffer_fraction: f64,
    /// Fraction of servers left unassigned.
    pub free_fraction: f64,
    /// Per-reservation share of its servers in its single largest MSB
    /// (the Figure 12 metric).
    pub max_msb_share: Vec<f64>,
}

impl BufferAccounting {
    /// Server-weighted average of the per-reservation max-MSB share.
    pub fn weighted_max_msb_share(&self, weights: &[f64]) -> f64 {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.max_msb_share
            .iter()
            .zip(weights)
            .map(|(s, w)| s * w)
            .sum::<f64>()
            / total
    }
}

/// Computes the accounting for an assignment (`targets[i]` is the
/// reservation of server `i`).
pub fn account(
    region: &Region,
    specs: &[ReservationSpec],
    targets: &[Option<ReservationId>],
) -> BufferAccounting {
    let n_msb = region.msbs().len();
    let total = region.server_count() as f64;
    let mut per_res_total = vec![0usize; specs.len()];
    let mut per_res_msb = vec![vec![0usize; n_msb]; specs.len()];
    let mut free = 0usize;
    for server in region.servers() {
        match targets[server.id.index()] {
            Some(r) if r.index() < specs.len() => {
                per_res_total[r.index()] += 1;
                per_res_msb[r.index()][server.msb.index()] += 1;
            }
            _ => free += 1,
        }
    }
    let mut guaranteed = 0.0;
    let mut random_buffer = 0.0;
    let mut embedded = 0.0;
    let mut max_msb_share = vec![0.0; specs.len()];
    for (ri, spec) in specs.iter().enumerate() {
        let servers = per_res_total[ri] as f64;
        let max_msb = per_res_msb[ri].iter().copied().max().unwrap_or(0) as f64;
        if servers > 0.0 {
            max_msb_share[ri] = max_msb / servers;
        }
        match spec.kind {
            ReservationKind::SharedBuffer => random_buffer += servers,
            ReservationKind::Guaranteed => {
                if spec.msb_buffer {
                    embedded += max_msb;
                    guaranteed += servers - max_msb;
                } else {
                    guaranteed += servers;
                }
            }
            ReservationKind::Elastic => guaranteed += servers,
        }
    }
    BufferAccounting {
        guaranteed_fraction: guaranteed / total,
        random_buffer_fraction: random_buffer / total,
        embedded_buffer_fraction: embedded / total,
        free_fraction: free as f64 / total,
        max_msb_share,
    }
}

/// The smallest achievable maximum-MSB RRU amount for a demand of
/// `capacity` RRUs given per-MSB eligible RRU supply `per_msb`.
///
/// This is the water-filling bound behind the paper's "minimal required
/// buffer capacity is 4.06 %": the best any allocator could do given how
/// unevenly eligible hardware is installed across MSBs. Returns `None`
/// when the region cannot supply the demand at all.
pub fn min_max_msb_rru(per_msb: &[f64], capacity: f64) -> Option<f64> {
    let total: f64 = per_msb.iter().sum();
    if capacity <= 0.0 {
        return Some(0.0);
    }
    if total < capacity {
        return None;
    }
    // Binary search the water level t: Σ min(cap_G, t) >= capacity.
    let mut lo = 0.0;
    let mut hi = per_msb.iter().cloned().fold(0.0, nan::fmax);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let filled: f64 = per_msb.iter().map(|c| c.min(mid)).sum();
        if filled >= capacity {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Perfect-spread lower bound on the max-MSB share: `1 / #MSBs`
/// (the paper's 2.8 % for 36 MSBs).
pub fn perfect_spread_bound(region: &Region) -> f64 {
    1.0 / region.msbs().len() as f64
}

/// The hardware-imbalance-aware lower bound on the max-MSB *share* for a
/// reservation (the paper's 4.06 %-style bound): the minimal max-MSB RRUs
/// divided by the requested capacity-plus-buffer.
pub fn optimal_share_bound(region: &Region, spec: &ReservationSpec) -> Option<f64> {
    let mut per_msb = vec![0.0; region.msbs().len()];
    for s in region.servers() {
        per_msb[s.msb.index()] += spec.rru.value(s.hardware);
    }
    let min_max = min_max_msb_rru(&per_msb, spec.capacity)?;
    Some(min_max / spec.capacity.max(tol::EPS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::{RegionBuilder, RegionTemplate};

    #[test]
    fn shared_buffer_specs_cover_present_types() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let specs = shared_buffer_specs(&region, 0.02);
        assert!(!specs.is_empty());
        for spec in &specs {
            assert_eq!(spec.kind, ReservationKind::SharedBuffer);
            assert!(spec.capacity >= 1.0);
            assert_eq!(spec.rru.eligible_count(), 1);
        }
        // Total buffer ≈ 2 % of fleet (ceil per type).
        let total: f64 = specs.iter().map(|s| s.capacity).sum();
        assert!(total >= region.server_count() as f64 * 0.02);
        assert!(total <= region.server_count() as f64 * 0.02 + specs.len() as f64);
    }

    #[test]
    fn water_filling_bound() {
        // 3 MSBs with 10/10/10 supply, demand 12 → 4 each.
        assert!((min_max_msb_rru(&[10.0, 10.0, 10.0], 12.0).unwrap() - 4.0).abs() < 1e-6);
        // Uneven: 20/5/5, demand 24 → t with min(20,t)+min(5,t)*2 = 24 → t = 14.
        assert!((min_max_msb_rru(&[20.0, 5.0, 5.0], 24.0).unwrap() - 14.0).abs() < 1e-4);
        // Infeasible demand.
        assert!(min_max_msb_rru(&[1.0, 1.0], 5.0).is_none());
        // Zero demand.
        assert_eq!(min_max_msb_rru(&[1.0], 0.0), Some(0.0));
    }

    #[test]
    fn accounting_fractions_sum_to_one() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            30.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        // Assign 60 servers to web: 30 in MSB 0 (concentrated).
        let mut targets = vec![None; region.server_count()];
        for t in targets.iter_mut().take(60) {
            *t = Some(ReservationId::from_index(0));
        }
        let acct = account(&region, &specs, &targets);
        let sum = acct.guaranteed_fraction
            + acct.random_buffer_fraction
            + acct.embedded_buffer_fraction
            + acct.free_fraction;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert!(acct.max_msb_share[0] > 0.0);
    }

    #[test]
    fn perfect_spread_matches_msb_count() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        assert!((perfect_spread_bound(&region) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_bound_at_least_perfect_spread() {
        let region = RegionBuilder::new(RegionTemplate::medium(), 7).build();
        let spec = ReservationSpec::guaranteed(
            "web",
            region.server_count() as f64 * 0.5,
            RruTable::uniform(&region.catalog, 1.0),
        );
        let bound = optimal_share_bound(&region, &spec).unwrap();
        assert!(bound >= perfect_spread_bound(&region) - 1e-9);
        assert!(bound < 1.0);
    }
}
