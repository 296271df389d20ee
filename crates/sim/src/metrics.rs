//! Hourly metric samples collected by the simulation, plus
//! stranded-capacity accounting for the container (level-2) layer.
//!
//! *Stranded* capacity is free capacity in one dimension that cannot host
//! another container because the complementary dimension is exhausted, at
//! the granularity of the reservation's actual container shapes: a host
//! with 16 free cores but 1 free GiB has 16 stranded cores when every
//! offered shape needs at least a few GiB — the cores are nominally free
//! yet unusable.

use ras_broker::{ReservationId, ResourceBroker};
use ras_core::buffers;
use ras_core::reservation::ReservationSpec;
use ras_topology::Region;

/// Stranded-capacity totals over a set of hosts at one container grain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrandedAccount {
    /// Total free cores across the accounted hosts.
    pub free_cores: f64,
    /// Total free memory (GiB) across the accounted hosts.
    pub free_memory_gib: f64,
    /// Cores in whole container-slots blocked by exhausted memory.
    pub stranded_cores: f64,
    /// Memory (GiB) in whole container-slots blocked by exhausted cores.
    pub stranded_memory_gib: f64,
    /// Hosts accounted.
    pub hosts: usize,
    /// Hosts with at least one whole container-slot stranded in either
    /// dimension.
    pub stranded_hosts: usize,
}

impl StrandedAccount {
    /// Folds another account into this one.
    pub fn merge(&mut self, other: &StrandedAccount) {
        self.free_cores += other.free_cores;
        self.free_memory_gib += other.free_memory_gib;
        self.stranded_cores += other.stranded_cores;
        self.stranded_memory_gib += other.stranded_memory_gib;
        self.hosts += other.hosts;
        self.stranded_hosts += other.stranded_hosts;
    }

    /// Fraction of free cores that are stranded.
    pub fn core_fraction(&self) -> f64 {
        if self.free_cores <= 0.0 {
            0.0
        } else {
            self.stranded_cores / self.free_cores
        }
    }

    /// Fraction of free memory that is stranded.
    pub fn memory_fraction(&self) -> f64 {
        if self.free_memory_gib <= 0.0 {
            0.0
        } else {
            self.stranded_memory_gib / self.free_memory_gib
        }
    }

    /// Mean of the per-dimension stranded fractions — the headline
    /// "stranded fraction" the FARB bench gates on.
    pub fn fraction(&self) -> f64 {
        (self.core_fraction() + self.memory_fraction()) / 2.0
    }

    /// Fraction of hosts with stranded capacity (FARB's 23–36 % baseline
    /// statistic).
    pub fn host_fraction(&self) -> f64 {
        if self.hosts == 0 {
            0.0
        } else {
            self.stranded_hosts as f64 / self.hosts as f64
        }
    }
}

/// Stranded capacity of one host at a *single* container grain: whole
/// container-slots (at `grain` = `(cores, memory_gib)` per container)
/// free in one dimension but unusable because the other dimension has
/// fewer slots left.
pub fn stranded_on(free_cores: f64, free_memory_gib: f64, grain: (f64, f64)) -> (f64, f64) {
    if grain.0 <= 0.0 || grain.1 <= 0.0 {
        return (0.0, 0.0);
    }
    let core_slots = (free_cores / grain.0).floor().max(0.0);
    let mem_slots = (free_memory_gib / grain.1).floor().max(0.0);
    let usable = core_slots.min(mem_slots);
    (
        (core_slots - usable) * grain.0,
        (mem_slots - usable) * grain.1,
    )
}

/// Stranded capacity of one host against a reservation's whole *shape
/// set*: per dimension, capacity is stranded only when **no** offered
/// shape can consume it — the shape that strands the least in a
/// dimension bounds that dimension's stranding (future placements would
/// use it). A single averaged grain instead would mis-read heterogeneous
/// hardware: a memory-rich host is fully consumable by the memory-heavy
/// shape even though the core-efficient shape would leave most of its
/// memory behind.
pub fn stranded_best(free_cores: f64, free_memory_gib: f64, shapes: &[(f64, f64)]) -> (f64, f64) {
    let mut best: Option<(f64, f64)> = None;
    for grain in shapes {
        let (sc, sm) = stranded_on(free_cores, free_memory_gib, *grain);
        let (bc, bm) = best.unwrap_or((f64::INFINITY, f64::INFINITY));
        best = Some((bc.min(sc), bm.min(sm)));
    }
    best.unwrap_or((0.0, 0.0))
}

/// Accounts stranded capacity over hosts' `(free_cores, free_memory_gib)`
/// pairs against a reservation's container shape set.
pub fn stranded_account(
    hosts: impl IntoIterator<Item = (f64, f64)>,
    shapes: &[(f64, f64)],
) -> StrandedAccount {
    let mut acct = StrandedAccount::default();
    for (free_cores, free_memory_gib) in hosts {
        let (sc, sm) = stranded_best(free_cores, free_memory_gib, shapes);
        acct.free_cores += free_cores;
        acct.free_memory_gib += free_memory_gib;
        acct.stranded_cores += sc;
        acct.stranded_memory_gib += sm;
        acct.hosts += 1;
        if sc > 0.0 || sm > 0.0 {
            acct.stranded_hosts += 1;
        }
    }
    acct
}

/// Member-weighted average over reservations of the share of each
/// reservation's servers in its largest MSB, on the broker's current
/// bindings (Figure 12's y-axis).
pub fn weighted_max_msb_share(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &ResourceBroker,
) -> f64 {
    let current: Vec<Option<ReservationId>> = broker.iter().map(|(_, r)| r.current).collect();
    let weights: Vec<f64> = (0..specs.len())
        .map(|ri| broker.member_count(ReservationId::from_index(ri)) as f64)
        .collect();
    buffers::account(region, specs, &current).weighted_max_msb_share(&weights)
}

/// One hourly sample of region state.
#[derive(Debug, Clone, Default)]
pub struct HourSample {
    /// Sample time in hours since simulation start.
    pub hour: u64,
    /// Fraction of servers down for any reason.
    pub unavailable_total: f64,
    /// Fraction down for unplanned (hardware + software) reasons.
    pub unavailable_unplanned: f64,
    /// Fraction down for unplanned hardware specifically.
    pub unavailable_hardware: f64,
    /// Fraction down due to correlated failures.
    pub unavailable_correlated: f64,
    /// Fraction down for planned maintenance.
    pub unavailable_planned: f64,
    /// Solver target moves executed this hour: (in-use, unused).
    pub moves: (usize, usize),
}

/// Append-only metric log.
#[derive(Debug, Clone, Default)]
pub struct MetricsLog {
    samples: Vec<HourSample>,
}

impl MetricsLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: HourSample) {
        self.samples.push(sample);
    }

    /// All samples.
    pub fn samples(&self) -> &[HourSample] {
        &self.samples
    }

    /// The latest sample, if any.
    pub fn latest(&self) -> Option<&HourSample> {
        self.samples.last()
    }

    /// Samples within `[from_hour, to_hour)`.
    pub fn window(&self, from_hour: u64, to_hour: u64) -> Vec<&HourSample> {
        self.samples
            .iter()
            .filter(|s| s.hour >= from_hour && s.hour < to_hour)
            .collect()
    }

    /// Mean of an extracted metric over all samples.
    pub fn mean_of(&self, f: impl Fn(&HourSample) -> f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(&f).sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stranded_on_counts_whole_blocked_slots() {
        let grain = (4.0, 8.0);
        // Balanced residual: 2 slots each way, nothing stranded.
        assert_eq!(stranded_on(8.0, 16.0, grain), (0.0, 0.0));
        // Cores free for 4 slots, memory for 1: 3 core-slots stranded.
        assert_eq!(stranded_on(16.0, 8.0, grain), (12.0, 0.0));
        // Memory free for 3 slots, cores for 0: all 3 stranded.
        assert_eq!(stranded_on(2.0, 24.0, grain), (0.0, 24.0));
        // Sub-slot residue in both dimensions is fragmentation, not
        // stranding.
        assert_eq!(stranded_on(3.0, 7.0, grain), (0.0, 0.0));
        // Degenerate grain never divides by zero.
        assert_eq!(stranded_on(8.0, 8.0, (0.0, 8.0)), (0.0, 0.0));
    }

    #[test]
    fn stranded_best_takes_the_most_consuming_shape_per_dimension() {
        let shapes = [(8.0, 4.0), (2.0, 24.0)];
        // A memory-rich residual is consumable by the memory-heavy shape
        // (2 cores / 24 GiB): nothing is stranded even though the
        // cores-heavy shape would leave most of the memory behind.
        assert_eq!(stranded_best(44.0, 464.0, &shapes), (0.0, 0.0));
        // With cores exhausted below every shape's demand, all free
        // memory is stranded under the best (memory-heavy) shape.
        let (sc, sm) = stranded_best(1.0, 60.0, &shapes);
        assert_eq!(sc, 0.0);
        assert!((sm - 48.0).abs() < 1e-12, "2 whole 24-GiB slots: {sm}");
        // No shapes: nothing can be stranded.
        assert_eq!(stranded_best(10.0, 10.0, &[]), (0.0, 0.0));
    }

    #[test]
    fn stranded_account_aggregates_hosts() {
        let grain = &[(4.0, 8.0)][..];
        let acct = stranded_account([(16.0, 8.0), (8.0, 16.0), (0.0, 32.0)], grain);
        assert_eq!(acct.hosts, 3);
        assert_eq!(acct.stranded_hosts, 2);
        assert!((acct.stranded_cores - 12.0).abs() < 1e-12);
        assert!((acct.stranded_memory_gib - 32.0).abs() < 1e-12);
        assert!((acct.core_fraction() - 12.0 / 24.0).abs() < 1e-12);
        assert!((acct.memory_fraction() - 32.0 / 56.0).abs() < 1e-12);
        assert!(acct.fraction() > 0.0 && acct.fraction() < 1.0);
        assert!((acct.host_fraction() - 2.0 / 3.0).abs() < 1e-12);
        let mut merged = StrandedAccount::default();
        merged.merge(&acct);
        merged.merge(&StrandedAccount::default());
        assert_eq!(merged, acct);
    }

    #[test]
    fn window_and_mean() {
        let mut log = MetricsLog::new();
        for hour in 0..10 {
            log.push(HourSample {
                hour,
                unavailable_total: hour as f64 / 10.0,
                ..HourSample::default()
            });
        }
        assert_eq!(log.window(2, 5).len(), 3);
        assert!((log.mean_of(|s| s.unavailable_total) - 0.45).abs() < 1e-12);
        assert_eq!(log.latest().unwrap().hour, 9);
    }
}
