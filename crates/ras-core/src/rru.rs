//! Relative resource units (RRUs), paper Section 3.1.
//!
//! An RRU table maps every hardware type to the throughput one server of
//! that type delivers *for a particular workload*. Capacity requests are
//! expressed as a total RRU amount; RAS may fulfill them with any mixture
//! of eligible hardware whose RRU values sum to the request. A value of
//! zero marks a hardware type ineligible for the workload.

use ras_milp::nan;
use ras_topology::{HardwareCatalog, HardwareTypeId, ProcessorGeneration};

/// Per-hardware-type RRU values for one workload (the paper's `Vs,r`).
#[derive(Debug, Clone, PartialEq)]
pub struct RruTable {
    values: Vec<f64>,
}

impl RruTable {
    /// A table where every type of the catalog is worth `value` RRUs.
    ///
    /// This is the paper's "simple count-based approach" for smaller
    /// services when `value == 1`.
    pub fn uniform(catalog: &HardwareCatalog, value: f64) -> Self {
        Self {
            values: vec![value; catalog.len()],
        }
    }

    /// A table with every type ineligible; fill in with [`RruTable::set`].
    pub fn empty(catalog: &HardwareCatalog) -> Self {
        Self {
            values: vec![0.0; catalog.len()],
        }
    }

    /// Builds a table from per-processor-generation relative values
    /// (Figure 3), restricted to the given eligible categories.
    ///
    /// `per_generation[g]` is the workload's relative value on generation
    /// `g`; a hardware type is eligible when its category passes `eligible`
    /// and its generation has a positive relative value.
    pub fn from_relative_values(
        catalog: &HardwareCatalog,
        per_generation: [f64; 3],
        eligible: impl Fn(&ras_topology::HardwareType) -> bool,
    ) -> Self {
        let mut t = Self::empty(catalog);
        for hw in catalog.iter() {
            if eligible(hw) {
                let v = per_generation[hw.generation.ordinal()];
                if v > 0.0 {
                    t.values[hw.id.index()] = v;
                }
            }
        }
        t
    }

    /// Sets the RRU value of one hardware type.
    pub fn set(&mut self, hw: HardwareTypeId, value: f64) -> &mut Self {
        self.values[hw.index()] = value;
        self
    }

    /// RRU value of one hardware type (0 when ineligible).
    pub fn value(&self, hw: HardwareTypeId) -> f64 {
        self.values[hw.index()]
    }

    /// True when the hardware type can serve this workload.
    pub fn eligible(&self, hw: HardwareTypeId) -> bool {
        self.values[hw.index()] > 0.0
    }

    /// Number of eligible hardware types (the x-axis of Figure 4).
    pub fn eligible_count(&self) -> usize {
        self.values.iter().filter(|v| **v > 0.0).count()
    }

    /// Iterates `(type, value)` for eligible types.
    pub fn iter_eligible(&self) -> impl Iterator<Item = (HardwareTypeId, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0.0)
            .map(|(i, v)| (HardwareTypeId::from_index(i), *v))
    }

    /// The highest RRU value across eligible types.
    pub fn max_value(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, nan::fmax)
    }
}

/// Relative values per processor generation for the paper's headline
/// services (Figure 3): each service normalized to generation I.
pub mod figure3 {
    /// DataStore sees no benefit from newer processors.
    pub const DATASTORE: [f64; 3] = [1.0, 1.0, 1.0];
    /// Feed1 gains on generation II but not III.
    pub const FEED1: [f64; 3] = [1.0, 1.35, 1.35];
    /// Feed2 gains on both upgrades.
    pub const FEED2: [f64; 3] = [1.0, 1.28, 1.52];
    /// Web gains 1.47× and 1.82× (quoted in Section 2.3).
    pub const WEB: [f64; 3] = [1.0, 1.47, 1.82];
    /// Fleet average across remaining services.
    pub const FLEET_AVG: [f64; 3] = [1.0, 1.25, 1.55];
}

/// Convenience: RRUs proportional to core count scaled by generation
/// relative value — a reasonable default for compute-bound services.
pub fn compute_bound(catalog: &HardwareCatalog, per_generation: [f64; 3]) -> RruTable {
    let mut t = RruTable::empty(catalog);
    for hw in catalog.iter() {
        let v = per_generation[hw.generation.ordinal()];
        if v > 0.0 {
            t.set(hw.id, v);
        }
    }
    t
}

/// Generations a table draws from (useful for tests and diagnostics).
pub fn generations_used(catalog: &HardwareCatalog, table: &RruTable) -> Vec<ProcessorGeneration> {
    let mut gens: Vec<ProcessorGeneration> = catalog
        .iter()
        .filter(|hw| table.eligible(hw.id))
        .map(|hw| hw.generation)
        .collect();
    gens.sort_unstable();
    gens.dedup();
    gens
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::HardwareCategory;

    #[test]
    fn uniform_table_counts_every_type() {
        let catalog = HardwareCatalog::standard();
        let t = RruTable::uniform(&catalog, 1.0);
        assert_eq!(t.eligible_count(), catalog.len());
        assert_eq!(t.max_value(), 1.0);
    }

    #[test]
    fn relative_values_follow_figure_3() {
        let catalog = HardwareCatalog::standard();
        let web = RruTable::from_relative_values(&catalog, figure3::WEB, |hw| {
            matches!(
                hw.category,
                HardwareCategory::Compute | HardwareCategory::WebCompute
            )
        });
        let gen3 = catalog.by_name("C7-S3").unwrap();
        let gen1 = catalog.by_name("C7-S1").unwrap();
        assert!((web.value(gen3.id) / web.value(gen1.id) - 1.82).abs() < 1e-9);
        // Storage hardware is ineligible for Web.
        let storage = catalog.by_name("C1").unwrap();
        assert!(!web.eligible(storage.id));
    }

    #[test]
    fn empty_then_set() {
        let catalog = HardwareCatalog::standard();
        let mut t = RruTable::empty(&catalog);
        assert_eq!(t.eligible_count(), 0);
        let gpu = catalog.by_name("C5").unwrap().id;
        t.set(gpu, 8.0);
        assert_eq!(t.eligible_count(), 1);
        assert_eq!(t.iter_eligible().next(), Some((gpu, 8.0)));
    }

    #[test]
    fn generations_used_reports_distinct() {
        let catalog = HardwareCatalog::standard();
        let t = compute_bound(&catalog, [1.0, 1.2, 0.0]);
        let gens = generations_used(&catalog, &t);
        assert_eq!(
            gens,
            vec![ProcessorGeneration::Gen1, ProcessorGeneration::Gen2]
        );
    }
}
