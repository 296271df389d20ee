//! Deterministic synthetic region generator.
//!
//! Reproduces the fleet realities of paper Section 2:
//!
//! * every MSB has a distinct hardware mixture (Figure 2);
//! * older MSBs host older processor generations, the newest MSBs host
//!   hardware that exists nowhere else (Section 4.3: services needing the
//!   newest hardware are forced into the latest MSBs, services pinned to
//!   discontinued hardware avoid them);
//! * rack/row/MSB/datacenter tree matches Figure 1.
//!
//! Generation is seeded and fully deterministic so every experiment is
//! reproducible byte-for-byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hardware::{HardwareCatalog, ProcessorGeneration};
use crate::ids::HardwareTypeId;
use crate::region::Region;

/// Size parameters for a synthetic region.
#[derive(Debug, Clone)]
pub struct RegionTemplate {
    /// Number of datacenters (the paper's example uses 5).
    pub datacenters: usize,
    /// MSBs per datacenter.
    pub msbs_per_datacenter: usize,
    /// Power rows per MSB.
    pub power_rows_per_msb: usize,
    /// Racks per power row.
    pub racks_per_power_row: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
}

impl RegionTemplate {
    /// A small region suitable for unit tests (~360 servers).
    pub fn tiny() -> Self {
        Self {
            datacenters: 2,
            msbs_per_datacenter: 3,
            power_rows_per_msb: 2,
            racks_per_power_row: 3,
            servers_per_rack: 10,
        }
    }

    /// A medium region for integration tests and examples (~7.2k servers).
    pub fn medium() -> Self {
        Self {
            datacenters: 3,
            msbs_per_datacenter: 6,
            power_rows_per_msb: 4,
            racks_per_power_row: 10,
            servers_per_rack: 10,
        }
    }

    /// A large region for scalability benches (~90k servers), shaped like
    /// the paper's production example (multiple DCs, 36 MSBs).
    pub fn large() -> Self {
        Self {
            datacenters: 4,
            msbs_per_datacenter: 9,
            power_rows_per_msb: 10,
            racks_per_power_row: 25,
            servers_per_rack: 10,
        }
    }

    /// Total MSB count.
    pub fn msb_count(&self) -> usize {
        self.datacenters * self.msbs_per_datacenter
    }

    /// Total server count.
    pub fn server_count(&self) -> usize {
        self.datacenters
            * self.msbs_per_datacenter
            * self.power_rows_per_msb
            * self.racks_per_power_row
            * self.servers_per_rack
    }
}

/// Seeded builder producing a [`Region`] from a [`RegionTemplate`].
#[derive(Debug, Clone)]
pub struct RegionBuilder {
    template: RegionTemplate,
    seed: u64,
    catalog: HardwareCatalog,
}

impl RegionBuilder {
    /// Creates a builder with the standard hardware catalog.
    pub fn new(template: RegionTemplate, seed: u64) -> Self {
        Self {
            template,
            seed,
            catalog: HardwareCatalog::standard(),
        }
    }

    /// Builds the region.
    ///
    /// MSBs are assigned a global turn-up order by interleaving across
    /// datacenters (dc0/msb0 is the oldest). Each MSB's hardware mixture is
    /// sampled from per-type weights that shift from old hardware on old
    /// MSBs to new hardware on new MSBs; a small random jitter makes every
    /// MSB mixture distinct, as in Figure 2.
    pub fn build(&self) -> Region {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut region = Region::new("synthetic", self.catalog.clone());
        let total_msbs = self.template.msb_count();

        let mut turnup = 0u32;
        let mut dc_ids = Vec::new();
        for d in 0..self.template.datacenters {
            dc_ids.push(region.add_datacenter(format!("dc{d}")));
        }
        // Interleave turn-up: round-robin across datacenters so each DC has
        // a spread of MSB ages.
        for round in 0..self.template.msbs_per_datacenter {
            for dc in &dc_ids {
                let msb = region.add_msb(*dc, turnup);
                turnup += 1;
                let age_fraction = if total_msbs <= 1 {
                    1.0
                } else {
                    region.msb(msb).turnup_order as f64 / (total_msbs - 1) as f64
                };
                let weights = self.mixture_weights(age_fraction, &mut rng);
                for _ in 0..self.template.power_rows_per_msb {
                    let row = region.add_power_row(msb);
                    for _ in 0..self.template.racks_per_power_row {
                        let rack = region.add_rack(row);
                        // Racks are homogeneous in practice: pick one type
                        // per rack, which also creates the solver's server
                        // symmetry (Section 3.5.2).
                        let hw = sample_weighted(&weights, &mut rng);
                        for _ in 0..self.template.servers_per_rack {
                            region.add_server(rack, hw);
                        }
                    }
                }
                let _ = round;
            }
        }
        region
    }

    /// Per-hardware-type sampling weights for an MSB of the given age.
    ///
    /// `age_fraction` is 0.0 for the oldest MSB and 1.0 for the newest.
    fn mixture_weights(&self, age_fraction: f64, rng: &mut StdRng) -> Vec<(HardwareTypeId, f64)> {
        self.catalog
            .iter()
            .map(|t| {
                // Target age at which this generation was the default buy.
                let center = match t.generation {
                    ProcessorGeneration::Gen1 => 0.05,
                    ProcessorGeneration::Gen2 => 0.5,
                    ProcessorGeneration::Gen3 => 0.95,
                };
                let distance = (age_fraction - center).abs();
                // Sharp falloff: a generation is mostly bought during its
                // own window. Newest accelerators (gen3 + accelerator) only
                // exist in the newest quarter of MSBs.
                let mut weight = (-6.0 * distance * distance * 8.0).exp();
                if t.has_accelerator() && age_fraction < 0.75 {
                    weight = 0.0;
                }
                if t.generation == ProcessorGeneration::Gen3 && age_fraction < 0.55 {
                    weight = 0.0;
                }
                if t.generation == ProcessorGeneration::Gen1 && age_fraction > 0.6 {
                    // Discontinued hardware is absent from new MSBs.
                    weight = 0.0;
                }
                // Jitter so every MSB mixture is distinct.
                weight *= 0.6 + 0.8 * rng.gen::<f64>();
                (t.id, weight)
            })
            .collect()
    }
}

/// Samples one hardware type from non-negative weights.
///
/// Falls back to the last type when all weights are zero (cannot happen
/// with the standard catalog, which always has a type near every age).
fn sample_weighted(weights: &[(HardwareTypeId, f64)], rng: &mut StdRng) -> HardwareTypeId {
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return weights.last().expect("catalog not empty").0;
    }
    let mut pick = rng.gen::<f64>() * total;
    for (id, w) in weights {
        pick -= w;
        if pick <= 0.0 {
            return *id;
        }
    }
    weights.last().expect("catalog not empty").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::ProcessorGeneration;

    #[test]
    fn generation_is_deterministic() {
        let a = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
        let b = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
        assert_eq!(a.server_count(), b.server_count());
        for (sa, sb) in a.servers().iter().zip(b.servers()) {
            assert_eq!(sa.hardware, sb.hardware);
            assert_eq!(sa.rack, sb.rack);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RegionBuilder::new(RegionTemplate::tiny(), 1).build();
        let b = RegionBuilder::new(RegionTemplate::tiny(), 2).build();
        let differs = a
            .servers()
            .iter()
            .zip(b.servers())
            .any(|(sa, sb)| sa.hardware != sb.hardware);
        assert!(differs, "seed must influence hardware mixture");
    }

    #[test]
    fn template_counts_match_built_region() {
        let template = RegionTemplate::tiny();
        let region = RegionBuilder::new(template.clone(), 3).build();
        assert_eq!(region.server_count(), template.server_count());
        assert_eq!(region.msbs().len(), template.msb_count());
        assert_eq!(region.datacenters().len(), template.datacenters);
    }

    #[test]
    fn newest_hardware_only_in_newest_msbs() {
        let region = RegionBuilder::new(RegionTemplate::medium(), 11).build();
        let total_msbs = region.msbs().len();
        for server in region.servers() {
            let hw = region.catalog.get(server.hardware);
            if hw.generation == ProcessorGeneration::Gen3 {
                let order = region.msb(server.msb).turnup_order as f64;
                let age = order / (total_msbs - 1) as f64;
                assert!(age >= 0.55, "gen3 hardware found in old MSB (age {age})");
            }
        }
    }

    #[test]
    fn old_hardware_absent_from_newest_msbs() {
        let region = RegionBuilder::new(RegionTemplate::medium(), 11).build();
        let total_msbs = region.msbs().len();
        for server in region.servers() {
            let hw = region.catalog.get(server.hardware);
            if hw.generation == ProcessorGeneration::Gen1 {
                let age = region.msb(server.msb).turnup_order as f64 / (total_msbs - 1) as f64;
                assert!(age <= 0.6, "discontinued hardware in new MSB (age {age})");
            }
        }
    }

    #[test]
    fn msb_mixtures_are_distinct() {
        let region = RegionBuilder::new(RegionTemplate::medium(), 5).build();
        let mix = region.hardware_mix_by_msb();
        let distinct: std::collections::HashSet<_> = mix.iter().collect();
        assert!(
            distinct.len() > region.msbs().len() / 2,
            "expected most MSB mixtures to be distinct"
        );
    }

    #[test]
    fn racks_are_homogeneous() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 9).build();
        for rack in region.racks() {
            let mut kinds = rack.servers.iter().map(|s| region.server(*s).hardware);
            let first = kinds.next().unwrap();
            assert!(kinds.all(|k| k == first));
        }
    }

    #[test]
    fn turnup_orders_are_unique_and_interleaved() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 9).build();
        let mut orders: Vec<_> = region.msbs().iter().map(|m| m.turnup_order).collect();
        orders.sort_unstable();
        let expected: Vec<_> = (0..region.msbs().len() as u32).collect();
        assert_eq!(orders, expected);
        // Interleaving: the two oldest MSBs live in different datacenters.
        let oldest: Vec<_> = region
            .msbs()
            .iter()
            .filter(|m| m.turnup_order < 2)
            .map(|m| m.datacenter)
            .collect();
        assert_ne!(oldest[0], oldest[1]);
    }
}
