//! Service profiles: the paper's headline services plus a synthetic tail.
//!
//! Each profile carries the per-processor-generation relative value of
//! Figure 3 and an eligibility rule over hardware categories, and can be
//! materialized into a [`ReservationSpec`] at any requested capacity.

use ras_core::reservation::ReservationSpec;
use ras_core::rru::{figure3, RruTable};
use ras_topology::{HardwareCatalog, HardwareCategory};

/// A reusable service profile.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Service name.
    pub name: String,
    /// Relative value per processor generation, normalized to gen I.
    pub relative_value: [f64; 3],
    /// Hardware categories the service can run on.
    pub categories: Vec<HardwareCategory>,
}

impl ServiceProfile {
    /// Builds the RRU table of this profile against a catalog.
    pub fn rru(&self, catalog: &HardwareCatalog) -> RruTable {
        RruTable::from_relative_values(catalog, self.relative_value, |hw| {
            self.categories.contains(&hw.category)
        })
    }

    /// Materializes a guaranteed reservation of `capacity` RRUs.
    pub fn reservation(&self, catalog: &HardwareCatalog, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(self.name.clone(), capacity, self.rru(catalog))
    }
}

/// The paper's four named services plus the fleet-average profile.
#[derive(Debug, Clone)]
pub struct StandardServices;

impl StandardServices {
    /// DataStore: storage/database bound, indifferent to CPU generation.
    pub fn datastore() -> ServiceProfile {
        ServiceProfile {
            name: "datastore".into(),
            relative_value: figure3::DATASTORE,
            categories: vec![
                HardwareCategory::Storage,
                HardwareCategory::Database,
                HardwareCategory::Flash,
            ],
        }
    }

    /// Feed1: ranking service, gains on gen II then plateaus.
    pub fn feed1() -> ServiceProfile {
        ServiceProfile {
            name: "feed1".into(),
            relative_value: figure3::FEED1,
            categories: vec![HardwareCategory::Compute, HardwareCategory::HighMemory],
        }
    }

    /// Feed2: ranking service, gains on every generation.
    pub fn feed2() -> ServiceProfile {
        ServiceProfile {
            name: "feed2".into(),
            relative_value: figure3::FEED2,
            categories: vec![HardwareCategory::Compute, HardwareCategory::Cache],
        }
    }

    /// Web: the biggest winner from new hardware (1.47× / 1.82×).
    pub fn web() -> ServiceProfile {
        ServiceProfile {
            name: "web".into(),
            relative_value: figure3::WEB,
            categories: vec![HardwareCategory::WebCompute, HardwareCategory::Compute],
        }
    }

    /// Fleet average: everything else, runs anywhere without accelerators.
    pub fn fleet_avg() -> ServiceProfile {
        ServiceProfile {
            name: "fleet".into(),
            relative_value: figure3::FLEET_AVG,
            categories: vec![
                HardwareCategory::Compute,
                HardwareCategory::WebCompute,
                HardwareCategory::HighMemory,
                HardwareCategory::Cache,
                HardwareCategory::Database,
                HardwareCategory::Flash,
                HardwareCategory::Storage,
            ],
        }
    }

    /// ML training: newest accelerators only, single-datacenter affinity
    /// is applied by the caller (Section 4.3's 13th service).
    pub fn ml_training() -> ServiceProfile {
        ServiceProfile {
            name: "ml-training".into(),
            relative_value: [0.0, 0.0, 1.0],
            categories: vec![HardwareCategory::Gpu, HardwareCategory::Asic],
        }
    }

    /// All named profiles.
    pub fn all() -> Vec<ServiceProfile> {
        vec![
            Self::datastore(),
            Self::feed1(),
            Self::feed2(),
            Self::web(),
            Self::fleet_avg(),
            Self::ml_training(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_gains_match_figure_3() {
        let p = StandardServices::web();
        assert_eq!(p.relative_value, [1.0, 1.47, 1.82]);
    }

    #[test]
    fn datastore_is_generation_indifferent() {
        let p = StandardServices::datastore();
        assert_eq!(p.relative_value, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn profiles_materialize_into_specs() {
        let catalog = HardwareCatalog::standard();
        for p in StandardServices::all() {
            let spec = p.reservation(&catalog, 100.0);
            assert_eq!(spec.capacity, 100.0);
            assert!(
                spec.rru.eligible_count() > 0,
                "{} must match some hardware",
                p.name
            );
        }
    }

    #[test]
    fn ml_training_only_uses_accelerators() {
        let catalog = HardwareCatalog::standard();
        let rru = StandardServices::ml_training().rru(&catalog);
        for hw in catalog.iter() {
            if rru.eligible(hw.id) {
                assert!(hw.has_accelerator());
            }
        }
    }
}
