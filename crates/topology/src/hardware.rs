//! Heterogeneous hardware model (paper Section 2.2).
//!
//! Hardware is broken down into `<Ci-Si>` tuples where `C` is a hardware
//! *category* (compute, storage, memory-optimized, GPU, ...) and `S` is a
//! *subtype* within the category. The paper's production region exposes
//! nine categories and twelve subtypes (Figure 2); the default
//! [`HardwareCatalog`] mirrors that breakdown.

use crate::ids::HardwareTypeId;

/// Processor generation of a server type (paper Figure 3 uses three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessorGeneration {
    /// Oldest generation still in the fleet.
    Gen1,
    /// Mid-life generation.
    Gen2,
    /// Newest generation, only present in recently turned-up MSBs.
    Gen3,
}

impl ProcessorGeneration {
    /// All generations, oldest first.
    pub const ALL: [ProcessorGeneration; 3] = [
        ProcessorGeneration::Gen1,
        ProcessorGeneration::Gen2,
        ProcessorGeneration::Gen3,
    ];

    /// Zero-based ordinal (0 = oldest).
    pub fn ordinal(self) -> usize {
        match self {
            ProcessorGeneration::Gen1 => 0,
            ProcessorGeneration::Gen2 => 1,
            ProcessorGeneration::Gen3 => 2,
        }
    }
}

/// Broad hardware category (`C` in the paper's `<Ci-Si>` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardwareCategory {
    /// General-purpose compute.
    Compute,
    /// High-memory configuration.
    HighMemory,
    /// Flash-storage-heavy configuration.
    Flash,
    /// Spinning-disk storage configuration.
    Storage,
    /// GPU training/inference accelerator host.
    Gpu,
    /// Video/AI ASIC accelerator host.
    Asic,
    /// Web-tier optimized compute.
    WebCompute,
    /// Cache-tier configuration.
    Cache,
    /// Database-tier configuration.
    Database,
}

impl HardwareCategory {
    /// All nine categories used by the default catalog.
    pub const ALL: [HardwareCategory; 9] = [
        HardwareCategory::Compute,
        HardwareCategory::HighMemory,
        HardwareCategory::Flash,
        HardwareCategory::Storage,
        HardwareCategory::Gpu,
        HardwareCategory::Asic,
        HardwareCategory::WebCompute,
        HardwareCategory::Cache,
        HardwareCategory::Database,
    ];
}

/// A concrete server configuration: category + subtype + key resources.
///
/// Subtypes exist "only if there is a notable performance difference"
/// (Section 2.2), which we model through the processor generation and the
/// resource sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareType {
    /// Dense identifier within the owning catalog.
    pub id: HardwareTypeId,
    /// Human-readable name, e.g. `"C7-S2"`.
    pub name: String,
    /// Broad category.
    pub category: HardwareCategory,
    /// Subtype ordinal within the category (1-based, matching `<Ci-Si>`).
    pub subtype: u8,
    /// Processor generation installed on this configuration.
    pub generation: ProcessorGeneration,
    /// Logical CPU cores.
    pub cores: u32,
    /// Main memory in GiB.
    pub memory_gib: u32,
    /// Flash capacity in GiB (0 when the configuration has no local flash).
    pub flash_gib: u32,
    /// Number of accelerators (GPUs or ASICs).
    pub accelerators: u8,
    /// Nominal busy power draw in watts, used by the power-spread model.
    pub power_watts: f64,
}

impl HardwareType {
    /// Returns true if this configuration carries any accelerator.
    pub fn has_accelerator(&self) -> bool {
        self.accelerators > 0
    }
}

/// Immutable registry of every hardware type deployed in a region.
#[derive(Debug, Clone, Default)]
pub struct HardwareCatalog {
    types: Vec<HardwareType>,
}

impl HardwareCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the default 12-subtype catalog mirroring Figure 2.
    ///
    /// Nine categories, twelve subtypes total; compute-like categories get
    /// one subtype per processor generation, while specialized categories
    /// (GPU, ASIC, storage) have a single subtype.
    pub fn standard() -> Self {
        let mut catalog = Self::new();
        // Compute: three generations (C7-S1..S3 in Figure 2's notation).
        for (i, generation) in ProcessorGeneration::ALL.iter().enumerate() {
            catalog.register(
                format!("C7-S{}", i + 1),
                HardwareCategory::Compute,
                (i + 1) as u8,
                *generation,
                36 + 18 * i as u32,
                64,
                512,
                0,
                320.0 + 40.0 * i as f64,
            );
        }
        // Web compute: two newer generations (C4-S1, C4-S2).
        for (i, generation) in [ProcessorGeneration::Gen2, ProcessorGeneration::Gen3]
            .iter()
            .enumerate()
        {
            catalog.register(
                format!("C4-S{}", i + 1),
                HardwareCategory::WebCompute,
                (i + 1) as u8,
                *generation,
                64 + 32 * i as u32,
                64,
                256,
                0,
                380.0 + 50.0 * i as f64,
            );
        }
        // High memory: one subtype (C2-S1).
        catalog.register(
            "C2-S1".to_string(),
            HardwareCategory::HighMemory,
            1,
            ProcessorGeneration::Gen2,
            48,
            512,
            512,
            0,
            430.0,
        );
        // Flash (C6-S1), Storage (C1), Cache (C3), Database (C8), GPU (C5),
        // ASIC (C9-S1).
        catalog.register(
            "C6-S1".to_string(),
            HardwareCategory::Flash,
            1,
            ProcessorGeneration::Gen2,
            32,
            128,
            8192,
            0,
            450.0,
        );
        catalog.register(
            "C1".to_string(),
            HardwareCategory::Storage,
            1,
            ProcessorGeneration::Gen1,
            24,
            64,
            0,
            0,
            500.0,
        );
        catalog.register(
            "C3".to_string(),
            HardwareCategory::Cache,
            1,
            ProcessorGeneration::Gen2,
            48,
            384,
            1024,
            0,
            420.0,
        );
        catalog.register(
            "C8".to_string(),
            HardwareCategory::Database,
            1,
            ProcessorGeneration::Gen2,
            56,
            512,
            4096,
            0,
            520.0,
        );
        catalog.register(
            "C5".to_string(),
            HardwareCategory::Gpu,
            1,
            ProcessorGeneration::Gen3,
            96,
            1024,
            2048,
            8,
            2200.0,
        );
        catalog.register(
            "C9-S1".to_string(),
            HardwareCategory::Asic,
            1,
            ProcessorGeneration::Gen3,
            64,
            256,
            1024,
            4,
            1400.0,
        );
        catalog
    }

    /// Registers a new hardware type, returning its identifier.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        name: String,
        category: HardwareCategory,
        subtype: u8,
        generation: ProcessorGeneration,
        cores: u32,
        memory_gib: u32,
        flash_gib: u32,
        accelerators: u8,
        power_watts: f64,
    ) -> HardwareTypeId {
        let id = HardwareTypeId::from_index(self.types.len());
        self.types.push(HardwareType {
            id,
            name,
            category,
            subtype,
            generation,
            cores,
            memory_gib,
            flash_gib,
            accelerators,
            power_watts,
        });
        id
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns true when no type has been registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Looks up a type by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this catalog.
    pub fn get(&self, id: HardwareTypeId) -> &HardwareType {
        &self.types[id.index()]
    }

    /// Looks up a type by its `<Ci-Si>` name.
    pub fn by_name(&self, name: &str) -> Option<&HardwareType> {
        self.types.iter().find(|t| t.name == name)
    }

    /// Iterates over all registered types in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = &HardwareType> {
        self.types.iter()
    }

    /// Returns the identifiers of all types of a given processor generation.
    pub fn of_generation(&self, generation: ProcessorGeneration) -> Vec<HardwareTypeId> {
        self.types
            .iter()
            .filter(|t| t.generation == generation)
            .map(|t| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_matches_figure_2_breakdown() {
        let catalog = HardwareCatalog::standard();
        // Nine categories and twelve subtypes total (Section 2.2).
        assert_eq!(catalog.len(), 12);
        let categories: std::collections::HashSet<_> = catalog.iter().map(|t| t.category).collect();
        assert_eq!(categories.len(), 9);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let catalog = HardwareCatalog::standard();
        let names: std::collections::HashSet<_> = catalog.iter().map(|t| t.name.clone()).collect();
        assert_eq!(names.len(), catalog.len());
        for t in catalog.iter() {
            assert_eq!(catalog.by_name(&t.name).unwrap().id, t.id);
        }
    }

    #[test]
    fn newest_generation_includes_gpu_host() {
        let catalog = HardwareCatalog::standard();
        let gen3 = catalog.of_generation(ProcessorGeneration::Gen3);
        assert!(gen3
            .iter()
            .any(|id| catalog.get(*id).category == HardwareCategory::Gpu));
    }

    #[test]
    fn generation_ordinals_are_ordered() {
        assert!(
            ProcessorGeneration::Gen1.ordinal() < ProcessorGeneration::Gen3.ordinal(),
            "ordinals must follow age"
        );
    }

    #[test]
    fn accelerator_detection() {
        let catalog = HardwareCatalog::standard();
        assert!(catalog.by_name("C5").unwrap().has_accelerator());
        assert!(!catalog.by_name("C1").unwrap().has_accelerator());
    }
}
