//! Figure 2: hardware mixture across MSBs.
//!
//! The paper shows 9 hardware categories / 12 subtypes with strongly
//! varying mixtures across 14 representative MSBs plus the region
//! average. This figure prints the per-MSB capacity share of every
//! hardware type in the synthetic region and checks the qualitative
//! properties the generator must reproduce.

use ras_topology::{RegionBuilder, RegionTemplate};

use crate::{fmt, Experiment, Shape};

/// Regenerates Figure 2.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 2021).build();
    let mix = region.hardware_mix_by_msb();
    let types = region.catalog.len();
    let mut exp = Experiment::new(
        "fig02",
        "Hardware mixture across MSBs",
        "9 hardware categories, 12 subtypes; mixture varies strongly across MSBs",
        &["msb", "top type", "share%", "distinct types"],
    );
    for (mi, row) in mix.iter().enumerate() {
        let total: usize = row.iter().sum();
        let (best, cnt) = row
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, c)| (i, *c))
            .unwrap();
        let distinct = row.iter().filter(|c| **c > 0).count();
        exp.row(&[
            format!("{mi}"),
            region
                .catalog
                .get(ras_topology::HardwareTypeId::from_index(best))
                .name
                .clone(),
            fmt(cnt as f64 / total as f64 * 100.0, 1),
            distinct.to_string(),
        ]);
    }
    let categories: std::collections::HashSet<_> =
        region.catalog.iter().map(|t| t.category).collect();
    exp.note(format!(
        "catalog: {} categories, {} subtypes (paper: 9 / 12)",
        categories.len(),
        types
    ));
    let distinct_mixes: std::collections::HashSet<&Vec<usize>> = mix.iter().collect();
    exp.note(format!(
        "{} of {} MSBs have distinct mixtures",
        distinct_mixes.len(),
        mix.len()
    ));
    vec![exp]
}
