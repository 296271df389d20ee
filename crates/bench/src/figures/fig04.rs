//! Figure 4: requested capacity vs. number of fulfilling hardware types.
//!
//! The paper's joint distribution: sizes 1 → 30 000 units (bulk between
//! a few hundred and a few thousand), fungibility bimodal with modes at
//! 1 type and ~8 types and a thin tail at 10–12.

use ras_broker::SimTime;
use ras_topology::HardwareCatalog;
use ras_workloads::{RequestGenerator, RequestGeneratorConfig};

use crate::{fmt, Experiment, Shape};

/// Regenerates Figure 4.
pub fn run(_: Shape) -> Vec<Experiment> {
    let catalog = HardwareCatalog::standard();
    let mut gen = RequestGenerator::new(RequestGeneratorConfig::default());
    let n = 4000;
    let samples: Vec<_> = (0..n)
        .map(|_| gen.sample(&catalog, SimTime::ZERO))
        .collect();

    // Histogram: fungibility × size decade.
    let mut grid = std::collections::BTreeMap::new();
    for s in &samples {
        let decade = ras_milp::cast::floor_i32(s.units.log10()).clamp(0, 4);
        *grid.entry((s.fungibility(), decade)).or_insert(0usize) += 1;
    }
    let mut exp = Experiment::new(
        "fig04",
        "Requested capacity vs fulfilling hardware types",
        "sizes 1–30k units; fungibility modes at 1 and ~8 types, tail at 10–12",
        &[
            "hardware types",
            "1-9u",
            "10-99u",
            "100-999u",
            "1k-9.9k u",
            ">=10k u",
        ],
    );
    let mut fungibilities: Vec<usize> = grid.keys().map(|(f, _)| *f).collect();
    fungibilities.sort_unstable();
    fungibilities.dedup();
    for f in fungibilities {
        let cells: Vec<String> = (0..5)
            .map(|d| grid.get(&(f, d)).copied().unwrap_or(0).to_string())
            .collect();
        let mut row = vec![f.to_string()];
        row.extend(cells);
        exp.row(&row);
    }
    let max = samples.iter().map(|s| s.units).fold(0.0, f64::max);
    let min = samples
        .iter()
        .map(|s| s.units)
        .fold(f64::INFINITY, f64::min);
    exp.note(format!("size range observed: {min} – {max} units"));
    let ones = samples.iter().filter(|s| s.fungibility() == 1).count();
    exp.note(format!(
        "{} of {} requests ({:.0}%) accept exactly one hardware type",
        ones,
        n,
        ones as f64 / n as f64 * 100.0
    ));
    exp.note(
        fmt(samples.iter().map(|s| s.units).sum::<f64>() / n as f64, 0) + " units mean request",
    );
    vec![exp]
}
