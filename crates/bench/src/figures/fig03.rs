//! Figure 3: relative value gained per processor generation.
//!
//! Web gains 1.47× / 1.82× on generations II / III; DataStore gains
//! nothing; Feed services gain on some upgrades. The profiles drive the
//! RRU tables every other experiment uses.

use ras_workloads::StandardServices;

use crate::{fmt, Experiment, Shape};

/// Regenerates Figure 3.
pub fn run(_: Shape) -> Vec<Experiment> {
    let mut exp = Experiment::new(
        "fig03",
        "Relative value per processor generation",
        "Web: 1.0/1.47/1.82; DataStore flat; Feed partial; fleet average rises",
        &["service", "gen I", "gen II", "gen III"],
    );
    for p in StandardServices::all() {
        exp.row(&[
            p.name.clone(),
            fmt(p.relative_value[0], 2),
            fmt(p.relative_value[1], 2),
            fmt(p.relative_value[2], 2),
        ]);
    }
    exp.note("ml-training is 0/0/1: it can only use the newest accelerators");
    vec![exp]
}
