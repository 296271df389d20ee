//! Regenerates the paper's figures, tables and ablations:
//!
//! ```text
//! cargo run --release -p ras-bench --bin figures -- [--smoke] <id>…|all
//! ```
//!
//! Prints every experiment and writes its JSON to `target/experiments/`;
//! exits non-zero when an id is unknown or any figure failed a gate.

use ras_bench::figures::{drive, FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = drive(FIGURES, &args, &mut |exp| exp.finish()) {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}
