//! Static-analysis engine behind `cargo xtask lint`.
//!
//! Pipeline: [`walk`] decides which files are in scope; [`parser`]
//! tokenizes each file once — comments set aside, literals skipped —
//! and folds the tokens into a forest with spans and classified scopes,
//! `#[cfg(test)]` modules dropped; [`passes`] runs the eight lints over
//! that forest; [`lints`] applies `lint:allow` suppression from the
//! comments; [`report`] renders text and JSON diagnostics. The binary
//! in `main.rs` fails on any unsuppressed finding.
//!
//! Deliberately zero dependencies — see `Cargo.toml`.

pub mod lints;
pub mod parser;
pub mod passes;
pub mod report;
pub mod walk;
