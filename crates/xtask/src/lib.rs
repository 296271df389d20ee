//! Static-analysis engine behind `cargo xtask lint`.
//!
//! Pipeline: [`lexer`] masks comments, literal contents and
//! `#[cfg(test)]` modules out of the raw source; [`parser`] turns the
//! masked text into a token forest with spans and classified scopes;
//! [`passes`] runs the syntax-aware lints over that forest while
//! [`lints`] also runs the original masked-substring lints and resolves
//! `lint:allow` suppression; [`report`] renders text and JSON
//! diagnostics; [`walk`] decides which files are in scope. The binary
//! in `main.rs` fails on any unsuppressed finding.
//!
//! Deliberately zero dependencies — see `Cargo.toml`.

pub mod lexer;
pub mod lints;
pub mod parser;
pub mod passes;
pub mod report;
pub mod walk;
