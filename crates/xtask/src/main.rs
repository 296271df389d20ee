//! `cargo xtask` — repo automation.
//!
//! The only subcommand today is `lint`: a custom static-analysis pass
//! over the workspace's authored sources enforcing solver-specific
//! rules that clippy has no knowledge of — panicking fallible paths and
//! bare hot-loop indexing in the solver stack, NaN-unsound comparisons
//! and min/max, inline tolerance literals that can drift apart,
//! unchecked narrowing casts, and side effects inside `debug_assert!`.
//! Any finding not suppressed by a `lint:allow` fails the run (and CI)
//! and is printed to stderr with its span and a suggested rewrite.
//!
//! Usage:
//!
//! ```text
//! cargo xtask lint                 # fail on any unsuppressed finding
//! cargo xtask lint --format json   # the same gate, plus a machine-readable report on stdout
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::lints::{self, LINT_NAMES};
use xtask::report::{self, Finding};
use xtask::walk;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut format = Format::Text;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => match it.next().map(String::as_str) {
                        Some("json") => format = Format::Json,
                        Some("text") => format = Format::Text,
                        other => {
                            eprintln!(
                                "xtask lint: --format expects `json` or `text`, got {other:?}"
                            );
                            return usage();
                        }
                    },
                    bad => {
                        eprintln!("xtask lint: unknown flag `{bad}`");
                        return usage();
                    }
                }
            }
            run_lint(format)
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--format <text|json>]");
    ExitCode::FAILURE
}

fn run_lint(format: Format) -> ExitCode {
    let root = repo_root();
    let files = walk::workspace_files(&root);
    if files.is_empty() {
        eprintln!(
            "xtask lint: no workspace sources found under {}",
            root.display()
        );
        return ExitCode::FAILURE;
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    for file in &files {
        let Ok(raw) = std::fs::read_to_string(file) else {
            eprintln!("xtask lint: cannot read {}", file.display());
            return ExitCode::FAILURE;
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string()
            .replace('\\', "/");
        let (fs, ws) = lints::scan_file(&rel, &raw);
        findings.extend(fs);
        warnings.extend(ws);
    }

    let mut counts: BTreeMap<&'static str, usize> =
        LINT_NAMES.iter().map(|&name| (name, 0)).collect();
    for f in &findings {
        *counts.entry(f.lint).or_insert(0) += 1;
    }

    for w in &warnings {
        eprintln!("xtask lint: warning: {w}");
    }

    let failed = !findings.is_empty();
    let human = format == Format::Text;
    if human {
        println!("xtask lint: {} files scanned", files.len());
    }
    for (&name, &now) in &counts {
        if now > 0 {
            eprintln!("  {name}: {now} findings");
            for f in findings.iter().filter(|f| f.lint == name) {
                eprint!("    {}", report::render_text(f));
            }
        } else if human {
            println!("  {name}: 0 findings");
        }
    }

    if format == Format::Json {
        print!(
            "{}",
            report::render_json(files.len(), &findings, &counts, !failed)
        );
    }

    if failed {
        eprintln!(
            "xtask lint: FAILED — fix the findings or, for a reviewed-and-sound site, \
             suppress it with `// lint:allow(<lint>): <justification>`"
        );
        return ExitCode::FAILURE;
    }
    if human {
        println!("xtask lint: ok");
    }
    ExitCode::SUCCESS
}

/// Workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
