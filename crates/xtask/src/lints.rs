//! Lint engine: reads one file once, runs every pass over its token
//! forest and applies suppression.
//!
//! [`crate::parser`] tokenizes the raw source (setting comments aside
//! and skipping literals) and drops test code from the forest;
//! [`crate::passes`] runs the eight lints over it; the comments'
//! `lint:allow` directives decide which findings survive — see
//! [`crate::report`] for the line/scope semantics and the
//! justification every allow needs.

use crate::parser;
use crate::passes;
use crate::report::{collect_allows, Finding, Suppressions};

/// Every lint name, in the order reports are printed.
pub const LINT_NAMES: [&str; 8] = [
    "partial-cmp-unwrap",
    "solver-unwrap",
    "float-as-int",
    "hot-path-index",
    "tolerance-literal",
    "as-cast-audit",
    "nan-min-max",
    "debug-assert-effect",
];

/// Scans one file and returns every unsuppressed finding, plus
/// warnings for `lint:allow` comments that are inert because they
/// carry no justification.
pub fn scan_file(repo_rel: &str, raw: &str) -> (Vec<Finding>, Vec<String>) {
    let (trees, comments) = parser::parse(raw);
    let (findings, allow_scopes) = passes::run(repo_rel, &trees);
    let allows = collect_allows(&comments);
    let suppressions = Suppressions::new(&allows, &allow_scopes);
    let warnings: Vec<String> = suppressions
        .unjustified(&LINT_NAMES)
        .iter()
        .map(|a| {
            format!(
                "{repo_rel}:{}: lint:allow({}) is ignored — every allow needs a reason: \
                 `// lint:allow({}): <one-line justification>`",
                a.line, a.name, a.name
            )
        })
        .collect();

    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !suppressions.is_suppressed(f.lint, f.line))
        .map(|mut f| {
            f.excerpt = raw_lines
                .get(f.line - 1)
                .map_or(String::new(), |l| l.trim().to_string());
            f
        })
        .collect();

    findings.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then(a.col.cmp(&b.col))
            .then(a.lint.cmp(b.lint))
    });
    (findings, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        scan_file(path, src)
            .0
            .into_iter()
            .map(|f| (f.lint, f.line))
            .collect()
    }

    #[test]
    fn partial_cmp_unwrap_fires_everywhere() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n";
        assert_eq!(
            lints_of("crates/sim/src/x.rs", src),
            vec![("partial-cmp-unwrap", 1)]
        );
        let fixed = "v.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(lints_of("crates/sim/src/x.rs", fixed).is_empty());
    }

    #[test]
    fn partial_cmp_without_unwrap_is_fine() {
        let src = "let o = a.partial_cmp(&b);\nmatch o { _ => {} }\n";
        assert!(lints_of("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn solver_unwrap_scoped_to_solver_crates() {
        let src = "let x = foo().unwrap();\nlet y = bar().expect(\"msg\");\n";
        assert_eq!(
            lints_of("crates/milp/src/x.rs", src),
            vec![("solver-unwrap", 1), ("solver-unwrap", 2)]
        );
        assert!(lints_of("crates/bench/src/x.rs", src).is_empty());
        // Integration tests under crates/*/tests may unwrap freely.
        assert!(lints_of("crates/milp/tests/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire_solver_unwrap() {
        let src = "let x = foo().unwrap_or(0);\nlet y = foo().unwrap_or_default();\n";
        assert!(lints_of("crates/milp/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_as_int_needs_an_int_target() {
        let src = "let n = (x * f).round() as usize;\nlet g = y.floor() as f64;\n";
        assert_eq!(
            lints_of("crates/sim/src/x.rs", src),
            vec![("float-as-int", 1)]
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "// lint:allow(solver-unwrap): checked above\nlet x = foo().unwrap();\nlet y = bar().unwrap(); // lint:allow(solver-unwrap): checked above\nlet z = baz().unwrap();\n";
        assert_eq!(
            lints_of("crates/milp/src/x.rs", src),
            vec![("solver-unwrap", 4)]
        );
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { foo().unwrap(); }\n}\n";
        assert!(lints_of("crates/milp/src/x.rs", src).is_empty());
    }

    #[test]
    fn scoped_allow_with_justification_covers_a_fn() {
        let src = "\
// lint:allow(hot-path-index): loop index bounded by the basis permutation invariant
fn hot(v: &[f64], p: &[usize]) {
    for i in 0..p.len() {
        consume(v[p[i]]);
    }
}
fn cold(v: &[f64]) {
    for i in 0..v.len() {
        consume(v[i]);
    }
}
";
        assert_eq!(
            lints_of("crates/milp/src/lu.rs", src),
            vec![("hot-path-index", 9)]
        );
    }

    #[test]
    fn unjustified_syntax_allow_is_inert_and_warned() {
        let src = "\
// lint:allow(hot-path-index)
fn hot(v: &[f64]) {
    loop {
        consume(v[0]);
    }
}
";
        let (findings, warnings) = scan_file("crates/milp/src/lu.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("justification"));
        // The same rule holds for every lint, the once reason-free ones too.
        let src = "// lint:allow(solver-unwrap)\nlet x = foo().unwrap();\n";
        let (findings, warnings) = scan_file("crates/milp/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("lint:allow(solver-unwrap)"));
    }

    #[test]
    fn directive_inside_a_string_does_not_count() {
        let src =
            "let s = \"// lint:allow(solver-unwrap): not a comment\";\nlet x = foo().unwrap();\n";
        assert_eq!(
            lints_of("crates/milp/src/x.rs", src),
            vec![("solver-unwrap", 2)]
        );
    }

    #[test]
    fn findings_carry_spans_and_excerpts() {
        let src = "fn f(x: f64) { let n = x.round() as usize; }\n";
        let (findings, _) = scan_file("crates/sim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!((f.line, f.col), (1, 26)); // anchored at `round`
        assert_eq!(f.excerpt, "fn f(x: f64) { let n = x.round() as usize; }");
        assert!(!f.suggestion.is_empty());
    }
}
