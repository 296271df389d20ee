//! Lint engine: runs every pass over one file and applies suppression.
//!
//! Two generations of lints coexist here:
//!
//! * the original masked-substring lints (`partial-cmp-unwrap`,
//!   `solver-unwrap`, `float-as-int`), kept in their proven token-scan
//!   form and upgraded to span-accurate [`Finding`]s; and
//! * the syntax-aware passes in [`crate::passes`], which run over the
//!   token forest from [`crate::parser`] and can see scopes, receiver
//!   chains and statement structure.
//!
//! Suppression (`// lint:allow(...)`) is resolved once for both
//! generations — see [`crate::report`] for the line/scope semantics and
//! the justification requirement on the syntax lints.

use crate::lexer::{mask_literals, mask_source, mask_test_mods};
use crate::parser;
use crate::passes::{self, SYNTAX_LINTS};
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

/// Crates whose non-test sources must not panic on fallible paths
/// (`solver-unwrap` scope): the solver stack proper, plus the level-2
/// path around it — twine placement, the broker it reads and the mover
/// that feeds it — which runs inside the simulation loop and must
/// degrade, not panic, when capacity or bookkeeping is off. Scoped to
/// `src/` on purpose: integration tests and benches may unwrap freely.
const SOLVER_SCOPES: [&str; 5] = [
    "crates/milp/src",
    "crates/ras-core/src",
    "crates/twine/src",
    "crates/broker/src",
    "crates/mover/src",
];

/// Scans one file and returns every unsuppressed finding, plus
/// warnings for `lint:allow` comments that are inert because a
/// syntax-lint allow is missing its justification.
pub fn scan_file(repo_rel: &str, raw: &str) -> (Vec<Finding>, Vec<String>) {
    let masked = mask_test_mods(&mask_source(raw));
    let chars: Vec<char> = masked.chars().collect();
    let raw_lines: Vec<&str> = raw.lines().collect();

    let mut findings = legacy_findings(repo_rel, &chars);

    let trees = parser::parse(&masked);
    let (syntax_findings, allow_scopes) = passes::run(repo_rel, &trees);
    findings.extend(syntax_findings);

    // Allows are read from a literals-masked view: the directive only
    // counts inside real comments, never inside a string literal.
    let allows = collect_allows(&mask_literals(raw));
    let suppressions = Suppressions::new(&allows, &allow_scopes);
    let warnings: Vec<String> = suppressions
        .unjustified(&SYNTAX_LINTS)
        .iter()
        .map(|a| {
            format!(
                "{repo_rel}:{}: lint:allow({}) is ignored — syntax lints need a reason: \
                 `// lint:allow({}): <one-line justification>`",
                a.line, a.name, a.name
            )
        })
        .collect();

    let mut findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let needs_reason = SYNTAX_LINTS.contains(&f.lint);
            !suppressions.is_suppressed(f.lint, f.line, needs_reason)
        })
        .map(|mut f| {
            if f.excerpt.is_empty() {
                f.excerpt = raw_lines
                    .get(f.line - 1)
                    .map_or(String::new(), |l| l.trim().to_string());
            }
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

/// The original three masked-substring lints.
fn legacy_findings(repo_rel: &str, chars: &[char]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |lint: &'static str, pos: usize, len: usize, suggestion: &'static str| {
        let (line, col) = line_col_of(chars, pos);
        findings.push(Finding {
            lint,
            file: repo_rel.to_string(),
            line,
            col,
            len,
            excerpt: String::new(),
            suggestion,
        });
    };

    // partial-cmp-unwrap: `partial_cmp(…)` immediately unwrapped or
    // defaulted. NaN-unsound in solver code — `f64::total_cmp` is total
    // and costs the same. Applies to every crate.
    let mut from = 0;
    while let Some(i) = find(chars, "partial_cmp", from) {
        from = i + "partial_cmp".len();
        if chars.get(from) != Some(&'(') {
            continue;
        }
        let after = skip_balanced(chars, from);
        let mut j = after;
        while chars.get(j).is_some_and(|c| c.is_whitespace()) {
            j += 1;
        }
        if ["unwrap()", "unwrap_or(", "unwrap_or_else(", "expect("]
            .iter()
            .any(|m| starts_with(chars, j, &format!(".{m}")))
        {
            push(
                "partial-cmp-unwrap",
                i,
                "partial_cmp".len(),
                "use f64::total_cmp — total over NaN at the same cost",
            );
        }
    }

    // solver-unwrap: bare `.unwrap()` / `.expect(` in the solver crates'
    // production code. Fallible paths there must propagate `SolveError`
    // / `CoreError`, or be individually allowed.
    if SOLVER_SCOPES.iter().any(|s| repo_rel.starts_with(s)) {
        for pat in [".unwrap()", ".expect("] {
            let mut from = 0;
            while let Some(i) = find(chars, pat, from) {
                from = i + pat.len();
                push(
                    "solver-unwrap",
                    i + 1,
                    pat.len() - 1,
                    "propagate SolveError/CoreError instead of panicking the region solve",
                );
            }
        }
    }

    // float-as-int: `.round() as usize` and friends. The cast saturates
    // silently on NaN/overflow; conversions on data-dependent values
    // must go through a checked helper that surfaces the bad input.
    for method in ["round", "floor", "ceil", "trunc"] {
        let pat = format!(".{method}() as ");
        let mut from = 0;
        while let Some(i) = find(chars, &pat, from) {
            from = i + pat.len();
            let mut word = String::new();
            let mut j = from;
            while let Some(&c) = chars.get(j) {
                if c.is_alphanumeric() {
                    word.push(c);
                    j += 1;
                } else {
                    break;
                }
            }
            if is_int_type(&word) {
                push(
                    "float-as-int",
                    i + 1,
                    pat.len() + word.len() - 1,
                    "use milp::cast (rounded_i64/checked_usize/…) — `as` saturates on NaN/overflow",
                );
            }
        }
    }

    findings
}

fn is_int_type(word: &str) -> bool {
    matches!(
        word,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// (1-based line, 1-based char column) of a char offset.
fn line_col_of(chars: &[char], pos: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for &c in &chars[..pos] {
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

fn find(chars: &[char], needle: &str, from: usize) -> Option<usize> {
    let n: Vec<char> = needle.chars().collect();
    if chars.len() < n.len() {
        return None;
    }
    (from..=chars.len() - n.len()).find(|&i| chars[i..i + n.len()] == n[..])
}

fn starts_with(chars: &[char], at: usize, needle: &str) -> bool {
    let n: Vec<char> = needle.chars().collect();
    chars.get(at..at + n.len()) == Some(&n[..])
}

/// Index just past the `)` matching the `(` at `open`.
fn skip_balanced(chars: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < chars.len() {
        if chars[i] == '(' {
            depth += 1;
        } else if chars[i] == ')' {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    chars.len()
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
        let src = "// lint:allow(solver-unwrap)\nlet x = foo().unwrap();\nlet y = bar().unwrap(); // lint:allow(solver-unwrap)\nlet z = baz().unwrap();\n";
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
