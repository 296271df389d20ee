//! Findings, suppression (`lint:allow`), and report rendering.
//!
//! Diagnostics are span-accurate: every [`Finding`] carries a 1-based
//! line *and* column plus the span length, so text output can underline
//! the offending tokens and `--format json` hands CI a machine-readable
//! artifact.
//!
//! ## Suppression model
//!
//! One rule for every lint: a comment `// lint:allow(<name>[, <name>…]):
//! <reason>` suppresses that lint's findings:
//!
//! * on its own line, when it trails code;
//! * on the line directly below, when it stands alone on its line;
//! * **scoped**: in the whole body of the `fn` or `for`/`while`/`loop`
//!   whose keyword sits on the line directly below a standalone allow —
//!   this is what makes per-function burndowns of the hot-path lints
//!   tractable without one comment per line.
//!
//! The reason after the colon is required: an allow without one is
//! inert and reported as a warning, so it cannot silently rot. Only
//! real comments count; a directive inside a string literal is no
//! directive.

use std::collections::BTreeMap;

use crate::parser::Comment;

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (chars) where the offending span starts.
    pub col: usize,
    /// Span length in chars (>= 1).
    pub len: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// A suggested rewrite, one line.
    pub suggestion: &'static str,
}

/// One `lint:allow(...)` annotation read from a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line of the comment.
    pub line: usize,
    /// Lint name inside the parens.
    pub name: String,
    /// Comment-only line (covers the next line / a following scope)
    /// versus trailing after code (covers its own line).
    pub standalone: bool,
    /// `): <non-empty text>` followed the paren.
    pub justified: bool,
}

/// Allows read from the file's comments; names may be comma-separated,
/// and a justification may follow the closing paren.
pub fn collect_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else {
            continue;
        };
        let after = rest[end + 1..].lines().next().unwrap_or("").trim();
        let justified = after
            .strip_prefix(':')
            .is_some_and(|j| !j.trim().is_empty());
        for name in rest[..end].split(',') {
            allows.push(Allow {
                line: c.line,
                name: name.trim().to_string(),
                standalone: c.standalone,
                justified,
            });
        }
    }
    allows
}

/// A scope a standalone allow directly above can cover: the anchor is
/// the line of the introducing keyword (`fn` / `for` / `while` /
/// `loop`), the range is the body's line span.
#[derive(Debug, Clone)]
pub struct AllowScope {
    pub anchor_line: usize,
    pub lines: (usize, usize),
}

/// Resolves suppression for one file's findings. `scopes` comes from
/// the passes (function and loop bodies).
pub struct Suppressions<'a> {
    allows: &'a [Allow],
    scopes: &'a [AllowScope],
}

impl<'a> Suppressions<'a> {
    pub fn new(allows: &'a [Allow], scopes: &'a [AllowScope]) -> Self {
        Self { allows, scopes }
    }

    pub fn is_suppressed(&self, lint: &str, line: usize) -> bool {
        self.allows
            .iter()
            .filter(|a| a.name == lint && a.justified)
            .any(|a| {
                if a.line == line || (a.standalone && a.line + 1 == line) {
                    return true;
                }
                a.standalone
                    && self.scopes.iter().any(|s| {
                        a.line + 1 == s.anchor_line && s.lines.0 <= line && line <= s.lines.1
                    })
            })
    }

    /// Allows for `lint_names` that have no justification — surfaced as
    /// warnings so they can't silently do nothing.
    pub fn unjustified(&self, lint_names: &[&'static str]) -> Vec<&Allow> {
        self.allows
            .iter()
            .filter(|a| !a.justified && lint_names.contains(&a.name.as_str()))
            .collect()
    }
}

/// Renders one finding as a rustc-style diagnostic, e.g.
///
/// ```text
/// crates/milp/src/lu.rs:42:17: [hot-path-index] let v = values[perm[r]];
///   help: index via .get()/.get_unchecked, or add a scoped lint:allow
/// ```
pub fn render_text(f: &Finding) -> String {
    format!(
        "{}:{}:{}: [{}] {}\n  help: {}\n",
        f.file, f.line, f.col, f.lint, f.excerpt, f.suggestion
    )
}

/// Escapes a string for JSON output (zero-dependency).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the whole run as a JSON document for the CI artifact.
pub fn render_json(
    files_scanned: usize,
    findings: &[Finding],
    counts: &BTreeMap<&'static str, usize>,
    ok: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"ok\": {ok},\n"));
    out.push_str("  \"counts\": {");
    let mut first = true;
    for (name, n) in counts {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {n}", json_escape(name)));
    }
    out.push_str("\n  },\n  \"findings\": [");
    first = true;
    for f in findings {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"len\": {}, \"excerpt\": \"{}\", \"suggestion\": \"{}\"}}",
            json_escape(f.lint),
            json_escape(&f.file),
            f.line,
            f.col,
            f.len,
            json_escape(&f.excerpt),
            json_escape(f.suggestion),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::tokenize;

    fn allows_of(src: &str) -> Vec<Allow> {
        collect_allows(&tokenize(src).1)
    }

    #[test]
    fn allow_justification_is_parsed() {
        let src = "// lint:allow(hot-path-index): basis permutation is in-bounds\n\
                   x[i]; // lint:allow(hot-path-index)\n";
        let allows = allows_of(src);
        assert_eq!(allows.len(), 2);
        assert!(allows[0].justified && allows[0].standalone);
        assert!(!allows[1].justified && !allows[1].standalone);
    }

    #[test]
    fn scoped_allow_covers_whole_range() {
        let allows = allows_of(
            "// lint:allow(hot-path-index): pivot indices bounded by basis invariant\nfn f() {\n}\n",
        );
        let scopes = [AllowScope {
            anchor_line: 2,
            lines: (2, 9),
        }];
        let s = Suppressions::new(&allows, &scopes);
        assert!(s.is_suppressed("hot-path-index", 5));
        assert!(!s.is_suppressed("hot-path-index", 10));
        assert!(!s.is_suppressed("nan-min-max", 5));
    }

    #[test]
    fn unjustified_allow_is_inert_for_every_lint() {
        let allows = allows_of("// lint:allow(hot-path-index, solver-unwrap)\nfn f() {\n}\n");
        let scopes = [AllowScope {
            anchor_line: 2,
            lines: (2, 9),
        }];
        let s = Suppressions::new(&allows, &scopes);
        for lint in ["hot-path-index", "solver-unwrap"] {
            assert!(!s.is_suppressed(lint, 2), "{lint}: next line");
            assert!(!s.is_suppressed(lint, 5), "{lint}: scope");
        }
        assert_eq!(s.unjustified(&["hot-path-index", "solver-unwrap"]).len(), 2);
    }

    #[test]
    fn json_is_escaped_and_shaped() {
        let findings = vec![Finding {
            lint: "nan-min-max",
            file: "a\"b.rs".into(),
            line: 3,
            col: 7,
            len: 4,
            excerpt: "x.max(1.0)\t\"q\"".into(),
            suggestion: "use total_cmp",
        }];
        let counts: BTreeMap<&'static str, usize> = [("nan-min-max", 1)].into_iter().collect();
        let j = render_json(9, &findings, &counts, false);
        assert!(j.contains("\"files_scanned\": 9"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\\t\\\"q\\\""));
        assert!(j.contains("\"ok\": false"));
    }
}
