//! The lint passes.
//!
//! Each pass is a visitor over the token forest produced by
//! [`crate::parser`], with full access to sibling context (receiver
//! chains, index targets) and the enclosing scope stack (functions,
//! loops, `const` initializers). They target this codebase's concrete
//! failure modes: a solver that must run unattended for years cannot
//! afford a panic, a silently-absorbed NaN, or a pair of tolerance
//! bounds that drift apart.
//!
//! | lint | fires on |
//! |------|----------|
//! | `partial-cmp-unwrap` | `partial_cmp(..)` unwrapped or defaulted, in every crate |
//! | `solver-unwrap` | `.unwrap()` / `.expect(..)` in the solver stack's `src/` |
//! | `float-as-int` | `.round()/.floor()/.ceil()/.trunc() as <int>`, in every crate |
//! | `hot-path-index` | bare `x[i]` / `&x[a..b]` inside loops of the simplex/LU/shard hot modules |
//! | `tolerance-literal` | inline `1e-7`-style epsilons in solver code outside named constants |
//! | `as-cast-audit` | narrowing / sign-changing `as` casts in solver code outside `milp::cast` |
//! | `nan-min-max` | `f64::min`/`max` on float-ish operands |
//! | `debug-assert-effect` | side effects inside `debug_assert!` (vanish in release builds) |
//!
//! Heuristics are documented per pass; where type information would be
//! needed (e.g. is this `.max(…)` `Ord` or `f64`?) the pass keys off
//! syntactic float evidence and accepts false negatives over false
//! positives.

use crate::parser::{self, leaf_at, Scope, ScopeKind, Tok, TokKind, Tree};
use crate::report::{AllowScope, Finding};

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

/// Hot solver modules whose loop bodies must use checked indexing: the
/// simplex module tree (every file under it) and two single files.
const HOT_PATHS: [&str; 3] = [
    "crates/milp/src/simplex/",
    "crates/milp/src/lu.rs",
    "crates/ras-core/src/shard.rs",
];

/// Solver source trees for the tolerance / cast / NaN passes.
const SOLVER_SRC: [&str; 3] = ["crates/milp/src", "crates/ras-core/src", "crates/twine/src"];

/// The named-constants modules where tolerance literals are allowed to
/// live (plus any `const`/`static` initializer anywhere).
const TOLERANCE_MODULES: [&str; 1] = ["crates/milp/src/tol.rs"];

/// The checked-conversion module exempt from `as-cast-audit`.
const CAST_MODULE: &str = "crates/milp/src/cast.rs";

/// The NaN-deliberate min/max helper module — the one blessed place
/// where raw `f64::min`/`max` appear (wrapped in non-NaN debug
/// asserts), so it is exempt from `nan-min-max`.
const NAN_MODULE: &str = "crates/milp/src/nan.rs";

/// Runs every pass over one file. Returns raw findings (caller applies
/// suppression) plus the allow scopes (fn/loop bodies) found.
pub fn run(repo_rel: &str, trees: &[Tree]) -> (Vec<Finding>, Vec<AllowScope>) {
    let mut findings = Vec::new();
    let mut scopes_out: Vec<AllowScope> = Vec::new();

    let in_any = |roots: &[&str]| roots.iter().any(|p| repo_rel.starts_with(p));
    let unwrap = in_any(&SOLVER_SCOPES);
    let hot_path = in_any(&HOT_PATHS);
    let solver = in_any(&SOLVER_SRC);
    let tolerance = solver && !TOLERANCE_MODULES.contains(&repo_rel);
    let cast = solver && repo_rel != CAST_MODULE;
    let nan = in_any(&["crates/milp/src", "crates/ras-core/src"]) && repo_rel != NAN_MODULE;

    parser::walk(trees, &mut |sibs, idx, scopes| {
        // Record fn/loop scopes once (on their opening brace visit).
        for s in scopes.iter().rev().take(1) {
            record_scope(&mut scopes_out, s);
        }

        partial_cmp_unwrap(repo_rel, sibs, idx, &mut findings);
        if unwrap {
            solver_unwrap(repo_rel, sibs, idx, &mut findings);
        }
        float_as_int(repo_rel, sibs, idx, &mut findings);
        if hot_path {
            hot_path_index(repo_rel, sibs, idx, scopes, &mut findings);
        }
        if tolerance {
            tolerance_literal(repo_rel, sibs, idx, scopes, &mut findings);
        }
        if cast {
            as_cast_audit(repo_rel, sibs, idx, &mut findings);
        }
        if nan {
            nan_min_max(repo_rel, sibs, idx, &mut findings);
        }
        debug_assert_effect(repo_rel, sibs, idx, &mut findings);
    });

    (findings, scopes_out)
}

fn record_scope(out: &mut Vec<AllowScope>, s: &Scope) {
    if !matches!(s.kind, ScopeKind::Fn { .. } | ScopeKind::Loop { .. }) {
        return;
    }
    let entry = AllowScope {
        anchor_line: s.allow_anchor_line(),
        lines: s.lines,
    };
    if !out
        .iter()
        .any(|e| e.anchor_line == entry.anchor_line && e.lines == entry.lines)
    {
        out.push(entry);
    }
}

/// Keywords that can directly precede a `[` without forming an index
/// expression (`return [a, b]`, `break [x]`, `in [..]`, …).
const NON_RECEIVER_KEYWORDS: [&str; 18] = [
    "return", "break", "continue", "in", "if", "else", "match", "loop", "while", "for", "move",
    "as", "mut", "ref", "let", "where", "unsafe", "yield",
];

fn finding(
    lint: &'static str,
    file: &str,
    tok: &Tok,
    len: usize,
    suggestion: &'static str,
) -> Finding {
    Finding {
        lint,
        file: file.to_string(),
        line: tok.line,
        col: tok.col,
        len,
        excerpt: String::new(), // filled by the engine from raw source
        suggestion,
    }
}

/// Span length from `from` through column `end_col` of `end_line`, or
/// `from`'s own length when the span would leave its line.
fn span(from: &Tok, end_line: usize, end_col: usize) -> usize {
    if end_line == from.line && end_col >= from.col {
        end_col - from.col + 1
    } else {
        from.text.chars().count().max(1)
    }
}

/// Span length from `from` through the last char of `to`.
fn span_to(from: &Tok, to: &Tok) -> usize {
    span(from, to.line, to.col + to.text.chars().count() - 1)
}

fn is_punct_at(sibs: &[Tree], i: usize, p: &str) -> bool {
    leaf_at(sibs, i).is_some_and(|t| t.is_punct(p))
}

fn is_dot(sibs: &[Tree], i: usize) -> bool {
    is_punct_at(sibs, i, ".")
}

/// `sibs[i]` opens a call: it is followed by a `(…)` group.
fn is_call(sibs: &[Tree], i: usize) -> bool {
    sibs.get(i + 1).is_some_and(|g| g.is_group('('))
}

/// Methods that leave a `partial_cmp` result defaulted or unwrapped.
const CMP_DEFAULTS: [&str; 7] = [
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_or_else",
];

/// `partial-cmp-unwrap`: `partial_cmp(…)` immediately unwrapped or
/// defaulted. A NaN operand then panics or silently becomes a made-up
/// `Ordering` (an `unwrap_or(Equal)` comparator is how a NaN merit
/// scrambles a sort); `f64::total_cmp` is total and costs the same.
/// Applies to every crate.
fn partial_cmp_unwrap(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx).filter(|t| t.is_ident("partial_cmp")) else {
        return;
    };
    if is_call(sibs, idx)
        && is_dot(sibs, idx + 2)
        && leaf_at(sibs, idx + 3).is_some_and(|t| CMP_DEFAULTS.contains(&t.text.as_str()))
    {
        out.push(finding(
            "partial-cmp-unwrap",
            file,
            tok,
            tok.text.chars().count(),
            "use f64::total_cmp — total over NaN at the same cost",
        ));
    }
}

/// `solver-unwrap`: `.unwrap()` / `.expect(…)` in the production code
/// of [`SOLVER_SCOPES`]. Fallible paths there must propagate
/// `SolveError` / `CoreError`, or be individually allowed.
fn solver_unwrap(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx) else {
        return;
    };
    let Some(Tree::Group {
        delim: '(',
        children,
        close_line,
        close_col,
        ..
    }) = sibs.get(idx + 1)
    else {
        return;
    };
    if is_dot(sibs, idx.wrapping_sub(1))
        && ((tok.is_ident("unwrap") && children.is_empty()) || tok.is_ident("expect"))
    {
        out.push(finding(
            "solver-unwrap",
            file,
            tok,
            span(tok, *close_line, *close_col),
            "propagate SolveError/CoreError instead of panicking the region solve",
        ));
    }
}

const ROUNDING: [&str; 4] = ["round", "floor", "ceil", "trunc"];

/// `float-as-int`: `.round() as usize` and friends, in every crate. The
/// cast saturates silently on NaN/overflow; conversions of
/// data-dependent values must go through a checked helper that surfaces
/// the bad input.
fn float_as_int(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx)
        .filter(|t| t.kind == TokKind::Ident && ROUNDING.contains(&t.text.as_str()))
    else {
        return;
    };
    let Some(ty) = leaf_at(sibs, idx + 3).filter(|t| INT_TYPES.contains(&t.text.as_str())) else {
        return;
    };
    if is_dot(sibs, idx.wrapping_sub(1))
        && is_call(sibs, idx)
        && sibs[idx + 1]
            .group_children()
            .is_some_and(<[Tree]>::is_empty)
        && leaf_at(sibs, idx + 2).is_some_and(|t| t.is_ident("as"))
    {
        out.push(finding(
            "float-as-int",
            file,
            tok,
            span_to(tok, ty),
            "use milp::cast (rounded_i64/checked_usize/…) — `as` saturates on NaN/overflow",
        ));
    }
}

/// `hot-path-index`: a bare `[...]` index expression (including range
/// slicing) inside a `for`/`while`/`loop` body of a hot solver module.
/// Out-of-bounds here is a panic in the region solve path — sites must
/// use `get`/`get_unchecked` (with the miss handled / safety argued) or
/// carry a scoped `lint:allow` whose justification names the invariant
/// that bounds the index.
fn hot_path_index(file: &str, sibs: &[Tree], idx: usize, scopes: &[Scope], out: &mut Vec<Finding>) {
    let Tree::Group {
        delim: '[',
        close_line,
        close_col,
        ..
    } = &sibs[idx]
    else {
        return;
    };
    if !scopes
        .iter()
        .any(|s| matches!(s.kind, ScopeKind::Loop { .. }))
    {
        return;
    }
    // The `[` must attach to a value: a plain identifier or a call /
    // index result. Macro brackets (`vec![`), attributes (`#[`), array
    // literals (`= [`), and types (`: [`) all have other predecessors.
    let Some(prev) = sibs.get(idx.wrapping_sub(1)) else {
        return;
    };
    let is_receiver = match prev {
        Tree::Leaf(t) => {
            t.kind == TokKind::Ident && !NON_RECEIVER_KEYWORDS.contains(&t.text.as_str())
        }
        Tree::Group { delim, .. } => *delim == '(' || *delim == '[',
    };
    if !is_receiver {
        return;
    }
    let anchor = prev.head();
    out.push(finding(
        "hot-path-index",
        file,
        anchor,
        span(anchor, *close_line, *close_col),
        "use .get()/.get_unchecked() (handle the miss or argue safety), or add a scoped \
         `// lint:allow(hot-path-index): <why the index is in-bounds>` above the fn or loop",
    ));
}

/// `tolerance-literal`: an epsilon-style float literal (negative
/// exponent) in solver code outside a `const`/`static` initializer and
/// outside the named constants module. Inline epsilons are how paired
/// bounds (`sharded_tolerance` vs the merge check, opt vs feasibility
/// tol) drift apart — name it once, reference it everywhere.
fn tolerance_literal(
    file: &str,
    sibs: &[Tree],
    idx: usize,
    scopes: &[Scope],
    out: &mut Vec<Finding>,
) {
    let Some(tok) = leaf_at(sibs, idx).filter(|t| t.has_negative_exponent()) else {
        return;
    };
    if scopes.iter().any(|s| s.kind == ScopeKind::ConstInit) {
        return;
    }
    out.push(finding(
        "tolerance-literal",
        file,
        tok,
        tok.text.chars().count(),
        "hoist into milp::tol (or a local `const`) so paired tolerances can't drift apart",
    ));
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// `as-cast-audit`: generalizes `float-as-int` to every `expr as
/// <int>` (and `as f32`) in solver code. `as` saturates floats,
/// truncates and wraps integers, and flips signs silently; conversions
/// of data-dependent values must go through `milp::cast` (which
/// surfaces the bad value) or `From`/`TryFrom`. Integer-literal casts
/// (`7 as u8`) are exempt: they are compile-time-checkable and idiom.
fn as_cast_audit(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx).filter(|t| t.is_ident("as")) else {
        return;
    };
    let Some(target) = leaf_at(sibs, idx + 1) else {
        return;
    };
    if !(INT_TYPES.contains(&target.text.as_str()) || target.text == "f32") {
        return;
    }
    let prev = idx.wrapping_sub(1);
    // Literal source: `255 as u8` / `1.5 as f32` are value-visible.
    if leaf_at(sibs, prev)
        .is_some_and(|t| t.kind == TokKind::Num || t.is_ident("true") || t.is_ident("false"))
    {
        return;
    }
    // `.round() as usize` and friends belong to `float-as-int`; don't
    // double-report.
    if sibs.get(prev).is_some_and(|g| g.is_group('('))
        && leaf_at(sibs, idx.wrapping_sub(2)).is_some_and(|t| ROUNDING.contains(&t.text.as_str()))
        && is_dot(sibs, idx.wrapping_sub(3))
    {
        return;
    }
    out.push(finding(
        "as-cast-audit",
        file,
        tok,
        span_to(tok, target),
        "use milp::cast (checked/rounded helpers) or From/TryFrom; `as` wraps, truncates \
         and saturates silently",
    ));
}

/// Idents that make an expression smell like `f64` arithmetic.
const FLOATISH_IDENTS: [&str; 12] = [
    "f64",
    "f32",
    "abs",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "INFINITY",
    "NEG_INFINITY",
    "EPSILON",
    "NAN",
];

fn floatish(trees: &[Tree]) -> bool {
    let mut hit = false;
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if tok.is_float_lit()
                    || (tok.kind == TokKind::Ident && FLOATISH_IDENTS.contains(&tok.text.as_str()))
                {
                    hit = true;
                }
            }
            Tree::Group { children, .. } => {
                if floatish(children) {
                    hit = true;
                }
            }
        }
        if hit {
            break;
        }
    }
    hit
}

/// The postfix receiver chain ending just before sibling `end`
/// (exclusive): walks back over idents, literals, groups, `.`/`::`/`?`.
fn receiver_chain(sibs: &[Tree], end: usize) -> &[Tree] {
    let mut start = end;
    while start > 0 {
        let keep = match &sibs[start - 1] {
            Tree::Leaf(t) => match t.kind {
                TokKind::Ident => !NON_RECEIVER_KEYWORDS.contains(&t.text.as_str()),
                TokKind::Num => true,
                TokKind::Punct => matches!(t.text.as_str(), "." | "::" | "?"),
                _ => false,
            },
            Tree::Group { delim, .. } => *delim != '{',
        };
        if keep {
            start -= 1;
        } else {
            break;
        }
    }
    &sibs[start..end]
}

/// `nan-min-max`: `min`/`max` on float-ish operands, or `f64::min`/`max`
/// as a path (called, or passed to a `fold`). IEEE min/max silently
/// discard a NaN operand — a NaN objective or reduced cost gets
/// laundered into a plausible number instead of failing the audit. Use
/// `milp::nan::{fmin, fmax}` (debug-asserts non-NaN, identical release
/// behavior) or `total_cmp`.
fn nan_min_max(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx).filter(|t| t.is_ident("min") || t.is_ident("max")) else {
        return;
    };
    let flagged = if is_dot(sibs, idx.wrapping_sub(1)) {
        let Some(args) = sibs
            .get(idx + 1)
            .filter(|g| g.is_group('('))
            .and_then(Tree::group_children)
        else {
            return;
        };
        // A bare integer literal argument (`.max(1)`) proves the
        // receiver is an integer type — `1` cannot coerce to f64, so an
        // f64 receiver would not compile. Integer min/max is total.
        let int_arg =
            matches!(args, [Tree::Leaf(a)] if a.kind == TokKind::Num && !a.is_float_lit());
        !int_arg && (floatish(args) || floatish(receiver_chain(sibs, idx - 1)))
    } else {
        is_punct_at(sibs, idx.wrapping_sub(1), "::")
            && leaf_at(sibs, idx.wrapping_sub(2))
                .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
    };
    if flagged {
        out.push(finding(
            "nan-min-max",
            file,
            tok,
            tok.text.chars().count(),
            "use milp::nan::{fmin,fmax} (debug-asserts non-NaN) or f64::total_cmp; \
             IEEE min/max silently drop NaN",
        ));
    }
}

/// Mutating method names that have no business inside `debug_assert!`.
const MUT_METHODS: [&str; 24] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "remove",
    "pop",
    "pop_front",
    "pop_back",
    "clear",
    "drain",
    "extend",
    "truncate",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
    "swap_remove",
    "retain",
    "resize",
    "dedup",
    "append",
    "split_off",
    "take",
];

/// Iterator-producing calls whose `.next()` is a fresh iterator, not a
/// mutation of program state.
const ITER_SOURCES: [&str; 12] = [
    "iter",
    "iter_mut",
    "into_iter",
    "chars",
    "bytes",
    "keys",
    "values",
    "windows",
    "chunks",
    "split",
    "splitn",
    "lines",
];

const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// `debug-assert-effect`: an expression with a side effect inside
/// `debug_assert!` / `debug_assert_eq!` / `debug_assert_ne!`. The whole
/// macro body is compiled out in release builds, so the effect silently
/// changes release behavior — the exact class of bug that only shows up
/// in production. Fires once per macro invocation.
fn debug_assert_effect(file: &str, sibs: &[Tree], idx: usize, out: &mut Vec<Finding>) {
    let Some(tok) = leaf_at(sibs, idx) else {
        return;
    };
    if !(tok.kind == TokKind::Ident
        && tok.text.starts_with("debug_assert")
        && is_punct_at(sibs, idx + 1, "!"))
    {
        return;
    }
    let Some(body) = sibs.get(idx + 2).and_then(Tree::group_children) else {
        return;
    };
    if let Some(effect) = first_effect(body) {
        out.push(finding(
            "debug-assert-effect",
            file,
            effect,
            effect.text.chars().count(),
            "hoist the effect out of the assertion; debug_assert! bodies vanish in release builds",
        ));
    }
}

/// First side-effecting token inside a `debug_assert!` body, if any.
fn first_effect(trees: &[Tree]) -> Option<&Tok> {
    // `let` bindings (`if let`, `let`-chains) legitimately use `=`.
    let mut let_pending = false;
    for (i, t) in trees.iter().enumerate() {
        match t {
            Tree::Leaf(tok) => {
                let method_call = is_dot(trees, i.wrapping_sub(1)) && is_call(trees, i);
                if tok.is_ident("let") {
                    let_pending = true;
                } else if tok.kind == TokKind::Punct && ASSIGN_OPS.contains(&tok.text.as_str()) {
                    if tok.text == "=" && let_pending {
                        let_pending = false;
                    } else {
                        return Some(tok);
                    }
                } else if tok.is_punct(";") {
                    let_pending = false;
                } else if method_call
                    && tok.kind == TokKind::Ident
                    && MUT_METHODS.contains(&tok.text.as_str())
                {
                    return Some(tok);
                } else if method_call && tok.is_ident("next") {
                    // `.next()` advances an iterator — unless the
                    // receiver chain manufactures the iterator inline.
                    let recv = receiver_chain(trees, i - 1);
                    let fresh = recv.iter().any(|r| {
                        r.as_leaf().is_some_and(|t| {
                            t.kind == TokKind::Ident && ITER_SOURCES.contains(&t.text.as_str())
                        })
                    });
                    if !fresh {
                        return Some(tok);
                    }
                } else if tok.is_ident("mut") && is_punct_at(trees, i.wrapping_sub(1), "&") {
                    return Some(tok);
                }
            }
            Tree::Group { children, .. } => {
                if let Some(hit) = first_effect(children) {
                    return Some(hit);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<(String, usize)> {
        let (findings, _) = run(path, &parser::parse(src).0);
        findings
            .into_iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect()
    }

    #[test]
    fn hot_path_index_fires_only_in_loops_of_hot_files() {
        let src = "fn f(v: &[f64], p: &[usize]) {\n\
                   let a = v[0];\n\
                   for i in 0..p.len() {\n\
                   let b = v[p[i]];\n\
                   }\n\
                   }\n";
        let hits = run_on("crates/milp/src/lu.rs", src);
        // Line 2 is outside any loop: no finding. Line 4 has two index
        // expressions (v[...] and p[i]).
        assert_eq!(
            hits,
            vec![
                ("hot-path-index".to_string(), 4),
                ("hot-path-index".to_string(), 4)
            ]
        );
        assert!(run_on("crates/milp/src/model.rs", src).is_empty());
        // The simplex module tree is in scope file by file.
        for file in ["mod", "engine", "pricing", "primal", "dual"] {
            let path = format!("crates/milp/src/simplex/{file}.rs");
            assert_eq!(run_on(&path, src), hits, "{path}");
        }
    }

    #[test]
    fn hot_path_index_ignores_non_index_brackets() {
        let src = "fn f() {\n\
                   while go() {\n\
                   let a = vec![1, 2];\n\
                   let b: [f64; 2] = [0.0; 2];\n\
                   #[allow(dead_code)]\n\
                   let c = (x)[1];\n\
                   }\n\
                   }\n";
        let hits = run_on("crates/milp/src/simplex/primal.rs", src);
        assert_eq!(hits, vec![("hot-path-index".to_string(), 6)]);
    }

    #[test]
    fn hot_path_index_catches_slicing() {
        let src = "fn f(v: &[f64]) { loop { consume(&v[1..4]); } }";
        assert_eq!(
            run_on("crates/ras-core/src/shard.rs", src),
            vec![("hot-path-index".to_string(), 1)]
        );
    }

    #[test]
    fn tolerance_literal_exempts_consts_and_tol_module() {
        let src = "const EPS: f64 = 1e-9;\n\
                   static TAB: [f64; 2] = [1e-7, 1e-8];\n\
                   fn f(x: f64) -> bool { x.abs() < 1e-7 }\n";
        assert_eq!(
            run_on("crates/milp/src/simplex/pricing.rs", src)
                .iter()
                .filter(|(l, _)| l == "tolerance-literal")
                .collect::<Vec<_>>(),
            vec![&("tolerance-literal".to_string(), 3)]
        );
        assert!(run_on("crates/milp/src/tol.rs", src)
            .iter()
            .all(|(l, _)| l != "tolerance-literal"));
        assert!(run_on("crates/sim/src/metrics.rs", src)
            .iter()
            .all(|(l, _)| l != "tolerance-literal"));
    }

    #[test]
    fn as_cast_audit_flags_value_casts_not_literals() {
        let src = "fn f(n: usize, x: f64) {\n\
                   let a = n as u32;\n\
                   let b = 255 as u8;\n\
                   let c = x as f32;\n\
                   let d = n as f64;\n\
                   }\n";
        let hits: Vec<_> = run_on("crates/ras-core/src/shard.rs", src)
            .into_iter()
            .filter(|(l, _)| l == "as-cast-audit")
            .collect();
        assert_eq!(
            hits,
            vec![
                ("as-cast-audit".to_string(), 2),
                ("as-cast-audit".to_string(), 4)
            ]
        );
        assert!(run_on("crates/milp/src/cast.rs", src).is_empty());
    }

    #[test]
    fn as_cast_audit_leaves_float_as_int_sites_to_float_as_int() {
        let src = "fn f(x: f64) { let n = x.round() as usize; }";
        assert!(run_on("crates/milp/src/model.rs", src)
            .iter()
            .all(|(l, _)| l != "as-cast-audit"));
    }

    #[test]
    fn nan_min_max_needs_float_evidence() {
        let src = "fn f(a: f64, rows: usize, cols: usize) {\n\
                   let c = a.max(0.0);\n\
                   let d = rows.min(cols);\n\
                   let e = a.abs().max(b);\n\
                   let g = xs.iter().fold(f64::NAN, f64::max);\n\
                   }\n";
        let hits: Vec<_> = run_on("crates/milp/src/audit.rs", src)
            .into_iter()
            .filter(|(l, _)| l == "nan-min-max")
            .collect();
        assert_eq!(
            hits,
            vec![
                ("nan-min-max".to_string(), 2),
                ("nan-min-max".to_string(), 4),
                ("nan-min-max".to_string(), 5)
            ]
        );
    }

    #[test]
    fn partial_cmp_unwrap_catches_defaulting_partial_cmp() {
        let src = "fn f() { v.sort_by(|a, b| a.partial_cmp(b).map_or(O::Equal, |o| o)); }";
        // One rule in every crate, the solver's and the simulator's alike.
        for path in ["crates/milp/src/solution.rs", "crates/sim/src/x.rs"] {
            assert_eq!(
                run_on(path, src),
                vec![("partial-cmp-unwrap".to_string(), 1)]
            );
        }
    }

    #[test]
    fn debug_assert_effect_catches_mutation() {
        let src = "fn f(v: &mut Vec<u32>) {\n\
                   debug_assert!(v.pop().is_some());\n\
                   debug_assert_eq!(a, b);\n\
                   debug_assert!(check(&mut scratch));\n\
                   debug_assert!(x == y && z <= w);\n\
                   debug_assert!(if let Some(q) = m.get(k) { *q > 0 } else { true });\n\
                   }\n";
        let hits: Vec<_> = run_on("crates/sim/src/metrics.rs", src);
        assert_eq!(
            hits,
            vec![
                ("debug-assert-effect".to_string(), 2),
                ("debug-assert-effect".to_string(), 4)
            ]
        );
    }

    #[test]
    fn debug_assert_effect_allows_fresh_iterators() {
        let src = "fn f(v: &[u32]) { debug_assert!(v.iter().next().is_some()); }";
        assert!(run_on("crates/sim/src/metrics.rs", src).is_empty());
    }
}
