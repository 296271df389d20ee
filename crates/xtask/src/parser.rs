//! A small hand-rolled Rust tokenizer and token-tree parser for the
//! lint engine.
//!
//! [`tokenize`] reads raw source: it sets comments aside (they carry
//! the `lint:allow` directives) and skips string and char literals, so
//! only real code becomes tokens. [`parse`] folds the tokens into a
//! forest of [`Tree`]s — leaves with spans, plus delimiter groups —
//! and drops test-only code from it. [`walk`] classifies brace scopes
//! (function bodies, loop bodies, `const` initializers) so lints can
//! reason about *where* a pattern occurs, not just that it occurs.
//!
//! This is deliberately not a full Rust grammar. It understands exactly
//! as much structure as the lint passes in [`crate::passes`] need:
//! literals and comments, nesting, statement boundaries, a handful of
//! scope-introducing keywords, and multi-character operators (so `=` is
//! distinguishable from `==`, `=>`, `<=`, …). The zero-dependency
//! constraint rules out `syn`.

/// One lexical token with its position in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text as it appears in the source.
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in chars).
    pub col: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer or float literal (suffix included in `text`).
    Num,
    /// `'a`-style lifetime or loop label.
    Lifetime,
    /// Operator / punctuation; multi-char operators are one token.
    Punct,
    /// `(`, `[` or `{`.
    Open,
    /// `)`, `]` or `}`.
    Close,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
    /// True for a float literal (decimal point, exponent, or f-suffix).
    pub fn is_float_lit(&self) -> bool {
        self.kind == TokKind::Num
            && (self.text.contains('.')
                || self.text.ends_with("f32")
                || self.text.ends_with("f64")
                || self
                    .text
                    .bytes()
                    .zip(self.text.bytes().skip(1))
                    .any(|(a, b)| (a == b'e' || a == b'E') && (b.is_ascii_digit() || b == b'-')))
    }
    /// True for an epsilon-style float literal with a negative exponent
    /// (`1e-7`, `2.5E-12`, `1e-7f64`, …).
    pub fn has_negative_exponent(&self) -> bool {
        self.kind == TokKind::Num
            && self
                .text
                .bytes()
                .zip(self.text.bytes().skip(1))
                .zip(self.text.bytes().skip(2))
                .any(|((a, b), c)| (a == b'e' || a == b'E') && b == b'-' && c.is_ascii_digit())
    }
}

/// A token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group {
        /// `(`, `[` or `{`.
        delim: char,
        open: Tok,
        /// Line of the matching close delimiter (== open line if the
        /// group was unterminated at EOF).
        close_line: usize,
        /// Column of the matching close delimiter (== open col if the
        /// group was unterminated at EOF).
        close_col: usize,
        children: Vec<Tree>,
    },
}

impl Tree {
    /// The token that anchors diagnostics for this tree.
    pub fn head(&self) -> &Tok {
        match self {
            Tree::Leaf(t) => t,
            Tree::Group { open, .. } => open,
        }
    }
    pub fn as_leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group { .. } => None,
        }
    }
    pub fn is_group(&self, d: char) -> bool {
        matches!(self, Tree::Group { delim, .. } if *delim == d)
    }
    pub fn group_children(&self) -> Option<&[Tree]> {
        match self {
            Tree::Group { children, .. } => Some(children),
            Tree::Leaf(_) => None,
        }
    }
}

/// Multi-character operators, longest first so lexing is greedy.
const MULTI_PUNCT: [&str; 25] = [
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "=>", "->", "&&", "||", "<<", ">>", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "::", "..", ".",
];

/// One `//` or `/* */` comment, kept so `lint:allow` directives are read
/// from real comments only.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// No code precedes the comment on its line.
    pub standalone: bool,
    /// The comment text, delimiters included.
    pub text: String,
}

/// Tokenizes raw source. Comments come back separately; string, byte,
/// C and raw string literals and char literals produce no token at all
/// (their contents carry nothing the lints look at, and a quoted
/// `.unwrap()` must not look like code). Unterminated literals and
/// comments run to the end of the file.
pub fn tokenize(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let (mut toks, mut comments) = (Vec::new(), Vec::new());
    // Line on which the last token or literal ended.
    let mut code_line = 0;
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && matches!(cur.peek(1), Some('/' | '*')) {
            let text = cur.comment();
            let standalone = code_line < line;
            comments.push(Comment {
                line,
                standalone,
                text,
            });
        } else {
            let tok = cur.code_token(c);
            code_line = cur.line;
            if let Some((kind, text)) = tok {
                toks.push(Tok {
                    kind,
                    text,
                    line,
                    col,
                });
            }
        }
    }
    (toks, comments)
}

/// Character cursor that tracks 1-based line and column.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek(0) {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0).filter(|&c| keep(c)) {
            text.push(c);
            self.bump();
        }
        text
    }

    /// A line comment (up to the newline) or a nested block comment.
    fn comment(&mut self) -> String {
        let start = self.i;
        if self.peek(1) == Some('/') {
            self.take_while(|c| c != '\n');
        } else {
            let mut depth = 0usize;
            while let Some(c) = self.peek(0) {
                let pair = (c, self.peek(1));
                if matches!(pair, ('/', Some('*')) | ('*', Some('/'))) {
                    depth = if c == '/' { depth + 1 } else { depth - 1 };
                    self.bump();
                }
                self.bump();
                if depth == 0 {
                    break;
                }
            }
        }
        self.chars[start..self.i].iter().collect()
    }

    /// The token starting at `c`, or `None` for a literal that was
    /// skipped.
    fn code_token(&mut self, c: char) -> Option<(TokKind, String)> {
        let kind = match c {
            '"' => {
                self.skip_string();
                return None;
            }
            '\'' => return self.char_or_lifetime().map(|t| (TokKind::Lifetime, t)),
            '0'..='9' => return Some((TokKind::Num, self.number())),
            c if is_ident_char(c) => return self.ident(),
            '(' | '[' | '{' => TokKind::Open,
            ')' | ']' | '}' => TokKind::Close,
            _ => {
                let rest: String = self.chars[self.i..].iter().take(3).collect();
                let op = MULTI_PUNCT
                    .iter()
                    .find(|m| rest.starts_with(**m))
                    .map_or(c.to_string(), |m| m.to_string());
                op.chars().for_each(|_| self.bump());
                return Some((TokKind::Punct, op));
            }
        };
        self.bump();
        Some((kind, c.to_string()))
    }

    /// An identifier or keyword, a raw identifier (`r#match`), or the
    /// prefix of a byte, C or raw string literal, which is skipped.
    fn ident(&mut self) -> Option<(TokKind, String)> {
        let text = self.take_while(is_ident_char);
        let hashes = (0..).take_while(|&k| self.peek(k) == Some('#')).count();
        match (text.as_str(), self.peek(0)) {
            ("b" | "c", Some('"')) => self.skip_string(),
            ("b", Some('\'')) => {
                self.char_or_lifetime();
            }
            ("r" | "br" | "cr", _) if self.peek(hashes) == Some('"') => {
                (0..=hashes).for_each(|_| self.bump());
                while self.peek(0).is_some()
                    && !(self.peek(0) == Some('"')
                        && (1..=hashes).all(|k| self.peek(k) == Some('#')))
                {
                    self.bump();
                }
                (0..=hashes).for_each(|_| self.bump());
            }
            ("r", Some('#')) if self.peek(1).is_some_and(is_ident_char) => {
                self.bump();
                let name = self.take_while(is_ident_char);
                return Some((TokKind::Ident, format!("r#{name}")));
            }
            _ => return Some((TokKind::Ident, text)),
        }
        None
    }

    /// Skips a quoted string, escapes included, from its opening `"`.
    fn skip_string(&mut self) {
        self.bump();
        while let Some(c) = self.peek(0) {
            self.bump();
            match c {
                '\\' => self.bump(),
                '"' => break,
                _ => {}
            }
        }
    }

    /// From a `'`: skips a char literal (`'x'`, `'"'`, `'\''`,
    /// `'\u{…}'`), or returns a lifetime or loop label (`'a`).
    fn char_or_lifetime(&mut self) -> Option<String> {
        self.bump();
        if self.peek(0) == Some('\\') {
            self.bump();
            self.bump();
            self.take_while(|c| c != '\'');
            self.bump();
        } else if self.peek(1) == Some('\'') && self.peek(0) != Some('\'') {
            self.bump();
            self.bump();
        } else {
            let name = self.take_while(is_ident_char);
            return (!name.is_empty()).then(|| format!("'{name}"));
        }
        None
    }

    /// An integer or float literal, suffix included. A `.` starts a
    /// fraction only before a digit (`0..n` is a range), and a `-`
    /// after the exponent marker belongs to the literal (`1e-7`).
    fn number(&mut self) -> String {
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut text = self.take_while(word);
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            text.push('.');
            text += &self.take_while(word);
        }
        if (text.ends_with('e') || text.ends_with('E'))
            && self.peek(0) == Some('-')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.bump();
            text.push('-');
            text += &self.take_while(word);
        }
        text
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Builds the token forest. Rust is delimiter-balanced in practice; a
/// stray close delimiter is kept as a leaf and an unterminated group
/// simply ends at EOF, so malformed input degrades instead of
/// panicking.
pub fn build_trees(toks: &[Tok]) -> Vec<Tree> {
    let mut i = 0usize;
    build_group(toks, &mut i, None)
}

fn build_group(toks: &[Tok], i: &mut usize, closing: Option<&str>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        match t.kind {
            TokKind::Open => {
                let open = t.clone();
                let delim = open.text.chars().next().unwrap_or('(');
                let want = match delim {
                    '(' => ")",
                    '[' => "]",
                    _ => "}",
                };
                *i += 1;
                let children = build_group(toks, i, Some(want));
                let (close_line, close_col) = if *i < toks.len() {
                    let t = (toks[*i].line, toks[*i].col);
                    *i += 1; // consume the close token
                    t
                } else {
                    (open.line, open.col)
                };
                out.push(Tree::Group {
                    delim,
                    open,
                    close_line,
                    close_col,
                    children,
                });
            }
            TokKind::Close => {
                if Some(t.text.as_str()) == closing {
                    return out; // caller consumes it
                }
                // Stray close (or mismatched) — keep as a leaf.
                out.push(Tree::Leaf(t.clone()));
                *i += 1;
            }
            _ => {
                out.push(Tree::Leaf(t.clone()));
                *i += 1;
            }
        }
    }
    out
}

/// What a brace/bracket/paren group *is*, as far as lints care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeKind {
    /// Body of `fn name(…) { … }`. Carries the function name and the
    /// 1-based line of the `fn` keyword (scoped `lint:allow` comments
    /// directly above that line cover the whole body).
    Fn { name: String, kw_line: usize },
    /// Body of a `for`/`while`/`loop`. Carries the keyword's line.
    Loop { kw_line: usize },
    /// Inside a `const`/`static` item's initializer — named-constant
    /// definitions are where tolerance literals are *supposed* to live.
    ConstInit,
    /// Any other group (blocks, argument lists, types, …).
    Other,
}

/// One entered scope during a [`walk`].
#[derive(Debug, Clone)]
pub struct Scope {
    pub kind: ScopeKind,
    /// Line range of the group (open line ..= close line).
    pub lines: (usize, usize),
}

impl Scope {
    /// The source line a standalone scoped `lint:allow` must sit on to
    /// cover this scope: directly above the introducing keyword.
    pub fn allow_anchor_line(&self) -> usize {
        match &self.kind {
            ScopeKind::Fn { kw_line, .. } | ScopeKind::Loop { kw_line } => *kw_line,
            _ => self.lines.0,
        }
    }
}

/// Walks every sibling list in the forest depth-first. The callback
/// sees `(siblings, index, scope_stack)` for every tree, so passes can
/// inspect neighbours (receiver chains, index targets) and enclosing
/// scopes (loops, functions, const initializers).
pub fn walk<F: FnMut(&[Tree], usize, &[Scope])>(trees: &[Tree], f: &mut F) {
    let mut scopes = Vec::new();
    walk_inner(trees, &mut scopes, f);
}

fn walk_inner<F: FnMut(&[Tree], usize, &[Scope])>(
    trees: &[Tree],
    scopes: &mut Vec<Scope>,
    f: &mut F,
) {
    // Pending classification for the next brace group at this level.
    // `fn` wins over `for` (a `for<'a>` higher-ranked bound in a where
    // clause, or `impl Trait for Type`, must not look like a loop).
    let mut pending: Option<ScopeKind> = None;
    // Set while inside a `const NAME: T = …;` / `static …;` statement
    // at this level; materialized as a ConstInit scope so everything up
    // to the terminating `;` (including nested groups) sees it.
    let mut in_const_stmt = false;
    for (idx, tree) in trees.iter().enumerate() {
        if let Some(t) = tree.as_leaf() {
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" => {
                        // `const fn` is a function, not a constant.
                        if in_const_stmt {
                            in_const_stmt = false;
                            scopes.pop();
                        }
                        let name = trees
                            .get(idx + 1)
                            .and_then(Tree::as_leaf)
                            .filter(|n| n.kind == TokKind::Ident)
                            .map(|n| n.text.clone())
                            .unwrap_or_else(|| "<anon>".to_string());
                        pending = Some(ScopeKind::Fn {
                            name,
                            kw_line: t.line,
                        });
                    }
                    "for" | "while" | "loop" if pending.is_none() => {
                        pending = Some(ScopeKind::Loop { kw_line: t.line });
                    }
                    "const" | "static" => {
                        // `*const T` is a raw-pointer type, not an item
                        // (`'static` lexes as a lifetime, so it never
                        // gets here).
                        let prev_is_ptr = idx
                            .checked_sub(1)
                            .and_then(|p| trees.get(p))
                            .and_then(Tree::as_leaf)
                            .is_some_and(|p| p.is_punct("*"));
                        if pending.is_none() && !in_const_stmt && !prev_is_ptr {
                            in_const_stmt = true;
                            scopes.push(Scope {
                                kind: ScopeKind::ConstInit,
                                lines: (t.line, t.line),
                            });
                        }
                    }
                    "impl" | "trait" | "mod" | "match" | "struct" | "enum" | "union"
                        if pending.is_none() =>
                    {
                        pending = Some(ScopeKind::Other);
                    }
                    _ => {}
                }
            } else if t.is_punct(";") {
                pending = None;
                if in_const_stmt {
                    in_const_stmt = false;
                    scopes.pop();
                }
            }
        }
        f(trees, idx, scopes);
        if let Tree::Group {
            delim,
            open,
            close_line,
            children,
            ..
        } = tree
        {
            let kind = if *delim == '{' {
                pending.take().unwrap_or(ScopeKind::Other)
            } else {
                ScopeKind::Other
            };
            scopes.push(Scope {
                kind,
                lines: (open.line, *close_line),
            });
            walk_inner(children, scopes, f);
            scopes.pop();
        }
    }
    if in_const_stmt {
        scopes.pop();
    }
}

/// Parses raw source to a forest without its test code, plus the
/// comments. Test code is every `#[cfg(test)] mod … { … }`, at any
/// depth, or the whole file when one of its leading inner attributes
/// is `#![cfg(test)]`: that is the out-of-line half of
/// `#[cfg(test)] mod tests;`, whose declaration sits in another file.
pub fn parse(src: &str) -> (Vec<Tree>, Vec<Comment>) {
    let (toks, comments) = tokenize(src);
    let mut trees = build_trees(&toks);
    let mut i = 0;
    while let Some((body, next)) = attr(&trees, i, true) {
        if is_cfg_test(body) {
            return (Vec::new(), comments);
        }
        i = next;
    }
    drop_test_mods(&mut trees);
    (trees, comments)
}

/// The leaf at `sibs[i]`, if there is one.
pub fn leaf_at(sibs: &[Tree], i: usize) -> Option<&Tok> {
    sibs.get(i).and_then(Tree::as_leaf)
}

/// The bracket contents of the attribute `#[…]` (or `#![…]` when
/// `inner`) that starts at `trees[i]`, and the index just past it.
fn attr(trees: &[Tree], i: usize, inner: bool) -> Option<(&[Tree], usize)> {
    leaf_at(trees, i).filter(|t| t.is_punct("#"))?;
    let j = i + 1 + usize::from(inner);
    if inner && !leaf_at(trees, i + 1)?.is_punct("!") {
        return None;
    }
    let body = trees.get(j).filter(|g| g.is_group('['))?.group_children()?;
    Some((body, j + 1))
}

fn is_cfg_test(attr_body: &[Tree]) -> bool {
    matches!(attr_body, [Tree::Leaf(cfg), Tree::Group { delim: '(', children, .. }]
        if cfg.is_ident("cfg") && matches!(children.as_slice(), [Tree::Leaf(t)] if t.is_ident("test")))
}

/// Removes every `#[cfg(test)]` (more attributes, `pub(…)`) `mod name
/// { … }` from `trees` and the groups below it. `#[cfg(test)]` on any
/// other item, and an out-of-line `mod name;`, stay.
fn drop_test_mods(trees: &mut Vec<Tree>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some((_, mut j)) = attr(trees, i, false).filter(|(body, _)| is_cfg_test(body)) {
            while let Some((_, next)) = attr(trees, j, false) {
                j = next;
            }
            if leaf_at(trees, j).is_some_and(|t| t.is_ident("pub")) {
                j += 1 + usize::from(trees.get(j + 1).is_some_and(|g| g.is_group('(')));
            }
            if leaf_at(trees, j).is_some_and(|t| t.is_ident("mod"))
                && trees.get(j + 2).is_some_and(|g| g.is_group('{'))
            {
                trees.drain(i..=j + 2);
                continue;
            }
        }
        if let Tree::Group { children, .. } = &mut trees[i] {
            drop_test_mods(children);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(trees: &[Tree]) -> Vec<String> {
        let mut v = Vec::new();
        walk(trees, &mut |sibs, i, _| {
            if let Some(t) = sibs[i].as_leaf() {
                if t.kind == TokKind::Ident {
                    v.push(t.text.clone());
                }
            }
        });
        v
    }

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).0.into_iter().map(|t| t.text).collect()
    }

    fn has(src: &str, text: &str) -> bool {
        texts(src).iter().any(|t| t == text)
    }

    fn forest_idents(src: &str) -> Vec<String> {
        idents(&parse(src).0)
    }

    #[test]
    fn tokenizer_floats_and_operators() {
        let toks = tokenize("let x = 1e-7; if a <= b && c == d { y += 2.5f64; }").0;
        let lit = toks.iter().find(|t| t.kind == TokKind::Num).unwrap();
        assert_eq!(lit.text, "1e-7");
        assert!(lit.has_negative_exponent());
        assert!(toks.iter().any(|t| t.is_punct("<=")));
        assert!(toks.iter().any(|t| t.is_punct("&&")));
        assert!(toks.iter().any(|t| t.is_punct("+=")));
        assert!(toks.iter().any(|t| t.text == "2.5f64" && t.is_float_lit()));
        // `=` and `==` are distinct tokens.
        assert!(toks.iter().any(|t| t.is_punct("=")));
        assert!(toks.iter().any(|t| t.is_punct("==")));
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = tokenize("for i in 0..n { v[i] = 0; } let r = 1..=8;").0;
        assert!(toks.iter().all(|t| !t.is_float_lit()));
        assert!(toks.iter().any(|t| t.is_punct("..")));
        assert!(toks.iter().any(|t| t.is_punct("..=")));
    }

    #[test]
    fn groups_nest_and_span_lines() {
        let trees = parse("fn f() {\n  g(a[i]);\n}\n").0;
        assert!(matches!(&trees[2], Tree::Group { delim: '(', .. }));
        let Tree::Group {
            delim, close_line, ..
        } = &trees[3]
        else {
            panic!("expected body group")
        };
        assert_eq!(*delim, '{');
        assert_eq!(*close_line, 3);
    }

    #[test]
    fn fn_and_loop_scopes_classify() {
        let src = "fn hot(v: &[f64]) { for i in 0..3 { v2(v[i]); } }";
        let mut seen = Vec::new();
        walk(&parse(src).0, &mut |sibs, i, scopes| {
            if sibs[i].as_leaf().is_some_and(|t| t.is_ident("v2")) {
                seen = scopes.iter().map(|s| s.kind.clone()).collect();
            }
        });
        assert_eq!(seen.len(), 2);
        assert!(matches!(&seen[0], ScopeKind::Fn { name, .. } if name == "hot"));
        assert!(matches!(&seen[1], ScopeKind::Loop { .. }));
    }

    #[test]
    fn impl_for_and_hrtb_for_are_not_loops() {
        let src = "impl Trait for Type { fn m(&self) {} }\n\
                   fn g<F>(f: F) where F: for<'a> Fn(&'a u8) { body(); }";
        let mut bad = false;
        let mut fn_seen = false;
        walk(&parse(src).0, &mut |sibs, i, scopes| {
            if sibs[i].as_leaf().is_some_and(|t| t.is_ident("body")) {
                bad = scopes
                    .iter()
                    .any(|s| matches!(s.kind, ScopeKind::Loop { .. }));
                fn_seen = scopes
                    .iter()
                    .any(|s| matches!(&s.kind, ScopeKind::Fn { name, .. } if name == "g"));
            }
        });
        assert!(!bad, "impl-for / HRTB `for` misread as a loop");
        assert!(fn_seen);
    }

    #[test]
    fn const_initializers_are_const_scope() {
        let src =
            "const EPS: f64 = 1e-9;\nstatic T: [f64; 2] = [1e-7, 2e-7];\nfn f() { let x = 1e-7; }";
        let mut const_hits = 0;
        let mut loose = 0;
        walk(&parse(src).0, &mut |sibs, i, scopes| {
            if sibs[i].as_leaf().is_some_and(Tok::has_negative_exponent) {
                if scopes.iter().any(|s| s.kind == ScopeKind::ConstInit) {
                    const_hits += 1;
                } else {
                    loose += 1;
                }
            }
        });
        assert_eq!(const_hits, 3); // 1e-9 + the two static array entries
        assert_eq!(loose, 1);
    }

    #[test]
    fn stray_close_delims_do_not_panic() {
        assert!(forest_idents(") } ] fn f() { ok(); }").contains(&"ok".to_string()));
    }

    // ---- literals, comments and test code ----
    // Each case pins a way the tokenizer could let quoted or commented
    // text pass for code, or swallow real code after a literal.

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = "let a = 1; // x.unwrap()\nlet b = \"y.unwrap()\";\n/* multi\nline */ let c;";
        let (toks, comments) = tokenize(src);
        assert!(toks.iter().all(|t| t.text != "unwrap"));
        let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!((c.line, c.col), (4, 13));
        assert_eq!(comments.len(), 2);
        assert!(!comments[0].standalone && comments[1].standalone);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* a /* b */ still comment */ real.unwrap()";
        assert_eq!(texts(src), ["real", ".", "unwrap", "(", ")"]);
        assert!(tokenize(src).1[0].standalone);
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let r = r#\"x.unwrap() \"inner\" \"#; let c = '\\''; let q = 'u'; fn f<'a>() {}";
        assert!(!has(src, "unwrap") && !has(src, "inner") && !has(src, "u"));
        let toks = tokenize(src).0;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.expect(\"z\"); }\n}\n";
        let ids = forest_idents(src);
        assert!(ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()) && !ids.contains(&"tests".to_string()));
        // Nested, with more attributes and a visibility in between.
        let src = "mod m {\n#[cfg(test)]\n#[allow(dead_code)]\npub(crate) mod t { fn t() { y.unwrap(); } }\n}\n";
        assert!(!forest_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn inner_cfg_test_excludes_the_whole_file() {
        let src = "// Out-of-line half of `#[cfg(test)] mod tests;`.\n\
                   #![allow(dead_code)]\n#![cfg(test)]\nfn t() { y.unwrap(); }\n";
        assert!(parse(src).0.is_empty(), "test file must be dropped");
        // An inner attribute further down is not a file-level marker.
        let src = "fn live() { x.unwrap(); }\nmod m {\n#![cfg(test)]\n}\n";
        assert!(forest_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn cfg_test_on_non_mod_items_is_kept() {
        let src = "#[cfg(test)]\nfn helper() { a.unwrap(); }\n";
        assert!(forest_idents(src).contains(&"unwrap".to_string()));
        // An out-of-line declaration has no body to drop.
        let src = "#[cfg(test)]\nmod tests;\nfn live() { a.unwrap(); }\n";
        assert!(forest_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn c_and_byte_raw_string_literals_are_skipped() {
        // `cr#"…"#` (Rust 1.77 C strings) must not stop at the first
        // inner quote and let the tail leak into the code view.
        let src = "let p = cr#\"leak.unwrap() \"q\" tail\"#; real.unwrap();";
        assert!(!has(src, "leak") && !has(src, "tail"));
        assert_eq!(texts(src).iter().filter(|t| *t == "unwrap").count(), 1);
        for src in [
            "let p = c\"leak.unwrap()\"; real.unwrap();",
            "let p = br\"leak.unwrap()\"; real.unwrap();",
            "let p = b\"leak\\\"\"; let b = b'\"'; real.unwrap();",
        ] {
            assert!(!has(src, "leak"), "{src}");
            assert!(has(src, "real"), "{src}");
        }
    }

    #[test]
    fn cfg_test_with_inner_whitespace_is_recognised() {
        let src = "#[ cfg( test ) ]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        assert!(!forest_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literal_holding_a_quote_does_not_open_a_string() {
        let src = "let q = '\"'; live.unwrap(); let e = '\\\"'; more.unwrap();";
        assert!(has(src, "live") && has(src, "more"));
    }

    #[test]
    fn lifetime_ticks_are_not_char_literals() {
        let src = "fn f<'a, 'de>(x: &'a str, y: &'static str, z: &'_ u8) { 'outer: loop { break 'outer; } }";
        let toks = tokenize(src).0;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            lifetimes,
            ["'a", "'de", "'a", "'static", "'_", "'outer", "'outer"]
        );
        for id in ["str", "u8", "loop", "break"] {
            assert!(toks.iter().any(|t| t.is_ident(id)), "{id}");
        }
    }

    #[test]
    fn deeply_nested_block_comments() {
        let src = "/* 1 /* 2 /* 3 */ 2 */ 1 */ code.unwrap()";
        assert_eq!(texts(src), ["code", ".", "unwrap", "(", ")"]);
    }

    #[test]
    fn quote_inside_comment_does_not_open_a_string() {
        let src = "// a \" stray quote\nlive.unwrap();\n/* another \" one */ more.unwrap();";
        assert!(has(src, "live") && has(src, "more"));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let src = "let r#match = 1; r#match.unwrap();";
        assert_eq!(texts(src).iter().filter(|t| *t == "r#match").count(), 2);
        assert!(has(src, "unwrap"));
    }

    #[test]
    fn comments_are_kept_but_string_contents_are_not() {
        let src = "// lint:allow(x): reason\nlet s = \"lint:allow(y)\";";
        let (toks, comments) = tokenize(src);
        assert_eq!(
            comments,
            [Comment {
                line: 1,
                standalone: true,
                text: "// lint:allow(x): reason".to_string(),
            }]
        );
        assert!(toks.iter().all(|t| !t.text.contains("lint")));
    }

    #[test]
    fn unterminated_literals_do_not_panic_or_leak() {
        for src in ["let s = \"open", "let r = r#\"open", "let c = '", "/* open"] {
            assert!(!has(src, "open"), "{src}");
        }
    }
}
