//! A minimal Rust source "masker" for the lint pass.
//!
//! The lints in this crate are substring scans, which are only sound if
//! comments, string/char literals and test code cannot produce false
//! matches. Rather than parse Rust properly (no `syn` in the offline
//! build), we blank those regions out: [`mask_source`] replaces the
//! *contents* of comments and literals with spaces while preserving
//! newlines (so byte offsets keep mapping to the right line numbers),
//! and [`mask_test_mods`] additionally blanks every `#[cfg(test)] mod`
//! block. Scanning the masked text then only ever sees real code.

/// Replaces comment and string/char-literal contents with spaces.
///
/// Handles line comments, nested block comments, plain and raw (and
/// byte/raw-byte/C-string) string literals, escapes inside strings, and
/// the char-literal-versus-lifetime ambiguity (`'a'` is a literal, `'a`
/// in `<'a>` is not). Newlines are preserved verbatim.
pub fn mask_source(src: &str) -> String {
    mask(src, true)
}

/// Like [`mask_source`] but *keeps* comment text, blanking only string
/// and char literal contents. Used when scanning for `lint:allow`
/// comments: the directive must survive, but the same text inside a
/// string literal (say, a lint-engine test fixture) must not register.
pub fn mask_literals(src: &str) -> String {
    mask(src, false)
}

fn mask(src: &str, comments_too: bool) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = chars.clone();
    let blank = |out: &mut [char], i: usize| {
        if out[i] != '\n' {
            out[i] = ' ';
        }
    };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Consume even when keeping comments, so a quote inside a
            // comment can never open a string literal.
            while i < chars.len() && chars[i] != '\n' {
                if comments_too {
                    out[i] = ' ';
                }
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comments nest in Rust.
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    if comments_too {
                        blank(&mut out, i);
                        blank(&mut out, i + 1);
                    }
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    if comments_too {
                        blank(&mut out, i);
                        blank(&mut out, i + 1);
                    }
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if comments_too {
                        blank(&mut out, i);
                    }
                    i += 1;
                }
            }
        } else if c == 'r' && is_raw_string_head(&chars, i) {
            // r"..."  r#"..."#  (possibly after a `b` or `c` prefix,
            // which is just the previous identifier char and needs no
            // handling of its own).
            i += 1;
            let mut hashes = 0usize;
            while chars.get(i) == Some(&'#') {
                hashes += 1;
                i += 1;
            }
            i += 1; // opening quote
            while i < chars.len() {
                if chars[i] == '"' && closes_raw_string(&chars, i, hashes) {
                    i += 1 + hashes;
                    break;
                }
                blank(&mut out, i);
                i += 1;
            }
        } else if c == '"' {
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' {
                    blank(&mut out, i);
                    if i + 1 < chars.len() {
                        blank(&mut out, i + 1);
                    }
                    i += 2;
                } else if chars[i] == '"' {
                    i += 1;
                    break;
                } else {
                    blank(&mut out, i);
                    i += 1;
                }
            }
        } else if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: '\n', '\'', '\u{…}'. The
                // backslash pair is consumed as a unit so '\'' does not
                // end at its own escaped quote.
                blank(&mut out, i + 1);
                if i + 2 < chars.len() {
                    blank(&mut out, i + 2);
                }
                i += 3;
                while i < chars.len() && chars[i] != '\'' {
                    blank(&mut out, i);
                    i += 1;
                }
                i += 1;
            } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                // Plain char literal 'x'.
                blank(&mut out, i + 1);
                i += 3;
            } else {
                // A lifetime — leave it alone.
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out.into_iter().collect()
}

/// True when the `r` at `chars[i]` starts a raw-string literal rather
/// than an identifier: followed by `#`s then `"`, and not itself the
/// tail of an identifier. A preceding `b` (byte string) or `c`
/// (C string, Rust 1.77) one-letter prefix is fine — anything longer is
/// an ordinary identifier ending in `r`.
fn is_raw_string_head(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return false;
    }
    match i.checked_sub(1).and_then(|p| chars.get(p)) {
        None => true,
        Some(&prev) if !is_ident_char(prev) => true,
        Some(&'b') | Some(&'c') => i < 2 || !is_ident_char(chars[i - 2]),
        Some(_) => false,
    }
}

fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blanks every `#[cfg(test)] mod … { … }` block in already-masked
/// source (the lints only police production code; test code may unwrap
/// freely). Attributes between the cfg and the `mod` keyword are
/// skipped; `#[cfg(test)]` on non-mod items is left untouched. A file
/// that is itself a test module — the out-of-line half of
/// `#[cfg(test)] mod tests;`, marked by a leading `#![cfg(test)]` — is
/// blanked whole: the engine scans file by file and cannot see the
/// declaration in the parent.
pub fn mask_test_mods(masked: &str) -> String {
    let chars: Vec<char> = masked.chars().collect();
    if is_test_file(&chars) {
        return chars
            .iter()
            .map(|&c| if c == '\n' { c } else { ' ' })
            .collect();
    }
    let mut out = chars.clone();
    let mut search_from = 0usize;
    while let Some((start, after_attr)) = find_cfg_test(&chars, search_from) {
        let mut i = after_attr;
        // Skip whitespace and any further attributes.
        loop {
            while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                i += 1;
            }
            if chars.get(i) == Some(&'#') && chars.get(i + 1) == Some(&'[') {
                i = skip_delimited(&chars, i + 1, '[', ']');
            } else {
                break;
            }
        }
        // Optional visibility, then the item keyword.
        if lookahead_word(&chars, i) == Some("pub") {
            i += 3;
            while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                i += 1;
            }
            if chars.get(i) == Some(&'(') {
                i = skip_delimited(&chars, i, '(', ')');
                while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                    i += 1;
                }
            }
        }
        if lookahead_word(&chars, i) != Some("mod") {
            search_from = after_attr;
            continue;
        }
        // Find the block body (an out-of-line `mod x;` has none).
        let mut j = i;
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            j += 1;
        }
        if chars.get(j) != Some(&'{') {
            search_from = after_attr;
            continue;
        }
        let end = skip_delimited(&chars, j, '{', '}');
        for slot in out.iter_mut().take(end).skip(start) {
            if *slot != '\n' {
                *slot = ' ';
            }
        }
        search_from = end;
    }
    out.into_iter().collect()
}

/// Whether one of the file's leading inner attributes is `#![cfg(test)]`.
fn is_test_file(chars: &[char]) -> bool {
    let mut i = 0;
    loop {
        while chars.get(i).is_some_and(|c| c.is_whitespace()) {
            i += 1;
        }
        if chars.get(i..i + 3) != Some(&['#', '!', '[']) {
            return false;
        }
        let (body, end) = attr_body(chars, i + 2);
        if body == "cfg(test)" {
            return true;
        }
        i = end;
    }
}

/// The text between the brackets of the attribute whose `[` is at
/// `open`, whitespace removed, and the index just past its `]`.
fn attr_body(chars: &[char], open: usize) -> (String, usize) {
    let end = skip_delimited(chars, open, '[', ']');
    let body = chars[open + 1..end.saturating_sub(1)]
        .iter()
        .filter(|c| !c.is_whitespace())
        .collect();
    (body, end)
}

/// Index just past the delimiter balanced with the opener at `open`.
fn skip_delimited(chars: &[char], open: usize, lhs: char, rhs: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < chars.len() {
        if chars[i] == lhs {
            depth += 1;
        } else if chars[i] == rhs {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    chars.len()
}

fn lookahead_word(chars: &[char], i: usize) -> Option<&'static str> {
    for word in ["pub", "mod"] {
        let w: Vec<char> = word.chars().collect();
        if chars.get(i..i + w.len()) == Some(&w[..])
            && !chars.get(i + w.len()).is_some_and(|&c| is_ident_char(c))
        {
            return Some(word);
        }
    }
    None
}

/// Finds the next `#[cfg(test)]` attribute at or after `from`,
/// tolerating whitespace anywhere inside the brackets (`#[ cfg( test ) ]`
/// is what a hand-edited file may contain; rustfmt would normalise it,
/// but the masker must not depend on that). Returns the index of the
/// `#` and the index just past the closing `]`.
fn find_cfg_test(chars: &[char], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < chars.len() {
        if chars[i] == '#' && chars.get(i + 1) == Some(&'[') {
            let (body, end) = attr_body(chars, i + 1);
            if body == "cfg(test)" {
                return Some((i, end));
            }
            i = end.max(i + 1);
        } else {
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = 1; // x.unwrap()\nlet b = \"y.unwrap()\";\n/* multi\nline */ let c;";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let a = 1;"));
        assert!(m.contains("let b ="));
        assert!(m.contains("let c;"));
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* a /* b */ still comment */ real.unwrap()";
        let m = mask_source(src);
        assert!(m.contains("real.unwrap()"));
        assert!(!m.contains("still"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let r = r#\"x.unwrap() \"inner\" \"#; let c = '\\''; let q = 'u'; fn f<'a>() {}";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("inner"));
        assert!(m.contains("fn f<'a>() {}"));
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.expect(\"z\"); }\n}\n";
        let m = mask_test_mods(&mask_source(src));
        assert!(m.contains("x.unwrap()"));
        assert!(!m.contains("y.expect"));
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn inner_cfg_test_excludes_the_whole_file() {
        let src = "// Out-of-line half of `#[cfg(test)] mod tests;`.\n\
                   #![allow(dead_code)]\n#![cfg(test)]\nfn t() { y.unwrap(); }\n";
        let m = mask_test_mods(&mask_source(src));
        assert!(m.trim().is_empty(), "test file must be blanked: {m:?}");
        assert_eq!(m.lines().count(), src.lines().count());
        // An inner attribute further down is not a file-level marker.
        let src = "fn live() { x.unwrap(); }\nmod m {\n#![cfg(test)]\n}\n";
        assert!(mask_test_mods(&mask_source(src)).contains("unwrap"));
    }

    #[test]
    fn cfg_test_on_non_mod_items_is_kept() {
        let src = "#[cfg(test)]\nfn helper() { a.unwrap(); }\n";
        let m = mask_test_mods(&mask_source(src));
        assert!(m.contains("a.unwrap()"));
    }

    // ---- hardening battery ----
    // Each case below pins a way the masker used to go wrong (or could
    // plausibly go wrong after a refactor). The first two failed before
    // the fixes that landed with them.

    #[test]
    fn c_string_raw_literal_is_masked() {
        // `cr#"…"#` (Rust 1.77 C strings) previously fell through to the
        // plain-string scanner, which stopped at the first inner quote
        // and let the tail leak into the "code" view.
        let src = "let p = cr#\"leak.unwrap() \"q\" tail\"#; real.unwrap();";
        let m = mask_source(src);
        assert!(!m.contains("leak"));
        assert!(!m.contains("tail"));
        assert!(m.contains("real.unwrap()"));
        // Plain C strings go through the ordinary string scanner.
        let m2 = mask_source("let p = c\"leak.unwrap()\"; real.unwrap();");
        assert!(!m2.contains("leak"));
        assert!(m2.contains("real.unwrap()"));
    }

    #[test]
    fn cfg_test_with_inner_whitespace_is_recognised() {
        // `#[cfg( test )]` previously missed the exact-substring match
        // and the whole test mod leaked into the lint scan.
        let src = "#[cfg( test )]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        let m = mask_test_mods(&mask_source(src));
        assert!(!m.contains("y.unwrap()"));
    }

    #[test]
    fn char_literal_holding_a_quote_does_not_open_a_string() {
        // If the `"` inside '"' survived, everything after it would be
        // treated as a string and blanked.
        let src = "let q = '\"'; live.unwrap(); let e = '\\\"'; more.unwrap();";
        let m = mask_source(src);
        assert!(m.contains("live.unwrap()"));
        assert!(m.contains("more.unwrap()"));
    }

    #[test]
    fn lifetime_ticks_are_not_char_literals() {
        let src = "fn f<'a, 'de>(x: &'a str, y: &'static str, z: &'_ u8) { 'outer: loop { break 'outer; } }";
        let m = mask_source(src);
        assert_eq!(m, src); // nothing to blank — and nothing mangled
    }

    #[test]
    fn deeply_nested_block_comments() {
        let src = "/* 1 /* 2 /* 3 */ 2 */ 1 */ code.unwrap()";
        let m = mask_source(src);
        assert!(m.contains("code.unwrap()"));
        assert!(!m.contains('1'));
    }

    #[test]
    fn quote_inside_comment_does_not_open_a_string() {
        let src = "// a \" stray quote\nlive.unwrap();\n/* another \" one */ more.unwrap();";
        let m = mask_source(src);
        assert!(m.contains("live.unwrap()"));
        assert!(m.contains("more.unwrap()"));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let src = "let r#match = 1; r#match.unwrap();";
        let m = mask_source(src);
        assert!(m.contains("r#match.unwrap()"));
    }

    #[test]
    fn mask_literals_keeps_comments_but_blanks_strings() {
        let src = "// lint:allow(x): reason\nlet s = \"lint:allow(y)\";";
        let m = mask_literals(src);
        assert!(m.contains("lint:allow(x): reason"));
        assert!(!m.contains("lint:allow(y)"));
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn unterminated_literals_do_not_panic_or_leak() {
        for src in ["let s = \"open", "let r = r#\"open", "let c = '"] {
            let m = mask_source(src);
            assert!(!m.contains("open"));
        }
    }
}
