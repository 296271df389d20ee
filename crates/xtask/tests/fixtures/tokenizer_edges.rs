//@ path: crates/milp/src/model.rs
// Fixture: literals, comments and test code the tokenizer must skip,
// and the real code right after them that it must not swallow.

fn quoted_unwraps_are_not_code() -> usize {
    let raw = r#"xs.first().unwrap() "quoted" .expect("x")"#;
    let bytes = b"ys.first().unwrap()";
    /* outer /* inner */ zs.first().unwrap() */
    raw.len() + bytes.len()
}

fn unwrap_after_a_quote_char(xs: &[char]) -> char {
    let q = '"'; let first = *xs.first().unwrap(); //~ solver-unwrap
    if first == q { first } else { *xs.last().unwrap() } //~ solver-unwrap
}

fn directive_in_a_string_suppresses_nothing(xs: &[u8]) -> u8 {
    let _s = "// lint:allow(solver-unwrap): quoted, not a comment";
    *xs.first().unwrap() //~ solver-unwrap
}

fn raw_identifier_is_code(xs: &[u8]) -> u8 {
    let r#match = xs.first();
    *r#match.unwrap() //~ solver-unwrap
}

#[ cfg( test ) ]
pub(crate) mod t {
    fn test_code_may_unwrap(xs: &[u8]) -> u8 {
        *xs.first().unwrap()
    }
}
