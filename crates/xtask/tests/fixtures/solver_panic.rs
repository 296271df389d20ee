//@ path: crates/milp/src/branch.rs
// Fixture: the panic and rounding-cast lints, with span interplay.

fn flagged(xs: &[f64]) -> f64 {
    let first = xs.first().unwrap(); //~ solver-unwrap
    let cmp = xs[0].partial_cmp(first).unwrap(); //~ partial-cmp-unwrap //~ solver-unwrap
    let n = (first * 2.0).round() as usize; //~ float-as-int
    let _ = (cmp, n);
    *first
}

fn propagating_is_fine(xs: &[f64]) -> Option<f64> {
    let first = xs.first()?;
    Some(*first)
}

fn strings_and_comments_do_not_count() {
    // a comment mentioning .unwrap() is not a finding
    let _s = "neither is .unwrap() in a string";
}

#[cfg(test)]
mod tests {
    fn test_code_may_unwrap(xs: &[f64]) -> f64 {
        *xs.first().unwrap()
    }
}
