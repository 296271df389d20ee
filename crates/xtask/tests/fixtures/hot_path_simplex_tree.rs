//@ path: crates/milp/src/simplex/dual.rs
// Fixture: the hot-path scope covers the simplex module tree by
// directory, so a file that did not exist when the scope was written
// is linted like the single `simplex.rs` it was split from.

fn flagged(dw: &[f64], basis: &[usize], x: &[f64]) -> f64 {
    let mut best = 0.0;
    for i in 0..basis.len() {
        let merit = x[basis[i]] / dw[i]; //~ hot-path-index //~ hot-path-index //~ hot-path-index
        if merit > best {
            best = merit;
        }
    }
    best
}

// lint:allow(hot-path-index): fixture — rows bounded by m
fn scoped_allow_is_honored(dw: &mut [f64], row: usize) {
    loop {
        dw[row] = 1.0;
    }
}
