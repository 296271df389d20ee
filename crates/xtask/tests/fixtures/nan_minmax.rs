//@ path: crates/milp/src/branching.rs
// Fixture: NaN-discarding float min/max and partial_cmp defaulting.

fn flagged(x: f64, xs: &[f64]) -> f64 {
    let a = x.max(0.0); //~ nan-min-max
    let b = (x * 2.0).min(1.5); //~ nan-min-max
    let c = xs.iter().cloned().fold(f64::NAN, f64::max); //~ nan-min-max
    let d = f64::min(a, b); //~ nan-min-max
    a + b + c + d
}

fn defaulting_partial_cmp(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).map_or(std::cmp::Ordering::Equal, |o| o)); //~ partial-cmp-unwrap
}

fn integer_minmax_is_fine(n: usize, m: i64) -> usize {
    let k = n.max(1); // bare int literal proves an integer receiver
    k.min(m.max(0) as usize) //~ as-cast-audit
}

fn no_float_evidence_is_skipped(a: Metric, b: Metric) -> Metric {
    a.max(b) // could be Ord::max on any type — heuristic stays quiet
}

// lint:allow(nan-min-max): fixture — inputs proven finite by the caller
fn allowed(x: f64) -> f64 {
    x.max(0.0)
}
