//@ path: crates/sim/src/metrics.rs
// Fixture: a `partial_cmp` that is unwrapped or defaulted is one lint
// in every crate, not only in the solver's.

use std::cmp::Ordering::Equal;

fn defaulted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).map_or(Equal, |o| o)); //~ partial-cmp-unwrap
    v.sort_by(|a, b| b.partial_cmp(a).map_or_else(|| Equal, |o| o)); //~ partial-cmp-unwrap
    v
}

fn unwrapped(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).unwrap() == Equal //~ partial-cmp-unwrap
}

fn total_order_is_fine(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn propagated_none_is_fine(a: f64, b: f64) -> Option<bool> {
    Some(a.partial_cmp(&b)? == Equal)
}
