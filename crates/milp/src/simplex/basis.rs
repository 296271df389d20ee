//! Basis snapshots.

/// A basis snapshot: which column is basic in each row, and at which bound
/// each nonbasic real column rests.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Basic column per row (may include artificial columns pinned at 0).
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper flag for the `n + m` real columns.
    pub at_upper: Vec<bool>,
}
