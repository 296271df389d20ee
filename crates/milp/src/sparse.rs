//! Compressed sparse column (CSC) matrix used by the simplex engine.

use crate::cast;

/// A read-only CSC matrix with a row-major mirror.
///
/// Columns are contiguous `(row, value)` runs; the simplex engine iterates
/// columns during pricing (`d_j = c_j − yᵀA_j`) and FTRAN. The row-major
/// mirror (built once at construction) serves the pricing engine's α-row
/// kernel: given the BTRAN'd pivot row `ρ`, the updates `α_j = ρᵀA_j`
/// only touch columns with a nonzero in some row where `ρ` is nonzero,
/// which row iteration finds without scanning every column.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_starts: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
    row_starts: Vec<usize>,
    col_idx: Vec<u32>,
    row_values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from per-column `(row, value)` lists.
    ///
    /// Entries within a column need not be sorted; duplicates are summed.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn from_columns(rows: usize, columns: &[Vec<(usize, f64)>]) -> Self {
        let mut col_starts = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_starts.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for col in columns {
            scratch.clear();
            scratch.extend_from_slice(col);
            scratch.sort_unstable_by_key(|(r, _)| *r);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(scratch.len());
            for &(r, v) in &scratch {
                assert!(r < rows, "row index {r} out of range ({rows} rows)");
                match merged.last_mut() {
                    Some((lr, lv)) if *lr == r => *lv += v,
                    _ => merged.push((r, v)),
                }
            }
            for (r, v) in merged {
                if v != 0.0 {
                    row_idx.push(cast::idx32(r));
                    values.push(v);
                }
            }
            col_starts.push(row_idx.len());
        }
        // Row-major mirror by counting sort: one pass to size each row,
        // one pass to place every entry in column order within its row.
        let mut row_starts = vec![0usize; rows + 1];
        for &r in &row_idx {
            row_starts[cast::idx(r) + 1] += 1;
        }
        for i in 0..rows {
            row_starts[i + 1] += row_starts[i];
        }
        let mut cursor = row_starts.clone();
        let mut col_idx = vec![0u32; row_idx.len()];
        let mut row_values = vec![0.0f64; row_idx.len()];
        for col in 0..columns.len() {
            for k in col_starts[col]..col_starts[col + 1] {
                let r = cast::idx(row_idx[k]);
                col_idx[cursor[r]] = cast::idx32(col);
                row_values[cursor[r]] = values[k];
                cursor[r] += 1;
            }
        }
        Self {
            rows,
            cols: columns.len(),
            col_starts,
            row_idx,
            values,
            row_starts,
            col_idx,
            row_values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row indices and values of one column, as parallel slices.
    pub fn column_slices(&self, col: usize) -> (&[u32], &[f64]) {
        let span = self.col_starts[col]..self.col_starts[col + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Iterates the `(row, value)` entries of one column.
    pub fn column(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, values) = self.column_slices(col);
        rows.iter().zip(values).map(|(r, v)| (cast::idx(*r), *v))
    }

    /// Computes the dot product `yᵀ A_j` for one column.
    pub fn column_dot(&self, col: usize, y: &[f64]) -> f64 {
        self.column(col).map(|(r, v)| v * y[r]).sum()
    }

    /// Scatters one column into a dense vector: `out += scale * A_j`.
    pub fn scatter_column(&self, col: usize, scale: f64, out: &mut [f64]) {
        for (r, v) in self.column(col) {
            out[r] += scale * v;
        }
    }

    /// Iterates the `(col, value)` entries of one row (the row-major
    /// mirror), in ascending column order.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_starts[row];
        let end = self.row_starts[row + 1];
        self.col_idx[start..end]
            .iter()
            .zip(&self.row_values[start..end])
            .map(|(c, v)| (cast::idx(*c), *v))
    }

    /// Number of stored nonzeros in one row.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_starts[row + 1] - self.row_starts[row]
    }
}

/// Append-only CSC storage that grows one column at a time.
///
/// [`CscMatrix`] is built in one shot from complete columns; the sparse
/// LU factorization instead discovers the columns of `L` and `U` during
/// elimination and appends them as it goes, so it needs a builder that
/// seals columns incrementally. Entries within the open column may be
/// pushed in any order; no sorting or merging is performed.
#[derive(Debug, Clone)]
pub struct CscStore {
    col_starts: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CscStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CscStore {
    /// An empty store with no columns.
    pub fn new() -> Self {
        Self {
            col_starts: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Drops every column, keeping the allocation.
    pub fn clear(&mut self) {
        self.col_starts.truncate(1);
        self.row_idx.clear();
        self.values.clear();
    }

    /// Appends one entry to the open (not yet finished) column.
    pub fn push_entry(&mut self, row: usize, value: f64) {
        self.row_idx.push(cast::idx32(row));
        self.values.push(value);
    }

    /// Seals the open column; subsequent entries start the next one.
    pub fn finish_column(&mut self) {
        self.col_starts.push(self.row_idx.len());
    }

    /// Number of sealed columns.
    pub fn num_cols(&self) -> usize {
        self.col_starts.len() - 1
    }

    /// Number of stored entries across sealed and open columns.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of entries in one sealed column.
    pub fn column_len(&self, col: usize) -> usize {
        self.col_starts[col + 1] - self.col_starts[col]
    }

    /// The row indices of one sealed column, in stored order.
    pub(crate) fn column_rows(&self, col: usize) -> &[u32] {
        &self.row_idx[self.col_starts[col]..self.col_starts[col + 1]]
    }

    /// Iterates the `(row, value)` entries of one sealed column.
    pub fn column(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.col_starts[col];
        let end = self.col_starts[col + 1];
        self.row_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(r, v)| (cast::idx(*r), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CscMatrix::from_columns(2, &[vec![(0, 1.0)], vec![(1, 3.0)], vec![(0, 2.0)]])
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn column_iteration() {
        let m = sample();
        let col: Vec<_> = m.column(2).collect();
        assert_eq!(col, vec![(0, 2.0)]);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CscMatrix::from_columns(2, &[vec![(0, 1.0), (0, 2.0), (1, 5.0), (1, -5.0)]]);
        let col: Vec<_> = m.column(0).collect();
        assert_eq!(col, vec![(0, 3.0)]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn dot_and_scatter() {
        let m = sample();
        assert_eq!(m.column_dot(0, &[2.0, 7.0]), 2.0);
        assert_eq!(m.column_dot(1, &[2.0, 7.0]), 21.0);
        let mut out = vec![0.0; 2];
        m.scatter_column(2, 2.0, &mut out);
        assert_eq!(out, vec![4.0, 0.0]);
    }

    #[test]
    fn row_mirror_matches_columns() {
        let m = sample();
        let r0: Vec<_> = m.row(0).collect();
        assert_eq!(r0, vec![(0, 1.0), (2, 2.0)]);
        let r1: Vec<_> = m.row(1).collect();
        assert_eq!(r1, vec![(1, 3.0)]);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        // Every column entry appears exactly once in the row mirror.
        let mut from_rows: Vec<(usize, usize, f64)> = (0..m.rows())
            .flat_map(|r| m.row(r).map(move |(c, v)| (r, c, v)))
            .collect();
        let mut from_cols: Vec<(usize, usize, f64)> = (0..m.cols())
            .flat_map(|c| m.column(c).map(move |(r, v)| (r, c, v)))
            .collect();
        from_rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        from_cols.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(from_rows, from_cols);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        CscMatrix::from_columns(1, &[vec![(1, 1.0)]]);
    }

    #[test]
    fn store_grows_column_by_column() {
        let mut s = CscStore::new();
        s.push_entry(2, 1.5);
        s.push_entry(0, -2.0);
        s.finish_column();
        s.finish_column(); // empty column
        s.push_entry(1, 4.0);
        s.finish_column();
        assert_eq!(s.num_cols(), 3);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.column_len(0), 2);
        assert_eq!(s.column_len(1), 0);
        let c0: Vec<_> = s.column(0).collect();
        assert_eq!(c0, vec![(2, 1.5), (0, -2.0)]);
        let c2: Vec<_> = s.column(2).collect();
        assert_eq!(c2, vec![(1, 4.0)]);
    }
}
