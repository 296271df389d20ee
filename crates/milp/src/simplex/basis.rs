//! Basis snapshots, and their re-targeting onto a changed model.

/// A basis snapshot: which column is basic in each row, and at which bound
/// each nonbasic real column rests.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Basic column per row (may include artificial columns pinned at 0).
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper flag for the `n + m` real columns.
    pub at_upper: Vec<bool>,
}

impl Basis {
    /// Re-targets this basis, recorded against one model, onto another
    /// model whose variables and constraints are matched *by name*.
    ///
    /// Column layout in both models follows [`StandardForm`]: `n`
    /// structural columns in variable order, then `m` slacks (with
    /// the slack of row `i` at column `n + i`), so slacks are matched
    /// through their row's name. Basic structural columns whose name
    /// survives map over; vanished columns leave their row to be
    /// covered by their own slack when it is still free, and by an
    /// artificial (`n + m + row`) otherwise. [`solve_lp_warm`] pins
    /// artificials to zero and repairs the result — or falls back to
    /// the slack crash when it is unusable — so remapping can only
    /// change how much repair work the next solve does, never its
    /// final objective.
    ///
    /// [`StandardForm`]: crate::standard::StandardForm
    /// [`solve_lp_warm`]: super::solve_lp_warm
    // lint:allow(hot-path-index): column remap over arrays allocated to the new width on entry
    pub fn remap(
        &self,
        old_vars: &[String],
        old_rows: &[String],
        new_vars: &[String],
        new_rows: &[String],
    ) -> Basis {
        use std::collections::HashMap;
        let (old_n, old_m) = (old_vars.len(), old_rows.len());
        let (new_n, new_m) = (new_vars.len(), new_rows.len());
        let var_index: HashMap<&str, usize> = new_vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();
        let row_index: HashMap<&str, usize> = new_rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.as_str(), i))
            .collect();
        // Map an old column index to the same-named new column.
        let map_col = |j: usize| -> Option<usize> {
            if j < old_n {
                var_index.get(old_vars[j].as_str()).copied()
            } else if j < old_n + old_m {
                // Slack of old row `j - old_n` -> slack of the same-named
                // new row.
                row_index
                    .get(old_rows[j - old_n].as_str())
                    .copied()
                    .map(|r| new_n + r)
            } else {
                // Artificials never survive a remap.
                None
            }
        };

        let n0 = new_n + new_m;
        let mut basis = vec![usize::MAX; new_m];
        let mut used = vec![false; n0];
        for (old_row, &bj) in self.basis.iter().enumerate() {
            let Some(new_col) = map_col(bj) else {
                continue;
            };
            let Some(&new_row) = old_rows
                .get(old_row)
                .and_then(|name| row_index.get(name.as_str()))
            else {
                continue;
            };
            if basis[new_row] == usize::MAX && !used[new_col] {
                basis[new_row] = new_col;
                used[new_col] = true;
            }
        }
        // Cover rows whose basic column vanished: own slack when free,
        // else the row's artificial (repaired or rejected downstream).
        for (row, b) in basis.iter_mut().enumerate() {
            if *b == usize::MAX {
                let slack = new_n + row;
                if !used[slack] {
                    *b = slack;
                    used[slack] = true;
                } else {
                    *b = n0 + row;
                }
            }
        }
        // Bound sides carry over by name; unmatched columns rest on
        // their lower bound.
        let mut at_upper = vec![false; n0];
        for (j, &up) in self.at_upper.iter().enumerate() {
            if up {
                if let Some(new_col) = map_col(j) {
                    at_upper[new_col] = true;
                }
            }
        }
        Basis { basis, at_upper }
    }
}
