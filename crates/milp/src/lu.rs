//! Sparse LU factorization of a simplex basis, under Forrest–Tomlin
//! updates: [`FtFactors`].
//!
//! A factorization is left-looking (Gilbert–Peierls) elimination with a
//! static column ordering by nonzero count — a cheap Markowitz-style
//! merit that sends slack/identity columns through first, where they
//! cause no fill — magnitude pivoting within each column, and a symbolic
//! depth-first reach so each step costs time proportional to the fill it
//! actually produces. It runs in place: each basis column is read once,
//! a unit column on an unpivoted row skips the reach and the pivot scan,
//! and every arena and workspace is kept for the next one.
//!
//! Between factorizations, Forrest–Tomlin updates modify `U` in place per
//! pivot, keeping the factorization genuinely triangular so `ftran` /
//! `btran` residuals stay bounded between refactorizations — where a
//! product-form *eta file*, one rank-one eta appended per pivot, loses
//! sparsity and accuracy on long pivot sequences
//! (`tests/dual_differential.rs` keeps one to show it).
//!
//! Most of a simplex basis is unit columns (slacks, artificials), whose
//! steps have an empty `L` column and — until an update replaces them —
//! an empty `U` column over a diagonal of 1.0. The solves walk only the
//! steps that are not such: a skipped step would subtract nothing and
//! divide by 1.0, so every result is the one a sweep over all `m` steps
//! gives, bit for bit.

use crate::cast;
use crate::nan::NanGuard;
use crate::sparse::CscStore;
use crate::tol;

/// One refactorization's workspace and output, kept from one to the next
/// so that none allocates once its arenas have grown. The factors are
/// built here, named as in [`FtFactors`], and swapped in only when the
/// basis proves nonsingular: a failed refactorization leaves the live
/// factors as they were.
#[derive(Debug, Clone, Default)]
struct Elimination {
    /// The basis, read once: slot `j`'s entries are
    /// `cols[col_start[j]..col_start[j + 1]]`.
    cols: Vec<(u32, f64)>,
    col_start: Vec<usize>,
    /// Slots in elimination order, and the counting sort's buckets.
    order: Vec<usize>,
    bucket: Vec<usize>,
    /// Step that pivoted each row, or MAX while the row is unpivoted.
    row_to_step: Vec<usize>,
    /// Dense numeric workspace; `live[r] == epoch` marks the rows of
    /// `x` holding values for the current column.
    x: Vec<f64>,
    live: Vec<u32>,
    step_seen: Vec<u32>,
    pattern: Vec<usize>,
    reach: Vec<usize>,
    stack: Vec<(usize, usize)>,
    pivot_row: Vec<usize>,
    slot_of_step: Vec<usize>,
    l: CscStore,
    u: Segments,
    diag: Vec<f64>,
}

impl Elimination {
    /// Factorizes the `m`-column basis whose column `slot` is the sparse
    /// `(row, value)` sequence `column(slot)`, duplicates summed, into
    /// this workspace's factors: step `k` eliminates slot
    /// `slot_of_step[k]` on row `pivot_row[k]`, `L` is unit lower
    /// triangular with the diagonal implicit, and `U`'s off-diagonals are
    /// indexed by *earlier step*, its diagonal kept apart. Returns false
    /// when the basis is numerically singular (no remaining pivot exceeds
    /// the positive `pivot_tol` in magnitude).
    // lint:allow(hot-path-index): Markowitz elimination kernel; row/col indices live in the m-sized pattern built above
    fn run<I: Iterator<Item = (usize, f64)>>(
        &mut self,
        m: usize,
        column: impl Fn(usize) -> I,
        pivot_tol: f64,
    ) -> bool {
        let Self {
            cols,
            col_start,
            order,
            bucket,
            row_to_step,
            x,
            live,
            step_seen,
            pattern,
            reach,
            stack,
            pivot_row,
            slot_of_step,
            l,
            u,
            diag,
        } = self;
        cols.clear();
        col_start.clear();
        for slot in 0..m {
            col_start.push(cols.len());
            cols.extend(column(slot).map(|(r, v)| (cast::idx32(r), v)));
        }
        col_start.push(cols.len());
        // Static column order: fewest nonzeros first, ties in slot order
        // (a stable counting sort on the lengths). Identity-like columns
        // (slacks, artificials) eliminate without fill, which keeps the
        // fronts small by the time denser columns arrive.
        let len = |j: usize| col_start[j + 1] - col_start[j];
        bucket.clear();
        bucket.resize((0..m).map(len).max().unwrap_or(0) + 2, 0);
        for j in 0..m {
            bucket[len(j) + 1] += 1;
        }
        for b in 1..bucket.len() {
            bucket[b] += bucket[b - 1];
        }
        order.clear();
        order.resize(m, 0);
        for j in 0..m {
            let next = &mut bucket[len(j)];
            order[*next] = j;
            *next += 1;
        }

        pivot_row.clear();
        slot_of_step.clear();
        l.clear();
        u.reset();
        diag.clear();
        row_to_step.clear();
        row_to_step.resize(m, usize::MAX);
        x.resize(m, 0.0);
        live.clear();
        live.resize(m, u32::MAX);
        step_seen.clear();
        step_seen.resize(m, u32::MAX);

        for (k, &slot) in order.iter().enumerate() {
            let entries = &cols[col_start[slot]..col_start[slot + 1]];
            // A unit column on a row no earlier step pivoted reaches no
            // earlier step and leaves nothing below its pivot: empty `L`
            // and `U` columns, its entry the diagonal.
            if let &[(r, v)] = entries {
                let r = cast::idx(r);
                if row_to_step[r] == usize::MAX {
                    if v.abs() > pivot_tol {
                        row_to_step[r] = k;
                        pivot_row.push(r);
                        slot_of_step.push(slot);
                        diag.push(v);
                        l.finish_column();
                        u.finish_list();
                        continue;
                    }
                    return false; // singular (a negligible unit column)
                }
            }
            let epoch = cast::idx32(k);
            pattern.clear();
            reach.clear();
            // Scatter the column into the workspace.
            for &(r, v) in entries {
                let r = cast::idx(r);
                if live[r] != epoch {
                    live[r] = epoch;
                    x[r] = 0.0;
                    pattern.push(r);
                }
                x[r] += v;
            }
            // Symbolic phase: every earlier step whose pivot row this
            // column (or its fill) can touch, found by DFS through the
            // column structure of `L`. Edges run from earlier to later
            // steps, so ascending step order is a valid topological
            // order for the numeric phase.
            for &(r0, _) in entries {
                let t0 = row_to_step[cast::idx(r0)];
                if t0 == usize::MAX || step_seen[t0] == epoch {
                    continue;
                }
                step_seen[t0] = epoch;
                stack.push((t0, 0));
                while let Some(top) = stack.last_mut() {
                    // Resume scanning L's column `t` where we left off.
                    let (t, cursor) = *top;
                    let mut child: Option<usize> = None;
                    let mut new_cursor = cursor;
                    for &r in l.column_rows(t).get(cursor..).unwrap_or_default() {
                        new_cursor += 1;
                        let t2 = row_to_step[cast::idx(r)];
                        if t2 != usize::MAX && step_seen[t2] != epoch {
                            child = Some(t2);
                            break;
                        }
                    }
                    top.1 = new_cursor;
                    match child {
                        Some(t2) => {
                            step_seen[t2] = epoch;
                            stack.push((t2, 0));
                        }
                        None => {
                            reach.push(t);
                            stack.pop();
                        }
                    }
                }
            }
            reach.sort_unstable();
            // Numeric phase: eliminate with each reached step in order.
            for &t in reach.iter() {
                let pr = pivot_row[t];
                let ut = if live[pr] == epoch { x[pr] } else { 0.0 };
                if ut == 0.0 {
                    continue; // structural fill that cancelled to zero
                }
                u.data.push((cast::idx32(t), ut));
                for (r, lv) in l.column(t) {
                    if live[r] != epoch {
                        live[r] = epoch;
                        x[r] = 0.0;
                        pattern.push(r);
                    }
                    x[r] -= lv * ut;
                }
            }
            // Pivot: largest remaining magnitude among unpivoted rows.
            let mut best_row = usize::MAX;
            let mut best = pivot_tol;
            for &r in pattern.iter() {
                if row_to_step[r] == usize::MAX {
                    let a = x[r].abs();
                    if a > best {
                        best = a;
                        best_row = r;
                    }
                }
            }
            if best_row == usize::MAX {
                return false; // singular (column of the span of prior steps)
            }
            let d = x[best_row];
            row_to_step[best_row] = k;
            pivot_row.push(best_row);
            slot_of_step.push(slot);
            diag.push(d);
            for &r in pattern.iter() {
                if row_to_step[r] == usize::MAX && x[r] != 0.0 {
                    l.push_entry(r, x[r] / d);
                }
            }
            l.finish_column();
            u.finish_list();
        }
        true
    }
}

/// Why a Forrest–Tomlin update was refused (the caller must refactorize
/// before further pivots; the factors are untouched on refusal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtReject {
    /// The replacement diagonal came out non-finite or negligibly small:
    /// the updated basis is (numerically) singular through this column.
    SingularDiagonal,
    /// A row-elimination multiplier grew past the stability cap, so the
    /// update would amplify rounding error instead of bounding it.
    UnstableMultiplier,
    /// No entering column went through [`FtFactors::ftran_entering`]
    /// since the last factorization or update: there is no spike to
    /// insert, and one is never rebuilt from stale data.
    Unstaged,
}

/// `m` growable `(step, value)` lists packed into one arena, for the
/// Forrest–Tomlin mirrors of `U`: a `Vec` per list cost every
/// refactorization — one per branch-and-bound node — `2m` allocations.
/// A list that outgrows its span moves to the arena's end with doubled
/// room; the hole goes when the next refactorization empties the arena.
/// Entry order within a list is exactly that of a `Vec` under `push` and
/// `swap_remove`, so solves sum in the order they always did.
#[derive(Debug, Clone, Default)]
struct Segments {
    /// `(start, len, capacity)` of each list inside `data`.
    spans: Vec<(u32, u32, u32)>,
    data: Vec<(u32, f64)>,
    /// Live entries across all lists.
    nnz: usize,
}

impl Segments {
    /// Empties the arena, keeping its allocation.
    fn reset(&mut self) {
        self.spans.clear();
        self.data.clear();
        self.nnz = 0;
    }

    /// Seals the entries pushed onto `data` since the last list as the
    /// next list, packed (no spare room).
    fn finish_list(&mut self) {
        let start = self.spans.last().map_or(0, |&(start, len, _)| start + len);
        let len = cast::idx32(self.data.len()) - start;
        self.spans.push((start, len, len));
        self.nnz += cast::idx(len);
    }

    fn list(&self, k: usize) -> &[(u32, f64)] {
        let (start, len, _) = self.spans[k];
        &self.data[cast::idx(start)..cast::idx(start + len)]
    }

    fn clear(&mut self, k: usize) {
        self.nnz -= cast::idx(self.spans[k].1);
        self.spans[k].1 = 0;
    }

    fn push(&mut self, k: usize, entry: (u32, f64)) {
        let (mut start, len, cap) = self.spans[k];
        if len == cap {
            let old = cast::idx(start)..cast::idx(start + len);
            start = cast::idx32(self.data.len());
            let room = (2 * cap).max(4);
            self.data.extend_from_within(old);
            self.data.resize(cast::idx(start + room), (0, 0.0));
            self.spans[k] = (start, len, room);
        }
        self.data[cast::idx(start + len)] = entry;
        self.spans[k].1 += 1;
        self.nnz += 1;
    }

    /// Removes the entry keyed `key` from list `k`, if present; the last
    /// entry takes its place.
    fn remove(&mut self, k: usize, key: u32) {
        let (start, len, _) = self.spans[k];
        let list = &mut self.data[cast::idx(start)..cast::idx(start + len)];
        if let Some(at) = list.iter().position(|&(c, _)| c == key) {
            list.swap(at, list.len() - 1);
            self.spans[k].1 -= 1;
            self.nnz -= 1;
        }
    }
}

/// Moves `v[from[k]]` to `v[to[k]]` for every step `k` of `moved` at
/// once, through `scratch`: `from` and `to` are permutations that agree
/// off `moved`, so the entries written are exactly the entries read.
// lint:allow(hot-path-index): from/to are m-permutations; scratch holds an entry per moved step
fn permute_moved(moved: &[u32], from: &[usize], to: &[usize], scratch: &mut [f64], v: &mut [f64]) {
    for (tmp, &k) in scratch.iter_mut().zip(moved) {
        *tmp = v[from[cast::idx(k)]];
    }
    for (&tmp, &k) in scratch.iter().zip(moved) {
        v[to[cast::idx(k)]] = tmp;
    }
}

/// Removes step `k` from `steps`, a list in ascending `pos` stamps, if it
/// is there.
fn unlist(steps: &mut Vec<u32>, pos: &[u32], k: u32) {
    let stamp = |s: u32| pos.get(cast::idx(s)).copied();
    let at = steps.partition_point(|&s| stamp(s) < stamp(k));
    if steps.get(at) == Some(&k) {
        steps.remove(at);
    }
}

/// Sparse LU factors maintained under Forrest–Tomlin column updates.
///
/// A factorization is `B = Pᵀ L U Q`: step `k` eliminates basis column
/// (slot) `slot_of_step[k]` on row `pivot_row[k]`. Updates keep `L` and
/// the row permutation fixed while `U` is *mutated* per basis change: the
/// replaced column becomes the spike, the replaced step moves to the end
/// of a dynamic triangular ordering, and the resulting row spike is
/// eliminated by elementary row operations recorded as row etas. The
/// invariant is
///
/// ```text
/// B = Pᵀ · L · (E₁⁻¹ ⋯ Eₚ⁻¹) · U · Q
/// ```
///
/// with `U` genuinely upper triangular with respect to the maintained
/// ordering — unlike the product-form eta file, whose implicit `U` only
/// degrades as pivots accumulate. `B w = a_q` reads `U Q w = E L⁻¹ P a_q`,
/// so the spike is the entering column's own FTRAN stopped before the `U`
/// solve: [`ftran_entering`](Self::ftran_entering) stages that vector
/// with its nonzero pattern, and [`update`](Self::update) inserts exactly
/// those entries — no pass over `U`, and no exact cancellation of the L
/// and eta stages rebuilt as rounding-level fill. `U` is stored twice
/// (column-wise and row-wise mirrors, both step-indexed) so both the
/// spike insertion and the row elimination run in time proportional to
/// the touched nonzeros.
#[derive(Debug, Clone)]
pub struct FtFactors {
    m: usize,
    /// Row eliminated at each step (fixed at factorization).
    pivot_row: Vec<usize>,
    /// Basis column (slot) of each step. Fixed under updates: a replaced
    /// column keeps its slot and therefore its step index.
    slot_of_step: Vec<usize>,
    /// Inverse of `slot_of_step`.
    step_of_slot: Vec<usize>,
    /// `L` by step: off-diagonal multipliers, indexed by original row.
    l: CscStore,
    /// `U` off-diagonals column-wise: list `t` holds `(row step, value)`.
    u_cols: Segments,
    /// Row-wise mirror: list `k` holds `(column step, value)`.
    u_rows: Segments,
    /// Diagonal of `U` per step.
    diag: Vec<f64>,
    /// Position stamp of each step: ascending stamps are the dynamic
    /// triangular ordering. A factorization stamps step `k` with `k`; an
    /// update moves the replaced step past every other by stamping it
    /// `m` plus the updates before it, which leaves the rest in order.
    pos: Vec<u32>,
    /// Steps whose `L` column is not empty, ascending: the only steps the
    /// `L` solves touch. Fixed at factorization, like `L`.
    l_steps: Vec<u32>,
    /// Steps not [trivial in `U`](Self::trivial_in_u), in position order:
    /// the only steps the `U` solves touch.
    u_steps: Vec<u32>,
    /// Steps whose slot is not their pivot row, ascending: the only
    /// entries the solves' row/slot permutations move. Fixed at
    /// factorization, like both.
    moved: Vec<u32>,
    /// Row etas accumulated since the factorization, in creation order:
    /// the elementary row operations that eliminated each update's row
    /// spike. Eta `e` has `(source step, multiplier)` entries
    /// `eta_data[eta_start[e]..eta_start[e + 1]]`, recorded in elimination
    /// order; in `ftran`, row `eta_target[e]` of the intermediate vector
    /// receives `x[target] -= Σ mu_j · x[source_j]`.
    eta_target: Vec<u32>,
    eta_start: Vec<usize>,
    eta_data: Vec<(u32, f64)>,
    /// Nonzeros at the last factorization (denominator of `fill_ratio`).
    base_nnz: usize,
    /// Updates applied since the last factorization.
    updates: usize,
    /// Workspace of the solves' permutations, one entry per moved step.
    scratch: Vec<f64>,
    /// The staged spike, step-indexed: `spike[k]` holds a value iff
    /// `spike_mark[k] == epoch`, and `spike_pat` lists those steps.
    spike: Vec<f64>,
    spike_mark: Vec<u32>,
    spike_pat: Vec<u32>,
    /// Whether the spike was staged since the last factorization or
    /// update: [`update`](Self::update) consumes it.
    staged: bool,
    /// The staged column's finished FTRAN, for the spike oracle.
    #[cfg(debug_assertions)]
    staged_w: Vec<f64>,
    // Epoch-marked row-elimination scratch for `update`.
    roww: Vec<f64>,
    roww_mark: Vec<u32>,
    epoch: u32,
    /// The next refactorization's workspace.
    work: Elimination,
}

impl FtFactors {
    /// Largest row-elimination multiplier accepted before an update is
    /// refused with [`FtReject::UnstableMultiplier`].
    const MAX_MULTIPLIER: f64 = 1e12;

    /// Factors of the diagonal basis `B = diag(signs)` (slot `i` on row
    /// `i`). This is the crash basis the simplex engine starts from.
    pub fn diagonal(signs: &[f64]) -> Self {
        let mut factors = Self::with_dim(signs.len());
        factors.reset_diagonal(signs);
        factors
    }

    /// Factors of the `m`-column basis whose column `slot` is the sparse
    /// `(row, value)` sequence `column(slot)`; `None` when the basis is
    /// numerically singular (see [`refactorize`](Self::refactorize)).
    pub fn factorize<I: Iterator<Item = (usize, f64)>>(
        m: usize,
        column: impl Fn(usize) -> I,
        pivot_tol: f64,
    ) -> Option<Self> {
        let mut factors = Self::with_dim(m);
        factors.refactorize(column, pivot_tol).then_some(factors)
    }

    /// Dimension `m` with nothing factored: every vector is sized by the
    /// first factorization.
    fn with_dim(m: usize) -> Self {
        Self {
            m,
            pivot_row: Vec::new(),
            slot_of_step: Vec::new(),
            step_of_slot: Vec::new(),
            l: CscStore::new(),
            u_cols: Segments::default(),
            u_rows: Segments::default(),
            diag: Vec::new(),
            pos: Vec::new(),
            l_steps: Vec::new(),
            u_steps: Vec::new(),
            moved: Vec::new(),
            eta_target: Vec::new(),
            eta_start: Vec::new(),
            eta_data: Vec::new(),
            base_nnz: 0,
            updates: 0,
            scratch: Vec::new(),
            spike: Vec::new(),
            spike_mark: Vec::new(),
            spike_pat: Vec::new(),
            staged: false,
            #[cfg(debug_assertions)]
            staged_w: Vec::new(),
            roww: Vec::new(),
            roww_mark: Vec::new(),
            epoch: 0,
            work: Elimination::default(),
        }
    }

    /// Replaces the factors, in place, by those of `B = diag(signs)`.
    pub(crate) fn reset_diagonal(&mut self, signs: &[f64]) {
        debug_assert_eq!(signs.len(), self.m);
        let m = self.m;
        self.pivot_row.clear();
        self.pivot_row.extend(0..m);
        self.slot_of_step.clear();
        self.slot_of_step.extend(0..m);
        self.l.clear();
        self.u_cols.reset();
        for _ in 0..m {
            self.l.finish_column();
            self.u_cols.finish_list();
        }
        self.diag.clear();
        self.diag.extend_from_slice(signs);
        self.start_fresh();
    }

    /// Refactorizes, in place, the basis whose column `slot` is the sparse
    /// `(row, value)` sequence `column(slot)` — read once, in place from
    /// the caller's matrix, duplicates summed. Returns false, the factors
    /// left as they were, when the basis is numerically singular (no
    /// remaining pivot exceeds the positive `pivot_tol` in magnitude).
    pub fn refactorize<I: Iterator<Item = (usize, f64)>>(
        &mut self,
        column: impl Fn(usize) -> I,
        pivot_tol: f64,
    ) -> bool {
        if !self.work.run(self.m, column, pivot_tol) {
            return false;
        }
        // The replaced factors become the next refactorization's arenas.
        let work = &mut self.work;
        std::mem::swap(&mut self.pivot_row, &mut work.pivot_row);
        std::mem::swap(&mut self.slot_of_step, &mut work.slot_of_step);
        std::mem::swap(&mut self.l, &mut work.l);
        std::mem::swap(&mut self.u_cols, &mut work.u);
        std::mem::swap(&mut self.diag, &mut work.diag);
        self.start_fresh();
        true
    }

    /// Derives the rest of the factors from fresh `pivot_row`,
    /// `slot_of_step`, `l`, `u_cols` (packed) and `diag`, and drops every
    /// update, eta and stage.
    // lint:allow(hot-path-index): permutations and U's step indices are all bounded by m
    fn start_fresh(&mut self) {
        let m = self.m;
        self.step_of_slot.resize(m, 0);
        self.pos.clear();
        // Each list is offered every step and keeps the ones its test
        // passes, without a branch: unit and other steps interleave.
        let mut kept = [0; 3];
        for list in [&mut self.l_steps, &mut self.u_steps, &mut self.moved] {
            list.resize(m, 0);
        }
        for k in 0..m {
            let (slot, k32) = (self.slot_of_step[k], cast::idx32(k));
            self.step_of_slot[slot] = k;
            self.pos.push(k32);
            self.l_steps[kept[0]] = k32;
            kept[0] += usize::from(self.l.column_len(k) > 0);
            self.u_steps[kept[1]] = k32;
            kept[1] += usize::from(!self.trivial_in_u(k));
            self.moved[kept[2]] = k32;
            kept[2] += usize::from(slot != self.pivot_row[k]);
        }
        self.l_steps.truncate(kept[0]);
        self.u_steps.truncate(kept[1]);
        self.moved.truncate(kept[2]);
        // The row mirror is a counting sort that files every entry of the
        // column lists under its row step, in ascending column order (the
        // listed steps hold every non-empty column).
        let (u_cols, rows) = (&self.u_cols, &mut self.u_rows);
        rows.spans.clear();
        rows.spans.resize(m, (0, 0, 0));
        rows.data.clear();
        rows.data.resize(u_cols.nnz, (0, 0.0));
        rows.nnz = u_cols.nnz;
        for &(t, _) in &u_cols.data {
            rows.spans[cast::idx(t)].2 += 1;
        }
        let mut next = 0;
        for span in &mut rows.spans {
            span.0 = next;
            next += span.2;
        }
        for &k in &self.u_steps {
            for &(t, uv) in u_cols.list(cast::idx(k)) {
                let (start, len, _) = rows.spans[cast::idx(t)];
                rows.data[cast::idx(start + len)] = (k, uv);
                rows.spans[cast::idx(t)].1 += 1;
            }
        }
        self.eta_target.clear();
        self.eta_start.clear();
        self.eta_start.push(0);
        self.eta_data.clear();
        self.base_nnz = self.l.nnz() + self.u_cols.nnz + m;
        self.updates = 0;
        self.scratch.resize(m, 0.0);
        self.spike.resize(m, 0.0);
        self.spike_mark.clear();
        self.spike_mark.resize(m, u32::MAX);
        self.spike_pat.clear();
        self.staged = false;
        #[cfg(debug_assertions)]
        {
            self.staged_w.resize(m, 0.0);
            self.check_step_lists();
        }
        self.roww.resize(m, 0.0);
        self.roww_mark.clear();
        self.roww_mark.resize(m, u32::MAX);
        self.epoch = 0;
    }

    /// Whether step `k` leaves every solve's entry as it found it: an
    /// empty `U` column over a diagonal of exactly 1.0 subtracts nothing
    /// and divides by one (`x / 1.0 == x`, signed zeros included). A
    /// diagonal of −1.0, an artificial's, is not trivial.
    fn trivial_in_u(&self, k: usize) -> bool {
        self.u_cols.spans[k].1 == 0 && self.diag[k] == 1.0
    }

    /// Asserts that the step lists equal a full scan of the factors.
    #[cfg(any(test, debug_assertions))]
    fn check_step_lists(&self) {
        let moved_scan = (0..self.m).filter(|&k| self.slot_of_step[k] != self.pivot_row[k]);
        assert!(
            self.moved.iter().map(|&k| cast::idx(k)).eq(moved_scan),
            "moved step list differs from a scan of the permutations"
        );
        let l_scan = (0..self.m).filter(|&k| self.l.column_len(k) > 0);
        assert!(
            self.l_steps.iter().map(|&k| cast::idx(k)).eq(l_scan),
            "L step list differs from a scan of L"
        );
        let ascending = self.u_steps.windows(2).all(|w| {
            let [a, b] = [w[0], w[1]].map(|k| self.pos[cast::idx(k)]);
            a < b
        });
        let listed = self
            .u_steps
            .iter()
            .all(|&k| !self.trivial_in_u(cast::idx(k)));
        let nontrivial = (0..self.m).filter(|&k| !self.trivial_in_u(k)).count();
        assert!(
            ascending && listed && nontrivial == self.u_steps.len(),
            "U step list differs from a scan of U in position order"
        );
    }

    /// Dimension of the factored basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Updates applied since the last factorization.
    pub fn update_count(&self) -> usize {
        self.updates
    }

    /// Current stored nonzeros (`L`, `U` off-diagonals + diagonal, etas)
    /// relative to the factorization this started from. The simplex
    /// engine refactorizes on growth ("spike length") when this passes
    /// its cap, separately from the accuracy-triggered path.
    pub fn fill_ratio(&self) -> f64 {
        let now = self.l.nnz() + self.u_cols.nnz + self.m + self.eta_data.len();
        now as f64 / self.base_nnz.max(1) as f64
    }

    /// Solves `B z = v` in place (FTRAN): `v` enters indexed by
    /// constraint row and leaves indexed by basis slot.
    pub fn ftran(&mut self, v: &mut [f64]) {
        self.ftran_steps(v, false);
    }

    /// [`ftran`](Self::ftran) of the column about to enter the basis,
    /// `a_q`: also stages the vector between the L/eta stages and the
    /// `U` solve, `E L⁻¹ P a_q` in step space with its nonzero pattern,
    /// as the spike the next [`update`](Self::update) inserts. Any other
    /// solve — a batch of bound flips, the basic values after a
    /// refactorization — goes through `ftran` and leaves the stage alone.
    pub fn ftran_entering(&mut self, v: &mut [f64]) {
        self.ftran_steps(v, true);
        #[cfg(debug_assertions)]
        self.staged_w.copy_from_slice(v);
    }

    /// Shared FTRAN body; with `stage`, the L/eta-stage vector becomes
    /// the staged spike.
    // lint:allow(hot-path-index): triangular solve over m-length pivot_row/order permutation arrays
    fn ftran_steps(&mut self, v: &mut [f64], stage: bool) {
        let m = self.m;
        // L solve (unit diagonal), column-oriented in step order over the
        // steps with an `L` column; values live at original-row indices
        // throughout.
        for &k in &self.l_steps {
            let k = cast::idx(k);
            let t = v[self.pivot_row[k]];
            if t != 0.0 {
                for (r, lv) in self.l.column(k) {
                    v[r] -= lv * t;
                }
            }
        }
        // Row etas in creation order (step space via `pivot_row`): each
        // update's sources are never its own target, so within one eta
        // the entries are order-independent.
        for (e, &target) in self.eta_target.iter().enumerate() {
            let tr = self.pivot_row[cast::idx(target)];
            let mut s = v[tr];
            for &(src, mu) in &self.eta_data[self.eta_start[e]..self.eta_start[e + 1]] {
                s -= mu * v[self.pivot_row[cast::idx(src)]];
            }
            v[tr] = s;
        }
        if stage {
            // `U Q w = E L⁻¹ P a_q`: what the solve holds here is the
            // entering column of `U`, in step space.
            self.epoch = self.epoch.wrapping_add(1);
            self.spike_pat.clear();
            for k in 0..m {
                let val = v[self.pivot_row[k]];
                if val != 0.0 {
                    self.spike_mark[k] = self.epoch;
                    self.spike[k] = val;
                    self.spike_pat.push(cast::idx32(k));
                }
            }
            self.staged = true;
        }
        // U back-substitution, column-oriented in reverse *position*
        // order — the dynamic ordering is what updates keep triangular —
        // over the steps not trivial in `U`.
        for &k in self.u_steps.iter().rev() {
            let k = cast::idx(k);
            let pr = self.pivot_row[k];
            let z = v[pr] / self.diag[k];
            v[pr] = z;
            if z != 0.0 {
                for &(r, uv) in self.u_cols.list(k) {
                    v[self.pivot_row[cast::idx(r)]] -= uv * z;
                }
            }
        }
        // Un-permute from step space into slot space: step `k`'s value
        // sits on row `pivot_row[k]` and belongs in slot
        // `slot_of_step[k]`. Only the moved steps' entries change place,
        // and the slots they fill are the rows they leave.
        let (rows, slots) = (&self.pivot_row, &self.slot_of_step);
        permute_moved(&self.moved, rows, slots, &mut self.scratch, v);
    }

    /// Solves `Bᵀ y = v` in place (BTRAN): `v` enters indexed by basis
    /// slot and leaves indexed by constraint row.
    pub fn btran(&mut self, v: &mut [f64]) {
        // Into step space, where step `k`'s value sits on its pivot row.
        let (slots, rows) = (&self.slot_of_step, &self.pivot_row);
        permute_moved(&self.moved, slots, rows, &mut self.scratch, v);
        self.btran_steps(v, 0);
    }

    /// Solves `Bᵀ ρ = e_slot` (BTRAN of a unit vector) into `v`, which is
    /// overwritten entirely, skipping the Uᵀ forward-solve prefix before
    /// the replaced step's *position*: everything earlier stays zero,
    /// with or without updates applied. This is the pricing engine's
    /// pivot-row extraction.
    pub fn btran_unit(&mut self, slot: usize, v: &mut [f64]) {
        let t0 = self.step_of_slot[slot];
        let p0 = self.pos[t0];
        // Materialize the unit right-hand side: zeros everywhere, one at
        // the replaced step. Positions before `p0` then stay zero through
        // the skipped solve prefix.
        v.fill(0.0);
        v[self.pivot_row[t0]] = 1.0;
        let pos = &self.pos;
        let first = self.u_steps.partition_point(|&k| pos[cast::idx(k)] < p0);
        self.btran_steps(v, first);
    }

    /// Shared BTRAN tail, on `v` holding each step's value on its pivot
    /// row: Uᵀ forward solve from `u_steps[first]` on (all earlier
    /// positions already hold solved — possibly zero — values, with the
    /// raw right-hand side at later positions), then the eta transposes
    /// in reverse creation order, then the Lᵀ solve, which leaves `v`
    /// indexed by row.
    // lint:allow(hot-path-index): eta/permutation indices bounded by m by the Forrest-Tomlin invariant
    fn btran_steps(&mut self, v: &mut [f64], first: usize) {
        let pr = &self.pivot_row[..];
        // Uᵀ forward solve in ascending position order: every off-diagonal
        // of column `k` sits at an earlier position, already solved.
        for &k in &self.u_steps[first..] {
            let k = cast::idx(k);
            let mut s = v[pr[k]];
            for &(t, uv) in self.u_cols.list(k) {
                s -= uv * v[pr[cast::idx(t)]];
            }
            v[pr[k]] = s / self.diag[k];
        }
        // Eta transposes in reverse creation order: sources update from
        // the (unmodified-within-this-eta) target.
        for (e, &target) in self.eta_target.iter().enumerate().rev() {
            let zt = v[pr[cast::idx(target)]];
            if zt != 0.0 {
                for &(src, mu) in &self.eta_data[self.eta_start[e]..self.eta_start[e + 1]] {
                    v[pr[cast::idx(src)]] -= mu * zt;
                }
            }
        }
        // Lᵀ backward solve over the steps with an `L` column, descending:
        // each subtracts what its column reads from rows pivoted by later
        // steps, all final by then.
        for &k in self.l_steps.iter().rev() {
            let k = cast::idx(k);
            let mut s = v[pr[k]];
            for (r, lv) in self.l.column(k) {
                s -= lv * v[r];
            }
            v[pr[k]] = s;
        }
    }

    /// Forrest–Tomlin update after a pivot that replaces the basis column
    /// in `slot` with the column last staged by
    /// [`ftran_entering`](Self::ftran_entering). Returns the entries the
    /// spike inserted into `U`.
    ///
    /// On `Err` the factors are untouched and the caller must
    /// refactorize: the numeric checks run against scratch state before
    /// anything is committed. Either way the stage is consumed.
    // lint:allow(hot-path-index): Forrest-Tomlin spike update; step indices stay below m, pos holds a stamp per step
    pub fn update(&mut self, slot: usize) -> Result<usize, FtReject> {
        if !std::mem::take(&mut self.staged) {
            return Err(FtReject::Unstaged);
        }
        let m = self.m;
        let t = self.step_of_slot[slot];
        let epoch = self.epoch;
        #[cfg(debug_assertions)]
        {
            // The staged spike is the `U·w̃` this update used to rebuild
            // from the finished FTRAN, up to the solve's rounding.
            const ORACLE_REL: f64 = 1e-9;
            for (k, &(product, scale)) in self.spike_oracle(&self.staged_w).iter().enumerate() {
                let staged = if self.spike_mark[k] == epoch {
                    self.spike[k]
                } else {
                    0.0
                };
                assert!(
                    (staged - product).abs() <= ORACLE_REL * (1.0 + scale),
                    "staged spike {staged} vs U·w {product} at step {k}"
                );
            }
        }
        // Dry-run the row-spike elimination against scratch state: walk
        // the positions after `t`'s in order, eliminating row `t`'s
        // entries with the rows above. Entries of old column `t` inside
        // `u_rows` are skipped — committing deletes them — and the
        // replacement column's contribution is tracked through the spike
        // values instead, which is exactly the new diagonal
        // `d_t = spike_t − Σ mu_j · spike_{s_j}`.
        let old_pos = self.pos[t];
        for &(s, uv) in self.u_rows.list(t) {
            let s_us = cast::idx(s);
            self.roww_mark[s_us] = epoch;
            self.roww[s_us] = uv;
        }
        // The eta is recorded in place and rolled back on refusal.
        let eta_base = self.eta_data.len();
        let mut d_t = if self.spike_mark[t] == epoch {
            self.spike[t]
        } else {
            0.0
        };
        let mut spike_scale = d_t.abs();
        for &k in &self.spike_pat {
            spike_scale = spike_scale.nmax(self.spike[cast::idx(k)].abs());
        }
        // Every step with an entry in row `t`, or filled into it, has a
        // non-empty column: only the listed steps past `t` can carry one.
        let pos = &self.pos;
        let after = self
            .u_steps
            .partition_point(|&k| pos[cast::idx(k)] <= old_pos);
        for &s in &self.u_steps[after..] {
            let s = cast::idx(s);
            if self.roww_mark[s] != epoch {
                continue;
            }
            let val = self.roww[s];
            if val == 0.0 {
                continue;
            }
            let mu = val / self.diag[s];
            if !mu.is_finite() || mu.abs() > Self::MAX_MULTIPLIER {
                self.eta_data.truncate(eta_base);
                return Err(FtReject::UnstableMultiplier);
            }
            self.eta_data.push((cast::idx32(s), mu));
            d_t -= mu
                * if self.spike_mark[s] == epoch {
                    self.spike[s]
                } else {
                    0.0
                };
            for &(t2, uv) in self.u_rows.list(s) {
                let t2_us = cast::idx(t2);
                if t2_us == t {
                    continue;
                }
                if self.roww_mark[t2_us] != epoch {
                    self.roww_mark[t2_us] = epoch;
                    self.roww[t2_us] = 0.0;
                }
                self.roww[t2_us] -= mu * uv;
            }
        }
        if !d_t.is_finite() || d_t.abs() <= tol::SPIKE_MIN * (1.0 + spike_scale) {
            self.eta_data.truncate(eta_base);
            return Err(FtReject::SingularDiagonal);
        }

        // Commit. `t` leaves the step list while its stamp still places
        // it. Delete old column `t` from the row mirror…
        let t32 = cast::idx32(t);
        unlist(&mut self.u_steps, &self.pos, t32);
        for &(r, _) in self.u_cols.list(t) {
            self.u_rows.remove(cast::idx(r), t32);
        }
        self.u_cols.clear(t);
        // …and old row `t` from the column mirror: a column it leaves
        // empty over a diagonal of 1.0 turns trivial.
        for &(s, _) in self.u_rows.list(t) {
            let s_us = cast::idx(s);
            self.u_cols.remove(s_us, t32);
            if self.trivial_in_u(s_us) {
                unlist(&mut self.u_steps, &self.pos, s);
            }
        }
        self.u_rows.clear(t);
        // Move `t` past every other step.
        self.pos[t] = cast::idx32(m + self.updates);
        // Record the row eta and insert the spike as the new column `t`.
        if self.eta_data.len() > eta_base {
            self.eta_target.push(cast::idx32(t));
            self.eta_start.push(self.eta_data.len());
        }
        let mut inserted = 0;
        for &k in &self.spike_pat {
            let k_us = cast::idx(k);
            if k_us == t {
                continue;
            }
            let val = self.spike[k_us];
            self.u_cols.push(t, (k, val));
            self.u_rows.push(k_us, (cast::idx32(t), val));
            inserted += 1;
        }
        self.diag[t] = d_t;
        if !self.trivial_in_u(t) {
            self.u_steps.push(t32);
        }
        #[cfg(debug_assertions)]
        self.check_step_lists();
        self.updates += 1;
        Ok(inserted)
    }

    /// `U·w̃` for a slot-indexed `w` (`w̃` its step-space permutation),
    /// step-indexed, each entry paired with `(|U|·|w̃|)_k`, the scale its
    /// rounding error is relative to. For an FTRAN result `w = B⁻¹a_q`
    /// this is the spike [`ftran_entering`](Self::ftran_entering) stages:
    /// the oracle it is checked against, never a production path.
    #[cfg(any(test, debug_assertions))]
    fn spike_oracle(&self, w: &[f64]) -> Vec<(f64, f64)> {
        let mut product = vec![(0.0, 0.0); self.m];
        let steps = self.slot_of_step.iter().zip(&self.diag).enumerate();
        for (k, (&slot, &diag)) in steps {
            let wk = w.get(slot).copied().unwrap_or(0.0);
            let column = self
                .u_cols
                .list(k)
                .iter()
                .map(|&(r, uv)| (cast::idx(r), uv));
            for (r, uv) in column.chain([(k, diag)]) {
                if let Some(entry) = product.get_mut(r) {
                    entry.0 += uv * wk;
                    entry.1 += (uv * wk).abs();
                }
            }
        }
        product
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Multiplies `B z` given the basis columns (slot-indexed `z`).
    fn mul(columns: &[Vec<(usize, f64)>], z: &[f64]) -> Vec<f64> {
        let m = columns.len();
        let mut out = vec![0.0; m];
        for (slot, col) in columns.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * z[slot];
            }
        }
        out
    }

    /// Multiplies `Bᵀ y` given the basis columns (row-indexed `y`).
    fn mul_t(columns: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
        columns
            .iter()
            .map(|col| col.iter().map(|&(r, v)| v * y[r]).sum())
            .collect()
    }

    fn factorize(columns: &[Vec<(usize, f64)>]) -> Option<FtFactors> {
        FtFactors::factorize(columns.len(), |j| columns[j].iter().copied(), 1e-12)
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    fn check_roundtrip(columns: &[Vec<(usize, f64)>], rhs: &[f64]) {
        let mut ft = factorize(columns).expect("nonsingular");
        let mut z = rhs.to_vec();
        ft.ftran(&mut z);
        assert_close(&mul(columns, &z), rhs);
        let mut y = rhs.to_vec();
        ft.btran(&mut y);
        assert_close(&mul_t(columns, &y), rhs);
    }

    #[test]
    fn diagonal_factors_solve() {
        let signs = [1.0, -1.0, 2.0];
        let mut ft = FtFactors::diagonal(&signs);
        assert_eq!(ft.dim(), 3);
        let mut v = vec![3.0, 4.0, 8.0];
        ft.ftran(&mut v);
        assert_close(&v, &[3.0, -4.0, 4.0]);
        let mut y = vec![3.0, 4.0, 8.0];
        ft.btran(&mut y);
        assert_close(&y, &[3.0, -4.0, 4.0]);
    }

    #[test]
    fn tridiagonal_roundtrip() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] stored by columns.
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        check_roundtrip(&cols, &[5.0, 10.0, 22.0]);
    }

    #[test]
    fn zero_diagonal_needs_row_pivoting() {
        // B = [[0,1],[1,0]]: no nonzero diagonal without permuting.
        let cols = vec![vec![(1, 1.0)], vec![(0, 1.0)]];
        check_roundtrip(&cols, &[7.0, -3.0]);
    }

    #[test]
    fn mixed_sparse_basis_roundtrip() {
        // A slack-heavy basis like simplex produces: identity columns
        // plus a couple of structural ones that overlap rows.
        let cols = vec![
            vec![(0, 1.0)],
            vec![(1, 2.0), (3, 1.0)],
            vec![(2, -1.0)],
            vec![(1, 1.0), (3, 3.0), (4, 1.0)],
            vec![(4, 1.0), (0, 0.5)],
        ];
        check_roundtrip(&cols, &[1.0, -2.0, 3.5, 0.0, 4.0]);
    }

    #[test]
    fn duplicate_columns_are_singular() {
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)]];
        assert!(factorize(&cols).is_none());
    }

    #[test]
    fn zero_column_is_singular() {
        let cols = vec![vec![(0, 1.0)], vec![]];
        assert!(factorize(&cols).is_none());
    }

    #[test]
    fn dependent_columns_are_singular() {
        // Third column = first + second.
        let cols = vec![
            vec![(0, 1.0), (2, 1.0)],
            vec![(1, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 1.0), (2, 2.0)],
        ];
        assert!(factorize(&cols).is_none());
    }

    #[test]
    fn btran_unit_matches_btran_of_unit_vector() {
        let cols = vec![
            vec![(0, 1.0)],
            vec![(1, 2.0), (3, 1.0)],
            vec![(2, -1.0)],
            vec![(1, 1.0), (3, 3.0), (4, 1.0)],
            vec![(4, 1.0), (0, 0.5)],
        ];
        let m = cols.len();
        let mut ft = factorize(&cols).expect("nonsingular");
        for slot in 0..m {
            let mut expected = vec![0.0; m];
            expected[slot] = 1.0;
            ft.btran(&mut expected);
            // Poison the output so btran_unit has to overwrite it.
            let mut got = vec![f64::NAN; m];
            ft.btran_unit(slot, &mut got);
            assert_close(&got, &expected);
        }
    }

    /// Deterministic xorshift for reproducible update sequences.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn rand_unit(state: &mut u64) -> f64 {
        (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A well-conditioned random sparse basis for update tests.
    fn random_basis(m: usize, state: &mut u64) -> Vec<Vec<(usize, f64)>> {
        (0..m)
            .map(|slot| {
                let mut col = vec![(slot, 2.0 + rand_unit(state))];
                for _ in 0..2 {
                    let r = (xorshift(state) as usize) % m;
                    if r != slot {
                        col.push((r, rand_unit(state) - 0.5));
                    }
                }
                col
            })
            .collect()
    }

    /// A random replacement column touching a few rows.
    fn random_column(m: usize, anchor: usize, state: &mut u64) -> Vec<(usize, f64)> {
        let mut col = vec![(anchor, 1.5 + rand_unit(state))];
        for _ in 0..3 {
            let r = (xorshift(state) as usize) % m;
            if col.iter().all(|&(cr, _)| cr != r) {
                col.push((r, 2.0 * rand_unit(state) - 1.0));
            }
        }
        col
    }

    fn scatter(m: usize, col: &[(usize, f64)]) -> Vec<f64> {
        let mut v = vec![0.0; m];
        for &(r, val) in col {
            v[r] += val;
        }
        v
    }

    /// Residual `‖B z − v‖∞` of an FTRAN answer against exact columns.
    fn ftran_residual(columns: &[Vec<(usize, f64)>], z: &[f64], rhs: &[f64]) -> f64 {
        mul(columns, z)
            .iter()
            .zip(rhs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Long random column-replacement sequences: after every update the
    /// FT solves must agree with a *fresh* factorization of the current
    /// columns, in both directions, including the unit-BTRAN fast path.
    /// Before every update the staged spike must equal the `U·w̃` oracle
    /// to 1e-12 of its scale, and the update must insert no more entries
    /// into `U` than the staged vector has nonzeros.
    #[test]
    fn ft_updates_match_fresh_factorization() {
        let m = 12;
        let mut state = 0x9E3779B97F4A7C15u64;
        for trial in 0..5 {
            let mut columns = random_basis(m, &mut state);
            let mut ft = factorize(&columns).expect("nonsingular");
            for step in 0..40 {
                let slot = (xorshift(&mut state) as usize) % m;
                let new_col = random_column(m, slot, &mut state);
                // w = B⁻¹ a_q from the *current* factors.
                let mut w = scatter(m, &new_col);
                ft.ftran_entering(&mut w);
                let oracle = ft.spike_oracle(&w);
                let scale = oracle.iter().fold(1.0, |s: f64, &(p, _)| s.max(p.abs()));
                for (k, &(product, _)) in oracle.iter().enumerate() {
                    let staged = if ft.spike_mark[k] == ft.epoch {
                        ft.spike[k]
                    } else {
                        0.0
                    };
                    assert!(
                        (staged - product).abs() <= 1e-12 * scale,
                        "trial {trial} step {step}: staged {staged} vs U·w {product}"
                    );
                }
                let staged_nnz = ft.spike_pat.len();
                let u_nnz = ft.u_cols.nnz;
                let Ok(inserted) = ft.update(slot) else {
                    // Unlucky near-singular replacement: restart factors
                    // without applying it (the simplex refactorizes here).
                    continue;
                };
                assert!(inserted <= staged_nnz, "{inserted} > {staged_nnz}");
                assert!(ft.u_cols.nnz <= u_nnz + inserted, "U grew past the spike");
                columns[slot] = new_col;
                assert!(
                    factorize(&columns).is_some(),
                    "replacement kept the basis nonsingular"
                );
                // FTRAN residual against the exact current columns.
                let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 4.0).collect();
                let mut z = rhs.clone();
                ft.ftran(&mut z);
                assert!(
                    ftran_residual(&columns, &z, &rhs) < 1e-7,
                    "trial {trial} step {step}: ftran drifted"
                );
                // BTRAN residual `‖Bᵀy − v‖∞` stays bounded too.
                let mut y_ft = rhs.clone();
                ft.btran(&mut y_ft);
                let bt_res = mul_t(&columns, &y_ft)
                    .iter()
                    .zip(&rhs)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(bt_res < 1e-7, "trial {trial} step {step}: btran {bt_res}");
                // Unit-BTRAN fast path stays exact under updates.
                let probe = (xorshift(&mut state) as usize) % m;
                let mut expected = vec![0.0; m];
                expected[probe] = 1.0;
                ft.btran(&mut expected);
                let mut got = vec![f64::NAN; m];
                ft.btran_unit(probe, &mut got);
                assert_close(&got, &expected);
            }
            assert!(ft.update_count() > 20, "most updates should apply");
        }
    }

    /// Replacing a column with a copy of another basis column makes the
    /// basis singular; the update must refuse and leave the factors
    /// untouched rather than commit a broken `U`.
    #[test]
    fn ft_rejects_singular_replacement() {
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let m = cols.len();
        let mut ft = factorize(&cols).expect("nonsingular");
        // Duplicate column 1 into slot 0.
        let mut w = scatter(m, &cols[1]);
        ft.ftran_entering(&mut w);
        assert_eq!(ft.update(0), Err(FtReject::SingularDiagonal));
        // The factors must still solve the *original* basis exactly.
        let rhs = [5.0, 10.0, 22.0];
        let mut z = rhs.to_vec();
        ft.ftran(&mut z);
        assert_close(&mul(&cols, &z), &rhs);
        assert_eq!(ft.update_count(), 0);
    }

    /// An update needs a spike staged since the last factorization or
    /// update: fresh factors, a plain `ftran` and a consumed stage all
    /// leave nothing to insert, and the refusal leaves the factors
    /// solving the old basis.
    #[test]
    fn unstaged_update_is_refused() {
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let m = cols.len();
        let mut ft = factorize(&cols).expect("nonsingular");
        let replacement = vec![(0, 1.0), (2, 2.0)];
        assert_eq!(ft.update(1), Err(FtReject::Unstaged), "fresh factors");
        let mut w = scatter(m, &replacement);
        ft.ftran(&mut w);
        assert_eq!(ft.update(1), Err(FtReject::Unstaged), "plain ftran");
        let rhs = [5.0, 10.0, 22.0];
        let mut z = rhs.to_vec();
        ft.ftran(&mut z);
        assert_close(&mul(&cols, &z), &rhs);
        assert_eq!(ft.update_count(), 0);

        let mut w = scatter(m, &replacement);
        ft.ftran_entering(&mut w);
        assert!(ft.update(1).is_ok());
        assert_eq!(ft.update(1), Err(FtReject::Unstaged), "stage consumed");
        let mut updated = cols.clone();
        updated[1] = replacement;
        let mut z = rhs.to_vec();
        ft.ftran(&mut z);
        assert_close(&mul(&updated, &z), &rhs);
        assert_eq!(ft.update_count(), 1);
    }

    #[test]
    fn fill_in_is_handled() {
        // An arrowhead matrix: eliminating the dense last column/row
        // produces fill that the symbolic DFS must discover.
        let m = 6;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for j in 0..m - 1 {
            cols.push(vec![(j, 2.0 + j as f64), (m - 1, 1.0)]);
        }
        let mut last: Vec<(usize, f64)> = (0..m).map(|r| (r, 1.0)).collect();
        last[m - 1].1 = 10.0;
        cols.push(last);
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 2.0).collect();
        check_roundtrip(&cols, &rhs);
    }

    /// The elimination, packing and solves that the in-place
    /// refactorization and the step lists replaced, kept as the oracle
    /// they must match to the bit: elimination reads each column three
    /// times and takes every step through the reach and the pivot scan,
    /// and the solves sweep all `m` steps.
    mod dense {
        use super::super::*;

        /// Factors of the basis `column(slot)` as a fresh elimination and
        /// its packing built them; the step lists come from a scan, so
        /// that the shared [`FtFactors::update`] runs on them too (the
        /// dense solves ignore them).
        // lint:allow(hot-path-index): test oracle; indices bounded by m as in the kernel it mirrors
        pub(super) fn factorize<I: Iterator<Item = (usize, f64)>>(
            m: usize,
            column: impl Fn(usize) -> I,
            pivot_tol: f64,
        ) -> Option<FtFactors> {
            let lens: Vec<usize> = (0..m).map(|j| column(j).count()).collect();
            let mut next = vec![0usize; lens.iter().max().map_or(1, |&len| len + 2)];
            for &len in &lens {
                next[len + 1] += 1;
            }
            for len in 1..next.len() {
                next[len] += next[len - 1];
            }
            let mut order = vec![0usize; m];
            for (j, &len) in lens.iter().enumerate() {
                order[next[len]] = j;
                next[len] += 1;
            }
            let mut pivot_row = Vec::with_capacity(m);
            let mut slot_of_step = Vec::with_capacity(m);
            let mut l = CscStore::new();
            let mut u = Segments::default();
            let mut u_diag = Vec::with_capacity(m);
            let mut row_to_step = vec![usize::MAX; m];
            let mut x = vec![0.0; m];
            let mut live = vec![u32::MAX; m];
            let mut step_seen = vec![u32::MAX; m];
            let mut pattern: Vec<usize> = Vec::new();
            let mut reach: Vec<usize> = Vec::new();
            let mut stack: Vec<(usize, usize)> = Vec::new();
            for (k, &slot) in order.iter().enumerate() {
                let epoch = cast::idx32(k);
                pattern.clear();
                reach.clear();
                for (r, v) in column(slot) {
                    if live[r] != epoch {
                        live[r] = epoch;
                        x[r] = 0.0;
                        pattern.push(r);
                    }
                    x[r] += v;
                }
                for (r0, _) in column(slot) {
                    let t0 = row_to_step[r0];
                    if t0 == usize::MAX || step_seen[t0] == epoch {
                        continue;
                    }
                    step_seen[t0] = epoch;
                    stack.push((t0, 0));
                    while let Some(top) = stack.last_mut() {
                        let (t, cursor) = *top;
                        let mut child: Option<usize> = None;
                        let mut new_cursor = cursor;
                        for &r in l.column_rows(t).get(cursor..).unwrap_or_default() {
                            new_cursor += 1;
                            let t2 = row_to_step[cast::idx(r)];
                            if t2 != usize::MAX && step_seen[t2] != epoch {
                                child = Some(t2);
                                break;
                            }
                        }
                        top.1 = new_cursor;
                        match child {
                            Some(t2) => {
                                step_seen[t2] = epoch;
                                stack.push((t2, 0));
                            }
                            None => {
                                reach.push(t);
                                stack.pop();
                            }
                        }
                    }
                }
                reach.sort_unstable();
                for &t in &reach {
                    let pr = pivot_row[t];
                    let ut = if live[pr] == epoch { x[pr] } else { 0.0 };
                    if ut == 0.0 {
                        continue;
                    }
                    u.data.push((cast::idx32(t), ut));
                    for (r, lv) in l.column(t) {
                        if live[r] != epoch {
                            live[r] = epoch;
                            x[r] = 0.0;
                            pattern.push(r);
                        }
                        x[r] -= lv * ut;
                    }
                }
                let mut best_row = usize::MAX;
                let mut best = pivot_tol;
                for &r in &pattern {
                    if row_to_step[r] == usize::MAX {
                        let a = x[r].abs();
                        if a > best {
                            best = a;
                            best_row = r;
                        }
                    }
                }
                if best_row == usize::MAX {
                    return None;
                }
                let diag = x[best_row];
                row_to_step[best_row] = k;
                pivot_row.push(best_row);
                slot_of_step.push(slot);
                u_diag.push(diag);
                for &r in &pattern {
                    if row_to_step[r] == usize::MAX && x[r] != 0.0 {
                        l.push_entry(r, x[r] / diag);
                    }
                }
                l.finish_column();
                u.finish_list();
            }
            let mut step_of_slot = vec![0usize; m];
            for (k, &slot) in slot_of_step.iter().enumerate() {
                step_of_slot[slot] = k;
            }
            // The packing: the column lists as factored, the row mirror a
            // counting sort in ascending column order.
            let mut u_rows = Segments {
                spans: vec![(0, 0, 0); m],
                data: vec![(0, 0.0); u.nnz],
                nnz: u.nnz,
            };
            for &(t, _) in &u.data {
                u_rows.spans[cast::idx(t)].2 += 1;
            }
            let mut next = 0;
            for span in &mut u_rows.spans {
                span.0 = next;
                next += span.2;
            }
            for k in 0..m {
                for &(t, uv) in u.list(k) {
                    let (start, len, _) = u_rows.spans[cast::idx(t)];
                    u_rows.data[cast::idx(start + len)] = (cast::idx32(k), uv);
                    u_rows.spans[cast::idx(t)].1 += 1;
                }
            }
            let mut f = FtFactors::with_dim(m);
            f.base_nnz = l.nnz() + u.nnz + m;
            f.pivot_row = pivot_row;
            f.slot_of_step = slot_of_step;
            f.step_of_slot = step_of_slot;
            f.l = l;
            f.u_cols = u;
            f.u_rows = u_rows;
            f.diag = u_diag;
            f.pos = (0..cast::idx32(m)).collect();
            f.eta_start = vec![0];
            f.scratch = vec![0.0; m];
            f.spike = vec![0.0; m];
            f.spike_mark = vec![u32::MAX; m];
            #[cfg(debug_assertions)]
            {
                f.staged_w = vec![0.0; m];
            }
            f.roww = vec![0.0; m];
            f.roww_mark = vec![u32::MAX; m];
            f.l_steps = (0..m)
                .filter(|&k| f.l.column_len(k) > 0)
                .map(cast::idx32)
                .collect();
            f.u_steps = (0..m)
                .filter(|&k| !f.trivial_in_u(k))
                .map(cast::idx32)
                .collect();
            f.moved = (0..m)
                .filter(|&k| f.slot_of_step[k] != f.pivot_row[k])
                .map(cast::idx32)
                .collect();
            Some(f)
        }

        impl FtFactors {
            /// Every step, in ascending position stamps.
            fn position_order(&self) -> Vec<usize> {
                let mut order: Vec<usize> = (0..self.m).collect();
                order.sort_by_key(|&k| self.pos[k]);
                order
            }

            /// FTRAN sweeping every step; with `stage`, stages the spike
            /// as [`FtFactors::ftran_entering`] does.
            // lint:allow(hot-path-index): test oracle over m-length permutation arrays
            pub(super) fn dense_ftran(&mut self, v: &mut [f64], stage: bool) {
                let m = self.m;
                for k in 0..m {
                    let t = v[self.pivot_row[k]];
                    if t != 0.0 {
                        for (r, lv) in self.l.column(k) {
                            v[r] -= lv * t;
                        }
                    }
                }
                for (e, &target) in self.eta_target.iter().enumerate() {
                    let tr = self.pivot_row[cast::idx(target)];
                    let mut s = v[tr];
                    for &(src, mu) in &self.eta_data[self.eta_start[e]..self.eta_start[e + 1]] {
                        s -= mu * v[self.pivot_row[cast::idx(src)]];
                    }
                    v[tr] = s;
                }
                if stage {
                    self.epoch = self.epoch.wrapping_add(1);
                    self.spike_pat.clear();
                    for k in 0..m {
                        let val = v[self.pivot_row[k]];
                        if val != 0.0 {
                            self.spike_mark[k] = self.epoch;
                            self.spike[k] = val;
                            self.spike_pat.push(cast::idx32(k));
                        }
                    }
                    self.staged = true;
                }
                for &k in self.position_order().iter().rev() {
                    let pr = self.pivot_row[k];
                    let z = v[pr] / self.diag[k];
                    v[pr] = z;
                    if z != 0.0 {
                        for &(r, uv) in self.u_cols.list(k) {
                            v[self.pivot_row[cast::idx(r)]] -= uv * z;
                        }
                    }
                }
                for k in 0..m {
                    self.scratch[self.slot_of_step[k]] = v[self.pivot_row[k]];
                }
                v.copy_from_slice(&self.scratch);
                #[cfg(debug_assertions)]
                if stage {
                    self.staged_w.copy_from_slice(v);
                }
            }

            /// BTRAN sweeping every step.
            // lint:allow(hot-path-index): test oracle over m-length permutation arrays
            pub(super) fn dense_btran(&mut self, v: &mut [f64]) {
                for k in 0..self.m {
                    self.scratch[k] = v[self.slot_of_step[k]];
                }
                self.dense_btran_steps(v, 0);
            }

            /// Unit BTRAN sweeping every step from the slot's position.
            pub(super) fn dense_btran_unit(&mut self, slot: usize, v: &mut [f64]) {
                let t0 = self.step_of_slot[slot];
                let p0 = self
                    .position_order()
                    .iter()
                    .position(|&k| k == t0)
                    .unwrap_or(0);
                self.scratch.fill(0.0);
                self.scratch[t0] = 1.0;
                self.dense_btran_steps(v, p0);
            }

            // lint:allow(hot-path-index): test oracle over m-length permutation arrays
            fn dense_btran_steps(&mut self, v: &mut [f64], p_start: usize) {
                let m = self.m;
                let order = self.position_order();
                let scratch = &mut self.scratch[..];
                for &k in &order[p_start..] {
                    let mut s = scratch[k];
                    for &(t, uv) in self.u_cols.list(k) {
                        s -= uv * scratch[cast::idx(t)];
                    }
                    scratch[k] = s / self.diag[k];
                }
                for (e, &target) in self.eta_target.iter().enumerate().rev() {
                    let zt = scratch[cast::idx(target)];
                    if zt != 0.0 {
                        for &(src, mu) in &self.eta_data[self.eta_start[e]..self.eta_start[e + 1]] {
                            scratch[cast::idx(src)] -= mu * zt;
                        }
                    }
                }
                for k in (0..m).rev() {
                    let mut s = scratch[k];
                    for (r, lv) in self.l.column(k) {
                        s -= lv * v[r];
                    }
                    v[self.pivot_row[k]] = s;
                }
            }
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
    }

    /// Asserts two sets of factors equal to the bit, list by list (arena
    /// layouts may differ: only the lists are the factors).
    fn assert_same_factors(a: &FtFactors, b: &FtFactors, what: &str) {
        let lists = |s: &Segments, m: usize| {
            (0..m)
                .map(|k| s.list(k).iter().map(|&(i, x)| (i, x.to_bits())).collect())
                .collect::<Vec<Vec<_>>>()
        };
        let l_cols = |f: &FtFactors| {
            (0..f.m)
                .map(|k| f.l.column(k).map(|(r, x)| (r, x.to_bits())).collect())
                .collect::<Vec<Vec<_>>>()
        };
        let etas = |f: &FtFactors| {
            let data: Vec<_> = f.eta_data.iter().map(|&(s, x)| (s, x.to_bits())).collect();
            (f.eta_target.clone(), f.eta_start.clone(), data)
        };
        assert_eq!(a.m, b.m, "{what}: dimension");
        assert_eq!(a.pivot_row, b.pivot_row, "{what}: pivot rows");
        assert_eq!(a.slot_of_step, b.slot_of_step, "{what}: slots");
        assert_eq!(a.step_of_slot, b.step_of_slot, "{what}: steps");
        assert_eq!(l_cols(a), l_cols(b), "{what}: L");
        assert_eq!(
            lists(&a.u_cols, a.m),
            lists(&b.u_cols, b.m),
            "{what}: U columns"
        );
        assert_eq!(
            lists(&a.u_rows, a.m),
            lists(&b.u_rows, b.m),
            "{what}: U rows"
        );
        assert_eq!((a.u_cols.nnz, a.u_rows.nnz), (b.u_cols.nnz, b.u_rows.nnz));
        assert_bits(&a.diag, &b.diag, what);
        assert_eq!(a.pos, b.pos, "{what}: ordering");
        assert_eq!(
            (&a.l_steps, &a.u_steps),
            (&b.l_steps, &b.u_steps),
            "{what}: step lists"
        );
        assert_eq!(a.moved, b.moved, "{what}: moved steps");
        assert_eq!(etas(a), etas(b), "{what}: etas");
        assert_eq!(
            (a.base_nnz, a.updates),
            (b.base_nnz, b.updates),
            "{what}: counts"
        );
        assert_eq!(a.staged, b.staged, "{what}: stage");
        a.check_step_lists();
    }

    /// A basis column of a slack-heavy basis: with probability
    /// `unit_share` a slack or artificial (one entry of 1.0, −1 or now
    /// and then another value; rarely on another slot's row, which can
    /// make the basis singular), otherwise a structural column on the
    /// slot's row, its entry there −1, 1.0 or another value, with a few
    /// off-diagonals and now and then a duplicate entry.
    fn oracle_column(m: usize, slot: usize, unit_share: f64, state: &mut u64) -> Vec<(usize, f64)> {
        if rand_unit(state) < unit_share {
            let value = match xorshift(state) % 8 {
                0..=4 => 1.0,
                5 | 6 => -1.0,
                _ => 0.5 + 2.0 * rand_unit(state),
            };
            let row = if xorshift(state).is_multiple_of(64) {
                (xorshift(state) as usize) % m
            } else {
                slot
            };
            return vec![(row, value)];
        }
        let diag = match xorshift(state) % 3 {
            0 => -1.0,
            1 => 1.0,
            _ => 0.5 + 2.0 * rand_unit(state),
        };
        let mut col = vec![(slot, diag)];
        for _ in 0..1 + xorshift(state) % 3 {
            let r = (xorshift(state) as usize) % m;
            if col.iter().all(|&(cr, _)| cr != r) {
                col.push((r, 2.0 * rand_unit(state) - 1.0));
            }
        }
        if xorshift(state).is_multiple_of(8) {
            col.push((slot, 0.25));
        }
        col
    }

    /// A right-hand side with exact zeros of both signs among its entries.
    fn oracle_rhs(m: usize, state: &mut u64) -> Vec<f64> {
        (0..m)
            .map(|_| match xorshift(state) % 10 {
                0..=3 => 0.0,
                4 => -0.0,
                5 => -1.0,
                _ => 4.0 * rand_unit(state) - 2.0,
            })
            .collect()
    }

    /// One oracle case: a random slack-heavy basis factorized in place
    /// and by the oracle, then a sequence of solves, staged and unstaged
    /// updates (some refused, each refusal followed by a refactorization)
    /// and periodic refactorizations, every result and every set of
    /// factors compared to the bit.
    fn oracle_case(seed: u64) {
        let mut state = seed | 1;
        let m = 4 + (xorshift(&mut state) % 21) as usize;
        let unit_share = 0.5 + 0.3 * rand_unit(&mut state);
        let mut columns: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|slot| oracle_column(m, slot, unit_share, &mut state))
            .collect();
        let tol = 1e-12;
        // Refactorizing in place over the crash basis reuses its arenas.
        let mut ft = FtFactors::diagonal(&vec![1.0; m]);
        let factored = ft.refactorize(|j| columns[j].iter().copied(), tol);
        let Some(mut oracle) = dense::factorize(m, |j| columns[j].iter().copied(), tol) else {
            assert!(!factored, "the oracle finds the basis singular");
            return;
        };
        assert!(factored, "the oracle factorizes the basis");
        assert_same_factors(&ft, &oracle, "factorization");
        for op in 0..48 {
            let what = format!("seed {seed:#x} op {op}");
            let rhs = oracle_rhs(m, &mut state);
            let (mut got, mut want) = (rhs.clone(), rhs.clone());
            ft.ftran(&mut got);
            oracle.dense_ftran(&mut want, false);
            assert_bits(&got, &want, &format!("{what}: ftran"));
            let (mut got, mut want) = (rhs.clone(), rhs);
            ft.btran(&mut got);
            oracle.dense_btran(&mut want);
            assert_bits(&got, &want, &format!("{what}: btran"));
            let probe = (xorshift(&mut state) as usize) % m;
            let (mut got, mut want) = (vec![f64::NAN; m], vec![f64::NAN; m]);
            ft.btran_unit(probe, &mut got);
            oracle.dense_btran_unit(probe, &mut want);
            assert_bits(&got, &want, &format!("{what}: btran_unit"));

            let slot = (xorshift(&mut state) as usize) % m;
            let refused = if xorshift(&mut state).is_multiple_of(10) {
                // Nothing staged: both refuse, the factors untouched.
                assert_eq!(ft.update(slot), Err(FtReject::Unstaged));
                assert_eq!(oracle.update(slot), Err(FtReject::Unstaged));
                true
            } else {
                let new_col = match xorshift(&mut state) % 8 {
                    // A copy of another basis column: singular, refused.
                    0 => columns[(slot + 1) % m].clone(),
                    1..=3 => oracle_column(m, slot, 1.0, &mut state),
                    _ => oracle_column(m, slot, 0.0, &mut state),
                };
                let mut got = scatter(m, &new_col);
                let mut want = got.clone();
                ft.ftran_entering(&mut got);
                oracle.dense_ftran(&mut want, true);
                assert_bits(&got, &want, &format!("{what}: ftran_entering"));
                let stage = |f: &FtFactors| {
                    let spike = f.spike_pat.iter().map(|&k| f.spike[cast::idx(k)].to_bits());
                    (f.spike_pat.clone(), spike.collect::<Vec<_>>(), f.staged)
                };
                assert_eq!(stage(&ft), stage(&oracle), "{what}: staged spike");
                let outcome = ft.update(slot);
                assert_eq!(outcome, oracle.update(slot), "{what}: update");
                if outcome.is_ok() {
                    columns[slot] = new_col;
                }
                outcome.is_err()
            };
            assert_same_factors(&ft, &oracle, &what);
            if refused || op % 16 == 15 {
                let factored = ft.refactorize(|j| columns[j].iter().copied(), tol);
                let Some(fresh) = dense::factorize(m, |j| columns[j].iter().copied(), tol) else {
                    assert!(!factored, "{what}: the oracle finds the basis singular");
                    return;
                };
                assert!(factored, "{what}: the oracle refactorizes the basis");
                oracle = fresh;
                assert_same_factors(&ft, &oracle, &format!("{what}: refactorization"));
            }
        }
    }

    // Every solve, stage and set of factors of the step-list solves and
    // the in-place refactorization equals the dense oracle's to the bit,
    // signed zeros included, on slack-heavy bases.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn step_lists_and_in_place_refactors_match_the_dense_oracle(seed in 0u64..1 << 48) {
            oracle_case(seed);
        }
    }
}
