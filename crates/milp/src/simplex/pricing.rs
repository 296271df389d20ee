//! Primal pricing: maintained reduced costs, devex and partial devex
//! entering-column selection, and the α-row updates that keep them
//! current across pivots.

use super::{PricingRule, Simplex};
use crate::cast;
use crate::nan::NanGuard;
use crate::tol;

impl Simplex<'_> {
    /// Selects an entering column; returns `(column, reduced cost)`.
    ///
    /// Reduced costs are *maintained*: refreshed from the duals only
    /// when invalidated (phase entry, refactorization, a failed α-row
    /// update) and otherwise patched incrementally per
    /// pivot. Because the incremental path may drift, `None` — proven
    /// optimality — is only ever returned after a scan over freshly
    /// recomputed reduced costs.
    pub(super) fn select_entering(&mut self, use_bland: bool) -> Option<(usize, f64)> {
        if use_bland {
            // Bland's anti-cycling guarantee needs exact reduced costs.
            self.refresh_reduced_costs(false);
            return self.pick_bland();
        }
        let relist = self.rule == PricingRule::PartialDevex;
        if !self.d_valid {
            self.refresh_reduced_costs(relist);
        }
        if let Some(pick) = self.pick_by_rule() {
            return Some(pick);
        }
        if self.d_fresh {
            return None;
        }
        // The maintained costs found no candidate, but they may have
        // drifted; verify against exact reduced costs before declaring
        // optimality.
        self.refresh_reduced_costs(relist);
        self.pick_by_rule()
    }

    pub(super) fn pick_by_rule(&mut self) -> Option<(usize, f64)> {
        match self.rule {
            PricingRule::Devex => self.pick_devex(),
            PricingRule::PartialDevex => self.pick_partial(),
        }
    }

    /// Recomputes the duals and the reduced cost of every nonbasic column
    /// the current bounds leave free from scratch. A fixed nonbasic
    /// column's `d_j` is left as it is: it is never read, since
    /// [`eligible_d`](Self::eligible_d), the dual ratio tests'
    /// `may_enter` and the candidate list all check fixedness first — and
    /// a dive fixes columns by the thousand. With `relist`, the same pass
    /// rebuilds partial pricing's candidate list, which the pick that
    /// follows would otherwise do with a second full scan: the old list
    /// was ranked on drifted costs and is dropped either way.
    // lint:allow(hot-path-index): reduced-cost array sized to n with the tableau
    pub(super) fn refresh_reduced_costs(&mut self, relist: bool) {
        self.compute_duals();
        // Take the list out so `eligible_d` can borrow `self`.
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        for word in 0..self.live.len() {
            let mut bits = self.live[word];
            while bits != 0 {
                let j = word * 64 + cast::idx(bits.trailing_zeros());
                bits &= bits - 1;
                if self.position[j] != usize::MAX {
                    self.d[j] = 0.0;
                    continue;
                }
                self.d[j] = self.costs[j] - self.column_dot(j, &self.y);
                if relist && self.eligible_d(j).is_some() {
                    cands.push(cast::idx32(j));
                }
            }
        }
        self.candidates = cands;
        self.candidates_complete = false;
        if relist {
            self.cap_candidates();
        }
        self.d_valid = true;
        self.d_fresh = true;
        self.pricing.full_rebuilds += 1;
    }

    /// The maintained reduced cost of `j` if it is an eligible entering
    /// candidate (nonbasic, not fixed, cost pushes off its bound).
    pub(super) fn eligible_d(&self, j: usize) -> Option<f64> {
        if self.position[j] != usize::MAX || !self.is_live(j) {
            return None;
        }
        let d = self.d[j];
        let tol = tol::OPT;
        let eligible = if self.is_free(j) {
            d.abs() > tol
        } else if self.at_upper[j] {
            d > tol
        } else {
            d < -tol
        };
        eligible.then_some(d)
    }

    /// Bland's rule: the first eligible column.
    fn pick_bland(&self) -> Option<(usize, f64)> {
        (0..self.n0 + self.m).find_map(|j| self.eligible_d(j).map(|d| (j, d)))
    }

    /// Devex: maximize `d_j² / w_j` over all eligible columns.
    // lint:allow(hot-path-index): devex weights sized to n with the tableau
    fn pick_devex(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.n0 + self.m {
            let Some(d) = self.eligible_d(j) else {
                continue;
            };
            let merit = d * d / self.devex[j];
            match best {
                Some((_, _, bm)) if merit <= bm => {}
                _ => best = Some((j, d, merit)),
            }
        }
        best.map(|(j, d, _)| (j, d))
    }

    /// Partial devex: best devex merit over the candidate list, with
    /// lazy removal of entries that went ineligible; a dry list triggers
    /// one full-scan rebuild before giving up.
    // lint:allow(hot-path-index): candidate list holds column indices < n by construction
    fn pick_partial(&mut self) -> Option<(usize, f64)> {
        for attempt in 0..2 {
            let mut best: Option<(usize, f64, f64)> = None;
            let mut keep = 0;
            for idx in 0..self.candidates.len() {
                let j = cast::idx(self.candidates[idx]);
                if let Some(d) = self.eligible_d(j) {
                    self.candidates[keep] = cast::idx32(j);
                    keep += 1;
                    let merit = d * d / self.devex[j];
                    match best {
                        Some((_, _, bm)) if merit <= bm => {}
                        _ => best = Some((j, d, merit)),
                    }
                }
            }
            self.candidates.truncate(keep);
            if let Some((j, d, _)) = best {
                if attempt == 0 {
                    self.pricing.candidate_hits += 1;
                }
                return Some((j, d));
            }
            if attempt == 0 {
                if self.d_fresh && self.candidates_complete {
                    // Listed in full from these very reduced costs (bound
                    // flips since only took columns out): a rescan would
                    // find what the list had.
                    return None;
                }
                self.rebuild_candidates();
            }
        }
        None
    }

    /// Rebuilds the candidate list from a full eligibility scan.
    fn rebuild_candidates(&mut self) {
        self.pricing.full_rebuilds += 1;
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        cands.extend(
            (0..cast::idx32(self.n0 + self.m)).filter(|j| self.eligible_d(cast::idx(*j)).is_some()),
        );
        self.candidates = cands;
        self.cap_candidates();
    }

    /// Keeps the top slice of the candidate list by devex merit when it
    /// holds more than the cap.
    pub(super) fn cap_candidates(&mut self) {
        let cap = (cast::floor_usize((self.live_cols as f64).sqrt()) * 2).clamp(64, 2048);
        self.candidates_complete = self.candidates.len() <= cap;
        if !self.candidates_complete {
            let (d, devex) = (&self.d, &self.devex);
            let merit = |j: &u32| {
                let j = cast::idx(*j);
                d[j] * d[j] / devex[j]
            };
            // `total_cmp`: a NaN merit (0/0 from a zeroed devex weight)
            // must not scramble the selection into an arbitrary slice —
            // under the total order NaN sorts to one end deterministically.
            self.candidates
                .select_nth_unstable_by(cap - 1, |a, b| merit(b).total_cmp(&merit(a)));
            self.candidates.truncate(cap);
        }
    }

    /// Extracts the pivot row for incremental pricing: `ρ = B⁻ᵀe_row` of
    /// the current (pre-pivot) basis, scattered into the α-row
    /// `alpha[j] = ρᵀA_j` over the columns reachable through the rows
    /// where ρ is nonzero (found via the matrix's row-major mirror).
    ///
    /// Returns false — caller falls back to a full refresh — when the
    /// α-row disagrees with the FTRAN'd direction on the entering
    /// column (`α_q` must equal `w[row]`), which signals numerical
    /// drift in the basis representation.
    pub(super) fn prepare_pivot_row(&mut self, row: usize, q: usize) -> bool {
        self.scatter_alpha_row(row, false);
        let expected = self.w[row];
        let got = if self.alpha_mark[q] == self.alpha_epoch {
            self.alpha[q]
        } else {
            0.0
        };
        expected.abs() > tol::EPS && (got - expected).abs() <= tol::OPT * (1.0 + expected.abs())
    }

    /// Scatters the pivot row `ρ = B⁻ᵀe_row` into the α-row workspace:
    /// `alpha[j] = ρᵀA_j` over every column reachable through the rows
    /// where ρ is nonzero (found via the matrix's row-major mirror) — or,
    /// with `live_only`, over the [live](Self::is_live) ones alone: the
    /// dual ratio tests never let a fixed column enter, so it needs no
    /// entry, and the others sum the same terms in the same order.
    /// Touched columns are listed in `alpha_cols` and validated against
    /// the bumped `alpha_epoch`.
    // lint:allow(hot-path-index): scatter into scratch sized to n; pattern indices from the packed row
    pub(super) fn scatter_alpha_row(&mut self, row: usize, live_only: bool) {
        self.repr.btran_unit(row, &mut self.rho);
        self.alpha_epoch = self.alpha_epoch.wrapping_add(1);
        let epoch = self.alpha_epoch;
        self.alpha_cols.clear();
        let sf = self.sf;
        for r in 0..self.m {
            let rho_r = self.rho[r];
            if rho_r.abs() <= tol::RHO_MIN {
                continue;
            }
            for (col, v) in sf.matrix.row(r) {
                if live_only && !self.is_live(col) {
                    continue;
                }
                if self.alpha_mark[col] != epoch {
                    self.alpha_mark[col] = epoch;
                    self.alpha[col] = 0.0;
                    self.alpha_cols.push(cast::idx32(col));
                }
                self.alpha[col] += rho_r * v;
            }
            // The artificial for row `r` is a single ±1 entry there.
            let art = self.n0 + r;
            if live_only && !self.is_live(art) {
                continue;
            }
            if self.alpha_mark[art] != epoch {
                self.alpha_mark[art] = epoch;
                self.alpha[art] = 0.0;
                self.alpha_cols.push(cast::idx32(art));
            }
            self.alpha[art] += self.art_sign[r] * rho_r;
        }
    }

    /// Patches reduced costs and devex weights after the pivot that put
    /// `q` into the basis and dropped `leaving` out, using the α-row
    /// prepared by [`prepare_pivot_row`](Self::prepare_pivot_row):
    /// `d'_j = d_j − (d_q/α_q)·α_j`, and the devex reference-framework
    /// update `w'_j = max(w_j, (α_j/α_q)²·γ_q)`.
    // lint:allow(hot-path-index): devex/alpha arrays sized to n; rows bounded by m
    pub(super) fn update_pricing_after_pivot(&mut self, q: usize, leaving: usize, d_q: f64) {
        let alpha_q = self.alpha[q];
        let ratio = d_q / alpha_q;
        let gamma_q = self.devex[q];
        let mut exploded = false;
        for idx in 0..self.alpha_cols.len() {
            let j = cast::idx(self.alpha_cols[idx]);
            // Basic columns (q included, freshly pivoted in) keep d = 0;
            // `leaving` gets its exact post-pivot values below.
            if j == q || j == leaving || self.position[j] != usize::MAX {
                continue;
            }
            let a_j = self.alpha[j];
            self.d[j] -= ratio * a_j;
            let scaled = a_j / alpha_q;
            let w_new = scaled * scaled * gamma_q;
            if w_new > self.devex[j] {
                self.devex[j] = w_new;
                // A column the model fixes never enters, so its weight
                // never prices anything and must not restart the rest.
                exploded |= w_new > 1e12 && !self.model_fixes(j);
            }
        }
        self.d[q] = 0.0;
        self.d[leaving] = -ratio;
        let w_leave = (gamma_q / (alpha_q * alpha_q)).nmax(1.0);
        self.devex[leaving] = w_leave;
        exploded |= w_leave > 1e12;
        if exploded {
            // Restart the reference framework once weights outgrow their
            // numerical usefulness (standard devex practice).
            self.devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }
}
