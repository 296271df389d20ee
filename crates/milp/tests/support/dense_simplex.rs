//! Textbook bounded-variable simplex on a dense tableau, with Bland's
//! rule for both the entering and the leaving choice: the reference the
//! differential suites hold the production engine to.
//!
//! It shares no code with `ras_milp::{simplex, lu, sparse, standard}`.
//! The model is read through `Model`'s accessors into a row-major
//! tableau: structural columns shifted so every lower bound is zero, a
//! slack (`+1`) or surplus (`-1`) column per inequality row, and one
//! artificial per row for a phase 1 from the identity basis. Every pivot
//! is a full Gauss-Jordan sweep and every reduced cost is recomputed from
//! the tableau, so there is no factorization, no update and no pricing
//! state to get wrong — and no speed: it is for LPs of a few dozen rows.
//! It answers status and objective only.

use ras_milp::{Model, Sense};

/// What the oracle proves about an LP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The optimal objective value.
    Optimal(f64),
    /// No point satisfies the rows and bounds.
    Infeasible,
    /// The objective decreases without limit.
    Unbounded,
}

/// Magnitudes below this are zero: pivot elements, reduced costs.
const EPS: f64 = 1e-9;
/// Ratios closer than this tie (and Bland's rule breaks the tie).
const TIE: f64 = 1e-12;

struct Tableau {
    /// `B⁻¹A`, one row per constraint.
    t: Vec<Vec<f64>>,
    /// Value of each row's basic variable.
    xb: Vec<f64>,
    basis: Vec<usize>,
    /// Upper bound per column (lower bounds are all zero).
    ub: Vec<f64>,
    /// Nonbasic columns resting on their upper bound.
    at_upper: Vec<bool>,
}

impl Tableau {
    /// Pivots to optimality under `cost`; false when unbounded.
    fn optimize(&mut self, cost: &[f64]) -> bool {
        let (m, cols) = (self.t.len(), self.ub.len());
        for _ in 0..100_000 {
            // Bland: the lowest-index column whose reduced cost improves.
            let entering = (0..cols).find(|&j| {
                if self.basis.contains(&j) || self.ub[j] == 0.0 {
                    return false;
                }
                let d = cost[j]
                    - (0..m)
                        .map(|i| cost[self.basis[i]] * self.t[i][j])
                        .sum::<f64>();
                if self.at_upper[j] {
                    d > EPS
                } else {
                    d < -EPS
                }
            });
            let Some(q) = entering else {
                return true;
            };
            // The entering variable moves by `step` in direction `dir`,
            // until it reaches its own other bound or a basic variable
            // reaches one of its bounds: row i's moves at `-dir * t[i][q]`.
            let dir = if self.at_upper[q] { -1.0 } else { 1.0 };
            let mut step = self.ub[q];
            let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper)
            for i in 0..m {
                let rate = -dir * self.t[i][q];
                let (room, to_upper) = if rate < -EPS {
                    (self.xb[i] / -rate, false)
                } else if rate > EPS {
                    ((self.ub[self.basis[i]] - self.xb[i]) / rate, true)
                } else {
                    continue;
                };
                let room = room.max(0.0);
                // Bland on ties: the lowest-index basic variable leaves.
                let wins_tie = leave.is_some_and(|(l, _)| {
                    (room - step).abs() <= TIE && self.basis[i] < self.basis[l]
                });
                if room < step - TIE || wins_tie {
                    step = room.min(step);
                    leave = Some((i, to_upper));
                }
            }
            if step == f64::INFINITY {
                return false;
            }
            for i in 0..m {
                self.xb[i] -= dir * self.t[i][q] * step;
            }
            let Some((r, to_upper)) = leave else {
                self.at_upper[q] = !self.at_upper[q];
                continue;
            };
            let entered = if self.at_upper[q] {
                self.ub[q] - step
            } else {
                step
            };
            self.at_upper[self.basis[r]] = to_upper;
            self.at_upper[q] = false;
            self.basis[r] = q;
            self.xb[r] = entered;
            // Gauss-Jordan sweep on t[r][q].
            let pivot = self.t[r][q];
            self.t[r].iter_mut().for_each(|v| *v /= pivot);
            let pivot_row = self.t[r].clone();
            for (i, row) in self.t.iter_mut().enumerate() {
                let f = row[q];
                if i != r && f != 0.0 {
                    row.iter_mut()
                        .zip(&pivot_row)
                        .for_each(|(v, p)| *v -= f * p);
                }
            }
        }
        panic!("dense simplex oracle: Bland's rule did not terminate");
    }

    /// `Σ cost_j x_j` at the current vertex.
    fn objective(&self, cost: &[f64]) -> f64 {
        let basic: f64 = (0..self.t.len())
            .map(|i| cost[self.basis[i]] * self.xb[i])
            .sum();
        let resting: f64 = (0..self.ub.len())
            .filter(|&j| self.at_upper[j] && !self.basis.contains(&j))
            .map(|j| cost[j] * self.ub[j])
            .sum();
        basic + resting
    }
}

/// Solves the LP relaxation of `model` (integrality is ignored). Every
/// variable needs a finite lower bound.
pub fn solve(model: &Model) -> Outcome {
    let (n, m) = (model.num_vars(), model.num_constraints());
    let lower: Vec<f64> = model.vars().iter().map(|v| v.lower).collect();
    assert!(
        lower.iter().all(|l| l.is_finite()),
        "the oracle shifts every variable to a zero lower bound"
    );
    let slacks = model
        .constraints()
        .iter()
        .filter(|c| !matches!(c.sense, Sense::Eq))
        .count();
    let (art0, cols) = (n + slacks, n + slacks + m);

    let mut ub: Vec<f64> = model.vars().iter().map(|v| v.upper - v.lower).collect();
    ub.resize(cols, f64::INFINITY);
    let mut cost = vec![0.0; cols];
    for &(v, c) in &model.objective().terms {
        cost[v.index()] += c;
    }
    let constant = model.objective().constant + (0..n).map(|j| cost[j] * lower[j]).sum::<f64>();

    let mut t = vec![vec![0.0; cols]; m];
    let mut xb = vec![0.0; m];
    let mut next_slack = n;
    for (i, c) in model.constraints().iter().enumerate() {
        let mut rhs = c.rhs;
        for &(v, a) in &c.expr.terms {
            t[i][v.index()] += a;
            rhs -= a * lower[v.index()];
        }
        match c.sense {
            Sense::Le => t[i][next_slack] = 1.0,
            Sense::Ge => t[i][next_slack] = -1.0,
            Sense::Eq => {}
        }
        next_slack += usize::from(!matches!(c.sense, Sense::Eq));
        if rhs < 0.0 {
            t[i].iter_mut().for_each(|v| *v = -*v);
            rhs = -rhs;
        }
        t[i][art0 + i] = 1.0;
        xb[i] = rhs;
    }
    let rhs_scale = 1.0 + xb.iter().sum::<f64>();
    let mut tableau = Tableau {
        t,
        xb,
        basis: (art0..cols).collect(),
        ub,
        at_upper: vec![false; cols],
    };

    // Phase 1: minimize the artificials; they start basic at `rhs ≥ 0`.
    let mut phase1_cost = vec![0.0; cols];
    phase1_cost[art0..].fill(1.0);
    let bounded = tableau.optimize(&phase1_cost);
    assert!(
        bounded,
        "a sum of non-negative artificials is bounded below"
    );
    if tableau.objective(&phase1_cost) > 1e-7 * rhs_scale {
        return Outcome::Infeasible;
    }
    // Phase 2: artificials pinned at zero (one still basic sits there and
    // leaves on the first pivot that would move it).
    tableau.ub[art0..].fill(0.0);
    for i in 0..m {
        if tableau.basis[i] >= art0 {
            tableau.xb[i] = 0.0;
        }
    }
    if !tableau.optimize(&cost) {
        return Outcome::Unbounded;
    }
    Outcome::Optimal(constant + tableau.objective(&cost))
}
