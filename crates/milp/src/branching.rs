//! Branching-variable selection: most-fractional and pseudo-cost rules.
//!
//! Pseudo-costs track, per integer variable and branch direction, the
//! average objective degradation per unit of fractionality observed in
//! past branches. Once a variable has been branched a few times, the
//! estimate lets the search pick variables whose branching tightens the
//! bound fastest — the standard device commercial MIP solvers use, and a
//! meaningful win on RAS models whose spread objectives make many
//! assignment variables fractional at the LP optimum.

use crate::nan::NanGuard;
use crate::tol;

/// Per-variable, per-direction pseudo-cost bookkeeping.
#[derive(Debug, Clone, Default)]
struct PseudoCost {
    /// Sum of per-unit objective degradations seen branching down.
    down_sum: f64,
    /// Number of down observations.
    down_n: u32,
    /// Sum of per-unit degradations seen branching up.
    up_sum: f64,
    /// Number of up observations.
    up_n: u32,
}

impl PseudoCost {
    fn down(&self, fallback: f64) -> f64 {
        if self.down_n == 0 {
            fallback
        } else {
            self.down_sum / self.down_n as f64
        }
    }

    fn up(&self, fallback: f64) -> f64 {
        if self.up_n == 0 {
            fallback
        } else {
            self.up_sum / self.up_n as f64
        }
    }
}

/// Pseudo-cost store covering all variables of one model.
#[derive(Debug, Clone)]
pub struct PseudoCosts {
    costs: Vec<PseudoCost>,
    /// Running average over every observation (the uninitialized default).
    global_sum: f64,
    global_n: u32,
}

impl PseudoCosts {
    /// Creates a store for `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Self {
            costs: vec![PseudoCost::default(); num_vars],
            global_sum: 0.0,
            global_n: 0,
        }
    }

    /// Records the outcome of one branch: variable `var` had fractional
    /// part `frac` (for down) / `1 − frac` (for up), and the child LP's
    /// objective rose by `degradation` (clamped at 0).
    pub fn record(&mut self, var: usize, went_up: bool, frac: f64, degradation: f64) {
        let degradation = degradation.nmax(0.0);
        let distance = if went_up { 1.0 - frac } else { frac };
        if distance < tol::EPS {
            return;
        }
        let per_unit = degradation / distance;
        let pc = &mut self.costs[var];
        if went_up {
            pc.up_sum += per_unit;
            pc.up_n += 1;
        } else {
            pc.down_sum += per_unit;
            pc.down_n += 1;
        }
        self.global_sum += per_unit;
        self.global_n += 1;
    }

    /// True once any observation exists (before that, callers should use
    /// most-fractional selection).
    pub fn initialized(&self) -> bool {
        self.global_n > 0
    }

    /// Scores a candidate: the product rule
    /// `max(ε, down_est·frac) · max(ε, up_est·(1−frac))`, the standard
    /// balanced-improvement measure. Higher is better.
    pub fn score(&self, var: usize, frac: f64) -> f64 {
        let fallback = if self.global_n == 0 {
            1.0
        } else {
            self.global_sum / self.global_n as f64
        };
        let pc = &self.costs[var];
        let down = (pc.down(fallback) * frac).max(tol::PRIMAL_FEAS);
        let up = (pc.up(fallback) * (1.0 - frac)).nmax(tol::PRIMAL_FEAS);
        down * up
    }
}

/// Selects a branching variable among fractional candidates.
///
/// `values` are the node LP values; `int_vars` the integer variable
/// indices. A value within [`tol::PRIMAL_FEAS`] of an integer counts as
/// integral. With initialized pseudo-costs the product rule picks;
/// otherwise most-fractional.
pub fn select(values: &[f64], int_vars: &[usize], pseudo: &PseudoCosts) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &j in int_vars {
        let v = values[j];
        let frac_part = v - v.floor();
        if (v - v.round()).abs() <= tol::PRIMAL_FEAS {
            continue;
        }
        let score = if pseudo.initialized() {
            pseudo.score(j, frac_part)
        } else {
            // Most fractional: distance to 0.5 inverted.
            0.5 - (frac_part - 0.5).abs()
        };
        match best {
            Some((_, bs)) if bs >= score => {}
            _ => best = Some((j, score)),
        }
    }
    best.map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialized_falls_back_to_most_fractional() {
        let pseudo = PseudoCosts::new(3);
        // x1 = 2.5 is the most fractional.
        let pick = select(&[1.1, 2.5, 3.9], &[0, 1, 2], &pseudo);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn integral_values_are_skipped() {
        let pseudo = PseudoCosts::new(2);
        assert_eq!(select(&[1.0, 2.0], &[0, 1], &pseudo), None);
    }

    #[test]
    fn pseudo_costs_steer_selection() {
        let mut pseudo = PseudoCosts::new(2);
        // Variable 0 historically degrades the objective a lot both ways.
        for _ in 0..4 {
            pseudo.record(0, false, 0.5, 10.0);
            pseudo.record(0, true, 0.5, 10.0);
            pseudo.record(1, false, 0.5, 0.1);
            pseudo.record(1, true, 0.5, 0.1);
        }
        // Equal fractionality: the high-impact variable wins.
        let pick = select(&[1.5, 2.5], &[0, 1], &pseudo);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn record_ignores_zero_distance() {
        let mut pseudo = PseudoCosts::new(1);
        pseudo.record(0, true, 1.0, 5.0); // distance 0: no-op
        assert!(!pseudo.initialized());
    }

    #[test]
    fn score_is_balanced_product() {
        let mut pseudo = PseudoCosts::new(2);
        // Variable 0: only good going down; variable 1: good both ways.
        pseudo.record(0, false, 0.5, 8.0);
        pseudo.record(0, true, 0.5, 0.0);
        pseudo.record(1, false, 0.5, 3.0);
        pseudo.record(1, true, 0.5, 3.0);
        let s0 = pseudo.score(0, 0.5);
        let s1 = pseudo.score(1, 0.5);
        assert!(
            s1 > s0,
            "balanced improvement beats one-sided: {s1} vs {s0}"
        );
    }
}
