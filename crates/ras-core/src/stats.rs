//! Per-phase solve statistics (the quantities behind Figures 8, 10, 11).

use ras_milp::{SolveStats, Status};

use crate::aggregate::ReductionStats;

/// Timing and size breakdown of one solver phase, matching the paper's
/// four steps: RAS Build, Solver Build, Initial State, MIP (Figure 8).
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Seconds building RAS objectives/constraints (classes + model).
    pub ras_build_seconds: f64,
    /// Seconds building the solver's standard form.
    pub solver_build_seconds: f64,
    /// Seconds computing the initial state (root LP relaxation).
    pub initial_state_seconds: f64,
    /// Seconds in branch-and-bound proper.
    pub mip_seconds: f64,
    /// Wall-clock total for the phase.
    pub total_seconds: f64,
    /// Assignment variables after symmetry reduction (x-axis of Figs 10/11).
    pub assignment_vars: usize,
    /// Equivalence classes in the phase.
    pub classes: usize,
    /// Estimated model memory in bytes (Figure 11).
    pub memory_bytes: usize,
    /// Raw MIP statistics (gap, nodes, iterations).
    pub mip_stats: SolveStats,
    /// Names of constraints that had to be softened.
    pub softened: Vec<String>,
    /// Final solve status (differential cold-vs-warm checks compare this).
    pub status: Status,
    /// Full phase objective: MIP objective plus the movement constant of
    /// the model actually solved. A warm solve and a cold solve of the
    /// same round must agree on this within tolerance.
    pub objective: f64,
    /// Size accounting of the phase's reduction (servers classed and
    /// excluded, classes).
    pub reduction: ReductionStats,
}

impl PhaseStats {
    /// Setup time = everything except the MIP step, the quantity plotted
    /// in Figure 10 ("RAS build + solver build + initial state").
    pub fn setup_seconds(&self) -> f64 {
        self.ras_build_seconds + self.solver_build_seconds + self.initial_state_seconds
    }

    /// Fraction of phase time spent in the MIP step.
    pub fn mip_fraction(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            0.0
        } else {
            self.mip_seconds / self.total_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = PhaseStats {
            ras_build_seconds: 1.0,
            solver_build_seconds: 2.0,
            initial_state_seconds: 3.0,
            mip_seconds: 4.0,
            total_seconds: 10.0,
            ..PhaseStats::default()
        };
        assert_eq!(s.setup_seconds(), 6.0);
        assert_eq!(s.mip_fraction(), 0.4);
        assert_eq!(PhaseStats::default().mip_fraction(), 0.0);
    }
}
