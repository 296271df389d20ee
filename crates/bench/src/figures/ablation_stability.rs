//! Ablation: the stability objective (Expression 1).
//!
//! Without movement costs, every hourly re-solve is free to reshuffle
//! the whole region; with them, steady-state solves converge and churn
//! is reserved for real changes. This ablation runs the same perturbed
//! hourly solve sequence with the stability objective on and off and
//! compares cumulative server moves.

use ras_broker::SimTime;
use ras_core::solver::AsyncSolver;
use ras_core::SolverParams;
use ras_topology::RegionTemplate;

use crate::{fmt, instance, Experiment, Shape};

fn churn(params: SolverParams, label: &str, exp: &mut Experiment) -> (usize, usize) {
    let mut inst = instance::build(RegionTemplate::tiny(), 99, 8, 0.7);
    let mut solver = AsyncSolver::new(params);
    let mut total_moves = 0usize;
    let mut in_use_moves = 0usize;
    for round in 0..12u64 {
        if round % 4 == 0 {
            instance::perturb(&mut inst, round);
        }
        match inst.solve_round(&mut solver, SimTime::from_hours(round)) {
            Ok(out) => {
                total_moves += out.moves.total();
                in_use_moves += out.moves.in_use;
            }
            Err(e) => exp.fail(format!("{label}, round {round}: solve failed: {e}")),
        }
    }
    exp.row(&[
        label.into(),
        total_moves.to_string(),
        in_use_moves.to_string(),
        fmt(total_moves as f64 / 12.0, 1),
    ]);
    (total_moves, in_use_moves)
}

/// Regenerates the stability ablation.
pub fn run(_: Shape) -> Vec<Experiment> {
    let mut exp = Experiment::new(
        "ablation_stability",
        "Hourly churn with vs without the stability objective",
        "Expression 1 is what keeps continuous re-optimization from thrashing the fleet",
        &[
            "configuration",
            "total moves (12 solves)",
            "in-use moves",
            "moves/solve",
        ],
    );
    let with = churn(
        SolverParams::default(),
        "stability on (Ms = 100/10)",
        &mut exp,
    );
    let without = churn(
        SolverParams {
            move_cost_in_use: 0.0,
            move_cost_unused: 0.0,
            stability_bonus: 0.0,
            ..SolverParams::default()
        },
        "stability off (Ms = 0)",
        &mut exp,
    );
    exp.note(format!(
        "disabling stability multiplies churn {:.1}× and in-use (preempting) moves {:.1}×",
        without.0 as f64 / with.0.max(1) as f64,
        without.1 as f64 / with.1.max(1) as f64
    ));
    vec![exp]
}
