//! Figure 8: allocation-time breakdown by phase and step.
//!
//! Paper: phase 1 is ≈60 % of total time and spends 67 % of itself in the
//! MIP step; phase 2 spends only 19 % in MIP with ≈70 % split between the
//! two build steps. The shape to reproduce: MIP dominates phase 1, build
//! dominates phase 2.

use ras_broker::SimTime;
use ras_core::solver::AsyncSolver;
use ras_core::stats::PhaseStats;
use ras_milp::SolveStats;
use ras_topology::RegionTemplate;

use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figure 8: 10 rounds, 2 at [`Shape::Smoke`].
pub fn run(shape: Shape) -> Vec<Experiment> {
    let mut inst = instance::build(RegionTemplate::medium(), 8, 24, 0.85);
    // Tight rack-spread limits so phase 2 (rack goals) has real work —
    // the production trigger is rack-level hotspots, which our
    // rack-aware concretizer otherwise mostly avoids.
    for spec in inst.specs.iter_mut() {
        if spec.kind == ras_core::reservation::ReservationKind::Guaranteed {
            spec.spread.rack_share = Some(0.015);
        }
    }
    let mut solver = AsyncSolver::new(inst.params.clone());
    let mut exp = Experiment::new(
        "fig08",
        "Allocation time breakdown by phase and step",
        "phase1 ≈60% of total, 67% of it in MIP; phase2 ≈19% MIP, ≈70% in builds",
        &[
            "phase",
            "ras build%",
            "solver build%",
            "initial state%",
            "MIP%",
            "share of total%",
        ],
    );
    // Average the breakdown over several perturbed solves; the solver
    // counters of both phases add up in `mip`. Of those, the look-ahead's
    // (nodes solved ahead, LPs discarded) depend on thread timing.
    let mut acc: [PhaseStats; 2] = [PhaseStats::default(), PhaseStats::default()];
    let mut mip = SolveStats::default();
    let mut phase2_runs = 0usize;
    // The search thread's seconds in its rounding dives (part of MIP).
    let mut dive_seconds = 0.0;
    let rounds = shape.pick(10u64, 2);
    for round in 0..rounds {
        instance::perturb(&mut inst, round);
        let out = match inst.solve_round(&mut solver, SimTime::from_hours(round)) {
            Ok(out) => out,
            Err(e) => {
                exp.fail(format!("round {round}: solve failed: {e}"));
                continue;
            }
        };
        for (slot, stats) in [Some(&out.phase1), out.phase2.as_ref()]
            .into_iter()
            .enumerate()
        {
            if let Some(s) = stats {
                acc[slot].ras_build_seconds += s.ras_build_seconds;
                acc[slot].solver_build_seconds += s.solver_build_seconds;
                acc[slot].initial_state_seconds += s.initial_state_seconds;
                acc[slot].mip_seconds += s.mip_seconds;
                acc[slot].total_seconds += s.total_seconds;
                mip.absorb(&s.mip_stats);
                dive_seconds += s.mip_stats.dive_seconds;
                if slot == 1 {
                    phase2_runs += 1;
                }
            }
        }
    }

    let grand_total = acc[0].total_seconds + acc[1].total_seconds;
    for (i, s) in acc.iter().enumerate() {
        if s.total_seconds <= 0.0 {
            continue;
        }
        let pct = |v: f64| fmt(v / s.total_seconds * 100.0, 1);
        exp.row(&[
            format!("phase {}", i + 1),
            pct(s.ras_build_seconds),
            pct(s.solver_build_seconds),
            pct(s.initial_state_seconds),
            pct(s.mip_seconds),
            fmt(s.total_seconds / grand_total * 100.0, 1),
        ]);
    }
    exp.note(format!(
        "{phase2_runs}/{rounds} solves ran a phase 2 (it only runs when rack goals are violated)"
    ));
    exp.note(format!(
        "pricing: {} simplex pivots, {} full reduced-cost rebuilds, {} candidate-list hits",
        mip.simplex_iterations, mip.pricing_full_rebuilds, mip.pricing_candidate_hits
    ));
    exp.note(format!(
        "basis: {} dual pivots, {} Forrest-Tomlin updates, \
         refactorizations {} interval / {} growth / {} accuracy",
        mip.dual_iterations,
        mip.basis_updates,
        mip.refactors_interval,
        mip.refactors_growth,
        mip.refactors_accuracy
    ));
    exp.note(format!(
        "look-ahead: {} nodes solved ahead, {} look-ahead LPs discarded \
         (timing-dependent); dives {} s of {} s MIP",
        mip.nodes_solved_ahead,
        mip.lp_solves_discarded,
        fmt(dive_seconds, 3),
        fmt(acc[0].mip_seconds + acc[1].mip_seconds, 3)
    ));
    exp.note(format!(
        "dives: {} LPs, {} us per dive LP; {} solves installed the basis \
         their engine held (timing-dependent)",
        mip.dive_lps,
        fmt(dive_seconds * 1e6 / mip.dive_lps.max(1) as f64, 0),
        mip.held_installs
    ));
    exp.note("shape check: MIP share of phase 1 should exceed its share of phase 2");
    vec![exp]
}
