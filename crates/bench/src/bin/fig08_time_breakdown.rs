//! Figure 8: allocation-time breakdown by phase and step.
//!
//! Paper: phase 1 is ≈60 % of total time and spends 67 % of itself in the
//! MIP step; phase 2 spends only 19 % in MIP with ≈70 % split between the
//! two build steps. The shape to reproduce: MIP dominates phase 1, build
//! dominates phase 2.

use ras_bench::{fmt, instance, Experiment};
use ras_broker::SimTime;
use ras_core::solver::AsyncSolver;
use ras_core::stats::PhaseStats;
use ras_topology::RegionTemplate;

fn main() {
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
    // Average the breakdown over several perturbed solves.
    let mut acc: [PhaseStats; 2] = [PhaseStats::default(), PhaseStats::default()];
    let mut phase2_runs = 0usize;
    // Pricing-engine counters aggregated across both phases (the MIP
    // step's simplex work, which dominates phase 1).
    let mut pivots = 0usize;
    let mut rebuilds = 0usize;
    let mut cand_hits = 0usize;
    // Basis-maintenance counters: dual-simplex pivots, in-place
    // factorization updates, and refactorizations by trigger.
    let mut dual_pivots = 0usize;
    let mut basis_updates = 0usize;
    let mut refac_interval = 0usize;
    let mut refac_growth = 0usize;
    let mut refac_accuracy = 0usize;
    // Branch-and-bound look-ahead: nodes whose LP the helper thread (or
    // the search, while waiting for it) solved before their pop, and LPs
    // solved ahead for nodes never popped. Both depend on thread timing.
    let mut solved_ahead = 0usize;
    let mut discarded = 0usize;
    // The search thread's seconds in its rounding dives (part of MIP).
    let mut dive_seconds = 0.0;
    let rounds = 10u64;
    for round in 0..rounds {
        instance::perturb(&mut inst, round);
        let snapshot = inst.broker.snapshot(SimTime::from_hours(round));
        let Ok(out) = solver.solve(&inst.region, &inst.specs, &snapshot) else {
            continue;
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
                pivots += s.mip_stats.simplex_iterations;
                rebuilds += s.mip_stats.pricing_full_rebuilds;
                cand_hits += s.mip_stats.pricing_candidate_hits;
                dual_pivots += s.mip_stats.dual_iterations;
                basis_updates += s.mip_stats.basis_updates;
                refac_interval += s.mip_stats.refactors_interval;
                refac_growth += s.mip_stats.refactors_growth;
                refac_accuracy += s.mip_stats.refactors_accuracy;
                solved_ahead += s.mip_stats.nodes_solved_ahead;
                discarded += s.mip_stats.lp_solves_discarded;
                dive_seconds += s.mip_stats.dive_seconds;
                if slot == 1 {
                    phase2_runs += 1;
                }
            }
        }
        let _ = solver.apply(&out, &mut inst.broker);
        for s in inst.broker.pending_moves() {
            let t = inst.broker.record(s).map(|r| r.target).unwrap_or(None);
            let _ = inst.broker.bind_current(s, t);
        }
    }

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
        "pricing: {pivots} simplex pivots, {rebuilds} full reduced-cost rebuilds, \
         {cand_hits} candidate-list hits"
    ));
    exp.note(format!(
        "basis: {dual_pivots} dual pivots, {basis_updates} Forrest-Tomlin updates, \
         refactorizations {refac_interval} interval / {refac_growth} growth / \
         {refac_accuracy} accuracy"
    ));
    exp.note(format!(
        "look-ahead: {solved_ahead} nodes solved ahead, {discarded} look-ahead LPs discarded \
         (timing-dependent); dives {} s of {} s MIP",
        fmt(dive_seconds, 3),
        fmt(acc[0].mip_seconds + acc[1].mip_seconds, 3)
    ));
    exp.note("shape check: MIP share of phase 1 should exceed its share of phase 2");
    exp.finish();
}
