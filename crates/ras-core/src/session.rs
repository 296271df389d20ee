//! Warm-started continuous re-solves: what one shard carries from round
//! to round, and the round body that uses it.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. A cold solve pays for that drift with fleet-proportional
//! simplex work from a slack crash, even though the previous round's
//! root LP is almost always a few pivots from this round's. A round
//! carries one warm artifact to make that work proportional to the
//! *drift*: **the root LP basis, with its name space.** The previous
//! round's optimal root basis is handed to the simplex through
//! [`ras_milp::SolveConfig::warm_basis`]. Variables and rows are named
//! after key-stable class labels, so the basis goes in as it is when the
//! new model's names equal the cached ones ([`WarmReport::model_reused`]:
//! the round differs from the last in bounds and right-hand sides only,
//! which keeps the basis dual feasible) and is otherwise repaired by name
//! ([`ras_milp::Basis::remap`]) — vanished columns fall back to slacks or
//! artificials, and the warm solve's dual-repair loop absorbs the
//! difference (or the simplex falls back to a cold start; the final
//! objective is identical either way).
//!
//! The plan the region already runs needs no carrier of its own: it
//! reaches the round through the broker snapshot, whose per-server
//! `current` and `target` enter the model's stability terms (paper
//! Expression 1), and branch and bound gets the candidate incumbents a
//! cold round gets ([`crate::phases::candidate_incumbents`]: the current
//! assignment, then the greedy construction). An earlier design also
//! re-valued the last round's targets as a *seed* incumbent. Withheld on
//! the benchmark's four workloads, on two instances each, it changed no
//! plan metric and no work counter to the last digit, nor any objective
//! or move with half of each round's moves left pending and servers
//! failing. It acted in sharded rounds alone, where it offered each
//! shard its own targets from before reconcile released the merged
//! plan's surplus (EXPERIMENTS, *One warm artifact*).
//!
//! The phase-1 model itself is rebuilt from the round's reduction every
//! round. An earlier design cached it and patched drifted class counts
//! in place; measured on the benchmark's four workloads that cache was
//! hit on 0 / 0 / 0 / 9.4 % of rounds (class keys embed current, target
//! and in-use, so any applied move changes them) and a hit skipped a
//! 0.5 ms build inside a 17 ms round, while the basis above carried
//! every warm round whether it hit or not (EXPERIMENTS, *Session
//! traffic*).
//!
//! The [`AsyncSolver`](crate::solver::AsyncSolver) owns the round: it
//! keeps one cache per shard, numbers the rounds and applies the
//! recovery rule. Staleness and fallback rules: a failed round drops
//! every cache (the next round is cold); softening raises bounds on the
//! round's own model and renames nothing, so a softened round caches its
//! basis in the same name space as a hard one; a basis never enters a
//! model with different names un-remapped; the simplex validates the
//! basis it is handed, so warm and cold solves of the same round agree
//! on status and objective.
//!
//! Phase 2 always runs cold: its restricted universe and spec visibility
//! change every round, so there is no temporal structure to exploit. A
//! warm round skips it when phase 1 reproduces the targets the broker
//! already carries: re-run on an unchanged plan, phase 2 can swap
//! servers between racks at an equal objective.
//!
//! A round solves one model, the reduction of
//! [`crate::aggregate`]. That reduction is exact — its solved class
//! counts are the plan, with nothing to split back — so no round
//! re-solves an unreduced model to check it.

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_milp::Basis;
use ras_topology::{Region, ServerId};

use crate::assign::{count_class_moves, current_bindings, MoveStats};
use crate::classes::{scope_servers, EquivClass};
use crate::error::CoreError;
use crate::model::build_model_labeled;
use crate::params::SolverParams;
use crate::phases::{model_names, refine_with_phase2, scoped_reduction, solve_phase, PhaseRun};
use crate::reservation::ReservationSpec;
use crate::stats::PhaseStats;

/// What warm-start machinery did in one continuous round (the observability
/// half of the continuous pipeline — `fig_continuous` prints these). The
/// solve's own counters are in the round's phase-1 [`PhaseStats`];
/// `warm_basis_accepted`, `dual_resolve` and `incumbent_seeded` repeat
/// three of them here for readers of this struct alone.
#[derive(Debug, Clone, Default)]
pub struct WarmReport {
    /// 0-based index of this round since the solver last dropped its
    /// warm state (a new solver, a failed round or a new shard partition).
    pub round: usize,
    /// The round's model has the name space of the previous round's: the
    /// same variables and rows, so the same skeleton as last round.
    pub model_reused: bool,
    /// A warm basis was handed to the root LP.
    pub warm_basis_supplied: bool,
    /// The basis had to be remapped by name: the name space changed.
    pub basis_remapped: bool,
    /// The root LP actually started from the warm basis (no fallback).
    pub warm_basis_accepted: bool,
    /// The round differs from the last in bounds and right-hand sides
    /// only (an unchanged name space) — exactly the diffs that keep the
    /// persisted basis dual feasible, so the dual simplex re-solves them
    /// with no phase 1.
    pub bounds_only_patch: bool,
    /// The dual simplex solved the root LP (no phase 1 at all): warm
    /// from the accepted basis, or — `warm_basis_accepted` false — cold
    /// and dual-first from the plan the region already runs.
    pub dual_resolve: bool,
    /// Branch-and-bound installed a supplied incumbent before searching.
    pub incumbent_seeded: bool,
}

/// One shard's warm state, carried to its next round. The round owner,
/// [`AsyncSolver`](crate::solver::AsyncSolver), keeps one per shard and
/// drops them all when a round fails or the partition changes.
#[derive(Debug, Clone)]
pub(crate) struct RoundCache {
    /// Root LP basis of the previous round's phase-1 solve.
    basis: Option<Basis>,
    /// Structural variable names of the model `basis` was recorded in.
    var_names: Vec<String>,
    /// Constraint row names of the model `basis` was recorded in.
    row_names: Vec<String>,
}

/// One shard's solved round.
pub(crate) struct RoundRun {
    /// Per-server targets; every server outside the round's universe
    /// keeps its current binding.
    pub targets: Vec<Option<ReservationId>>,
    /// Phase-1 statistics.
    pub phase1: PhaseStats,
    /// Phase-2 statistics, when the refinement ran.
    pub phase2: Option<PhaseStats>,
    /// Moves the targets plan.
    pub moves: MoveStats,
    /// The phase-1 classes: every server of the universe the round could
    /// assign, under its binding.
    pub classes: Vec<EquivClass>,
    /// How the round warm-started.
    pub warm: WarmReport,
}

/// Runs one continuous round of one shard: build the model, warm-start
/// the root LP from `cache`'s basis, refine with phase 2, and
/// re-arm `cache` for the next round. `round` is the owner's round
/// number, reported in [`WarmReport::round`]. `universe`, a list of
/// servers in ascending id order, restricts classes and the phase-2
/// refinement to those servers, and every other slot of the returned
/// targets keeps the server's current binding; `None` solves the whole
/// region.
///
/// On error `cache` is left empty: the owner's recovery rule decides
/// what the failure means for the other shards and the numbering.
pub(crate) fn run_round(
    cache: &mut Option<RoundCache>,
    round: usize,
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    universe: Option<&[ServerId]>,
) -> Result<RoundRun, CoreError> {
    let phase_start = Instant::now();
    let mut report = WarmReport {
        round,
        ..WarmReport::default()
    };

    let reduction = scoped_reduction(region, snapshot, specs, params.phase1_granularity, universe);
    let mut ras = build_model_labeled(
        region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        params,
        false,
        None,
    );
    let ras_build_seconds = phase_start.elapsed().as_secs_f64();
    let (var_names, row_names) = model_names(&ras.model);

    // The warm start is the previous round's root basis, repaired by
    // name when the name space moved. On any error below the cache
    // stays dropped.
    let entered_warm = cache.is_some();
    let mut warm_basis = None;
    if let Some(prev) = cache.take() {
        // Names are built from class labels and spec names, so the
        // name space is stable whenever the class keys are.
        let same_names = prev.var_names == var_names && prev.row_names == row_names;
        report.model_reused = same_names;
        report.bounds_only_patch = same_names;
        if let Some(basis) = prev.basis {
            warm_basis = Some(if same_names {
                basis
            } else {
                report.basis_remapped = true;
                basis.remap(&prev.var_names, &prev.row_names, &var_names, &row_names)
            });
            report.warm_basis_supplied = true;
        }
    }

    // Phase 2 ranks rack overages over the whole region, so phase 1's
    // plan covers every server: outside its classes, the current
    // binding.
    let mut targets1 = current_bindings(region, snapshot);
    let PhaseRun {
        stats: phase1,
        root_basis,
    } = solve_phase(
        &mut targets1,
        region,
        specs,
        snapshot,
        params,
        &reduction,
        &mut ras,
        warm_basis,
        phase_start,
        ras_build_seconds,
    )?;
    report.warm_basis_accepted = phase1.mip_stats.warm_basis_accepted;
    report.dual_resolve = phase1.mip_stats.root_used_dual_simplex;
    report.incumbent_seeded = phase1.mip_stats.incumbent_seeded;

    // Steady-state check: a warm round whose phase 1 lands exactly on
    // the targets the broker already carries for the round's universe
    // keeps them and skips phase 2. Phase 2 is not a fixed point of its own output: re-run
    // on an unchanged plan it can swap servers between racks at an
    // equal objective and plan moves for nothing. Any real drift
    // changes targets1 and re-enables refinement.
    let steady = entered_warm
        && scope_servers(region, universe).all(|server| {
            let s = server.id.index();
            targets1[s] == snapshot.records[s].target
        });
    let (targets, phase2) = if steady {
        (targets1, None)
    } else {
        refine_with_phase2(region, specs, snapshot, params, targets1, universe)
    };

    *cache = Some(RoundCache {
        basis: root_basis,
        var_names,
        row_names,
    });
    Ok(RoundRun {
        // No server outside the phase-1 classes moves: phase 2 reassigns
        // some of their members, and every other server keeps its
        // current binding.
        moves: count_class_moves(&reduction.classes, &targets),
        classes: reduction.classes,
        targets,
        phase1,
        phase2,
        warm: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use crate::solver::AsyncSolver;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    fn materialize(broker: &mut ResourceBroker) {
        for s in broker.pending_moves() {
            let target = broker.record(s).unwrap().target;
            broker.bind_current(s, target).unwrap();
        }
    }

    /// On the region of seed 42 with one reservation, and on seed 108
    /// with two, where phase 2 re-run on an unchanged plan swaps servers
    /// between racks: once the plan is applied, warm rounds keep it with
    /// no phase 2 and no move, while a fresh solver on the same broker
    /// refines it again (on seed 42 the plan has no rack overage, so no
    /// solver runs phase 2).
    #[test]
    fn steady_state_reuses_model_and_plans_no_moves() {
        let fixtures = [
            (42, &[("web", 40.0)][..], false),
            (108, &[("web", 40.0), ("feed", 25.0)][..], true),
        ];
        for (seed, capacities, rack_overage) in fixtures {
            let region = RegionBuilder::new(RegionTemplate::tiny(), seed).build();
            let mut broker = ResourceBroker::new(region.server_count());
            let specs: Vec<ReservationSpec> = capacities
                .iter()
                .map(|&(name, capacity)| {
                    broker.register_reservation(name);
                    uniform_spec(&region, name, capacity)
                })
                .collect();
            let mut solver = AsyncSolver::default();

            let snap = broker.snapshot(SimTime::ZERO);
            let o1 = solver.solve(&region, &specs, &snap).unwrap();
            let w1 = &o1.warm;
            assert!(!w1.model_reused, "seed {seed}: round 0 must be cold");
            assert!(!w1.warm_basis_supplied);
            for (i, t) in o1.targets.iter().enumerate() {
                broker.set_target(ServerId::from_index(i), *t).unwrap();
            }
            materialize(&mut broker);

            // Round 1 sees the applied bindings for the first time: the
            // class keys embed current/target, so this round's names
            // differ (the basis is remapped) and settle into the
            // steady-state key set.
            let snap2 = broker.snapshot(SimTime::from_hours(1));
            let o2 = solver.solve(&region, &specs, &snap2).unwrap();
            let w2 = &o2.warm;
            assert!(w2.warm_basis_supplied);
            assert!(w2.incumbent_seeded);
            assert_eq!(
                o2.targets, o1.targets,
                "seed {seed}: steady-state round must keep the assignment"
            );

            // Round 2 on an unchanged snapshot: the same name space.
            let snap3 = broker.snapshot(SimTime::from_hours(2));
            let o3 = solver.solve(&region, &specs, &snap3).unwrap();
            let w3 = &o3.warm;
            assert!(
                w3.model_reused,
                "seed {seed}: steady state must keep the skeleton"
            );
            assert!(w3.warm_basis_supplied);
            assert!(!w3.basis_remapped, "identical name space, no remap");
            assert!(w3.incumbent_seeded);
            assert_eq!(o3.targets, o1.targets);
            for (round, out) in [(1, &o2), (2, &o3)] {
                assert!(
                    out.phase2.is_none(),
                    "seed {seed} round {round}: phase 1 reproduced the broker's targets"
                );
                assert_eq!(out.moves.total(), 0, "seed {seed} round {round}");
            }

            // A fresh solver enters the round cold: it never takes the
            // steady-state check and refines the applied plan again.
            let fresh = AsyncSolver::default()
                .solve(&region, &specs, &snap3)
                .unwrap();
            assert_eq!(fresh.phase2.is_some(), rack_overage, "seed {seed}");
        }
    }

    #[test]
    fn count_drift_keeps_the_name_space_and_resolves_dual_first() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let mut solver = AsyncSolver::default();

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);
        // Stabilization round: the key set now embeds the applied bindings.
        let snap1 = broker.snapshot(SimTime::from_hours(1));
        solver.solve(&region, &specs, &snap1).unwrap();

        // Take down one free-pool server: its class only shrinks, which
        // moves a bound and a right-hand side and no name, so the cached
        // basis goes in as it is and stays dual feasible.
        let victim = o1
            .targets
            .iter()
            .position(|t| t.is_none())
            .map(ServerId::from_index)
            .expect("free server");
        broker
            .mark_down(UnavailabilityEvent {
                server: victim,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(victim),
                start: SimTime::from_hours(1),
                expected_end: None,
            })
            .unwrap();
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let o2 = solver.solve(&region, &specs, &snap2).unwrap();
        let w2 = &o2.warm;
        assert!(w2.model_reused);
        assert!(!w2.basis_remapped);
        assert!(w2.warm_basis_accepted);
        assert!(w2.dual_resolve);
        assert_eq!(o2.phase1.mip_stats.root_phase1_iterations, 0);
    }

    #[test]
    fn warm_and_cold_rounds_agree() {
        let (region, mut broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 35.0),
            uniform_spec(&region, "feed", 25.0),
        ];
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let params = SolverParams::default();
        let mut solver = AsyncSolver::new(params.clone());

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let warm_o = solver.solve(&region, &specs, &snap2).unwrap();
        let warm_w = &warm_o.warm;
        let cold_o = AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snap2)
            .unwrap();

        assert!(warm_w.warm_basis_supplied);
        assert_eq!(warm_o.phase1.status, cold_o.phase1.status);
        assert!(
            (warm_o.phase1.objective - cold_o.phase1.objective).abs() <= params.mip_abs_gap + 1e-6,
            "warm {} vs cold {}",
            warm_o.phase1.objective,
            cold_o.phase1.objective
        );
    }

    /// Softening raises bounds on the round's own model, so a softened
    /// round caches its basis in the name space the next round builds.
    #[test]
    fn softened_round_keeps_the_name_space() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 1e6)];
        broker.register_reservation("web");
        let mut solver = AsyncSolver::default();

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        assert!(!o1.phase1.softened.is_empty(), "1e6 RRUs cannot fit");
        let o2 = solver.solve(&region, &specs, &snap).unwrap();
        let w2 = &o2.warm;
        assert!(!o2.phase1.softened.is_empty());
        assert!(w2.warm_basis_supplied);
        assert!(w2.model_reused, "the softened round kept its names");
        assert!(!w2.basis_remapped);
    }

    /// A scoped round leaves every server outside its universe on its
    /// current binding, bound or free: targets start from `current` and
    /// only the universe's classes are reassigned.
    #[test]
    fn scoped_round_keeps_current_bindings_outside_the_universe() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 10.0)];
        let web = broker.register_reservation("web");
        // The first MSB is outside the universe; every other of its
        // servers is bound to `web`.
        let outside = region.msbs()[0].id;
        let universe: Vec<ServerId> = region
            .servers()
            .iter()
            .filter(|s| s.msb != outside)
            .map(|s| s.id)
            .collect();
        for (k, server) in region.servers_in_msb(outside).enumerate() {
            if k % 2 == 0 {
                broker.bind_current(server.id, Some(web)).unwrap();
            }
        }
        let snap = broker.snapshot(SimTime::ZERO);
        let outcome = run_round(
            &mut None,
            0,
            &region,
            &specs,
            &snap,
            &SolverParams::default(),
            Some(&universe),
        )
        .unwrap();
        let mut kept = [0usize; 2];
        for server in region.servers_in_msb(outside) {
            let current = snap.records[server.id.index()].current;
            assert_eq!(outcome.targets[server.id.index()], current);
            kept[usize::from(current.is_some())] += 1;
        }
        assert!(
            kept[0] > 0 && kept[1] > 0,
            "free and bound servers: {kept:?}"
        );
        assert!(
            region
                .servers()
                .iter()
                .any(|s| s.msb != outside && outcome.targets[s.id.index()] == Some(web)),
            "the universe carries the reservation"
        );
    }

    #[test]
    fn spec_change_still_carries_the_basis() {
        let (region, mut broker) = setup();
        let mut specs = vec![uniform_spec(&region, "web", 30.0)];
        broker.register_reservation("web");
        let mut solver = AsyncSolver::default();

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Growing the reservation moves a right-hand side only.
        specs[0].capacity = 35.0;
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let w2 = solver.solve(&region, &specs, &snap2).unwrap().warm;
        assert!(!w2.model_reused, "the applied bindings renamed classes");
        assert!(w2.warm_basis_supplied, "basis still carried over");
    }
}
