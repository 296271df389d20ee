//! Continuous re-solves: the round body one shard runs, and why it
//! carries no solver state from one round to the next.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. What makes such a round cost the *drift* rather than the fleet
//! is the plan the region already runs, and it needs no carrier of its
//! own: it reaches the round through the broker snapshot, whose
//! per-server `current` and `target` enter the model's stability terms
//! (paper Expression 1). Those terms reward every server for staying, so
//! with every structural column resting on the bound its cost pushes
//! toward, the slack basis *is* the running plan, dual feasible and
//! primal infeasible only in the rows the round's drift broke. The hard
//! phase-1 root therefore goes dual-first from it at any size
//! ([`ras_milp::SolveConfig::root_from_plan`]; `ras_milp::simplex`,
//! "Cold solves"), round 0 and a restarted solver included, and branch
//! and bound gets the candidate incumbents every round gets
//! ([`crate::phases::candidate_incumbents`]: the current assignment,
//! then the greedy construction).
//!
//! An earlier design carried three more warm artifacts, and each went
//! once measured (EXPERIMENTS, *Session traffic*, *One warm artifact*
//! and *One root start*):
//!
//! - a cached phase-1 model, patched in place on class-count drift: hit
//!   on 0 / 0 / 0 / 9.4 % of the benchmark's rounds, since class keys
//!   embed current, target and in-use and any applied move changes them;
//! - last round's targets as a seed incumbent: it changed no plan metric
//!   outside sharded rounds;
//! - last round's root basis, remapped by variable and row name onto the
//!   new model. At paper scale (104 400 servers, 100 requests) its dual
//!   repair took 1–43 s a root where dual-first from the plan takes
//!   0.33–0.58 s; two refused attempts ran 79 531 and 82 381 pivots
//!   before they were thrown away, and it cloned about 150 000 name
//!   strings a round. Without it, `cold-m40-sat` and `loop-m24-over` plan
//!   to the digit and `fleet-paper-uniform` plans 0.5 % dearer, its round
//!   time inside the parent's spread; over instance seeds 1–10 of the
//!   three medium workloads the geometric-mean plan cost is 0.14 % lower,
//!   though `warm-m24-sat` re-rolls (cheaper on 4 instances, dearer on
//!   6).
//!
//! Only the hard phase-1 root lifts the size gate: measured on the
//! over-subscribed workload, phase-2 roots and softened roots that go
//! dual-first below it return plans 1–2.5 % dearer, so they keep the
//! gate like every other cold solve.
//!
//! The [`AsyncSolver`](crate::solver::AsyncSolver) owns the round: it
//! numbers the rounds and applies the recovery rule (a failed round
//! restarts the numbering). The one thing a round reads from that
//! numbering is the phase-2 steady-state check. Phase 2 always runs
//! cold: its restricted universe and spec visibility change every round.
//! A warm round — one after a solved round — skips it when phase 1
//! reproduces the targets the broker already carries: re-run on an
//! unchanged plan, phase 2 can swap servers between racks at an equal
//! objective.
//!
//! A round solves one model, the reduction of
//! [`crate::aggregate`]. That reduction is exact — its solved class
//! counts are the plan, with nothing to split back — so no round
//! re-solves an unreduced model to check it.

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_topology::{Region, ServerId};

use crate::assign::{count_class_moves, current_bindings, MoveStats};
use crate::classes::{scope_servers, EquivClass};
use crate::error::CoreError;
use crate::model::build_model_labeled;
use crate::params::SolverParams;
use crate::phases::{refine_with_phase2, scoped_reduction, solve_phase};
use crate::reservation::ReservationSpec;
use crate::stats::PhaseStats;

/// How one continuous round started (the observability half of the
/// continuous pipeline — `fig_continuous` prints these). The solve's own
/// counters are in the round's phase-1 [`PhaseStats`]; `dual_resolve`
/// and `incumbent_seeded` repeat two of them here for readers of this
/// struct alone.
#[derive(Debug, Clone, Default)]
pub struct WarmReport {
    /// 0-based index of this round since the solver last dropped its
    /// warm state (a new solver, a failed round or a new shard partition).
    pub round: usize,
    /// Always `false`: no round carries a model or its name space. The
    /// field stays only because the frozen end-to-end benchmark reads
    /// it, and goes once that benchmark stops reading it.
    pub model_reused: bool,
    /// Always `false`: no round carries a root basis, so none is
    /// accepted. Kept for the frozen benchmark, like `model_reused`.
    pub warm_basis_accepted: bool,
    /// Always `false`: no round patches a carried model. Kept for the
    /// frozen benchmark, like `model_reused`.
    pub bounds_only_patch: bool,
    /// The dual simplex solved the root LP with no phase 1 at all: it
    /// went dual-first from the slack basis, the plan the region already
    /// runs.
    pub dual_resolve: bool,
    /// Branch-and-bound installed a supplied incumbent before searching.
    pub incumbent_seeded: bool,
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
    /// How the round started.
    pub warm: WarmReport,
}

/// Runs one continuous round of one shard: build the phase-1 model,
/// solve it from the running plan, refine with phase 2. `round` is the
/// owner's round number, reported in [`WarmReport::round`]; a round
/// after the first may keep the broker's targets without phase 2 (the
/// module's steady-state check). `universe`, a list of servers in
/// ascending id order, restricts classes and the phase-2 refinement to
/// those servers, and every other slot of the returned targets keeps
/// the server's current binding; `None` solves the whole region.
pub(crate) fn run_round(
    round: usize,
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    universe: Option<&[ServerId]>,
) -> Result<RoundRun, CoreError> {
    let phase_start = Instant::now();
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

    // Phase 2 ranks rack overages over the whole region, so phase 1's
    // plan covers every server: outside its classes, the current
    // binding.
    let mut targets1 = current_bindings(region, snapshot);
    let phase1 = solve_phase(
        &mut targets1,
        region,
        specs,
        snapshot,
        params,
        &reduction,
        &mut ras,
        false,
        phase_start,
        ras_build_seconds,
    )?;
    let warm = WarmReport {
        round,
        dual_resolve: phase1.mip_stats.root_used_dual_simplex,
        incumbent_seeded: phase1.mip_stats.incumbent_seeded,
        ..WarmReport::default()
    };

    // Steady-state check: a warm round whose phase 1 lands exactly on
    // the targets the broker already carries for the round's universe
    // keeps them and skips phase 2. Phase 2 is not a fixed point of its
    // own output: re-run on an unchanged plan it can swap servers between
    // racks at an equal objective and plan moves for nothing. Any real
    // drift changes targets1 and re-enables refinement.
    let steady = round > 0
        && scope_servers(region, universe).all(|server| {
            let s = server.id.index();
            targets1[s] == snapshot.records[s].target
        });
    let (targets, phase2) = if steady {
        (targets1, None)
    } else {
        refine_with_phase2(region, specs, snapshot, params, targets1, universe)
    };

    Ok(RoundRun {
        // No server outside the phase-1 classes moves: phase 2 reassigns
        // some of their members, and every other server keeps its
        // current binding.
        moves: count_class_moves(&reduction.classes, &targets),
        classes: reduction.classes,
        targets,
        phase1,
        phase2,
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use crate::solver::AsyncSolver;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

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
    /// solver runs phase 2). Every round's phase-1 root starts from the
    /// running plan: dual-first, with no phase 1.
    #[test]
    fn steady_state_keeps_the_plan_and_plans_no_moves() {
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
            assert_eq!(o1.warm.round, 0, "seed {seed}: round 0 is cold");
            for (i, t) in o1.targets.iter().enumerate() {
                broker.set_target(ServerId::from_index(i), *t).unwrap();
            }
            materialize(&mut broker);

            // Round 1 sees the applied bindings for the first time;
            // round 2 sees an unchanged snapshot.
            let snap2 = broker.snapshot(SimTime::from_hours(1));
            let o2 = solver.solve(&region, &specs, &snap2).unwrap();
            let snap3 = broker.snapshot(SimTime::from_hours(2));
            let o3 = solver.solve(&region, &specs, &snap3).unwrap();
            for (round, out) in [(0, &o1), (1, &o2), (2, &o3)] {
                let stats = &out.phase1.mip_stats;
                assert_eq!(out.warm.round, round, "seed {seed}");
                assert!(out.warm.dual_resolve, "seed {seed} round {round}");
                assert_eq!(stats.root_phase1_iterations, 0, "seed {seed} {round}");
                assert!(out.warm.incumbent_seeded, "seed {seed} round {round}");
            }
            for (round, out) in [(1, &o2), (2, &o3)] {
                assert_eq!(
                    out.targets, o1.targets,
                    "seed {seed} round {round}: steady state keeps the assignment"
                );
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

        assert_eq!(warm_w.round, 1);
        assert_eq!(warm_o.phase1.status, cold_o.phase1.status);
        assert!(
            (warm_o.phase1.objective - cold_o.phase1.objective).abs() <= params.mip_abs_gap + 1e-6,
            "warm {} vs cold {}",
            warm_o.phase1.objective,
            cold_o.phase1.objective
        );
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
}
