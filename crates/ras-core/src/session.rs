//! The long-lived [`SolveSession`]: warm-started continuous re-solves.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. A cold solve pays for that drift with fleet-proportional
//! search — the simplex starts from a slack crash and branch-and-bound
//! starts with no incumbent even though the previous round's assignment
//! is almost always feasible and near-optimal. The session makes the
//! search cost proportional to the *drift* instead, by carrying two
//! artifacts across rounds:
//!
//! 1. **The root LP basis, with its name space.** The previous round's
//!    optimal root basis is handed to the simplex through
//!    [`ras_milp::SolveConfig::warm_basis`]. Variables and rows are named
//!    after key-stable class labels, so the basis goes in as it is when
//!    the new model's names equal the cached ones
//!    ([`WarmReport::model_reused`]: the round differs from the last in
//!    bounds and right-hand sides only, which keeps the basis dual
//!    feasible) and is otherwise repaired by name
//!    ([`ras_milp::Basis::remap`]) — vanished columns fall back to slacks
//!    or artificials, and the warm solve's dual-repair loop absorbs the
//!    difference (or the simplex falls back to a cold start; the final
//!    objective is identical either way).
//! 2. **The previous targets as a seed incumbent.** The last round's
//!    per-server targets are re-aggregated over the *new* classes —
//!    which silently repairs assignments of servers that since left the
//!    fleet — valued through the model's auxiliary definitions, and
//!    offered to branch-and-bound as a starting best-known solution so
//!    best-bound search prunes from iteration zero. It is the last of the
//!    round's candidate incumbents ([`ras_milp::SolveConfig::incumbents`]:
//!    the current assignment, the greedy construction, the seed), and
//!    branch and bound, the one place that validates them, installs the
//!    cheapest valid one. If drift made the seed infeasible (e.g.
//!    capacity grew), it is simply not installed.
//!
//! The phase-1 model itself is rebuilt from the round's reduction every
//! round. An earlier design cached it and patched drifted class counts
//! in place; measured on the benchmark's four workloads that cache was
//! hit on 0 / 0 / 0 / 9.4 % of rounds (class keys embed current, target
//! and in-use, so any applied move changes them) and a hit skipped a
//! 0.5 ms build inside a 17 ms round, while the basis and the seed above
//! carried every warm round whether it hit or not (EXPERIMENTS,
//! *Session traffic*).
//!
//! Staleness and fallback rules: a failed round drops the cache (the
//! next round is cold); softening raises bounds on the round's own model
//! and renames nothing, so a softened round caches its basis in the same
//! name space as a hard one; a basis never enters a model with different
//! names un-remapped; every warm artifact is validated downstream, so
//! warm and cold solves of the same round agree on status and objective.
//!
//! Phase 2 always runs cold: its restricted universe and spec visibility
//! change every round, so there is no temporal structure to exploit.

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_milp::Basis;
use ras_topology::Region;
use serde::{Deserialize, Serialize};

use crate::aggregate::AggregationLevel;
use crate::error::CoreError;
use crate::model::build_model_labeled;
use crate::params::SolverParams;
use crate::phases::{
    model_names, refine_with_phase2, run_phase, scoped_reduction, solve_phase, PhaseRun,
    TwoPhaseOutcome,
};
use crate::reservation::ReservationSpec;
use crate::shard::{evaluate_targets, sharded_tolerance};
use ras_milp::tol;

/// What warm-start machinery did in one session round (the observability
/// half of the continuous pipeline — `fig_continuous` prints these). The
/// solve's own counters are in the round's phase-1
/// [`PhaseStats`](crate::stats::PhaseStats); `warm_basis_accepted`,
/// `dual_resolve` and `incumbent_seeded` repeat three of them here for
/// readers of this struct alone.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmReport {
    /// 0-based index of this round within the session.
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
    /// A previous-round target seed was offered to the solver.
    pub seed_supplied: bool,
    /// Phase 2 was skipped because phase 1 reproduced the previous
    /// round's final targets exactly (the refinement is a fixed point).
    pub phase2_skipped: bool,
    /// This round ran the exact-model ratchet (unreduced re-solve).
    pub ratchet_checked: bool,
    /// Aggregated-plan objective minus exact-plan objective (only
    /// meaningful when `ratchet_checked`).
    pub ratchet_gap: f64,
    /// The ratchet found the aggregated plan within tolerance of the
    /// exact plan and capacity-feasible.
    pub ratchet_ok: bool,
}

/// Per-round state carried to the next solve.
#[derive(Debug, Clone)]
struct RoundCache {
    /// Root LP basis of the previous round's phase-1 solve.
    basis: Option<Basis>,
    /// Structural variable names of the model `basis` was recorded in.
    var_names: Vec<String>,
    /// Constraint row names of the model `basis` was recorded in.
    row_names: Vec<String>,
    /// Final (merged, post-phase-2) targets of the previous round.
    targets: Vec<Option<ReservationId>>,
}

/// A long-lived solve session owning warm-start state across rounds.
///
/// Create one next to the broker, call [`solve_round`](Self::solve_round)
/// every allocation interval, and apply the returned targets; each round
/// after the first starts from the previous round's LP basis and
/// assignment. Dropping the session (or any round failing) simply makes
/// the next round cold — no correctness depends on the cache.
#[derive(Debug, Clone, Default)]
pub struct SolveSession {
    rounds: usize,
    cache: Option<RoundCache>,
}

impl SolveSession {
    /// Creates an empty session; the first round is a cold solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True when the next round can attempt a warm start.
    pub fn is_warm(&self) -> bool {
        self.cache.is_some()
    }

    /// Drops all cached state; the next round is a cold solve.
    pub fn reset(&mut self) {
        self.cache = None;
    }

    /// Drops all cached state *and* restarts round numbering at 0, as if
    /// the session were freshly created. This is the failed-round
    /// recovery contract: after a [`CoreError::SessionInvalidated`], the
    /// next round is indistinguishable from a new session's round 0.
    pub(crate) fn invalidate(&mut self) {
        self.cache = None;
        self.rounds = 0;
    }

    /// Runs one continuous round: build the model, warm-start the MIP
    /// from the cached basis and targets, refine with phase 2, and re-arm
    /// the cache for the next round.
    pub fn solve_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
    ) -> Result<(TwoPhaseOutcome, WarmReport), CoreError> {
        self.solve_round_scoped(region, specs, snapshot, params, None)
    }

    /// Like [`solve_round`](Self::solve_round), but restricted to a server
    /// universe, a mask indexed by `ServerId`: classes and the phase-2
    /// refinement only cover the servers it marks, and every other slot of
    /// the returned targets keeps the server's current binding.
    /// The sharded session ([`crate::shard::ShardedSession`]) runs one
    /// scoped session per shard; `None` solves the whole region.
    ///
    /// # Failure recovery
    ///
    /// On any error the session *explicitly* resets its warm state — the
    /// cached basis and seed targets are dropped and round numbering
    /// restarts at 0 — and, when warm state actually existed, the error
    /// is wrapped in [`CoreError::SessionInvalidated`] so callers know
    /// the next round runs cold. A failure on a fresh session (nothing
    /// warm to lose) surfaces the raw error unchanged.
    pub fn solve_round_scoped(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
        universe: Option<&[bool]>,
    ) -> Result<(TwoPhaseOutcome, WarmReport), CoreError> {
        let warm_at_entry = self.cache.is_some() || self.rounds > 0;
        match self.run_round(region, specs, snapshot, params, universe) {
            Ok(out) => Ok(out),
            Err(cause) => {
                let round = self.rounds;
                self.invalidate();
                if warm_at_entry {
                    Err(CoreError::SessionInvalidated {
                        round,
                        cause: Box::new(cause),
                    })
                } else {
                    Err(cause)
                }
            }
        }
    }

    /// The round body. Must not re-arm any warm state on the error path —
    /// [`solve_round_scoped`](Self::solve_round_scoped) owns recovery.
    fn run_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
        universe: Option<&[bool]>,
    ) -> Result<(TwoPhaseOutcome, WarmReport), CoreError> {
        let phase_start = Instant::now();
        let mut report = WarmReport {
            round: self.rounds,
            ..WarmReport::default()
        };

        let reduction = scoped_reduction(
            region,
            snapshot,
            specs,
            params.phase1_granularity,
            params.aggregation,
            universe,
        );
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

        // Assemble the warm start from the previous round's artifacts.
        // On any error below the cache stays dropped: a failed round
        // invalidates the session and the next round starts cold.
        let mut prev = self.cache.take();
        let (mut warm_basis, mut seed) = (None, None);
        if let Some(prev) = prev.as_mut() {
            // Names are built from *reduced* class labels and spec names:
            // identical full specs imply an identical clustering (the
            // pipeline is deterministic), so the name space is stable
            // whenever the class keys are — warm starts survive
            // aggregation.
            let same_names = prev.var_names == var_names && prev.row_names == row_names;
            report.model_reused = same_names;
            report.bounds_only_patch = same_names;
            if let Some(basis) = prev.basis.take() {
                warm_basis = Some(if same_names {
                    basis
                } else {
                    report.basis_remapped = true;
                    basis.remap(&prev.var_names, &prev.row_names, &var_names, &row_names)
                });
                report.warm_basis_supplied = true;
            }
            // Previous targets, re-aggregated over the new classes (this
            // clamps away servers that left the fleet), become the seed
            // incumbent. Full-space target ids map through the reduction
            // into the model's (possibly clustered) spec space. Branch and
            // bound validates it with the other candidates.
            let mut counts = vec![vec![0usize; reduction.specs.len()]; reduction.classes.len()];
            for (ci, class) in reduction.classes.iter().enumerate() {
                for &s in &class.servers {
                    if let Some(r) = prev.targets.get(s.index()).copied().flatten() {
                        if let Some(g) = reduction.reduced_index(r) {
                            if let Some(slot) = counts[ci].get_mut(g) {
                                *slot += 1;
                            }
                        }
                    }
                }
            }
            seed = Some(ras.incumbent_from_counts(&counts));
            report.seed_supplied = true;
        }

        let PhaseRun {
            targets: targets1,
            stats: phase1,
            root_basis,
        } = solve_phase(
            region,
            specs,
            snapshot,
            params,
            &reduction,
            &mut ras,
            warm_basis,
            seed,
            phase_start,
            ras_build_seconds,
        )?;
        report.warm_basis_accepted = phase1.mip_stats.warm_basis_accepted;
        report.dual_resolve = phase1.mip_stats.root_used_dual_simplex;
        report.incumbent_seeded = phase1.mip_stats.incumbent_seeded;

        // Exact-model ratchet: every N rounds re-solve the unreduced
        // (Classes-level) model and score both phase-1 plans with the
        // term-exact evaluator — aggregation drift beyond the sharded
        // tolerance marks the round's certificate dirty.
        if params.aggregation == AggregationLevel::Clusters
            && reduction.has_clusters()
            && params.exact_ratchet_interval > 0
            && self.rounds.is_multiple_of(params.exact_ratchet_interval)
        {
            report.ratchet_checked = true;
            let mut exact_params = params.clone();
            exact_params.aggregation = AggregationLevel::Classes;
            match run_phase(
                region,
                specs,
                snapshot,
                &exact_params,
                params.phase1_granularity,
                false,
                universe,
            ) {
                Ok((exact_targets, _)) => {
                    let ours = evaluate_targets(region, specs, snapshot, params, &targets1);
                    let exact = evaluate_targets(region, specs, snapshot, params, &exact_targets);
                    report.ratchet_gap = ours.objective - exact.objective;
                    report.ratchet_ok = report.ratchet_gap.abs()
                        <= sharded_tolerance(2, params, exact.objective)
                        && ours.capacity_feasible(params.mip_abs_gap + tol::PRIMAL_FEAS);
                }
                Err(_) => report.ratchet_ok = false,
            }
        }
        // Steady-state shortcut: when phase 1 lands exactly on the
        // previous round's *final* (post-phase-2) targets, last round's
        // rack refinement already mapped this assignment to itself, so
        // re-running phase 2 would re-derive the identical plan. Skip it;
        // any real drift changes targets1 and re-enables refinement.
        let outcome = if prev.is_some_and(|c| c.targets == targets1) {
            report.phase2_skipped = true;
            TwoPhaseOutcome {
                targets: targets1,
                phase1,
                phase2: None,
            }
        } else {
            refine_with_phase2(region, specs, snapshot, params, targets1, phase1, universe)
        };

        self.cache = Some(RoundCache {
            basis: root_basis,
            var_names,
            row_names,
            targets: outcome.targets.clone(),
        });
        self.rounds += 1;
        Ok((outcome, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};

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

    #[test]
    fn steady_state_reuses_model_and_plans_no_moves() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, w1) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        assert!(!w1.model_reused, "round 0 must be cold");
        assert!(!w1.warm_basis_supplied);
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Round 1 sees the applied bindings for the first time: the class
        // keys embed current/target, so this round's names differ (the
        // basis is remapped) and settle into the steady-state key set.
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (o2, w2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(w2.warm_basis_supplied);
        assert!(w2.incumbent_seeded);
        assert_eq!(
            o2.targets, o1.targets,
            "steady-state round must keep the assignment"
        );

        // Round 2 on an unchanged snapshot: the same name space.
        let snap3 = broker.snapshot(SimTime::from_hours(2));
        let (o3, w3) = session
            .solve_round(&region, &specs, &snap3, &params)
            .unwrap();
        assert!(w3.model_reused, "steady state must keep the skeleton");
        assert!(w3.warm_basis_supplied);
        assert!(!w3.basis_remapped, "identical name space, no remap");
        assert!(w3.incumbent_seeded);
        assert_eq!(o3.targets, o1.targets);
    }

    #[test]
    fn count_drift_keeps_the_name_space_and_resolves_dual_first() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);
        // Stabilization round: the key set now embeds the applied bindings.
        let snap1 = broker.snapshot(SimTime::from_hours(1));
        session
            .solve_round(&region, &specs, &snap1, &params)
            .unwrap();

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
        let (o2, w2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
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
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (warm_o, warm_w) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        let mut cold = SolveSession::new();
        let (cold_o, _) = cold.solve_round(&region, &specs, &snap2, &params).unwrap();

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
        let params = SolverParams::default();
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        assert!(!o1.phase1.softened.is_empty(), "1e6 RRUs cannot fit");
        let (o2, w2) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
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
        let universe: Vec<bool> = region.servers().iter().map(|s| s.msb != outside).collect();
        for (k, server) in region.servers_in_msb(outside).enumerate() {
            if k % 2 == 0 {
                broker.bind_current(server.id, Some(web)).unwrap();
            }
        }
        let snap = broker.snapshot(SimTime::ZERO);
        let (outcome, _) = SolveSession::new()
            .solve_round_scoped(
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
                .any(|s| universe[s.id.index()] && outcome.targets[s.id.index()] == Some(web)),
            "the universe carries the reservation"
        );
    }

    #[test]
    fn spec_change_still_carries_basis_and_seed() {
        let (region, mut broker) = setup();
        let mut specs = vec![uniform_spec(&region, "web", 30.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Growing the reservation moves a right-hand side only.
        specs[0].capacity = 35.0;
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (_, w2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(!w2.model_reused, "the applied bindings renamed classes");
        assert!(w2.warm_basis_supplied, "basis still carried over");
        assert!(w2.seed_supplied);
    }
}
