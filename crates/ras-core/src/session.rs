//! The long-lived [`SolveSession`]: warm-started continuous re-solves.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. A cold solve pays for that drift with fleet-proportional work —
//! the model is rebuilt from scratch, the simplex starts from a slack
//! crash, and branch-and-bound starts with no incumbent even though the
//! previous round's assignment is almost always feasible and
//! near-optimal. The session makes the re-solve cost proportional to the
//! *drift* instead, by carrying three things across rounds:
//!
//! 1. **The phase-1 model skeleton.** Class keys are stable under pure
//!    count drift, so when the new round's class decomposition has the
//!    same keys and the same specs, the cached [`RasModel`] is reused:
//!    unchanged outright when counts match, or patched in place
//!    (variable upper bounds, supply right-hand sides, the movement
//!    constant) when a few classes grew or shrank. Any structural change
//!    — classes appearing/vanishing, spec edits, parameter changes —
//!    triggers a full rebuild.
//! 2. **The root LP basis.** The previous round's optimal root basis is
//!    handed to the simplex through [`ras_milp::SolveConfig::warm_start`].
//!    When the model was rebuilt, the basis is first repaired by name
//!    ([`ras_milp::Basis::remap`]) — variables and rows are matched by
//!    their key-stable labels, vanished columns fall back to slacks or
//!    artificials, and the warm solve's dual-repair loop absorbs the
//!    difference (or the simplex falls back to a cold start; the final
//!    objective is identical either way).
//! 3. **The previous targets as a seed incumbent.** The last round's
//!    per-server targets are re-aggregated over the *new* classes —
//!    which silently repairs assignments of servers that since left the
//!    fleet — valued through the model's auxiliary definitions, and
//!    offered to branch-and-bound as a starting best-known solution so
//!    best-bound search prunes from iteration zero. If drift made the
//!    seed infeasible (e.g. capacity grew), the solver validates and
//!    rejects it and falls back to the greedy/current candidates.
//!
//! Staleness and fallback rules: a failed round drops the cache (the
//! next round is cold); a softened round keeps the hard skeleton but its
//! basis is cached against the softened model's name space and remapped
//! on reuse; a basis never crosses a structural rebuild without a name
//! remap; every warm artifact is validated downstream, so warm and cold
//! solves of the same round agree on status and objective.
//!
//! Phase 2 always runs cold: its restricted universe and spec visibility
//! change every round, so there is no temporal structure to exploit.

use std::collections::HashSet;
use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_milp::{Basis, WarmStart};
use ras_topology::{Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::aggregate::{AggregationLevel, Reduction};
use crate::error::CoreError;
use crate::model::{build_model_labeled, current_counts, movement_constant, RasModel};
use crate::params::SolverParams;
use crate::phases::{
    refine_with_phase2, run_phase, scoped_reduction, solve_phase, PhaseRun, TwoPhaseOutcome,
};
use crate::reservation::ReservationSpec;
use crate::shard::{evaluate_targets, sharded_tolerance};
use ras_milp::tol;

/// What warm-start machinery did in one session round (the observability
/// half of the continuous pipeline — `fig_continuous` prints these).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmReport {
    /// 0-based index of this round within the session.
    pub round: usize,
    /// The cached phase-1 model skeleton was reused (possibly patched).
    pub model_reused: bool,
    /// The reused skeleton needed in-place count patches.
    pub model_patched: bool,
    /// Classes whose member count drifted (patched in place).
    pub classes_resized: usize,
    /// A warm basis was handed to the root LP.
    pub warm_basis_supplied: bool,
    /// The basis had to be remapped by name against a rebuilt model.
    pub basis_remapped: bool,
    /// The root LP actually started from the warm basis (no fallback).
    pub warm_basis_accepted: bool,
    /// The round's skeleton diff was bounds/RHS-only (a reused model,
    /// at most patched in place) — exactly the diffs that keep the
    /// persisted basis dual feasible, so the session routes them to the
    /// dual simplex.
    pub bounds_only_patch: bool,
    /// The dual simplex solved the root LP (no phase 1 at all): warm
    /// from the accepted basis, or — `warm_basis_accepted` false — cold
    /// and dual-first from the plan the region already runs.
    pub dual_resolve: bool,
    /// Primal phase-1 iterations of the root LP. Must be 0 whenever a
    /// bounds-only round's warm basis was accepted — `fig_continuous`
    /// gates on exactly this.
    pub root_phase1_iterations: usize,
    /// Dual-simplex iterations across all of the round's LP solves.
    pub dual_iterations: usize,
    /// Branch-and-bound installed a supplied incumbent before searching.
    pub incumbent_seeded: bool,
    /// A previous-round target seed was offered to the solver.
    pub seed_supplied: bool,
    /// Phase 2 was skipped because phase 1 reproduced the previous
    /// round's final targets exactly (the refinement is a fixed point).
    pub phase2_skipped: bool,
    /// The seed violated the new model (drift broke it) and was left for
    /// the solver to reject in favor of the repair candidates.
    pub seed_repaired: bool,
    /// Nodes pruned against the seeded incumbent before any better
    /// solution was found.
    pub nodes_pruned_by_seed: usize,
    /// Multi-member spec clusters the aggregation pipeline formed.
    pub spec_clusters: usize,
    /// Reduced spec count the model was built over.
    pub reduced_specs: usize,
    /// Assignment variables the `Classes`-level model would have had.
    pub agg_vars_full: usize,
    /// Assignment variables of the reduced model actually built.
    pub agg_vars_reduced: usize,
    /// Servers the class builder excluded as unplanned-unavailable.
    pub excluded_servers: usize,
    /// Single-server transfers disaggregation's capacity repair made.
    pub disagg_repair_moves: usize,
    /// Units disaggregation assigned to the member whose servers
    /// already run them (stays honored instead of reshuffled).
    pub disagg_stays_honored: usize,
    /// Extra servers disaggregation pulled from free class supply to
    /// cover shortfall its internal repair could not fix.
    pub disagg_topup_units: usize,
    /// Residual RRU shortfall after disaggregation repair (0.0 = clean).
    pub disagg_shortfall_rru: f64,
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
    /// Parameters the skeleton was built with (any change → rebuild).
    params: SolverParams,
    /// Specs the skeleton was built with (any change → rebuild).
    specs: Vec<ReservationSpec>,
    /// Previous round's phase-1 reduction (its classes' keys + counts
    /// drive the diff; its labels are the basis name space).
    reduction: Reduction,
    /// The hard phase-1 model skeleton.
    ras: RasModel,
    /// Structural variable names of the model `basis` was recorded in.
    var_names: Vec<String>,
    /// Constraint row names of the model `basis` was recorded in.
    row_names: Vec<String>,
    /// Root LP basis of the previous round's final solve.
    basis: Option<Basis>,
    /// Final (merged, post-phase-2) targets of the previous round.
    targets: Vec<Option<ReservationId>>,
}

/// A long-lived solve session owning warm-start state across rounds.
///
/// Create one next to the broker, call [`solve_round`](Self::solve_round)
/// every allocation interval, and apply the returned targets; each round
/// after the first reuses the previous round's model skeleton, LP basis,
/// and assignment. Dropping the session (or any round failing) simply
/// makes the next round cold — no correctness depends on the cache.
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

    /// Runs one continuous round: diff against the cached state, reuse or
    /// rebuild the model, warm-start the MIP, refine with phase 2, and
    /// re-arm the cache for the next round.
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
    /// universe: classes, the phase-2 refinement, and the returned targets
    /// only cover `universe` members (every other slot stays `None`).
    /// The sharded session ([`crate::shard::ShardedSession`]) runs one
    /// scoped session per shard; `None` solves the whole region.
    ///
    /// # Failure recovery
    ///
    /// On any error the session *explicitly* resets its warm state — the
    /// cached skeleton, basis, and seed targets are dropped and round
    /// numbering restarts at 0 — and, when warm state actually existed,
    /// the error is wrapped in [`CoreError::SessionInvalidated`] so
    /// callers know the next round runs cold. A failure on a fresh
    /// session (nothing warm to lose) surfaces the raw error unchanged.
    pub fn solve_round_scoped(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
        universe: Option<&HashSet<ServerId>>,
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
        universe: Option<&HashSet<ServerId>>,
    ) -> Result<(TwoPhaseOutcome, WarmReport), CoreError> {
        let phase_start = Instant::now();
        let mut report = WarmReport {
            round: self.rounds,
            ..WarmReport::default()
        };

        let build_start = Instant::now();
        let reduction = scoped_reduction(
            region,
            snapshot,
            specs,
            params.phase1_granularity,
            params.aggregation,
            universe,
        );
        report.spec_clusters = reduction.stats.spec_clusters;
        report.reduced_specs = reduction.stats.reduced_specs;
        report.agg_vars_full = reduction.stats.vars_full;
        report.agg_vars_reduced = reduction.stats.vars_reduced;
        report.excluded_servers = reduction.stats.servers_excluded;

        // On any error below the cache stays dropped: a failed round
        // invalidates the session and the next round starts cold.
        let cache = self.cache.take();
        // The diff runs over *reduced* class keys and labels: identical
        // full specs + params imply an identical clustering (the pipeline
        // is deterministic), so the reduced key space is stable whenever
        // the full inputs are — warm starts survive aggregation.
        let skeleton_reusable = cache.as_ref().is_some_and(|c| {
            c.params == *params
                && c.specs.as_slice() == specs
                && c.reduction.classes.len() == reduction.classes.len()
                && c.reduction
                    .classes
                    .iter()
                    .zip(&reduction.classes)
                    .all(|(a, b)| a.key() == b.key())
        });

        let (ras, prev) = match cache {
            Some(mut c) if skeleton_reusable => {
                report.model_reused = true;
                // A reused skeleton can only have drifted in bounds, RHS
                // and the objective constant — the diff class whose warm
                // basis stays dual feasible.
                report.bounds_only_patch = true;
                let drifted: Vec<usize> = reduction
                    .classes
                    .iter()
                    .enumerate()
                    .filter(|(ci, cl)| cl.count() != c.reduction.classes[*ci].count())
                    .map(|(ci, _)| ci)
                    .collect();
                if !drifted.is_empty() {
                    // Pure count drift: patch columns and rows in place.
                    report.model_patched = true;
                    report.classes_resized = drifted.len();
                    for &ci in &drifted {
                        let count = reduction.classes[ci].count() as f64;
                        for var in c.ras.vars[ci].iter().flatten() {
                            c.ras.model.set_bounds(*var, 0.0, count);
                        }
                        if let Some(row) = c.ras.supply_rows[ci] {
                            c.ras.model.set_rhs(row, count);
                        }
                    }
                    c.ras.objective_constant = movement_constant(&reduction.classes, params);
                    c.ras.initial = c.ras.incumbent_from_counts(&current_counts(
                        &reduction.classes,
                        reduction.specs.len(),
                    ));
                }
                (c.ras, Some((c.basis, c.var_names, c.row_names, c.targets)))
            }
            other => {
                // Structural change (or first round): full rebuild. The
                // previous basis and targets still warm-start the solve.
                let ras = build_model_labeled(
                    region,
                    &reduction.specs,
                    &reduction.classes,
                    &reduction.labels,
                    params,
                    false,
                    None,
                );
                let prev = other.map(|c| (c.basis, c.var_names, c.row_names, c.targets));
                (ras, prev)
            }
        };
        let ras_build_seconds = build_start.elapsed().as_secs_f64();

        // Assemble the warm start from the previous round's artifacts.
        let prev_targets = prev.as_ref().map(|(_, _, _, t)| t.clone());
        let mut warm = WarmStart::default();
        if let Some((basis, var_names, row_names, targets)) = prev {
            if let Some(basis) = basis {
                let new_var_names: Vec<String> =
                    ras.model.vars().iter().map(|v| v.name.clone()).collect();
                let new_row_names: Vec<String> = ras
                    .model
                    .constraints()
                    .iter()
                    .map(|k| k.name.clone())
                    .collect();
                warm.basis = if var_names == new_var_names && row_names == new_row_names {
                    Some(basis)
                } else {
                    report.basis_remapped = true;
                    Some(basis.remap(&var_names, &row_names, &new_var_names, &new_row_names))
                };
                report.warm_basis_supplied = true;
            }
            // Previous targets, re-aggregated over the new classes (this
            // clamps away servers that left the fleet), become the seed
            // incumbent. Full-space target ids map through the reduction
            // into the model's (possibly clustered) spec space.
            let mut counts = vec![vec![0usize; reduction.specs.len()]; reduction.classes.len()];
            for (ci, class) in reduction.classes.iter().enumerate() {
                for &s in &class.servers {
                    if let Some(r) = targets.get(s.index()).copied().flatten() {
                        if let Some(g) = reduction.reduced_index(r) {
                            if let Some(slot) = counts[ci].get_mut(g) {
                                *slot += 1;
                            }
                        }
                    }
                }
            }
            let seed = ras.incumbent_from_counts(&counts);
            report.seed_supplied = true;
            report.seed_repaired = !ras.model.violations(&seed, tol::PRIMAL_FEAS).is_empty();
            warm.incumbent = Some(seed);
        }

        let warm = (!warm.is_empty()).then_some(warm);
        let PhaseRun {
            targets: targets1,
            stats: phase1,
            result,
            disagg,
        } = solve_phase(
            region,
            specs,
            snapshot,
            params,
            &reduction,
            &ras,
            false,
            warm,
            phase_start,
            ras_build_seconds,
        )?;
        report.warm_basis_accepted = result.solution.stats.warm_basis_accepted;
        report.dual_resolve = result.solution.stats.root_used_dual_simplex;
        report.root_phase1_iterations = result.solution.stats.root_phase1_iterations;
        report.dual_iterations = result.solution.stats.dual_iterations;
        report.incumbent_seeded = result.solution.stats.incumbent_seeded;
        report.nodes_pruned_by_seed = result.solution.stats.nodes_pruned_by_seed;
        report.disagg_repair_moves = disagg.repair_moves;
        report.disagg_stays_honored = disagg.stays_honored;
        report.disagg_topup_units = disagg.topup_units;
        report.disagg_shortfall_rru = disagg.shortfall_rru;

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
        let outcome = if prev_targets.as_deref() == Some(targets1.as_slice()) {
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
            params: params.clone(),
            specs: specs.to_vec(),
            reduction,
            ras,
            var_names: result.var_names,
            row_names: result.row_names,
            basis: result.solution.root_basis.clone(),
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
        // keys embed current/target, so this round rebuilds (with a
        // remapped basis) and settles into the steady-state key set.
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

        // Round 2 on an unchanged snapshot: full skeleton reuse.
        let snap3 = broker.snapshot(SimTime::from_hours(2));
        let (o3, w3) = session
            .solve_round(&region, &specs, &snap3, &params)
            .unwrap();
        assert!(w3.model_reused, "steady state must reuse the skeleton");
        assert!(!w3.model_patched, "no drift, no patches");
        assert!(w3.warm_basis_supplied);
        assert!(!w3.basis_remapped, "identical name space, no remap");
        assert!(w3.incumbent_seeded);
        assert_eq!(o3.targets, o1.targets);
    }

    #[test]
    fn count_drift_patches_instead_of_rebuilding() {
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

        // Take down one free-pool server: its class only shrinks, so the
        // skeleton survives with a count patch.
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
        let (_, w2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(w2.model_reused);
        assert!(w2.model_patched);
        assert!(w2.classes_resized >= 1);
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

    #[test]
    fn spec_change_triggers_rebuild_with_remap() {
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

        // Growing the reservation is a structural spec change.
        specs[0].capacity = 35.0;
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (_, w2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(!w2.model_reused, "spec change must rebuild");
        assert!(w2.warm_basis_supplied, "basis still carried over");
        assert!(w2.seed_supplied);
    }
}
