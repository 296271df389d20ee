//! Two-phase solving (paper Section 3.5.2).
//!
//! Phase 1 solves the whole region *without rack goals*, which lets the
//! symmetry reduction group servers MSB-wide and keeps the variable count
//! tractable. Phase 2 re-solves *with* rack goals, restricted to the
//! reservations with the worst rack-level objectives (up to a configured
//! fraction and variable budget); every other reservation's assignment is
//! frozen and its servers are excluded from the phase-2 universe.

use std::collections::HashSet;
use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_milp::{SolveConfig, SolveError};
use ras_topology::{Region, ServerId};

use crate::aggregate::{build_reduction, AggregationLevel, Reduction};
use crate::assign::{concretize_into, current_bindings};
use crate::classes::{scope_servers, unplanned_unavailable, FastHash, Granularity};
use crate::error::CoreError;
use crate::model::{build_model_labeled, soften_baseline, solver_visible, RasModel};
use crate::params::{
    SolverParams, DEFAULT_RACK_SHARE, MAX_ASSIGNMENT_VARS, PHASE2_RESERVATION_FRACTION,
};
use crate::reservation::{ReservationKind, ReservationSpec};
use crate::stats::PhaseStats;
use ras_milp::tol;

/// Phase-2 refinement: rank reservations by rack overage under the
/// phase-1 assignment, re-solve the worst offenders at rack granularity
/// over a restricted universe, and merge. Phase 2 is always a cold solve
/// — its universe and spec visibility change every round, so there is no
/// temporal structure to exploit. `scope`, when present, lists in
/// ascending id order the servers that cap the phase-2 universe (one
/// shard's refinement never touches another shard's servers).
pub(crate) fn refine_with_phase2(
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    mut targets1: Vec<Option<ReservationId>>,
    scope: Option<&[ServerId]>,
) -> (Vec<Option<ReservationId>>, Option<PhaseStats>) {
    // Rank reservations by rack overage under the phase-1 assignment.
    let overages = rack_overages(region, specs, &targets1);
    let visible = specs.iter().filter(|s| solver_visible(s)).count();
    let budget = ras_milp::cast::ceil_usize(visible as f64 * PHASE2_RESERVATION_FRACTION).max(1);
    let mut selected: Vec<usize> = overages
        .iter()
        .filter(|(_, o)| *o > tol::EPS)
        .map(|(ri, _)| *ri)
        .take(budget)
        .collect();
    if selected.is_empty() {
        return (targets1, None);
    }

    // Respect the assignment-variable budget by shrinking the selection:
    // the class count of every prefix of the selection comes from one
    // walk over the scope.
    let (free, per_selected) = rack_class_counts(region, snapshot, &targets1, &selected, scope);
    while selected.len() > 1
        && (free + per_selected[..selected.len()].iter().sum::<usize>()) * selected.len()
            > MAX_ASSIGNMENT_VARS
    {
        selected.pop();
    }

    // Phase-2 inputs: stability pulls toward the phase-1 plan; unselected
    // reservations become invisible and their servers leave the universe.
    let selected_set: HashSet<usize> = selected.iter().copied().collect();
    let mut snapshot2 = snapshot.clone();
    for (i, t) in targets1.iter().enumerate() {
        snapshot2.records[i].target = *t;
    }
    let mut specs2 = specs.to_vec();
    for (ri, spec) in specs2.iter_mut().enumerate() {
        if !selected_set.contains(&ri) {
            spec.kind = ReservationKind::Elastic; // Invisible to the model.
        }
    }
    let universe = phase2_universe(region, &targets1, &selected, scope);
    // Merge: phase 2 only rules over its own universe. It concretizes
    // straight into the phase-1 plan: its classes are the universe's
    // available servers, and every other server of the universe is
    // unplanned-unavailable, which phase 1 left on its current binding
    // too.
    match run_phase_into(
        &mut targets1,
        region,
        &specs2,
        &snapshot2,
        params,
        Granularity::Rack,
        true,
        Some(&universe),
    ) {
        Ok(phase2) => (targets1, Some(phase2)),
        // Phase 2 is an optimization pass: on failure keep phase-1 output
        // (a failed solve writes no target).
        Err(_) => (targets1, None),
    }
}

/// Solves one already-built phase model, softening it in place and
/// solving it again on infeasibility. The hard solve of a phase-1 model
/// (no `rack_goals`) starts its root from the running plan at any size
/// ([`SolveConfig::root_from_plan`]); a phase-2 model's root and the
/// softened retry keep the size gate, where lifting it measured worse
/// plans. No round carries solver state into another.
fn solve_prepared(
    region: &Region,
    reduction: &Reduction,
    ras: &mut RasModel,
    params: &SolverParams,
    rack_goals: bool,
) -> Result<ras_milp::Solution, CoreError> {
    let (specs, classes) = (&reduction.specs, &reduction.classes);
    // The greedy construction reads neither bounds nor penalties: one
    // serves the hard solve and the softened retry alike.
    let greedy = crate::heuristic::greedy_counts(region, specs, classes, params);
    let incumbents = candidate_incumbents(ras, &greedy);
    let mut config = SolveConfig {
        time_limit_seconds: params.phase_time_limit,
        rel_gap_tol: params.mip_rel_gap,
        abs_gap_tol: params.mip_abs_gap,
        stall_node_limit: params.stall_node_limit,
        incumbents,
        root_from_plan: !rack_goals,
        warm_dual: params.warm_dual,
        ..SolveConfig::default()
    };
    let mut solution = ras.model.solve_with(&config);
    if matches!(solution, Err(SolveError::TooLarge)) {
        // A size refusal is a configuration problem, not infeasibility:
        // softening and retrying would refuse again. Surface it directly.
        return Err(CoreError::Solver(SolveError::TooLarge.to_string()));
    }
    if matches!(
        solution,
        Err(SolveError::Infeasible) | Err(SolveError::NoIncumbent)
    ) {
        // Soften: no constraint may regress beyond its current violation.
        // (A NoIncumbent timeout also lands here: the softened model
        // always contains the current assignment as a feasible point, so
        // its heuristics cannot come up empty.) The retry keeps the size
        // gate: measured on over-subscribed rounds, a softened root that
        // goes dual-first below it returns worse plans.
        let baseline = soften_baseline(region, specs, classes);
        ras.soften(&baseline);
        config.incumbents = candidate_incumbents(ras, &greedy);
        config.root_from_plan = false;
        solution = ras.model.solve_with(&config);
        if matches!(solution, Err(SolveError::Infeasible)) {
            // Cannot happen when the current assignment is well formed —
            // surface the shortfalls for actionability.
            let shortfalls = baseline
                .capacity_shortfall
                .iter()
                .enumerate()
                .filter(|(_, s)| **s > 0.0)
                .map(|(ri, s)| (ReservationId::from_index(ri), *s))
                .collect();
            return Err(CoreError::CapacityUnavailable { shortfalls });
        }
    }
    solution.map_err(|e| CoreError::Solver(e.to_string()))
}

/// A round's reduction over the whole region or, for a phase-2 or shard
/// solve, over the servers `universe` lists in ascending id order.
pub(crate) fn scoped_reduction(
    region: &Region,
    snapshot: &BrokerSnapshot,
    specs: &[ReservationSpec],
    granularity: Granularity,
    universe: Option<&[ServerId]>,
) -> Reduction {
    let level = AggregationLevel::Classes;
    build_reduction(region, snapshot, specs, granularity, level, universe)
}

/// The one phase body, model in hand: solve (softening `ras` on demand)
/// → per-server targets from the solved class counts, written into
/// `targets` for the reduction's class members only → statistics. On
/// error `targets` is left as it was. [`run_phase`] and a continuous
/// round enter it alike; `rack_goals` says whether `ras` carries them.
/// `specs` are the specs `reduction` was built from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_phase(
    targets: &mut [Option<ReservationId>],
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    reduction: &Reduction,
    ras: &mut RasModel,
    rack_goals: bool,
    phase_start: Instant,
    ras_build_seconds: f64,
) -> Result<PhaseStats, CoreError> {
    let solution = solve_prepared(region, reduction, ras, params, rack_goals)?;
    let counts = ras.decode(&solution);
    concretize_into(
        targets,
        region,
        snapshot,
        &reduction.classes,
        &counts,
        specs.len(),
    );
    Ok(PhaseStats {
        ras_build_seconds,
        solver_build_seconds: solution.stats.setup_seconds,
        initial_state_seconds: solution.stats.root_lp_seconds,
        mip_seconds: solution.stats.mip_seconds,
        total_seconds: phase_start.elapsed().as_secs_f64(),
        assignment_vars: ras.assignment_var_count,
        classes: reduction.stats.classes,
        memory_bytes: ras.model.memory_estimate_bytes(),
        mip_stats: solution.stats,
        softened: ras.softened.clone(),
        status: solution.status,
        objective: solution.objective + ras.objective_constant,
        reduction: reduction.stats.clone(),
    })
}

/// Runs a single phase cold: classes → model → solve (softening on
/// demand) → concretize. `universe`, when present, lists in ascending id
/// order the servers to class, and every other server's target is its
/// current binding.
#[allow(clippy::type_complexity)]
pub fn run_phase(
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    granularity: Granularity,
    rack_goals: bool,
    universe: Option<&[ServerId]>,
) -> Result<(Vec<Option<ReservationId>>, PhaseStats), CoreError> {
    let mut targets = current_bindings(region, snapshot);
    let stats = run_phase_into(
        &mut targets,
        region,
        specs,
        snapshot,
        params,
        granularity,
        rack_goals,
        universe,
    )?;
    Ok((targets, stats))
}

/// [`run_phase`] writing its targets into `targets`, for the servers of
/// its classes only; on error `targets` is left as it was.
#[allow(clippy::too_many_arguments)]
fn run_phase_into(
    targets: &mut [Option<ReservationId>],
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    granularity: Granularity,
    rack_goals: bool,
    universe: Option<&[ServerId]>,
) -> Result<PhaseStats, CoreError> {
    let phase_start = Instant::now();
    let reduction = scoped_reduction(region, snapshot, specs, granularity, universe);
    let mut ras = build_model_labeled(
        region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        params,
        rack_goals,
        None,
    );
    let ras_build_seconds = phase_start.elapsed().as_secs_f64();
    solve_phase(
        targets,
        region,
        specs,
        snapshot,
        params,
        &reduction,
        &mut ras,
        rack_goals,
        phase_start,
        ras_build_seconds,
    )
}

/// The candidate incumbents every phase solve offers branch and bound,
/// cold or warm, valued on `ras` as it stands, softened or not: the
/// assignment the region runs, then the greedy spread-aware construction
/// `greedy` ([`greedy_counts`](crate::heuristic::greedy_counts) of the
/// model's region, specs and classes; in a softened model the do-nothing
/// point is always valid but pays the full softening penalty, so the
/// greedy construction usually beats it). A warm round offers no more:
/// the plan it would carry is the broker's, which the model's stability
/// terms already read.
pub fn candidate_incumbents(ras: &RasModel, greedy: &[Vec<usize>]) -> Vec<Vec<f64>> {
    vec![ras.initial.clone(), ras.incumbent_from_counts(greedy)]
}

/// Rack-overage score per reservation under an assignment: total RRUs
/// beyond `αK · Cr` in any single rack, sorted worst-first.
pub fn rack_overages(
    region: &Region,
    specs: &[ReservationSpec],
    targets: &[Option<ReservationId>],
) -> Vec<(usize, f64)> {
    // Each reservation's overage adds its racks in rack id order, each
    // rack's terms in server id order: in a hash map's per-process order,
    // f64 rounding made near-tied reservations swap ranks — and the 10 %
    // phase-2 cut — from one run to the next. `rru[ri]` is the rack's
    // running sum for `ri`, `held` the reservations it holds (their sums
    // are positive); the order within `held` touches no shared sum.
    let mut rru = vec![0.0; specs.len()];
    let mut held: Vec<usize> = Vec::new();
    let mut overage = vec![0.0; specs.len()];
    for rack in region.racks() {
        for s in &rack.servers {
            let Some(ri) = targets[s.index()].map(|r| r.index()) else {
                continue;
            };
            let Some(spec) = specs.get(ri) else {
                continue;
            };
            let v = spec.rru.value(region.server(*s).hardware);
            if v > 0.0 {
                if rru[ri] == 0.0 {
                    held.push(ri);
                }
                rru[ri] += v;
            }
        }
        for ri in held.drain(..) {
            let sum = std::mem::take(&mut rru[ri]);
            let spec = &specs[ri];
            if !solver_visible(spec) || spec.capacity <= 0.0 {
                continue;
            }
            let alpha_k = spec.spread.rack_share.unwrap_or(DEFAULT_RACK_SHARE);
            let limit = alpha_k * spec.capacity;
            if sum > limit {
                overage[ri] += sum - limit;
            }
        }
    }
    let mut ranked: Vec<(usize, f64)> = overage.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

/// Servers phase 2 may touch, in ascending id order: those targeted at a
/// selected reservation plus the free pool, within `scope` when there is
/// one.
pub(crate) fn phase2_universe(
    region: &Region,
    targets1: &[Option<ReservationId>],
    selected: &[usize],
    scope: Option<&[ServerId]>,
) -> Vec<ServerId> {
    let sel = selection_slots(selected);
    scope_servers(region, scope)
        .map(|server| server.id)
        .filter(|s| match targets1[s.index()] {
            None => true,
            Some(r) => sel.get(r.index()).copied().flatten().is_some(),
        })
        .collect()
}

/// `slots[ri]`: the position of reservation `ri` in `selected`.
fn selection_slots(selected: &[usize]) -> Vec<Option<usize>> {
    let mut slots = vec![None; selected.iter().max().map_or(0, |ri| ri + 1)];
    for (pos, ri) in selected.iter().enumerate() {
        slots[*ri] = Some(pos);
    }
    slots
}

/// The rack-granularity classes phase 2 builds over the universe of
/// every prefix of `selected`, counted in one walk over `scope` without
/// building them: the distinct class keys of the servers the class
/// builder keeps, with the phase-1 plan `targets1` as each server's
/// target (phase 2's snapshot carries it). A key's target names the one
/// bucket it counts in, so the prefix `selected[..n]` builds `free +
/// per_selected[..n].sum()` classes: `free` counts the keys of the free
/// pool, `per_selected[i]` those targeted at `selected[i]`. A rack fixes
/// its MSB, so the key needs no MSB.
fn rack_class_counts(
    region: &Region,
    snapshot: &BrokerSnapshot,
    targets1: &[Option<ReservationId>],
    selected: &[usize],
    scope: Option<&[ServerId]>,
) -> (usize, Vec<usize>) {
    type Key = (u32, u32, Option<ReservationId>, Option<ReservationId>, bool);
    let sel = selection_slots(selected);
    let mut keys: HashSet<Key, FastHash> = HashSet::default();
    let (mut free, mut per_selected) = (0usize, vec![0usize; selected.len()]);
    for server in scope_servers(region, scope) {
        let target = targets1[server.id.index()];
        let bucket = match target {
            None => &mut free,
            Some(r) => match sel.get(r.index()).copied().flatten() {
                Some(pos) => &mut per_selected[pos],
                None => continue,
            },
        };
        let record = snapshot.record(server.id);
        if unplanned_unavailable(record) {
            continue;
        }
        let fresh = keys.insert((
            server.hardware.0,
            server.rack.0,
            record.current,
            target,
            record.running_containers > 0,
        ));
        if fresh {
            *bucket += 1;
        }
    }
    (free, per_selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use crate::solver::{AsyncSolver, SolveOutput};
    use ras_broker::ResourceBroker;
    use ras_broker::SimTime;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    /// One cold two-phase round.
    fn solve(
        region: &Region,
        specs: &[ReservationSpec],
        snap: &BrokerSnapshot,
    ) -> Result<SolveOutput, CoreError> {
        AsyncSolver::default().solve(region, specs, snap)
    }

    #[test]
    fn two_phase_produces_capacity_satisfying_targets() {
        let (region, broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 50.0),
            uniform_spec(&region, "feed", 40.0),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let outcome = solve(&region, &specs, &snap).expect("solve");
        for (ri, spec) in specs.iter().enumerate() {
            let res = ReservationId::from_index(ri);
            let mut total = 0.0;
            let mut by_msb = vec![0.0; region.msbs().len()];
            for server in region.servers() {
                if outcome.targets[server.id.index()] == Some(res) {
                    let v = spec.rru.value(server.hardware);
                    total += v;
                    by_msb[server.msb.index()] += v;
                }
            }
            let max_msb = by_msb.iter().cloned().fold(0.0, f64::max);
            assert!(
                total - max_msb >= spec.capacity - 1e-6,
                "{}: total {total}, max msb {max_msb}, want {}",
                spec.name,
                spec.capacity
            );
        }
        assert!(outcome.phase1.assignment_vars > 0);
    }

    /// Two reservations whose rack overages are sums of the same terms:
    /// exactly tied in real arithmetic, a last bit apart in `f64` once the
    /// terms are added in different orders. The ranking feeds phase 2's
    /// 10 % cut, so it must not depend on a hash map's per-instance order.
    #[test]
    fn rack_overage_ranking_is_reproducible() {
        let (region, _) = setup();
        // Non-dyadic RRU values per hardware type, so the per-rack terms
        // differ and their sum rounds differently in different orders.
        let mut rru = RruTable::uniform(&region.catalog, 1.0);
        for (k, hw) in region.catalog.iter().enumerate() {
            rru.set(hw.id, 0.7 + 0.3 * k as f64);
        }
        let mut specs = Vec::new();
        for name in ["a", "b", "c"] {
            let mut spec = ReservationSpec::guaranteed(name, 90.0, rru.clone());
            spec.spread.rack_share = Some(0.001);
            specs.push(spec);
        }
        // Every rack alternates its servers between `a` and `b`, mirrored
        // in every other rack; `c` takes none and ranks last.
        let mut targets = vec![None; region.server_count()];
        for (ri, rack) in region.racks().iter().enumerate() {
            for (si, s) in rack.servers.iter().enumerate() {
                targets[s.index()] = Some(ReservationId::from_index((ri + si) % 2));
            }
        }
        let first = rack_overages(&region, &specs, &targets);
        assert!(first[0].1 > 0.0 && first[1].1 > 0.0 && first[2].1 == 0.0);
        for _ in 0..64 {
            let again = rack_overages(&region, &specs, &targets);
            let bits = |r: &[(usize, f64)]| -> Vec<(usize, u64)> {
                r.iter().map(|(i, v)| (*i, v.to_bits())).collect()
            };
            assert_eq!(bits(&again), bits(&first));
        }
    }

    #[test]
    fn phase2_triggers_on_rack_concentration() {
        let (region, mut broker) = setup();
        // Bind one whole rack to the reservation, grossly exceeding αK.
        let r0 = broker.register_reservation("web");
        let rack = region.racks()[0].clone();
        for s in &rack.servers {
            broker.bind_current(*s, Some(r0)).unwrap();
        }
        let mut spec = uniform_spec(&region, "web", 30.0);
        spec.spread.rack_share = Some(0.05); // 1.5 RRUs per rack max.
        let snap = broker.snapshot(SimTime::ZERO);
        let outcome = solve(&region, &[spec.clone()], &snap).expect("solve");
        // Rack overage of the final assignment should be no worse than the
        // phase-1-only assignment.
        let ranked = rack_overages(&region, &[spec], &outcome.targets);
        // The solve must have engaged phase 2 (there was rack overage at
        // start) unless phase 1 already fixed the spread.
        if let Some(p2) = &outcome.phase2 {
            assert!(p2.assignment_vars > 0);
        }
        assert!(ranked[0].1 < 9.0 * rack.servers.len() as f64);
    }

    /// Phase 1 splits every rack's free servers between a reservation
    /// and the free pool, and plans the one server that is down into a
    /// second reservation: the variable budget must see, for every prefix
    /// of the selection, the phase-2 class count, not one class per rack,
    /// and not the down server.
    #[test]
    fn rack_class_count_is_the_phase2_class_count() {
        use crate::classes::build_classes;
        use ras_broker::UnavailabilityEvent;
        use ras_topology::ScopeId;
        let (region, mut broker) = setup();
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let down = region.racks()[0].servers[0];
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snapshot = broker.snapshot(SimTime::ZERO);
        let mut targets1 = vec![None; region.server_count()];
        for rack in region.racks() {
            for s in rack.servers.iter().step_by(2) {
                targets1[s.index()] = Some(ReservationId::from_index(0));
            }
        }
        targets1[down.index()] = Some(ReservationId::from_index(1));
        let mut snapshot2 = snapshot.clone();
        for (record, t) in snapshot2.records.iter_mut().zip(&targets1) {
            record.target = *t;
        }
        let selected = [0, 1];
        let (free, per_selected) =
            rack_class_counts(&region, &snapshot, &targets1, &selected, None);
        for n in 1..=selected.len() {
            let universe = phase2_universe(&region, &targets1, &selected[..n], None);
            let classes = build_classes(&region, &snapshot2, Granularity::Rack, Some(&universe));
            let counted = free + per_selected[..n].iter().sum::<usize>();
            assert!(classes.len() > region.racks().len());
            assert_eq!(counted, classes.len(), "prefix {n}: the count is exact");
        }
    }

    #[test]
    fn overage_ranking_is_sorted() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let _ = broker.register_reservation("b");
        let rack = region.racks()[0].clone();
        for s in &rack.servers {
            broker.bind_current(*s, Some(r0)).unwrap();
        }
        let specs = vec![
            uniform_spec(&region, "a", 20.0),
            uniform_spec(&region, "b", 20.0),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let targets: Vec<Option<ReservationId>> = snap.records.iter().map(|r| r.current).collect();
        let ranked = rack_overages(&region, &specs, &targets);
        assert_eq!(ranked[0].0, 0, "reservation a has the rack pileup");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn impossible_request_is_reported_actionably() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 1e9)];
        let snap = broker.snapshot(SimTime::ZERO);
        // With no current assignment the softened model allocates what it
        // can; capacity remains short but the solve itself succeeds.
        let outcome = solve(&region, &specs, &snap);
        match outcome {
            Ok(o) => {
                assert!(
                    !o.phase1.softened.is_empty(),
                    "impossible capacity must be recorded as softened"
                );
            }
            Err(CoreError::CapacityUnavailable { shortfalls }) => {
                assert!(!shortfalls.is_empty());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
