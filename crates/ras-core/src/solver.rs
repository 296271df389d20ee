//! The Async Solver (paper Figure 6, steps 2–3): the one owner of a
//! continuous round.
//!
//! Takes a broker snapshot plus the current reservation specs, runs the
//! two-phase MIP solve, and writes per-server *targets* back to the
//! broker. Runs off the critical path: the Online Mover materializes the
//! targets asynchronously, and container placement never waits on it.
//!
//! A round is a function of its inputs: no solver state crosses from
//! one round to the next ([`crate::session`]: the running plan, read
//! from the snapshot, is the warm start), so a fresh solver plans a
//! snapshot exactly as a long-lived one does. The solver keeps only its
//! parameters and the shard plan, a memo of a pure function of the shard
//! count, the region and the specs. A round whose plan has one shard
//! runs the phase body over the whole region; a plan of two or more
//! shards ([`crate::shard`]) solves them on worker threads, merges,
//! reconciles and folds their statistics. A failed round returns its
//! cause and leaves nothing behind.

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId, ResourceBroker};
use ras_topology::Region;

use crate::assign::{count_moves, MoveStats};
use crate::error::CoreError;
use crate::model::solver_visible;
use crate::params::SolverParams;
use crate::reservation::ReservationSpec;
use crate::session::{self, RoundRun, WarmReport};
use crate::shard::{
    aggregate_phase1, aggregate_warm, evaluate_targets, reconcile, standings, supported_plan,
    ReconcileReport, ShardPlan, ShardReport, ShardedReport, Standing,
};
use crate::stats::PhaseStats;

/// Output of one solve: targets plus full statistics.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// Target reservation per server (`None` = free pool).
    pub targets: Vec<Option<ReservationId>>,
    /// Phase-1 statistics.
    pub phase1: PhaseStats,
    /// Phase-2 statistics, when phase 2 ran.
    pub phase2: Option<PhaseStats>,
    /// Moves this solve plans relative to current bindings.
    pub moves: MoveStats,
    /// How the round warm-started (aggregated across shards when the
    /// round was sharded).
    pub warm: WarmReport,
    /// Per-shard reports when the round's plan had two or more shards;
    /// `None` for a one-shard round. Each shard's own audit certificates
    /// live here (see [`Self::audit_phases`]); the aggregate
    /// [`Self::phase1`] carries their fold, certified clean exactly when
    /// every one of them is.
    pub sharded: Option<ShardedReport>,
}

impl SolveOutput {
    /// Total wall-clock seconds across phases (Figure 7's metric).
    pub fn allocation_seconds(&self) -> f64 {
        self.phase1.total_seconds + self.phase2.as_ref().map_or(0.0, |p| p.total_seconds)
    }

    /// Total assignment variables across phases.
    pub fn assignment_vars(&self) -> usize {
        self.phase1.assignment_vars + self.phase2.as_ref().map_or(0, |p| p.assignment_vars)
    }

    /// Total simplex iterations across both phases (all LP solves of each
    /// MIP). Warm rounds should spend measurably fewer than the cold
    /// round that preceded them.
    pub fn lp_iterations(&self) -> usize {
        self.phase1.mip_stats.simplex_iterations
            + self
                .phase2
                .as_ref()
                .map_or(0, |p| p.mip_stats.simplex_iterations)
    }

    /// The real, auditable per-phase solver statistics of this round: the
    /// monolithic phase 1 (+ phase 2) for a monolithic round, every
    /// shard's phase 1 (+ phase 2) for a sharded one. A sharded round's
    /// top-level [`Self::phase1`] is synthesized from these; its audit
    /// folds theirs (certified clean exactly when each of them is), and
    /// which shard and phase a finding came from shows only here.
    pub fn audit_phases(&self) -> Vec<&PhaseStats> {
        match &self.sharded {
            Some(report) => report
                .shards
                .iter()
                .flat_map(|s| std::iter::once(&s.phase1).chain(s.phase2.as_ref()))
                .collect(),
            None => std::iter::once(&self.phase1)
                .chain(self.phase2.as_ref())
                .collect(),
        }
    }
}

/// The Async Solver.
#[derive(Debug, Clone, Default)]
pub struct AsyncSolver {
    /// Cost coefficients and limits.
    pub params: SolverParams,
    /// The shard plan of the last round's shard count, region and specs.
    plan: Option<PlanState>,
}

/// A shard plan with the inputs it was derived from.
#[derive(Debug, Clone)]
struct PlanState {
    /// The shard count asked for, clamped to the MSB count.
    k: usize,
    /// The region's server and MSB counts.
    region: (usize, usize),
    /// The specs the capacity slices split.
    specs: Vec<ReservationSpec>,
    /// The partition and each shard's capacity slices; `None` for a
    /// one-shard plan (see [`supported_plan`]).
    shards: Option<(ShardPlan, Vec<Vec<ReservationSpec>>)>,
}

impl AsyncSolver {
    /// Creates a solver with the given parameters.
    pub fn new(params: SolverParams) -> Self {
        Self {
            params,
            ..Self::default()
        }
    }

    /// Validates specs against the region (actionable rejections,
    /// Section 5.3): every capacity must be a finite number, and every
    /// solver-visible spec asking for capacity must name hardware the
    /// region has.
    ///
    /// The region counts its servers per hardware type as it is built, so
    /// each spec is answered in O(|catalog|), never O(|fleet|).
    pub fn validate(&self, region: &Region, specs: &[ReservationSpec]) -> Result<(), CoreError> {
        let by_hardware = region.hardware_counts();
        for (ri, spec) in specs.iter().enumerate() {
            let reservation = ReservationId::from_index(ri);
            if !spec.capacity.is_finite() {
                return Err(CoreError::NonFiniteCapacity {
                    reservation,
                    capacity: spec.capacity,
                });
            }
            if !solver_visible(spec) || spec.capacity <= 0.0 {
                continue;
            }
            let exists = spec
                .rru
                .iter_eligible()
                .any(|(hw, _)| by_hardware.get(hw.index()).is_some_and(|&n| n > 0));
            if !exists {
                return Err(CoreError::NoEligibleHardware { reservation });
            }
        }
        Ok(())
    }

    /// Runs one solve over a snapshot.
    ///
    /// `specs[i]` must correspond to `ReservationId::from_index(i)` as registered in
    /// the broker. Takes `&mut self` only to memoize the shard plan; the
    /// output depends on the arguments and [`Self::params`] alone. A
    /// failed round — any shard failing — returns its cause as it is.
    pub fn solve(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
    ) -> Result<SolveOutput, CoreError> {
        self.validate(region, specs)?;
        self.ensure_plan(region, specs);
        let params = &self.params;
        if let Some(sharded) = self.plan.as_ref().and_then(|p| p.shards.as_ref()) {
            return solve_shards(sharded, region, specs, snapshot, params);
        }
        let run = session::run_round(region, specs, snapshot, params, None)?;
        Ok(SolveOutput {
            moves: run.moves,
            targets: run.targets,
            phase1: run.phase1,
            phase2: run.phase2,
            warm: run.warm,
            sharded: None,
        })
    }

    /// Re-derives the shard plan when the shard count asked for, the
    /// region or the specs changed. The count is an upper bound:
    /// [`supported_plan`] picks the largest one every shard can carry,
    /// down to one shard over the whole region.
    fn ensure_plan(&mut self, region: &Region, specs: &[ReservationSpec]) {
        let k = self.params.shards.clamp(1, region.msbs().len().max(1));
        let fingerprint = (region.server_count(), region.msbs().len());
        if self
            .plan
            .as_ref()
            .is_some_and(|p| p.k == k && p.region == fingerprint && p.specs == specs)
        {
            return;
        }
        self.plan = Some(PlanState {
            k,
            region: fingerprint,
            specs: specs.to_vec(),
            shards: supported_plan(region, specs, k),
        });
    }

    /// Persists a solve's targets into the broker (Figure 6, step 3), in
    /// one pass of the broker over its records: every server whose target
    /// changed gets a [`ResourceBroker::set_target`] write, in ascending
    /// id order.
    pub fn apply(
        &self,
        output: &SolveOutput,
        broker: &mut ResourceBroker,
    ) -> Result<(), CoreError> {
        if broker.server_count() != output.targets.len() {
            return Err(CoreError::Broker(format!(
                "target vector ({}) does not match broker fleet ({})",
                output.targets.len(),
                broker.server_count()
            )));
        }
        broker.apply_targets(&output.targets);
        Ok(())
    }
}

/// One round of a plan with two or more shards: every shard solves its
/// universe and capacity slice on a worker thread,
/// the merge takes each shard's targets over its own (disjoint)
/// servers, the reconcile pass releases the surplus the per-shard
/// buffers leave, and the merged plan's regional score becomes the
/// round's phase-1 objective. The first failing shard, in plan order,
/// fails the round.
fn solve_shards(
    (plan, split): &(ShardPlan, Vec<Vec<ReservationSpec>>),
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
) -> Result<SolveOutput, CoreError> {
    let round_start = Instant::now();
    let results: Vec<Result<RoundRun, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .shards
            .iter()
            .zip(split)
            .map(|(shard, shard_specs)| {
                scope.spawn(move || {
                    session::run_round(region, shard_specs, snapshot, params, Some(&shard.servers))
                })
            })
            .collect();
        // Join every worker before reading any result: a scope that ends
        // with an unjoined, panicked thread panics itself.
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CoreError::Solver("shard worker thread panicked".into()))
                })
            })
            .collect()
    });
    let runs = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Merge: every shard rules over its own (disjoint) universe, and the
    // universes cover the region (`ShardPlan::build`), so the merged plan
    // is built from the shards' own server lists and its moves are the
    // sum of theirs. Reconcile only releases servers that are bound
    // nowhere, which never moves one, so the sum holds for the final plan.
    let merge_start = Instant::now();
    let mut targets: Vec<Option<ReservationId>> = vec![None; region.server_count()];
    let mut moves = MoveStats::default();
    for (shard, run) in plan.shards.iter().zip(&runs) {
        for s in &shard.servers {
            targets[s.index()] = run.targets[s.index()];
        }
        moves.absorb(&run.moves);
    }
    debug_assert_eq!(
        plan.shards.iter().map(|s| s.servers.len()).sum::<usize>(),
        region.server_count(),
        "the shards cover the region"
    );
    // The shards' phase-1 classes hold every assignable server with its
    // binding, so reconcile reads them instead of the snapshot.
    let standing = standings(region.server_count(), runs.iter().flat_map(|r| &r.classes));
    debug_assert!(standing
        .iter()
        .zip(&snapshot.records)
        .all(|(s, record)| *s == Standing::of(record)));
    let (released, released_rru) = reconcile(region, specs, &standing, &mut targets);
    debug_assert_eq!(moves, count_moves(snapshot, &targets));
    let score = evaluate_targets(region, specs, snapshot, params, &targets);
    let reconcile_report = ReconcileReport {
        released,
        released_rru,
        merge_seconds: merge_start.elapsed().as_secs_f64(),
    };

    let shards: Vec<ShardReport> = plan
        .shards
        .iter()
        .zip(runs)
        .zip(split)
        .map(|((shard, run), shard_specs)| ShardReport {
            shard: shard.index,
            servers: shard.servers.len(),
            capacity: shard_specs.iter().map(|s| s.capacity).collect(),
            phase1: run.phase1,
            phase2: run.phase2,
            warm: run.warm,
        })
        .collect();
    let warm = aggregate_warm(&shards);
    let phase1 = aggregate_phase1(
        &shards,
        score.objective,
        round_start.elapsed().as_secs_f64(),
    );
    Ok(SolveOutput {
        moves,
        targets,
        phase1,
        phase2: None,
        warm,
        sharded: Some(ShardedReport {
            shards,
            reconcile: reconcile_report,
            score,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use ras_broker::SimTime;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn solve_and_apply_roundtrip() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let r0 = broker.register_reservation("web");
        let mut solver = AsyncSolver::default();
        let snap = broker.snapshot(SimTime::ZERO);
        let output = solver.solve(&region, &specs, &snap).expect("solve");
        solver.apply(&output, &mut broker).expect("apply");
        let assigned = broker.iter().filter(|(_, r)| r.target == Some(r0)).count();
        assert!(
            assigned >= 40,
            "at least Cr servers targeted, got {assigned}"
        );
        // Pending moves are exactly the servers with a fresh target.
        assert_eq!(broker.pending_moves().len(), assigned);
    }

    #[test]
    fn validate_rejects_absent_hardware() {
        let (region, _) = setup();
        // Demand hardware from an empty table.
        let specs = vec![ReservationSpec::guaranteed(
            "ml",
            10.0,
            RruTable::empty(&region.catalog),
        )];
        let solver = AsyncSolver::default();
        let err = solver.validate(&region, &specs).unwrap_err();
        assert!(matches!(err, CoreError::NoEligibleHardware { .. }));
    }

    #[test]
    fn a_non_finite_capacity_is_refused_naming_the_reservation() {
        let (region, mut broker) = setup();
        let rru = RruTable::uniform(&region.catalog, 1.0);
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let snap = broker.snapshot(SimTime::ZERO);
        for capacity in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let specs = vec![
                ReservationSpec::guaranteed("web", 40.0, rru.clone()),
                ReservationSpec::guaranteed("feed", capacity, rru.clone()),
            ];
            let err = AsyncSolver::default()
                .solve(&region, &specs, &snap)
                .expect_err("a non-finite capacity must not plan");
            match &err {
                CoreError::NonFiniteCapacity {
                    reservation,
                    capacity: asked,
                } => {
                    assert_eq!(*reservation, ReservationId::from_index(1));
                    assert_eq!(asked.to_bits(), capacity.to_bits());
                }
                other => panic!("capacity {capacity}: expected NonFiniteCapacity, got {other:?}"),
            }
            let msg = err.to_string();
            assert!(
                msg.contains("R1") && msg.contains(&capacity.to_string()),
                "{msg}"
            );
        }
    }

    #[test]
    fn resolve_is_stable_without_input_changes() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        broker.register_reservation("web");
        let mut solver = AsyncSolver::default();
        let snap = broker.snapshot(SimTime::ZERO);
        let output = solver.solve(&region, &specs, &snap).expect("solve");
        solver.apply(&output, &mut broker).expect("apply");
        // Materialize all moves, then re-solve: nothing should move.
        for s in broker.pending_moves() {
            let target = broker.record(s).unwrap().target;
            broker.bind_current(s, target).unwrap();
        }
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let output2 = solver.solve(&region, &specs, &snap2).expect("solve 2");
        assert_eq!(
            output2.moves.total(),
            0,
            "steady state must be move-free (stability objective)"
        );
    }

    #[test]
    fn apply_rejects_mismatched_fleet() {
        let (region, _) = setup();
        let mut small = ResourceBroker::new(3);
        let solver = AsyncSolver::default();
        let output = SolveOutput {
            targets: vec![None; region.server_count()],
            phase1: PhaseStats::default(),
            phase2: None,
            moves: MoveStats::default(),
            warm: WarmReport::default(),
            sharded: None,
        };
        assert!(solver.apply(&output, &mut small).is_err());
    }

    #[test]
    fn sharded_round_is_feasible_and_audited() {
        let (region, mut broker) = setup();
        let rru = RruTable::uniform(&region.catalog, 1.0);
        let specs = vec![
            ReservationSpec::guaranteed("web", 80.0, rru.clone()),
            ReservationSpec::guaranteed("feed", 40.0, rru),
        ];
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let snap = broker.snapshot(SimTime::ZERO);
        let params = SolverParams {
            shards: 3,
            ..SolverParams::default()
        };

        let outcome = AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snap)
            .expect("sharded solve");
        let report = outcome.sharded.as_ref().expect("three shards");
        assert_eq!(report.shards.len(), 3);
        for shard in &report.shards {
            assert!(
                shard.phase1.mip_stats.audit.certified_clean(),
                "shard {} not certified",
                shard.shard
            );
        }
        let score = evaluate_targets(&region, &specs, &snap, &params, &outcome.targets);
        assert!(
            score.capacity_feasible(1e-6),
            "merged plan infeasible: {:?}",
            score.capacity_shortfall
        );
        assert_eq!(outcome.phase1.classes, {
            let s: usize = report.shards.iter().map(|s| s.phase1.classes).sum();
            s
        });
    }
}
