//! The Async Solver facade (paper Figure 6, steps 2–3).
//!
//! Takes a broker snapshot plus the current reservation specs, runs the
//! two-phase MIP solve, and writes per-server *targets* back to the
//! broker. Runs off the critical path: the Online Mover materializes the
//! targets asynchronously, and container placement never waits on it.
//!
//! The solver owns a [`ShardedSession`], so consecutive
//! [`AsyncSolver::solve`] calls on the same instance are *continuous*:
//! each round warm-starts from the previous one (root-LP basis, seeded
//! incumbent — per shard when `params.shards > 1`).
//! Drop or [`AsyncSolver::reset`] the solver to force a cold round.

use ras_broker::{BrokerSnapshot, ReservationId, ResourceBroker};
use ras_topology::Region;

use crate::assign::{count_moves, MoveStats};
use crate::error::CoreError;
use crate::model::solver_visible;
use crate::params::SolverParams;
use crate::phases::TwoPhaseOutcome;
use crate::reservation::ReservationSpec;
use crate::session::WarmReport;
use crate::shard::{ShardedReport, ShardedSession};
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
    /// How the continuous session warm-started this round (aggregated
    /// across shards when the round was sharded).
    pub warm: WarmReport,
    /// Per-shard reports when the round ran sharded (`params.shards > 1`);
    /// `None` for a monolithic round. Audit certificates of a sharded
    /// round live here — the aggregate [`Self::phase1`] carries a default
    /// (uncertified) audit, use [`Self::audit_phases`] instead.
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

    /// True when this round started from the previous round's state (a
    /// supplied root basis or a seed incumbent).
    pub fn warm_start_used(&self) -> bool {
        self.warm.warm_basis_supplied || self.warm.seed_supplied
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
    /// top-level [`Self::phase1`] is synthesized from these and carries no
    /// audit certificate of its own, so certification checks must walk
    /// this list.
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
    /// Warm-start state threaded between rounds (one session per shard).
    session: ShardedSession,
}

impl AsyncSolver {
    /// Creates a solver with the given parameters.
    pub fn new(params: SolverParams) -> Self {
        Self {
            params,
            session: ShardedSession::new(),
        }
    }

    /// Number of rounds this solver has completed.
    pub fn rounds(&self) -> usize {
        self.session.rounds()
    }

    /// True when the next solve can warm-start from cached state.
    pub fn is_warm(&self) -> bool {
        self.session.is_warm()
    }

    /// Drops all cached warm-start state; the next solve runs cold.
    pub fn reset(&mut self) {
        self.session.reset();
    }

    /// Validates specs against the region (actionable rejections,
    /// Section 5.3).
    ///
    /// One pass over the fleet builds per-hardware-type counts; each spec
    /// is then answered in O(|catalog|) instead of O(|fleet|).
    pub fn validate(&self, region: &Region, specs: &[ReservationSpec]) -> Result<(), CoreError> {
        let mut by_hardware = vec![0usize; region.catalog.len()];
        for server in region.servers() {
            by_hardware[server.hardware.index()] += 1;
        }
        for (ri, spec) in specs.iter().enumerate() {
            if !solver_visible(spec) || spec.capacity <= 0.0 {
                continue;
            }
            let exists = spec
                .rru
                .iter_eligible()
                .any(|(hw, _)| by_hardware.get(hw.index()).is_some_and(|&n| n > 0));
            if !exists {
                return Err(CoreError::NoEligibleHardware {
                    reservation: ReservationId::from_index(ri),
                });
            }
        }
        Ok(())
    }

    /// Runs one solve over a snapshot.
    ///
    /// `specs[i]` must correspond to `ReservationId(i)` as registered in
    /// the broker. Takes `&mut self` because each round updates the
    /// warm-start session; use a fresh solver for an independent cold
    /// solve.
    pub fn solve(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
    ) -> Result<SolveOutput, CoreError> {
        self.validate(region, specs)?;
        let (
            TwoPhaseOutcome {
                targets,
                phase1,
                phase2,
            },
            report,
        ) = self
            .session
            .solve_round(region, specs, snapshot, &self.params)?;
        let moves = count_moves(snapshot, &targets);
        let warm = report.warm.clone();
        let sharded = if report.shards.len() > 1 {
            Some(report)
        } else {
            None
        };
        Ok(SolveOutput {
            targets,
            phase1,
            phase2,
            moves,
            warm,
            sharded,
        })
    }

    /// Persists a solve's targets into the broker (Figure 6, step 3).
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
        for (i, target) in output.targets.iter().enumerate() {
            let server = ras_topology::ServerId::from_index(i);
            let record = broker
                .record(server)
                .map_err(|e| CoreError::Broker(e.to_string()))?;
            if record.target != *target {
                broker
                    .set_target(server, *target)
                    .map_err(|e| CoreError::Broker(e.to_string()))?;
            }
        }
        Ok(())
    }
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
        assert!(!output.warm_start_used(), "first round runs cold");
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
        assert!(
            output2.warm_start_used(),
            "second round must run warm: {:?}",
            output2.warm
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
}
