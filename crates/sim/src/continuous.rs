//! Continuous-operation scenario: many solve rounds over a churning fleet.
//!
//! The paper's deployment runs the Async Solver every ~30 minutes against
//! an input that drifts only slightly between rounds (a few servers fail
//! or return, the occasional spec edit). This scenario reproduces that
//! regime: one [`AsyncSolver`] solves `rounds` consecutive rounds, each
//! round applying the plan, materializing the moves, and then churning a
//! small fraction of the fleet — servers go down with unplanned hardware
//! failures and the previous round's victims come back up.
//!
//! The per-round [`RoundReport`]s expose what the continuous machinery
//! did (the root's start from the running plan, incumbent seeding) alongside
//! wall-clock and simplex-iteration costs, so tests and the
//! `fig_continuous` figure can assert that warm rounds are measurably
//! cheaper than the cold round 0 and that steady-state rounds plan zero
//! moves.

use ras_broker::{ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_core::reservation::ReservationSpec;
use ras_core::solver::AsyncSolver;
use ras_core::stats::PhaseStats;
use ras_core::{SolverParams, WarmReport};
use ras_topology::{Region, ScopeId, ServerId};
use ras_twine::{ContainerSpec, JobSpec, PlacementPolicyKind, TwineAllocator};

use crate::metrics::{stranded_account, StrandedAccount};

/// Level-2 container load driven alongside the level-1 solve rounds:
/// each reservation gets one job per shape, placed by Twine under the
/// configured policy, evacuated on churn, and accounted for stranded
/// capacity every round.
#[derive(Debug, Clone)]
pub struct ContainerLoad {
    /// Placement policy for Twine.
    pub policy: PlacementPolicyKind,
    /// Container shapes submitted per reservation: `(spec, replicas)`.
    pub shapes: Vec<(ContainerSpec, u32)>,
    /// Spread each job's replicas across racks.
    pub rack_anti_affinity: bool,
}

impl ContainerLoad {
    /// A mixed cores-heavy/memory-heavy load sized for a reservation of
    /// roughly `servers` members — the shape mix that strands capacity
    /// under dimension-blind stacking.
    pub fn mixed(policy: PlacementPolicyKind, servers: usize) -> Self {
        let per_shape = (servers as u32).max(4);
        Self {
            policy,
            shapes: vec![
                (ContainerSpec::cores_heavy(), per_shape),
                (ContainerSpec::memory_heavy(), per_shape),
                (ContainerSpec::small(), per_shape / 2),
            ],
            rack_anti_affinity: true,
        }
    }

    /// Submits one job per shape, named `{name}-shape{i}`, to
    /// `reservation`. Returns the most placement candidates one
    /// submission evaluated.
    pub fn submit_to(
        &self,
        region: &Region,
        broker: &mut ResourceBroker,
        twine: &mut TwineAllocator,
        reservation: ReservationId,
        name: &str,
    ) -> usize {
        let mut max_candidates = 0;
        for (si, (shape, replicas)) in self.shapes.iter().enumerate() {
            twine.submit(
                region,
                broker,
                JobSpec {
                    name: format!("{name}-shape{si}"),
                    reservation,
                    container: *shape,
                    replicas: *replicas,
                    rack_anti_affinity: self.rack_anti_affinity,
                },
            );
            max_candidates = max_candidates.max(twine.last_candidates_evaluated);
        }
        max_candidates
    }

    /// Binds `members` servers, striped across `region` so every MSB
    /// contributes, to one fresh reservation called `name`, and submits
    /// the load to it. Returns the broker, the allocator that placed the
    /// load, and the most placement candidates one submission evaluated.
    pub fn place_striped(
        &self,
        region: &Region,
        members: usize,
        name: &str,
    ) -> (ResourceBroker, TwineAllocator, usize) {
        let total = region.server_count();
        let mut broker = ResourceBroker::new(total);
        let reservation = broker.register_reservation(name);
        let stride = (total / members).max(1);
        let mut bound = 0;
        for i in (0..total).step_by(stride) {
            if bound >= members {
                break;
            }
            if broker
                .bind_current(ServerId::from_index(i), Some(reservation))
                .is_ok()
            {
                bound += 1;
            }
        }
        let mut twine = TwineAllocator::with_policy(self.policy);
        let max_candidates = self.submit_to(region, &mut broker, &mut twine, reservation, name);
        (broker, twine, max_candidates)
    }
}

/// Configuration of a continuous run.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Number of solve rounds (the paper re-solves every ~30 min).
    pub rounds: usize,
    /// Fraction of the fleet churned between rounds (≤ 0.02 in practice).
    pub churn_fraction: f64,
    /// RNG seed for churn victim selection.
    pub seed: u64,
    /// Fraction of fleet RRUs demanded by the reservation portfolio.
    pub utilization: f64,
    /// Solver parameters for every round.
    pub params: SolverParams,
    /// Also run a cold (fresh-session) solve of every round's snapshot
    /// and record its time/objective for differential comparison. The
    /// cold solve is never applied.
    pub cold_compare: bool,
    /// Container load to run at level 2 (none = level-1-only rounds,
    /// the historical behavior).
    pub containers: Option<ContainerLoad>,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        Self {
            rounds: 8,
            churn_fraction: 0.02,
            seed: 0xC0117,
            utilization: 0.6,
            params: SolverParams::default(),
            cold_compare: false,
            containers: None,
        }
    }
}

/// What one continuous round cost and how warm it ran.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// 0-based round index (round 0 is the cold solve).
    pub round: usize,
    /// Wall-clock seconds for the full solve call (build + both phases).
    pub solve_seconds: f64,
    /// Simplex iterations across both phases.
    pub lp_iterations: usize,
    /// Moves the round planned relative to current bindings (servers
    /// already bound somewhere; first-time assignments are not moves).
    pub moves: usize,
    /// Servers with a (non-free) target in this round's plan.
    pub assigned: usize,
    /// Servers churned (marked down) immediately before this round.
    pub churned: usize,
    /// The round's phase-1 statistics: the full objective (warm and cold
    /// must agree on it), the solve's counters and the reduction's
    /// size. A sharded round's are the aggregate over its shards.
    pub phase1: PhaseStats,
    /// The session's account of its warm-start behavior.
    pub warm: WarmReport,
    /// Wall-clock seconds of the cold solve of the same snapshot
    /// (only with [`ContinuousConfig::cold_compare`]).
    pub cold_solve_seconds: Option<f64>,
    /// Phase-1 objective of the cold solve of the same snapshot.
    pub cold_objective: Option<f64>,
    /// Whether the cold solve finished with the same phase-1 status.
    pub cold_status_matches: Option<bool>,
    /// Shards the round solved in parallel (1 = monolithic).
    pub shards: usize,
    /// Wall-clock seconds of the sharded merge/reconcile pass.
    pub merge_seconds: f64,
    /// Containers running at the end of the round (0 without a
    /// [`ContainerLoad`]).
    pub container_count: usize,
    /// Containers evacuated off churned servers and re-placed this round.
    pub evac_moved: usize,
    /// Containers evacuated this round that could not be re-placed.
    pub evac_lost: usize,
    /// Stranded-capacity account over the portfolio's reservations at
    /// the end of the round.
    pub stranded: StrandedAccount,
    /// Cumulative container-placement latency p50 (µs) through this
    /// round.
    pub placement_p50_us: Option<u64>,
    /// Cumulative container-placement latency p99 (µs) through this
    /// round.
    pub placement_p99_us: Option<u64>,
}

impl RoundReport {
    /// The round's phase-1 root started from the running plan: it went
    /// dual-first from the slack basis, ran no primal phase 1 and threw
    /// no attempt away.
    pub fn root_started_from_plan(&self) -> bool {
        let stats = &self.phase1.mip_stats;
        stats.root_used_dual_simplex
            && stats.root_phase1_iterations == 0
            && stats.root_discarded_seconds == 0.0
    }
}

/// A deterministic xorshift generator (no external RNG dependency).
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// The standard portfolio for continuous runs: two guaranteed
/// reservations splitting `utilization` of the fleet 2:1.
pub fn portfolio(region: &Region, utilization: f64) -> Vec<ReservationSpec> {
    let total = region.server_count() as f64 * utilization;
    let rru = crate::scenario::uniform_rru(region);
    vec![
        ReservationSpec::guaranteed("web", (total * 2.0 / 3.0).floor(), rru.clone()),
        ReservationSpec::guaranteed("feed", (total / 3.0).floor(), rru),
    ]
}

/// Runs `config.rounds` continuous rounds over `region` and returns one
/// report per round.
///
/// Round lifecycle: restore the previous round's churn victims, mark a
/// fresh `churn_fraction` of the fleet down (rounds ≥ 1), solve, apply
/// the targets, and materialize every pending move so the next round
/// starts from the steady state this round planned.
///
/// The solver certifies every phase it solves and refuses a plan whose
/// certificate fails; a refused round panics here, so every returned
/// report is of a certified round.
pub fn run_continuous(region: &Region, config: &ContinuousConfig) -> Vec<RoundReport> {
    run_rounds(region, config, |_, _| {})
}

/// [`run_continuous`], handing the broker and the allocator (present
/// with a [`ContainerLoad`]) to `after_round` at the end of every round.
fn run_rounds(
    region: &Region,
    config: &ContinuousConfig,
    mut after_round: impl FnMut(&ResourceBroker, Option<&TwineAllocator>),
) -> Vec<RoundReport> {
    let specs = portfolio(region, config.utilization);
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::new(config.params.clone());
    let mut rng = Xorshift(config.seed | 1);
    let churn = ras_core::cast::rounded_usize(region.server_count() as f64 * config.churn_fraction);
    let mut downed: Vec<ServerId> = Vec::new();
    let mut reports = Vec::with_capacity(config.rounds);
    let mut twine = config
        .containers
        .as_ref()
        .map(|load| TwineAllocator::with_policy(load.policy));

    for round in 0..config.rounds {
        let now = SimTime::from_hours(round as u64);
        let mut churned = 0;
        let mut evac_moved = 0;
        let mut evac_lost = 0;
        if round > 0 {
            // Yesterday's failures recover...
            for s in downed.drain(..) {
                let _ = broker.mark_up(s, now);
            }
            // ...and a fresh slice of the fleet goes down.
            while downed.len() < churn {
                let s = ServerId::from_index(rng.below(region.server_count()));
                if downed.contains(&s) {
                    continue;
                }
                let event = UnavailabilityEvent {
                    server: s,
                    kind: UnavailabilityKind::UnplannedHardware,
                    scope: ScopeId::Server(s),
                    start: now,
                    expected_end: Some(now.plus_hours(1)),
                };
                if broker.mark_down(event).is_ok() {
                    downed.push(s);
                    churned += 1;
                }
            }
            // Twine reacts to the churn immediately: every container on a
            // freshly-downed server is evacuated within its reservation.
            if let Some(twine) = &mut twine {
                for s in &downed {
                    if twine.containers_on(*s) > 0 {
                        let (m, l) = twine.evacuate(region, &mut broker, *s);
                        evac_moved += m;
                        evac_lost += l;
                    }
                }
            }
        }

        let snapshot = broker.snapshot(now);
        let start = std::time::Instant::now();
        let output = solver
            .solve(region, &specs, &snapshot)
            .expect("continuous round must solve");
        let solve_seconds = start.elapsed().as_secs_f64();

        let (cold_solve_seconds, cold_objective, cold_status_matches) = if config.cold_compare {
            let mut cold = AsyncSolver::new(config.params.clone());
            let cold_start = std::time::Instant::now();
            let cold_out = cold
                .solve(region, &specs, &snapshot)
                .expect("cold comparison round must solve");
            (
                Some(cold_start.elapsed().as_secs_f64()),
                Some(cold_out.phase1.objective),
                Some(cold_out.phase1.status == output.phase1.status),
            )
        } else {
            (None, None, None)
        };

        let (shards, merge_seconds) = match &output.sharded {
            Some(rep) => (rep.shards.len(), rep.reconcile.merge_seconds),
            None => (1, 0.0),
        };

        solver.apply(&output, &mut broker).expect("apply");
        for s in broker.pending_moves() {
            let target = broker.record(s).map(|r| r.target).unwrap_or(None);
            let _ = broker.bind_current(s, target);
        }

        // Level-2 load rides on the freshly materialized capacity: the
        // first round submits the jobs, later rounds retry anything
        // pending or degraded (evacuation losses, capacity shifts).
        let mut stranded = StrandedAccount::default();
        let (mut placement_p50_us, mut placement_p99_us) = (None, None);
        let mut container_count = 0;
        if let (Some(twine), Some(load)) = (&mut twine, config.containers.as_ref()) {
            if round == 0 {
                for (ri, spec) in specs.iter().enumerate() {
                    let reservation = ReservationId::from_index(ri);
                    load.submit_to(region, &mut broker, twine, reservation, &spec.name);
                }
            } else {
                twine.process(region, &mut broker);
            }
            stranded = stranded_now(twine, region, &broker, specs.len());
            placement_p50_us = twine.latency.percentile(50.0);
            placement_p99_us = twine.latency.percentile(99.0);
            container_count = twine.container_count();
        }
        after_round(&broker, twine.as_ref());

        reports.push(RoundReport {
            round,
            solve_seconds,
            lp_iterations: output.lp_iterations(),
            moves: output.moves.total(),
            assigned: output.targets.iter().filter(|t| t.is_some()).count(),
            churned,
            phase1: output.phase1.clone(),
            warm: output.warm.clone(),
            cold_solve_seconds,
            cold_objective,
            cold_status_matches,
            shards,
            merge_seconds,
            container_count,
            evac_moved,
            evac_lost,
            stranded,
            placement_p50_us,
            placement_p99_us,
        });
    }
    reports
}

/// Stranded-capacity account across every reservation, among the first
/// `reservations`, that runs containers, each against its own container
/// shapes. Only healthy members that actually hold containers are
/// accounted:
/// stranding measures what the *allocator's stacking* left unusable, and
/// hosts it never touched say nothing about the placement policy.
pub(crate) fn stranded_now(
    allocator: &mut TwineAllocator,
    region: &Region,
    broker: &ResourceBroker,
    reservations: usize,
) -> StrandedAccount {
    let mut total = StrandedAccount::default();
    for ri in 0..reservations {
        let r = ReservationId::from_index(ri);
        let shapes: Vec<(f64, f64)> = allocator
            .container_shapes(r)
            .iter()
            .map(|s| (s.cores, s.memory_gib))
            .collect();
        if shapes.is_empty() {
            continue;
        }
        let mut free = Vec::new();
        for s in broker.members(r) {
            let up = broker.record(s).map(|rec| rec.is_up()).unwrap_or(false);
            if !up || allocator.containers_on(s) == 0 {
                continue;
            }
            free.push(allocator.free_capacity_of(region, s));
        }
        total.merge(&stranded_account(free, &shapes));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::{RegionBuilder, RegionTemplate};
    use ras_twine::JobId;

    fn region() -> Region {
        RegionBuilder::new(RegionTemplate::tiny(), 42).build()
    }

    #[test]
    fn steady_state_rounds_plan_zero_moves() {
        let region = region();
        let config = ContinuousConfig {
            rounds: 6,
            churn_fraction: 0.0,
            ..ContinuousConfig::default()
        };
        let reports = run_continuous(&region, &config);
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[0].warm.round, 0, "round 0 is cold");
        assert!(reports[0].assigned > 0, "cold round fills the reservations");
        // Every warm round's phase-1 root starts from the running plan.
        for r in &reports[1..] {
            assert!(r.root_started_from_plan(), "round {}", r.round);
        }
        // The first post-apply rounds may still refine rack placement
        // (phase 2 works off a per-round move budget), but with zero
        // churn the plan must reach a fixed point: the last rounds plan
        // zero moves and keep the seeded incumbent.
        for r in &reports[4..] {
            assert_eq!(
                r.moves, 0,
                "round {} must plan zero moves in steady state",
                r.round
            );
            assert!(r.warm.incumbent_seeded, "round {} incumbent", r.round);
        }
    }

    #[test]
    fn sharded_rounds_stay_warm_and_certified() {
        let region = region();
        let config = ContinuousConfig {
            rounds: 4,
            churn_fraction: 0.02,
            params: ras_core::SolverParams {
                shards: 2,
                ..ras_core::SolverParams::default()
            },
            ..ContinuousConfig::default()
        };
        let reports = run_continuous(&region, &config);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.shards, 2, "round {} must solve sharded", r.round);
            assert!(r.phase1.objective.is_finite());
            assert!(r.assigned > 0, "round {} fills the portfolio", r.round);
        }
        for r in &reports[1..] {
            assert!(
                r.warm.round > 0 && r.warm.dual_resolve,
                "round {} must start every shard's root from the plan: {:?}",
                r.round,
                r.warm
            );
        }
    }

    #[test]
    fn container_rounds_account_stranding_and_survive_churn() {
        let region = region();
        let load = ContainerLoad::mixed(PlacementPolicyKind::FarbBalance, 30);
        let shapes = load.shapes.len();
        let config = ContinuousConfig {
            rounds: 4,
            churn_fraction: 0.02,
            containers: Some(load),
            ..ContinuousConfig::default()
        };
        // After every round, every server holding containers is up and
        // bound to the reservation of the job that placed them: the churn
        // evacuation empties the downed servers, and the pending moves the
        // round binds straight to their targets never take a server in use.
        let mut rounds_checked = 0;
        let reports = run_rounds(&region, &config, |broker, twine| {
            let twine = twine.expect("the config carries a container load");
            // Round 0 submits `shapes` jobs per reservation, in order.
            let jobs = (0..).map(JobId).take_while(|j| twine.state(*j).is_some());
            let mut containers = 0;
            for job in jobs {
                let reservation = ReservationId::from_index(job.index() / shapes);
                for &c in twine.containers_of(job) {
                    let server = twine.server_of(c).expect("a live container runs");
                    let rec = broker.record(server).expect("a region server");
                    assert!(
                        rec.is_up(),
                        "round {rounds_checked}: {c:?} on down {server}"
                    );
                    assert_eq!(
                        rec.current,
                        Some(reservation),
                        "round {rounds_checked}: {c:?} of {job:?} on {server}"
                    );
                    containers += 1;
                }
            }
            assert!(containers > 0, "round {rounds_checked} runs containers");
            rounds_checked += 1;
        });
        assert_eq!(rounds_checked, 4);
        assert!(
            reports[0].container_count > 0,
            "round 0 must place the container load"
        );
        for r in &reports {
            assert!(r.stranded.hosts > 0, "round {} accounts hosts", r.round);
            assert!(
                r.stranded.free_cores > 0.0,
                "round {} sees free capacity",
                r.round
            );
            assert!(r.placement_p99_us.is_some(), "round {} latency", r.round);
        }
        // Containers never silently vanish: every round's count equals
        // the initial placement minus cumulative evacuation losses.
        let placed = reports[0].container_count;
        let mut lost = 0;
        for r in &reports[1..] {
            lost += r.evac_lost;
            assert!(
                r.container_count + lost >= placed,
                "round {}: {} running + {} lost < {} placed",
                r.round,
                r.container_count,
                lost,
                placed
            );
        }
    }

    #[test]
    fn churn_rounds_stay_warm_and_feasible() {
        let region = region();
        let config = ContinuousConfig {
            rounds: 5,
            churn_fraction: 0.02,
            ..ContinuousConfig::default()
        };
        let reports = run_continuous(&region, &config);
        for r in &reports[1..] {
            assert!(r.root_started_from_plan(), "round {} root", r.round);
            assert!(r.warm.incumbent_seeded, "round {} incumbent", r.round);
            assert!(r.phase1.objective.is_finite());
            // Churn only perturbs the plan locally.
            assert!(
                r.moves <= region.server_count() / 10,
                "round {} replans too much: {} moves",
                r.round,
                r.moves
            );
        }
    }
}
