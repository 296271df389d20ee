//! Drives the whole allocation loop for one workload: broker snapshot →
//! `AsyncSolver::solve` → `apply` → `OnlineMover` → Twine, with the
//! post-round checker after every round.

use std::collections::VecDeque;
use std::time::Instant;

use ras_broker::{
    BrokerSnapshot, ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind,
};
use ras_core::{
    evaluate_targets, AsyncSolver, AuditMode, ReservationKind, ReservationSpec, SolveOutput,
    SolverParams,
};
use ras_mover::{MoverConfig, OnlineMover};
use ras_topology::{Region, ScopeId, ServerId};
use ras_twine::{ContainerId, ContainerSpec, JobSpec, TwineAllocator};

use crate::check::{self, Violation};
use crate::gen::{self, base_load_replicas, Inputs, JobOp, RoundOps, Stream, REPLICAS};
use crate::layers::{self, LayerProbe};
use crate::trace::Trace;
use crate::workloads::{SessionMode, Workload};

/// Per-phase wall-clock limit. Far above any round, so solves end by gap
/// or stall and their work counters repeat exactly; a phase that reaches
/// it anyway is a failed round.
pub const PHASE_TIME_LIMIT_S: f64 = 300.0;

/// Burst jobs kept running before the oldest is stopped, so the container
/// population (and the allocator's scan cost) stays level.
const RUNNING_JOBS: usize = 256;

/// Solver settings of every workload: the program's defaults, audited,
/// with the phase limit out of the way.
fn solver_params(w: &Workload) -> SolverParams {
    SolverParams {
        audit: AuditMode::On,
        phase_time_limit: PHASE_TIME_LIMIT_S,
        shards: w.shards,
        ..SolverParams::default()
    }
}

/// The system under test, as one workload run holds it.
pub struct System {
    pub region: Region,
    pub specs: Vec<ReservationSpec>,
    pub params: SolverParams,
    pub broker: ResourceBroker,
    pub solver: AsyncSolver,
    pub mover: OnlineMover,
    pub twine: TwineAllocator,
    /// Containers of the running burst jobs, oldest job first.
    jobs: VecDeque<Vec<ContainerId>>,
    /// Reservations jobs run in (checker input).
    pub hosts_jobs: Vec<bool>,
    hour: u64,
}

/// What one round did, as seen from outside.
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    pub round_s: f64,
    pub snapshot_s: f64,
    pub solve_s: f64,
    pub apply_s: f64,
    pub mover_s: f64,
    pub moves_executed: usize,
    pub preemptions: usize,
    pub plan_cost: f64,
    pub shortfall_rru: f64,
    pub requested_rru: f64,
    /// `None` when the solve failed.
    pub output: Option<SolveOutput>,
    pub error: Option<String>,
    pub violations: Vec<Violation>,
    /// Failed servers that held a guaranteed reservation, how many of
    /// them the mover replaced, and how long `handle_failures` took.
    pub replace_wanted: usize,
    pub replace_served: usize,
    pub replace_s: f64,
    pub evac_moved: usize,
    pub evac_lost: usize,
    pub evac_s: f64,
    /// The snapshot the solver saw, kept only for the layer probe.
    pub snapshot: Option<BrokerSnapshot>,
}

impl RoundRecord {
    pub fn failed(&self) -> bool {
        self.error.is_some() || !self.violations.is_empty()
    }
}

/// Placement samples of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Placements {
    /// Microseconds per replica placed, one sample per submit.
    pub place_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub candidates_per_place: Vec<f64>,
    pub stop_us: Vec<f64>,
    pub replicas_wanted: usize,
    pub replicas_unplaced: usize,
}

fn container_spec(shape: u8) -> ContainerSpec {
    match shape {
        0 => ContainerSpec::small(),
        1 => ContainerSpec::cores_heavy(),
        _ => ContainerSpec::memory_heavy(),
    }
}

impl System {
    /// Builds the system and runs round 0: the cold solve from an empty
    /// broker, applied and materialised, then the base container load.
    /// Everything in here is `setup_s`.
    fn set_up(
        w: &Workload,
        region: Region,
        specs: Vec<ReservationSpec>,
        hosts_jobs: Vec<bool>,
        placements: &mut Placements,
    ) -> Result<(Self, f64), String> {
        let params = solver_params(w);
        let mut broker = ResourceBroker::new(region.server_count());
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        let mover = OnlineMover::new(&mut broker, MoverConfig::default());
        let mut system = Self {
            hosts_jobs,
            region,
            specs,
            solver: AsyncSolver::new(params.clone()),
            params,
            broker,
            mover,
            twine: TwineAllocator::new(),
            jobs: VecDeque::new(),
            hour: 0,
        };
        let cold = Instant::now();
        let snapshot = system.broker.snapshot(SimTime::ZERO);
        let output = system
            .solver
            .solve(&system.region, &system.specs, &snapshot)
            .map_err(|e| format!("set-up solve failed: {e}"))?;
        let round0_cold_s = cold.elapsed().as_secs_f64();
        system
            .solver
            .apply(&output, &mut system.broker)
            .map_err(|e| format!("set-up apply failed: {e}"))?;
        system
            .mover
            .execute_targets(&mut system.broker, SimTime::ZERO, |_, _| {});
        system.place_base_load(placements);
        Ok((system, round0_cold_s))
    }

    /// Applies a round's input operations, then lets the mover and Twine
    /// react to the failures (both timed on their own, outside `round_s`).
    /// Servers go down for `kind`; the mover replaces only unplanned ones.
    fn apply_ops(
        &mut self,
        ops: &RoundOps,
        kind: UnavailabilityKind,
        round: usize,
        trace: &mut Trace,
        record: &mut RoundRecord,
    ) {
        self.hour += 1;
        let now = SimTime::from_hours(self.hour);
        for (ri, capacity) in &ops.resizes {
            self.specs[*ri].capacity = *capacity;
        }
        for s in &ops.recover {
            let _ = self.broker.mark_up(ServerId::from_index(*s), now);
        }
        for s in &ops.fail {
            let server = ServerId::from_index(*s);
            let guaranteed = self
                .broker
                .record(server)
                .ok()
                .and_then(|r| r.current)
                .and_then(|r| self.specs.get(r.index()))
                .is_some_and(|spec| spec.kind == ReservationKind::Guaranteed);
            record.replace_wanted += usize::from(guaranteed && kind.is_unplanned());
            let _ = self.broker.mark_down(UnavailabilityEvent {
                server,
                kind,
                scope: ScopeId::Server(server),
                start: now,
                expected_end: Some(now.plus_hours(1)),
            });
        }
        let start = Instant::now();
        let span = trace.open("mover.handle_failures", None, round);
        let replaced = self
            .mover
            .handle_failures(&self.region, &self.specs, &mut self.broker, now);
        trace.close(span);
        record.replace_s = start.elapsed().as_secs_f64();
        record.replace_served = replaced.len();

        let start = Instant::now();
        let span = trace.open("twine.evacuate", None, round);
        for s in &ops.fail {
            let server = ServerId::from_index(*s);
            let running = self
                .broker
                .record(server)
                .map_or(0, |r| r.running_containers);
            if running > 0 {
                let (moved, lost) = self.twine.evacuate(&self.region, &mut self.broker, server);
                record.evac_moved += moved;
                record.evac_lost += lost;
            }
        }
        trace.close(span);
        record.evac_s = start.elapsed().as_secs_f64();
    }

    /// One timed round: snapshot → solve → apply → mover, then the
    /// checker from outside.
    pub fn round(
        &mut self,
        w: &Workload,
        ops: &RoundOps,
        round: usize,
        trace: &mut Trace,
        keep_snapshot: bool,
    ) -> RoundRecord {
        let mut record = RoundRecord::default();
        let kind = UnavailabilityKind::UnplannedHardware;
        self.apply_ops(ops, kind, round, trace, &mut record);
        if w.session == SessionMode::Cold {
            self.solver = AsyncSolver::new(self.params.clone());
        }
        let now = SimTime::from_hours(self.hour);

        let round_span = trace.open("round", None, round);
        let start = Instant::now();
        let span = trace.open("broker.snapshot", Some(round_span), round);
        let snapshot = self.broker.snapshot(now);
        trace.close(span);
        record.snapshot_s = start.elapsed().as_secs_f64();

        let t = Instant::now();
        let solve_span = trace.open("solver.solve", Some(round_span), round);
        let solved = self.solver.solve(&self.region, &self.specs, &snapshot);
        trace.close(solve_span);
        record.solve_s = t.elapsed().as_secs_f64();

        match solved {
            Ok(output) => {
                let t = Instant::now();
                let span = trace.open("broker.apply", Some(round_span), round);
                let applied = self.solver.apply(&output, &mut self.broker);
                trace.close(span);
                record.apply_s = t.elapsed().as_secs_f64();
                if let Err(e) = applied {
                    record.error = Some(format!("apply: {e}"));
                }

                let t = Instant::now();
                let span = trace.open("mover.execute", Some(round_span), round);
                let (region, twine) = (&self.region, &mut self.twine);
                let (mut preemptions, mut moved, mut lost) = (0, 0, 0);
                record.moves_executed =
                    self.mover.execute_targets(&mut self.broker, now, |s, b| {
                        preemptions += 1;
                        let (m, l) = twine.evacuate(region, b, s);
                        moved += m;
                        lost += l;
                    });
                trace.close(span);
                record.mover_s = t.elapsed().as_secs_f64();
                record.preemptions = preemptions;
                record.evac_moved += moved;
                record.evac_lost += lost;
                record.round_s = start.elapsed().as_secs_f64();
                trace.close(round_span);
                trace.reported(solve_span, round, &layers::reported_children(&output));

                let score = evaluate_targets(
                    &self.region,
                    &self.specs,
                    &snapshot,
                    &self.params,
                    &output.targets,
                );
                record.plan_cost = score.objective;
                record.shortfall_rru = score.capacity_shortfall.iter().sum();
                record.requested_rru = self
                    .specs
                    .iter()
                    .filter(|s| s.kind != ReservationKind::Elastic)
                    .map(|s| s.capacity)
                    .sum();
                record.violations = check::after_round(w, self, &output, &record);
                record.output = Some(output);
                record.snapshot = keep_snapshot.then_some(snapshot);
            }
            Err(e) => {
                record.round_s = start.elapsed().as_secs_f64();
                trace.close(round_span);
                record.error = Some(format!("solve: {e}"));
            }
        }
        record
    }

    /// One job of small containers per job-hosting reservation (see
    /// [`base_load_replicas`]). These run until the process ends.
    fn place_base_load(&mut self, placements: &mut Placements) {
        for ri in 0..self.specs.len() {
            if !self.hosts_jobs[ri] {
                continue;
            }
            let replicas = base_load_replicas(self.specs[ri].capacity);
            let spec = JobSpec {
                name: format!("base-{}", self.specs[ri].name),
                reservation: ReservationId::from_index(ri),
                container: ContainerSpec::small(),
                replicas,
                rack_anti_affinity: true,
            };
            let (_, unplaced) = self
                .twine
                .submit_partial(&self.region, &mut self.broker, spec);
            placements.replicas_wanted += replicas as usize;
            placements.replicas_unplaced += unplaced as usize;
        }
    }

    /// Stops the oldest burst jobs until at most `keep` run.
    fn stop_jobs(&mut self, keep: usize, placements: &mut Placements) {
        while self.jobs.len() > keep {
            for c in self.jobs.pop_front().unwrap_or_default() {
                let start = Instant::now();
                self.twine.stop(&mut self.broker, c);
                placements.stop_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    /// Submits one episode of the burst, one job at a time (closed loop,
    /// one client), stopping the oldest burst job once more than
    /// [`RUNNING_JOBS`] run.
    fn submit_jobs(&mut self, jobs: &[JobOp], placements: &mut Placements) {
        for (i, job) in jobs.iter().enumerate() {
            let reservation = ReservationId::from_index(job.spec);
            let spec = JobSpec {
                name: format!("job{}-{i}", self.hour),
                reservation,
                container: container_spec(job.shape),
                replicas: REPLICAS,
                rack_anti_affinity: true,
            };
            let start = Instant::now();
            let (placed, unplaced) =
                self.twine
                    .submit_partial(&self.region, &mut self.broker, spec);
            let us = start.elapsed().as_secs_f64() * 1e6;
            placements.replicas_wanted += REPLICAS as usize;
            placements.replicas_unplaced += unplaced as usize;
            placements.submit_us.push(us);
            if !placed.is_empty() {
                placements.place_us.push(us / placed.len() as f64);
                placements
                    .candidates_per_place
                    .push(self.twine.last_candidates_evaluated as f64 / placed.len() as f64);
            }
            self.jobs.push_back(placed);
            self.stop_jobs(RUNNING_JOBS, placements);
        }
    }
}

/// Everything one workload run measured.
pub struct RunResult {
    pub setup_samples_s: Vec<f64>,
    pub round0_cold_s: f64,
    pub rounds: Vec<RoundRecord>,
    /// The maintenance drill after the burst: only its evacuation fields
    /// are filled, plus a stray-container check.
    pub drill: RoundRecord,
    pub placements: Placements,
    pub probe: Option<LayerProbe>,
    pub trace: Trace,
}

/// Most set-ups a run makes (the median of their times is `setup_s`).
pub const SETUPS: usize = 9;

/// One set-up from nothing: inputs generated, system built, round 0
/// solved and materialised, base load placed.
struct SetUp {
    stream: Stream,
    system: System,
    placements: Placements,
    round0_cold_s: f64,
    seconds: f64,
}

fn set_up(w: &Workload, rounds: usize, seed: u64) -> Result<SetUp, String> {
    let start = Instant::now();
    let Inputs {
        region,
        specs,
        hosts_jobs,
        stream,
        ..
    } = gen::generate(&w.shape, rounds, seed);
    let mut placements = Placements::default();
    let (system, round0_cold_s) = System::set_up(w, region, specs, hosts_jobs, &mut placements)?;
    Ok(SetUp {
        stream,
        system,
        placements,
        round0_cold_s,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs one workload: the set-up, then the timed rounds with the job
/// burst between them, then the failure drill.
pub fn run(w: &Workload, seed: u64, rounds: usize, traced: bool) -> Result<RunResult, String> {
    let SetUp {
        stream,
        mut system,
        mut placements,
        round0_cold_s,
        seconds,
    } = set_up(w, rounds, seed)?;
    let mut setup_samples_s = vec![seconds];

    // The burst runs in episodes: one before every round and one after the
    // last, so that its samples span the whole run. Interference on a
    // shared machine comes and goes over seconds, and one contiguous
    // burst moved its percentiles by 25 % between identical runs. Every
    // episode but the last stops its containers again, which puts the
    // allocator and the broker back exactly (container sizes are whole
    // numbers): no episode reaches a later solve's inputs.
    // The other set-up samples are spread over the run for the same
    // reason: each is a whole set-up of a second system, dropped at once,
    // before one of up to `SETUPS - 1` evenly spaced rounds.
    let episode = stream.burst.len().div_ceil(stream.rounds.len() + 1).max(1);
    let mut episodes = stream.burst.chunks(episode);
    let mut trace = Trace::new(traced);
    let mut probe = None;
    let mut records = Vec::with_capacity(stream.rounds.len());
    for (i, ops) in stream.rounds.iter().enumerate() {
        let round = i + 1;
        if (i * (SETUPS - 1)) % stream.rounds.len() < SETUPS - 1 {
            let span = trace.open("setup", None, round);
            setup_samples_s.push(set_up(w, rounds, seed)?.seconds);
            trace.close(span);
        }
        let span = trace.open("twine.submit", None, round);
        system.submit_jobs(episodes.next().unwrap_or_default(), &mut placements);
        system.stop_jobs(0, &mut placements);
        trace.close(span);
        // The probe replays layer calls on the first round's own inputs.
        let keep_snapshot = traced && probe.is_none();
        let mut record = system.round(w, ops, round, &mut trace, keep_snapshot);
        if let (Some(snapshot), Some(output)) = (record.snapshot.take(), record.output.as_ref()) {
            probe = Some(layers::probe(&system, &snapshot, output));
        }
        records.push(record);
    }
    let after = stream.rounds.len() + 1;
    let span = trace.open("twine.submit", None, after);
    for jobs in episodes {
        system.submit_jobs(jobs, &mut placements);
    }
    trace.close(span);
    let mut drill = RoundRecord::default();
    let ops = RoundOps {
        fail: stream.drill.clone(),
        ..RoundOps::default()
    };
    // A maintenance drain: Twine must move the containers off, but the
    // mover owes no replacement servers.
    let kind = UnavailabilityKind::PlannedMaintenance;
    system.apply_ops(&ops, kind, after, &mut trace, &mut drill);
    if !check::containers_in_place(&system) {
        drill.violations.push(Violation::StrayContainer);
    }

    Ok(RunResult {
        setup_samples_s,
        round0_cold_s,
        rounds: records,
        drill,
        placements,
        probe,
        trace,
    })
}
