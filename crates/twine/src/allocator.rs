//! Real-time container placement within a reservation.
//!
//! The allocator owns container state for every reservation it manages
//! and keeps the broker's `running_containers` counters in sync, which is
//! how the Async Solver learns which servers are expensive to move.
//!
//! Every capacity state that fits the container is scored by the
//! allocator's [`PlacementPolicyKind`] and the lowest score wins (after
//! the rack anti-affinity tier, which the allocator applies itself), the
//! lowest server id among equals. Two policies ship:
//!
//! * [`PlacementPolicyKind::BestFit`] — the classic tightest-stacking
//!   rule: least residual cores after placement. Cheap and dense, but
//!   blind to the memory dimension, so mixed workloads strand memory on
//!   core-exhausted hosts (and vice versa).
//! * [`PlacementPolicyKind::FarbBalance`] — fragmentation-aware resource
//!   balance: scores the *normalized residual vector* after placement,
//!   weighting dimension balance most heavily so neither cores nor
//!   memory is left stranded behind an exhausted complement.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ras_broker::{ChangeFeedId, ReservationId, ResourceBroker};
use ras_milp::cast;
use ras_topology::{HardwareTypeId, RackId, Region, ServerId, ServerSet};

use crate::job::{ContainerId, ContainerSpec, JobId, JobSpec, JobState};

/// Why a job operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The job references a job id that does not exist.
    UnknownJob(JobId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::UnknownJob(id) => write!(f, "unknown job {id:?}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A candidate server's capacity state as presented to a placement
/// policy. The candidate is already known to fit the container.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Free cores before placing the container.
    pub free_cores: f64,
    /// Free memory (GiB) before placing the container.
    pub free_memory_gib: f64,
    /// Total hardware cores of the server.
    pub capacity_cores: f64,
    /// Total hardware memory (GiB) of the server.
    pub capacity_memory_gib: f64,
}

/// FARB's weight of the dimension-balance component.
const FARB_W_BALANCE: f64 = 2.0;

/// FARB's weight of the fullness component.
const FARB_W_FULLNESS: f64 = 1.0;

/// FARB's weight of the residual-L2 tiebreaker.
const FARB_W_RESIDUAL: f64 = 0.5;

/// The placement policy: scores feasible candidate servers for one
/// container placement, the lowest score winning. Rack anti-affinity
/// (when the job requests it) is a strictly higher-priority tier applied
/// by the allocator, so a policy only ranks servers within the
/// least-loaded-rack tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicyKind {
    /// Tightest stacking: least residual cores after placement (the
    /// historical behavior).
    #[default]
    BestFit,
    /// Fragmentation-aware resource balance (FARB).
    ///
    /// Scores the normalized post-placement residual `(cpu_res, mem_res)`
    /// with three weighted components: dimension *balance*
    /// (`|cpu_res − mem_res|`, weighted most heavily — an unbalanced
    /// residual is capacity one dimension will strand), *fullness*
    /// (`(cpu_res + mem_res) / 2`, prefer filling hosts), and the
    /// residual L2 norm as a tiebreaker.
    FarbBalance,
}

impl PlacementPolicyKind {
    /// Short policy name for reports and benches.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicyKind::BestFit => "best-fit",
            PlacementPolicyKind::FarbBalance => "farb",
        }
    }

    /// Score of placing `spec` on `candidate` (which is known to fit).
    /// Lower is better; finite for every fitting candidate.
    pub fn score(self, candidate: Candidate, spec: ContainerSpec) -> f64 {
        match self {
            PlacementPolicyKind::BestFit => candidate.free_cores - spec.cores,
            PlacementPolicyKind::FarbBalance => {
                let cpu_res =
                    (candidate.free_cores - spec.cores) / candidate.capacity_cores.max(1.0);
                let mem_res = (candidate.free_memory_gib - spec.memory_gib)
                    / candidate.capacity_memory_gib.max(1.0);
                let balance = (cpu_res - mem_res).abs();
                let fullness = (cpu_res + mem_res) / 2.0;
                let l2 = (cpu_res * cpu_res + mem_res * mem_res).sqrt();
                FARB_W_BALANCE * balance + FARB_W_FULLNESS * fullness + FARB_W_RESIDUAL * l2
            }
        }
    }
}

/// Fixed-point scale quantizing policy scores into the placement key.
/// Micro-units keep FARB's normalized scores (≈0–4) well separated while
/// leaving BestFit's core counts far from `i64` range.
const SCORE_SCALE: f64 = 1e6;

/// A placed container: its job (which holds its shape) and its server.
#[derive(Debug, Clone, Copy)]
struct Placement {
    job: JobId,
    server: ServerId,
}

/// A job: the allocator's one record of it.
#[derive(Debug)]
struct JobEntry {
    /// The spec as submitted; `replicas` follows [`TwineAllocator::scale`]
    /// and every [`TwineAllocator::stop`] of one of its containers.
    spec: JobSpec,
    state: JobState,
    /// Live containers, ascending: ids are minted in increasing order,
    /// appended, and kept through evacuation.
    containers: Vec<ContainerId>,
    /// Replicas currently placed per rack — the anti-affinity penalty of
    /// every server in that rack. Racks without replicas are absent.
    racks: HashMap<RackId, usize>,
}

impl JobEntry {
    /// Replicas wanted but not running.
    fn missing(&self) -> u32 {
        self.spec
            .replicas
            .saturating_sub(cast::idx32(self.containers.len()))
    }

    /// Drops a container from the live list (which is ascending).
    fn forget(&mut self, container: ContainerId) {
        if let Ok(at) = self.containers.binary_search(&container) {
            self.containers.remove(at);
        }
    }
}

/// Placement latency statistics (wall-clock, microseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_us: Vec<u64>,
}

impl LatencyStats {
    /// Records one sample.
    pub fn push(&mut self, us: u64) {
        self.samples_us.push(us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The `p`-th percentile in microseconds (nearest rank).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let rank = cast::rounded_usize(((p / 100.0) * sorted.len() as f64).ceil().max(1.0)) - 1;
        Some(sorted[rank.min(sorted.len() - 1)])
    }
}

/// The capacity state all servers of one bucket share. A
/// [`PlacementPolicyKind`] sees nothing else of a server (the [`Candidate`]
/// is built from exactly these three values), so one score stands for
/// the whole bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Bucket {
    hardware: HardwareTypeId,
    /// Free cores and memory as `f64::to_bits`: equal bits, equal score.
    free_cores: u64,
    free_memory: u64,
}

/// Per-server allocator state.
#[derive(Debug)]
struct Host {
    hardware: HardwareTypeId,
    rack: RackId,
    /// Free `(cores, memory_gib)`: hardware capacity minus `containers`.
    free: (f64, f64),
    /// Containers placed here, in arrival order.
    containers: Vec<ContainerId>,
    /// The reservation whose buckets list this server — its broker
    /// binding while it is up, `None` while it is down or unbound.
    listed: Option<ReservationId>,
}

impl Host {
    fn bucket(&self) -> Bucket {
        Bucket {
            hardware: self.hardware,
            free_cores: self.free.0.to_bits(),
            free_memory: self.free.1.to_bits(),
        }
    }
}

/// One reservation's placeable servers, grouped by capacity state: a
/// server moves between buckets in O(1) ([`ServerSet`] is a paged bitset
/// whose pages are allocated only where its members are, so a bucket of a
/// few servers stays small in any region).
type Buckets = BTreeMap<Bucket, ServerSet>;

/// The per-region Twine allocator and scheduler (manages many
/// reservations; each placement decision only looks at one).
///
/// It is the one record of every job: its spec, its live containers,
/// its replicas per rack and its [`JobState`]. A job that does not fully
/// place stays [`JobState::Pending`] and every
/// [`TwineAllocator::process`] retries it; one that loses containers in
/// an evacuation turns [`JobState::Degraded`] and is re-placed the same
/// way.
///
/// Placement answers from three indexes instead of scans: per server its
/// container list, per job its replicas per rack, and per reservation
/// its up members grouped into capacity-state buckets. Membership
/// and health reach the buckets through the broker's change feed; free
/// capacity moves a server between buckets as containers come and go.
#[derive(Debug, Default)]
pub struct TwineAllocator {
    /// Every job ever submitted, indexed by [`JobId::index`]: the next
    /// job's id is the table's length.
    jobs: Vec<JobEntry>,
    containers: HashMap<ContainerId, Placement>,
    next_container: u64,
    /// Indexed by [`ServerId::index`]; filled from the region on first use.
    hosts: Vec<Host>,
    /// Indexed by [`ReservationId::index`].
    buckets: Vec<Buckets>,
    /// The broker change feed that keeps `Host::listed` current.
    feed: Option<ChangeFeedId>,
    policy: PlacementPolicyKind,
    /// Work counter of the latest placement call: bucket representatives
    /// scored plus servers inspected. The indexes keep it proportional to
    /// the number of distinct capacity states and the job's replicas, not
    /// to reservation or region size.
    pub last_candidates_evaluated: usize,
    /// Wall-clock time of every placement attempt `submit`, `scale` and
    /// `process` make.
    pub latency: LatencyStats,
}

/// The first id that can follow `server` and a run of its rack-mates.
/// A rack's ids ascend (`Region::add_server` appends them in id order);
/// when they are consecutive, everything up to the last one is the same
/// rack, otherwise only `server` itself is known to be.
fn after_rack_run(region: &Region, server: ServerId, rack: RackId) -> Option<ServerId> {
    let mates = &region.rack(rack).servers;
    let last = match (mates.first(), mates.last()) {
        (Some(first), Some(last))
            if last.index().checked_sub(first.index()) == Some(mates.len() - 1) =>
        {
            *last
        }
        _ => server,
    };
    last.0.checked_add(1).map(ServerId)
}

impl TwineAllocator {
    /// Creates an empty allocator with the default
    /// [`PlacementPolicyKind::BestFit`] policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty allocator with the given placement policy.
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            policy: kind,
            ..Self::default()
        }
    }

    /// Gives every server of the region a [`Host`] at hardware capacity.
    fn ensure_hosts(&mut self, region: &Region) {
        let known = self.hosts.len();
        self.hosts
            .extend(region.servers().iter().skip(known).map(|server| {
                let hw = region.catalog.get(server.hardware);
                Host {
                    hardware: server.hardware,
                    rack: server.rack,
                    free: (hw.cores as f64, hw.memory_gib as f64),
                    containers: Vec::new(),
                    listed: None,
                }
            }));
    }

    /// Free capacity `(cores, memory_gib)` currently tracked for one
    /// server (hardware capacity if nothing was ever placed there).
    pub fn free_capacity_of(&mut self, region: &Region, server: ServerId) -> (f64, f64) {
        self.ensure_hosts(region);
        self.hosts[server.index()].free
    }

    /// The server a container currently runs on.
    pub fn server_of(&self, container: ContainerId) -> Option<ServerId> {
        self.containers.get(&container).map(|p| p.server)
    }

    /// The job a running container belongs to.
    pub fn job_of(&self, container: ContainerId) -> Option<JobId> {
        self.containers.get(&container).map(|p| p.job)
    }

    /// The distinct container shapes offered by the reservation's jobs —
    /// the grains for stranded accounting: free capacity on a member is
    /// only *stranded* when none of these shapes can consume it.
    pub fn container_shapes(&self, reservation: ReservationId) -> Vec<ContainerSpec> {
        let mut shapes: Vec<ContainerSpec> = Vec::new();
        for j in &self.jobs {
            if j.spec.reservation == reservation && !shapes.contains(&j.spec.container) {
                shapes.push(j.spec.container);
            }
        }
        shapes
    }

    /// Submits a job; its replicas are placed at once, and what does not
    /// fit is retried by every [`TwineAllocator::process`] until all run.
    ///
    /// Placement policy: filter the reservation's healthy members with
    /// room, then pick the least-loaded rack first (anti-affinity) and
    /// the best policy score otherwise.
    pub fn submit(&mut self, region: &Region, broker: &mut ResourceBroker, spec: JobSpec) -> JobId {
        let job = self.register(spec);
        self.try_place(region, broker, job);
        job
    }

    /// Like [`TwineAllocator::submit`], but untimed, and returns the ids
    /// that did place plus the shortfall: `(placed, unplaced)`. The
    /// shortfall stays pending like any other job's.
    pub fn submit_partial(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        spec: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        let job = self.register(spec);
        let unplaced = self.place_missing(region, broker, job);
        (self.jobs[job.index()].containers.clone(), unplaced)
    }

    fn register(&mut self, spec: JobSpec) -> JobId {
        let job = JobId(cast::idx32(self.jobs.len()));
        self.jobs.push(JobEntry {
            spec,
            state: JobState::Pending,
            containers: Vec::new(),
            racks: HashMap::new(),
        });
        job
    }

    /// Scales a job to a new replica count: surplus containers stop,
    /// newest first; missing ones are placed now and retried by
    /// [`TwineAllocator::process`].
    pub fn scale(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobId,
        replicas: u32,
    ) -> Result<(), PlacementError> {
        let entry = self
            .jobs
            .get_mut(job.index())
            .ok_or(PlacementError::UnknownJob(job))?;
        entry.spec.replicas = replicas;
        let keep = entry.containers.len().min(cast::idx(replicas));
        let surplus = entry.containers.split_off(keep);
        if entry.missing() > 0 {
            entry.state = JobState::Pending;
        }
        for c in surplus.into_iter().rev() {
            self.unplace(broker, c);
        }
        self.try_place(region, broker, job);
        Ok(())
    }

    /// Stops a job and all its containers.
    pub fn stop_job(&mut self, broker: &mut ResourceBroker, job: JobId) {
        let Some(entry) = self.jobs.get_mut(job.index()) else {
            return;
        };
        entry.state = JobState::Stopped;
        for c in std::mem::take(&mut entry.containers) {
            self.unplace(broker, c);
        }
    }

    /// Retries placement for every pending or degraded job, in job id
    /// order; call after the Mover materializes new capacity or failures
    /// were repaired.
    pub fn process(&mut self, region: &Region, broker: &mut ResourceBroker) {
        for i in 0..self.jobs.len() {
            if matches!(self.jobs[i].state, JobState::Pending | JobState::Degraded) {
                self.try_place(region, broker, JobId(cast::idx32(i)));
            }
        }
    }

    /// Places a live job's missing replicas as one timed attempt.
    fn try_place(&mut self, region: &Region, broker: &mut ResourceBroker, job: JobId) {
        let entry = &mut self.jobs[job.index()];
        if entry.state == JobState::Stopped {
            return;
        }
        if entry.missing() == 0 {
            entry.state = JobState::Running;
            return;
        }
        let start = Instant::now();
        self.place_missing(region, broker, job);
        // lint:allow(as-cast-audit): u128 micros overflow u64 only after ~584k years
        self.latency.push(start.elapsed().as_micros() as u64);
    }

    /// Places the job's missing replicas until one does not fit, sets its
    /// state and returns the shortfall.
    fn place_missing(&mut self, region: &Region, broker: &mut ResourceBroker, job: JobId) -> u32 {
        self.last_candidates_evaluated = 0;
        let mut missing = self.jobs[job.index()].missing();
        while missing > 0 {
            let id = ContainerId(self.next_container);
            if !self.place(region, broker, job, id, None) {
                break;
            }
            self.next_container += 1;
            self.jobs[job.index()].containers.push(id);
            missing -= 1;
        }
        self.jobs[job.index()].state = if missing == 0 {
            JobState::Running
        } else {
            JobState::Pending
        };
        missing
    }

    /// Current state of one job.
    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(job.index()).map(|e| e.state)
    }

    /// Replicas currently placed for one job.
    pub fn placed_replicas(&self, job: JobId) -> usize {
        self.containers_of(job).len()
    }

    /// The live containers of one job, ascending.
    pub fn containers_of(&self, job: JobId) -> &[ContainerId] {
        self.jobs
            .get(job.index())
            .map_or(&[], |e| e.containers.as_slice())
    }

    /// Number of jobs in each state: (pending, running, degraded, stopped).
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.jobs {
            match e.state {
                JobState::Pending => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Degraded => c.2 += 1,
                JobState::Stopped => c.3 += 1,
            }
        }
        c
    }

    /// Brings `Host::listed` and the buckets up to the broker's state:
    /// re-reads every server the change feed reports.
    fn sync(&mut self, region: &Region, broker: &mut ResourceBroker) {
        self.ensure_hosts(region);
        let feed = *self.feed.get_or_insert_with(|| broker.watch_changes());
        broker.take_changes(feed, |server, record| {
            // A server the region does not describe can hold no container:
            // it is skipped, never a reason to fail a placement.
            let Some(host) = self.hosts.get_mut(server.index()) else {
                return;
            };
            let listing = record.current.filter(|_| record.is_up());
            if host.listed != listing {
                let bucket = host.bucket();
                let previous = std::mem::replace(&mut host.listed, listing);
                self.unlist(previous, bucket, server);
                self.list(listing, bucket, server);
            }
        });
    }

    fn list(&mut self, reservation: Option<ReservationId>, bucket: Bucket, server: ServerId) {
        let Some(reservation) = reservation else {
            return;
        };
        if self.buckets.len() <= reservation.index() {
            self.buckets
                .resize_with(reservation.index() + 1, Buckets::new);
        }
        let is_new = self.buckets[reservation.index()]
            .entry(bucket)
            .or_default()
            .insert(server);
        debug_assert!(is_new, "{server} listed twice");
    }

    fn unlist(&mut self, reservation: Option<ReservationId>, bucket: Bucket, server: ServerId) {
        let Some(buckets) = reservation.and_then(|r| self.buckets.get_mut(r.index())) else {
            return;
        };
        let mut was_listed = false;
        if let Some(servers) = buckets.get_mut(&bucket) {
            was_listed = servers.remove(server);
            if servers.is_empty() {
                buckets.remove(&bucket);
            }
        }
        debug_assert!(was_listed, "{server} missing from its bucket");
    }

    /// Changes a server's free capacity, moving it between buckets.
    fn set_free(&mut self, server: ServerId, free: (f64, f64)) {
        let host = &mut self.hosts[server.index()];
        let listed = host.listed;
        let before = host.bucket();
        host.free = free;
        let after = host.bucket();
        if before != after {
            self.unlist(listed, before, server);
            self.list(listed, after, server);
        }
    }

    /// The server the member scan would pick: among the reservation's up
    /// members that fit `spec`, the minimum `(rack penalty, quantized
    /// score)` and, among equals, the lowest id.
    ///
    /// Every server of a bucket has the same score, so a bucket is scored
    /// once and then walked in id order, each step one
    /// [`ServerSet::next_from`], only as far as it can still hold the
    /// winner: up to its first server in a rack the job does not use
    /// yet (penalty 0 — nothing later in the bucket has a smaller key or,
    /// at that key, a smaller id), stepping over each rack the job already
    /// uses after its first server (the rest of the rack ties on the key
    /// with larger ids).
    ///
    /// Returns the choice and the work it took (representatives scored
    /// plus servers inspected).
    fn choose(
        &self,
        region: &Region,
        reservation: ReservationId,
        spec: ContainerSpec,
        job_racks: Option<&HashMap<RackId, usize>>,
        exclude: Option<ServerId>,
    ) -> (Option<ServerId>, usize) {
        let Some(buckets) = self.buckets.get(reservation.index()) else {
            return (None, 0);
        };
        let mut evaluated = 0;
        let mut best: Option<((usize, i64), ServerId)> = None;
        for (bucket, servers) in buckets {
            let free_cores = f64::from_bits(bucket.free_cores);
            let free_memory_gib = f64::from_bits(bucket.free_memory);
            if free_cores < spec.cores || free_memory_gib < spec.memory_gib {
                continue;
            }
            let hw = region.catalog.get(bucket.hardware);
            let candidate = Candidate {
                free_cores,
                free_memory_gib,
                capacity_cores: hw.cores as f64,
                capacity_memory_gib: hw.memory_gib as f64,
            };
            // Quantize the policy score so the placement key stays a
            // totally ordered integer even for NaN-free float scores.
            let fit = cast::rounded_i64(self.policy.score(candidate, spec) * SCORE_SCALE);
            evaluated += 1;
            let mut from = Some(ServerId(0));
            while let Some(server) = from.and_then(|id| servers.next_from(id)) {
                // From here on the bucket offers keys >= (0, fit) and ids
                // >= server only.
                if best.is_some_and(|b| b < ((0, fit), server)) {
                    break;
                }
                evaluated += 1;
                if exclude == Some(server) {
                    from = server.0.checked_add(1).map(ServerId);
                    continue;
                }
                let rack = self.hosts[server.index()].rack;
                let penalty = job_racks
                    .and_then(|racks| racks.get(&rack))
                    .copied()
                    .unwrap_or(0);
                let found = ((penalty, fit), server);
                if best.is_none_or(|b| found < b) {
                    best = Some(found);
                }
                if penalty == 0 {
                    break;
                }
                from = after_rack_run(region, server, rack);
            }
        }
        (best.map(|(_, server)| server), evaluated)
    }

    /// Places container `id` of `job` on the server [`Self::choose`]
    /// picks (never `exclude`): takes its capacity and rack slot and
    /// updates the broker's count. False when nothing fits.
    fn place(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobId,
        id: ContainerId,
        exclude: Option<ServerId>,
    ) -> bool {
        self.sync(region, broker);
        let entry = &self.jobs[job.index()];
        let spec = entry.spec.container;
        let job_racks = entry.spec.rack_anti_affinity.then_some(&entry.racks);
        let (chosen, evaluated) =
            self.choose(region, entry.spec.reservation, spec, job_racks, exclude);
        self.last_candidates_evaluated += evaluated;
        let Some(server) = chosen else {
            return false;
        };
        let (cores, mem) = self.hosts[server.index()].free;
        self.set_free(server, (cores - spec.cores, mem - spec.memory_gib));
        self.containers.insert(id, Placement { job, server });
        let host = &mut self.hosts[server.index()];
        host.containers.push(id);
        *self.jobs[job.index()].racks.entry(host.rack).or_default() += 1;
        let _ = broker.set_running_containers(server, cast::idx32(host.containers.len()));
        true
    }

    /// Returns a placement's capacity and rack slot. The caller has taken
    /// the container off its host's list.
    fn release(&mut self, p: Placement) {
        let spec = self.jobs[p.job.index()].spec.container;
        let host = &self.hosts[p.server.index()];
        let (rack, (cores, mem)) = (host.rack, host.free);
        self.set_free(p.server, (cores + spec.cores, mem + spec.memory_gib));
        let racks = &mut self.jobs[p.job.index()].racks;
        if let Some(count) = racks.get_mut(&rack) {
            *count -= 1;
            if *count == 0 {
                racks.remove(&rack);
            }
        }
    }

    /// Takes a container off its server and the broker's count; its
    /// job's list is the caller's to update.
    fn unplace(&mut self, broker: &mut ResourceBroker, container: ContainerId) -> Option<JobId> {
        let p = self.containers.remove(&container)?;
        let on_host = &mut self.hosts[p.server.index()].containers;
        on_host.retain(|c| *c != container);
        let count = cast::idx32(on_host.len());
        self.release(p);
        let _ = broker.set_running_containers(p.server, count);
        Some(p.job)
    }

    /// Stops one container and lowers its job's replica count, so
    /// [`TwineAllocator::process`] does not place it again.
    pub fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
        if let Some(job) = self.unplace(broker, container) {
            let entry = &mut self.jobs[job.index()];
            entry.forget(container);
            entry.spec.replicas = entry.spec.replicas.saturating_sub(1);
            if entry.missing() == 0 {
                entry.state = JobState::Running;
            }
        }
    }

    /// Capacity `(cores, memory_gib)` consumed by the containers
    /// currently on one server — the ground truth the free capacity must
    /// mirror (asserted by the allocator property tests).
    pub fn used_on(&self, server: ServerId) -> (f64, f64) {
        self.hosts
            .get(server.index())
            .into_iter()
            .flat_map(|host| &host.containers)
            .filter_map(|c| self.containers.get(c))
            .map(|p| self.jobs[p.job.index()].spec.container)
            .fold((0.0, 0.0), |(c, m), spec| {
                (c + spec.cores, m + spec.memory_gib)
            })
    }

    /// Containers currently on one server.
    pub fn containers_on(&self, server: ServerId) -> usize {
        self.hosts
            .get(server.index())
            .map_or(0, |host| host.containers.len())
    }

    /// Total running containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Evacuates every container from a failed or preempted server and
    /// re-places each within its reservation (onto embedded buffer
    /// capacity after an MSB failure) under its own [`ContainerId`], in
    /// ascending id order so the outcome is the same in every process.
    /// A container that finds no room is lost: its job keeps its replica
    /// count and turns [`JobState::Degraded`], so the next
    /// [`TwineAllocator::process`] re-places it. Returns `(moved, lost)`.
    ///
    /// The drained server is excluded from the candidate set even when it
    /// is still up (a preempted server would otherwise be the tightest
    /// fit for its own evacuees and they would bounce straight back).
    pub fn evacuate(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ServerId,
    ) -> (usize, usize) {
        let mut victims = self
            .hosts
            .get_mut(server.index())
            .map(|host| std::mem::take(&mut host.containers))
            .unwrap_or_default();
        victims.sort_unstable();
        let mut moved = 0;
        let mut lost = 0;
        // Victims leave one at a time: those still waiting keep counting
        // towards their jobs' rack penalties, as they still run there.
        for id in victims {
            let Some(&p) = self.containers.get(&id) else {
                continue;
            };
            self.release(p);
            if self.place(region, broker, p.job, id, Some(server)) {
                moved += 1;
            } else {
                self.containers.remove(&id);
                let entry = &mut self.jobs[p.job.index()];
                entry.forget(id);
                if entry.state == JobState::Running {
                    entry.state = JobState::Degraded;
                }
                lost += 1;
            }
        }
        // Re-sync the drained server's broker counter: every victim left,
        // and with the exclusion none can have landed back on it.
        let _ = broker.set_running_containers(server, cast::idx32(self.containers_on(server)));
        (moved, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use ras_broker::SimTime;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker, ReservationId) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r = broker.register_reservation("web");
        // Bind the first 30 servers.
        for i in 0..30 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        (region, broker, r)
    }

    fn job(r: ReservationId, replicas: u32, anti: bool) -> JobSpec {
        JobSpec {
            name: "j".into(),
            reservation: r,
            container: ContainerSpec::small(),
            replicas,
            rack_anti_affinity: anti,
        }
    }

    fn running_total(broker: &ResourceBroker) -> usize {
        broker
            .iter()
            .map(|(_, rec)| rec.running_containers as usize)
            .sum()
    }

    #[test]
    fn placement_stays_inside_the_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 10, false));
        assert_eq!(alloc.placed_replicas(id), 10);
        for (s, rec) in broker.iter() {
            if rec.running_containers > 0 {
                assert_eq!(rec.current, Some(r), "container outside reservation on {s}");
            }
        }
    }

    #[test]
    fn stacking_coexists_on_one_server() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 4, false));
        // Best-fit stacking should reuse servers rather than spray.
        let busy = broker
            .iter()
            .filter(|(_, rec)| rec.running_containers > 0)
            .count();
        assert!(busy <= 2, "best-fit should stack, used {busy} servers");
    }

    #[test]
    fn anti_affinity_spreads_across_racks() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 3, true));
        let mut racks = std::collections::HashSet::new();
        for (s, rec) in broker.iter() {
            if rec.running_containers > 0 {
                racks.insert(region.server(s).rack);
            }
        }
        assert_eq!(racks.len(), 3, "3 replicas across 3 racks");
    }

    #[test]
    fn capacity_exhaustion_reports_shortfall() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Each server fits a bounded number of small containers; demand far more.
        let (placed, unplaced) = alloc.submit_partial(&region, &mut broker, job(r, 10_000, false));
        assert!(unplaced > 0);
        assert_eq!(placed.len() + unplaced as usize, 10_000);
        assert_eq!(placed.len(), alloc.container_count());
        assert_eq!(alloc.state(JobId(0)), Some(JobState::Pending));
    }

    #[test]
    fn candidates_scale_with_reservation_not_region() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 1, false));
        assert!(
            alloc.last_candidates_evaluated <= 30,
            "only reservation members may be scanned, got {}",
            alloc.last_candidates_evaluated
        );
    }

    #[test]
    fn unresolvable_member_is_skipped_not_fatal() {
        let (region, _, _) = setup();
        // The broker tracks one server the region does not describe, and
        // it is the reservation's highest-id member.
        let stray = ServerId::from_index(region.server_count());
        let mut broker = ResourceBroker::new(region.server_count() + 1);
        let r = broker.register_reservation("web");
        for s in [ServerId(0), ServerId(1), stray] {
            broker.bind_current(s, Some(r)).unwrap();
        }
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 6, false));
        assert_eq!(
            alloc.state(id),
            Some(JobState::Running),
            "the two known members hold the job"
        );
        assert_eq!(broker.record(stray).unwrap().running_containers, 0);
    }

    #[test]
    fn stop_frees_capacity_and_lowers_the_replica_count() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let (placed, _) = alloc.submit_partial(&region, &mut broker, job(r, 2, false));
        alloc.stop(&mut broker, placed[0]);
        assert_eq!(alloc.container_count(), 1);
        // Counter synced to broker.
        assert_eq!(running_total(&broker), alloc.container_count());
        // The stopped replica is not the job's any more.
        alloc.process(&region, &mut broker);
        assert_eq!(alloc.containers_of(JobId(0)), &placed[1..]);
        assert_eq!(alloc.state(JobId(0)), Some(JobState::Running));
    }

    #[test]
    fn evacuation_moves_containers_within_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let (placed, _) = alloc.submit_partial(&region, &mut broker, job(r, 6, true));
        let victim = broker
            .iter()
            .find(|(_, rec)| rec.running_containers > 0)
            .map(|(s, _)| s)
            .unwrap();
        // The health-check service marks the server down before Twine
        // evacuates; otherwise containers could land right back on it.
        broker
            .mark_down(ras_broker::UnavailabilityEvent {
                server: victim,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(victim),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let on_victim = alloc.containers_on(victim);
        let (moved, lost) = alloc.evacuate(&region, &mut broker, victim);
        assert_eq!(moved, on_victim);
        assert_eq!(lost, 0);
        assert_eq!(alloc.containers_on(victim), 0);
        // Every container kept its id.
        assert_eq!(alloc.containers_of(JobId(0)), placed.as_slice());
        assert!(placed.iter().all(|c| alloc.server_of(*c) != Some(victim)));
    }

    #[test]
    fn evacuating_an_up_server_never_bounces_back() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Two containers stacked on one server make that server the
        // tightest best-fit for its own evacuees.
        let (placed, _) = alloc.submit_partial(&region, &mut broker, job(r, 2, false));
        let victim = alloc.server_of(placed[0]).unwrap();
        assert_eq!(alloc.containers_on(victim), 2, "both stack on one server");
        // Preemption drains the server while it is still up.
        let (moved, lost) = alloc.evacuate(&region, &mut broker, victim);
        assert_eq!((moved, lost), (2, 0));
        assert_eq!(
            alloc.containers_on(victim),
            0,
            "evacuees must not land back on the drained server"
        );
        assert_eq!(
            broker.record(victim).unwrap().running_containers,
            0,
            "broker count re-synced after drain"
        );
    }

    #[test]
    fn farb_balances_residual_dimensions() {
        let (region, mut broker, r) = setup();
        let mut best = TwineAllocator::with_policy(PlacementPolicyKind::BestFit);
        let mut farb = TwineAllocator::with_policy(PlacementPolicyKind::FarbBalance);
        assert_eq!(PlacementPolicyKind::BestFit.name(), "best-fit");
        assert_eq!(PlacementPolicyKind::FarbBalance.name(), "farb");
        // A cores-heavy then a memory-heavy job: best-fit stacks by cores
        // only, FARB keeps the residual vector balanced.
        for alloc in [&mut best, &mut farb] {
            let mut cores_heavy = job(r, 6, false);
            cores_heavy.container = ContainerSpec::cores_heavy();
            let mut mem_heavy = job(r, 6, false);
            mem_heavy.container = ContainerSpec::memory_heavy();
            let _ = alloc.submit_partial(&region, &mut broker, cores_heavy);
            let _ = alloc.submit_partial(&region, &mut broker, mem_heavy);
            // Reset broker container counters between allocators.
            for i in 0..30 {
                let _ = broker.set_running_containers(ServerId(i), 0);
            }
        }
        // Both place everything; FARB's per-server residuals are at least
        // as balanced (smaller normalized |cpu-mem| spread) on busy hosts.
        let spread = |alloc: &mut TwineAllocator| -> f64 {
            let mut total = 0.0;
            for i in 0..30 {
                let s = ServerId(i);
                let hw = region.catalog.get(region.server(s).hardware);
                let (c, m) = alloc.free_capacity_of(&region, s);
                if c < hw.cores as f64 || m < hw.memory_gib as f64 {
                    total += (c / hw.cores as f64 - m / hw.memory_gib as f64).abs();
                }
            }
            total
        };
        let best_spread = spread(&mut best);
        let farb_spread = spread(&mut farb);
        assert!(
            farb_spread <= best_spread + 1e-9,
            "farb residual imbalance {farb_spread} must not exceed best-fit {best_spread}"
        );
    }

    #[test]
    fn scale_up_keeps_one_job_identity() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 1, true));
        alloc.scale(&region, &mut broker, id, 2).unwrap();
        assert_eq!(alloc.jobs.len(), 1, "scaling must not add a job");
        // Both replicas belong to the same job and anti-affinity saw the
        // first one: they land on different racks.
        let racks: std::collections::HashSet<u32> = alloc
            .containers_of(id)
            .iter()
            .filter_map(|c| alloc.server_of(*c))
            .map(|s| region.server(s).rack.0)
            .collect();
        assert_eq!(racks.len(), 2, "anti-affinity must span the scale-up");
    }

    #[test]
    fn submit_runs_and_tracks_latency() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 10, false));
        assert_eq!(alloc.state(id), Some(JobState::Running));
        assert_eq!(alloc.placed_replicas(id), 10);
        assert!(!alloc.latency.is_empty());
        assert!(alloc.latency.percentile(50.0).is_some());
        // An untimed submission adds no sample.
        let _ = alloc.submit_partial(&region, &mut broker, job(r, 1, false));
        assert_eq!(alloc.latency.len(), 1);
    }

    #[test]
    fn scale_up_and_down() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 4, false));
        alloc.scale(&region, &mut broker, id, 8).unwrap();
        assert_eq!(alloc.placed_replicas(id), 8);
        alloc.scale(&region, &mut broker, id, 2).unwrap();
        assert_eq!(alloc.placed_replicas(id), 2);
        assert_eq!(alloc.container_count(), 2);
        assert_eq!(
            alloc.scale(&region, &mut broker, JobId(9), 1),
            Err(PlacementError::UnknownJob(JobId(9)))
        );
    }

    #[test]
    fn pending_job_recovers_when_capacity_arrives() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Demand more than 30 servers can hold.
        let id = alloc.submit(&region, &mut broker, job(r, 500, false));
        assert_eq!(alloc.state(id), Some(JobState::Pending));
        // The reservation grows (mover materializes more capacity)...
        for i in 30..200 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        alloc.process(&region, &mut broker);
        assert_eq!(alloc.state(id), Some(JobState::Running));
        assert_eq!(alloc.placed_replicas(id), 500);
    }

    #[test]
    fn a_stopped_container_is_not_placed_again() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 500, false));
        assert_eq!(alloc.state(id), Some(JobState::Pending));
        let first = alloc.containers_of(id)[0];
        alloc.stop(&mut broker, first);
        for i in 30..200 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        alloc.process(&region, &mut broker);
        assert_eq!(alloc.state(id), Some(JobState::Running));
        assert_eq!(alloc.placed_replicas(id), 499);
        assert_eq!(alloc.container_count(), 499);
    }

    #[test]
    fn stop_job_releases_everything() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = alloc.submit(&region, &mut broker, job(r, 5, false));
        alloc.stop_job(&mut broker, id);
        assert_eq!(alloc.state(id), Some(JobState::Stopped));
        assert_eq!(alloc.container_count(), 0);
        assert_eq!(running_total(&broker), 0);
        // Stopped jobs stay stopped through process().
        alloc.process(&region, &mut broker);
        assert_eq!(alloc.placed_replicas(id), 0);
    }

    #[test]
    fn state_counts_aggregate() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let a = alloc.submit(&region, &mut broker, job(r, 2, false));
        let _b = alloc.submit(&region, &mut broker, job(r, 2, false));
        alloc.stop_job(&mut broker, a);
        assert_eq!(alloc.state_counts(), (0, 1, 0, 1));
    }
}
