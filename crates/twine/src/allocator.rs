//! Real-time container placement within a reservation.
//!
//! The allocator owns container state for every reservation it manages
//! and keeps the broker's `running_containers` counters in sync, which is
//! how the Async Solver learns which servers are expensive to move.
//!
//! Placement is policy-pluggable: every capacity state that fits the
//! container is scored by a [`PlacementPolicy`] and the lowest score wins
//! (after the rack anti-affinity tier, which the allocator applies
//! itself), the lowest server id among equals. Two policies ship:
//!
//! * [`BestFit`] — the classic tightest-stacking rule: least residual
//!   cores after placement. Cheap and dense, but blind to the memory
//!   dimension, so mixed workloads strand memory on core-exhausted hosts
//!   (and vice versa).
//! * [`FarbBalance`] — fragmentation-aware resource balance: scores the
//!   *normalized residual vector* after placement, weighting dimension
//!   balance most heavily so neither cores nor memory is left stranded
//!   behind an exhausted complement.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use ras_broker::{ChangeFeedId, ReservationId, ResourceBroker};
use ras_milp::cast;
use ras_topology::{HardwareTypeId, RackId, Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::job::{ContainerId, ContainerSpec, JobId, JobSpec};

/// Why a placement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The reservation has no server with enough free capacity.
    NoCapacity {
        /// The reservation that was full.
        reservation: ReservationId,
        /// Replicas that could not be placed.
        unplaced: u32,
    },
    /// The job references a job id that does not exist.
    UnknownJob(JobId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCapacity {
                reservation,
                unplaced,
            } => write!(f, "{reservation} out of capacity ({unplaced} unplaced)"),
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

/// Scores feasible candidate servers for one container placement; the
/// lowest score wins. Rack anti-affinity (when the job requests it) is a
/// strictly higher-priority tier applied by the allocator, so a policy
/// only ranks servers within the least-loaded-rack tier.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Short policy name for reports and benches.
    fn name(&self) -> &'static str;

    /// Score of placing `spec` on `candidate` (which is known to fit).
    /// Lower is better. Scores must be finite.
    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64;
}

/// Tightest stacking: least residual cores after placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64 {
        candidate.free_cores - spec.cores
    }
}

/// Fragmentation-aware resource balance (FARB).
///
/// Scores the normalized post-placement residual `(cpu_res, mem_res)`
/// with three weighted components: dimension *balance*
/// (`|cpu_res − mem_res|`, weighted most heavily — an unbalanced
/// residual is capacity one dimension will strand), *fullness*
/// (`(cpu_res + mem_res) / 2`, prefer filling hosts), and the residual
/// L2 norm as a tiebreaker.
#[derive(Debug, Clone, Copy)]
pub struct FarbBalance {
    /// Weight of the dimension-balance component.
    pub w_balance: f64,
    /// Weight of the fullness component.
    pub w_fullness: f64,
    /// Weight of the residual-L2 tiebreaker.
    pub w_residual: f64,
}

impl Default for FarbBalance {
    fn default() -> Self {
        Self {
            w_balance: 2.0,
            w_fullness: 1.0,
            w_residual: 0.5,
        }
    }
}

impl PlacementPolicy for FarbBalance {
    fn name(&self) -> &'static str {
        "farb"
    }

    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64 {
        let cpu_res = (candidate.free_cores - spec.cores) / candidate.capacity_cores.max(1.0);
        let mem_res =
            (candidate.free_memory_gib - spec.memory_gib) / candidate.capacity_memory_gib.max(1.0);
        let balance = (cpu_res - mem_res).abs();
        let fullness = (cpu_res + mem_res) / 2.0;
        let l2 = (cpu_res * cpu_res + mem_res * mem_res).sqrt();
        self.w_balance * balance + self.w_fullness * fullness + self.w_residual * l2
    }
}

/// Constructible policy selector for configs that must be `Clone`
/// (simulation configs, bench wiring) while the allocator itself holds a
/// trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlacementPolicyKind {
    /// [`BestFit`] tightest stacking (the historical behavior).
    #[default]
    BestFit,
    /// [`FarbBalance`] fragmentation-aware scoring with default weights.
    FarbBalance,
}

impl PlacementPolicyKind {
    /// Builds the policy object.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementPolicyKind::BestFit => Box::new(BestFit),
            PlacementPolicyKind::FarbBalance => Box::new(FarbBalance::default()),
        }
    }
}

/// Fixed-point scale quantizing policy scores into the placement key.
/// Micro-units keep FARB's normalized scores (≈0–4) well separated while
/// leaving BestFit's core counts far from `i64` range.
const SCORE_SCALE: f64 = 1e6;

/// A placed container.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Placement {
    job: JobId,
    server: ServerId,
    spec: ContainerSpec,
}

/// A job as the allocator knows it.
#[derive(Debug)]
struct JobEntry {
    /// Latest spec submitted under this id.
    spec: JobSpec,
    /// Replicas currently placed per rack — the anti-affinity penalty of
    /// every server in that rack. Racks without replicas are absent.
    racks: HashMap<RackId, usize>,
}

/// The capacity state all servers of one bucket share. A
/// [`PlacementPolicy`] sees nothing else of a server (the [`Candidate`]
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
    /// Containers placed here, ascending: ids are minted in increasing
    /// order and appended.
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

/// One reservation's placeable servers, grouped by capacity state.
type Buckets = BTreeMap<Bucket, BTreeSet<ServerId>>;

/// The per-region Twine allocator (manages many reservations; each
/// placement decision only looks at one).
///
/// Placement answers from three indexes instead of scans: per server its
/// container list, per job its replicas per rack, and per reservation
/// its up members grouped into capacity-state buckets. Membership
/// and health reach the buckets through the broker's change feed; free
/// capacity moves a server between buckets as containers come and go.
#[derive(Debug)]
pub struct TwineAllocator {
    /// Identity for anti-affinity and evacuation re-placement. Retries of
    /// the same job update the spec in place rather than minting
    /// duplicates.
    jobs: HashMap<JobId, JobEntry>,
    containers: HashMap<ContainerId, Placement>,
    next_container: u64,
    /// Next allocator-minted job id (for callers without their own ids);
    /// kept past any externally supplied id to avoid collisions.
    next_job: u32,
    /// Indexed by [`ServerId::index`]; filled from the region on first use.
    hosts: Vec<Host>,
    /// Indexed by [`ReservationId::index`].
    buckets: Vec<Buckets>,
    /// The broker change feed that keeps `Host::listed` current.
    feed: Option<ChangeFeedId>,
    policy: Box<dyn PlacementPolicy>,
    /// Work counter of the latest placement call: bucket representatives
    /// scored plus servers inspected. The indexes keep it proportional to
    /// the number of distinct capacity states and the job's replicas, not
    /// to reservation or region size.
    pub last_candidates_evaluated: usize,
}

impl Default for TwineAllocator {
    fn default() -> Self {
        Self::with_policy(PlacementPolicyKind::BestFit)
    }
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
    /// Creates an empty allocator with the default [`BestFit`] policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty allocator with the given placement policy.
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            jobs: HashMap::new(),
            containers: HashMap::new(),
            next_container: 0,
            next_job: 0,
            hosts: Vec::new(),
            buckets: Vec::new(),
            feed: None,
            policy: kind.build(),
            last_candidates_evaluated: 0,
        }
    }

    /// Name of the active placement policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
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

    /// True when the container is currently placed.
    pub fn contains(&self, container: ContainerId) -> bool {
        self.containers.contains_key(&container)
    }

    /// The server a container currently runs on.
    pub fn server_of(&self, container: ContainerId) -> Option<ServerId> {
        self.containers.get(&container).map(|p| p.server)
    }

    /// The distinct container shapes offered by the reservation's jobs —
    /// the grains for stranded accounting: free capacity on a member is
    /// only *stranded* when none of these shapes can consume it.
    pub fn container_shapes(&self, reservation: ReservationId) -> Vec<ContainerSpec> {
        let mut shapes: Vec<ContainerSpec> = Vec::new();
        for j in self.jobs.values() {
            if j.spec.reservation == reservation && !shapes.contains(&j.spec.container) {
                shapes.push(j.spec.container);
            }
        }
        shapes
    }

    /// Submits a job: places `replicas` containers on the reservation's
    /// servers. Returns the container ids placed.
    ///
    /// Placement policy: filter the reservation's healthy members with
    /// room, then pick the least-loaded rack first (anti-affinity) and
    /// the best policy score otherwise.
    ///
    /// On capacity exhaustion the partial placements *stay* (Twine keeps
    /// retrying in production) but their ids are not returned; callers
    /// that need them should use [`TwineAllocator::submit_partial`].
    pub fn submit(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> Result<Vec<ContainerId>, PlacementError> {
        let reservation = job.reservation;
        let want = job.replicas;
        let (placed, unplaced) = self.submit_partial(region, broker, job);
        if unplaced > 0 {
            debug_assert_eq!(cast::idx32(placed.len()) + unplaced, want);
            return Err(PlacementError::NoCapacity {
                reservation,
                unplaced,
            });
        }
        Ok(placed)
    }

    /// Like [`TwineAllocator::submit`] but always returns the ids that
    /// did place, plus the shortfall: `(placed, unplaced)`.
    pub fn submit_partial(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        let id = JobId(self.next_job);
        self.submit_partial_as(region, broker, id, job)
    }

    /// Places `job.replicas` containers under the *caller's* job id.
    ///
    /// Schedulers that retry or scale a job call this with the same id
    /// every time, so rack anti-affinity sees replicas placed in earlier
    /// calls and job bookkeeping stays deduplicated (the stored spec is
    /// updated in place, never duplicated).
    pub fn submit_partial_as(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job_id: JobId,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        self.next_job = self.next_job.max(job_id.0.saturating_add(1));
        let reservation = job.reservation;
        let replicas = job.replicas;
        let (container, anti_affinity) = (job.container, job.rack_anti_affinity);
        let mut placed = Vec::new();
        self.last_candidates_evaluated = 0;
        match self.jobs.entry(job_id) {
            Entry::Occupied(mut known) => known.get_mut().spec = job,
            Entry::Vacant(new) => {
                new.insert(JobEntry {
                    spec: job,
                    racks: HashMap::new(),
                });
            }
        }
        for _ in 0..replicas {
            match self.place_one(
                region,
                broker,
                reservation,
                container,
                anti_affinity,
                job_id,
                None,
            ) {
                Some(id) => placed.push(id),
                None => break,
            }
        }
        let unplaced = replicas - cast::idx32(placed.len());
        (placed, unplaced)
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
            was_listed = servers.remove(&server);
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
    /// once and then walked in id order only as far as it can still hold
    /// the winner: up to its first server in a rack the job does not use
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
            while let Some(&server) = from.and_then(|id| servers.range(id..).next()) {
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

    #[allow(clippy::too_many_arguments)]
    fn place_one(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        reservation: ReservationId,
        spec: ContainerSpec,
        anti_affinity: bool,
        job: JobId,
        exclude: Option<ServerId>,
    ) -> Option<ContainerId> {
        self.sync(region, broker);
        let job_racks = self.jobs.get(&job).map(|j| &j.racks);
        let (chosen, evaluated) = self.choose(
            region,
            reservation,
            spec,
            job_racks.filter(|_| anti_affinity),
            exclude,
        );
        self.last_candidates_evaluated += evaluated;
        let server = chosen?;
        let (cores, mem) = self.hosts[server.index()].free;
        self.set_free(server, (cores - spec.cores, mem - spec.memory_gib));
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers.insert(id, Placement { job, server, spec });
        let host = &mut self.hosts[server.index()];
        host.containers.push(id);
        let count = cast::idx32(host.containers.len());
        if let Some(entry) = self.jobs.get_mut(&job) {
            *entry.racks.entry(host.rack).or_default() += 1;
        }
        broker.set_running_containers(server, count).ok()?;
        Some(id)
    }

    /// Returns a removed container's capacity and rack slot. The caller
    /// has taken it out of `containers` and of its host's list.
    fn release(&mut self, p: Placement) {
        let host = &self.hosts[p.server.index()];
        let (rack, (cores, mem)) = (host.rack, host.free);
        self.set_free(p.server, (cores + p.spec.cores, mem + p.spec.memory_gib));
        if let Some(job) = self.jobs.get_mut(&p.job) {
            if let Some(count) = job.racks.get_mut(&rack) {
                *count -= 1;
                if *count == 0 {
                    job.racks.remove(&rack);
                }
            }
        }
    }

    /// Stops one container.
    pub fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
        if let Some(p) = self.containers.remove(&container) {
            let on_host = &mut self.hosts[p.server.index()].containers;
            on_host.retain(|c| *c != container);
            let count = cast::idx32(on_host.len());
            self.release(p);
            let _ = broker.set_running_containers(p.server, count);
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
            .fold((0.0, 0.0), |(c, m), p| {
                (c + p.spec.cores, m + p.spec.memory_gib)
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
    /// capacity after an MSB failure), in ascending [`ContainerId`] order
    /// so the outcome is the same in every process. Returns
    /// `(moved, lost)` counts.
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
        let victims = self
            .hosts
            .get_mut(server.index())
            .map(|host| std::mem::take(&mut host.containers))
            .unwrap_or_default();
        let mut moved = 0;
        let mut lost = 0;
        // Victims leave one at a time: those still waiting keep counting
        // towards their jobs' rack penalties, as they still run there.
        for id in victims {
            let Some(p) = self.containers.remove(&id) else {
                continue;
            };
            self.release(p);
            let Some(job) = self.jobs.get(&p.job) else {
                // Unknown job id (cannot happen through the public API):
                // the container cannot be re-placed faithfully.
                lost += 1;
                continue;
            };
            let reservation = job.spec.reservation;
            let anti = job.spec.rack_anti_affinity;
            if self
                .place_one(
                    region,
                    broker,
                    reservation,
                    p.spec,
                    anti,
                    p.job,
                    Some(server),
                )
                .is_some()
            {
                moved += 1;
            } else {
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

    #[test]
    fn placement_stays_inside_the_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let placed = alloc
            .submit(&region, &mut broker, job(r, 10, false))
            .unwrap();
        assert_eq!(placed.len(), 10);
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
        alloc
            .submit(&region, &mut broker, job(r, 4, false))
            .unwrap();
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
        alloc.submit(&region, &mut broker, job(r, 3, true)).unwrap();
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
        let err = alloc
            .submit(&region, &mut broker, job(r, 10_000, false))
            .unwrap_err();
        match err {
            PlacementError::NoCapacity { unplaced, .. } => assert!(unplaced > 0),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn candidates_scale_with_reservation_not_region() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc
            .submit(&region, &mut broker, job(r, 1, false))
            .unwrap();
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
        // it is the reservation's lowest-id... highest-id member.
        let stray = ServerId::from_index(region.server_count());
        let mut broker = ResourceBroker::new(region.server_count() + 1);
        let r = broker.register_reservation("web");
        for s in [ServerId(0), ServerId(1), stray] {
            broker.bind_current(s, Some(r)).unwrap();
        }
        let mut alloc = TwineAllocator::new();
        let placed = alloc
            .submit(&region, &mut broker, job(r, 6, false))
            .expect("the two known members hold the job");
        assert_eq!(placed.len(), 6);
        assert_eq!(broker.record(stray).unwrap().running_containers, 0);
    }

    #[test]
    fn stop_frees_capacity() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let placed = alloc
            .submit(&region, &mut broker, job(r, 2, false))
            .unwrap();
        let busy_before = alloc.container_count();
        alloc.stop(&mut broker, placed[0]);
        assert_eq!(alloc.container_count(), busy_before - 1);
        // Counter synced to broker.
        let total: u32 = broker.iter().map(|(_, rec)| rec.running_containers).sum();
        assert_eq!(total as usize, alloc.container_count());
    }

    #[test]
    fn evacuation_moves_containers_within_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 6, true)).unwrap();
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
        assert_eq!(alloc.container_count(), 6);
    }

    #[test]
    fn evacuating_an_up_server_never_bounces_back() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Two containers stacked on one server make that server the
        // tightest best-fit for its own evacuees.
        let placed = alloc
            .submit(&region, &mut broker, job(r, 2, false))
            .unwrap();
        let victim = alloc.containers.get(&placed[0]).map(|p| p.server).unwrap();
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
        assert_eq!(best.policy_name(), "best-fit");
        assert_eq!(farb.policy_name(), "farb");
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
    fn retried_submissions_share_one_job_identity() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = JobId(7);
        let (first, _) = alloc.submit_partial_as(&region, &mut broker, id, job(r, 1, true));
        let (second, _) = alloc.submit_partial_as(&region, &mut broker, id, job(r, 1, true));
        assert_eq!(first.len() + second.len(), 2);
        assert_eq!(alloc.jobs.len(), 1, "retries must not duplicate job specs");
        // Both replicas belong to the same job and anti-affinity saw the
        // first one: they land on different racks.
        let racks: std::collections::HashSet<u32> = alloc
            .containers
            .values()
            .map(|p| region.server(p.server).rack.0)
            .collect();
        assert_eq!(racks.len(), 2, "anti-affinity must span the retry");
    }
}
