//! The member-scan allocator the indexed [`ras_twine::TwineAllocator`]
//! replaced, kept as the oracle of the differential tests: every
//! placement walks `ResourceBroker::members_of` in id order, scores every
//! member, rebuilds the job's rack usage from all containers, and keeps
//! the first minimum of `(rack penalty, quantized score)`.
//!
//! It differs from the scan that shipped in three deliberate ways, all
//! shared with the indexed allocator: victims of an evacuation are
//! re-placed in ascending `ContainerId` order (the shipped scan walked a
//! `HashMap`) and each under its own id (the shipped scan minted a fresh
//! one), and a member the broker cannot resolve is skipped instead of
//! ending the job's placement.
//!
//! Its job ledger is the plainest one that places the same: a job is its
//! spec, whose `replicas` follows `scale`, container stops and job stops
//! (to zero); its containers are found by scanning them all.

use std::collections::{BTreeMap, HashMap};

use ras_broker::ResourceBroker;
use ras_milp::cast;
use ras_topology::{Region, ServerId};
use ras_twine::{Candidate, ContainerId, ContainerSpec, JobId, JobSpec, PlacementPolicyKind};

/// Same quantization as the allocator's placement key.
const SCORE_SCALE: f64 = 1e6;

#[derive(Debug, Clone, Copy)]
struct Placement {
    job: JobId,
    server: ServerId,
    spec: ContainerSpec,
}

/// The scan-based reference allocator.
#[derive(Debug)]
pub struct ScanAllocator {
    /// Indexed by `JobId`.
    jobs: Vec<JobSpec>,
    /// Ordered, so that evacuation collects victims in ascending id.
    containers: BTreeMap<ContainerId, Placement>,
    next_container: u64,
    free: HashMap<ServerId, (f64, f64)>,
    policy: PlacementPolicyKind,
    /// Members scored by the latest submit — the scan's work.
    pub last_candidates_evaluated: usize,
}

impl ScanAllocator {
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            jobs: Vec::new(),
            containers: BTreeMap::new(),
            next_container: 0,
            free: HashMap::new(),
            policy: kind,
            last_candidates_evaluated: 0,
        }
    }

    fn free_capacity(&mut self, region: &Region, server: ServerId) -> (f64, f64) {
        *self.free.entry(server).or_insert_with(|| {
            let hw = region.catalog.get(region.server(server).hardware);
            (hw.cores as f64, hw.memory_gib as f64)
        })
    }

    pub fn server_of(&self, container: ContainerId) -> Option<ServerId> {
        self.containers.get(&container).map(|p| p.server)
    }

    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// The job's live containers, ascending.
    fn live(&self, job: JobId) -> Vec<ContainerId> {
        self.containers
            .iter()
            .filter(|(_, p)| p.job == job)
            .map(|(id, _)| *id)
            .collect()
    }

    pub fn submit_partial(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        let id = JobId(cast::idx32(self.jobs.len()));
        self.jobs.push(job);
        let unplaced = self.place_missing(region, broker, id);
        (self.live(id), unplaced)
    }

    pub fn scale(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobId,
        replicas: u32,
    ) {
        self.jobs[job.index()].replicas = replicas;
        for c in self.live(job).into_iter().skip(replicas as usize) {
            self.unplace(broker, c);
        }
        self.place_missing(region, broker, job);
    }

    pub fn stop_job(&mut self, broker: &mut ResourceBroker, job: JobId) {
        self.jobs[job.index()].replicas = 0;
        for c in self.live(job) {
            self.unplace(broker, c);
        }
    }

    pub fn process(&mut self, region: &Region, broker: &mut ResourceBroker) {
        for i in 0..self.jobs.len() {
            self.place_missing(region, broker, JobId(cast::idx32(i)));
        }
    }

    fn place_missing(&mut self, region: &Region, broker: &mut ResourceBroker, job: JobId) -> u32 {
        self.last_candidates_evaluated = 0;
        let mut missing = self.jobs[job.index()]
            .replicas
            .saturating_sub(cast::idx32(self.live(job).len()));
        while missing > 0 {
            let id = ContainerId(self.next_container);
            if !self.place_one(region, broker, job, id, None) {
                break;
            }
            self.next_container += 1;
            missing -= 1;
        }
        missing
    }

    /// Places container `id` of `job`; false when nothing fits.
    fn place_one(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobId,
        id: ContainerId,
        exclude: Option<ServerId>,
    ) -> bool {
        let JobSpec {
            reservation,
            container: spec,
            rack_anti_affinity: anti_affinity,
            ..
        } = self.jobs[job.index()].clone();
        let members = broker.members_of(reservation);
        let mut job_racks: HashMap<u32, usize> = HashMap::new();
        if anti_affinity {
            for p in self.containers.values() {
                if p.job == job {
                    *job_racks.entry(region.server(p.server).rack.0).or_default() += 1;
                }
            }
        }
        let mut best: Option<(ServerId, (usize, i64))> = None;
        for s in members {
            if exclude == Some(s) {
                continue;
            }
            self.last_candidates_evaluated += 1;
            let Ok(record) = broker.record(s) else {
                continue;
            };
            if !record.is_up() {
                continue;
            }
            let (cores, mem) = self.free_capacity(region, s);
            if cores < spec.cores || mem < spec.memory_gib {
                continue;
            }
            let rack_penalty = if anti_affinity {
                job_racks
                    .get(&region.server(s).rack.0)
                    .copied()
                    .unwrap_or(0)
            } else {
                0
            };
            let hw = region.catalog.get(region.server(s).hardware);
            let candidate = Candidate {
                free_cores: cores,
                free_memory_gib: mem,
                capacity_cores: hw.cores as f64,
                capacity_memory_gib: hw.memory_gib as f64,
            };
            let fit = cast::rounded_i64(self.policy.score(candidate, spec) * SCORE_SCALE);
            let key = (rack_penalty, fit);
            match best {
                Some((_, bk)) if bk <= key => {}
                _ => best = Some((s, key)),
            }
        }
        let Some((server, _)) = best else {
            return false;
        };
        let (cores, mem) = self.free_capacity(region, server);
        self.free
            .insert(server, (cores - spec.cores, mem - spec.memory_gib));
        self.containers.insert(id, Placement { job, server, spec });
        let count = cast::idx32(self.containers_on(server));
        let _ = broker.set_running_containers(server, count);
        true
    }

    fn unplace(&mut self, broker: &mut ResourceBroker, container: ContainerId) -> Option<JobId> {
        let p = self.containers.remove(&container)?;
        if let Some((c, m)) = self.free.get_mut(&p.server) {
            *c += p.spec.cores;
            *m += p.spec.memory_gib;
        }
        let count = cast::idx32(self.containers_on(p.server));
        let _ = broker.set_running_containers(p.server, count);
        Some(p.job)
    }

    pub fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
        if let Some(job) = self.unplace(broker, container) {
            let replicas = &mut self.jobs[job.index()].replicas;
            *replicas = replicas.saturating_sub(1);
        }
    }

    pub fn containers_on(&self, server: ServerId) -> usize {
        self.containers
            .values()
            .filter(|p| p.server == server)
            .count()
    }

    pub fn evacuate(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ServerId,
    ) -> (usize, usize) {
        let victims: Vec<(ContainerId, Placement)> = self
            .containers
            .iter()
            .filter(|(_, p)| p.server == server)
            .map(|(id, p)| (*id, *p))
            .collect();
        let mut moved = 0;
        let mut lost = 0;
        for (id, p) in victims {
            self.containers.remove(&id);
            if let Some((c, m)) = self.free.get_mut(&server) {
                *c += p.spec.cores;
                *m += p.spec.memory_gib;
            }
            if self.place_one(region, broker, p.job, id, Some(server)) {
                moved += 1;
            } else {
                lost += 1;
            }
        }
        let _ = broker.set_running_containers(server, cast::idx32(self.containers_on(server)));
        (moved, lost)
    }
}
