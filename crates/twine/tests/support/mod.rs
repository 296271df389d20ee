//! The member-scan allocator the indexed [`ras_twine::TwineAllocator`]
//! replaced, kept as the oracle of the differential tests: every
//! placement walks `ResourceBroker::members_of` in id order, scores every
//! member, rebuilds the job's rack usage from all containers, and keeps
//! the first minimum of `(rack penalty, quantized score)`.
//!
//! It differs from the scan that shipped in two deliberate ways, both
//! shared with the indexed allocator: victims of an evacuation are
//! re-placed in ascending `ContainerId` order (the shipped scan walked a
//! `HashMap`), and a member the broker cannot resolve is skipped instead
//! of ending the job's placement.

use std::collections::{BTreeMap, HashMap};

use ras_broker::{ReservationId, ResourceBroker};
use ras_milp::cast;
use ras_topology::{Region, ServerId};
use ras_twine::{
    Candidate, ContainerId, ContainerSpec, JobId, JobSpec, PlacementPolicy, PlacementPolicyKind,
};

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
    jobs: HashMap<JobId, JobSpec>,
    /// Ordered, so that evacuation collects victims in ascending id.
    containers: BTreeMap<ContainerId, Placement>,
    next_container: u64,
    free: HashMap<ServerId, (f64, f64)>,
    policy: Box<dyn PlacementPolicy>,
    /// Members scored by the latest submit — the scan's work.
    pub last_candidates_evaluated: usize,
}

impl ScanAllocator {
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            jobs: HashMap::new(),
            containers: BTreeMap::new(),
            next_container: 0,
            free: HashMap::new(),
            policy: kind.build(),
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

    pub fn submit_partial_as(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job_id: JobId,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        let mut placed = Vec::new();
        self.last_candidates_evaluated = 0;
        self.jobs.insert(job_id, job.clone());
        for _ in 0..job.replicas {
            match self.place_one(
                region,
                broker,
                job.reservation,
                job.container,
                job.rack_anti_affinity,
                job_id,
                None,
            ) {
                Some(id) => placed.push(id),
                None => break,
            }
        }
        let unplaced = job.replicas - cast::idx32(placed.len());
        (placed, unplaced)
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
        let (server, _) = best?;
        let (cores, mem) = self.free_capacity(region, server);
        self.free
            .insert(server, (cores - spec.cores, mem - spec.memory_gib));
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers.insert(id, Placement { job, server, spec });
        let count = cast::idx32(self.containers_on(server));
        broker.set_running_containers(server, count).ok()?;
        Some(id)
    }

    pub fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
        if let Some(p) = self.containers.remove(&container) {
            if let Some((c, m)) = self.free.get_mut(&p.server) {
                *c += p.spec.cores;
                *m += p.spec.memory_gib;
            }
            let count = cast::idx32(self.containers_on(p.server));
            let _ = broker.set_running_containers(p.server, count);
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
            let Some(job) = self.jobs.get(&p.job) else {
                lost += 1;
                continue;
            };
            let (reservation, anti) = (job.reservation, job.rack_anti_affinity);
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
        let _ = broker.set_running_containers(server, cast::idx32(self.containers_on(server)));
        (moved, lost)
    }
}
