//! Differential oracle for the indexed allocator: after *any*
//! interleaving of submit / scale / stop a container or a job / process
//! / evacuate (a named server or the busiest one) / bind / unbind /
//! `mark_down` / `mark_up` / failure replacement, with jobs stacked into
//! nearly full reservations, every container sits on the server the
//! member scan (`support::ScanAllocator`) puts it on, under the same id —
//! for both policies, with and without rack anti-affinity, with
//! (`evacuate`) and without (`submit`) an excluded server, on a tiny and a
//! medium region and on one whose racks interleave in id order — and the
//! broker's member and unbound sets equal a fresh filter over `iter()`.

mod support;

use std::cmp::Reverse;
use std::sync::OnceLock;

use proptest::prelude::*;
use ras_broker::{ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_topology::{HardwareCatalog, Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras_twine::{ContainerId, ContainerSpec, JobId, JobSpec, PlacementPolicyKind, TwineAllocator};
use support::ScanAllocator;

const RESERVATIONS: u8 = 2;
/// Servers the operations may name.
const POOL: usize = 64;
/// No run mints more container ids than this.
const MAX_CONTAINERS: u64 = 10_000;

#[derive(Debug, Clone)]
enum Op {
    Submit {
        reservation: u8,
        shape: u8,
        replicas: u32,
        anti: bool,
    },
    /// Scales a known job up or down.
    Scale {
        job: u8,
        replicas: u32,
    },
    Stop {
        container: u16,
    },
    StopJob {
        job: u8,
    },
    /// Retries every job short of replicas.
    Process,
    Evacuate {
        server: u8,
    },
    /// Evacuates the server holding the most containers (ties go to the
    /// lowest id): its victims from several jobs run out of room part-way
    /// in a nearly full reservation, so the order they drain in shows.
    EvacuateBusiest,
    /// Fills a reservation with one job of large containers (the replicas
    /// that do not fit wait), then submits `jobs` small jobs into what is
    /// left: best fit stacks them on the few servers with room.
    Stack {
        reservation: u8,
        shape: u8,
        jobs: u8,
    },
    Bind {
        server: u8,
        reservation: Option<u8>,
    },
    Down {
        server: u8,
    },
    Up {
        server: u8,
    },
    /// What the mover does on an unplanned failure: the server goes
    /// down, the lowest unbound pool server joins its reservation, and
    /// Twine evacuates.
    Replace {
        server: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reservation = 0..RESERVATIONS;
    prop_oneof![
        (reservation.clone(), 0u8..4, 1u32..7, 0u8..2).prop_map(
            |(reservation, shape, replicas, anti)| {
                Op::Submit {
                    reservation,
                    shape,
                    replicas,
                    anti: anti == 1,
                }
            }
        ),
        (0u8..=254, 0u32..8).prop_map(|(job, replicas)| Op::Scale { job, replicas }),
        (0u16..1000).prop_map(|container| Op::Stop { container }),
        (0u8..=254).prop_map(|job| Op::StopJob { job }),
        Just(Op::Process),
        (0u8..=254).prop_map(|server| Op::Evacuate { server }),
        Just(Op::EvacuateBusiest),
        (reservation.clone(), 0u8..4, 2u8..6).prop_map(|(reservation, shape, jobs)| Op::Stack {
            reservation,
            shape,
            jobs,
        }),
        (0u8..=254, prop::option::of(reservation)).prop_map(|(server, reservation)| Op::Bind {
            server,
            reservation,
        }),
        (0u8..=254).prop_map(|server| Op::Down { server }),
        (0u8..=254).prop_map(|server| Op::Up { server }),
        (0u8..=254).prop_map(|server| Op::Replace { server }),
    ]
}

fn shape(idx: u8) -> ContainerSpec {
    match idx % 4 {
        0 => ContainerSpec::small(),
        1 => ContainerSpec::large(),
        2 => ContainerSpec::cores_heavy(),
        _ => ContainerSpec::memory_heavy(),
    }
}

/// What the differential needs of either allocator.
trait Level2 {
    fn submit(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32);
    fn scale(&mut self, region: &Region, broker: &mut ResourceBroker, job: JobId, replicas: u32);
    fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId);
    fn stop_job(&mut self, broker: &mut ResourceBroker, job: JobId);
    fn process(&mut self, region: &Region, broker: &mut ResourceBroker);
    fn evacuate(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ServerId,
    ) -> (usize, usize);
    fn server_of(&self, container: ContainerId) -> Option<ServerId>;
    fn container_count(&self) -> usize;
}

macro_rules! level2 {
    ($t:ty) => {
        impl Level2 for $t {
            fn submit(
                &mut self,
                region: &Region,
                broker: &mut ResourceBroker,
                job: JobSpec,
            ) -> (Vec<ContainerId>, u32) {
                self.submit_partial(region, broker, job)
            }
            fn scale(
                &mut self,
                region: &Region,
                broker: &mut ResourceBroker,
                job: JobId,
                replicas: u32,
            ) {
                let _ = <$t>::scale(self, region, broker, job, replicas);
            }
            fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
                <$t>::stop(self, broker, container)
            }
            fn stop_job(&mut self, broker: &mut ResourceBroker, job: JobId) {
                <$t>::stop_job(self, broker, job)
            }
            fn process(&mut self, region: &Region, broker: &mut ResourceBroker) {
                <$t>::process(self, region, broker)
            }
            fn evacuate(
                &mut self,
                region: &Region,
                broker: &mut ResourceBroker,
                server: ServerId,
            ) -> (usize, usize) {
                <$t>::evacuate(self, region, broker, server)
            }
            fn server_of(&self, container: ContainerId) -> Option<ServerId> {
                <$t>::server_of(self, container)
            }
            fn container_count(&self) -> usize {
                <$t>::container_count(self)
            }
        }
    };
}
level2!(TwineAllocator);
level2!(ScanAllocator);

/// One allocator with a broker of its own.
struct Side<A> {
    broker: ResourceBroker,
    alloc: A,
    /// Jobs submitted so far: both allocators mint `JobId(0)`, `JobId(1)`, …
    jobs: u32,
}

impl<A: Level2> Side<A> {
    fn new(region: &Region, pool: &[ServerId], alloc: A) -> Self {
        let mut broker = ResourceBroker::new(region.server_count());
        for r in 0..RESERVATIONS {
            broker.register_reservation(format!("r{r}"));
        }
        // Three in four pool servers start bound, alternating reservations.
        for (i, s) in pool.iter().enumerate() {
            if i % 4 != 3 {
                let r = ReservationId::from_index(i % RESERVATIONS as usize);
                broker.bind_current(*s, Some(r)).unwrap();
            }
        }
        Self {
            broker,
            alloc,
            jobs: 0,
        }
    }

    /// Container ids currently placed, ascending.
    fn live(&self) -> Vec<ContainerId> {
        (0..MAX_CONTAINERS)
            .map(ContainerId)
            .filter(|c| self.alloc.server_of(*c).is_some())
            .take(self.alloc.container_count())
            .collect()
    }

    fn down(&mut self, server: ServerId) {
        self.broker
            .mark_down(UnavailabilityEvent {
                server,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(server),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
    }

    fn submit(
        &mut self,
        region: &Region,
        reservation: u8,
        container: ContainerSpec,
        replicas: u32,
        anti: bool,
    ) {
        let job = JobSpec {
            name: "p".into(),
            reservation: ReservationId::from_index(usize::from(reservation)),
            container,
            replicas,
            rack_anti_affinity: anti,
        };
        self.jobs += 1;
        self.alloc.submit(region, &mut self.broker, job);
    }

    fn apply(&mut self, region: &Region, pool: &[ServerId], op: &Op) {
        let pick = |i: u8| pool[i as usize % pool.len()];
        match *op {
            Op::Submit {
                reservation,
                shape: s,
                replicas,
                anti,
            } => self.submit(region, reservation, shape(s), replicas, anti),
            Op::Scale { job, replicas } => {
                if self.jobs > 0 {
                    let id = JobId(u32::from(job) % self.jobs);
                    self.alloc.scale(region, &mut self.broker, id, replicas);
                }
            }
            Op::StopJob { job } => {
                if self.jobs > 0 {
                    let id = JobId(u32::from(job) % self.jobs);
                    self.alloc.stop_job(&mut self.broker, id);
                }
            }
            Op::Process => self.alloc.process(region, &mut self.broker),
            Op::Stop { container } => {
                let live = self.live();
                if !live.is_empty() {
                    let c = live[container as usize % live.len()];
                    self.alloc.stop(&mut self.broker, c);
                }
            }
            Op::Evacuate { server } => {
                self.alloc.evacuate(region, &mut self.broker, pick(server));
            }
            Op::EvacuateBusiest => {
                let busiest = self
                    .broker
                    .iter()
                    .max_by_key(|(s, rec)| (rec.running_containers, Reverse(*s)))
                    .map(|(s, _)| s);
                if let Some(server) = busiest {
                    self.alloc.evacuate(region, &mut self.broker, server);
                }
            }
            Op::Stack {
                reservation,
                shape: s,
                jobs,
            } => {
                self.submit(region, reservation, ContainerSpec::large(), 200, false);
                for j in 0..jobs {
                    let container = shape(s.wrapping_add(j));
                    self.submit(region, reservation, container, 1 + u32::from(j % 3), false);
                }
            }
            Op::Bind {
                server,
                reservation,
            } => {
                let r = reservation.map(|r| ReservationId::from_index(usize::from(r)));
                self.broker.bind_current(pick(server), r).unwrap();
            }
            Op::Down { server } => self.down(pick(server)),
            Op::Up { server } => self.broker.mark_up(pick(server), SimTime::ZERO).unwrap(),
            Op::Replace { server } => {
                let failed = pick(server);
                self.down(failed);
                let impacted = self.broker.record(failed).unwrap().current;
                let spare = pool
                    .iter()
                    .copied()
                    .find(|s| self.broker.record(*s).unwrap().current.is_none());
                if let (Some(r), Some(spare)) = (impacted, spare) {
                    self.broker.bind_current(spare, Some(r)).unwrap();
                }
                self.alloc.evacuate(region, &mut self.broker, failed);
            }
        }
    }
}

/// The broker's maintained sets against a fresh filter over `iter()`.
fn assert_broker_sets(broker: &ResourceBroker) {
    for r in 0..RESERVATIONS {
        let r = ReservationId::from_index(usize::from(r));
        let scan: Vec<ServerId> = broker
            .iter()
            .filter(|(_, rec)| rec.current == Some(r))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(broker.members_of(r), scan);
        assert_eq!(broker.members(r).collect::<Vec<_>>(), scan);
        assert_eq!(broker.member_count(r), scan.len());
    }
    let unbound: Vec<ServerId> = broker
        .iter()
        .filter(|(_, rec)| rec.current.is_none())
        .map(|(s, _)| s)
        .collect();
    assert_eq!(broker.unbound().collect::<Vec<_>>(), unbound);
}

fn pool_of(region: &Region) -> Vec<ServerId> {
    // The first two and a half racks (neighbours that tie on everything
    // but the id) plus servers strided over the rest of the region.
    let near = 25;
    let stride = (region.server_count() - near) / (POOL - near);
    (0..near)
        .chain((0..POOL - near).map(|i| near + i * stride))
        .map(ServerId::from_index)
        .collect()
}

/// 120 servers whose ids rotate over three racks at a time, so that no
/// rack is a run of consecutive ids (the generator's racks all are).
fn interleaved_region() -> Region {
    let catalog = HardwareCatalog::standard();
    let types: Vec<_> = catalog.iter().map(|t| t.id).take(2).collect();
    let mut region = Region::new("interleaved", catalog);
    let dc = region.add_datacenter("dc0");
    let msb = region.add_msb(dc, 0);
    let row = region.add_power_row(msb);
    for group in 0..4 {
        let racks: Vec<_> = (0..3).map(|_| region.add_rack(row)).collect();
        for i in 0..30 {
            region.add_server(racks[i % 3], types[(group + i % 3) % 2]);
        }
    }
    region
}

fn regions() -> &'static [Region; 3] {
    static REGIONS: OnceLock<[Region; 3]> = OnceLock::new();
    REGIONS.get_or_init(|| {
        [
            RegionBuilder::new(RegionTemplate::tiny(), 42).build(),
            RegionBuilder::new(RegionTemplate::medium(), 42).build(),
            interleaved_region(),
        ]
    })
}

fn run(region: &Region, policy: PlacementPolicyKind, ops: &[Op]) {
    let pool = pool_of(region);
    let mut indexed = Side::new(region, &pool, TwineAllocator::with_policy(policy));
    let mut scan = Side::new(region, &pool, ScanAllocator::with_policy(policy));
    for (step, op) in ops.iter().enumerate() {
        indexed.apply(region, &pool, op);
        scan.apply(region, &pool, op);
        let live = scan.live();
        assert_eq!(
            indexed.live(),
            live,
            "step {step} {op:?}: container sets differ"
        );
        for c in live {
            assert_eq!(
                indexed.alloc.server_of(c),
                scan.alloc.server_of(c),
                "step {step} {op:?}: {c:?} placed differently"
            );
        }
        for s in &pool {
            let (a, b) = (
                indexed.broker.record(*s).unwrap(),
                scan.broker.record(*s).unwrap(),
            );
            assert_eq!(
                a.running_containers, b.running_containers,
                "step {step} {s}"
            );
            assert_eq!(a.current, b.current, "step {step} {s}");
        }
        assert_broker_sets(&indexed.broker);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_allocator_places_where_the_scan_does_tiny(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        farb in 0u8..2,
    ) {
        let policy = [PlacementPolicyKind::BestFit, PlacementPolicyKind::FarbBalance][farb as usize];
        run(&regions()[0], policy, &ops);
    }

    #[test]
    fn indexed_allocator_places_where_the_scan_does_medium(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        farb in 0u8..2,
    ) {
        let policy = [PlacementPolicyKind::BestFit, PlacementPolicyKind::FarbBalance][farb as usize];
        run(&regions()[1], policy, &ops);
    }

    #[test]
    fn indexed_allocator_places_where_the_scan_does_interleaved_racks(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        farb in 0u8..2,
    ) {
        let policy = [PlacementPolicyKind::BestFit, PlacementPolicyKind::FarbBalance][farb as usize];
        run(&regions()[2], policy, &ops);
    }
}
