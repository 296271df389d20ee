//! Property test: the allocator's incremental `free` bookkeeping must
//! always equal capacity recomputed from the placed containers, the
//! broker's `running_containers` counters must mirror the placements,
//! and every job's container list must be exactly the containers running
//! for it, never more than it wants — after *any* interleaving of submit
//! / scale / stop a job / stop a container / evacuate / process. The
//! evacuate bounce-back bug broke the second (a drained server ended up
//! with a stale broker counter), fresh ids on evacuation the third.

use proptest::prelude::*;
use ras_broker::ResourceBroker;
use ras_topology::{RegionBuilder, RegionTemplate, ServerId};
use ras_twine::{ContainerSpec, JobId, JobSpec, TwineAllocator};

const BOUND_SERVERS: u32 = 30;

#[derive(Debug, Clone)]
enum Op {
    Submit {
        shape: u8,
        replicas: u32,
        anti: bool,
    },
    Scale {
        job: u8,
        replicas: u32,
    },
    Stop {
        job: u8,
    },
    StopContainer {
        job: u8,
        replica: u8,
    },
    Evacuate {
        server: u8,
    },
    Process,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1u32..6, 0u8..2).prop_map(|(shape, replicas, anti)| Op::Submit {
            shape,
            replicas,
            anti: anti == 1,
        }),
        (0u8..=254, 0u32..8).prop_map(|(job, replicas)| Op::Scale { job, replicas }),
        (0u8..=254).prop_map(|job| Op::Stop { job }),
        (0u8..=254, 0u8..=254).prop_map(|(job, replica)| Op::StopContainer { job, replica }),
        (0u8..=254).prop_map(|server| Op::Evacuate { server }),
        Just(Op::Process),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn free_map_matches_capacity_recomputed_from_containers(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r = broker.register_reservation("web");
        for i in 0..BOUND_SERVERS {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        let mut alloc = TwineAllocator::new();
        // Each job and the replicas it wants, tracked from the ops alone.
        let mut jobs: Vec<(JobId, u32)> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { shape: s, replicas, anti } => {
                    let id = alloc.submit(&region, &mut broker, JobSpec {
                        name: "p".into(),
                        reservation: r,
                        container: shape(s),
                        replicas,
                        rack_anti_affinity: anti,
                    });
                    jobs.push((id, replicas));
                }
                Op::Scale { job, replicas } => {
                    if !jobs.is_empty() {
                        let slot = job as usize % jobs.len();
                        let _ = alloc.scale(&region, &mut broker, jobs[slot].0, replicas);
                        jobs[slot].1 = replicas;
                    }
                }
                Op::Stop { job } => {
                    if !jobs.is_empty() {
                        alloc.stop_job(&mut broker, jobs[job as usize % jobs.len()].0);
                    }
                }
                Op::StopContainer { job, replica } => {
                    if !jobs.is_empty() {
                        let slot = job as usize % jobs.len();
                        let live = alloc.containers_of(jobs[slot].0);
                        if !live.is_empty() {
                            let c = live[replica as usize % live.len()];
                            alloc.stop(&mut broker, c);
                            jobs[slot].1 -= 1;
                        }
                    }
                }
                Op::Evacuate { server } => {
                    let s = ServerId(server as u32 % BOUND_SERVERS);
                    let _ = alloc.evacuate(&region, &mut broker, s);
                }
                Op::Process => alloc.process(&region, &mut broker),
            }

            // Invariant: per-server free capacity tracked incrementally
            // equals hardware capacity minus the sum of placed specs, and
            // the broker counter equals the placement count.
            let mut total = 0;
            for i in 0..BOUND_SERVERS {
                let s = ServerId(i);
                let hw = region.catalog.get(region.server(s).hardware);
                let (used_c, used_m) = alloc.used_on(s);
                let (free_c, free_m) = alloc.free_capacity_of(&region, s);
                prop_assert!(
                    (hw.cores as f64 - used_c - free_c).abs() < 1e-6,
                    "server {s}: cores {free_c} free + {used_c} used != {} capacity",
                    hw.cores
                );
                prop_assert!(
                    (hw.memory_gib as f64 - used_m - free_m).abs() < 1e-6,
                    "server {s}: memory {free_m} free + {used_m} used != {} capacity",
                    hw.memory_gib
                );
                prop_assert!(free_c >= -1e-9 && free_m >= -1e-9, "server {s} oversubscribed");
                let running = broker.record(s).unwrap().running_containers as usize;
                prop_assert_eq!(
                    running,
                    alloc.containers_on(s),
                    "broker counter out of sync on {}", s
                );
                total += running;
            }
            prop_assert_eq!(total, alloc.container_count());

            // Invariant: a job's list holds exactly the containers the
            // allocator runs for it, ascending, and never more than the
            // job wants.
            let mut listed = 0;
            for &(id, wanted) in &jobs {
                let live = alloc.containers_of(id);
                prop_assert!(live.windows(2).all(|w| w[0] < w[1]), "{:?} list unsorted", id);
                for c in live {
                    prop_assert_eq!(alloc.job_of(*c), Some(id), "{:?} lists {:?}", id, c);
                }
                prop_assert_eq!(alloc.placed_replicas(id), live.len());
                prop_assert!(
                    live.len() <= wanted as usize,
                    "{:?} runs {} containers but wants {}", id, live.len(), wanted
                );
                listed += live.len();
            }
            prop_assert_eq!(listed, alloc.container_count(), "a container no job lists");
        }
    }
}
