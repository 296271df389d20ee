//! Criterion benchmarks for the RAS pipeline itself: equivalence-class
//! reduction, model build, end-to-end two-phase solves (Figure 7's
//! latency), and the level-2 Twine placement latency that the two-level
//! split protects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ras_bench::instance;
use ras_broker::SimTime;
use ras_core::classes::{build_classes, Granularity};
use ras_core::model::build_model;
use ras_core::solver::AsyncSolver;
use ras_topology::RegionTemplate;
use ras_twine::{ContainerSpec, JobSpec, TwineAllocator};

fn bench_class_reduction(c: &mut Criterion) {
    let inst = instance::build(RegionTemplate::medium(), 1, 20, 0.8);
    let snapshot = inst.broker.snapshot(SimTime::ZERO);
    let mut group = c.benchmark_group("class_reduction");
    for granularity in [Granularity::Msb, Granularity::Rack] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{granularity:?}")),
            &granularity,
            |b, g| b.iter(|| build_classes(&inst.region, &snapshot, *g, None).len()),
        );
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let inst = instance::build(RegionTemplate::medium(), 2, 20, 0.8);
    let snapshot = inst.broker.snapshot(SimTime::ZERO);
    let classes = build_classes(&inst.region, &snapshot, Granularity::Msb, None);
    c.bench_function("ras_model_build", |b| {
        b.iter(|| {
            build_model(
                &inst.region,
                &inst.specs,
                &classes,
                &inst.params,
                false,
                None,
            )
            .assignment_var_count
        })
    });
}

fn bench_two_phase_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_phase_solve");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(25));
    group.warm_up_time(std::time::Duration::from_secs(2));
    for (label, template, reservations) in [
        ("tiny", RegionTemplate::tiny(), 8usize),
        ("medium", RegionTemplate::medium(), 16),
    ] {
        let inst = instance::build(template, 3, reservations, 0.8);
        let mut solver = AsyncSolver::new(inst.params.clone());
        let snapshot = inst.broker.snapshot(SimTime::ZERO);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                solver
                    .solve(&inst.region, &inst.specs, &snapshot)
                    .expect("solve")
                    .allocation_seconds()
            })
        });
    }
    group.finish();
}

fn bench_twine_placement(c: &mut Criterion) {
    // Container placement latency must track reservation size, not
    // region size — the point of the two-level architecture.
    let inst = instance::build(RegionTemplate::medium(), 4, 16, 0.8);
    let reservation = ras_broker::ReservationId(0);
    c.bench_function("twine_place_container", |b| {
        b.iter_batched(
            || (inst.broker.snapshot(SimTime::ZERO), TwineAllocator::new()),
            |(_, mut twine)| {
                let mut broker_copy = ras_broker::ResourceBroker::new(inst.region.server_count());
                broker_copy.register_reservation("r0");
                for (s, rec) in inst.broker.iter() {
                    if rec.current == Some(reservation) {
                        let _ = broker_copy.bind_current(s, Some(reservation));
                    }
                }
                let job = twine.submit(
                    &inst.region,
                    &mut broker_copy,
                    JobSpec {
                        name: "bench".into(),
                        reservation,
                        container: ContainerSpec::small(),
                        replicas: 5,
                        rack_anti_affinity: true,
                    },
                );
                twine.placed_replicas(job)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_class_reduction,
    bench_model_build,
    bench_two_phase_solve,
    bench_twine_placement
);
criterion_main!(benches);
