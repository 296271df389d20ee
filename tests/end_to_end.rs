//! Cross-crate integration tests: the full capacity-request →
//! solve → mover → container-placement pipeline, exercised end to end.

use ras::broker::{
    ReservationId, ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind,
};
use ras::core::classes::Granularity;
use ras::core::phases::run_phase;
use ras::core::rru::RruTable;
use ras::core::{buffers, AsyncSolver, ReservationSpec, SolverParams};
use ras::mover::{MoverConfig, OnlineMover};
use ras::topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras::twine::{ContainerSpec, JobSpec, TwineAllocator};
use ras::workloads::StandardServices;

fn materialize(broker: &mut ResourceBroker, mover: &mut OnlineMover, at: SimTime) -> usize {
    mover.execute_targets(broker, at, |_, _| {})
}

#[test]
fn capacity_request_to_running_containers() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 101).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![ReservationSpec::guaranteed(
        "web",
        40.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    let web = broker.register_reservation("web");
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    let moved = materialize(&mut broker, &mut mover, SimTime::ZERO);
    assert!(moved >= 40);

    // Containers land only on reservation members, quickly (small
    // candidate set), and stack.
    let mut twine = TwineAllocator::new();
    let job = twine.submit(
        &region,
        &mut broker,
        JobSpec {
            name: "frontend".into(),
            reservation: web,
            container: ContainerSpec::small(),
            replicas: 25,
            rack_anti_affinity: true,
        },
    );
    assert_eq!(twine.placed_replicas(job), 25);
    for (s, rec) in broker.iter() {
        if rec.running_containers > 0 {
            assert_eq!(rec.current, Some(web), "{s} runs containers outside web");
        }
    }
}

#[test]
fn msb_failure_drill_preserves_guarantee() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 102).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![
        ReservationSpec::guaranteed("web", 50.0, RruTable::uniform(&region.catalog, 1.0)),
        ReservationSpec::guaranteed("feed", 35.0, RruTable::uniform(&region.catalog, 1.0)),
    ];
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");

    // The invariant of Expression 6: after deleting ANY single MSB, every
    // buffered reservation still holds >= Cr RRUs.
    for msb in region.msbs() {
        for (ri, spec) in specs.iter().enumerate() {
            let surviving: f64 = region
                .servers()
                .iter()
                .filter(|s| {
                    s.msb != msb.id
                        && out.targets[s.id.index()] == Some(ReservationId::from_index(ri))
                })
                .map(|s| spec.rru.value(s.hardware))
                .sum();
            assert!(
                surviving >= spec.capacity - 1e-6,
                "{} loses its guarantee when {} fails: {surviving} < {}",
                spec.name,
                msb.id,
                spec.capacity
            );
        }
    }
}

#[test]
fn emergency_grant_then_corrective_solve() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 103).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let mut specs = vec![ReservationSpec::guaranteed(
        "web",
        30.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    broker.register_reservation("web");
    let urgent_spec =
        ReservationSpec::guaranteed("urgent", 20.0, RruTable::uniform(&region.catalog, 1.0));
    let urgent = broker.register_reservation("urgent");
    specs.push(urgent_spec.clone());

    // Emergency path: immediate grant, no placement guarantees.
    let granted = ras::core::emergency::EmergencyPath
        .grant(&region, &urgent_spec, urgent, 20.0, &mut broker)
        .expect("grant");
    assert_eq!(granted.len(), 20);
    // The grant is concentrated (id order) — that's the "suboptimal"
    // emergency allocation.
    let msbs_used: std::collections::HashSet<_> =
        granted.iter().map(|s| region.server(*s).msb).collect();

    // The next solve corrects the placement.
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::from_hours(1)))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    materialize(&mut broker, &mut mover, SimTime::from_hours(1));
    let after: std::collections::HashSet<_> = broker
        .members_of(urgent)
        .into_iter()
        .map(|s| region.server(s).msb)
        .collect();
    assert!(
        after.len() > msbs_used.len(),
        "corrective solve must widen the spread: {} -> {}",
        msbs_used.len(),
        after.len()
    );
    // And the buffer invariant holds afterwards.
    let targets: Vec<_> = broker.iter().map(|(_, r)| r.current).collect();
    let acct = buffers::account(&region, &specs, &targets);
    assert!(acct.max_msb_share[1] < 0.5);
}

#[test]
fn random_failure_replacement_within_a_minute() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 104).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let mut specs = vec![ReservationSpec::guaranteed(
        "web",
        40.0,
        RruTable::uniform(&region.catalog, 1.0),
    )];
    let web = broker.register_reservation("web");
    specs.extend(buffers::shared_buffer_specs(&region, 0.02));
    for s in specs.iter().skip(1) {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    solver.apply(&out, &mut broker).expect("apply");
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    materialize(&mut broker, &mut mover, SimTime::ZERO);
    let healthy_before = broker.member_count(web);

    // Fail one web server.
    let victim = broker.members_of(web)[0];
    broker
        .mark_down(ras::broker::UnavailabilityEvent {
            server: victim,
            kind: ras::broker::UnavailabilityKind::UnplannedHardware,
            scope: ras::topology::ScopeId::Server(victim),
            start: SimTime::from_minutes(90),
            expected_end: None,
        })
        .unwrap();
    let replacements =
        mover.handle_failures(&region, &specs, &mut broker, SimTime::from_minutes(90));
    assert_eq!(replacements.len(), 1);
    let healthy_after = broker
        .members_of(web)
        .into_iter()
        .filter(|s| broker.record(*s).unwrap().is_up())
        .count();
    assert_eq!(healthy_after, healthy_before, "capacity restored");
    let record = mover.log.records().last().unwrap();
    assert!(record.at.since(SimTime::from_minutes(90)) <= 60);
}

#[test]
fn hourly_resolve_converges_to_quiescence() {
    // Re-evaluating an unchanged region hourly must converge: phase 2
    // refines the worst 10 % of reservations per solve (the paper:
    // "we cannot guarantee that rack-related objectives are immediately
    // met for all reservations after one run"), so a few early solves
    // may still shuffle idle servers — but only idle ones, and the churn
    // must die out entirely.
    let region = RegionBuilder::new(RegionTemplate::tiny(), 105).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs = vec![
        ReservationSpec::guaranteed("a", 30.0, RruTable::uniform(&region.catalog, 1.0)),
        ReservationSpec::guaranteed("b", 25.0, RruTable::uniform(&region.catalog, 1.0)),
    ];
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::default();
    let mut mover = OnlineMover::new(&mut broker, MoverConfig::default());
    let mut trail = Vec::new();
    for hour in 0..12 {
        let out = solver
            .solve(&region, &specs, &broker.snapshot(SimTime::from_hours(hour)))
            .expect("solve");
        assert_eq!(out.moves.in_use, 0, "steady state must never preempt");
        trail.push(out.moves.total());
        solver.apply(&out, &mut broker).expect("apply");
        materialize(&mut broker, &mut mover, SimTime::from_hours(hour));
    }
    let early: usize = trail[..3].iter().sum();
    let late: usize = trail[trail.len() - 3..].iter().sum();
    assert!(late < early.max(1), "churn must decline, got {trail:?}");
    assert_eq!(
        *trail.last().unwrap(),
        0,
        "churn must die out, got {trail:?}"
    );
}

#[test]
fn server_bound_to_at_most_one_reservation_always() {
    // Expression 5's invariant at the broker level, across a busy solve.
    let region = RegionBuilder::new(RegionTemplate::tiny(), 106).build();
    let mut broker = ResourceBroker::new(region.server_count());
    let specs: Vec<ReservationSpec> = (0..5)
        .map(|i| {
            ReservationSpec::guaranteed(
                format!("s{i}"),
                25.0,
                RruTable::uniform(&region.catalog, 1.0),
            )
        })
        .collect();
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");
    // Targets are a function ServerId -> Option<ReservationId>; the
    // broker stores exactly one binding per server by construction. What
    // we verify: every reservation's demand is met without stealing.
    let mut seen = vec![0usize; region.server_count()];
    for (i, t) in out.targets.iter().enumerate() {
        if t.is_some() {
            seen[i] += 1;
        }
    }
    assert!(seen.iter().all(|c| *c <= 1));
    for ri in 0..specs.len() {
        let members = out
            .targets
            .iter()
            .filter(|t| **t == Some(ReservationId::from_index(ri)))
            .count();
        assert!(members >= 25, "reservation {ri} under-allocated: {members}");
    }
    let _ = ServerId(0);
}

/// The phase body has two entry points — a fresh solver's round and the
/// stateless `run_phase` — and on the same snapshot they are one solve:
/// same model, same search, same softening, same targets.
#[test]
fn fresh_session_round_and_run_phase_are_one_solve() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 107).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let oversubscribed = region.server_count() as f64 * 3.0;
    for (capacities, softens) in [([40.0, 25.0], false), ([oversubscribed, 25.0], true)] {
        let specs = vec![
            ReservationSpec::guaranteed("web", capacities[0], rru.clone()),
            ReservationSpec::guaranteed("feed", capacities[1], rru.clone()),
        ];
        let mut broker = ResourceBroker::new(region.server_count());
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        let snapshot = broker.snapshot(SimTime::ZERO);
        let params = SolverParams::default();

        let outcome = AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snapshot)
            .expect("solver round");
        let (targets, stats) = run_phase(
            &region,
            &specs,
            &snapshot,
            &params,
            Granularity::Msb,
            false,
            None,
        )
        .expect("run_phase");

        let phase1 = &outcome.phase1;
        assert_eq!(phase1.objective.to_bits(), stats.objective.to_bits());
        assert_eq!(phase1.assignment_vars, stats.assignment_vars);
        assert_eq!(phase1.mip_stats.nodes, stats.mip_stats.nodes);
        assert_eq!(
            phase1.mip_stats.simplex_iterations,
            stats.mip_stats.simplex_iterations
        );
        assert_eq!(phase1.softened, stats.softened);
        assert_eq!(!stats.softened.is_empty(), softens);
        if outcome.phase2.is_none() {
            assert_eq!(outcome.targets, targets);
        }
    }
}

/// FNV-1a over a target vector (`None` hashes as `u32::MAX`).
fn fnv_targets(targets: &[Option<ReservationId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in targets {
        for b in t.map_or(u32::MAX, |r| r.index() as u32).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One warm session over eight scripted rounds, pinned bit for bit.
/// The goldens were first printed at the commit that still cached the
/// phase-1 model between rounds (63e5252), held when the model cache and
/// the seed incumbent went, and were re-printed when the carried root
/// basis went: every round's hard phase-1 root now goes dual-first from
/// the running plan (0 phase-1 iterations, every pivot a dual one)
/// instead of round 0's primal crash and later rounds' remapped basis.
/// Objectives are equal or a last bit lower (rounds 1–4: 2 015.78 in
/// both); the targets of rounds 0–4 and 6–7 are an equal-cost re-roll.
/// Rounds 6–7's targets re-rolled once more, at equal cost, when dive
/// steps after the first started keeping their basis factors.
#[test]
fn session_rounds_are_bit_identical_to_the_skeleton_cache() {
    // (objective bits, nodes, simplex iterations, root phase-1
    // iterations, dual iterations, FNV of the targets, dual_resolve)
    type Golden = (u64, usize, usize, usize, usize, u64, bool);
    #[rustfmt::skip]
    const GOLDEN: [Golden; 8] = [
        (4656580309642505093, 1, 40, 0, 40, 8507849874230293517, true),
        (4656580309642505092, 1, 47, 0, 47, 8507849874230293517, true),
        (4656580309642505092, 1, 47, 0, 47, 8507849874230293517, true),
        (4656580309642505092, 1, 47, 0, 47, 8507849874230293517, true),
        (4656580309642505092, 1, 47, 0, 47, 8507849874230293517, true),
        (4656580309642505092, 1, 39, 0, 39, 5872348582248296945, true),
        (4656992142717804872, 1, 39, 0, 39, 2880135999254866745, true),
        (4656992142717804872, 1, 37, 0, 37, 2880135999254866745, true),
    ];

    let region = RegionBuilder::new(RegionTemplate::tiny(), 108).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let mut specs = vec![
        ReservationSpec::guaranteed("web", 40.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 25.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let take_down = |broker: &mut ResourceBroker, server: ServerId, hour: u64| {
        broker
            .mark_down(UnavailabilityEvent {
                server,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(server),
                start: SimTime::from_hours(hour),
                expected_end: None,
            })
            .expect("mark down");
    };

    // The goldens were printed at the 48-node stall budget.
    let mut solver = AsyncSolver::new(SolverParams {
        stall_node_limit: 48,
        ..SolverParams::default()
    });
    for (round, golden) in GOLDEN.iter().enumerate() {
        let hour = round as u64;
        match round {
            4 => {
                let free = broker.unbound().next().expect("a free server");
                take_down(&mut broker, free, hour);
            }
            5 => {
                let busy = broker
                    .members(ReservationId::from_index(0))
                    .find(|s| broker.record(*s).is_ok_and(|r| r.running_containers > 0))
                    .expect("an in-use server");
                take_down(&mut broker, busy, hour);
            }
            6 => specs[1].capacity = 30.0,
            // Round 0 is cold and its plan is applied; 1 sees the applied
            // bindings for the first time; 2, 3 and 7 see nothing new.
            _ => {}
        }
        let out = solver
            .solve(&region, &specs, &broker.snapshot(SimTime::from_hours(hour)))
            .expect("solve");
        let stats = &out.phase1.mip_stats;
        let got: Golden = (
            out.phase1.objective.to_bits(),
            stats.nodes,
            stats.simplex_iterations,
            stats.root_phase1_iterations,
            stats.dual_iterations,
            fnv_targets(&out.targets),
            out.warm.dual_resolve,
        );
        assert_eq!(got, *golden, "round {round}");

        solver.apply(&out, &mut broker).expect("apply");
        for s in broker.pending_moves() {
            let target = broker.record(s).expect("record").target;
            broker.bind_current(s, target).expect("bind");
        }
        if round == 0 {
            // Every third web server runs containers from here on, so
            // the key set carries in-use classes.
            let web: Vec<ServerId> = broker
                .members(ReservationId::from_index(0))
                .step_by(3)
                .collect();
            for s in web {
                broker.set_running_containers(s, 2).expect("containers");
            }
        }
    }
}

/// The sharded twin of the golden above: one solver per shard count
/// (2 and 3) over six scripted rounds — cold, first applied bindings,
/// a free and a busy server failing, a resize that keeps the partition,
/// a quiet round — pinned bit for bit. The aggregate objective is the
/// merged plan's regional score; nodes and iterations sum over shards.
/// The goldens were printed by this body at 08e3efe, where the round
/// still ran through two stacked session types, re-printed from k=2
/// round 2 and k=3 round 1 on when the seed incumbent went (it offered
/// each shard its own plan from before reconcile released the surplus),
/// and re-printed whole when the carried root basis went: every shard's
/// hard phase-1 root, round 0's included, goes dual-first from the
/// running plan. Merged objectives are equal but for k=2 round 1
/// (2 025.78 → 2 165.78) and round 5 (2 240.84 → 2 170.84). The k=3
/// rows were re-printed when dive steps after the first started keeping
/// their basis factors: objectives equal, targets an equal-cost re-roll,
/// node and iteration counts moved (k=2 did not move).
#[test]
fn sharded_rounds_are_bit_identical_across_warm_rounds() {
    // (shards, objective bits, nodes, simplex iterations, FNV of the
    // targets, reconcile releases, dual_resolve)
    type Golden = (usize, u64, usize, usize, u64, usize, bool);
    #[rustfmt::skip]
    const GOLDEN: [[Golden; 6]; 2] = [
        [
            (2, 4656580309642505093, 98, 213, 16825221997968682589, 22, true),
            (2, 4656981015660131778, 1388, 1830, 11512987800890292237, 22, true),
            (2, 4656580309642505093, 182, 504, 11512987800890292237, 22, true),
            (2, 4656580309642505093, 182, 505, 12683028391028682289, 22, true),
            (2, 4656992142717804872, 98, 312, 4328245023836969497, 22, true),
            (2, 4656992142717804872, 174, 468, 4328245023836969497, 22, true),
        ],
        [
            (3, 4656580309642505093, 439, 627, 6040956373685571053, 70, true),
            (3, 4656580309642505093, 500, 879, 6040956373685571053, 60, true),
            (3, 4656580309642505093, 500, 879, 6040956373685571053, 60, true),
            (3, 4656580309642505093, 533, 905, 13360932092372599057, 60, true),
            (3, 4656992142717804872, 468, 790, 1065865291354184553, 60, true),
            (3, 4656992142717804872, 352, 622, 1065865291354184553, 60, true),
        ],
    ];

    for (k, goldens) in [2usize, 3].into_iter().zip(&GOLDEN) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 108).build();
        let rru = RruTable::uniform(&region.catalog, 1.0);
        let mut specs = vec![
            ReservationSpec::guaranteed("web", 40.0, rru.clone()),
            ReservationSpec::guaranteed("feed", 25.0, rru),
        ];
        let mut broker = ResourceBroker::new(region.server_count());
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        // The goldens were printed at the 48-node stall budget.
        let mut solver = AsyncSolver::new(SolverParams {
            shards: k,
            stall_node_limit: 48,
            ..SolverParams::default()
        });
        for (round, golden) in goldens.iter().enumerate() {
            let hour = round as u64;
            let down = match round {
                2 => broker.unbound().next(),
                3 => broker
                    .members(ReservationId::from_index(0))
                    .find(|s| broker.record(*s).is_ok_and(|r| r.running_containers > 0)),
                4 => {
                    specs[1].capacity = 30.0;
                    None
                }
                _ => None,
            };
            if let Some(server) = down {
                broker
                    .mark_down(UnavailabilityEvent {
                        server,
                        kind: UnavailabilityKind::UnplannedHardware,
                        scope: ScopeId::Server(server),
                        start: SimTime::from_hours(hour),
                        expected_end: None,
                    })
                    .expect("mark down");
            }
            let out = solver
                .solve(&region, &specs, &broker.snapshot(SimTime::from_hours(hour)))
                .expect("solve");
            let sharded = out.sharded.as_ref().expect("a sharded round");
            let stats = &out.phase1.mip_stats;
            let got: Golden = (
                sharded.shards.len(),
                out.phase1.objective.to_bits(),
                stats.nodes,
                stats.simplex_iterations,
                fnv_targets(&out.targets),
                sharded.reconcile.released,
                out.warm.dual_resolve,
            );
            assert_eq!(got, *golden, "k={k} round {round}");

            solver.apply(&out, &mut broker).expect("apply");
            for s in broker.pending_moves() {
                let target = broker.record(s).expect("record").target;
                broker.bind_current(s, target).expect("bind");
            }
            if round == 0 {
                let web: Vec<ServerId> = broker
                    .members(ReservationId::from_index(0))
                    .step_by(3)
                    .collect();
                for s in web {
                    broker.set_running_containers(s, 2).expect("containers");
                }
            }
        }
    }
}

/// The medium-region twin of the sharded golden above, on the inputs
/// that reach reconcile's eligibility filter and most class keys: a
/// medium region, the six Figure-4 service profiles (each eligible on
/// two to ten hardware types, at its own RRU values, with an MSB
/// buffer), an unbuffered shared buffer and one elastic reservation the
/// solver cannot see, at shard counts 2 and 3 over five warm rounds after the cold
/// one: servers bound to the elastic reservation and to reservations
/// their hardware does not serve, containers on a third of the first
/// reservation, unplanned and planned outages, their recovery and a
/// resize. Every round pins the merged objective, the work counters,
/// the targets, both reconcile figures and the warm flags bit for bit.
/// The goldens were printed by this body at 8393098, where each shard
/// walked the region to class its servers and reconcile walked it once
/// per reservation, re-printed from k=2 round 3 and k=3 round 2 on
/// when the seed incumbent went, and re-printed whole when the carried
/// root basis went (see the golden above): k=3 plans 1.2–2.5 % cheaper
/// every round; k=2 plans within 0.3 % in rounds 0 and 3, 1.3–1.4 %
/// cheaper in rounds 1–2 and 2.1 % and 6.6 % dearer in rounds 4 and 5.
/// Re-printed whole when dive steps after the first started keeping
/// their basis factors (round 0's objectives stay): k=2 rounds 1–5
/// 5 497.85/5 454.09/5 434.11/5 538.81/5 808.83 →
/// 5 522.48/5 452.48/5 565.76/5 459.69/5 460.95, k=3 rounds 1–2
/// 5 982.96/6 012.95 → 6 002.95/6 052.95 and rounds 3–5 equal.
#[test]
fn sharded_portfolio_rounds_are_bit_identical_across_warm_rounds() {
    // (shards, objective bits, nodes, simplex iterations, FNV of the
    // targets, reconcile releases, released RRU bits, dual_resolve)
    type Golden = (usize, u64, usize, usize, u64, usize, u64, bool);
    #[rustfmt::skip]
    const GOLDEN: [[Golden; 6]; 2] = [
        [
            (2, 4664387886735761074, 192, 878, 4096959154344206748, 37, 4631603187779433922, true),
            (2, 4662794045675253270, 684, 3623, 644008936565368908, 37, 4631492005163633213, true),
            (2, 4662717079861308948, 815, 4048, 6077136568275585277, 37, 4631669334398960926, true),
            (2, 4662841632538503413, 827, 3463, 14437501769248853785, 40, 4631753776891974124, true),
            (2, 4662725007340145213, 664, 3556, 6767669487733740617, 37, 4631715777770118185, true),
            (2, 4662726392724796211, 706, 3977, 15058638584132727921, 36, 4631448376542243062, true),
        ],
        [
            (3, 4665037566166381357, 322, 1166, 7022090469533840407, 162, 4640545999633252352, true),
            (3, 4663322328027050803, 1194, 3229, 4485030504424489567, 152, 4640207174130036900, true),
            (3, 4663377303608439604, 1256, 3427, 12252604790532347390, 152, 4640207174130036900, true),
            (3, 4663279743941707038, 1208, 3518, 12252604790532347390, 150, 4640136805385859236, true),
            (3, 4663285989167752806, 862, 2519, 741089018528142598, 153, 4640279302092819006, true),
            (3, 4663285989167752806, 938, 3266, 741089018528142598, 153, 4640279302092819006, true),
        ],
    ];

    for (k, goldens) in [2usize, 3].into_iter().zip(&GOLDEN) {
        let region = RegionBuilder::new(RegionTemplate::medium(), 5).build();
        let units = (region.server_count() as f64 * 0.015).round();
        let mut specs: Vec<ReservationSpec> = StandardServices::all()
            .iter()
            .map(|p| p.reservation(&region.catalog, units))
            .collect();
        let uniform = RruTable::uniform(&region.catalog, 1.0);
        specs.push(ReservationSpec::shared_buffer(
            "buffer",
            100.0,
            uniform.clone(),
        ));
        let loan = ReservationId::from_index(specs.len());
        specs.push(ReservationSpec::elastic("loan", uniform));
        let mut broker = ResourceBroker::new(region.server_count());
        for s in &specs {
            broker.register_reservation(&s.name);
        }
        // Before the cold round: every 97th server lent to the elastic
        // reservation, and every 89th bound to the first reservation
        // whose table does not list its hardware.
        for server in region.servers() {
            let i = server.id.index();
            let binding = if i % 97 == 0 {
                Some(loan)
            } else if i % 89 == 0 {
                specs
                    .iter()
                    .position(|s| !s.rru.eligible(server.hardware))
                    .map(ReservationId::from_index)
            } else {
                None
            };
            if binding.is_some() {
                broker.bind_current(server.id, binding).expect("bind");
            }
        }
        // The goldens were printed at the 48-node stall budget.
        let mut solver = AsyncSolver::new(SolverParams {
            shards: k,
            stall_node_limit: 48,
            ..SolverParams::default()
        });
        let mut downed: Vec<ServerId> = Vec::new();
        for (round, golden) in goldens.iter().enumerate() {
            let now = SimTime::from_hours(round as u64);
            match round {
                // A free server, a busy one of the first reservation and
                // a server of the second fail; one more goes into
                // planned maintenance.
                2 => {
                    let busy = broker
                        .members(ReservationId::from_index(0))
                        .find(|s| broker.record(*s).is_ok_and(|r| r.running_containers > 0));
                    let picks = [
                        broker.unbound().nth(11),
                        busy,
                        broker.members(ReservationId::from_index(1)).nth(3),
                    ];
                    for server in picks.into_iter().flatten() {
                        broker
                            .mark_down(UnavailabilityEvent {
                                server,
                                kind: UnavailabilityKind::UnplannedHardware,
                                scope: ScopeId::Server(server),
                                start: now,
                                expected_end: None,
                            })
                            .expect("mark down");
                        downed.push(server);
                    }
                    let maintained = broker.members(ReservationId::from_index(2)).nth(5);
                    if let Some(server) = maintained {
                        broker
                            .mark_down(UnavailabilityEvent {
                                server,
                                kind: UnavailabilityKind::PlannedMaintenance,
                                scope: ScopeId::Server(server),
                                start: now,
                                expected_end: Some(now.plus_hours(2)),
                            })
                            .expect("maintenance");
                        downed.push(server);
                    }
                }
                // Everything that went down comes back.
                3 => {
                    for server in downed.drain(..) {
                        broker.mark_up(server, now).expect("mark up");
                    }
                }
                // The second reservation grows by a fifth.
                4 => specs[1].capacity = (specs[1].capacity * 1.2).round(),
                _ => {}
            }
            let out = solver
                .solve(&region, &specs, &broker.snapshot(now))
                .expect("solve");
            let sharded = out.sharded.as_ref().expect("a sharded round");
            let stats = &out.phase1.mip_stats;
            let got: Golden = (
                sharded.shards.len(),
                out.phase1.objective.to_bits(),
                stats.nodes,
                stats.simplex_iterations,
                fnv_targets(&out.targets),
                sharded.reconcile.released,
                sharded.reconcile.released_rru.to_bits(),
                out.warm.dual_resolve,
            );
            assert_eq!(got, *golden, "k={k} round {round}");

            solver.apply(&out, &mut broker).expect("apply");
            for s in broker.pending_moves() {
                let target = broker.record(s).expect("record").target;
                broker.bind_current(s, target).expect("bind");
            }
            if round == 0 {
                let first: Vec<ServerId> = broker
                    .members(ReservationId::from_index(0))
                    .step_by(3)
                    .collect();
                for s in first {
                    broker.set_running_containers(s, 2).expect("containers");
                }
            }
        }
    }
}

/// What a round of the audited portfolio pins: (objective bits, nodes,
/// simplex iterations, planned moves, phase 2 ran, FNV of the targets).
type PortfolioRound = (u64, usize, usize, usize, bool, u64);

/// One audited solver over three continuous rounds of the 24-spec
/// medium portfolio at 0.85 (the over-subscribed loop's instance): each
/// round's plan is applied and a fixed set of servers fails before the
/// next.
fn audited_portfolio_rounds(params: SolverParams) -> Vec<PortfolioRound> {
    let (region, specs) = ras_bench::instance::portfolio(RegionTemplate::medium(), 2, 24, 0.85);
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::new(params);
    let n = region.server_count();
    let mut downed: Vec<ServerId> = Vec::new();
    let mut rounds = Vec::new();
    for round in 0..3 {
        let hour = round as u64;
        let now = SimTime::from_hours(hour);
        if round > 0 {
            // Fixed churn: last round's failures recover and a fresh 2 %
            // of the fleet, at positions shifted by the round, fails.
            for s in downed.drain(..) {
                broker.mark_up(s, now).expect("mark up");
            }
            for k in 0..n / 50 {
                let server = ServerId::from_index((round * 7_919 + k * 47) % n);
                broker
                    .mark_down(UnavailabilityEvent {
                        server,
                        kind: UnavailabilityKind::UnplannedHardware,
                        scope: ScopeId::Server(server),
                        start: now,
                        expected_end: Some(now.plus_hours(1)),
                    })
                    .expect("mark down");
                downed.push(server);
            }
        }
        let out = solver
            .solve(&region, &specs, &broker.snapshot(now))
            .expect("solve");
        let stats = &out.phase1.mip_stats;
        rounds.push((
            out.phase1.objective.to_bits(),
            stats.nodes,
            stats.simplex_iterations,
            out.moves.total(),
            out.phase2.is_some(),
            fnv_targets(&out.targets),
        ));

        solver.apply(&out, &mut broker).expect("apply");
        for s in broker.pending_moves() {
            let target = broker.record(s).expect("record").target;
            broker.bind_current(s, target).expect("bind");
        }
    }
    rounds
}

/// The audited portfolio pinned bit for bit to cb899d5, the last commit
/// that still carried the spec-clustering reduction beside the
/// equivalence classes, so the round's one reduction is shown to plan
/// exactly as the two-level pipeline did at its default level. Re-printed
/// when dive steps after the first started keeping their basis factors,
/// which re-rolls every dive: objectives 4 296 165.45 / 5 572 394.21 /
/// 5 634 812.94 → 4 286 125.45 / 5 552 229.21 / 5 438 311.04, and round 2
/// now plans 91 moves and runs phase 2 (it planned none).
#[test]
fn audited_portfolio_rounds_are_bit_identical_to_the_two_level_reduction() {
    #[rustfmt::skip]
    const GOLDEN: [PortfolioRound; 3] = [
        (4706360203133373645, 55, 4197, 0, true, 13510764273883801588),
        (4707719671694009304, 51, 7652, 0, false, 13510764273883801588),
        (4707597352990366761, 63, 9404, 91, true, 8304378260606650943),
    ];
    // The goldens were printed at the 48-node stall budget.
    let rounds = audited_portfolio_rounds(SolverParams {
        stall_node_limit: 48,
        ..SolverParams::default()
    });
    for (round, (got, golden)) in rounds.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(got, golden, "round {round}");
    }
}

/// The audited portfolio at the default settings, so a change to the
/// default stall budget shows here while the goldens above keep the
/// budget they were printed at. Printed by this body at the commit that
/// lowered the budget from 48 to 8, and re-printed with the goldens above;
/// against the 48-node goldens only the node and simplex iteration counts
/// differ.
#[test]
fn audited_portfolio_rounds_are_pinned_at_the_default_stall_budget() {
    #[rustfmt::skip]
    const GOLDEN: [PortfolioRound; 3] = [
        (4706360203133373645, 15, 4137, 0, true, 13510764273883801588),
        (4707719671694009304, 11, 7012, 0, false, 13510764273883801588),
        (4707597352990366761, 8, 7824, 91, true, 8304378260606650943),
    ];
    let rounds = audited_portfolio_rounds(SolverParams::default());
    for (round, (got, golden)) in rounds.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(got, golden, "round {round}");
    }
}

/// Same inputs, same plan: two worlds built from nothing and run at the
/// default settings, audited, must agree on every round of a churning
/// fleet, so applying either plan leaves the two brokers in identical
/// states. A `HashMap` iteration order leaking into the model, the
/// search or the concretized targets shows up here as a diverging round.
#[test]
fn same_inputs_reproduce_targets_bit_for_bit() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 11).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", 40.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 20.0, rru),
    ];

    let mut worlds: Vec<(AsyncSolver, ResourceBroker)> = (0..2)
        .map(|_| {
            let mut broker = ResourceBroker::new(region.server_count());
            for s in &specs {
                broker.register_reservation(&s.name);
            }
            (AsyncSolver::new(SolverParams::default()), broker)
        })
        .collect();

    for round in 0..3u64 {
        // Deterministic churn, applied identically to both worlds.
        for k in 0..3usize {
            let victim =
                ServerId::from_index((round as usize * 17 + k * 5) % region.server_count());
            for (_, broker) in worlds.iter_mut() {
                let _ = broker.mark_down(UnavailabilityEvent {
                    server: victim,
                    kind: UnavailabilityKind::UnplannedHardware,
                    scope: ScopeId::Server(victim),
                    start: SimTime::from_hours(round),
                    expected_end: None,
                });
            }
        }
        let mut targets = Vec::new();
        for (solver, broker) in worlds.iter_mut() {
            let snapshot = broker.snapshot(SimTime::from_hours(round));
            let output = solver
                .solve(&region, &specs, &snapshot)
                .expect("round must solve");
            solver.apply(&output, broker).expect("apply");
            for s in broker.pending_moves() {
                let target = broker.record(s).map(|r| r.target).unwrap_or(None);
                let _ = broker.bind_current(s, target);
            }
            targets.push((output.targets.clone(), output.phase1.objective));
        }
        assert_eq!(
            targets[0].0, targets[1].0,
            "round {round}: both worlds' targets must be identical"
        );
        assert_eq!(
            targets[0].1.to_bits(),
            targets[1].1.to_bits(),
            "round {round}: objectives must agree to the bit"
        );
    }
}
