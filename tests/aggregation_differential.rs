//! Differential tests for the two-sided aggregation pipeline:
//!
//! * determinism: two fresh solver + broker worlds fed the same churn
//!   produce the same targets, bit for bit, on every round — same
//!   inputs, same plan;
//! * property: clustering reservations with identical fungibility
//!   footprints and disaggregating the reduced solution lands within the
//!   documented sharded tolerance of the exact (Classes-level) solve,
//!   and stays capacity-feasible;
//! * a continuous clustered session tracks the exact solve round over
//!   round and certifies every exact-model ratchet it runs.

#![recursion_limit = "512"]

use proptest::prelude::*;
use ras::broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras::core::rru::RruTable;
use ras::core::{
    evaluate_targets, sharded_tolerance, AggregationLevel, AsyncSolver, AuditMode, ReservationSpec,
    SolverParams,
};
use ras::topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};

fn params_at(level: AggregationLevel) -> SolverParams {
    SolverParams {
        aggregation: level,
        audit: AuditMode::On,
        ..SolverParams::default()
    }
}

/// Same inputs, same plan: two worlds built from nothing and run at the
/// default level must agree on every round of a churning fleet, so
/// applying either plan leaves the two brokers in identical states. A
/// `HashMap` iteration order leaking into the model, the search or the
/// concretized targets shows up here as a diverging round.
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
            let params = params_at(AggregationLevel::default());
            (AsyncSolver::new(params), broker)
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

fn arb_portfolio() -> impl Strategy<Value = (u64, f64, f64, Option<f64>)> {
    // Seed, two same-footprint sizes, and optionally a third reservation
    // with a scaled RRU table (a distinct footprint that must NOT join
    // the cluster). The cluster sizes keep the summed capacity ≥ 50 RRUs
    // so the aggregate's k·v_max rounding margin (2 RRUs here) stays an
    // order of magnitude inside the 5 % sharded tolerance — the margin
    // is additive, so vanishingly small reservations would drown in it.
    (
        0u64..500,
        25.0f64..45.0,
        25.0f64..45.0,
        prop::option::of(15.0f64..30.0),
    )
}

/// One case of the aggregate-then-disaggregate soundness property; any
/// violation comes back as an error message for proptest to minimize.
fn check_clusters_match_exact(seed: u64, a: f64, b: f64, extra: Option<f64>) -> Result<(), String> {
    let region = RegionBuilder::new(RegionTemplate::tiny(), seed).build();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let mut specs = vec![
        ReservationSpec::guaranteed("web", a.round(), rru.clone()),
        ReservationSpec::guaranteed("feed", b.round(), rru.clone()),
    ];
    if let Some(c) = extra {
        // A doubled RRU table is a different fungibility footprint.
        specs.push(ReservationSpec::guaranteed(
            "batch",
            c.round(),
            RruTable::uniform(&region.catalog, 2.0),
        ));
    }
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let snapshot = broker.snapshot(SimTime::ZERO);

    let exact_params = params_at(AggregationLevel::Classes);
    let exact = AsyncSolver::new(exact_params.clone())
        .solve(&region, &specs, &snapshot)
        .map_err(|e| format!("exact solve: {e}"))?;
    let clustered = AsyncSolver::new(params_at(AggregationLevel::Clusters))
        .solve(&region, &specs, &snapshot)
        .map_err(|e| format!("clustered solve: {e}"))?;

    let exact_score = evaluate_targets(&region, &specs, &snapshot, &exact_params, &exact.targets);
    let clustered_score = evaluate_targets(
        &region,
        &specs,
        &snapshot,
        &exact_params,
        &clustered.targets,
    );
    let tol = sharded_tolerance(2, &exact_params, exact_score.objective);
    if (clustered_score.objective - exact_score.objective).abs() > tol {
        return Err(format!(
            "clustered {} vs exact {} exceeds tolerance {tol}",
            clustered_score.objective, exact_score.objective
        ));
    }
    if !clustered_score.capacity_feasible(exact_params.mip_abs_gap + 1e-6) {
        return Err("disaggregated plan must stay capacity-feasible".into());
    }
    if clustered.phase1.reduction.spec_clusters < 1 {
        return Err("web+feed share a footprint and must cluster".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Aggregate-then-disaggregate is sound: the clustered solve scores
    // within the sharded tolerance of the exact Classes-level solve and
    // never loses capacity feasibility.
    #[test]
    fn clusters_match_exact_within_tolerance(case in arb_portfolio()) {
        let (seed, a, b, extra) = case;
        if let Err(msg) = check_clusters_match_exact(seed, a, b, extra) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Over a churning continuous run the clustered session must track the
/// Classes-level session within tolerance on every round, with every
/// exact-model ratchet it runs coming back clean.
#[test]
fn clustered_session_tracks_exact_across_rounds() {
    use ras::sim::continuous::{run_continuous, ContinuousConfig};

    let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
    let run = |level| {
        run_continuous(
            &region,
            &ContinuousConfig {
                rounds: 4,
                churn_fraction: 0.02,
                params: SolverParams {
                    aggregation: level,
                    audit: AuditMode::On,
                    exact_ratchet_interval: 2,
                    ..SolverParams::default()
                },
                ..ContinuousConfig::default()
            },
        )
    };
    let exact = run(AggregationLevel::Classes);
    let clustered = run(AggregationLevel::Clusters);
    let params = params_at(AggregationLevel::Clusters);
    for (c, e) in clustered.iter().zip(&exact) {
        assert!(
            c.audit_certified && c.audit_violations == 0,
            "round {} must certify clean",
            c.round
        );
        let tol = sharded_tolerance(2, &params, e.phase1.objective);
        assert!(
            (c.phase1.objective - e.phase1.objective).abs() <= tol,
            "round {}: clustered {} vs exact {} exceeds tolerance {}",
            c.round,
            c.phase1.objective,
            e.phase1.objective,
            tol
        );
        assert!(
            !c.ratchet_checked || c.ratchet_ok,
            "round {}: ratchet gap {} out of tolerance",
            c.round,
            c.warm.ratchet_gap
        );
    }
    assert!(clustered.iter().any(|r| r.ratchet_checked));
}
