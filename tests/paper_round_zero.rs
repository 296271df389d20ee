//! Paper-scale rounds start their root from the running plan.
//!
//! A region of 104 400 servers with a 100-request Figure-4 portfolio at
//! 40 % utilization, solved for three rounds by one solver from an empty
//! broker, each round's plan materialized before the next as
//! `ras_bench::instance::Instance::solve_round` does. Every hard phase-1
//! root goes dual-first from the slack basis (`ras::milp::simplex`,
//! "Cold solves"): round 0's from the empty plan, rounds 1 and 2's from
//! the plan the round before put in place. No round carries a basis, so
//! no warm attempt is refused and thrown away: with the name-remapped
//! basis rounds 1 and 2 spent 2.4–26 s in its dual repair, one refused
//! attempt running 79 531 pivots (EXPERIMENTS *One root start*), and on
//! the primal two-phase path round 0 ran into the iteration cap with no
//! bound at all (EXPERIMENTS *One cold start*). Each round must publish a
//! finite bound and certify every phase. No wall clock is asserted; the
//! seconds are printed (`--nocapture`). The test needs `--release`,
//! where it takes seconds.

use std::time::Instant;

use ras::broker::SimTime;
use ras::core::{AsyncSolver, SolverParams};
use ras::topology::RegionTemplate;
use ras_bench::instance::{self, Instance};

/// The 104 400-server template of `bench_e2e`'s `fleet-paper-uniform`.
fn paper() -> RegionTemplate {
    RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 9,
        power_rows_per_msb: 10,
        racks_per_power_row: 29,
        servers_per_rack: 10,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a paper-scale round needs --release")]
fn paper_scale_rounds_go_dual_first_from_the_plan() {
    let (region, specs) = instance::portfolio(paper(), 1, 100, 0.40);
    assert_eq!(region.server_count(), 104_400);
    let params = SolverParams {
        shards: 4,
        phase_time_limit: 60.0,
        ..SolverParams::default()
    };
    let mut inst = Instance {
        broker: instance::broker_for(&region, &specs),
        region,
        specs,
        params: params.clone(),
    };
    let mut solver = AsyncSolver::new(params);
    for round in 0..3u64 {
        let start = Instant::now();
        let output = inst
            .solve_round(&mut solver, SimTime::from_hours(round))
            .unwrap_or_else(|e| panic!("round {round} solves: {e}"));
        let stats = &output.phase1.mip_stats;
        eprintln!(
            "round {round}: root {:.3} s, round {:.3} s, {} pivots, sharded {}",
            stats.root_lp_seconds,
            start.elapsed().as_secs_f64(),
            stats.simplex_iterations,
            output.sharded.is_some()
        );
        assert!(
            stats.root_used_dual_simplex,
            "round {round}: the root went dual-first"
        );
        assert_eq!(stats.root_phase1_iterations, 0, "round {round}");
        assert_eq!(
            stats.root_discarded_seconds, 0.0,
            "round {round}: no attempt was thrown away"
        );
        assert!(
            stats.best_bound.is_finite(),
            "round {round}: bound {}",
            stats.best_bound
        );
        for (i, phase) in output.audit_phases().iter().enumerate() {
            let audit = &phase.mip_stats.audit;
            assert!(
                audit.model_checked && audit.certified_clean(),
                "round {round}, phase {i}: {audit:?}"
            );
        }
    }
}
