//! Round 0 at paper scale finishes its root LP.
//!
//! A region of 104 400 servers with a 100-request Figure-4 portfolio at
//! 40 % utilization, solved from an empty broker. Its cold root LP is far
//! past the size gate, so it goes dual-first from the empty plan
//! (`ras::milp::simplex`, "Cold solves"): no primal phase 1, a finite
//! bound, every phase certified. On the primal two-phase path this round
//! ran into the simplex's iteration cap with no bound at all
//! (EXPERIMENTS *One cold start*). No wall clock is asserted; the test
//! needs `--release`, where it takes a few seconds.

use ras::broker::SimTime;
use ras::core::{AsyncSolver, SolverParams};
use ras::topology::RegionTemplate;
use ras_bench::instance;

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
fn paper_scale_round_zero_goes_dual_first_with_a_finite_bound() {
    let (region, specs) = instance::portfolio(paper(), 1, 100, 0.40);
    assert_eq!(region.server_count(), 104_400);
    let broker = instance::broker_for(&region, &specs);
    let output = AsyncSolver::new(SolverParams {
        shards: 4,
        phase_time_limit: 60.0,
        ..SolverParams::default()
    })
    .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
    .expect("round 0 solves");

    let stats = &output.phase1.mip_stats;
    assert!(
        stats.root_used_dual_simplex,
        "the cold root went dual-first"
    );
    assert_eq!(stats.root_phase1_iterations, 0);
    assert!(stats.best_bound.is_finite(), "bound {}", stats.best_bound);
    for (i, phase) in output.audit_phases().iter().enumerate() {
        let audit = &phase.mip_stats.audit;
        assert!(
            audit.model_checked && audit.certified_clean(),
            "phase {i}: {audit:?}"
        );
    }
}
