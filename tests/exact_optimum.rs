//! Exact-optimum oracle: on regions small enough to enumerate, every
//! phase-1 solve's bound and objective are checked against the true
//! optimum of its own model.
//!
//! Each case builds a one-datacenter region of two or three MSBs with one
//! rack of two or three servers each, binds some servers to one of two
//! guaranteed reservations (some with running containers), and builds the
//! phase-1 model the way a round does. Every class-count matrix is then
//! valued with the model's own [`RasModel::incumbent_from_counts`] (whose
//! auxiliary replay is the cheapest completion of a count matrix, every
//! auxiliary cost being positive), kept when [`Model::violations`] finds
//! nothing, and scored with the model's objective. A solve whose
//! `best_bound` exceeds that minimum over-claims its bound, and one whose
//! objective falls below it reports a plan the model cannot have. The
//! search finds the optimum of every case when it runs, so one solve per
//! case stops at its root LP on the supplied plans. Where those are worse
//! than the optimum, the bound is checked where the solver's own
//! `best_bound ≤ objective` cannot see an over-claim.
//!
//! [`RasModel::incumbent_from_counts`]: ras::core::model::RasModel::incumbent_from_counts
//! [`Model::violations`]: ras::milp::Model::violations

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras::broker::{ResourceBroker, SimTime};
use ras::core::heuristic::greedy_counts;
use ras::core::model::{build_model_labeled, RasModel};
use ras::core::rru::RruTable;
use ras::core::{build_reduction, ReservationSpec, SolverParams};
use ras::milp::{SolveConfig, SolveError};
use ras::topology::{RegionBuilder, RegionTemplate, ServerId};

/// Feasibility and objective tolerance of the oracle.
const TOL: f64 = 1e-6;

/// Every count vector one class can take: per reservation with a
/// variable, any count, the row summing to at most the class's size.
fn class_options(vars: &[Option<ras::milp::Var>], size: usize) -> Vec<Vec<usize>> {
    let mut options = vec![vec![0; vars.len()]];
    for (ri, var) in vars.iter().enumerate() {
        if var.is_none() {
            continue;
        }
        let mut grown = Vec::new();
        for option in &options {
            let used: usize = option.iter().sum();
            for n in 0..=size - used {
                let mut next = option.clone();
                next[ri] = n;
                grown.push(next);
            }
        }
        options = grown;
    }
    options
}

/// The model's optimum over every class-count matrix, `None` when no
/// matrix is feasible, with the number of matrices enumerated.
fn enumerated_optimum(ras: &RasModel, class_sizes: &[usize]) -> (Option<f64>, usize) {
    let options: Vec<Vec<Vec<usize>>> = ras
        .vars
        .iter()
        .zip(class_sizes)
        .map(|(vars, size)| class_options(vars, *size))
        .collect();
    let mut pick = vec![0usize; options.len()];
    let (mut best, mut enumerated) = (None::<f64>, 0);
    loop {
        let counts: Vec<Vec<usize>> = pick
            .iter()
            .zip(&options)
            .map(|(i, o)| o[*i].clone())
            .collect();
        let values = ras.incumbent_from_counts(&counts);
        enumerated += 1;
        if ras.model.violations(&values, TOL).is_empty() {
            let objective = ras.model.objective().eval(&values);
            best = Some(best.map_or(objective, |b| b.min(objective)));
        }
        // Odometer step over the classes' options.
        let mut digit = 0;
        loop {
            if digit == pick.len() {
                return (best, enumerated);
            }
            pick[digit] += 1;
            if pick[digit] < options[digit].len() {
                break;
            }
            pick[digit] = 0;
            digit += 1;
        }
    }
}

/// One hand-sized case: region, bindings and phase-1 model of `seed`.
fn check_case(msbs: usize, servers_per_rack: usize, seed: u64) {
    let template = RegionTemplate {
        datacenters: 1,
        msbs_per_datacenter: msbs,
        power_rows_per_msb: 1,
        racks_per_power_row: 1,
        servers_per_rack,
    };
    let region = RegionBuilder::new(template, seed).build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weighted = RruTable::empty(&region.catalog);
    for hw in region.catalog.iter() {
        weighted.set(hw.id, 1.0 + 0.5 * (hw.id.index() % 3) as f64);
    }
    let n = region.server_count() as f64;
    let specs = vec![
        ReservationSpec::guaranteed(
            "a",
            (n / 3.0).floor(),
            RruTable::uniform(&region.catalog, 1.0),
        ),
        ReservationSpec::guaranteed("b", 1.0 + 0.5 * rng.gen_range(0..2u32) as f64, weighted),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    let ids: Vec<_> = specs
        .iter()
        .map(|s| broker.register_reservation(&s.name))
        .collect();
    for i in 0..region.server_count() {
        let server = ServerId::from_index(i);
        if let Some(r) = ids.get(rng.gen_range(0..3usize)) {
            broker.bind_current(server, Some(*r)).unwrap();
            if rng.gen_bool(0.5) {
                broker.set_running_containers(server, 1).unwrap();
            }
        }
    }
    let snapshot = broker.snapshot(SimTime::ZERO);
    let params = SolverParams::default();
    let reduction = build_reduction(
        &region,
        &snapshot,
        &specs,
        params.phase1_granularity,
        params.aggregation,
        None,
    );
    let ras = build_model_labeled(
        &region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        &params,
        false,
        None,
    );
    let sizes: Vec<usize> = reduction.classes.iter().map(|c| c.count()).collect();
    let (optimum, enumerated) = enumerated_optimum(&ras, &sizes);
    let case = format!("{msbs} MSBs x {servers_per_rack} servers, seed {seed}");

    // The phase-1 solve cold, with the candidates a round offers, and
    // with those candidates stopped by its deadline right after the root
    // LP: where that one ends on a plan worse than the optimum, only an
    // honest bound stays at or below the optimum.
    let greedy = greedy_counts(&region, &reduction.specs, &reduction.classes, &params);
    let seeded = vec![ras.initial.clone(), ras.incumbent_from_counts(&greedy)];
    let full = params.phase_time_limit;
    for (incumbents, time_limit_seconds) in
        [(Vec::new(), full), (seeded.clone(), full), (seeded, 0.0)]
    {
        let config = SolveConfig {
            time_limit_seconds,
            rel_gap_tol: params.mip_rel_gap,
            abs_gap_tol: params.mip_abs_gap,
            stall_node_limit: params.stall_node_limit,
            warm_dual: params.warm_dual,
            incumbents,
            ..SolveConfig::default()
        };
        let solved = ras.model.solve_with(&config);
        let Some(optimum) = optimum else {
            assert!(
                matches!(solved, Err(SolveError::Infeasible)),
                "{case}: none of {enumerated} matrices is feasible, yet the solve returned {solved:?}"
            );
            continue;
        };
        let solution = solved.unwrap_or_else(|e| {
            panic!("{case}: a feasible model (optimum {optimum}) failed to solve: {e}")
        });
        let (bound, gap) = (solution.stats.best_bound, solution.stats.absolute_gap);
        let tol = TOL * optimum.abs().max(1.0);
        assert!(
            bound <= optimum + tol,
            "{case}: best_bound {bound} over-claims the optimum {optimum} of {enumerated} matrices"
        );
        assert!(
            solution.objective >= optimum - tol && solution.objective <= optimum + gap + tol,
            "{case}: objective {} outside [{optimum}, {optimum} + gap {gap}]",
            solution.objective
        );
    }
}

#[test]
fn phase1_solves_never_over_claim_the_enumerated_optimum() {
    for msbs in [2, 3] {
        for servers_per_rack in [2, 3] {
            for seed in 1..=4 {
                check_case(msbs, servers_per_rack, seed);
            }
        }
    }
}
