//! Identity oracle for branch-and-bound node re-solves.
//!
//! Branch and bound is chaotic in its inputs: one changed pivot in one
//! node LP changes the tree. Any solver change that claims to be
//! pivot-for-pivot identical must reproduce the constants below
//! unchanged, to the last bit of the objective.
//!
//! They were first recorded before the node re-solve hot path was
//! rebuilt (pattern-restricted dual ratio test, allocation-free warm
//! starts), which reproduced them. They were re-recorded once since, by
//! the change that made Forrest–Tomlin updates insert the entering
//! column's staged L/eta-stage vector in place of rebuilding `U·w̃`, and
//! made the node repair keep its duals by the dual step and read `α_j`
//! off the scattered pivot row. Both move every LP's rounding, so every
//! trajectory re-rolls. Old → new, `(nodes, iterations, root
//! iterations, objective, best bound)`:
//!
//! - 24 specs at 0.5: `(600, 6663, 1689, 16716.79, 15987.2585)` →
//!   `(600, 7742, 1704, 16611.57, 15987.5096)`;
//! - 40 specs at 0.5: `(600, 10825, 2786, 18030.80, 17529.4249)` →
//!   `(600, 11703, 2517, 18015.79, 17529.4249)`;
//! - 24 specs at 0.85, softened: `(600, 12267, 2361, 4279066.45,
//!   4228680.2209)` → `(600, 13387, 2388, 4279187.45, 4228680.2209)`.
//!
//! The softened tuple was re-recorded once more, alone, when softening
//! became a bound change on the hard model: every capacity row and
//! affinity pair now carries an elastic column fixed at zero, appended
//! after every other column, and softening raises its upper bound. The
//! hard models' trajectories stay bit for bit (their fixed columns count
//! in no simplex size rule), but the softened model's elastic columns
//! moved from beside their rows to the end of the model, which re-rolls
//! its pivots: `(600, 13387, 2388, 4279187.45, 4228680.2209)` →
//! `(600, 12418, 2262, 4296165.45, 4228680.2209)`.
//!
//! The two satisfiable tuples' iterations were re-recorded, alone, when
//! the node repair started certifying infeasibility itself: a row no
//! column can enter, which the dual simplex's check proves infeasible,
//! ends the re-solve there instead of in a cold primal solve that reaches
//! the same verdict. Nodes, root iterations, objective and bound stay bit
//! for bit; only the pivots the cold solves spent go:
//!
//! - 24 specs at 0.5: `(600, 7742, 1704, ..)` → `(600, 4700, 1704, ..)`;
//! - 40 specs at 0.5: `(600, 11703, 2517, ..)` → `(600, 7137, 2517, ..)`.

use ras::broker::{ResourceBroker, SimTime};
use ras::core::aggregate::build_reduction;
use ras::core::heuristic::greedy_counts;
use ras::core::model::{build_model_labeled, soften_baseline};
use ras::core::SolverParams;
use ras::milp::simplex::{solve_lp, SimplexConfig};
use ras::milp::standard::StandardForm;
use ras::milp::SolveConfig;
use ras::topology::RegionTemplate;
use ras_bench::instance;

/// What must repeat: `(nodes, simplex iterations over every LP of the
/// solve, cold root-LP iterations, objective bits, best-bound bits)`.
type Fingerprint = (usize, usize, usize, u64, u64);

/// Phase-1 MIP of a `bench::instance` medium portfolio on an empty
/// broker, seeded with the greedy incumbent as the session seeds it, and
/// searched under a node budget — no clock, no stall rule — so the tree
/// is the same on every machine and every node of it is a warm re-solve.
fn fingerprint(reservations: usize, utilization: f64, soften: bool) -> Fingerprint {
    let (region, specs) =
        instance::portfolio(RegionTemplate::medium(), 2, reservations, utilization);
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
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
    let baseline = soften_baseline(&region, &reduction.specs, &reduction.classes);
    let ras = build_model_labeled(
        &region,
        &reduction.specs,
        &reduction.classes,
        &reduction.labels,
        &params,
        false,
        soften.then_some(&baseline),
    );
    let greedy = ras.incumbent_from_counts(&greedy_counts(
        &region,
        &reduction.specs,
        &reduction.classes,
        &params,
    ));
    let config = SolveConfig {
        time_limit_seconds: 1e6,
        max_nodes: 600,
        rel_gap_tol: params.mip_rel_gap,
        abs_gap_tol: params.mip_abs_gap,
        incumbents: vec![greedy],
        ..SolveConfig::default()
    };
    let solution = ras.model.solve_with(&config).expect("portfolio solves");
    let sf = StandardForm::from_model(&ras.model);
    let root = solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default());
    (
        solution.stats.nodes,
        solution.stats.simplex_iterations,
        root.iterations,
        solution.objective.to_bits(),
        solution.stats.best_bound.to_bits(),
    )
}

#[test]
fn satisfiable_24_spec_portfolio_repeats() {
    assert_eq!(
        fingerprint(24, 0.5, false),
        (600, 4700, 1704, 4670295367548487598, 4670014840703003127)
    );
}

#[test]
fn satisfiable_40_spec_portfolio_repeats() {
    assert_eq!(
        fingerprint(40, 0.5, false),
        (600, 7137, 2517, 4670681356602976502, 4670547665574546075)
    );
}

#[test]
fn oversubscribed_24_spec_portfolio_repeats() {
    assert_eq!(
        fingerprint(24, 0.85, true),
        (600, 12418, 2262, 4706370983501286605, 4706298521788312902)
    );
}
