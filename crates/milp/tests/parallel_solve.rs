//! Reentrancy pins for the sharded region solve: `Model::solve_with`
//! takes `&self` and must be callable from many threads at once, with
//! results identical to serial solves. The POP-style sharded session in
//! `ras-core` relies on exactly this, and so does branch and bound's
//! look-ahead, which solves open nodes on a helper thread whenever a core
//! is idle.

use ras_milp::{LinExpr, Model, Sense, Solution, SolveConfig, VarType};

/// Compile-time pin: everything a worker thread needs crosses threads.
#[test]
fn solver_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
    assert_send_sync::<SolveConfig>();
    assert_send_sync::<ras_milp::Solution>();
    assert_send_sync::<ras_milp::SolveError>();
}

/// A small covering-style MIP, parameterized by seed so each instance is
/// distinct but deterministic.
fn instance(seed: u64) -> Model {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = Model::new();
    let n = 8;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Integer, 0.0, 10.0))
        .collect();
    let mut obj = LinExpr::zero();
    for (i, v) in vars.iter().enumerate() {
        let c = 1.0 + (next() % 9) as f64;
        obj += LinExpr::term(*v, c);
        // Pairwise lower bounds force non-trivial branching.
        let w = vars[(i + 1) % n];
        let rhs = 3.0 + (next() % 7) as f64;
        m.add_constraint(format!("pair{i}"), 1.0 * *v + 1.0 * w, Sense::Ge, rhs);
    }
    m.add_constraint(
        "total",
        LinExpr::sum(vars.iter().map(|v| (*v, 1.0))),
        Sense::Ge,
        12.0,
    );
    m.set_objective(obj);
    m
}

/// Solving the same instances concurrently from worker threads must
/// reproduce the serial statuses and objectives exactly — no hidden
/// global state in presolve, standardization, simplex, or the search.
#[test]
fn concurrent_solves_match_serial_solves() {
    let models: Vec<Model> = (0..6).map(|i| instance(0xD5 + i as u64 * 97)).collect();
    let config = SolveConfig::default();

    let serial: Vec<_> = models
        .iter()
        .map(|m| m.solve_with(&config).expect("serial solve"))
        .collect();

    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .iter()
            .map(|m| scope.spawn(|| m.solve_with(&config).expect("parallel solve")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });

    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.status, p.status, "instance {i} status");
        assert!(
            (s.objective - p.objective).abs() < 1e-9,
            "instance {i}: serial {} vs parallel {}",
            s.objective,
            p.objective
        );
    }
}

/// One shared model solved by many threads at once (the sharded session
/// never does this, but it proves `solve_with(&self)` is truly read-only).
#[test]
fn one_model_many_threads() {
    let model = instance(42);
    let config = SolveConfig::default();
    let reference = model.solve_with(&config).expect("reference");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let s = model.solve_with(&config).expect("shared solve");
                assert_eq!(s.status, reference.status);
                assert!((s.objective - reference.objective).abs() < 1e-9);
            });
        }
    });
}

/// A two-constraint knapsack over 20 binaries, values close to weights:
/// best-bound search needs some 900 nodes to close it.
fn knapsack() -> Model {
    let mut state = 0x5EA2_C4ED_u64;
    let mut next = move |lo: u64, span: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (lo + state % span) as f64
    };
    let mut m = Model::new();
    let (mut obj, mut first, mut second) = (LinExpr::zero(), LinExpr::zero(), LinExpr::zero());
    let (mut first_total, mut second_total) = (0.0, 0.0);
    for i in 0..20 {
        let x = m.add_var(format!("x{i}"), VarType::Binary, 0.0, 1.0);
        let (w1, w2) = (next(20, 40), next(20, 40));
        obj += LinExpr::term(x, -(w1 + w2 + next(0, 7)));
        first += LinExpr::term(x, w1);
        second += LinExpr::term(x, w2);
        (first_total, second_total) = (first_total + w1, second_total + w2);
    }
    m.add_constraint("first", first, Sense::Le, (first_total / 2.0).floor());
    m.add_constraint("second", second, Sense::Le, (second_total / 2.0).floor());
    m.set_objective(obj);
    m
}

/// A cover of a 61-cycle (each variable with its next and its third
/// next) behind a switch: `y = 0` costs 100 more, so the relaxation sets
/// `y = ½` and branches on it first. The root dive rounds `y` up and finds
/// an incumbent that prunes the `y = 0` child, one of the search's first
/// two nodes, while the walk, pruning nothing, expands it.
fn switched_cover() -> Model {
    let mut state = 0x5EA2_C4ED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (4 + state % 3) as f64
    };
    let n = 61;
    let mut m = Model::new();
    let y = m.add_var("y", VarType::Binary, 0.0, 1.0);
    let z = m.add_var("z", VarType::Continuous, 0.0, 10.0);
    m.add_constraint("switch", 2.0 * y + 1.0 * z, Sense::Ge, 1.0);
    let xs: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Binary, 0.0, 1.0))
        .collect();
    let mut obj = 1.0 * y + 100.0 * z;
    for i in 0..n {
        obj += LinExpr::term(xs[i], next());
        m.add_constraint(
            format!("cover{i}"),
            1.0 * xs[i] + 1.0 * xs[(i + 1) % n] + 1.0 * xs[(i + 3) % n],
            Sense::Ge,
            1.0,
        );
    }
    m.set_objective(obj);
    m
}

/// Everything a solve reports that depends on neither the clock nor
/// thread timing: status, objective, bound and gap bits, every work
/// counter and the bits of every value.
fn fingerprint(s: &Solution) -> Vec<(&'static str, u64)> {
    let st = &s.stats;
    let count = |n: usize| n as u64;
    let mut f = vec![
        ("status", s.status as u64),
        ("objective", s.objective.to_bits()),
        ("best_bound", st.best_bound.to_bits()),
        ("gap", st.gap.to_bits()),
        ("hit_limit", u64::from(st.hit_limit)),
        ("nodes", count(st.nodes)),
        ("simplex_iterations", count(st.simplex_iterations)),
        ("phase1_iterations", count(st.phase1_iterations)),
        ("dual_iterations", count(st.dual_iterations)),
        ("used_dual_simplex", u64::from(st.used_dual_simplex)),
        ("root_phase1_iterations", count(st.root_phase1_iterations)),
        (
            "root_used_dual_simplex",
            u64::from(st.root_used_dual_simplex),
        ),
        ("lp_refactorizations", count(st.lp_refactorizations)),
        ("basis_updates", count(st.basis_updates)),
        ("spike_entries", count(st.spike_entries)),
        ("refactors_interval", count(st.refactors_interval)),
        ("refactors_growth", count(st.refactors_growth)),
        ("refactors_accuracy", count(st.refactors_accuracy)),
        ("pricing_candidate_hits", count(st.pricing_candidate_hits)),
        ("pricing_full_rebuilds", count(st.pricing_full_rebuilds)),
        ("nodes_pruned_by_seed", count(st.nodes_pruned_by_seed)),
    ];
    f.extend(s.values.iter().map(|v| ("value", v.to_bits())));
    f
}

/// Branch and bound starts a look-ahead helper only while the process has
/// fewer searches in their dive or node loop than cores, so of
/// `2 × cores` searches run at once some get a helper and some do not;
/// the one run alone gets one on any machine with two cores. Whichever
/// engine solved which node, every search must report what the lone one
/// reports, to the bit.
///
/// On the knapsack no incumbent prunes a node early, so the helper's walk
/// during the root dive is the search's own tree. The knapsack search
/// also reaches node 256, where the first periodic dive runs: that dive
/// starts from a node the helper may have solved, and only its steps
/// after the first keep the factors the step before left, so it must
/// end the same whichever engine solved its node. On the switched cover
/// the dive's incumbent prunes the search's second node, which the walk
/// expands: from there on the walk's ids name other nodes than the
/// search's, and its results for them must be turned away.
#[test]
fn concurrent_searches_equal_the_serial_search() {
    let config = SolveConfig {
        time_limit_seconds: 1e6,
        ..SolveConfig::default()
    };
    for (what, model, min_nodes) in [
        ("knapsack", knapsack(), 256),
        ("switched cover", switched_cover(), 200),
    ] {
        let alone = model.solve_with(&config).expect("lone search");
        assert!(
            alone.stats.nodes >= min_nodes,
            "{what}: the search ran only {} nodes",
            alone.stats.nodes
        );
        let expected = fingerprint(&alone);
        let searches = 2 * std::thread::available_parallelism().map_or(1, |n| n.get());
        // Every search starts at once, so they overlap in their node loops.
        let start = std::sync::Barrier::new(searches);
        let together: Vec<Solution> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..searches)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        model.solve_with(&config).expect("concurrent search")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search thread"))
                .collect()
        });
        for (i, s) in together.iter().enumerate() {
            assert_eq!(fingerprint(s), expected, "{what}: search {i} of {searches}");
        }
    }
}
