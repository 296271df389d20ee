//! Differential tests for the dual simplex: the warm re-solve hot path
//! and the dual-first cold start.
//!
//! 1. On 400 random bounded LPs, a bound/RHS perturbation re-solved warm
//!    (dual simplex from the previous optimal basis) must agree with the
//!    cold primal solve on status and objective, and must never run a
//!    single phase-1 iteration when the warm basis sticks.
//! 2. A long-pivot-sequence regression: after hundreds of basis updates
//!    without refactorization, Forrest–Tomlin keeps `ftran`/`btran`
//!    residuals near machine precision where the product-form eta file
//!    visibly degrades (its error compounds across the eta product).
//! 3. The dual-first cold start, its size gate lowered through
//!    `Simplex::set_cold_dual_gate`: 400 random boxed LPs against the
//!    dense-tableau oracle, a quarter of them infeasible (the dual's own
//!    verdict, cold and warm), region-shaped LPs whose free `max`
//!    columns rest on implied bounds against the primal, the two starts
//!    the attempt must skip, and the stall that must fall back.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::lu::FtFactors;
use ras_milp::simplex::{
    solve_lp, solve_lp_warm, DualRule, LpResult, LpStatus, Simplex, SimplexConfig,
};
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, Var, VarType};
use support::dense_simplex::{self, Outcome};

fn random_model(rng: &mut StdRng) -> Model {
    let nv: usize = rng.gen_range(2..8);
    let nc = rng.gen_range(1..8);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                VarType::Continuous,
                0.0,
                rng.gen_range(1..9) as f64,
            )
        })
        .collect();
    for ci in 0..nc {
        let expr = LinExpr::sum(vars.iter().map(|v| (*v, rng.gen_range(-4..5) as f64)));
        let sense = match rng.gen_range(0..3) {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(format!("c{ci}"), expr, sense, rng.gen_range(-5..12) as f64);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..6) as f64)),
    ));
    m
}

/// 400 random LPs, each perturbed bounds-only and re-solved two ways:
/// cold primal and warm dual. Both must agree; accepted warm solves must
/// skip phase 1.
#[test]
fn dual_resolve_agrees_with_primal_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(0xD0A1_51A5);
    let mut dual_resolves = 0usize;
    for case in 0..400 {
        let m = random_model(&mut rng);
        let sf = StandardForm::from_model(&m);
        let cfg = SimplexConfig::default();
        let base = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
        if base.status != LpStatus::Optimal {
            continue;
        }
        // Bounds-only perturbation: tighten a few upper bounds (what a
        // session round's count patch does to the class columns).
        let mut upper = sf.upper.clone();
        let n_structural = m.num_vars();
        for _ in 0..rng.gen_range(1..4) {
            let j = rng.gen_range(0..n_structural);
            if upper[j].is_finite() && upper[j] > 0.0 {
                upper[j] = (upper[j] - rng.gen_range(1..3) as f64).max(0.0);
            }
        }
        let cold = solve_lp(&sf, &sf.lower.clone(), &upper, &cfg);
        let warm = solve_lp_warm(&sf, &sf.lower.clone(), &upper, &cfg, base.basis.as_ref());
        assert_eq!(
            warm.status, cold.status,
            "case {case}: warm {:?} vs cold {:?}",
            warm.status, cold.status
        );
        if cold.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "case {case}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
        if warm.used_dual_simplex {
            dual_resolves += 1;
            assert_eq!(
                warm.phase1_iterations, 0,
                "case {case}: dual re-solve ran phase 1"
            );
        }
    }
    assert!(
        dual_resolves > 100,
        "too few dual re-solves exercised: {dual_resolves}"
    );
}

/// A product-form eta file over an initial LU factorization — the
/// pre-Forrest–Tomlin update scheme, replicated here as the regression
/// baseline the FT factors are measured against.
/// One eta transform: (pivot row, pivot value, off-pivot entries).
type Eta = (usize, f64, Vec<(usize, f64)>);

struct EtaFile {
    /// The initial factorization; its solves are never updated in place.
    lu: FtFactors,
    etas: Vec<Eta>,
}

impl EtaFile {
    fn new(lu: FtFactors) -> Self {
        Self {
            lu,
            etas: Vec::new(),
        }
    }

    fn ftran(&mut self, v: &mut [f64]) {
        self.lu.ftran(v);
        for (row, pivot, entries) in &self.etas {
            let t = v[*row] / pivot;
            v[*row] = t;
            if t != 0.0 {
                for &(r, wv) in entries {
                    v[r] -= wv * t;
                }
            }
        }
    }

    fn btran(&mut self, v: &mut [f64]) {
        for (row, pivot, entries) in self.etas.iter().rev() {
            let mut s = v[*row];
            for &(r, wv) in entries {
                s -= wv * v[r];
            }
            v[*row] = s / pivot;
        }
        self.lu.btran(v);
    }

    fn update(&mut self, row: usize, w: &[f64]) {
        let entries = w
            .iter()
            .enumerate()
            .filter(|&(i, &wv)| i != row && wv != 0.0)
            .map(|(i, &wv)| (i, wv))
            .collect();
        self.etas.push((row, w[row], entries));
    }
}

fn dense_from_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
    let mut b = vec![vec![0.0; m]; m];
    for (j, col) in cols.iter().enumerate() {
        for &(r, v) in col {
            // Sum duplicates, matching `FtFactors::factorize`.
            b[r][j] += v;
        }
    }
    b
}

/// `‖Bx − rhs‖∞` for the dense matrix `b`.
fn ftran_residual(b: &[Vec<f64>], x: &[f64], rhs: &[f64]) -> f64 {
    let m = rhs.len();
    (0..m)
        .map(|i| ((0..m).map(|j| b[i][j] * x[j]).sum::<f64>() - rhs[i]).abs())
        .fold(0.0, f64::max)
}

/// `‖Bᵀy − rhs‖∞` for the dense matrix `b`.
fn btran_residual(b: &[Vec<f64>], y: &[f64], rhs: &[f64]) -> f64 {
    let m = rhs.len();
    (0..m)
        .map(|j| ((0..m).map(|i| b[i][j] * y[i]).sum::<f64>() - rhs[j]).abs())
        .fold(0.0, f64::max)
}

fn good_col(m: usize, j: usize, rng: &mut StdRng) -> Vec<(usize, f64)> {
    let mut col = vec![(j, 3.0 + rng.gen_range(0..100) as f64 / 100.0)];
    for _ in 0..3 {
        let r = rng.gen_range(0..m);
        if r != j {
            col.push((r, rng.gen_range(-100..100) as f64 / 100.0));
        }
    }
    col
}

/// Long pivot sequence regression, 240 basis updates with no interval
/// refactorization. Half the pivots bring in a nearly-dependent column
/// at a large scale: the entering direction has a pivot element ~1e12×
/// smaller than its off-pivot entries. The product-form eta file has no
/// defense — it records the bad eta and its error compounds with every
/// such event. The FT update refuses the pivot ([`FtReject`]) and the
/// engine refactorizes instead, which is what keeps residuals bounded.
/// This safeguard is why the simplex maintains its factors with
/// Forrest–Tomlin updates and the eta file survives only in this test.
#[test]
fn ft_residuals_stay_bounded_where_eta_file_degrades() {
    let m = 40;
    let mut rng = StdRng::seed_from_u64(0xF7_0E7A);
    // Well-conditioned sparse start: dominant diagonal + off-diagonals.
    let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| good_col(m, j, &mut rng)).collect();
    let factorize =
        |cols: &[Vec<(usize, f64)>]| FtFactors::factorize(m, |j| cols[j].iter().copied(), 1e-12);
    let mut ft = factorize(&cols).expect("ft copy");
    let mut eta = EtaFile::new(factorize(&cols).expect("start basis factorizes"));

    let mut ft_updates = 0usize;
    let mut ft_rejections = 0usize;
    for round in 0..120 {
        let slot = round % m;
        // A nearly-dependent entering column at a large scale (spike
        // entries ~1e4, new diagonal ~1e-8), then a benign restore.
        let near = {
            let src = (slot + 1) % m;
            let mut col: Vec<(usize, f64)> = cols[src].iter().map(|&(r, v)| (r, v * 1e4)).collect();
            col.push((slot, 1e-8));
            col
        };
        let restore = good_col(m, slot, &mut rng);
        for new_col in [near, restore] {
            // Each scheme FTRANs the entering column through its own
            // factors (exactly what the simplex does) and updates from
            // that solve: the eta file from its direction, FT from the
            // spike the solve staged.
            let mut w_eta = vec![0.0; m];
            for &(r, v) in &new_col {
                w_eta[r] += v;
            }
            let mut w_ft = w_eta.clone();
            eta.ftran(&mut w_eta);
            ft.ftran_entering(&mut w_ft);
            eta.update(slot, &w_eta);
            cols[slot] = new_col;
            if ft.update(slot).is_ok() {
                ft_updates += 1;
            } else {
                // An FT rejection triggers an accuracy refactorization
                // in the engine; mirror that here.
                ft_rejections += 1;
                let refactored = ft.refactorize(|j| cols[j].iter().copied(), 1e-12);
                assert!(refactored, "replacement basis factorizes");
            }
        }
    }
    assert!(
        ft_rejections >= 100,
        "FT must refuse the unstable pivots the eta file accepts: {ft_rejections}"
    );
    assert!(
        ft_updates >= 100,
        "FT must absorb the benign pivots in-place: {ft_updates}"
    );

    // Compare solve residuals against the exact final basis.
    let b = dense_from_cols(m, &cols);
    let mut worst_ft = 0.0f64;
    let mut worst_eta = 0.0f64;
    for trial in 0..m {
        let mut rhs = vec![0.0; m];
        rhs[trial] = 1.0;
        let mut x_ft = rhs.clone();
        ft.ftran(&mut x_ft);
        worst_ft = worst_ft.max(ftran_residual(&b, &x_ft, &rhs));
        let mut x_eta = rhs.clone();
        eta.ftran(&mut x_eta);
        worst_eta = worst_eta.max(ftran_residual(&b, &x_eta, &rhs));

        let mut y_ft = rhs.clone();
        ft.btran(&mut y_ft);
        worst_ft = worst_ft.max(btran_residual(&b, &y_ft, &rhs));
        let mut y_eta = rhs.clone();
        eta.btran(&mut y_eta);
        worst_eta = worst_eta.max(btran_residual(&b, &y_eta, &rhs));
    }
    // Observed: FT ~1.5e-5 (each pass through the ill-conditioned
    // transition basis costs cond·eps, but refactorization stops it
    // compounding), eta ~1.5e-3 and growing with the event count.
    assert!(
        worst_ft < 1e-3,
        "FT residual must stay bounded under rejection+refactor: {worst_ft:e}"
    );
    assert!(
        worst_eta > worst_ft * 20.0,
        "eta file should visibly degrade on this sequence: eta {worst_eta:e} vs ft {worst_ft:e}"
    );
}

/// A cold solve with the dual-first start open to LPs of any size.
fn solve_dual_first(sf: &StandardForm, perturb: bool) -> LpResult {
    let mut lp = Simplex::new(sf, SimplexConfig::default());
    lp.set_cold_dual_gate(0, perturb);
    lp.solve(&sf.lower, &sf.upper, None, DualRule::LongStep)
}

/// The cold primal two-phase solve (the repair's cold solve never goes
/// dual-first).
fn solve_primal(sf: &StandardForm) -> LpResult {
    Simplex::new(sf, SimplexConfig::default()).solve(&sf.lower, &sf.upper, None, DualRule::Repair)
}

fn assert_close(got: f64, want: f64, tag: &str) {
    assert!(
        (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
        "{tag}: objective {got} vs {want}"
    );
}

/// A dual-first solve reports what it was: cold, and without a phase 1.
fn assert_cold_dual_counters(r: &LpResult, tag: &str) {
    assert_eq!(r.phase1_iterations, 0, "{tag}: phase 1 ran");
    assert!(!r.warm_basis_used, "{tag}: no warm basis was supplied");
}

/// A random boxed LP with mixed-sign costs that is feasible by
/// construction: every row holds, with up to three units to spare, at a
/// point drawn inside the bounds. The last row is a `≥`; returned with
/// the model is the most its left-hand side can reach inside the bounds,
/// so a right-hand side past that makes the LP infeasible by that row
/// alone.
fn feasible_boxed_lp(rng: &mut StdRng) -> (Model, f64) {
    let nv: u32 = rng.gen_range(3..10);
    let mut m = Model::new();
    let mut point = Vec::new();
    for j in 0..nv {
        let upper = rng.gen_range(1..9);
        m.add_var(format!("x{j}"), VarType::Continuous, 0.0, upper as f64);
        point.push(rng.gen_range(0..upper + 1) as f64);
    }
    let rows = rng.gen_range(2..8);
    let mut reach = 0.0;
    for ci in 0..rows {
        let terms: Vec<_> = (0..nv)
            .map(|j| (Var(j), rng.gen_range(-4..5) as f64))
            .collect();
        let at_point: f64 = terms.iter().map(|&(v, a)| a * point[v.index()]).sum();
        let spare = rng.gen_range(0..4) as f64;
        let (sense, rhs) = match rng.gen_range(0..3) {
            _ if ci + 1 == rows => (Sense::Ge, at_point - spare),
            0 => (Sense::Le, at_point + spare),
            1 => (Sense::Ge, at_point - spare),
            _ => (Sense::Eq, at_point),
        };
        reach = terms
            .iter()
            .map(|&(v, a)| (a * m.var(v).upper).max(0.0))
            .sum();
        m.add_constraint(format!("c{ci}"), LinExpr::sum(terms), sense, rhs);
    }
    m.set_objective(LinExpr::sum(
        (0..nv).map(|j| (Var(j), rng.gen_range(-5..6) as f64)),
    ));
    (m, reach)
}

/// 400 random boxed LPs with mixed-sign costs, dual-first against the
/// dense-tableau oracle and the cold primal. Every fourth is infeasible
/// by one `≥` row pushed past its bound-implied maximum: the dual must
/// say so itself — cold, and warm from the basis of the feasible LP the
/// row was pushed from.
#[test]
fn cold_dual_first_agrees_with_dense_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC01D_57A7);
    let (mut dual_first, mut dual_infeasible) = (0usize, 0usize);
    let (mut warm_calls, mut warm_infeasible) = (0usize, 0usize);
    for case in 0..400 {
        let pushed = case % 4 == 0;
        let (mut m, reach) = feasible_boxed_lp(&mut rng);
        let base = pushed.then(|| {
            let sf = StandardForm::from_model(&m);
            solve_lp(&sf, &sf.lower, &sf.upper, &SimplexConfig::default())
        });
        if pushed {
            let row = m.num_constraints() - 1;
            m.set_rhs(row, reach + 1.0);
        }
        let tag = format!("case {case}");
        let sf = StandardForm::from_model(&m);
        let oracle = dense_simplex::solve(&m);
        let dual = solve_dual_first(&sf, true);
        let primal = solve_primal(&sf);
        assert_eq!(dual.status, primal.status, "{tag}: dual-first vs primal");
        match oracle {
            Outcome::Optimal(obj) => {
                assert_eq!(dual.status, LpStatus::Optimal, "{tag}");
                assert_close(dual.objective, obj, &tag);
            }
            Outcome::Infeasible => assert_eq!(dual.status, LpStatus::Infeasible, "{tag}"),
            Outcome::Unbounded => panic!("{tag}: a boxed LP is bounded"),
        }
        assert!(
            !pushed || oracle == Outcome::Infeasible,
            "{tag}: pushed row"
        );
        if dual.used_dual_simplex {
            dual_first += 1;
            assert_cold_dual_counters(&dual, &tag);
            dual_infeasible += usize::from(dual.status == LpStatus::Infeasible);
        }
        // The same verdict on a warm call: only the right-hand side
        // moved, so the feasible LP's basis is still dual feasible.
        if let Some(basis) = base.as_ref().and_then(|b| b.basis.as_ref()) {
            let cfg = SimplexConfig::default();
            let warm = solve_lp_warm(&sf, &sf.lower, &sf.upper, &cfg, Some(basis));
            assert_eq!(warm.status, LpStatus::Infeasible, "{tag}: warm");
            warm_calls += 1;
            warm_infeasible += usize::from(warm.used_dual_simplex);
        }
    }
    assert!(dual_first > 350, "too few dual-first solves: {dual_first}");
    assert!(
        dual_infeasible > 80,
        "the dual proved too few of 100 LPs infeasible itself: {dual_infeasible}"
    );
    assert_eq!(
        warm_calls, 100,
        "every pushed LP starts from a feasible one"
    );
    assert!(
        warm_infeasible > 80,
        "the warm dual proved too few of 100 LPs infeasible itself: {warm_infeasible}"
    );
}

/// The production shape: free `max` columns with a cost rest on the
/// bound their rows imply, so the attempt is made; it must agree with
/// the primal (the oracle takes no free column). With few MSBs
/// a capacity net of the largest one can be out of reach: those LPs are
/// infeasible, and the dual says so.
#[test]
fn cold_dual_first_rests_free_columns_on_implied_bounds() {
    let mut rng = StdRng::seed_from_u64(0x01A9_11ED);
    let mut optimal = 0;
    for case in 0..60 {
        let m = support::region_lp(&mut rng, 4 + case % 5, 1 + case % 3, 2 + case % 6);
        let sf = StandardForm::from_model(&m);
        let tag = format!("case {case}");
        let dual = solve_dual_first(&sf, true);
        let primal = solve_primal(&sf);
        assert!(
            dual.used_dual_simplex,
            "{tag}: attempt skipped or fell back"
        );
        assert_cold_dual_counters(&dual, &tag);
        assert_eq!(dual.status, primal.status, "{tag}");
        if dual.status == LpStatus::Optimal {
            optimal += 1;
            assert_close(dual.objective, primal.objective, &tag);
        }
    }
    assert!(optimal > 30, "too few feasible region LPs: {optimal}");
}

/// Everything a solve reports that a different pivot sequence would
/// change.
fn fingerprint(r: &LpResult) -> (LpStatus, u64, usize, usize, bool) {
    (
        r.status,
        r.objective.to_bits(),
        r.iterations,
        r.phase1_iterations,
        r.used_dual_simplex,
    )
}

/// Two starts the attempt cannot make dual feasible — a free column with
/// a cost that no single row bounds, a negative cost on a column without
/// an upper bound, own or implied — are skipped: the solve is the
/// primal's, pivot for pivot. Each LP also carries a stay column, so the
/// skip is for that reason and no other.
#[test]
fn cold_dual_first_skips_columns_without_a_dual_feasible_bound() {
    let inf = f64::INFINITY;
    // min t − z  s.t.  t − s ≥ 0,  s ≥ 1,  t and s free: t ≥ s is all
    // any one row says about t.
    let mut free = Model::new();
    let z = free.add_var("z", VarType::Continuous, 0.0, 3.0);
    let t = free.add_var("t", VarType::Continuous, -inf, inf);
    let s = free.add_var("s", VarType::Continuous, -inf, inf);
    free.add_constraint("t_over_s", LinExpr::from(t) - s, Sense::Ge, 0.0);
    free.add_constraint("s_floor", LinExpr::from(s), Sense::Ge, 1.0);
    free.set_objective(LinExpr::from(t) - z);
    // min −x + 2y − z  s.t.  x − y ≤ 5,  x, y ≥ 0 unbounded above.
    let mut unbounded_column = Model::new();
    let z = unbounded_column.add_var("z", VarType::Continuous, 0.0, 3.0);
    let x = unbounded_column.add_var("x", VarType::Continuous, 0.0, inf);
    let y = unbounded_column.add_var("y", VarType::Continuous, 0.0, inf);
    unbounded_column.add_constraint("x_under_y", LinExpr::from(x) - y, Sense::Le, 5.0);
    unbounded_column.set_objective(2.0 * y - x - z);
    for (name, m, objective) in [("free", free, -2.0), ("unbounded", unbounded_column, -8.0)] {
        let sf = StandardForm::from_model(&m);
        let dual = solve_dual_first(&sf, true);
        let primal = solve_primal(&sf);
        assert_eq!(fingerprint(&dual), fingerprint(&primal), "{name}");
        assert!(!dual.used_dual_simplex, "{name}: the attempt was made");
        assert_eq!(dual.status, LpStatus::Optimal, "{name}");
        assert_close(dual.objective, objective, name);
    }
}

/// On the region shape the stay rewards, assignment costs and `max`
/// penalties tie nearly every dual ratio: without its cost perturbation
/// the attempt can ride degenerate pivots past its budget, and the solve
/// that comes back is the primal's, pivot for pivot. With it the same LP
/// goes dual-first. Whether a given draw stalls depends on rounding in
/// the ratio test; this one (104 rows, like six of the first sixty seeds
/// of its shape) does.
#[test]
fn unperturbed_stall_falls_back_to_the_primal() {
    let mut rng = StdRng::seed_from_u64(21);
    let m = support::region_lp(&mut rng, 8, 4, 8);
    let sf = StandardForm::from_model(&m);
    let primal = solve_primal(&sf);
    assert_eq!(primal.status, LpStatus::Optimal);
    assert!(primal.phase1_iterations > 0);
    let stalled = solve_dual_first(&sf, false);
    assert_eq!(fingerprint(&stalled), fingerprint(&primal));
    let perturbed = solve_dual_first(&sf, true);
    assert!(perturbed.used_dual_simplex);
    assert_cold_dual_counters(&perturbed, "perturbed");
    assert_close(perturbed.objective, primal.objective, "perturbed");
    assert!(
        perturbed.iterations < primal.iterations,
        "dual-first {} pivots vs primal {}",
        perturbed.iterations,
        primal.iterations
    );
}
