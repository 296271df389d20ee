//! Per-layer attribution from outside the program, by two means:
//! reading the statistics a solve already returns
//! ([`reported_children`]), and timing calls into each layer's public
//! functions on a round's own inputs ([`probe`]).

use std::time::Instant;

use ras_broker::BrokerSnapshot;
use ras_core::assign::concretize;
use ras_core::classes::build_classes;
use ras_core::heuristic::greedy_counts;
use ras_core::model::build_model_labeled;
use ras_core::stats::PhaseStats;
use ras_core::{build_reduction, ShardPlan, SolveOutput};
use ras_milp::audit::{
    audit_model, audit_standard_form, check_lp_certificate, check_mip_certificate,
};
use ras_milp::presolve::tighten;
use ras_milp::simplex::{solve_lp, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_milp::{AuditConfig, AuditReport, SolveConfig, SolveStats};

use crate::driver::System;

fn phase_children(prefix: &str, p: &PhaseStats, out: &mut Vec<(String, f64)>) {
    out.push((format!("{prefix}.ras_build"), p.ras_build_seconds));
    out.push((format!("{prefix}.solver_build"), p.solver_build_seconds));
    out.push((format!("{prefix}.root_lp"), p.initial_state_seconds));
    out.push((format!("{prefix}.mip"), p.mip_seconds));
}

/// Seconds of a solve the program's statistics account for: the four
/// steps of each phase plus the shard merge. For a sharded round the
/// phase times are already the critical path across shards. Recorded as
/// children of the solve span, they leave `solver.unattributed_s` as its
/// self time.
pub fn reported_children(output: &SolveOutput) -> Vec<(String, f64)> {
    let mut children = Vec::new();
    phase_children("phase1", &output.phase1, &mut children);
    if let Some(p2) = &output.phase2 {
        phase_children("phase2", p2, &mut children);
    }
    if let Some(sharded) = &output.sharded {
        children.push(("shard.merge".into(), sharded.reconcile.merge_seconds));
    }
    children
}

/// One replay of the layers' public functions on a round's inputs.
#[derive(Debug, Clone, Default)]
pub struct LayerProbe {
    pub validate_s: f64,
    pub classes_build_s: f64,
    pub classes_count: usize,
    pub model_build_s: f64,
    pub model_assignment_vars: usize,
    pub model_rows: usize,
    pub model_memory_mb: f64,
    pub standard_build_s: f64,
    pub presolve_tighten_s: f64,
    pub heuristic_incumbent_s: f64,
    pub concretize_s: f64,
    pub audit_model_s: f64,
    pub audit_certificate_s: f64,
    pub shard_plan_s: f64,
    /// Cold root LP of the round's hard model.
    pub root_iterations: usize,
    pub root_us_per_pivot: f64,
    /// Seconds the hard model takes to be proven infeasible; 0 when the
    /// round did not soften.
    pub soften_attempt_s: f64,
}

fn timed<T>(seconds: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *seconds += start.elapsed().as_secs_f64();
    out
}

/// Replays the phase-1 pipeline on `snapshot` through the layers' public
/// functions, timing each. `output` is what the program made of the same
/// inputs; its plan feeds the concretize and certificate replays.
pub fn probe(system: &System, snapshot: &BrokerSnapshot, output: &SolveOutput) -> LayerProbe {
    let (region, specs, params) = (&system.region, &system.specs, &system.params);
    let mut p = LayerProbe::default();

    timed(&mut p.validate_s, || {
        let _ = system.solver.validate(region, specs);
    });
    let classes = timed(&mut p.classes_build_s, || {
        build_classes(region, snapshot, params.phase1_granularity, None)
    });
    p.classes_count = classes.len();
    let reduction = build_reduction(
        region,
        snapshot,
        specs,
        params.phase1_granularity,
        params.aggregation,
        None,
    );
    let ras = timed(&mut p.model_build_s, || {
        build_model_labeled(
            region,
            &reduction.specs,
            &reduction.classes,
            &reduction.labels,
            params,
            false,
            None,
        )
    });
    p.model_assignment_vars = ras.assignment_var_count;
    p.model_rows = ras.model.num_constraints();
    p.model_memory_mb = ras.model.memory_estimate_bytes() as f64 / (1024.0 * 1024.0);

    let audit_cfg = AuditConfig::default();
    let sf = timed(&mut p.standard_build_s, || {
        StandardForm::from_model(&ras.model)
    });
    timed(&mut p.audit_model_s, || {
        std::hint::black_box(audit_model(&ras.model, &audit_cfg));
        std::hint::black_box(audit_standard_form(&sf, &audit_cfg));
    });
    let tightened = timed(&mut p.presolve_tighten_s, || tighten(&ras.model));
    timed(&mut p.heuristic_incumbent_s, || {
        let counts = greedy_counts(region, &reduction.specs, &reduction.classes, params);
        std::hint::black_box(ras.incumbent_from_counts(&counts));
    });
    timed(&mut p.shard_plan_s, || {
        std::hint::black_box(ShardPlan::build(region, params.shards.max(1)));
    });

    // The plan the program applied, as per-class counts.
    let mut counts = vec![vec![0usize; reduction.specs.len()]; reduction.classes.len()];
    for (ci, class) in reduction.classes.iter().enumerate() {
        for s in &class.servers {
            if let Some(r) = output.targets.get(s.index()).copied().flatten() {
                let slot = reduction
                    .reduced_index(r)
                    .and_then(|g| counts[ci].get_mut(g));
                if let Some(slot) = slot {
                    *slot += 1;
                }
            }
        }
    }
    timed(&mut p.concretize_s, || {
        std::hint::black_box(concretize(
            region,
            snapshot,
            &reduction.classes,
            &counts,
            specs.len(),
        ));
    });

    // Cold root LP under the presolved bounds, as branch-and-bound runs it.
    if let Ok(t) = tightened {
        let (mut lower, mut upper) = (sf.lower.clone(), sf.upper.clone());
        lower[..t.lower.len()].copy_from_slice(&t.lower);
        upper[..t.upper.len()].copy_from_slice(&t.upper);
        let mut root_s = 0.0;
        let lp = timed(&mut root_s, || {
            solve_lp(&sf, &lower, &upper, &SimplexConfig::default())
        });
        p.root_iterations = lp.iterations;
        p.root_us_per_pivot = root_s * 1e6 / lp.iterations.max(1) as f64;
        let plan = ras.incumbent_from_counts(&counts);
        let objective = ras.model.objective().eval(&plan);
        timed(&mut p.audit_certificate_s, || {
            let mut report = AuditReport::default();
            check_lp_certificate(&sf, &lower, &upper, &lp, &audit_cfg, &mut report);
            check_mip_certificate(
                &ras.model,
                &plan,
                objective,
                &SolveStats::default(),
                &audit_cfg,
                &mut report,
            );
            std::hint::black_box(report);
        });
    }

    if !output.phase1.softened.is_empty() {
        // The program's first, hidden solve of a softened round: the hard
        // model, run until it is proven infeasible.
        let config = SolveConfig {
            time_limit_seconds: params.phase_time_limit,
            rel_gap_tol: params.mip_rel_gap,
            abs_gap_tol: params.mip_abs_gap,
            stall_node_limit: params.stall_node_limit,
            audit: params.audit,
            warm_dual: params.warm_dual,
            ..SolveConfig::default()
        };
        timed(&mut p.soften_attempt_s, || {
            std::hint::black_box(ras.model.solve_with(&config).is_err());
        });
    }
    p
}
