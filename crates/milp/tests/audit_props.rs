//! Property-based tests for the model auditor: pathological models —
//! NaN/±inf coefficients, crossed bounds, NaN right-hand sides, dangling
//! variable references — must come back as *structured rejections*
//! (reject-severity [`AuditIssue`]s, [`SolveError::InvalidModel`] from a
//! solve, which always audits), never as a panic or a silently-wrong answer; and
//! well-formed models must never be rejected.

// The vendored proptest macro expands one token at a time; the larger
// test bodies below get close to the default recursion limit.
#![recursion_limit = "512"]

use proptest::prelude::*;
use ras_milp::audit::audit_model;
use ras_milp::{
    AuditConfig, AuditIssue, LinExpr, Model, Sense, Severity, SolveError, Var, VarType,
};

/// Which defect the strategy injects into an otherwise-sound model.
const PATHOLOGIES: u8 = 6;

/// A small well-formed integer program with one deliberate defect.
fn pathological_mip() -> impl Strategy<Value = Model> {
    (1..=3usize, 0..PATHOLOGIES, 1..=6i32).prop_map(|(nv, kind, rhs)| {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..nv)
            .map(|i| m.add_var(format!("x{i}"), VarType::Integer, 0.0, 3.0))
            .collect();
        let sum = LinExpr::sum(vars.iter().map(|v| (*v, 1.0)));
        m.set_objective(sum.clone());
        m.add_constraint("ok", sum, Sense::Le, rhs as f64);
        match kind {
            0 => m.set_objective(LinExpr::term(vars[0], f64::NAN)),
            1 => {
                m.add_constraint(
                    "inf_coeff",
                    LinExpr::term(vars[0], f64::INFINITY),
                    Sense::Le,
                    1.0,
                );
            }
            2 => {
                // Crossed bounds go in through add_var: set_bounds
                // asserts, but a model deserialized or built from
                // corrupted inputs can carry them.
                m.add_var("crossed", VarType::Integer, 2.0, 1.0);
            }
            3 => {
                m.add_constraint("nan_rhs", LinExpr::term(vars[0], 1.0), Sense::Le, f64::NAN);
            }
            4 => {
                m.add_var("nan_bound", VarType::Continuous, f64::NAN, 3.0);
            }
            _ => {
                // A variable handle the model never issued.
                m.add_constraint("dangling", LinExpr::term(Var(97), 1.0), Sense::Le, 1.0);
            }
        }
        m
    })
}

/// A small well-formed integer program (no defect).
fn clean_mip() -> impl Strategy<Value = Model> {
    (1..=4usize, 0..=4usize, 1..=8i32).prop_flat_map(|(nv, nc, rhs)| {
        let cons = prop::collection::vec((prop::collection::vec(-5..=5i32, nv), 0..=2u8), nc);
        let obj = prop::collection::vec(-5..=5i32, nv);
        (obj, cons).prop_map(move |(obj, cons)| {
            let mut m = Model::new();
            let vars: Vec<Var> = (0..nv)
                .map(|i| m.add_var(format!("x{i}"), VarType::Integer, 0.0, 4.0))
                .collect();
            m.set_objective(LinExpr::sum(
                vars.iter().zip(&obj).map(|(v, c)| (*v, *c as f64)),
            ));
            for (ci, (coeffs, sense)) in cons.iter().enumerate() {
                let expr = LinExpr::sum(vars.iter().zip(coeffs).map(|(v, c)| (*v, *c as f64)));
                let sense = match sense {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                m.add_constraint(format!("c{ci}"), expr, sense, rhs as f64);
            }
            m
        })
    })
}

fn rejects(issues: &[AuditIssue]) -> usize {
    issues
        .iter()
        .filter(|i| i.severity == Severity::Reject)
        .count()
}

/// `Err(None)` when the solve did not return `InvalidModel`; otherwise
/// the reject count of the carried findings.
fn solve_rejections(model: &Model) -> Result<usize, Option<String>> {
    match model.solve() {
        Err(SolveError::InvalidModel(issues)) => Ok(rejects(&issues)),
        Ok(s) => Err(Some(format!("solved to {}", s.objective))),
        Err(e) => Err(Some(format!("{e}"))),
    }
}

/// `Ok` when a clean model solves certified-clean or is honestly
/// infeasible; `Err(description)` otherwise (a refused, uncertified
/// solution included).
fn clean_verdict(model: &Model) -> Result<(), String> {
    match model.solve() {
        Ok(solution) if solution.stats.audit.certified_clean() => Ok(()),
        Ok(solution) => Err(format!(
            "not certified clean: {:?}",
            solution.stats.audit.violations
        )),
        Err(SolveError::Infeasible) => Ok(()),
        Err(e) => Err(format!("unexpected solver error: {e}")),
    }
}

// NOTE: no `///` doc comments inside the `proptest!` blocks — they expand
// to `#[doc]` attributes the vendored macro's `#[test] fn` matcher cannot
// consume, which sends the token-muncher into unbounded recursion.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The static audit flags every injected defect at reject severity.
    #[test]
    fn pathological_models_are_rejected_structurally(model in pathological_mip()) {
        let issues = audit_model(&model, &AuditConfig {});
        prop_assert!(
            rejects(&issues) > 0,
            "auditor missed the injected defect; findings: {issues:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // An audited solve of a defective model returns
    // `SolveError::InvalidModel` carrying the findings — it must not
    // panic, hang, or hand back a "solution".
    #[test]
    fn audited_solve_rejects_instead_of_panicking(model in pathological_mip()) {
        match solve_rejections(&model) {
            Ok(n) => prop_assert!(n > 0, "InvalidModel carried no reject"),
            Err(got) => prop_assert!(false, "expected InvalidModel, got {got:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Well-formed models are never rejected by the static audit, and an
    // audited solve reaches a normal certified verdict.
    #[test]
    fn clean_models_pass_the_audit(model in clean_mip()) {
        let issues = audit_model(&model, &AuditConfig {});
        prop_assert_eq!(rejects(&issues), 0, "clean model rejected: {:?}", issues);
        let verdict = clean_verdict(&model);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
