//! Static model auditing and post-solve solution certificates.
//!
//! RAS re-solves the region continuously, and the solver's shortcuts
//! (dual-first roots from the running plan, held installs, candidate
//! incumbents, the look-ahead's node solves) are exactly where silent
//! numerical corruption would creep in. This module is the cheap
//! self-verification substrate that makes those shortcuts safe (the same
//! idea POP and CvxCluster lean on: aggressive solver shortcuts guarded
//! by post-hoc feasibility checks):
//!
//! * [`audit_model`] / [`audit_standard_form`] — a *static auditor* run
//!   before the solve. It rejects models no solver invariant can survive
//!   (NaN coefficients, crossed bounds `lo > up`, dangling variable
//!   references, integer variables whose bounds contain no integer) and
//!   flags suspicious-but-solvable ones (absurd coefficient scales,
//!   empty rows/columns, duplicate entries).
//! * [`check_lp_certificate`] — an *LP certificate checker* run on the
//!   proven-optimal root relaxation: primal feasibility `Ax = b`, bound
//!   satisfaction, dual feasibility of the reduced costs against
//!   [`LpResult::duals`], and complementary slackness (an interior
//!   variable must have a vanishing reduced cost).
//! * [`check_mip_certificate`] — a *MIP certificate checker* run on the
//!   final incumbent: primal feasibility against the original model,
//!   bounds, integrality, objective consistency, and the
//!   incumbent-within-gap invariant (`best_bound` may never overclaim
//!   the incumbent).
//!
//! [`crate::branch::solve`] runs all four on every solve, in every build
//! profile, and their verdict binds: a reject-level static finding
//! refuses the solve with
//! [`SolveError::InvalidModel`](crate::solution::SolveError::InvalidModel),
//! and a certificate violation (root LP or MIP) refuses the solution with
//! [`SolveError::Uncertified`](crate::solution::SolveError::Uncertified).
//! So every `Ok` solution carries an [`AuditReport`] in its
//! [`SolveStats`] that is [`certified_clean`](AuditReport::certified_clean);
//! the checkers themselves record violations as *data*, never panics.

use crate::model::{Model, VarType};
use crate::nan::NanGuard;
use crate::simplex::{LpResult, LpStatus};
use crate::solution::SolveStats;
use crate::standard::StandardForm;
use crate::tol;

/// When the model auditor and certificate checkers run: on every solve.
/// The one value stays only because the frozen end-to-end benchmark
/// names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Audit every solve, in every build profile.
    #[default]
    On,
}

/// Which invariant an [`AuditIssue`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// NaN or infinite coefficient in a constraint or the objective.
    NonFiniteCoefficient,
    /// Coefficient magnitude above [`MAX_COEFF`].
    HugeCoefficient,
    /// Nonzero coefficient magnitude below [`tol::COEFF_MIN`].
    TinyCoefficient,
    /// NaN variable bound (infinite bounds are legal).
    NonFiniteBound,
    /// Empty bound interval `lo > up`.
    CrossedBounds,
    /// Non-finite constraint right-hand side: NaN and unsatisfiable
    /// infinities (`≥ +∞`, `≤ −∞`, `= ±∞`) reject; vacuous infinities
    /// (`≤ +∞`, `≥ −∞`) flag.
    NonFiniteRhs,
    /// A term references a variable the model does not own.
    DanglingVariable,
    /// Duplicate or out-of-order entries in a row or CSC column.
    DuplicateEntry,
    /// A structural variable that appears in no constraint.
    EmptyColumn,
    /// A constraint with no terms (reject when trivially infeasible).
    EmptyRow,
    /// An integer variable whose bound interval contains no integer.
    FractionalIntegerBounds,
    /// `Ax = b` residual beyond tolerance (LP) or a violated original
    /// constraint (MIP).
    PrimalInfeasible,
    /// A variable outside its bounds.
    BoundViolation,
    /// An integer variable with a fractional value.
    IntegralityViolation,
    /// A reduced cost with the wrong sign at its bound.
    DualInfeasible,
    /// An interior variable with a non-vanishing reduced cost.
    ComplementarityViolation,
    /// `best_bound` claims more than the incumbent delivers.
    BoundOverclaim,
    /// Reported objective disagrees with re-evaluating the incumbent.
    ObjectiveMismatch,
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The solve must not proceed (pre-solve) or cannot be trusted
    /// (post-solve certificate violation).
    Reject,
    /// Suspicious but solvable; recorded for observability.
    Flag,
}

/// One auditor finding: a structured record, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditIssue {
    /// The invariant this finding is about.
    pub check: AuditCheck,
    /// Severity class.
    pub severity: Severity,
    /// What the finding is attached to (variable/constraint name,
    /// `col j` / `row i` index, or `objective`).
    pub subject: String,
    /// Human-readable specifics (offending values, residuals).
    pub detail: String,
}

impl AuditIssue {
    fn reject(check: AuditCheck, subject: impl Into<String>, detail: String) -> Self {
        Self {
            check,
            severity: Severity::Reject,
            subject: subject.into(),
            detail,
        }
    }

    fn flag(check: AuditCheck, subject: impl Into<String>, detail: String) -> Self {
        Self {
            check,
            severity: Severity::Flag,
            subject: subject.into(),
            detail,
        }
    }
}

impl std::fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}/{:?} at {}: {}",
            self.severity, self.check, self.subject, self.detail
        )
    }
}

/// Coefficient magnitudes above this are flagged as absurdly scaled.
pub const MAX_COEFF: f64 = 1e10;

/// The auditor's settings: none. Its tolerances are [`tol::PRIMAL_FEAS`]
/// (primal, bound and integrality residuals), [`tol::DUAL_FEAS`] (reduced
/// costs, which accumulate one inner product of rounding per column),
/// [`tol::COEFF_MIN`] and [`MAX_COEFF`]. Every check function still takes
/// one only because the frozen end-to-end benchmark passes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditConfig {}

/// The structured audit outcome carried in
/// [`SolveStats::audit`](crate::solution::SolveStats::audit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// The static model auditor ran.
    pub model_checked: bool,
    /// The MIP certificate checker ran on the returned solution.
    pub certified: bool,
    /// The LP dual certificate (dual feasibility + complementary
    /// slackness) was checked against a proven-optimal root relaxation.
    pub dual_certified: bool,
    /// Flag-level static findings (reject-level ones abort the solve
    /// with [`SolveError::InvalidModel`](crate::solution::SolveError)).
    pub issues: Vec<AuditIssue>,
    /// Certificate violations; empty on every trustworthy solve.
    pub violations: Vec<AuditIssue>,
    /// Largest relative `Ax = b` / constraint residual observed.
    pub max_primal_residual: f64,
    /// Largest relative bound violation observed.
    pub max_bound_violation: f64,
    /// Largest distance-to-integer observed on an integer variable.
    pub max_integrality_violation: f64,
    /// Largest relative wrong-signed reduced cost at a bound.
    pub max_dual_violation: f64,
    /// Largest relative interior reduced cost (complementary slackness).
    pub max_complementarity_violation: f64,
}

impl AuditReport {
    /// True when the solution was certificate-checked and is clean.
    pub fn certified_clean(&self) -> bool {
        self.certified && self.violations.is_empty()
    }

    /// Folds another solve's report into this one, for a caller that
    /// reports several solves as one (the sharded round; see
    /// [`SolveStats::absorb`](crate::SolveStats::absorb) for the rest of
    /// the statistics): each check counts as run only if it ran on both,
    /// `issues` and `violations` concatenate in order, and every `max_*`
    /// field takes the larger value.
    pub fn absorb(&mut self, other: &AuditReport) {
        self.model_checked &= other.model_checked;
        self.certified &= other.certified;
        self.dual_certified &= other.dual_certified;
        self.issues.extend(other.issues.iter().cloned());
        self.violations.extend(other.violations.iter().cloned());
        for (mine, theirs) in [
            (&mut self.max_primal_residual, other.max_primal_residual),
            (&mut self.max_bound_violation, other.max_bound_violation),
            (
                &mut self.max_integrality_violation,
                other.max_integrality_violation,
            ),
            (&mut self.max_dual_violation, other.max_dual_violation),
            (
                &mut self.max_complementarity_violation,
                other.max_complementarity_violation,
            ),
        ] {
            *mine = mine.nmax(theirs);
        }
    }
}

fn audit_expr(
    issues: &mut Vec<AuditIssue>,
    subject: &str,
    expr: &crate::expr::LinExpr,
    num_vars: usize,
) {
    for &(var, coeff) in &expr.terms {
        if var.index() >= num_vars {
            issues.push(AuditIssue::reject(
                AuditCheck::DanglingVariable,
                subject,
                format!("term references variable #{} of {num_vars}", var.index()),
            ));
            continue;
        }
        if !coeff.is_finite() {
            issues.push(AuditIssue::reject(
                AuditCheck::NonFiniteCoefficient,
                subject,
                format!("coefficient {coeff} on variable #{}", var.index()),
            ));
        } else if coeff.abs() > MAX_COEFF {
            issues.push(AuditIssue::flag(
                AuditCheck::HugeCoefficient,
                subject,
                format!("|{coeff:e}| exceeds {:e}", MAX_COEFF),
            ));
        } else if coeff != 0.0 && coeff.abs() < tol::COEFF_MIN {
            issues.push(AuditIssue::flag(
                AuditCheck::TinyCoefficient,
                subject,
                format!("|{coeff:e}| is below {:e}", tol::COEFF_MIN),
            ));
        }
    }
    if !expr.constant.is_finite() {
        issues.push(AuditIssue::reject(
            AuditCheck::NonFiniteCoefficient,
            subject,
            format!("constant term {}", expr.constant),
        ));
    }
}

/// Statically audits a model before any solver work touches it.
///
/// Returns every finding; the caller decides what to do with
/// [`Severity::Flag`]s, but any [`Severity::Reject`] means the model
/// must not be solved (the standard-form build or the simplex would
/// panic, overflow, or silently produce garbage on it).
pub fn audit_model(model: &Model, _: &AuditConfig) -> Vec<AuditIssue> {
    let mut issues = Vec::new();
    let n = model.num_vars();
    for info in model.vars() {
        if info.lower.is_nan() || info.upper.is_nan() {
            issues.push(AuditIssue::reject(
                AuditCheck::NonFiniteBound,
                &info.name,
                format!("bounds [{}, {}]", info.lower, info.upper),
            ));
            continue;
        }
        if info.lower > info.upper {
            issues.push(AuditIssue::reject(
                AuditCheck::CrossedBounds,
                &info.name,
                format!("lo {} > up {}", info.lower, info.upper),
            ));
            continue;
        }
        if info.ty != VarType::Continuous {
            let lo = if info.lower.is_finite() {
                info.lower.ceil()
            } else {
                f64::NEG_INFINITY
            };
            let up = if info.upper.is_finite() {
                info.upper.floor()
            } else {
                f64::INFINITY
            };
            if lo > up {
                issues.push(AuditIssue::reject(
                    AuditCheck::FractionalIntegerBounds,
                    &info.name,
                    format!(
                        "integer interval [{}, {}] contains no integer",
                        info.lower, info.upper
                    ),
                ));
            } else if (info.lower.is_finite() && info.lower.fract() != 0.0)
                || (info.upper.is_finite() && info.upper.fract() != 0.0)
            {
                issues.push(AuditIssue::flag(
                    AuditCheck::FractionalIntegerBounds,
                    &info.name,
                    format!(
                        "integer variable with fractional bounds [{}, {}]",
                        info.lower, info.upper
                    ),
                ));
            }
        }
    }

    audit_expr(&mut issues, "objective", model.objective(), n);

    for c in model.constraints() {
        if c.rhs.is_nan() {
            issues.push(AuditIssue::reject(
                AuditCheck::NonFiniteRhs,
                &c.name,
                "rhs is NaN".to_string(),
            ));
        } else if c.rhs.is_infinite() {
            // A vacuous infinite rhs (`≤ +∞`, `≥ −∞`) is sloppy but
            // solvable. An *unsatisfiable* one (`≥ +∞`, `≤ −∞`, `= ±∞`)
            // must reject: no finite point satisfies it, yet the LP
            // arithmetic propagates the infinity instead of detecting
            // infeasibility and can report an "optimal" non-finite
            // objective downstream.
            let unsatisfiable = match c.sense {
                crate::model::Sense::Le => c.rhs == f64::NEG_INFINITY,
                crate::model::Sense::Ge => c.rhs == f64::INFINITY,
                crate::model::Sense::Eq => true,
            };
            issues.push(if unsatisfiable {
                AuditIssue::reject(
                    AuditCheck::NonFiniteRhs,
                    &c.name,
                    format!("rhs {} is unsatisfiable for this sense", c.rhs),
                )
            } else {
                AuditIssue::flag(AuditCheck::NonFiniteRhs, &c.name, format!("rhs {}", c.rhs))
            });
        }
        audit_expr(&mut issues, &c.name, &c.expr, n);
        if c.expr.terms.is_empty() {
            // `0 (sense) rhs`: vacuous, or trivially infeasible — which
            // is still a *solvable* model (the solve reports Infeasible),
            // so both cases are flags, never rejects.
            let infeasible = match c.sense {
                crate::model::Sense::Le => 0.0 > c.rhs,
                crate::model::Sense::Ge => 0.0 < c.rhs,
                crate::model::Sense::Eq => c.rhs != 0.0,
            };
            issues.push(AuditIssue::flag(
                AuditCheck::EmptyRow,
                &c.name,
                if infeasible && !c.rhs.is_nan() {
                    format!("no terms and rhs {} is unsatisfiable", c.rhs)
                } else {
                    "constraint has no terms".to_string()
                },
            ));
            continue;
        }
        // `add_constraint` compacts (sorts + merges) every row, so any
        // duplicate here means the model was mutated behind the API.
        let sorted = c
            .expr
            .terms
            .windows(2)
            .all(|w| w[0].0.index() < w[1].0.index());
        if !sorted {
            let mut idx: Vec<usize> = c.expr.terms.iter().map(|t| t.0.index()).collect();
            idx.sort_unstable();
            let dup = idx.windows(2).any(|w| w[0] == w[1]);
            issues.push(AuditIssue::flag(
                AuditCheck::DuplicateEntry,
                &c.name,
                if dup {
                    "row has duplicate variable entries".to_string()
                } else {
                    "row terms are not sorted by variable".to_string()
                },
            ));
        }
    }
    issues
}

/// Audits a built [`StandardForm`]: CSC column entries must be sorted,
/// unique, in-range, and finite; a structural variable appearing in no
/// row is flagged (it can only move to whichever bound its cost prefers,
/// which usually means a modelling bug upstream).
pub fn audit_standard_form(sf: &StandardForm, _: &AuditConfig) -> Vec<AuditIssue> {
    let mut issues = Vec::new();
    for j in 0..sf.num_cols() {
        let mut last_row: Option<usize> = None;
        let mut entries = 0usize;
        for (i, a) in sf.matrix.column(j) {
            entries += 1;
            if i >= sf.num_rows {
                issues.push(AuditIssue::reject(
                    AuditCheck::DanglingVariable,
                    format!("col {j}"),
                    format!("entry row {i} of {}", sf.num_rows),
                ));
            }
            if !a.is_finite() {
                issues.push(AuditIssue::reject(
                    AuditCheck::NonFiniteCoefficient,
                    format!("col {j}"),
                    format!("entry value {a} in row {i}"),
                ));
            } else if a.abs() > MAX_COEFF {
                issues.push(AuditIssue::flag(
                    AuditCheck::HugeCoefficient,
                    format!("col {j}"),
                    format!("|{a:e}| in row {i} exceeds {:e}", MAX_COEFF),
                ));
            }
            if let Some(prev) = last_row {
                if i <= prev {
                    issues.push(AuditIssue::reject(
                        AuditCheck::DuplicateEntry,
                        format!("col {j}"),
                        format!("row {i} after row {prev} (duplicate or unsorted)"),
                    ));
                }
            }
            last_row = Some(i);
        }
        if entries == 0 && j < sf.num_structural {
            issues.push(AuditIssue::flag(
                AuditCheck::EmptyColumn,
                format!("col {j}"),
                "structural variable appears in no constraint".to_string(),
            ));
        }
    }
    issues
}

/// Certifies a proven-optimal LP solution against the standard form it
/// came from: primal feasibility of `Ax = b`, bound satisfaction, dual
/// feasibility of the reduced costs `d = c − yᵀA` against the bound each
/// variable rests on, and complementary slackness (interior ⇒ `d ≈ 0`).
///
/// `lower`/`upper` are the node bounds the LP was solved under (the
/// branch-and-bound overrides the standard form's defaults per node).
/// No-op unless `lp.status` is [`LpStatus::Optimal`].
pub fn check_lp_certificate(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    lp: &LpResult,
    _: &AuditConfig,
    report: &mut AuditReport,
) {
    if lp.status != LpStatus::Optimal {
        return;
    }
    let total = sf.num_cols();
    if lp.values.len() < total {
        report.violations.push(AuditIssue::reject(
            AuditCheck::PrimalInfeasible,
            "lp values",
            format!("{} values for {total} columns", lp.values.len()),
        ));
        return;
    }

    // Primal residual of Ax = b.
    let mut activity = vec![0.0f64; sf.num_rows];
    for j in 0..total {
        let x = lp.values[j];
        if x == 0.0 {
            continue;
        }
        for (i, a) in sf.matrix.column(j) {
            activity[i] += a * x;
        }
    }
    for (i, act) in activity.iter().enumerate() {
        let rel = (act - sf.rhs[i]).abs() / (1.0 + sf.rhs[i].abs());
        report.max_primal_residual = report.max_primal_residual.max(rel);
        if rel > tol::PRIMAL_FEAS {
            report.violations.push(AuditIssue::reject(
                AuditCheck::PrimalInfeasible,
                format!("row {i}"),
                format!("activity {act} vs rhs {} (rel {rel:e})", sf.rhs[i]),
            ));
        }
    }

    // Bounds.
    for j in 0..total {
        let x = lp.values[j];
        let below = (lower[j] - x).nmax(0.0);
        let above = (x - upper[j]).nmax(0.0);
        let viol = below.max(above);
        if viol > 0.0 {
            let rel = viol / (1.0 + x.abs());
            report.max_bound_violation = report.max_bound_violation.max(rel);
            if rel > tol::PRIMAL_FEAS {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::BoundViolation,
                    format!("col {j}"),
                    format!("value {x} outside [{}, {}]", lower[j], upper[j]),
                ));
            }
        }
    }

    // Dual certificate: reduced costs against resting bounds.
    if lp.duals.len() != sf.num_rows || sf.num_rows == 0 {
        return;
    }
    report.dual_certified = true;
    for j in 0..total {
        let mut dot = 0.0f64;
        let mut scale = sf.costs[j].abs();
        for (i, a) in sf.matrix.column(j) {
            let term = lp.duals[i] * a;
            dot += term;
            scale += term.abs();
        }
        let d = sf.costs[j] - dot;
        let dtol = tol::DUAL_FEAS * (1.0 + scale);
        let x = lp.values[j];
        let btol = tol::PRIMAL_FEAS * (1.0 + x.abs());
        let at_lo = lower[j].is_finite() && x - lower[j] <= btol;
        let at_up = upper[j].is_finite() && upper[j] - x <= btol;
        if at_lo && at_up {
            continue; // Fixed variable: any reduced-cost sign is dual-feasible.
        }
        if at_lo {
            let excess = (-d).nmax(0.0) / (1.0 + scale);
            report.max_dual_violation = report.max_dual_violation.max(excess);
            if -d > dtol {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::DualInfeasible,
                    format!("col {j}"),
                    format!("d = {d:e} < 0 at lower bound"),
                ));
            }
        } else if at_up {
            let excess = d.nmax(0.0) / (1.0 + scale);
            report.max_dual_violation = report.max_dual_violation.max(excess);
            if d > dtol {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::DualInfeasible,
                    format!("col {j}"),
                    format!("d = {d:e} > 0 at upper bound"),
                ));
            }
        } else {
            // Interior: complementary slackness forces d to vanish.
            let rel = d.abs() / (1.0 + scale);
            report.max_complementarity_violation = report.max_complementarity_violation.max(rel);
            if d.abs() > dtol {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::ComplementarityViolation,
                    format!("col {j}"),
                    format!("interior value {x} with reduced cost {d:e}"),
                ));
            }
        }
    }
}

/// Certifies a final MIP incumbent against the original model: bounds,
/// integrality, every constraint, objective consistency, and the
/// incumbent-within-gap invariant `best_bound ≤ objective`.
pub fn check_mip_certificate(
    model: &Model,
    values: &[f64],
    objective: f64,
    stats: &SolveStats,
    _: &AuditConfig,
    report: &mut AuditReport,
) {
    report.certified = true;
    if values.len() != model.num_vars() {
        report.violations.push(AuditIssue::reject(
            AuditCheck::PrimalInfeasible,
            "solution",
            format!("{} values for {} variables", values.len(), model.num_vars()),
        ));
        return;
    }
    for (info, &x) in model.vars().iter().zip(values) {
        let viol = (info.lower - x).nmax(x - info.upper).nmax(0.0);
        if viol > 0.0 {
            let rel = viol / (1.0 + x.abs());
            report.max_bound_violation = report.max_bound_violation.max(rel);
            if rel > tol::PRIMAL_FEAS {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::BoundViolation,
                    &info.name,
                    format!("value {x} outside [{}, {}]", info.lower, info.upper),
                ));
            }
        }
        if info.ty != VarType::Continuous {
            let frac = (x - x.round()).abs();
            report.max_integrality_violation = report.max_integrality_violation.max(frac);
            if frac > tol::PRIMAL_FEAS {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::IntegralityViolation,
                    &info.name,
                    format!("value {x} is fractional by {frac:e}"),
                ));
            }
        }
    }
    for c in model.constraints() {
        let lhs = c.expr.eval(values);
        let viol = match c.sense {
            crate::model::Sense::Le => lhs - c.rhs,
            crate::model::Sense::Ge => c.rhs - lhs,
            crate::model::Sense::Eq => (lhs - c.rhs).abs(),
        }
        .nmax(0.0);
        if viol > 0.0 {
            let rel = viol / (1.0 + c.rhs.abs());
            report.max_primal_residual = report.max_primal_residual.max(rel);
            if rel > tol::PRIMAL_FEAS {
                report.violations.push(AuditIssue::reject(
                    AuditCheck::PrimalInfeasible,
                    &c.name,
                    format!("lhs {lhs} violates rhs {} by {viol:e}", c.rhs),
                ));
            }
        }
    }
    let recomputed = model.objective().eval(values);
    if (recomputed - objective).abs() > tol::PRIMAL_FEAS * (1.0 + objective.abs()) {
        report.violations.push(AuditIssue::reject(
            AuditCheck::ObjectiveMismatch,
            "objective",
            format!("reported {objective} vs re-evaluated {recomputed}"),
        ));
    }
    if stats.best_bound.is_finite()
        && stats.best_bound > objective + tol::PRIMAL_FEAS * (1.0 + objective.abs())
    {
        report.violations.push(AuditIssue::reject(
            AuditCheck::BoundOverclaim,
            "best_bound",
            format!("best_bound {} > incumbent {objective}", stats.best_bound),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Sense, VarType};

    #[test]
    fn clean_model_audits_clean() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        assert!(audit_model(&m, &AuditConfig {}).is_empty());
        let sf = StandardForm::from_model(&m);
        assert!(audit_standard_form(&sf, &AuditConfig {}).is_empty());
    }

    #[test]
    fn nan_coefficient_is_rejected() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("c", f64::NAN * x, Sense::Le, 1.0);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(
            issues
                .iter()
                .any(|i| i.check == AuditCheck::NonFiniteCoefficient
                    && i.severity == Severity::Reject)
        );
    }

    #[test]
    fn crossed_bounds_are_rejected() {
        let mut m = Model::new();
        // Bypass `set_bounds`' assert by constructing the var directly.
        m.add_var("x", VarType::Continuous, 2.0, 1.0);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues.iter().any(|i| i.check == AuditCheck::CrossedBounds));
    }

    #[test]
    fn integer_interval_without_integer_is_rejected() {
        let mut m = Model::new();
        m.add_var("x", VarType::Integer, 0.2, 0.8);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues
            .iter()
            .any(|i| i.check == AuditCheck::FractionalIntegerBounds
                && i.severity == Severity::Reject));
    }

    #[test]
    fn fractional_integer_bounds_are_flagged() {
        let mut m = Model::new();
        m.add_var("x", VarType::Integer, 0.5, 3.0);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues.iter().any(
            |i| i.check == AuditCheck::FractionalIntegerBounds && i.severity == Severity::Flag
        ));
    }

    #[test]
    fn unsatisfiable_infinite_rhs_is_rejected_vacuous_is_flagged() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("unsat", 1.0 * x, Sense::Ge, f64::INFINITY);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues
            .iter()
            .any(|i| i.check == AuditCheck::NonFiniteRhs && i.severity == Severity::Reject));

        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("vacuous", 1.0 * x, Sense::Le, f64::INFINITY);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues
            .iter()
            .any(|i| i.check == AuditCheck::NonFiniteRhs && i.severity == Severity::Flag));
        assert!(issues.iter().all(|i| i.severity == Severity::Flag));
    }

    #[test]
    fn huge_coefficient_is_flagged_not_rejected() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("c", 1e12 * x, Sense::Le, 1.0);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues.iter().all(|i| i.severity == Severity::Flag));
        assert!(issues
            .iter()
            .any(|i| i.check == AuditCheck::HugeCoefficient));
    }

    #[test]
    fn empty_infeasible_row_is_flagged_and_still_solvable() {
        let mut m = Model::new();
        let _ = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constraint("c", LinExpr::zero(), Sense::Ge, 2.0);
        let issues = audit_model(&m, &AuditConfig {});
        assert!(issues
            .iter()
            .any(|i| i.check == AuditCheck::EmptyRow && i.severity == Severity::Flag));
        // Trivial infeasibility is a solver outcome, not a model defect.
        assert!(matches!(
            m.solve(),
            Err(crate::solution::SolveError::Infeasible)
        ));
    }

    #[test]
    fn lp_certificate_accepts_a_real_optimum() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 4.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 4.0);
        m.add_constraint("c1", 1.0 * x + 1.0 * y, Sense::Le, 5.0);
        m.add_constraint("c2", 1.0 * x - 1.0 * y, Sense::Ge, -2.0);
        m.set_objective(-2.0 * x - 1.0 * y);
        let sf = StandardForm::from_model(&m);
        let lp = crate::simplex::solve_lp(
            &sf,
            &sf.lower,
            &sf.upper,
            &crate::simplex::SimplexConfig::default(),
        );
        assert_eq!(lp.status, LpStatus::Optimal);
        let mut report = AuditReport::default();
        check_lp_certificate(&sf, &sf.lower, &sf.upper, &lp, &AuditConfig {}, &mut report);
        assert!(report.dual_certified, "duals must be present and checked");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn lp_certificate_catches_corrupted_values() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 4.0);
        m.add_constraint("c", 1.0 * x, Sense::Le, 3.0);
        m.set_objective(-1.0 * x);
        let sf = StandardForm::from_model(&m);
        let config = crate::simplex::SimplexConfig::default();
        let mut lp = crate::simplex::solve_lp(&sf, &sf.lower, &sf.upper, &config);
        assert_eq!(lp.status, LpStatus::Optimal);
        lp.values[0] += 1.0; // Corrupt the primal point.
        let mut report = AuditReport::default();
        check_lp_certificate(&sf, &sf.lower, &sf.upper, &lp, &AuditConfig {}, &mut report);
        assert!(!report.violations.is_empty());
        assert!(report.max_primal_residual > 1e-3);
    }

    #[test]
    fn mip_certificate_catches_bound_overclaim() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        let stats = SolveStats {
            best_bound: -2.0, // Claims better than the incumbent -3.
            ..SolveStats::default()
        };
        let mut report = AuditReport::default();
        check_mip_certificate(&m, &[3.0], -3.0, &stats, &AuditConfig {}, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::BoundOverclaim));
    }

    #[test]
    fn mip_certificate_accepts_a_real_solution() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        let s = m.solve().unwrap();
        let mut report = AuditReport::default();
        check_mip_certificate(
            &m,
            &s.values,
            s.objective,
            &s.stats,
            &AuditConfig {},
            &mut report,
        );
        assert!(report.certified_clean(), "{:?}", report.violations);
    }
}
