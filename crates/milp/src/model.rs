//! MIP model construction.
//!
//! A [`Model`] owns variables, linear constraints, and a minimization
//! objective, plus the exact linearization helpers the RAS formulation
//! needs ([`Model::max_of_zero`], [`Model::max_over`], [`Model::abs_le`]).

use crate::expr::{LinExpr, Var};
use crate::nan::NanGuard;
use crate::solution::{Solution, SolveConfig, SolveError};
use crate::tol;

/// Variable integrality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer restricted to {0, 1}; bounds are clamped accordingly.
    Binary,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Metadata of one variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Human-readable name (used in diagnostics).
    pub name: String,
    /// Integrality class.
    pub ty: VarType,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
}

/// One linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// Left-hand side (its constant is folded into `rhs` at standardization).
    pub expr: LinExpr,
    /// Sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A mixed-integer linear program, always a *minimization*.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<VarInfo>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
    /// Set when [`Model::add_var`] ran out of `u32` variable indices. A
    /// poisoned model refuses to solve with [`SolveError::TooLarge`]
    /// instead of panicking at construction time, so region-scale callers
    /// get a structured size refusal they already know how to handle.
    var_overflow: bool,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable and returns its handle.
    ///
    /// For [`VarType::Binary`] the bounds are clamped to `[0, 1]`.
    pub fn add_var(&mut self, name: impl Into<String>, ty: VarType, lower: f64, upper: f64) -> Var {
        let (lower, upper) = match ty {
            VarType::Binary => (lower.nmax(0.0), upper.nmin(1.0)),
            _ => (lower, upper),
        };
        let var = Var(u32::try_from(self.vars.len()).unwrap_or_else(|_| {
            // Poison the model instead of panicking: the returned handle
            // aliases column 0, but every solve now refuses with
            // `SolveError::TooLarge` before that handle can matter.
            self.var_overflow = true;
            0
        }));
        self.vars.push(VarInfo {
            name: name.into(),
            ty,
            lower,
            upper,
        });
        var
    }

    /// Adds a constraint; the expression is compacted first.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        sense: Sense,
        rhs: f64,
    ) -> usize {
        let mut expr = expr.into();
        expr.compact();
        // Fold the expression constant into the right-hand side.
        let rhs = rhs - expr.constant;
        expr.constant = 0.0;
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            sense,
            rhs,
        });
        self.constraints.len() - 1
    }

    /// Appends `coeff · var` to row `index`, where `var` is newer than
    /// every column the row already holds, so the row stays sorted.
    pub fn add_term(&mut self, index: usize, var: Var, coeff: f64) {
        let terms = &mut self.constraints[index].expr.terms;
        debug_assert!(terms.last().is_none_or(|(v, _)| v.index() < var.index()));
        terms.reserve_exact(1);
        terms.push((var, coeff));
    }

    /// Sets the minimization objective (replacing any previous one).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        let mut expr = expr.into();
        expr.compact();
        self.objective = expr;
    }

    /// The minimization objective.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// All variables.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Variable metadata by handle.
    pub fn var(&self, var: Var) -> &VarInfo {
        &self.vars[var.index()]
    }

    /// Tightens the bounds of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if the new interval is empty by more than a small tolerance.
    pub fn set_bounds(&mut self, var: Var, lower: f64, upper: f64) {
        assert!(
            lower <= upper + tol::EPS,
            "empty bound interval [{lower}, {upper}] for {}",
            self.vars[var.index()].name
        );
        let info = &mut self.vars[var.index()];
        info.lower = lower;
        info.upper = upper;
    }

    /// Replaces the right-hand side of an existing constraint.
    ///
    /// This is the row-level analogue of [`set_bounds`](Self::set_bounds):
    /// an RHS-only change keeps an optimal basis dual feasible, which is
    /// what the dual-simplex differential tests drive through it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_rhs(&mut self, index: usize, rhs: f64) {
        self.constraints[index].rhs = rhs;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    // ------------------------------------------------------------------
    // Linearization helpers used by the RAS formulation (Section 3.5.3).
    // ------------------------------------------------------------------

    /// Linearizes `t = max(0, expr)` for an expression that is *minimized*.
    ///
    /// Adds a continuous variable `t >= 0` with `t >= expr`; because `t`
    /// only appears with positive objective coefficient, at any optimum
    /// `t = max(0, expr)` exactly. Used by Expressions 1–3 of the paper.
    pub fn max_of_zero(&mut self, name: impl Into<String>, expr: impl Into<LinExpr>) -> Var {
        let name = name.into();
        let t = self.add_var(
            format!("{name}.max0"),
            VarType::Continuous,
            0.0,
            f64::INFINITY,
        );
        // t >= expr  <=>  expr - t <= 0.
        self.add_constraint(format!("{name}.ub"), expr.into() - t, Sense::Le, 0.0);
        t
    }

    /// Linearizes `t = max_i expr_i` for a term that is *minimized*.
    ///
    /// Adds a continuous `t` with `t >= expr_i` for every `i`. Used by
    /// Expression 4 (per-reservation maximum MSB usage) and, with the sign
    /// flipped by the caller, by the correlated-failure constraint (6).
    pub fn max_over(
        &mut self,
        name: impl Into<String>,
        exprs: impl IntoIterator<Item = LinExpr>,
    ) -> Var {
        let name = name.into();
        let t = self.add_var(
            format!("{name}.max"),
            VarType::Continuous,
            f64::NEG_INFINITY,
            f64::INFINITY,
        );
        let mut any = false;
        for (i, expr) in exprs.into_iter().enumerate() {
            any = true;
            self.add_constraint(format!("{name}.ge{i}"), expr - t, Sense::Le, 0.0);
        }
        if !any {
            // max over the empty set is 0 by convention here.
            self.set_bounds(t, 0.0, 0.0);
        } else {
            // `t` must not go below 0 unless some expression forces it;
            // keep it free: the caller decides by how `t` enters the
            // objective/constraints. We only ensure boundedness below via
            // the max constraints when minimized.
        }
        t
    }

    /// Adds the pair of constraints `|expr| <= bound` (paper Expression 7).
    pub fn abs_le(&mut self, name: impl Into<String>, expr: impl Into<LinExpr>, bound: f64) {
        let name = name.into();
        let expr = expr.into();
        self.add_constraint(format!("{name}.pos"), expr.clone(), Sense::Le, bound);
        self.add_constraint(format!("{name}.neg"), expr, Sense::Ge, -bound);
    }

    /// Estimated resident size of the model in bytes (used by the Figure 11
    /// memory-scaling experiment).
    pub fn memory_estimate_bytes(&self) -> usize {
        let term_bytes = std::mem::size_of::<(Var, f64)>();
        let var_bytes: usize = self
            .vars
            .iter()
            .map(|v| std::mem::size_of::<VarInfo>() + v.name.capacity())
            .sum();
        let con_bytes: usize = self
            .constraints
            .iter()
            .map(|c| {
                std::mem::size_of::<Constraint>()
                    + c.name.capacity()
                    + c.expr.terms.capacity() * term_bytes
            })
            .sum();
        var_bytes + con_bytes + self.objective.terms.capacity() * term_bytes
    }

    /// Checks a candidate assignment against bounds, integrality, and all
    /// constraints; returns the names of violated items.
    pub fn violations(&self, values: &[f64], tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        for (i, info) in self.vars.iter().enumerate() {
            let v = values[i];
            if v < info.lower - tol || v > info.upper + tol {
                out.push(format!("bounds:{}", info.name));
            }
            if info.ty != VarType::Continuous && (v - v.round()).abs() > tol {
                out.push(format!("integrality:{}", info.name));
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(values);
            let bad = match c.sense {
                Sense::Le => lhs > c.rhs + tol,
                Sense::Ge => lhs < c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() > tol,
            };
            if bad {
                out.push(format!("constraint:{}", c.name));
            }
        }
        out
    }

    /// Solves the model with the default branch-and-bound backend and
    /// default configuration.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveConfig::default())
    }

    /// Solves the model with the branch-and-bound backend and an explicit
    /// configuration.
    pub fn solve_with(&self, config: &SolveConfig) -> Result<Solution, SolveError> {
        if self.var_overflow {
            // Variable indices overflowed u32 at build time; the model's
            // handles are unreliable, so refuse as a size problem.
            return Err(SolveError::TooLarge);
        }
        crate::branch::solve(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_binary_clamps_bounds() {
        let mut m = Model::new();
        let b = m.add_var("b", VarType::Binary, -5.0, 5.0);
        assert_eq!(m.var(b).lower, 0.0);
        assert_eq!(m.var(b).upper, 1.0);
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("c", 1.0 * x + 3.0, Sense::Le, 5.0);
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 2.0);
        assert_eq!(c.expr.constant, 0.0);
    }

    #[test]
    fn violations_detects_each_kind() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("cap", LinExpr::from(x), Sense::Le, 3.0);
        let v = m.violations(&[4.5], 1e-6);
        assert!(v.iter().any(|s| s.starts_with("integrality")));
        assert!(v.iter().any(|s| s.starts_with("constraint")));
        let v = m.violations(&[-1.0], 1e-6);
        assert!(v.iter().any(|s| s.starts_with("bounds")));
        assert!(m.violations(&[3.0], 1e-6).is_empty());
    }

    #[test]
    fn memory_estimate_grows_with_model() {
        let mut m = Model::new();
        let base = m.memory_estimate_bytes();
        for i in 0..100 {
            let x = m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 1.0);
            m.add_constraint(format!("c{i}"), LinExpr::from(x), Sense::Le, 1.0);
        }
        assert!(m.memory_estimate_bytes() > base + 100 * 16);
    }

    #[test]
    fn abs_le_adds_two_constraints() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, -10.0, 10.0);
        m.abs_le("a", LinExpr::from(x), 2.0);
        assert_eq!(m.num_constraints(), 2);
        assert!(m.violations(&[2.5], 1e-6).len() == 1);
        assert!(m.violations(&[-2.5], 1e-6).len() == 1);
        assert!(m.violations(&[1.5], 1e-6).is_empty());
    }
}
