//! Linear expressions over model variables.
//!
//! [`LinExpr`] is a sparse sum `Σ coeff·var + constant`. Expressions are
//! built with ordinary operators (`+`, `-`, `*` by a scalar) so the RAS
//! model code reads close to the paper's mathematical notation.

use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::tol;

/// A decision variable handle, valid for the [`Model`] that created it.
///
/// [`Model`]: crate::model::Model
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of the variable within its model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A linear expression `Σ coeff·var + constant`.
///
/// Terms may mention the same variable several times while building; call
/// [`LinExpr::compact`] (done automatically when adding to a model) to
/// merge duplicates and drop zero coefficients.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms, possibly with duplicates.
    pub terms: Vec<(Var, f64)>,
    /// Additive constant.
    pub constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn zero() -> Self {
        Self::default()
    }

    /// An expression holding only a constant.
    pub fn constant(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// A single-term expression `coeff * var`.
    pub fn term(var: Var, coeff: f64) -> Self {
        Self {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Adds `coeff * var` in place.
    pub fn add_term(&mut self, var: Var, coeff: f64) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// Sums `coeff * var` over an iterator of terms.
    pub fn sum(terms: impl IntoIterator<Item = (Var, f64)>) -> Self {
        Self {
            terms: terms.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Merges duplicate variables and removes (near-)zero coefficients.
    ///
    /// Non-finite coefficients are kept: a NaN term must survive into
    /// the model where the auditor can reject it, not vanish here and
    /// mask the corruption that produced it (`NaN.abs() > eps` is false,
    /// so a plain magnitude filter would silently drop it).
    pub fn compact(&mut self) {
        self.terms.sort_unstable_by_key(|(v, _)| *v);
        let mut out: Vec<(Var, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| c.abs() > tol::DROP || !c.is_finite());
        self.terms = out;
    }

    /// Evaluates the expression against a dense assignment of variable
    /// values indexed by [`Var::index`].
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: Var) -> LinExpr {
        self.terms.push((rhs, 1.0));
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: Var) -> LinExpr {
        self.terms.push((rhs, -1.0));
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: LinExpr) -> LinExpr {
        rhs * self
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: Var) -> LinExpr {
        LinExpr::term(rhs, self)
    }
}

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        LinExpr::sum([(self, 1.0), (rhs, 1.0)])
    }
}

impl Sub<Var> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        LinExpr::sum([(self, 1.0), (rhs, -1.0)])
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        rhs + self
    }
}

impl Sub<LinExpr> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_build_expected_terms() {
        let x = Var(0);
        let y = Var(1);
        let e = 2.0 * x + 3.0 * y - 1.0 * x + 4.0;
        let mut e = e;
        e.compact();
        assert_eq!(e.terms, vec![(x, 1.0), (y, 3.0)]);
        assert_eq!(e.constant, 4.0);
    }

    #[test]
    fn eval_matches_manual_computation() {
        let x = Var(0);
        let y = Var(1);
        let e = 2.0 * x - 0.5 * y + 1.0;
        assert_eq!(e.eval(&[3.0, 4.0]), 2.0 * 3.0 - 0.5 * 4.0 + 1.0);
    }

    #[test]
    fn compact_removes_zero_terms() {
        let x = Var(0);
        let mut e = 1.0 * x - 1.0 * x + 5.0;
        e.compact();
        assert!(e.terms.is_empty());
        assert_eq!(e.constant, 5.0);
    }

    #[test]
    fn negation_flips_everything() {
        let x = Var(0);
        let e = -(2.0 * x + 3.0);
        assert_eq!(e.terms, vec![(x, -2.0)]);
        assert_eq!(e.constant, -3.0);
    }

    #[test]
    fn var_minus_var() {
        let e = Var(0) - Var(1);
        assert_eq!(e.eval(&[5.0, 2.0]), 3.0);
    }

    #[test]
    fn sum_builder() {
        let e = LinExpr::sum((0..3).map(|i| (Var(i), 1.0)));
        assert_eq!(e.eval(&[1.0, 2.0, 3.0]), 6.0);
    }
}
