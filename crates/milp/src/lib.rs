//! A pure-Rust mixed-integer linear programming (MIP) solver.
//!
//! The RAS paper relies on a commercial MIP solver accessed through FFI;
//! no mature pure-Rust MIP crate exists, so this crate implements the
//! substrate from scratch (see DESIGN.md §1):
//!
//! * [`expr`] — linear expressions over typed variables;
//! * [`model`] — model construction with exact linearization helpers for
//!   the `max(0,·)`, `max over groups`, and `|·| ≤ θ` terms the RAS
//!   formulation uses;
//! * [`sparse`] — compressed sparse column matrices;
//! * [`presolve`] — interval-propagation bound tightening and cheap
//!   infeasibility detection, run before the search;
//! * [`standard`] — conversion to computational standard form;
//! * [`lu`] — sparse LU factorization (Gilbert–Peierls left-looking
//!   elimination) with Forrest–Tomlin updates: the simplex's one basis
//!   representation;
//! * [`simplex`] — a bounded-variable, two-phase revised primal simplex
//!   plus a dual simplex for warm re-solves, over Forrest–Tomlin-updated
//!   sparse LU factors with periodic refactorization; devex pricing with
//!   incrementally maintained reduced costs on the primal side (partial,
//!   over a candidate list, on wide models), dual devex with a
//!   bound-flip ratio test on the dual side;
//! * [`audit`] — a static model auditor and solution certificate
//!   checkers (primal/dual feasibility, integrality, incumbent-within-gap)
//!   producing a structured [`AuditReport`]; every solve runs them, and a
//!   solution whose certificate fails is refused, never returned;
//! * [`branch`] — best-bound branch-and-bound ([`branch::solve`], what
//!   [`Model::solve_with`] runs) with pseudo-cost / most-fractional
//!   branching, a rounding/diving incumbent heuristic, gap reporting and
//!   node/time limits (Figure 9 measures exactly this gap). The caller's
//!   candidate plans ([`SolveConfig::incumbents`]) enter the search there
//!   and only there: each is validated once and the cheapest installed;
//! * [`branching`] — the branching-variable selection rules.
//!
//! # Examples
//!
//! ```
//! use ras_milp::{Model, Sense, VarType};
//!
//! let mut model = Model::new();
//! let x = model.add_var("x", VarType::Integer, 0.0, 10.0);
//! let y = model.add_var("y", VarType::Integer, 0.0, 10.0);
//! // Maximize x + y subject to 2x + y <= 10 (expressed as minimization).
//! model.add_constraint("cap", 2.0 * x + 1.0 * y, Sense::Le, 10.0);
//! model.set_objective(-1.0 * x - 1.0 * y);
//! let solution = model.solve().unwrap();
//! assert_eq!(solution.objective.round(), -10.0);
//! ```

pub mod audit;
pub mod branch;
pub mod branching;
pub mod cast;
pub mod expr;
pub mod lu;
pub mod model;
pub mod nan;
pub mod presolve;
pub mod simplex;
pub mod solution;
pub mod sparse;
pub mod standard;
pub mod tol;

pub use audit::{AuditCheck, AuditConfig, AuditIssue, AuditMode, AuditReport, Severity};
pub use expr::{LinExpr, Var};
pub use model::{Constraint, Model, Sense, VarType};
pub use simplex::{Basis, BasisStats, PricingStats};
pub use solution::{Solution, SolveConfig, SolveError, SolveStats, Status};
