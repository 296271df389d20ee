//! The RAS MIP model (paper Section 3.5.3, Expressions 1–7).
//!
//! The model is expressed over equivalence-class counts `n[c][r]` — how
//! many servers of class `c` are assigned to reservation `r` — which is
//! the symmetry-reduced form of the paper's per-server `x[s][r]`:
//!
//! * Expression 1 (stability): moving a server out of its current
//!   reservation costs `Ms`. With classes this is linear: the cost is
//!   `M_c · (count_c − n[c][current_c])`.
//! * Expressions 2–3 (spread-wide): per reservation and rack/MSB group,
//!   RRUs beyond `α · Cr` cost `β` each, via `max(0, ·)` linearization.
//! * Expression 4 (buffer minimization): `τ ·` the reservation's maximum
//!   per-MSB RRUs, via a `max over groups` variable.
//! * Expression 5 (assignment): `Σ_r n[c][r] ≤ count_c`.
//! * Expression 6 (correlated-failure buffer): total RRUs minus the
//!   maximum-MSB variable must still cover `Cr`.
//! * Expression 7 (network affinity): per datacenter, RRUs must stay
//!   within `θ · Cr` of the desired share `A[r][G] · Cr`.
//!
//! Every capacity row and every affinity pair carries an elastic column
//! that costs [`SOFTEN_PENALTY`] and is fixed at zero, so the hard model is
//! the model with those columns pinned. When it is infeasible,
//! [`soften_baseline`] computes each constraint's violation under the
//! *current* assignment and [`RasModel::soften`] raises the elastic
//! columns' upper bounds to it — no constraint may regress, and the
//! penalty pushes the solver to fix as many as possible (Section 3.5.1).
//! Softening changes bounds only: the softened model has the hard
//! model's columns, rows and names. The elastic columns come after every
//! other column, so the hard model's column indices do not depend on
//! them.

use ras_milp::{LinExpr, Model, Sense, Var, VarType};
use ras_topology::Region;

use crate::classes::EquivClass;
use crate::params::{SolverParams, ASSIGNMENT_COST, BUFFER_COST, SOFTEN_PENALTY, SPREAD_PENALTY};
use crate::reservation::{ReservationKind, ReservationSpec};
use ras_milp::cast;
use ras_milp::nan;
use ras_milp::nan::NanGuard;

/// Per-constraint violation levels of the current assignment, used as
/// the elastic columns' upper bounds when softening.
#[derive(Debug, Clone, Default)]
pub struct SoftenBaseline {
    /// Capacity shortfall per reservation (RRUs below `Cr`, after the
    /// buffer term for MSB-buffered reservations).
    pub capacity_shortfall: Vec<f64>,
    /// Affinity violation per reservation per datacenter, in RRUs beyond
    /// the allowed deviation.
    pub affinity_violation: Vec<Vec<f64>>,
}

/// Definition of an auxiliary variable, replayed to value incumbents.
#[derive(Debug, Clone)]
pub(crate) enum AuxInit {
    /// `t = max(0, expr)`.
    MaxZero(LinExpr),
    /// `t = max_i expr_i` (0 over the empty set).
    MaxOver(Vec<LinExpr>),
    /// `s = clamp(expr, 0, upper(s))` — a capacity row's elastic column.
    Clamp(LinExpr),
    /// `s = clamp(|expr| - sub, 0, upper(s))` — an affinity pair's
    /// elastic column.
    ClampAbs(LinExpr, f64),
}

/// A softenable constraint's elastic column, fixed at zero until
/// [`RasModel::soften`] raises its upper bound.
#[derive(Debug, Clone)]
struct ElasticColumn {
    var: Var,
    /// The constraint's name, as [`RasModel::softened`] lists it.
    name: String,
    /// Where [`SoftenBaseline`] keeps the constraint's violation: the
    /// reservation, and the datacenter of an affinity pair.
    slot: (usize, Option<usize>),
}

/// A constructed RAS MIP plus the variable map to decode solutions.
#[derive(Debug, Clone)]
pub struct RasModel {
    /// The underlying MIP.
    pub model: Model,
    /// `vars[class][reservation]` — the count variable, when eligible.
    pub vars: Vec<Vec<Option<Var>>>,
    /// Constant part of the movement objective (cost if every server moved).
    pub objective_constant: f64,
    /// Number of assignment variables created (the x-axis of Figs 10/11).
    pub assignment_var_count: usize,
    /// Names of constraints that were softened (empty on a hard model).
    pub softened: Vec<String>,
    /// The current assignment expressed as a full variable vector, used
    /// as the solver's warm incumbent: the search then only returns a
    /// different assignment when it is strictly better, which keeps
    /// steady-state re-solves quiescent.
    pub initial: Vec<f64>,
    /// Auxiliary-variable definitions, kept to value other incumbents.
    pub(crate) aux_defs: Vec<(Var, AuxInit)>,
    /// The elastic columns, in the order [`soften`](Self::soften) lists
    /// their constraints.
    elastic: Vec<ElasticColumn>,
}

impl RasModel {
    /// Decodes the per-class assignment counts from a solution.
    ///
    /// Returns `counts[class][reservation]`.
    pub fn decode(&self, solution: &ras_milp::Solution) -> Vec<Vec<usize>> {
        self.vars
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.map_or(0, |var| cast::nonneg_usize(solution.int_value(var))))
                    .collect()
            })
            .collect()
    }

    /// Values a full variable vector from per-class assignment counts:
    /// assignment variables get the counts (where a variable exists),
    /// auxiliaries are replayed from their definitions. The result is a
    /// candidate warm incumbent; callers should validate it with
    /// [`Model::violations`] before trusting it.
    pub fn incumbent_from_counts(&self, counts: &[Vec<usize>]) -> Vec<f64> {
        let mut values = vec![0.0; self.model.num_vars()];
        for (ci, row) in self.vars.iter().enumerate() {
            for (ri, var) in row.iter().enumerate() {
                if let Some(var) = var {
                    let c = counts.get(ci).and_then(|r| r.get(ri)).copied().unwrap_or(0);
                    values[var.index()] = c as f64;
                }
            }
        }
        self.replay_aux(&mut values);
        values
    }

    /// Values every auxiliary variable of `values` from its definition,
    /// in creation order, under the model's current bounds.
    fn replay_aux(&self, values: &mut [f64]) {
        for (var, def) in &self.aux_defs {
            let upper = self.model.var(*var).upper;
            values[var.index()] = match def {
                AuxInit::MaxZero(e) => e.eval(values).nmax(0.0),
                AuxInit::MaxOver(es) => es.iter().map(|e| e.eval(values)).fold(0.0, nan::fmax),
                AuxInit::Clamp(e) => e.eval(values).clamp(0.0, upper),
                AuxInit::ClampAbs(e, sub) => (e.eval(values).abs() - sub).clamp(0.0, upper),
            };
        }
    }

    /// Softens a hard model in place: each elastic column whose
    /// constraint the current assignment violates may now absorb that
    /// violation, the constraint is listed in
    /// [`softened`](Self::softened), and [`initial`](Self::initial) is
    /// re-valued under the raised bounds. Columns, rows and names stay.
    pub fn soften(&mut self, baseline: &SoftenBaseline) {
        for ElasticColumn { var, name, slot } in &self.elastic {
            let violation = match *slot {
                (ri, None) => baseline.capacity_shortfall[ri],
                (ri, Some(dc)) => baseline.affinity_violation[ri][dc],
            };
            if violation > 0.0 {
                self.model.set_bounds(*var, 0.0, violation);
                self.softened.push(name.clone());
            }
        }
        let mut initial = std::mem::take(&mut self.initial);
        self.replay_aux(&mut initial);
        self.initial = initial;
    }
}

/// Whether a spec takes part in solver assignment (elastic ones do not —
/// the Online Mover loans idle servers to them out of band).
pub fn solver_visible(spec: &ReservationSpec) -> bool {
    spec.kind != ReservationKind::Elastic
}

/// The current assignment as per-class counts: `counts[class][res]` is
/// the number of members currently bound to `res`.
fn current_counts(classes: &[EquivClass], n_specs: usize) -> Vec<Vec<usize>> {
    classes
        .iter()
        .map(|class| {
            let mut row = vec![0usize; n_specs];
            if let Some(current) = class.current {
                if let Some(slot) = row.get_mut(current.index()) {
                    *slot = class.count();
                }
            }
            row
        })
        .collect()
}

/// Computes the RRUs each reservation currently holds, per MSB and per
/// datacenter, from the classes' `current` bindings.
fn current_usage(
    region: &Region,
    specs: &[ReservationSpec],
    classes: &[EquivClass],
) -> (Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n_msb = region.msbs().len();
    let n_dc = region.datacenters().len();
    let mut total = vec![0.0; specs.len()];
    let mut by_msb = vec![vec![0.0; n_msb]; specs.len()];
    let mut by_dc = vec![vec![0.0; n_dc]; specs.len()];
    for class in classes {
        let Some(res) = class.current else { continue };
        let Some(spec) = specs.get(res.index()) else {
            continue;
        };
        let v = spec.rru.value(class.hardware) * class.count() as f64;
        total[res.index()] += v;
        by_msb[res.index()][class.msb.index()] += v;
        by_dc[res.index()][class.datacenter.index()] += v;
    }
    (total, by_msb, by_dc)
}

/// Computes the violation levels of the current assignment, the upper
/// bounds [`RasModel::soften`] gives the elastic columns.
pub fn soften_baseline(
    region: &Region,
    specs: &[ReservationSpec],
    classes: &[EquivClass],
) -> SoftenBaseline {
    let (total, by_msb, by_dc) = current_usage(region, specs, classes);
    let mut capacity_shortfall = vec![0.0; specs.len()];
    let mut affinity_violation = vec![vec![0.0; region.datacenters().len()]; specs.len()];
    for (ri, spec) in specs.iter().enumerate() {
        if !solver_visible(spec) || spec.capacity <= 0.0 {
            continue;
        }
        let effective = if spec.survives_msb_loss() {
            let max_msb = by_msb[ri].iter().cloned().fold(0.0, nan::fmax);
            total[ri] - max_msb
        } else {
            total[ri]
        };
        capacity_shortfall[ri] = (spec.capacity - effective).nmax(0.0);
        if let Some(aff) = &spec.dc_affinity {
            for dc in region.datacenters() {
                let want = aff.share(dc.id) * spec.capacity;
                let have = by_dc[ri][dc.id.index()];
                let allowed = aff.tolerance * spec.capacity;
                affinity_violation[ri][dc.id.index()] = ((have - want).abs() - allowed).nmax(0.0);
            }
        }
    }
    SoftenBaseline {
        capacity_shortfall,
        affinity_violation,
    }
}

/// Builds the RAS MIP.
///
/// `include_rack_goals` enables Expression 2 (phase 2 only — phase 1
/// deliberately drops rack goals so classes stay coarse). Passing a
/// `soften` baseline builds the hard model and then
/// [`soften`](RasModel::soften)s it.
pub fn build_model(
    region: &Region,
    specs: &[ReservationSpec],
    classes: &[EquivClass],
    params: &SolverParams,
    include_rack_goals: bool,
    soften: Option<&SoftenBaseline>,
) -> RasModel {
    let labels: Vec<String> = classes.iter().map(|c| c.label()).collect();
    build_model_labeled(
        region,
        specs,
        classes,
        &labels,
        params,
        include_rack_goals,
        soften,
    )
}

/// [`build_model`] with the class labels supplied by the caller — the
/// round's [`Reduction`](crate::aggregate::Reduction) interns one label
/// table and reuses it for model names instead of re-deriving every
/// label here.
/// `labels` must be parallel to `classes`.
pub fn build_model_labeled(
    region: &Region,
    specs: &[ReservationSpec],
    classes: &[EquivClass],
    labels: &[String],
    params: &SolverParams,
    include_rack_goals: bool,
    soften: Option<&SoftenBaseline>,
) -> RasModel {
    debug_assert_eq!(labels.len(), classes.len());
    let mut model = Model::new();
    let mut vars: Vec<Vec<Option<Var>>> = Vec::with_capacity(classes.len());
    let mut assignment_var_count = 0usize;
    let mut objective = LinExpr::zero();
    let mut objective_constant = 0.0;
    let mut aux: Vec<(Var, AuxInit)> = Vec::new();
    // Softenable constraints, each waiting for its elastic column: the
    // column's name, its `(row, coefficient)` terms and definition, and
    // the constraint's name and baseline slot.
    let mut soft_rows = Vec::new();

    // Assignment variables n[c][r], Expression 5's primitives. Names use
    // the class's key-stable label, not its position.
    for (class, label) in classes.iter().zip(labels) {
        let mut row = Vec::with_capacity(specs.len());
        for spec in specs.iter() {
            let eligible = solver_visible(spec) && spec.rru.eligible(class.hardware);
            if eligible {
                let var = model.add_var(
                    format!("n[{label}][{}]", spec.name),
                    VarType::Integer,
                    0.0,
                    class.count() as f64,
                );
                // Epsilon acquisition cost: prefer the minimal allocation
                // among otherwise-equal optima (prevents shed churn).
                objective += LinExpr::term(var, ASSIGNMENT_COST);
                assignment_var_count += 1;
                row.push(Some(var));
            } else {
                row.push(None);
            }
        }
        vars.push(row);
    }

    // Expression 5: each server in at most one reservation.
    for (ci, class) in classes.iter().enumerate() {
        let terms: Vec<(Var, f64)> = vars[ci].iter().flatten().map(|v| (*v, 1.0)).collect();
        if !terms.is_empty() {
            model.add_constraint(
                format!("supply[{}]", labels[ci]),
                LinExpr::sum(terms),
                Sense::Le,
                class.count() as f64,
            );
        }
    }

    // Expression 1: stability. Linear in class counts.
    for (ci, class) in classes.iter().enumerate() {
        let m_cost = if class.in_use {
            params.move_cost_in_use
        } else {
            params.move_cost_unused
        };
        if let Some(current) = class.current {
            objective_constant += m_cost * class.count() as f64;
            if let Some(var) = vars[ci].get(current.index()).copied().flatten() {
                objective += LinExpr::term(var, -m_cost);
            }
        }
        // Follow through on moves the previous solve already planned.
        if let Some(target) = class.target {
            if class.target != class.current {
                if let Some(var) = vars[ci].get(target.index()).copied().flatten() {
                    objective += LinExpr::term(var, -params.stability_bonus);
                }
            }
        }
    }

    // Per-reservation goals.
    for (ri, spec) in specs.iter().enumerate() {
        if !solver_visible(spec) {
            continue;
        }
        let rru_of = |class: &EquivClass| spec.rru.value(class.hardware);
        let total_expr = LinExpr::sum(
            classes
                .iter()
                .enumerate()
                .filter_map(|(ci, class)| vars[ci][ri].map(|v| (v, rru_of(class)))),
        );
        if total_expr.terms.is_empty() {
            // No eligible hardware anywhere: leave the reservation empty;
            // the caller surfaces NoEligibleHardware.
            continue;
        }

        // Per-MSB RRU expressions (ΨF groups).
        let msb_exprs: Vec<(usize, LinExpr)> = region
            .msbs()
            .iter()
            .map(|msb| {
                let e = LinExpr::sum(classes.iter().enumerate().filter_map(|(ci, class)| {
                    if class.msb == msb.id {
                        vars[ci][ri].map(|v| (v, rru_of(class)))
                    } else {
                        None
                    }
                }));
                (msb.id.index(), e)
            })
            .filter(|(_, e)| !e.terms.is_empty())
            .collect();

        // Expressions 4 + 6: embedded correlated-failure buffer, or the
        // plain capacity constraint (shared buffers, no-buffer specs).
        let capacity_lhs = if spec.survives_msb_loss() {
            let max_msb = model.max_over(
                format!("maxmsb[{}]", spec.name),
                msb_exprs.iter().map(|(_, e)| e.clone()),
            );
            aux.push((
                max_msb,
                AuxInit::MaxOver(msb_exprs.iter().map(|(_, e)| e.clone()).collect()),
            ));
            objective += LinExpr::term(max_msb, BUFFER_COST);
            Some(total_expr - max_msb)
        } else {
            (spec.capacity > 0.0).then_some(total_expr)
        };
        if let Some(lhs) = capacity_lhs {
            let name = format!("capacity[{}]", spec.name);
            let row = model.add_constraint(name.clone(), lhs.clone(), Sense::Ge, spec.capacity);
            let def = AuxInit::Clamp(LinExpr::constant(spec.capacity) - lhs);
            let column = format!("soft.cap[{}]", spec.name);
            soft_rows.push((column, vec![(row, 1.0)], def, name, (ri, None)));
        }

        // Expression 3: MSB spread-wide objective.
        if spec.capacity > 0.0 {
            if let Some(alpha_f) = spec.spread.msb_share {
                for (mi, e) in &msb_exprs {
                    let def = e.clone() - alpha_f * spec.capacity;
                    let over =
                        model.max_of_zero(format!("msbspread[{}][m{mi}]", spec.name), def.clone());
                    aux.push((over, AuxInit::MaxZero(def)));
                    objective += LinExpr::term(over, SPREAD_PENALTY);
                }
            }
        }

        // Expression 2: rack spread-wide objective (phase 2 only).
        if include_rack_goals && spec.capacity > 0.0 {
            if let Some(alpha_k) = spec.spread.rack_share {
                let mut rack_groups: std::collections::BTreeMap<u32, LinExpr> =
                    std::collections::BTreeMap::new();
                for (ci, class) in classes.iter().enumerate() {
                    let (Some(rack), Some(var)) = (class.rack, vars[ci][ri]) else {
                        continue;
                    };
                    let entry = rack_groups.entry(rack.0).or_default();
                    *entry += LinExpr::term(var, rru_of(class));
                }
                for (rk, e) in rack_groups {
                    let def = e - alpha_k * spec.capacity;
                    let over =
                        model.max_of_zero(format!("rackspread[{}][k{rk}]", spec.name), def.clone());
                    aux.push((over, AuxInit::MaxZero(def)));
                    objective += LinExpr::term(over, SPREAD_PENALTY);
                }
            }
        }

        // Expression 7: datacenter affinity.
        if let Some(aff) = &spec.dc_affinity {
            for dc in region.datacenters() {
                let e = LinExpr::sum(classes.iter().enumerate().filter_map(|(ci, class)| {
                    if class.datacenter == dc.id {
                        vars[ci][ri].map(|v| (v, rru_of(class)))
                    } else {
                        None
                    }
                }));
                let want = aff.share(dc.id) * spec.capacity;
                let allowed = aff.tolerance * spec.capacity;
                let name = format!("affinity[{}][{}]", spec.name, dc.name);
                // `abs_le` adds the `.pos` row, then the `.neg` row.
                let pos = model.num_constraints();
                model.abs_le(name.clone(), e.clone() - want, allowed);
                let def = AuxInit::ClampAbs(e - want, allowed);
                let column = format!("soft.aff[{}][{}]", spec.name, dc.name);
                let terms = vec![(pos, -1.0), (pos + 1, 1.0)];
                soft_rows.push((column, terms, def, name, (ri, Some(dc.id.index()))));
            }
        }
    }

    // The elastic columns, fixed at zero, after every other column.
    let mut elastic = Vec::with_capacity(soft_rows.len());
    for (column, terms, def, name, slot) in soft_rows {
        let var = model.add_var(column, VarType::Continuous, 0.0, 0.0);
        for (row, coeff) in terms {
            model.add_term(row, var, coeff);
        }
        objective += LinExpr::term(var, SOFTEN_PENALTY);
        aux.push((var, def));
        elastic.push(ElasticColumn { var, name, slot });
    }

    model.set_objective(objective);
    let mut ras = RasModel {
        model,
        vars,
        objective_constant,
        assignment_var_count,
        softened: Vec::new(),
        initial: Vec::new(),
        aux_defs: aux,
        elastic,
    };
    // Warm incumbent: the current assignment with auxiliaries valued by
    // replaying their definitions in creation order.
    ras.initial = ras.incumbent_from_counts(&current_counts(classes, specs.len()));
    if let Some(baseline) = soften {
        ras.soften(baseline);
    }
    ras
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{build_classes, Granularity};
    use crate::reservation::{DcAffinity, ReservationSpec};
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    #[test]
    fn capacity_constraint_is_satisfied_at_optimum() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 60.0)];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &specs,
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        let solution = ras.model.solve().expect("feasible");
        let counts = ras.decode(&solution);
        // Total assigned RRUs minus max-MSB RRUs must cover 60.
        let mut by_msb = vec![0.0; region.msbs().len()];
        let mut total = 0.0;
        for (ci, class) in classes.iter().enumerate() {
            let v = counts[ci][0] as f64;
            total += v;
            by_msb[class.msb.index()] += v;
        }
        let max_msb = by_msb.iter().cloned().fold(0.0, f64::max);
        assert!(
            total - max_msb >= 60.0 - 1e-6,
            "total {total}, max_msb {max_msb}"
        );
    }

    #[test]
    fn spread_objective_pushes_across_msbs() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 60.0)];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &specs,
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        let solution = ras.model.solve().expect("feasible");
        let counts = ras.decode(&solution);
        let mut by_msb = vec![0.0; region.msbs().len()];
        for (ci, class) in classes.iter().enumerate() {
            by_msb[class.msb.index()] += counts[ci][0] as f64;
        }
        let used: Vec<f64> = by_msb.iter().cloned().filter(|v| *v > 0.0).collect();
        assert!(
            used.len() >= 4,
            "expected wide MSB spread, got {used:?} across {} MSBs",
            region.msbs().len()
        );
    }

    #[test]
    fn stability_keeps_current_assignment() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 30.0)];
        let r0 = broker.register_reservation("web");
        // Bind 40 spread-out servers (more than enough) to the reservation.
        let step = region.server_count() / 40;
        for i in 0..40 {
            let s = ras_topology::ServerId::from_index(i * step);
            broker.bind_current(s, Some(r0)).unwrap();
        }
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &specs,
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        let solution = ras.model.solve().expect("feasible");
        let counts = ras.decode(&solution);
        // Count how many currently-bound servers stay.
        let mut kept = 0usize;
        let mut bound = 0usize;
        for (ci, class) in classes.iter().enumerate() {
            if class.current == Some(r0) {
                bound += class.count();
                kept += counts[ci][0];
            }
        }
        assert_eq!(bound, 40);
        assert!(
            kept >= 35,
            "stability should keep most servers, kept {kept}"
        );
    }

    #[test]
    fn ineligible_hardware_gets_no_variables() {
        let (region, broker) = setup();
        // Eligible only on GPU hosts, which the tiny region may lack
        // entirely; either way no variable may touch non-GPU hardware.
        let gpu = region.catalog.by_name("C5").unwrap().id;
        let mut rru = RruTable::empty(&region.catalog);
        rru.set(gpu, 4.0);
        let spec = ReservationSpec::guaranteed("ml", 1.0, rru);
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &[spec],
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        for (ci, class) in classes.iter().enumerate() {
            if class.hardware != gpu {
                assert!(ras.vars[ci][0].is_none());
            }
        }
    }

    #[test]
    fn dc_affinity_constrains_placement() {
        let (region, broker) = setup();
        let dc0 = region.datacenters()[0].id;
        let mut spec = uniform_spec(&region, "presto", 40.0)
            .with_dc_affinity(DcAffinity::single(dc0, 0.10))
            .with_spread(crate::reservation::SpreadPolicy {
                rack_share: None,
                msb_share: Some(0.5),
            });
        // A fully-pinned reservation cannot also hold an embedded MSB
        // buffer within a 10 % tolerance: the buffer inflates the DC's
        // allocation past (1 + θ)·Cr. Real affinity users either widen θ
        // or forgo the buffer; this test does the latter.
        spec.msb_buffer = false;
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &[spec],
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        let solution = ras.model.solve().expect("feasible");
        let counts = ras.decode(&solution);
        let mut in_dc0 = 0.0;
        let mut total = 0.0;
        for (ci, class) in classes.iter().enumerate() {
            let v = counts[ci][0] as f64;
            total += v;
            if class.datacenter == dc0 {
                in_dc0 += v;
            }
        }
        assert!(total > 0.0);
        // At least 90 % of capacity units must land in dc0.
        assert!(
            in_dc0 >= 0.9 * 40.0 - 1e-6,
            "in_dc0 {in_dc0} of total {total}"
        );
    }

    #[test]
    fn infeasible_request_softens_without_regression() {
        let (region, broker) = setup();
        // Ask for far more capacity than the region has.
        let huge = region.server_count() as f64 * 3.0;
        let specs = vec![uniform_spec(&region, "web", huge)];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let params = SolverParams::default();
        let hard = build_model(&region, &specs, &classes, &params, false, None);
        assert!(hard.model.solve().is_err(), "hard model must be infeasible");
        let baseline = soften_baseline(&region, &specs, &classes);
        assert!(baseline.capacity_shortfall[0] > 0.0);
        let soft = build_model(&region, &specs, &classes, &params, false, Some(&baseline));
        assert!(!soft.softened.is_empty());
        let solution = soft.model.solve().expect("softened model must be feasible");
        // The solver should still allocate everything it can.
        let counts = soft.decode(&solution);
        let total: usize = counts.iter().map(|row| row[0]).sum();
        assert!(
            total as f64 >= region.server_count() as f64 * 0.9,
            "softened solve should nearly fill the region, got {total}"
        );
    }

    /// Softening changes bounds only: a softened build has the hard
    /// build's columns in the same order, its rows, right-hand sides,
    /// terms and costs, and differs in the upper bounds of the `soft.*`
    /// columns it raised and in `softened`. A baseline that reports no
    /// violation raises nothing.
    #[test]
    fn softening_keeps_the_hard_model() {
        let (region, broker) = setup();
        let dc0 = region.datacenters()[0].id;
        let mut plain = uniform_spec(&region, "feed", 20.0);
        plain.msb_buffer = false;
        let pinned =
            uniform_spec(&region, "presto", 40.0).with_dc_affinity(DcAffinity::single(dc0, 0.10));
        let specs = vec![uniform_spec(&region, "web", 30.0), plain, pinned];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let params = SolverParams::default();
        let n_dc = region.datacenters().len();
        // Everything but the upper bounds, bit for bit.
        let bits = |e: &LinExpr| -> Vec<(usize, u64)> {
            e.terms
                .iter()
                .map(|(v, c)| (v.index(), c.to_bits()))
                .collect()
        };
        let shape = |m: &RasModel| {
            let vars = m.model.vars().iter();
            let columns: Vec<_> = vars
                .map(|v| (v.name.clone(), v.ty, v.lower.to_bits()))
                .collect();
            let rows: Vec<_> = (m.model.constraints().iter())
                .map(|c| (c.name.clone(), c.sense, c.rhs.to_bits(), bits(&c.expr)))
                .collect();
            (columns, rows, bits(m.model.objective()))
        };
        let uppers = |m: &RasModel| -> Vec<u64> {
            m.model.vars().iter().map(|v| v.upper.to_bits()).collect()
        };

        let hard = build_model(&region, &specs, &classes, &params, false, None);
        // One elastic column per capacity row and per affinity pair, fixed
        // at zero, after every other column.
        let vars = hard.model.vars();
        let first_soft = vars
            .iter()
            .position(|v| v.name.starts_with("soft."))
            .unwrap();
        assert_eq!(vars.len() - first_soft, specs.len() + n_dc);
        assert!(vars[first_soft..]
            .iter()
            .all(|v| v.name.starts_with("soft.") && v.upper == 0.0));

        let zero = SoftenBaseline {
            capacity_shortfall: vec![0.0; specs.len()],
            affinity_violation: vec![vec![0.0; n_dc]; specs.len()],
        };
        let soft = build_model(&region, &specs, &classes, &params, false, Some(&zero));
        assert_eq!(shape(&soft), shape(&hard));
        assert_eq!(uppers(&soft), uppers(&hard));
        assert!(soft.softened.is_empty());

        let baseline = soften_baseline(&region, &specs, &classes);
        let soft = build_model(&region, &specs, &classes, &params, false, Some(&baseline));
        assert_eq!(shape(&soft), shape(&hard));
        assert_eq!(uppers(&soft)[..first_soft], uppers(&hard)[..first_soft]);
        assert_eq!(
            soft.model.vars()[first_soft].upper,
            baseline.capacity_shortfall[0]
        );
        // The empty region misses every capacity row, and presto's pair in
        // its pinned datacenter, which wants 40 ± 4 RRUs and holds none.
        let pair = format!("affinity[presto][{}]", region.datacenters()[0].name);
        assert_eq!(
            soft.softened,
            [
                "capacity[web]",
                "capacity[feed]",
                "capacity[presto]",
                pair.as_str()
            ]
        );
    }

    #[test]
    fn assignment_variable_count_reported() {
        let (region, broker) = setup();
        let specs = vec![
            uniform_spec(&region, "a", 10.0),
            uniform_spec(&region, "b", 10.0),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &specs,
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        assert_eq!(ras.assignment_var_count, classes.len() * 2);
    }

    #[test]
    fn elastic_specs_are_invisible_to_the_solver() {
        let (region, broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 10.0),
            ReservationSpec::elastic("batch", RruTable::uniform(&region.catalog, 1.0)),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let ras = build_model(
            &region,
            &specs,
            &classes,
            &SolverParams::default(),
            false,
            None,
        );
        for row in &ras.vars {
            assert!(row[1].is_none(), "elastic reservations get no variables");
        }
    }
}
