//! Ablation: symmetric-server equivalence classes (Section 3.5.2).
//!
//! "RAS exploits the natural symmetry in servers to reduce the size of
//! the MIP problem." This ablation builds the same region's assignment
//! model twice — once per-server (the paper's raw `x[s][r]`) and once
//! with equivalence classes — and compares variable counts, build time,
//! model memory, and the root-LP time.

use std::time::Instant;

use ras_broker::{ResourceBroker, SimTime};
use ras_core::classes::{build_classes, EquivClass, Granularity};
use ras_core::model::build_model;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_core::SolverParams;
use ras_milp::simplex::{solve_lp, SimplexConfig};
use ras_milp::standard::StandardForm;
use ras_topology::{RegionBuilder, RegionTemplate};

use crate::{fmt, Experiment, Shape};

/// Regenerates the symmetry ablation.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 77).build();
    let specs: Vec<ReservationSpec> = (0..6)
        .map(|i| {
            ReservationSpec::guaranteed(
                format!("svc{i}"),
                30.0 + 5.0 * i as f64,
                RruTable::uniform(&region.catalog, 1.0),
            )
        })
        .collect();
    let broker = ResourceBroker::new(region.server_count());
    let snapshot = broker.snapshot(SimTime::ZERO);
    let params = SolverParams::default();

    let mut exp = Experiment::new(
        "ablation_symmetry",
        "Raw per-server model vs equivalence-class model",
        "symmetry reduction shrinks the MIP by orders of magnitude with an identical optimum",
        &[
            "model",
            "assignment vars",
            "constraints",
            "build ms",
            "model MB",
            "root LP ms",
        ],
    );

    let mut results = Vec::new();
    for (label, classes) in [
        ("per-server (raw)", raw_classes(&region, &snapshot)),
        (
            "equivalence classes",
            build_classes(&region, &snapshot, Granularity::Msb, None),
        ),
    ] {
        let t0 = Instant::now();
        let ras = build_model(&region, &specs, &classes, &params, false, None);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let sf = StandardForm::from_model(&ras.model);
        let lp = solve_lp(
            &sf,
            &sf.lower.clone(),
            &sf.upper.clone(),
            &SimplexConfig::default(),
        );
        let lp_ms = t1.elapsed().as_secs_f64() * 1e3;
        exp.row(&[
            label.into(),
            ras.assignment_var_count.to_string(),
            ras.model.num_constraints().to_string(),
            fmt(build_ms, 1),
            fmt(ras.model.memory_estimate_bytes() as f64 / 1e6, 2),
            fmt(lp_ms, 1),
        ]);
        results.push((ras.assignment_var_count, lp.objective, lp.status));
    }
    let ratio = results[0].0 as f64 / results[1].0 as f64;
    exp.note(format!(
        "class reduction shrinks assignment variables {ratio:.1}×"
    ));
    exp.note(format!(
        "root-LP objectives agree: raw {:.3} vs classes {:.3} (statuses {:?}/{:?})",
        results[0].1, results[1].1, results[0].2, results[1].2
    ));
    vec![exp]
}

/// One singleton class per server: the unreduced model.
fn raw_classes(
    region: &ras_topology::Region,
    snapshot: &ras_broker::BrokerSnapshot,
) -> Vec<EquivClass> {
    region
        .servers()
        .iter()
        .filter(|s| {
            snapshot.records[s.id.index()]
                .unavailability
                .as_ref()
                .map(|e| e.kind == ras_broker::UnavailabilityKind::PlannedMaintenance)
                .unwrap_or(true)
        })
        .map(|s| EquivClass {
            servers: vec![s.id],
            hardware: s.hardware,
            msb: s.msb,
            datacenter: s.datacenter,
            rack: Some(s.rack),
            current: snapshot.records[s.id.index()].current,
            target: snapshot.records[s.id.index()].target,
            in_use: snapshot.records[s.id.index()].running_containers > 0,
        })
        .collect()
}
