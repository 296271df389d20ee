//! Figure 13: spread of the top 30 services across MSBs.
//!
//! The paper's heat-map: most services spread near-uniformly over all
//! MSBs, with structured exceptions — services 1-2 need hardware absent
//! from the oldest MSBs, services 25-30 prefer discontinued hardware
//! absent from the newest, and service 13 (ML) is pinned to one
//! datacenter and concentrated in the newest MSBs that carry
//! accelerators.

use ras_broker::SimTime;
use ras_core::reservation::{DcAffinity, ReservationSpec, SpreadPolicy};
use ras_core::rru::RruTable;
use ras_core::solver::AsyncSolver;
use ras_topology::{ProcessorGeneration, RegionBuilder, RegionTemplate};

use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figure 13.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 13).build();
    let catalog = &region.catalog;
    let per_service = region.server_count() as f64 * 0.8 / 30.0;
    let mut specs: Vec<ReservationSpec> = Vec::new();
    for i in 1..=30u32 {
        let spec = match i {
            // Services 1-2: newest hardware only (absent from old MSBs).
            1 | 2 => {
                let mut rru = RruTable::empty(catalog);
                for id in catalog.of_generation(ProcessorGeneration::Gen3) {
                    if !catalog.get(id).has_accelerator() {
                        rru.set(id, 1.0);
                    }
                }
                ReservationSpec::guaranteed(format!("svc{i}"), per_service * 0.5, rru)
            }
            // Service 13: ML — accelerators only, single datacenter.
            13 => {
                let mut rru = RruTable::empty(catalog);
                for hw in catalog.iter().filter(|h| h.has_accelerator()) {
                    rru.set(hw.id, 1.0);
                }
                let newest_dc = {
                    // The datacenter holding the most accelerators.
                    let mut per_dc = vec![0usize; region.datacenters().len()];
                    for s in region.servers() {
                        if catalog.get(s.hardware).has_accelerator() {
                            per_dc[s.datacenter.index()] += 1;
                        }
                    }
                    let (i, _) = per_dc.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
                    region.datacenters()[i].id
                };
                let mut spec = ReservationSpec::guaranteed("svc13-ml", per_service * 0.2, rru)
                    .with_dc_affinity(DcAffinity::single(newest_dc, 0.2))
                    .with_spread(SpreadPolicy::none());
                spec.msb_buffer = false;
                spec
            }
            // Services 25-30: discontinued (gen I) hardware only.
            25..=30 => {
                let mut rru = RruTable::empty(catalog);
                for id in catalog.of_generation(ProcessorGeneration::Gen1) {
                    rru.set(id, 1.0);
                }
                ReservationSpec::guaranteed(format!("svc{i}"), per_service * 0.4, rru)
            }
            // Everything else: wide-spread, hardware-agnostic.
            _ => ReservationSpec::guaranteed(
                format!("svc{i}"),
                per_service * 0.6,
                RruTable::uniform(catalog, 1.0),
            ),
        };
        specs.push(spec);
    }

    let broker = instance::broker_for(&region, &specs);
    let mut exp = Experiment::new(
        "fig13",
        "Spread of 30 services across MSBs (share per MSB, %)",
        "most services near-uniform over all MSBs; old/new-hardware and single-DC exceptions",
        &[
            "service",
            "msbs used",
            "max share %",
            "uniform would be %",
            "shares",
        ],
    );
    let out = match AsyncSolver::default().solve(&region, &specs, &broker.snapshot(SimTime::ZERO)) {
        Ok(out) => out,
        Err(e) => {
            exp.fail(format!("solve failed: {e}"));
            return vec![exp];
        }
    };

    // Share matrix: fraction of each service's servers per MSB.
    let n_msb = region.msbs().len();
    let mut counts = vec![vec![0usize; n_msb]; specs.len()];
    for server in region.servers() {
        if let Some(r) = out.targets[server.id.index()] {
            counts[r.index()][server.msb.index()] += 1;
        }
    }
    for (ri, spec) in specs.iter().enumerate() {
        let total: usize = counts[ri].iter().sum();
        if total == 0 {
            exp.row(&[
                spec.name.clone(),
                "0".into(),
                "-".into(),
                "-".into(),
                "(unallocated)".into(),
            ]);
            continue;
        }
        let used = counts[ri].iter().filter(|c| **c > 0).count();
        let max = *counts[ri].iter().max().unwrap();
        let shares: Vec<String> = counts[ri]
            .iter()
            .map(|c| format!("{:.0}", *c as f64 / total as f64 * 100.0))
            .collect();
        exp.row(&[
            spec.name.clone(),
            used.to_string(),
            fmt(max as f64 / total as f64 * 100.0, 1),
            fmt(100.0 / used as f64, 1),
            shares.join(","),
        ]);
    }
    // Shape checks.
    let wide: Vec<usize> = (2..24)
        .filter(|i| ![0, 12].contains(i))
        .map(|i| counts[i].iter().filter(|c| **c > 0).count())
        .collect();
    exp.note(format!(
        "unconstrained services use {}–{} of {} MSBs (near-uniform)",
        wide.iter().min().unwrap(),
        wide.iter().max().unwrap(),
        n_msb
    ));
    let ml_dcs: std::collections::HashSet<_> = region
        .servers()
        .iter()
        .filter(|s| out.targets[s.id.index()] == Some(ras_broker::ReservationId::from_index(12)))
        .map(|s| s.datacenter)
        .collect();
    exp.note(format!(
        "svc13-ml spans {} datacenter(s) (paper: 1)",
        ml_dcs.len()
    ));
    vec![exp]
}
