//! Figure 15: cross-datacenter traffic falls as affinity constraints
//! (Expression 7) are enabled for two Presto-like SQL services.
//!
//! Paper: over two months, RAS cut cross-DC traffic by more than 2.3×
//! for Presto Batch and 1.6× for Presto Interactive — not to zero,
//! because spread-wide and failure-buffer goals pull the other way and
//! RAS "strikes a balance".

use ras_broker::{ReservationId, SimTime};
use ras_core::reservation::{DcAffinity, ReservationSpec, SpreadPolicy};
use ras_core::rru::RruTable;
use ras_core::solver::AsyncSolver;
use ras_topology::{RegionBuilder, RegionTemplate};
use ras_workloads::network::{self, StorageAffineService};

use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figure 15.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 15).build();
    let data_dc = region.datacenters()[1].id;
    let unit = region.server_count() as f64;

    // Base specs without affinity; filler services occupy the rest of
    // the region so the Presto services cannot trivially monopolize it.
    let batch_base = ReservationSpec::guaranteed(
        "presto-batch",
        unit * 0.12,
        RruTable::uniform(&region.catalog, 1.0),
    );
    let interactive_base = ReservationSpec::guaranteed(
        "presto-interactive",
        unit * 0.08,
        RruTable::uniform(&region.catalog, 1.0),
    );
    let filler: Vec<ReservationSpec> = (0..6)
        .map(|i| {
            ReservationSpec::guaranteed(
                format!("filler{i}"),
                unit * 0.1,
                RruTable::uniform(&region.catalog, 1.0),
            )
        })
        .collect();

    let batch_service = StorageAffineService {
        reservation: ReservationId::from_index(0),
        data_dc,
        scan_intensity: 4.0,
    };
    let interactive_service = StorageAffineService {
        reservation: ReservationId::from_index(1),
        data_dc,
        scan_intensity: 1.0,
    };

    let mut solver = AsyncSolver::default();
    let mut exp = Experiment::new(
        "fig15",
        "Cross-DC traffic % for Presto services as affinity constraints roll out",
        "batch reduced >2.3×, interactive 1.6×; neither goes to zero (balance with spread goals)",
        &[
            "week",
            "batch affinity",
            "interactive affinity",
            "batch cross-DC %",
            "interactive cross-DC %",
        ],
    );
    let mut baseline: Option<(f64, f64)> = None;
    let mut final_pair = (0.0, 0.0);
    for week in 1..=8u64 {
        let batch_on = week >= 3;
        let interactive_on = week >= 5;
        let mut batch = batch_base.clone();
        if batch_on {
            // Batch pins hard to the data's DC (tolerance sized so the
            // embedded buffer still fits inside the DC's MSB count: the
            // 25 % slack must absorb the ~1/6-of-Cr max-MSB footprint
            // plus the off-DC remainder).
            batch = batch.with_dc_affinity(DcAffinity::single(data_dc, 0.25));
            batch.spread = SpreadPolicy {
                rack_share: None,
                msb_share: Some(0.20),
            };
        }
        let mut interactive = interactive_base.clone();
        if interactive_on {
            // Interactive keeps a remote tail for latency failover.
            interactive = interactive.with_dc_affinity(DcAffinity {
                shares: vec![(data_dc, 0.60)],
                tolerance: 0.25,
            });
        }
        let mut specs = vec![batch, interactive];
        specs.extend(filler.iter().cloned());
        let broker = instance::broker_for(&region, &specs);
        match solver.solve(
            &region,
            &specs,
            &broker.snapshot(SimTime::from_days(week * 7)),
        ) {
            Ok(out) => {
                let b = network::measure(&region, &specs[0], &batch_service, &out.targets);
                let i = network::measure(&region, &specs[1], &interactive_service, &out.targets);
                if baseline.is_none() {
                    baseline = Some((b.cross_dc_fraction, i.cross_dc_fraction));
                }
                final_pair = (b.cross_dc_fraction, i.cross_dc_fraction);
                exp.row(&[
                    week.to_string(),
                    if batch_on { "on" } else { "off" }.into(),
                    if interactive_on { "on" } else { "off" }.into(),
                    fmt(b.cross_dc_fraction * 100.0, 1),
                    fmt(i.cross_dc_fraction * 100.0, 1),
                ]);
            }
            Err(e) => exp.fail(format!("week {week}: solve failed: {e}")),
        }
    }
    if let Some((b0, i0)) = baseline {
        exp.note(format!(
            "batch reduction {:.1}× (paper >2.3×), interactive reduction {:.1}× (paper 1.6×)",
            b0 / final_pair.0.max(1e-9),
            i0 / final_pair.1.max(1e-9)
        ));
    }
    vec![exp]
}
