//! Figure 14: per-MSB power variance falls as RAS takes over.
//!
//! The paper's four months: normalized power variance across MSBs drops
//! from ≈0.9 (greedy placement) to ≈0.2, and the most-loaded MSB's power
//! headroom improves from near zero to 11 %. Power here is driven by the
//! *allocation* (a bound server runs hot, a free server idles), so the
//! metric directly reflects placement balance.

use ras_broker::{ResourceBroker, SimTime};
use ras_core::baseline::GreedyAllocator;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_topology::{RegionBuilder, RegionTemplate, ServerId};
use ras_workloads::power;

use super::rollout_step;
use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figure 14.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 14).build();
    let specs: Vec<ReservationSpec> = (0..10)
        .map(|i| {
            ReservationSpec::guaranteed(
                format!("svc{i}"),
                (region.server_count() as f64 * 0.082).round() + 11.0 * i as f64,
                RruTable::uniform(&region.catalog, 1.0),
            )
        })
        .collect();
    let mut broker = instance::broker_for(&region, &specs);
    let budget = power::default_budget(&region);
    let allocated_power = |broker: &ResourceBroker| {
        power::measure_with(&region, budget, |s: ServerId| {
            broker
                .record(s)
                .map(|r| r.current.is_some())
                .unwrap_or(false)
        })
    };

    let mut exp = Experiment::new(
        "fig14",
        "Per-MSB power-utilization variance over four months",
        "variance 0.9 → 0.2 as RAS rolls out; peak headroom ≈0 → 11%",
        &[
            "month",
            "allocator",
            "normalized variance",
            "relative to month 1",
            "peak headroom %",
        ],
    );

    // Month 1: greedy.
    GreedyAllocator.rebalance(&region, &specs, &mut broker);
    let p0 = allocated_power(&broker);
    exp.row(&[
        "1".into(),
        "greedy".into(),
        fmt(p0.utilization_variance, 4),
        "1.00".into(),
        fmt(p0.peak_utilization_headroom * 100.0, 1),
    ]);

    // Months 2-4: RAS manages progressively more reservations.
    for (month, managed) in [(2usize, 4usize), (3, 8), (4, 10)] {
        let now = SimTime::from_days(month as u64 * 30);
        if let Err(e) = rollout_step(&region, &specs, &mut broker, managed, now, |_| true) {
            exp.fail(format!("month {month}: solve failed: {e}"));
        }
        let p = allocated_power(&broker);
        exp.row(&[
            month.to_string(),
            format!("RAS ({managed}/10 svcs)"),
            fmt(p.utilization_variance, 4),
            fmt(p.utilization_variance / p0.utilization_variance, 2),
            fmt(p.peak_utilization_headroom * 100.0, 1),
        ]);
    }
    exp.note("shape check: variance ratio should fall toward ≈0.2 and headroom should rise");
    vec![exp]
}
