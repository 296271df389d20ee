//! Figure 12: correlated-failure buffers shrink as RAS rolls out.
//!
//! The paper's two-month rollout: the region starts under Twine's greedy
//! assignment (≈15.1 % of a service's machines in its largest MSB), RAS
//! is enabled for more reservations over time (→ 5.8 %), and newly
//! turned-up MSBs let it approach the water-filling optimum (4.2 %
//! against a 4.06 % bound; 2.8 % under perfect hardware spread).
//!
//! Rollout emulation: reservations are moved under RAS management in
//! waves; the newest MSBs join the region ("turn-up") midway.

use std::collections::HashSet;

use ras_broker::SimTime;
use ras_core::baseline::GreedyAllocator;
use ras_core::buffers;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_sim::weighted_max_msb_share;
use ras_topology::{RegionBuilder, RegionTemplate, ServerId};

use super::{optimal_share, rollout_step};
use crate::{fmt, instance, Experiment, Shape};

/// Regenerates Figure 12.
pub fn run(_: Shape) -> Vec<Experiment> {
    let region = RegionBuilder::new(RegionTemplate::medium(), 12).build();
    let n_msbs = region.msbs().len();
    // The newest 4 MSBs are "not yet turned up" at the start.
    let late_msbs: HashSet<usize> = region
        .msbs()
        .iter()
        .filter(|m| m.turnup_order as usize >= n_msbs - 4)
        .map(|m| m.id.index())
        .collect();
    let online_at_start: HashSet<ServerId> = region
        .servers()
        .iter()
        .filter(|s| !late_msbs.contains(&s.msb.index()))
        .map(|s| s.id)
        .collect();

    // 12 services of varying size. Mostly count-based uniform RRUs (the
    // figure's metric is machine shares); the two largest are restricted
    // to newer compute so the hardware-imbalance bound is meaningful.
    // Total demand ≈60 % of the initially-online fleet: the rollout
    // restricts each partial solve to managed + free servers, so the
    // free pool must span several MSBs for migration to be possible.
    let newer_compute = instance::newer_compute(&region.catalog);
    let mut specs: Vec<ReservationSpec> = (0..12)
        .map(|i| {
            let rru = if i >= 10 {
                newer_compute.clone()
            } else {
                RruTable::uniform(&region.catalog, 1.0)
            };
            ReservationSpec::guaranteed(format!("svc{i}"), (90.0 + 35.0 * i as f64).round(), rru)
        })
        .collect();
    let mut broker = instance::broker_for(&region, &specs);
    // Pen for not-yet-turned-up servers so greedy cannot grab them.
    let offline = broker.register_reservation("offline");
    for s in region.servers() {
        if !online_at_start.contains(&s.id) {
            broker.bind_current(s.id, Some(offline)).unwrap();
        }
    }
    specs.push(ReservationSpec::elastic(
        "offline",
        RruTable::uniform(&region.catalog, 1.0),
    ));

    let mut exp = Experiment::new(
        "fig12",
        "Machines % in max MSB as RAS rolls out",
        "greedy ≈15.1% → RAS 5.8% → 4.2% after MSB turn-ups (bounds: 4.06% optimal, 2.8% perfect)",
        &["week", "ras-managed", "msbs online", "avg max-MSB share %"],
    );

    // Weeks 1-2: pure greedy.
    GreedyAllocator.rebalance(&region, &specs, &mut broker);
    for week in 1..=2 {
        exp.row(&[
            week.to_string(),
            "0/12".into(),
            (n_msbs - late_msbs.len()).to_string(),
            fmt(weighted_max_msb_share(&region, &specs, &broker) * 100.0, 1),
        ]);
    }

    // Weeks 3-8: RAS manages progressively more reservations; MSB
    // turn-up happens at week 6.
    let managed_per_week = [4usize, 8, 12, 12, 12, 12];
    for (i, managed) in managed_per_week.iter().enumerate() {
        let week = 3 + i;
        let turned_up = week >= 6;
        if turned_up {
            // Release penned servers into the free pool.
            let penned = broker.members_of(offline);
            for s in penned {
                broker.bind_current(s, None).unwrap();
            }
        }
        let online = |s: ServerId| turned_up || online_at_start.contains(&s);
        let now = SimTime::from_days(week as u64 * 7);
        if let Err(e) = rollout_step(&region, &specs, &mut broker, *managed, now, online) {
            exp.fail(format!("week {week}: solve failed: {e}"));
        }
        exp.row(&[
            week.to_string(),
            format!("{managed}/12"),
            if turned_up {
                n_msbs.to_string()
            } else {
                (n_msbs - late_msbs.len()).to_string()
            },
            fmt(weighted_max_msb_share(&region, &specs, &broker) * 100.0, 1),
        ]);
    }

    // Bounds.
    let perfect = buffers::perfect_spread_bound(&region);
    let optimal = optimal_share(&region, &specs);
    exp.note(format!(
        "lower bounds for this region: optimal {:.1}% (paper 4.06%), perfect spread {:.1}% (paper 2.8%)",
        optimal * 100.0,
        perfect * 100.0
    ));
    vec![exp]
}
