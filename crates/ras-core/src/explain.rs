//! Explanations of placement decisions (paper Section 5.3).
//!
//! "Having granular visibility into the optimization decisions and the
//! reasons behind those decisions made by the solver is important to
//! operate a capacity management system at scale. Specifically, it is
//! important that we are able to describe to service owners why they
//! received a certain composition of hardware generations or particular
//! spread across fault domains."
//!
//! [`explain`] renders, for one reservation under one assignment: the
//! hardware composition it received (and why — relative values and
//! fleet availability), its fault-domain spread against its policy, its
//! embedded buffer size against the theoretical bounds, and its
//! datacenter placement against any affinity.

use ras_broker::ReservationId;
use ras_topology::Region;

use crate::buffers;
use crate::reservation::ReservationSpec;
use ras_milp::nan;
use ras_milp::tol;

/// One hardware line of the explanation.
#[derive(Debug, Clone)]
pub struct HardwareLine {
    /// Hardware type name.
    pub hardware: String,
    /// Servers of this type assigned.
    pub servers: usize,
    /// RRUs those servers contribute.
    pub rrus: f64,
    /// The workload's relative value on this type.
    pub relative_value: f64,
    /// Share of the region's fleet this type represents.
    pub fleet_share: f64,
}

/// A reservation's placement explanation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Reservation name.
    pub name: String,
    /// Requested capacity in RRUs.
    pub requested: f64,
    /// Allocated RRUs (including the embedded buffer headroom).
    pub allocated: f64,
    /// Hardware composition, largest contribution first.
    pub hardware: Vec<HardwareLine>,
    /// Number of MSBs used.
    pub msbs_used: usize,
    /// Share of capacity in the largest MSB.
    pub max_msb_share: f64,
    /// The spread limit the policy asked for (if any).
    pub msb_share_limit: Option<f64>,
    /// Best achievable max-MSB share given where eligible hardware lives.
    pub optimal_share_bound: Option<f64>,
    /// RRUs that survive the worst single-MSB failure.
    pub survives_any_msb: f64,
    /// Per-datacenter share of allocated RRUs.
    pub dc_shares: Vec<(String, f64)>,
    /// Human-readable findings, most important first.
    pub findings: Vec<String>,
}

/// Builds the explanation for one reservation under an assignment.
pub fn explain(
    region: &Region,
    spec: &ReservationSpec,
    reservation: ReservationId,
    targets: &[Option<ReservationId>],
) -> Explanation {
    let mut per_type = vec![0usize; region.catalog.len()];
    let mut fleet_per_type = vec![0usize; region.catalog.len()];
    let mut per_msb = vec![0.0f64; region.msbs().len()];
    let mut per_dc = vec![0.0f64; region.datacenters().len()];
    let mut allocated = 0.0;
    for server in region.servers() {
        fleet_per_type[server.hardware.index()] += 1;
        if targets[server.id.index()] == Some(reservation) {
            let v = spec.rru.value(server.hardware);
            per_type[server.hardware.index()] += 1;
            per_msb[server.msb.index()] += v;
            per_dc[server.datacenter.index()] += v;
            allocated += v;
        }
    }
    let fleet_total: usize = fleet_per_type.iter().sum();
    let mut hardware: Vec<HardwareLine> = region
        .catalog
        .iter()
        .filter(|t| per_type[t.id.index()] > 0)
        .map(|t| HardwareLine {
            hardware: t.name.clone(),
            servers: per_type[t.id.index()],
            rrus: per_type[t.id.index()] as f64 * spec.rru.value(t.id),
            relative_value: spec.rru.value(t.id),
            fleet_share: fleet_per_type[t.id.index()] as f64 / fleet_total as f64,
        })
        .collect();
    hardware.sort_by(|a, b| b.rrus.total_cmp(&a.rrus));

    let max_msb = per_msb.iter().cloned().fold(0.0, nan::fmax);
    let msbs_used = per_msb.iter().filter(|v| **v > 0.0).count();
    let max_msb_share = if allocated > 0.0 {
        max_msb / allocated
    } else {
        0.0
    };
    let dc_shares: Vec<(String, f64)> = region
        .datacenters()
        .iter()
        .map(|dc| {
            (
                dc.name.clone(),
                if allocated > 0.0 {
                    per_dc[dc.id.index()] / allocated
                } else {
                    0.0
                },
            )
        })
        .collect();

    let mut findings = Vec::new();
    if allocated + tol::EPS < spec.capacity {
        findings.push(format!(
            "UNDER-ALLOCATED: holds {allocated:.0} of {:.0} requested RRUs — the \
             region lacks eligible capacity or a constraint was softened",
            spec.capacity
        ));
    }
    if let Some(best) = hardware.first() {
        if best.relative_value > 1.0 {
            findings.push(format!(
                "{} contributes most capacity because the workload gains {:.2}× on it",
                best.hardware, best.relative_value
            ));
        }
    }
    if hardware.len() > 1 {
        findings.push(format!(
            "request was fulfilled by {} hardware types (RRUs make them fungible)",
            hardware.len()
        ));
    }
    if let Some(limit) = spec.spread.msb_share {
        if max_msb_share > limit + tol::EPS {
            findings.push(format!(
                "max-MSB share {:.1}% exceeds the {:.1}% policy — eligible hardware \
                 is concentrated in few MSBs",
                max_msb_share * 100.0,
                limit * 100.0
            ));
        } else {
            findings.push(format!(
                "spread satisfies the ≤{:.1}%-per-MSB policy across {msbs_used} MSBs",
                limit * 100.0
            ));
        }
    }
    let survives = allocated - max_msb;
    if spec.survives_msb_loss() {
        if survives + tol::EPS >= spec.capacity {
            findings.push(format!(
                "embedded buffer OK: any single MSB failure leaves {survives:.0} ≥ {:.0} RRUs",
                spec.capacity
            ));
        } else {
            findings.push(format!(
                "AT RISK: an MSB failure could leave only {survives:.0} of {:.0} RRUs",
                spec.capacity
            ));
        }
    }
    if let Some(aff) = &spec.dc_affinity {
        for dc in region.datacenters() {
            let want = aff.share(dc.id);
            let have = dc_shares[dc.id.index()].1;
            if (have - want).abs() > aff.tolerance + tol::EPS {
                findings.push(format!(
                    "affinity deviation in {}: {:.0}% vs desired {:.0}% (±{:.0}%)",
                    dc.name,
                    have * 100.0,
                    want * 100.0,
                    aff.tolerance * 100.0
                ));
            }
        }
    }

    Explanation {
        name: spec.name.clone(),
        requested: spec.capacity,
        allocated,
        hardware,
        msbs_used,
        max_msb_share,
        msb_share_limit: spec.spread.msb_share,
        optimal_share_bound: buffers::optimal_share_bound(region, spec),
        survives_any_msb: survives,
        dc_shares,
        findings,
    }
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "reservation {}: {:.0}/{:.0} RRUs across {} MSBs (max-MSB {:.1}%)",
            self.name,
            self.allocated,
            self.requested,
            self.msbs_used,
            self.max_msb_share * 100.0
        )?;
        for h in &self.hardware {
            writeln!(
                f,
                "  {:>8}: {:>4} servers, {:>7.1} RRUs (value {:.2}, {:.1}% of fleet)",
                h.hardware,
                h.servers,
                h.rrus,
                h.relative_value,
                h.fleet_share * 100.0
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  - {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rru::RruTable;
    use crate::solver::AsyncSolver;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn solved() -> (Region, Vec<ReservationSpec>, Vec<Option<ReservationId>>) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 71).build();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let mut broker = ResourceBroker::new(region.server_count());
        broker.register_reservation("web");
        let out = AsyncSolver::default()
            .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
            .unwrap();
        (region, specs, out.targets)
    }

    #[test]
    fn explanation_reports_allocation_and_spread() {
        let (region, specs, targets) = solved();
        let e = explain(&region, &specs[0], ReservationId::from_index(0), &targets);
        assert!(e.allocated >= 40.0);
        assert!(e.msbs_used >= 4);
        assert!(e.survives_any_msb >= 40.0 - 1e-9);
        assert!(e.findings.iter().any(|f| f.contains("embedded buffer OK")));
        assert!(!e.hardware.is_empty());
    }

    #[test]
    fn under_allocation_is_called_out() {
        let (region, mut specs, targets) = solved();
        // Pretend the owner asked for far more than was allocated.
        specs[0].capacity = 10_000.0;
        let e = explain(&region, &specs[0], ReservationId::from_index(0), &targets);
        assert!(e.findings.iter().any(|f| f.contains("UNDER-ALLOCATED")));
    }

    #[test]
    fn display_renders_every_section() {
        let (region, specs, targets) = solved();
        let e = explain(&region, &specs[0], ReservationId::from_index(0), &targets);
        let text = e.to_string();
        assert!(text.contains("reservation web"));
        assert!(text.contains("servers"));
        assert!(text.contains("- "));
    }

    #[test]
    fn empty_reservation_explains_cleanly() {
        let (region, specs, _) = solved();
        let empty = vec![None; region.server_count()];
        let e = explain(&region, &specs[0], ReservationId::from_index(0), &empty);
        assert_eq!(e.allocated, 0.0);
        assert_eq!(e.msbs_used, 0);
        assert!(e.findings.iter().any(|f| f.contains("UNDER-ALLOCATED")));
    }
}
