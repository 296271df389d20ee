//! Power aggregation across MSBs (paper Section 4.4, Figure 14).
//!
//! Each hardware type has a nominal busy-power draw; a server consumes
//! that draw scaled by whether the caller counts it busy. The figure-14
//! metrics are the normalized variance of per-MSB power and the headroom
//! of the most-loaded MSB.

use ras_topology::Region;

/// Per-MSB power summary.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Power per MSB in watts.
    pub per_msb_watts: Vec<f64>,
    /// Normalized variance of per-MSB power (variance / mean²).
    pub normalized_variance: f64,
    /// Headroom of the most loaded MSB: `1 − max / budget` where the
    /// budget is the per-MSB provisioned power.
    pub peak_headroom: f64,
    /// Per-MSB utilization of the MSB's own provisioned power.
    ///
    /// MSBs install wildly different hardware (a GPU MSB draws 4× a
    /// web-tier MSB at full load), so the *hotspot* metric normalizes
    /// each MSB's draw by its own installed budget; the variance of this
    /// vector isolates placement balance from hardware mix.
    pub utilization: Vec<f64>,
    /// Variance of [`PowerReport::utilization`] normalized by its mean².
    pub utilization_variance: f64,
    /// Headroom of the most-utilized MSB: `1 − max utilization`.
    pub peak_utilization_headroom: f64,
}

/// Idle power as a fraction of busy power.
const IDLE_FRACTION: f64 = 0.45;

/// Computes per-MSB power with the servers `is_busy` picks drawing full
/// power and the rest idle — e.g. "bound to any reservation" when
/// measuring allocation-driven power, or "running containers" for
/// instantaneous load.
///
/// `budget_watts` is the provisioned power per MSB; headroom is measured
/// against it.
pub fn measure_with(
    region: &Region,
    budget_watts: f64,
    is_busy: impl Fn(ras_topology::ServerId) -> bool,
) -> PowerReport {
    let mut per_msb = vec![0.0; region.msbs().len()];
    for server in region.servers() {
        let hw = region.catalog.get(server.hardware);
        let draw = if is_busy(server.id) {
            hw.power_watts
        } else {
            hw.power_watts * IDLE_FRACTION
        };
        per_msb[server.msb.index()] += draw;
    }
    let n = per_msb.len() as f64;
    let mean = per_msb.iter().sum::<f64>() / n;
    let variance = per_msb.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
    let normalized_variance = if mean > 0.0 {
        variance / (mean * mean)
    } else {
        0.0
    };
    let max = per_msb.iter().cloned().fold(0.0, f64::max);
    let peak_headroom = if budget_watts > 0.0 {
        (1.0 - max / budget_watts).max(0.0)
    } else {
        0.0
    };
    let budgets = installed_budgets(region, 1.05);
    let utilization: Vec<f64> = per_msb
        .iter()
        .zip(&budgets)
        .map(|(w, b)| if *b > 0.0 { w / b } else { 0.0 })
        .collect();
    let umean = utilization.iter().sum::<f64>() / n;
    let uvar = utilization.iter().map(|u| (u - umean).powi(2)).sum::<f64>() / n;
    let utilization_variance = if umean > 0.0 {
        uvar / (umean * umean)
    } else {
        0.0
    };
    let umax = utilization.iter().cloned().fold(0.0, f64::max);
    PowerReport {
        per_msb_watts: per_msb,
        normalized_variance,
        peak_headroom,
        utilization,
        utilization_variance,
        peak_utilization_headroom: (1.0 - umax).max(0.0),
    }
}

/// Per-MSB provisioned power budgets: each MSB's fully-busy draw plus a
/// safety margin.
pub fn installed_budgets(region: &Region, margin: f64) -> Vec<f64> {
    let mut per_msb = vec![0.0; region.msbs().len()];
    for server in region.servers() {
        per_msb[server.msb.index()] += region.catalog.get(server.hardware).power_watts;
    }
    for b in &mut per_msb {
        *b *= margin;
    }
    per_msb
}

/// A sensible per-MSB power budget for a region: 5 % above the draw if
/// every server ran busy.
pub fn default_budget(region: &Region) -> f64 {
    let mut per_msb = vec![0.0; region.msbs().len()];
    for server in region.servers() {
        per_msb[server.msb.index()] += region.catalog.get(server.hardware).power_watts;
    }
    per_msb.iter().cloned().fold(0.0, f64::max) * 1.05
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_broker::ResourceBroker;
    use ras_topology::{RegionBuilder, RegionTemplate, ServerId};

    /// Per-MSB power under the broker's instantaneous load: a server is
    /// busy when it runs containers or is on an elastic loan.
    fn measure_load(region: &Region, broker: &ResourceBroker, budget_watts: f64) -> PowerReport {
        measure_with(region, budget_watts, |s| {
            broker
                .record(s)
                .map(|r| r.running_containers > 0 || r.elastic.is_some())
                .unwrap_or(false)
        })
    }

    /// The MSB whose fully-busy draw is the region's maximum.
    fn max_power_msb(region: &Region) -> ras_topology::MsbId {
        let mut per_msb = vec![0.0; region.msbs().len()];
        for server in region.servers() {
            per_msb[server.msb.index()] += region.catalog.get(server.hardware).power_watts;
        }
        let (idx, _) = per_msb
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        ras_topology::MsbId::from_index(idx)
    }

    #[test]
    fn busy_servers_draw_more() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let budget = default_budget(&region);
        let idle = measure_load(&region, &broker, budget);
        // Normalized variance is scale-invariant, so the all-idle and
        // all-busy fleets have the same value; loading only the
        // highest-draw MSB must push it up.
        let msb = max_power_msb(&region);
        let servers: Vec<ServerId> = region.servers_in_msb(msb).map(|s| s.id).collect();
        for s in servers {
            broker.set_running_containers(s, 1).unwrap();
        }
        let loaded = measure_load(&region, &broker, budget);
        assert!(loaded.per_msb_watts[msb.index()] > idle.per_msb_watts[msb.index()]);
        assert!(loaded.normalized_variance > idle.normalized_variance);
    }

    #[test]
    fn concentrating_load_reduces_headroom() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let budget = default_budget(&region);
        let before = measure_load(&region, &broker, budget).peak_headroom;
        let msb = max_power_msb(&region);
        let servers: Vec<ServerId> = region.servers_in_msb(msb).map(|s| s.id).collect();
        for s in servers {
            broker.set_running_containers(s, 1).unwrap();
        }
        let after = measure_load(&region, &broker, budget).peak_headroom;
        assert!(after < before, "headroom {before} -> {after}");
    }

    #[test]
    fn normalized_variance_is_scale_invariant() {
        // An all-busy fleet draws 1/0.45× the idle fleet everywhere, so
        // the *normalized* variance (the Figure 14 metric) is identical:
        // only placement skew moves it, not overall load level.
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let budget = default_budget(&region);
        let idle = ResourceBroker::new(region.server_count());
        let mut busy = ResourceBroker::new(region.server_count());
        for i in 0..region.server_count() {
            busy.set_running_containers(ServerId::from_index(i), 1)
                .unwrap();
        }
        let idle_report = measure_load(&region, &idle, budget);
        let busy_report = measure_load(&region, &busy, budget);
        assert!(
            (idle_report.normalized_variance - busy_report.normalized_variance).abs() < 1e-9,
            "idle {} vs busy {}",
            idle_report.normalized_variance,
            busy_report.normalized_variance
        );
        // The all-busy fleet leaves less headroom.
        assert!(busy_report.peak_headroom < idle_report.peak_headroom);
    }
}
