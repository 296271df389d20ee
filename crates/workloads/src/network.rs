//! Cross-datacenter traffic accounting (paper Section 4.5, Figure 15).
//!
//! Presto-style SQL services read data that lives in one datacenter.
//! Compute placed in another datacenter pulls every byte across the
//! scarce inter-DC links, so the fraction of the service's capacity
//! placed *outside* the data's datacenter is (to first order) its
//! cross-DC share of traffic.

use ras_broker::ReservationId;
use ras_core::reservation::ReservationSpec;
use ras_topology::{DatacenterId, Region};

/// A storage-affine service's traffic model.
#[derive(Debug, Clone)]
pub struct StorageAffineService {
    /// The reservation running the compute.
    pub reservation: ReservationId,
    /// Where the data lives.
    pub data_dc: DatacenterId,
    /// Bytes scanned per RRU per hour (shape only; cancels in fractions).
    pub scan_intensity: f64,
}

/// Traffic summary for one service under an assignment.
#[derive(Debug, Clone, Copy)]
pub struct TrafficReport {
    /// RRUs placed in the data's datacenter.
    pub local_rru: f64,
    /// RRUs placed elsewhere.
    pub remote_rru: f64,
    /// Fraction of traffic crossing datacenters, in `[0, 1]`.
    pub cross_dc_fraction: f64,
}

/// Computes the cross-DC traffic fraction of a service under the given
/// per-server assignment.
pub fn measure(
    region: &Region,
    spec: &ReservationSpec,
    service: &StorageAffineService,
    targets: &[Option<ReservationId>],
) -> TrafficReport {
    let mut local = 0.0;
    let mut remote = 0.0;
    for server in region.servers() {
        if targets[server.id.index()] == Some(service.reservation) {
            let v = spec.rru.value(server.hardware);
            if server.datacenter == service.data_dc {
                local += v;
            } else {
                remote += v;
            }
        }
    }
    let total = local + remote;
    TrafficReport {
        local_rru: local,
        remote_rru: remote,
        cross_dc_fraction: if total > 0.0 { remote / total } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_core::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate};

    #[test]
    fn fraction_tracks_placement() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let spec =
            ReservationSpec::guaranteed("presto", 10.0, RruTable::uniform(&region.catalog, 1.0));
        let service = StorageAffineService {
            reservation: ReservationId::from_index(0),
            data_dc: region.datacenters()[0].id,
            scan_intensity: 1.0,
        };
        let mut targets = vec![None; region.server_count()];
        // Place 3 servers in dc0 and 1 in dc1.
        let mut placed_local = 0;
        let mut placed_remote = 0;
        for server in region.servers() {
            if server.datacenter == service.data_dc && placed_local < 3 {
                targets[server.id.index()] = Some(ReservationId::from_index(0));
                placed_local += 1;
            } else if server.datacenter != service.data_dc && placed_remote < 1 {
                targets[server.id.index()] = Some(ReservationId::from_index(0));
                placed_remote += 1;
            }
        }
        let report = measure(&region, &spec, &service, &targets);
        assert_eq!(report.local_rru, 3.0);
        assert_eq!(report.remote_rru, 1.0);
        assert!((report.cross_dc_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_assignment_is_zero_traffic() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let spec =
            ReservationSpec::guaranteed("presto", 10.0, RruTable::uniform(&region.catalog, 1.0));
        let service = StorageAffineService {
            reservation: ReservationId::from_index(0),
            data_dc: region.datacenters()[0].id,
            scan_intensity: 1.0,
        };
        let targets = vec![None; region.server_count()];
        let report = measure(&region, &spec, &service, &targets);
        assert_eq!(report.cross_dc_fraction, 0.0);
    }
}
