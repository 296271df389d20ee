//! Reservation specifications (paper Section 3.1).
//!
//! A reservation is characterized by "the amount of resources, hardware
//! types, placement policies, and operating-system configuration
//! requirements". Specs are what service owners submit through the
//! Capacity Portal; the Async Solver materializes them into server sets.

use ras_topology::DatacenterId;

use crate::rru::RruTable;

/// What role a reservation plays in the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationKind {
    /// Ordinary guaranteed capacity owned by a business unit.
    Guaranteed,
    /// The shared random-failure buffer (one per hardware family), sized
    /// by forecasting at ~2 % of region capacity (Section 3.3.1).
    SharedBuffer,
    /// Opportunistic capacity carved from idle buffers (Section 3.4);
    /// revocable at any time.
    Elastic,
}

/// Spread limits across fault domains (the `αK`/`αF` of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadPolicy {
    /// Maximum fraction of the reservation's capacity allowed in one rack
    /// (`αK`); `None` disables the rack-spread objective.
    pub rack_share: Option<f64>,
    /// Maximum fraction allowed in one MSB (`αF`); `None` disables the
    /// MSB-spread objective.
    pub msb_share: Option<f64>,
}

impl SpreadPolicy {
    /// The default wide-spread policy most workloads want (Section 3.1).
    pub fn wide() -> Self {
        Self {
            rack_share: Some(0.05),
            msb_share: Some(0.10),
        }
    }

    /// No spread preferences (e.g. single-datacenter ML training).
    pub fn none() -> Self {
        Self {
            rack_share: None,
            msb_share: None,
        }
    }
}

/// Datacenter affinity (`Ar,G` and `θ` of Expression 7).
///
/// "If a service's data resides in a datacenter, its compute servers
/// should also come from that datacenter" — systems outside RAS determine
/// the desired shares.
#[derive(Debug, Clone, PartialEq)]
pub struct DcAffinity {
    /// Desired fraction of capacity per datacenter; fractions should sum
    /// to ~1. Datacenters absent from the list get share 0.
    pub shares: Vec<(DatacenterId, f64)>,
    /// Allowed deviation `θ` from each share.
    pub tolerance: f64,
}

impl DcAffinity {
    /// Pins the whole reservation into one datacenter.
    pub fn single(dc: DatacenterId, tolerance: f64) -> Self {
        Self {
            shares: vec![(dc, 1.0)],
            tolerance,
        }
    }

    /// The desired share for a datacenter (0 when unlisted).
    pub fn share(&self, dc: DatacenterId) -> f64 {
        self.shares
            .iter()
            .find(|(d, _)| *d == dc)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

/// A capacity request materialized as a reservation spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservationSpec {
    /// Human-readable name (service or business unit).
    pub name: String,
    /// Role of this reservation.
    pub kind: ReservationKind,
    /// Requested capacity `Cr` in RRUs. For reservations with an embedded
    /// correlated-failure buffer this must survive the loss of any MSB.
    pub capacity: f64,
    /// RRU value of each hardware type for this workload (`Vs,r`).
    pub rru: RruTable,
    /// Fault-domain spread limits.
    pub spread: SpreadPolicy,
    /// Optional datacenter affinity.
    pub dc_affinity: Option<DcAffinity>,
    /// Whether the reservation embeds a correlated-failure buffer able to
    /// absorb the loss of any single MSB (Expression 6). Guaranteed
    /// reservations default to `true`; elastic and shared-buffer ones to
    /// `false`.
    pub msb_buffer: bool,
    /// Host profile (OS/kernel configuration) servers must be moved to
    /// when joining this reservation.
    pub host_profile: u32,
}

impl ReservationSpec {
    /// A guaranteed reservation with wide spread and an embedded buffer.
    pub fn guaranteed(name: impl Into<String>, capacity: f64, rru: RruTable) -> Self {
        Self {
            name: name.into(),
            kind: ReservationKind::Guaranteed,
            capacity,
            rru,
            spread: SpreadPolicy::wide(),
            dc_affinity: None,
            msb_buffer: true,
            host_profile: 0,
        }
    }

    /// A shared random-failure buffer reservation.
    pub fn shared_buffer(name: impl Into<String>, capacity: f64, rru: RruTable) -> Self {
        Self {
            name: name.into(),
            kind: ReservationKind::SharedBuffer,
            capacity,
            rru,
            spread: SpreadPolicy::wide(),
            dc_affinity: None,
            msb_buffer: false,
            host_profile: 0,
        }
    }

    /// An elastic reservation (opportunistic, revocable).
    pub fn elastic(name: impl Into<String>, rru: RruTable) -> Self {
        Self {
            name: name.into(),
            kind: ReservationKind::Elastic,
            capacity: 0.0,
            rru,
            spread: SpreadPolicy::none(),
            dc_affinity: None,
            msb_buffer: false,
            host_profile: 0,
        }
    }

    /// Sets datacenter affinity (builder style).
    pub fn with_dc_affinity(mut self, affinity: DcAffinity) -> Self {
        self.dc_affinity = Some(affinity);
        self
    }

    /// Sets the spread policy (builder style).
    pub fn with_spread(mut self, spread: SpreadPolicy) -> Self {
        self.spread = spread;
        self
    }

    /// Sets the host profile (builder style).
    pub fn with_host_profile(mut self, profile: u32) -> Self {
        self.host_profile = profile;
        self
    }

    /// True when the solver must keep `capacity` RRUs alive through the
    /// loss of any single MSB.
    pub fn survives_msb_loss(&self) -> bool {
        self.msb_buffer && self.capacity > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::HardwareCatalog;

    #[test]
    fn guaranteed_defaults() {
        let catalog = HardwareCatalog::standard();
        let spec = ReservationSpec::guaranteed("web", 100.0, RruTable::uniform(&catalog, 1.0));
        assert!(spec.msb_buffer);
        assert!(spec.survives_msb_loss());
        assert_eq!(spec.kind, ReservationKind::Guaranteed);
        assert_eq!(spec.spread.msb_share, Some(0.10));
    }

    #[test]
    fn elastic_has_no_guarantee() {
        let catalog = HardwareCatalog::standard();
        let spec = ReservationSpec::elastic("async-compute", RruTable::uniform(&catalog, 1.0));
        assert!(!spec.survives_msb_loss());
        assert_eq!(spec.capacity, 0.0);
    }

    #[test]
    fn affinity_share_lookup() {
        let a = DcAffinity {
            shares: vec![(DatacenterId(0), 0.7), (DatacenterId(1), 0.3)],
            tolerance: 0.05,
        };
        assert_eq!(a.share(DatacenterId(0)), 0.7);
        assert_eq!(a.share(DatacenterId(2)), 0.0);
        let single = DcAffinity::single(DatacenterId(1), 0.1);
        assert_eq!(single.share(DatacenterId(1)), 1.0);
    }

    #[test]
    fn builders_compose() {
        let catalog = HardwareCatalog::standard();
        let spec = ReservationSpec::guaranteed("ml", 50.0, RruTable::uniform(&catalog, 1.0))
            .with_spread(SpreadPolicy::none())
            .with_dc_affinity(DcAffinity::single(DatacenterId(2), 0.05))
            .with_host_profile(3);
        assert_eq!(spec.spread.msb_share, None);
        assert_eq!(spec.host_profile, 3);
        assert_eq!(spec.dc_affinity.unwrap().share(DatacenterId(2)), 1.0);
    }
}
