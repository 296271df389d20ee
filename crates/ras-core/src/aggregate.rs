//! The round's one reduction: the paper's symmetric-server equivalence
//! classes (Section 3.5.2).
//!
//! Interchangeable servers collapse into one integer variable per
//! (class, reservation) pair. [`build_reduction`] groups the round's
//! servers once, interns every class label, and hands back a
//! [`Reduction`] that model build, the candidate incumbents and target
//! concretization all read: the model's variables and rows are named
//! after the labels, the solved per-class counts are already in the
//! reservations' own index space, and `concretize` turns them into
//! per-server targets directly. Reservations are never merged, so no
//! solved plan needs splitting back.

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_topology::{Region, ServerId};

use crate::classes::{build_classes_counted, total_servers, EquivClass, Granularity};
use crate::reservation::ReservationSpec;

/// How a solve reduces the region before the MIP. The symmetric-server
/// classes are the only reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AggregationLevel {
    /// The paper's symmetric-server equivalence classes.
    #[default]
    Classes,
}

/// Size accounting of one reduction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReductionStats {
    /// Servers covered by the classes.
    pub servers: usize,
    /// Servers the class builder excluded as unplanned-unavailable
    /// (`servers + servers_excluded` equals the servers in scope,
    /// asserted in debug builds).
    pub servers_excluded: usize,
    /// Class count.
    pub classes: usize,
}

impl ReductionStats {
    /// Folds in the reduction of a disjoint server universe (another
    /// shard's): every counter sums.
    pub fn absorb(&mut self, other: &ReductionStats) {
        self.servers += other.servers;
        self.servers_excluded += other.servers_excluded;
        self.classes += other.classes;
    }
}

/// The reduced model entities of one round — built once and threaded
/// through model build, the candidate incumbents and target concretization.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Equivalence classes of the round's servers.
    pub classes: Vec<EquivClass>,
    /// Interned class labels, parallel to `classes`, reused for model
    /// variable/row names and basis remapping.
    pub labels: Vec<String>,
    /// The round's reservation specs, in reservation id order.
    pub specs: Vec<ReservationSpec>,
    /// Size accounting.
    pub stats: ReductionStats,
}

impl Reduction {
    /// The model's spec index of reservation `r`: its own index, when it
    /// names one of the round's specs.
    pub fn reduced_index(&self, r: ReservationId) -> Option<usize> {
        (r.index() < self.specs.len()).then_some(r.index())
    }
}

/// Builds the round's reduction: the symmetric-server equivalence
/// classes of the servers `scope` lists in ascending id order (all when
/// `None`) at `granularity`. `_level` has one value,
/// [`AggregationLevel::Classes`].
pub fn build_reduction(
    region: &Region,
    snapshot: &BrokerSnapshot,
    specs: &[ReservationSpec],
    granularity: Granularity,
    _level: AggregationLevel,
    scope: Option<&[ServerId]>,
) -> Reduction {
    let (classes, excluded) = build_classes_counted(region, snapshot, granularity, scope);
    Reduction {
        labels: classes.iter().map(|c| c.label()).collect(),
        specs: specs.to_vec(),
        stats: ReductionStats {
            servers: total_servers(&classes),
            servers_excluded: excluded,
            classes: classes.len(),
        },
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::build_classes;
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
    fn classes_level_matches_legacy_builder() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 30.0)];
        let snap = broker.snapshot(SimTime::ZERO);
        let reduction = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Classes,
            None,
        );
        let legacy = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(reduction.classes.len(), legacy.len());
        for ((a, b), label) in reduction.classes.iter().zip(&legacy).zip(&reduction.labels) {
            assert_eq!(a.servers, b.servers);
            assert_eq!(label, &b.label(), "interned label must match legacy");
        }
        assert_eq!(reduction.stats.servers, region.server_count());
        assert_eq!(reduction.stats.classes, legacy.len());
    }

    #[test]
    fn reduced_index_is_the_identity_on_the_rounds_specs() {
        let (region, broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 30.0),
            uniform_spec(&region, "feed", 15.0),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let r = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Classes,
            None,
        );
        assert_eq!(r.reduced_index(ReservationId::from_index(0)), Some(0));
        assert_eq!(r.reduced_index(ReservationId::from_index(1)), Some(1));
        assert_eq!(r.reduced_index(ReservationId::from_index(2)), None);
    }
}
