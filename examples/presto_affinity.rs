//! Presto affinity: network-affinity constraints (Expression 7) pull a
//! storage-affine SQL service's compute into the datacenter holding its
//! data, cutting cross-datacenter traffic (paper Section 4.5).
//!
//! Run with: `cargo run --release --example presto_affinity`

use ras::broker::{ResourceBroker, SimTime};
use ras::core::reservation::{DcAffinity, SpreadPolicy};
use ras::core::rru::RruTable;
use ras::core::{AsyncSolver, ReservationSpec};
use ras::topology::{RegionBuilder, RegionTemplate};
use ras::workloads::network::{self, StorageAffineService};

fn main() {
    let region = RegionBuilder::new(RegionTemplate::medium(), 33).build();
    let data_dc = region.datacenters()[1].id;
    println!(
        "region: {} DCs / {} MSBs / {} servers; presto data lives in {}",
        region.datacenters().len(),
        region.msbs().len(),
        region.server_count(),
        region.datacenter(data_dc).name,
    );

    let base = ReservationSpec::guaranteed(
        "presto-batch",
        300.0,
        RruTable::uniform(&region.catalog, 1.0),
    );

    // Without affinity: RAS spreads the service wide for failure buffers.
    let unpinned = base.clone();
    // With affinity: compute must match the storage ratio (all in data_dc,
    // 15 % tolerance). The embedded buffer stays off because a single-DC
    // service cannot also spread its buffer region-wide.
    let mut pinned = base
        .clone()
        .with_dc_affinity(DcAffinity::single(data_dc, 0.15))
        .with_spread(SpreadPolicy {
            rack_share: None,
            msb_share: Some(0.2),
        });
    pinned.msb_buffer = false;

    let mut solver = AsyncSolver::default();
    for (label, spec) in [("no affinity", unpinned), ("with affinity", pinned)] {
        let mut broker = ResourceBroker::new(region.server_count());
        broker.register_reservation(&spec.name);
        let out = solver
            .solve(
                &region,
                std::slice::from_ref(&spec),
                &broker.snapshot(SimTime::ZERO),
            )
            .expect("solve");
        let service = StorageAffineService {
            reservation: ras::broker::ReservationId::from_index(0),
            data_dc,
            scan_intensity: 1.0,
        };
        let report = network::measure(&region, &spec, &service, &out.targets);
        println!(
            "{label:>14}: {:.0} RRUs local, {:.0} remote → {:.0}% cross-DC traffic",
            report.local_rru,
            report.remote_rru,
            report.cross_dc_fraction * 100.0
        );
    }
}
