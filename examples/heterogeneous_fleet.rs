//! Heterogeneous fleet: relative resource units (RRUs) let one capacity
//! request be fulfilled by whatever mixture of hardware generations the
//! region has, weighted by each service's measured relative value
//! (paper Sections 2.3 and 3.1, Figure 3).
//!
//! Run with: `cargo run --release --example heterogeneous_fleet`

use ras::broker::{ResourceBroker, SimTime};
use ras::core::AsyncSolver;
use ras::topology::{RegionBuilder, RegionTemplate};
use ras::workloads::StandardServices;

fn main() {
    let region = RegionBuilder::new(RegionTemplate::medium(), 17).build();
    let catalog = &region.catalog;

    // The paper's headline services with their Figure 3 relative values.
    let profiles = [
        StandardServices::web(),       // 1.0 / 1.47 / 1.82 per generation
        StandardServices::datastore(), // generation-indifferent
        StandardServices::feed2(),     // gains on every upgrade
    ];
    println!("service relative values per processor generation:");
    for p in &profiles {
        println!(
            "  {:>10}: gen1 {:.2} | gen2 {:.2} | gen3 {:.2}",
            p.name, p.relative_value[0], p.relative_value[1], p.relative_value[2]
        );
    }

    let specs: Vec<_> = profiles
        .iter()
        .map(|p| p.reservation(catalog, 250.0))
        .collect();
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }

    let mut solver = AsyncSolver::default();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .expect("solve");

    // Report the hardware mixture each reservation received.
    println!("\nhardware mixture fulfilled per reservation (250 RRUs each):");
    for (ri, spec) in specs.iter().enumerate() {
        let mut per_type = vec![0usize; catalog.len()];
        let mut rrus = 0.0;
        for server in region.servers() {
            if out.targets[server.id.index()] == Some(ras::broker::ReservationId::from_index(ri)) {
                per_type[server.hardware.index()] += 1;
                rrus += spec.rru.value(server.hardware);
            }
        }
        let mix: Vec<String> = catalog
            .iter()
            .filter(|t| per_type[t.id.index()] > 0)
            .map(|t| format!("{}×{}", per_type[t.id.index()], t.name))
            .collect();
        println!(
            "  {:>10}: {:.0} RRUs from {} servers [{}]",
            spec.name,
            rrus,
            per_type.iter().sum::<usize>(),
            mix.join(", ")
        );
        // Every assigned server must be eligible.
        assert!(catalog
            .iter()
            .all(|t| per_type[t.id.index()] == 0 || spec.rru.eligible(t.id)));
    }
    println!(
        "\nsolve took {:.3}s across {} assignment variables",
        out.allocation_seconds(),
        out.assignment_vars()
    );
}
