//! Property-based tests for the topology substrate: for any template and
//! seed, the generated region must be a well-formed tree whose partitions
//! at every scope are exact covers.

use proptest::prelude::*;
use ras_topology::{RegionBuilder, RegionTemplate, Scope};

fn arb_template() -> impl Strategy<Value = RegionTemplate> {
    (1..=3usize, 1..=4usize, 1..=3usize, 1..=4usize, 1..=6usize).prop_map(
        |(dc, msb, rows, racks, servers)| RegionTemplate {
            datacenters: dc,
            msbs_per_datacenter: msb,
            power_rows_per_msb: rows,
            racks_per_power_row: racks,
            servers_per_rack: servers,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_are_exact_covers((template, seed) in (arb_template(), 0u64..500)) {
        let region = RegionBuilder::new(template.clone(), seed).build();
        prop_assert_eq!(region.server_count(), template.server_count());
        for scope in [Scope::Rack, Scope::PowerRow, Scope::Msb, Scope::Datacenter, Scope::Region] {
            let partition = region.partition(scope);
            let total: usize = partition.iter().map(|(_, m)| m.len()).sum();
            prop_assert_eq!(total, region.server_count(), "scope {:?}", scope);
            // No server appears twice.
            let mut seen = vec![false; region.server_count()];
            for (_, members) in &partition {
                for s in members {
                    prop_assert!(!seen[s.index()]);
                    seen[s.index()] = true;
                }
            }
        }
    }

    #[test]
    fn tree_pointers_are_consistent((template, seed) in (arb_template(), 0u64..500)) {
        let region = RegionBuilder::new(template, seed).build();
        for server in region.servers() {
            let rack = region.rack(server.rack);
            prop_assert!(rack.servers.contains(&server.id));
            let row = region.power_row(rack.power_row);
            prop_assert!(row.racks.contains(&rack.id));
            let msb = region.msb(row.msb);
            prop_assert!(msb.power_rows.contains(&row.id));
            let dc = region.datacenter(msb.datacenter);
            prop_assert!(dc.msbs.contains(&msb.id));
            // Denormalized pointers agree with the tree walk.
            prop_assert_eq!(server.power_row, rack.power_row);
            prop_assert_eq!(server.msb, row.msb);
            prop_assert_eq!(server.datacenter, msb.datacenter);
        }
    }

    // `Rack::servers` lists, in ascending id order, exactly the servers
    // whose `rack` names that rack: per-rack walks visit each server once
    // and in the order a walk over `Region::servers` would.
    #[test]
    fn rack_members_are_ascending_and_exact((template, seed) in (arb_template(), 0u64..500)) {
        let region = RegionBuilder::new(template, seed).build();
        for rack in region.racks() {
            let named: Vec<_> = region
                .servers()
                .iter()
                .filter(|s| s.rack == rack.id)
                .map(|s| s.id)
                .collect();
            prop_assert_eq!(&rack.servers, &named, "rack {:?}", rack.id);
            prop_assert!(rack.servers.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn same_seed_same_region((template, seed) in (arb_template(), 0u64..500)) {
        let a = RegionBuilder::new(template.clone(), seed).build();
        let b = RegionBuilder::new(template, seed).build();
        for (sa, sb) in a.servers().iter().zip(b.servers()) {
            prop_assert_eq!(sa.hardware, sb.hardware);
        }
    }

    #[test]
    fn hardware_mix_totals_match((template, seed) in (arb_template(), 0u64..500)) {
        let region = RegionBuilder::new(template, seed).build();
        let mix = region.hardware_mix_by_msb();
        prop_assert_eq!(mix.len(), region.msbs().len());
        let total: usize = mix.iter().flatten().sum();
        prop_assert_eq!(total, region.server_count());
    }
}
