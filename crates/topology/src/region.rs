//! The region arena: datacenters, MSBs, power rows, racks, and servers.
//!
//! A [`Region`] owns flat arenas for every level of the tree and keeps
//! parent pointers on each entity, so both downward iteration (all servers
//! of an MSB) and upward lookup (the MSB of a server) are cheap. The
//! solver consumes the region read-only; mutable fleet state (assignments,
//! unavailability) lives in the resource broker instead.

use crate::hardware::HardwareCatalog;
use crate::ids::{DatacenterId, HardwareTypeId, MsbId, PowerRowId, RackId, ServerId};
use crate::scope::{Scope, ScopeId};

/// A datacenter within the region.
#[derive(Debug, Clone)]
pub struct Datacenter {
    /// Dense identifier.
    pub id: DatacenterId,
    /// Human-readable name (e.g. `"dc0"`).
    pub name: String,
    /// MSBs hosted in this datacenter.
    pub msbs: Vec<MsbId>,
}

/// A main switch board: isolated power + network domain of thousands of
/// servers, and the largest single fault domain RAS plans for.
#[derive(Debug, Clone)]
pub struct Msb {
    /// Dense identifier.
    pub id: MsbId,
    /// Owning datacenter.
    pub datacenter: DatacenterId,
    /// Turn-up order within the region: 0 is the oldest MSB. Newer MSBs
    /// host newer hardware (Section 4.3).
    pub turnup_order: u32,
    /// Power rows inside this MSB.
    pub power_rows: Vec<PowerRowId>,
}

/// A power row inside an MSB (intermediate correlated-failure domain).
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Dense identifier.
    pub id: PowerRowId,
    /// Owning MSB.
    pub msb: MsbId,
    /// Racks inside this row.
    pub racks: Vec<RackId>,
}

/// A rack and its top-of-rack switch.
#[derive(Debug, Clone)]
pub struct Rack {
    /// Dense identifier.
    pub id: RackId,
    /// Owning power row.
    pub power_row: PowerRowId,
    /// Servers in the rack.
    pub servers: Vec<ServerId>,
}

/// A physical server.
#[derive(Debug, Clone)]
pub struct Server {
    /// Dense identifier.
    pub id: ServerId,
    /// Hardware configuration.
    pub hardware: HardwareTypeId,
    /// Owning rack.
    pub rack: RackId,
    /// Owning power row (denormalized for O(1) scope lookup).
    pub power_row: PowerRowId,
    /// Owning MSB (denormalized).
    pub msb: MsbId,
    /// Owning datacenter (denormalized).
    pub datacenter: DatacenterId,
}

impl Server {
    /// The fault-domain identifier of this server at the given scope.
    pub fn scope_id(&self, scope: Scope) -> ScopeId {
        match scope {
            Scope::Server => ScopeId::Server(self.id),
            Scope::Rack => ScopeId::Rack(self.rack),
            Scope::PowerRow => ScopeId::PowerRow(self.power_row),
            Scope::Msb => ScopeId::Msb(self.msb),
            Scope::Datacenter => ScopeId::Datacenter(self.datacenter),
            Scope::Region => ScopeId::Region,
        }
    }
}

/// The full regional topology: arenas plus the hardware catalog.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// Region name (e.g. `"prn"`).
    pub name: String,
    /// Hardware catalog used by this region's servers.
    pub catalog: HardwareCatalog,
    datacenters: Vec<Datacenter>,
    msbs: Vec<Msb>,
    power_rows: Vec<PowerRow>,
    racks: Vec<Rack>,
    servers: Vec<Server>,
    /// Servers per hardware type, indexed by [`HardwareTypeId::index`].
    hardware_counts: Vec<usize>,
}

impl Region {
    /// Creates an empty region with the given name and catalog.
    pub fn new(name: impl Into<String>, catalog: HardwareCatalog) -> Self {
        Self {
            name: name.into(),
            catalog,
            ..Self::default()
        }
    }

    /// Adds a datacenter and returns its identifier.
    pub fn add_datacenter(&mut self, name: impl Into<String>) -> DatacenterId {
        let id = DatacenterId::from_index(self.datacenters.len());
        self.datacenters.push(Datacenter {
            id,
            name: name.into(),
            msbs: Vec::new(),
        });
        id
    }

    /// Adds an MSB to a datacenter and returns its identifier.
    pub fn add_msb(&mut self, datacenter: DatacenterId, turnup_order: u32) -> MsbId {
        let id = MsbId::from_index(self.msbs.len());
        self.msbs.push(Msb {
            id,
            datacenter,
            turnup_order,
            power_rows: Vec::new(),
        });
        self.datacenters[datacenter.index()].msbs.push(id);
        id
    }

    /// Adds a power row to an MSB and returns its identifier.
    pub fn add_power_row(&mut self, msb: MsbId) -> PowerRowId {
        let id = PowerRowId::from_index(self.power_rows.len());
        self.power_rows.push(PowerRow {
            id,
            msb,
            racks: Vec::new(),
        });
        self.msbs[msb.index()].power_rows.push(id);
        id
    }

    /// Adds a rack to a power row and returns its identifier.
    pub fn add_rack(&mut self, power_row: PowerRowId) -> RackId {
        let id = RackId::from_index(self.racks.len());
        self.racks.push(Rack {
            id,
            power_row,
            servers: Vec::new(),
        });
        self.power_rows[power_row.index()].racks.push(id);
        id
    }

    /// Adds a server to a rack and returns its identifier.
    pub fn add_server(&mut self, rack: RackId, hardware: HardwareTypeId) -> ServerId {
        let id = ServerId::from_index(self.servers.len());
        let power_row = self.racks[rack.index()].power_row;
        let msb = self.power_rows[power_row.index()].msb;
        let datacenter = self.msbs[msb.index()].datacenter;
        self.servers.push(Server {
            id,
            hardware,
            rack,
            power_row,
            msb,
            datacenter,
        });
        self.racks[rack.index()].servers.push(id);
        if self.hardware_counts.len() <= hardware.index() {
            self.hardware_counts.resize(hardware.index() + 1, 0);
        }
        self.hardware_counts[hardware.index()] += 1;
        id
    }

    /// All datacenters.
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.datacenters
    }

    /// All MSBs.
    pub fn msbs(&self) -> &[Msb] {
        &self.msbs
    }

    /// All power rows.
    pub fn power_rows(&self) -> &[PowerRow] {
        &self.power_rows
    }

    /// All racks.
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Looks up one server.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// Looks up one MSB.
    pub fn msb(&self, id: MsbId) -> &Msb {
        &self.msbs[id.index()]
    }

    /// Looks up one datacenter.
    pub fn datacenter(&self, id: DatacenterId) -> &Datacenter {
        &self.datacenters[id.index()]
    }

    /// Looks up one rack.
    pub fn rack(&self, id: RackId) -> &Rack {
        &self.racks[id.index()]
    }

    /// Looks up one power row.
    pub fn power_row(&self, id: PowerRowId) -> &PowerRow {
        &self.power_rows[id.index()]
    }

    /// Iterates over the servers of one MSB.
    pub fn servers_in_msb(&self, msb: MsbId) -> impl Iterator<Item = &Server> + '_ {
        self.servers.iter().filter(move |s| s.msb == msb)
    }

    /// Partitions all servers by the given scope, returning
    /// `(scope id, member servers)` groups in deterministic order.
    ///
    /// This materializes the paper's `ΨK` / `ΨF` / `ΨD` partitions.
    pub fn partition(&self, scope: Scope) -> Vec<(ScopeId, Vec<ServerId>)> {
        let group_count = match scope {
            Scope::Server => self.servers.len(),
            Scope::Rack => self.racks.len(),
            Scope::PowerRow => self.power_rows.len(),
            Scope::Msb => self.msbs.len(),
            Scope::Datacenter => self.datacenters.len(),
            Scope::Region => 1,
        };
        let mut groups: Vec<Vec<ServerId>> = vec![Vec::new(); group_count];
        for server in &self.servers {
            let idx = match scope {
                Scope::Server => server.id.index(),
                Scope::Rack => server.rack.index(),
                Scope::PowerRow => server.power_row.index(),
                Scope::Msb => server.msb.index(),
                Scope::Datacenter => server.datacenter.index(),
                Scope::Region => 0,
            };
            groups[idx].push(server.id);
        }
        groups
            .into_iter()
            .enumerate()
            .map(|(idx, members)| {
                let scope_id = match scope {
                    Scope::Server => ScopeId::Server(ServerId::from_index(idx)),
                    Scope::Rack => ScopeId::Rack(RackId::from_index(idx)),
                    Scope::PowerRow => ScopeId::PowerRow(PowerRowId::from_index(idx)),
                    Scope::Msb => ScopeId::Msb(MsbId::from_index(idx)),
                    Scope::Datacenter => ScopeId::Datacenter(DatacenterId::from_index(idx)),
                    Scope::Region => ScopeId::Region,
                };
                (scope_id, members)
            })
            .collect()
    }

    /// Total server count.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Servers per hardware type, indexed by [`HardwareTypeId::index`]
    /// and counted as servers are added: a type past the end has none.
    pub fn hardware_counts(&self) -> &[usize] {
        &self.hardware_counts
    }

    /// Per-MSB hardware mixture: `mix[msb][hardware_type] = server count`.
    pub fn hardware_mix_by_msb(&self) -> Vec<Vec<usize>> {
        let mut mix = vec![vec![0usize; self.catalog.len()]; self.msbs.len()];
        for server in &self.servers {
            mix[server.msb.index()][server.hardware.index()] += 1;
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareCatalog;

    fn tiny_region() -> Region {
        let catalog = HardwareCatalog::standard();
        let hw0 = catalog.iter().next().unwrap().id;
        let hw1 = catalog.iter().nth(1).unwrap().id;
        let mut region = Region::new("test", catalog);
        let dc = region.add_datacenter("dc0");
        let msb_a = region.add_msb(dc, 0);
        let msb_b = region.add_msb(dc, 1);
        for msb in [msb_a, msb_b] {
            let row = region.add_power_row(msb);
            for _ in 0..2 {
                let rack = region.add_rack(row);
                region.add_server(rack, hw0);
                region.add_server(rack, hw1);
            }
        }
        region
    }

    #[test]
    fn parent_pointers_are_denormalized_correctly() {
        let region = tiny_region();
        for server in region.servers() {
            let rack = region.rack(server.rack);
            let row = region.power_row(rack.power_row);
            let msb = region.msb(row.msb);
            assert_eq!(server.power_row, rack.power_row);
            assert_eq!(server.msb, row.msb);
            assert_eq!(server.datacenter, msb.datacenter);
        }
    }

    #[test]
    fn partition_by_msb_covers_every_server_exactly_once() {
        let region = tiny_region();
        let partition = region.partition(Scope::Msb);
        let total: usize = partition.iter().map(|(_, members)| members.len()).sum();
        assert_eq!(total, region.server_count());
        assert_eq!(partition.len(), 2);
        for (scope_id, members) in &partition {
            let ScopeId::Msb(msb) = scope_id else {
                panic!("wrong scope id variant")
            };
            for server in members {
                assert_eq!(region.server(*server).msb, *msb);
            }
        }
    }

    #[test]
    fn partition_by_region_is_single_group() {
        let region = tiny_region();
        let partition = region.partition(Scope::Region);
        assert_eq!(partition.len(), 1);
        assert_eq!(partition[0].1.len(), region.server_count());
    }

    #[test]
    fn hardware_mix_sums_to_server_count() {
        let region = tiny_region();
        let mix = region.hardware_mix_by_msb();
        let total: usize = mix.iter().flatten().sum();
        assert_eq!(total, region.server_count());
    }

    #[test]
    fn hardware_counts_equal_a_walk_of_the_servers() {
        let region = tiny_region();
        let mut walked = vec![0usize; region.catalog.len()];
        for server in region.servers() {
            walked[server.hardware.index()] += 1;
        }
        let counts = region.hardware_counts();
        assert!(counts.len() <= walked.len());
        assert!(walked[counts.len()..].iter().all(|&n| n == 0));
        assert_eq!(counts, &walked[..counts.len()]);
    }

    #[test]
    fn scope_id_lookup_on_server() {
        let region = tiny_region();
        let server = region.server(ServerId(0));
        assert_eq!(server.scope_id(Scope::Msb), ScopeId::Msb(server.msb));
        assert_eq!(server.scope_id(Scope::Region), ScopeId::Region);
    }

    #[test]
    fn servers_in_msb_filter() {
        let region = tiny_region();
        let msb = region.msbs()[0].id;
        assert_eq!(region.servers_in_msb(msb).count(), 4);
    }
}
