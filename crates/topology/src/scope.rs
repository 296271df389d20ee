//! Fault-domain scopes (paper Sections 2.1 and 3.5.3).
//!
//! The MIP model partitions servers by *scope*: rack (`ΨK`), MSB fault
//! domain (`ΨF`), and datacenter (`ΨD`). [`Scope`] names the level and
//! [`ScopeId`] identifies one concrete fault domain at that level.

use crate::ids::{DatacenterId, MsbId, PowerRowId, RackId, ServerId};

/// A level of the fault-domain hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// A single server (random-failure scope).
    Server,
    /// A rack and its top-of-rack switch (random-failure scope).
    Rack,
    /// A power row inside an MSB (correlated-failure scope, ~0.5 %/yr).
    PowerRow,
    /// A main switch board (largest correlated-failure scope, ~2 %/yr).
    Msb,
    /// A whole datacenter (network-affinity scope, Expression 7).
    Datacenter,
    /// The whole region.
    Region,
}

impl Scope {
    /// All scopes from smallest to largest.
    pub const ALL: [Scope; 6] = [
        Scope::Server,
        Scope::Rack,
        Scope::PowerRow,
        Scope::Msb,
        Scope::Datacenter,
        Scope::Region,
    ];

    /// Returns true if `self` is strictly contained in `other`.
    pub fn contained_in(self, other: Scope) -> bool {
        self.ordinal() < other.ordinal()
    }

    fn ordinal(self) -> usize {
        Scope::ALL
            .iter()
            .position(|s| *s == self)
            .expect("scope in ALL")
    }
}

/// One concrete fault domain: a scope level plus the identifier within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScopeId {
    /// A single server.
    Server(ServerId),
    /// A rack.
    Rack(RackId),
    /// A power row.
    PowerRow(PowerRowId),
    /// An MSB.
    Msb(MsbId),
    /// A datacenter.
    Datacenter(DatacenterId),
    /// The region itself.
    Region,
}

impl ScopeId {
    /// The scope level of this fault domain.
    pub fn scope(self) -> Scope {
        match self {
            ScopeId::Server(_) => Scope::Server,
            ScopeId::Rack(_) => Scope::Rack,
            ScopeId::PowerRow(_) => Scope::PowerRow,
            ScopeId::Msb(_) => Scope::Msb,
            ScopeId::Datacenter(_) => Scope::Datacenter,
            ScopeId::Region => Scope::Region,
        }
    }
}

impl std::fmt::Display for ScopeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScopeId::Server(id) => write!(f, "{id}"),
            ScopeId::Rack(id) => write!(f, "{id}"),
            ScopeId::PowerRow(id) => write!(f, "{id}"),
            ScopeId::Msb(id) => write!(f, "{id}"),
            ScopeId::Datacenter(id) => write!(f, "{id}"),
            ScopeId::Region => write!(f, "Region"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_is_strict_and_ordered() {
        assert!(Scope::Rack.contained_in(Scope::Msb));
        assert!(Scope::Msb.contained_in(Scope::Datacenter));
        assert!(!Scope::Msb.contained_in(Scope::Msb));
        assert!(!Scope::Datacenter.contained_in(Scope::Rack));
    }

    #[test]
    fn scope_id_reports_its_level() {
        assert_eq!(ScopeId::Msb(MsbId(3)).scope(), Scope::Msb);
        assert_eq!(ScopeId::Region.scope(), Scope::Region);
    }
}
