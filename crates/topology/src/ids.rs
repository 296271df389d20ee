//! Strongly-typed identifiers for every level of the topology tree.
//!
//! All identifiers are dense `u32` indices into the owning [`Region`]'s
//! arenas, which keeps lookups O(1) and lets the solver use them directly
//! as array offsets.
//!
//! [`Region`]: crate::region::Region

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the identifier as a usize index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a dense arena index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in a `u32`.
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("arena index exceeds u32 range"))
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a single physical server.
    ServerId
);
define_id!(
    /// Identifier of a rack (also the random-failure scope of its ToR switch).
    RackId
);
define_id!(
    /// Identifier of a power row inside an MSB.
    PowerRowId
);
define_id!(
    /// Identifier of a main switch board, the largest intra-datacenter fault domain.
    MsbId
);
define_id!(
    /// Identifier of a datacenter within the region.
    DatacenterId
);
define_id!(
    /// Identifier of a hardware type (category + subtype) in the catalog.
    HardwareTypeId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = ServerId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, ServerId(42));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(MsbId(7).to_string(), "MsbId(7)");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(RackId(1) < RackId(2));
    }
}
