//! Datacenter topology model for the RAS reproduction.
//!
//! This crate models the physical layout described in Section 2.1 of the
//! paper: a *region* contains several *datacenters*; each datacenter is
//! split into *main switch boards* (MSBs), the largest intra-datacenter
//! fault domain; each MSB contains *power rows*, each power row contains
//! *racks*, and each rack hosts *servers*. Servers carry a heterogeneous
//! [`HardwareType`] (Section 2.2).
//!
//! The crate also provides a deterministic synthetic region generator
//! ([`gen::RegionBuilder`]) that reproduces the hardware-mixture skew of
//! Figure 2: older MSBs hold older processor generations, the newest MSBs
//! hold hardware that exists nowhere else, and every MSB has a distinct
//! mixture.

pub mod gen;
pub mod hardware;
pub mod ids;
pub mod region;
pub mod scope;
pub mod server_set;

pub use gen::{RegionBuilder, RegionTemplate};
pub use hardware::{HardwareCatalog, HardwareCategory, HardwareType, ProcessorGeneration};
pub use ids::{DatacenterId, HardwareTypeId, MsbId, PowerRowId, RackId, ServerId};
pub use region::{Datacenter, Msb, PowerRow, Rack, Region, Server};
pub use scope::{Scope, ScopeId};
pub use server_set::ServerSet;
