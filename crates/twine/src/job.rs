//! Jobs and containers.

use ras_broker::ReservationId;

/// Identifier of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not all replicas placed yet.
    Pending,
    /// All replicas running.
    Running,
    /// Was running; some replicas were lost and await re-placement.
    Degraded,
    /// Stopped by the owner.
    Stopped,
}

/// Identifier of a container instance; a container keeps it for life,
/// evacuations included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

/// Resource shape of one container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerSpec {
    /// CPU cores requested.
    pub cores: f64,
    /// Memory requested in GiB.
    pub memory_gib: f64,
}

impl ContainerSpec {
    /// A small standard container.
    pub fn small() -> Self {
        Self {
            cores: 4.0,
            memory_gib: 8.0,
        }
    }

    /// A large container (e.g. a cache shard).
    pub fn large() -> Self {
        Self {
            cores: 16.0,
            memory_gib: 64.0,
        }
    }

    /// A cores-heavy container (e.g. a video encoder): high CPU demand
    /// against little memory, the shape that exhausts a host's cores and
    /// strands its memory under dimension-blind stacking.
    pub fn cores_heavy() -> Self {
        Self {
            cores: 8.0,
            memory_gib: 4.0,
        }
    }

    /// A memory-heavy container (e.g. an in-memory index shard): the
    /// complementary shape that exhausts memory and strands cores.
    pub fn memory_heavy() -> Self {
        Self {
            cores: 2.0,
            memory_gib: 24.0,
        }
    }

    /// True when this container fits in `(free_cores, free_memory_gib)`.
    pub fn fits(&self, free_cores: f64, free_memory_gib: f64) -> bool {
        self.cores <= free_cores && self.memory_gib <= free_memory_gib
    }
}

/// A job: `replicas` identical containers inside one reservation.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Reservation this job runs in ("the Twine Allocator leverages the
    /// Resource Broker to get a list of candidate servers by referencing
    /// the reservation ID").
    pub reservation: ReservationId,
    /// Shape of each container.
    pub container: ContainerSpec,
    /// Number of containers.
    pub replicas: u32,
    /// Spread replicas across racks (anti-affinity) when true.
    pub rack_anti_affinity: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_presets() {
        assert!(ContainerSpec::large().cores > ContainerSpec::small().cores);
    }

    #[test]
    fn job_spec_is_cloneable() {
        let j = JobSpec {
            name: "web".into(),
            reservation: ReservationId::from_index(0),
            container: ContainerSpec::small(),
            replicas: 10,
            rack_anti_affinity: true,
        };
        assert_eq!(j.clone().replicas, 10);
    }
}
