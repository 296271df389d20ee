//! Discrete-event simulation of a RAS-managed region.
//!
//! Ties every subsystem together under a simulated clock: the failure
//! injector feeds the Health Check Service, which writes unavailability
//! into the Resource Broker; the Online Mover replaces failed servers
//! from the shared buffer within a minute; the Async Solver re-evaluates
//! the whole region every hour; the Twine allocator keeps containers
//! running inside each reservation.

pub mod continuous;
pub mod failures;
pub mod metrics;
pub mod scenario;

pub use continuous::{run_continuous, ContainerLoad, ContinuousConfig, RoundReport};
pub use failures::{run_failure_drill, DrillReport, FailureInjector, FailureRates};
pub use metrics::{
    stranded_account, stranded_best, stranded_on, weighted_max_msb_share, HourSample, MetricsLog,
    StrandedAccount,
};
pub use scenario::{SimConfig, Simulation};
