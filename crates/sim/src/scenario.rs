//! The simulation harness.

use ras_broker::{ReservationId, ResourceBroker, SimTime};
use ras_core::buffers;
use ras_core::reservation::ReservationSpec;
use ras_core::solver::AsyncSolver;
use ras_core::SolverParams;
use ras_mover::{ElasticManager, MoverConfig, OnlineMover};
use ras_topology::Region;
use ras_twine::{HealthCheckService, TwineAllocator};
use ras_workloads::power;

use crate::continuous::stranded_now;
use crate::failures::{FailureInjector, FailureRates};
use crate::metrics::{weighted_max_msb_share, HourSample, MetricsLog};

/// A uniform count-based RRU table over a region's catalog.
pub(crate) fn uniform_rru(region: &Region) -> ras_core::rru::RruTable {
    ras_core::rru::RruTable::uniform(&region.catalog, 1.0)
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed for the failure injector.
    pub seed: u64,
    /// Hours between solves (paper: 1).
    pub solve_interval_hours: u64,
    /// Simulation tick in seconds (failure injection resolution).
    pub tick_secs: u64,
    /// Failure rates.
    pub failures: FailureRates,
    /// Solver parameters.
    pub params: SolverParams,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5111,
            solve_interval_hours: 1,
            tick_secs: 600,
            failures: FailureRates::default(),
            params: SolverParams::default(),
        }
    }
}

/// A running regional simulation.
pub struct Simulation {
    /// The physical region.
    pub region: Region,
    /// The broker (source of truth).
    pub broker: ResourceBroker,
    /// Reservation specs, index-aligned with broker registrations.
    pub specs: Vec<ReservationSpec>,
    /// The Async Solver.
    pub solver: AsyncSolver,
    /// The Online Mover.
    pub mover: OnlineMover,
    /// The Twine allocator (best-fit placement).
    pub twine: TwineAllocator,
    /// The Health Check Service.
    pub hcs: HealthCheckService,
    /// The failure injector.
    pub injector: FailureInjector,
    /// Collected hourly metrics.
    pub metrics: MetricsLog,
    config: SimConfig,
    time: SimTime,
    moves_logged: usize,
    elastic: Option<ElasticManager>,
    pending_revokes: Vec<(ras_topology::ServerId, SimTime)>,
    /// Statistics of every solve executed (allocation seconds, vars, …).
    pub solve_history: Vec<ras_core::solver::SolveOutput>,
    /// Every solve [`Simulation::run_hours`] ran that failed (a refused
    /// plan included), with its simulated hour.
    pub solve_errors: Vec<(u64, ras_core::CoreError)>,
}

impl Simulation {
    /// Builds a simulation over a region.
    pub fn new(region: Region, config: SimConfig) -> Self {
        let mut broker = ResourceBroker::new(region.server_count());
        let mover = OnlineMover::new(&mut broker, MoverConfig::default());
        let injector = FailureInjector::new(config.failures.clone(), config.seed);
        Self {
            region,
            broker,
            specs: Vec::new(),
            solver: AsyncSolver::new(config.params.clone()),
            mover,
            twine: TwineAllocator::new(),
            hcs: HealthCheckService::new(),
            injector,
            metrics: MetricsLog::new(),
            config,
            time: SimTime::ZERO,
            moves_logged: 0,
            elastic: None,
            pending_revokes: Vec::new(),
            solve_history: Vec::new(),
            solve_errors: Vec::new(),
        }
    }

    /// Registers an elastic reservation and turns on automatic loans:
    /// every tick loans idle capacity to it; active correlated failures
    /// revoke loans in the paper's 75 %-now / 25 %-in-30-min waves.
    pub fn enable_auto_elastic(&mut self, name: &str) -> ReservationId {
        let spec = ReservationSpec::elastic(name, crate::scenario::uniform_rru(&self.region));
        let id = self.add_spec(spec);
        self.elastic = Some(ElasticManager::new(id));
        id
    }

    /// Registers a reservation spec; ids are dense and broker-aligned.
    pub fn add_spec(&mut self, spec: ReservationSpec) -> ReservationId {
        let id = self.broker.register_reservation(spec.name.clone());
        self.specs.push(spec);
        id
    }

    /// Registers the shared random-failure buffers for the whole region.
    pub fn add_shared_buffers(&mut self, fraction: f64) -> Vec<ReservationId> {
        buffers::shared_buffer_specs(&self.region, fraction)
            .into_iter()
            .map(|s| self.add_spec(s))
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Runs one solve right now and executes its targets (also done
    /// automatically on the solve interval during
    /// [`Simulation::run_hours`]).
    pub fn solve_now(&mut self) -> Result<(), ras_core::CoreError> {
        let snapshot = self.broker.snapshot(self.time);
        let output = self.solver.solve(&self.region, &self.specs, &snapshot)?;
        self.solver.apply(&output, &mut self.broker)?;
        self.solve_history.push(output);
        let region = &self.region;
        let twine = &mut self.twine;
        self.mover
            .execute_targets(&mut self.broker, self.time, |server, broker| {
                twine.evacuate(region, broker, server);
            });
        Ok(())
    }

    /// Advances the clock by one tick: inject failures, run the mover's
    /// fast paths, evacuate containers off dead servers.
    fn tick(&mut self) {
        self.injector.step(
            &self.region,
            &mut self.broker,
            &mut self.hcs,
            self.time,
            self.config.tick_secs,
        );
        // Containers on freshly-down servers move within the reservation.
        let down_with_containers: Vec<_> = self
            .broker
            .iter()
            .filter(|(_, r)| !r.is_up() && r.running_containers > 0)
            .map(|(s, _)| s)
            .collect();
        for s in down_with_containers {
            self.twine.evacuate(&self.region, &mut self.broker, s);
        }
        self.mover
            .handle_failures(&self.region, &self.specs, &mut self.broker, self.time);
        // Elastic automation: loans when calm, revocation under fire.
        if let Some(mgr) = &self.elastic {
            // Complete due delayed revocations first.
            let due: Vec<_> = self
                .pending_revokes
                .iter()
                .filter(|(_, t)| *t <= self.time)
                .cloned()
                .collect();
            self.pending_revokes.retain(|(_, t)| *t > self.time);
            for (s, t) in due {
                mgr.complete_revoke(&mut self.broker, s, t, &mut self.mover.log);
            }
            let correlated_active = self.broker.iter().any(|(_, r)| {
                r.unavailability
                    .map(|e| e.kind == ras_broker::UnavailabilityKind::CorrelatedFailure)
                    .unwrap_or(false)
            });
            if correlated_active {
                let loaned = mgr.loaned(&self.broker).len();
                if loaned > 0 {
                    let (_, delayed) =
                        mgr.revoke(&mut self.broker, loaned, self.time, &mut self.mover.log);
                    self.pending_revokes.extend(delayed);
                }
            } else {
                mgr.loan_idle(
                    &self.specs,
                    &mut self.broker,
                    16,
                    self.time,
                    &mut self.mover.log,
                );
            }
        }
        self.time = self.time.plus_secs(self.config.tick_secs);
    }

    /// Servers currently loaned to the auto-elastic reservation.
    pub fn elastic_loans(&self) -> usize {
        self.elastic
            .as_ref()
            .map_or(0, |m| m.loaned(&self.broker).len())
    }

    /// Runs `hours` simulated hours: ticks, periodic solves, and one
    /// metric sample per hour.
    ///
    /// A failed solve (e.g. genuinely impossible capacity, or a plan the
    /// solver refused) applies nothing and is recorded in
    /// [`Simulation::solve_errors`]; the simulation keeps running, as
    /// production would.
    pub fn run_hours(&mut self, hours: u64) {
        let ticks_per_hour = (3600 / self.config.tick_secs).max(1);
        for _ in 0..hours {
            let hour = self.time.as_hours();
            if hour.is_multiple_of(self.config.solve_interval_hours) {
                if let Err(e) = self.solve_now() {
                    self.solve_errors.push((hour, e));
                }
            }
            for _ in 0..ticks_per_hour {
                self.tick();
            }
            self.sample(hour);
        }
    }

    /// Takes one metric sample labelled with `hour`.
    pub fn sample(&mut self, hour: u64) {
        use ras_broker::UnavailabilityKind as K;
        let total = self.broker.server_count() as f64;
        let mut down = [0usize; 4]; // planned, hw, sw, correlated
        for (_, rec) in self.broker.iter() {
            if let Some(e) = &rec.unavailability {
                match e.kind {
                    K::PlannedMaintenance => down[0] += 1,
                    K::UnplannedHardware => down[1] += 1,
                    K::UnplannedSoftware => down[2] += 1,
                    K::CorrelatedFailure => down[3] += 1,
                }
            }
        }
        let budget = power::default_budget(&self.region);
        let p = power::measure(&self.region, &self.broker, budget);
        // Moves executed since the previous sample.
        let new_records = &self.mover.log.records()[self.moves_logged..];
        let in_use = new_records.iter().filter(|r| r.in_use).count();
        let unused = new_records.len() - in_use;
        self.moves_logged = self.mover.log.records().len();
        let stranded = stranded_now(
            &mut self.twine,
            &self.region,
            &self.broker,
            self.specs.len(),
        );
        self.metrics.push(HourSample {
            hour,
            unavailable_total: down.iter().sum::<usize>() as f64 / total,
            unavailable_unplanned: (down[1] + down[2]) as f64 / total,
            unavailable_hardware: down[1] as f64 / total,
            unavailable_correlated: down[3] as f64 / total,
            unavailable_planned: down[0] as f64 / total,
            avg_max_msb_share: weighted_max_msb_share(&self.region, &self.specs, &self.broker),
            power_variance: p.utilization_variance,
            power_headroom: p.peak_utilization_headroom,
            moves: (in_use, unused),
            stranded,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_core::baseline::GreedyAllocator;
    use ras_core::rru::RruTable;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn region() -> Region {
        RegionBuilder::new(RegionTemplate::tiny(), 42).build()
    }

    fn quiet_config() -> SimConfig {
        SimConfig {
            failures: FailureRates::quiet(),
            tick_secs: 1200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn ras_mode_materializes_capacity() {
        let region = region();
        let mut sim = Simulation::new(region, quiet_config());
        let catalog = sim.region.catalog.clone();
        let web = sim.add_spec(ras_core::ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&catalog, 1.0),
        ));
        sim.run_hours(2);
        assert!(
            sim.broker.member_count(web) >= 40,
            "capacity materialized via solver+mover, got {}",
            sim.broker.member_count(web)
        );
        assert_eq!(sim.metrics.samples().len(), 2);
        assert!(!sim.solve_history.is_empty());
        assert!(sim.solve_errors.is_empty(), "{:?}", sim.solve_errors);
    }

    #[test]
    fn failed_solves_are_recorded_with_their_hour() {
        let config = SimConfig {
            solve_interval_hours: 2,
            ..quiet_config()
        };
        let mut sim = Simulation::new(region(), config);
        let catalog = sim.region.catalog.clone();
        let ml = sim.add_spec(ras_core::ReservationSpec::guaranteed(
            "ml",
            10.0,
            RruTable::empty(&catalog),
        ));
        sim.run_hours(5);
        assert!(sim.solve_history.is_empty());
        let hours: Vec<u64> = sim.solve_errors.iter().map(|(h, _)| *h).collect();
        assert_eq!(hours, [0, 2, 4], "one error per solve hour");
        for (_, e) in &sim.solve_errors {
            assert_eq!(
                *e,
                ras_core::CoreError::NoEligibleHardware { reservation: ml }
            );
        }
        assert_eq!(sim.metrics.samples().len(), 5, "the hours still ran");
    }

    #[test]
    fn ras_spreads_better_than_greedy() {
        let mut sim = Simulation::new(region(), quiet_config());
        let catalog = sim.region.catalog.clone();
        sim.add_spec(ras_core::ReservationSpec::guaranteed(
            "web",
            60.0,
            RruTable::uniform(&catalog, 1.0),
        ));
        sim.run_hours(2);
        let ras = sim.metrics.latest().unwrap().avg_max_msb_share;

        // Twine's previous allocator on the same region and spec.
        let mut broker = ResourceBroker::new(sim.region.server_count());
        broker.register_reservation("web");
        GreedyAllocator.rebalance(&sim.region, &sim.specs, &mut broker);
        let greedy = weighted_max_msb_share(&sim.region, &sim.specs, &broker);
        assert!(
            ras < greedy * 0.6,
            "RAS max-MSB share {ras} must beat greedy {greedy}"
        );
    }

    #[test]
    fn failure_replacement_keeps_capacity_whole() {
        let region = region();
        let mut config = quiet_config();
        config.failures = FailureRates {
            hardware_per_server_per_day: 0.05, // High for a short test.
            ..FailureRates::quiet()
        };
        let mut sim = Simulation::new(region, config);
        let catalog = sim.region.catalog.clone();
        let web = sim.add_spec(ras_core::ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&catalog, 1.0),
        ));
        sim.add_shared_buffers(0.02);
        sim.run_hours(6);
        // Healthy membership stays at/above Cr thanks to fast replacement.
        let healthy = sim
            .broker
            .members_of(web)
            .iter()
            .filter(|s| sim.broker.record(**s).unwrap().is_up())
            .count();
        assert!(healthy >= 38, "healthy members {healthy} after failures");
    }

    #[test]
    fn auto_elastic_loans_and_revokes() {
        let region = region();
        let mut config = quiet_config();
        config.tick_secs = 600;
        let mut sim = Simulation::new(region, config);
        let catalog = sim.region.catalog.clone();
        sim.add_spec(ras_core::ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&catalog, 1.0),
        ));
        let _elastic = sim.enable_auto_elastic("ml-offline");
        sim.run_hours(2);
        assert!(sim.elastic_loans() > 0, "idle capacity must be loaned");
        // A correlated failure revokes the loans (75 % immediately).
        let msb = ras_topology::MsbId(0);
        let now = sim.now();
        let loans_before = sim.elastic_loans();
        {
            let Simulation {
                region,
                broker,
                hcs,
                ..
            } = &mut sim;
            hcs.report_scope_down(
                broker,
                region,
                ras_topology::ScopeId::Msb(msb),
                ras_broker::UnavailabilityKind::CorrelatedFailure,
                now,
                Some(now.plus_hours(2)),
            )
            .unwrap();
        }
        sim.run_hours(1);
        assert!(
            sim.elastic_loans() < loans_before / 2,
            "correlated failure must revoke loans: {} -> {}",
            loans_before,
            sim.elastic_loans()
        );
    }

    #[test]
    fn unavailability_sampling_sees_injected_events() {
        let region = region();
        let mut config = quiet_config();
        config.failures = FailureRates {
            software_per_server_per_day: 2.0,
            software_minutes: (200.0, 400.0),
            ..FailureRates::quiet()
        };
        let mut sim = Simulation::new(region, config);
        sim.run_hours(3);
        let peak = sim
            .metrics
            .samples()
            .iter()
            .map(|s| s.unavailable_unplanned)
            .fold(0.0, f64::max);
        assert!(peak > 0.0, "software failures must show in samples");
    }
}
