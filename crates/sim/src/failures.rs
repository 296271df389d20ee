//! Failure and maintenance injection (calibrated to paper Section 2.5).
//!
//! Injected event classes and their paper-quoted calibration targets:
//!
//! * random hardware failures — ~0.1 % of the fleet in repair at any
//!   time, repairs lasting days to weeks;
//! * random software failures — short (minutes to hours), bursty, usually
//!   < 0.5 % but able to spike past 3 %;
//! * planned maintenance — the bulk of unavailability (combined planned +
//!   unplanned can exceed 5 %), performed at MSB granularity with at most
//!   25 % of an MSB concurrently down;
//! * correlated failures — roughly one MSB-scale event per region-month
//!   (~2 % of MSBs per year) and ~0.5 % of power rows per year.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
use ras_topology::{MsbId, PowerRowId, Region, ScopeId, ServerId};
use ras_twine::health::{report_scope_down, report_scope_up};

use crate::continuous::{stranded_now, ContainerLoad};
use crate::metrics::StrandedAccount;

/// Hardware repair time range in days.
const REPAIR_DAYS: (f64, f64) = (4.0, 20.0);

/// Hours a power-row failure lasts.
const POWER_ROW_HOURS: (f64, f64) = (1.0, 6.0);

/// Fraction of each MSB under planned maintenance during a maintenance
/// window (paper caps concurrency at 25 %).
const MAINTENANCE_FRACTION: f64 = 0.25;

/// Event rates, all per simulated time.
#[derive(Debug, Clone)]
pub struct FailureRates {
    /// Probability a given server suffers a hardware failure per day.
    pub hardware_per_server_per_day: f64,
    /// Probability a given server suffers a software failure per day.
    pub software_per_server_per_day: f64,
    /// Software outage duration range in minutes.
    pub software_minutes: (f64, f64),
    /// MSB-scale correlated failures per region per month.
    pub msb_failures_per_month: f64,
    /// Hours an MSB failure lasts.
    pub msb_outage_hours: (f64, f64),
    /// Power-row correlated failures per row per year (~0.5 %).
    pub power_row_per_row_per_year: f64,
    /// Planned maintenance windows per MSB per week.
    pub maintenance_per_msb_per_week: f64,
    /// Maintenance window length in hours.
    pub maintenance_hours: (f64, f64),
}

impl Default for FailureRates {
    fn default() -> Self {
        Self {
            // ~0.1 % of fleet in repair with ~10-day repairs → arrival
            // rate ≈ 0.001 / 10 per server-day.
            hardware_per_server_per_day: 0.0001,
            software_per_server_per_day: 0.02,
            software_minutes: (10.0, 120.0),
            msb_failures_per_month: 1.0,
            msb_outage_hours: (2.0, 12.0),
            power_row_per_row_per_year: 0.005,
            maintenance_per_msb_per_week: 1.0,
            maintenance_hours: (2.0, 6.0),
        }
    }
}

impl FailureRates {
    /// A quiet profile for tests that only need occasional events.
    pub fn quiet() -> Self {
        Self {
            hardware_per_server_per_day: 0.0,
            software_per_server_per_day: 0.0,
            msb_failures_per_month: 0.0,
            power_row_per_row_per_year: 0.0,
            maintenance_per_msb_per_week: 0.0,
            ..Self::default()
        }
    }
}

/// A scheduled recovery.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Server(ServerId, SimTime),
    Scope(ScopeId, SimTime),
}

/// The injector: drives Poisson event arrivals and schedules recoveries.
#[derive(Debug)]
pub struct FailureInjector {
    rates: FailureRates,
    rng: StdRng,
    pending: Vec<Pending>,
    /// Every event injected: when, its kind and how many servers it took
    /// down. Only this module's unit tests read it.
    pub injected: Vec<(SimTime, UnavailabilityKind, usize)>,
}

impl FailureInjector {
    /// Creates an injector.
    pub fn new(rates: FailureRates, seed: u64) -> Self {
        Self {
            rates,
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
            injected: Vec::new(),
        }
    }

    fn uniform(&mut self, range: (f64, f64)) -> f64 {
        range.0 + self.rng.gen::<f64>() * (range.1 - range.0)
    }

    /// Bernoulli approximation of a Poisson arrival for one step.
    fn happens(&mut self, rate_per_step: f64) -> bool {
        rate_per_step > 0.0 && self.rng.gen::<f64>() < rate_per_step.min(1.0)
    }

    /// Advances the injector by `dt_secs`, writing new unavailability
    /// events into the broker (the Health Check Service's role) and
    /// completing due recoveries.
    pub fn step(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        now: SimTime,
        dt_secs: u64,
    ) {
        self.complete_recoveries(region, broker, now);
        let dt_days = dt_secs as f64 / 86_400.0;

        // Random single-server failures: sample the expected number of
        // events fleet-wide rather than rolling per server.
        for (kind, per_day, dur) in [
            (
                UnavailabilityKind::UnplannedHardware,
                self.rates.hardware_per_server_per_day,
                None,
            ),
            (
                UnavailabilityKind::UnplannedSoftware,
                self.rates.software_per_server_per_day,
                Some(self.rates.software_minutes),
            ),
        ] {
            let mean = per_day * dt_days * region.server_count() as f64;
            let count = self.poisson(mean);
            for _ in 0..count {
                let victim = ServerId::from_index(self.rng.gen_range(0..region.server_count()));
                if broker.record(victim).map(|r| r.is_up()).unwrap_or(false) {
                    let end = match dur {
                        Some(minutes) => now.plus_secs((self.uniform(minutes) * 60.0) as u64),
                        None => now.plus_secs((self.uniform(REPAIR_DAYS) * 86_400.0) as u64),
                    };
                    let _ = broker.mark_down(UnavailabilityEvent {
                        server: victim,
                        kind,
                        scope: ScopeId::Server(victim),
                        start: now,
                        expected_end: Some(end),
                    });
                    self.pending.push(Pending::Server(victim, end));
                    self.injected.push((now, kind, 1));
                }
            }
        }

        // MSB-scale correlated failure.
        let msb_rate = self.rates.msb_failures_per_month * dt_days / 30.0;
        if self.happens(msb_rate) {
            let msb = MsbId::from_index(self.rng.gen_range(0..region.msbs().len()));
            let end = now.plus_secs((self.uniform(self.rates.msb_outage_hours) * 3600.0) as u64);
            let n = report_scope_down(
                broker,
                region,
                ScopeId::Msb(msb),
                UnavailabilityKind::CorrelatedFailure,
                now,
                Some(end),
            )
            .unwrap_or(0);
            self.pending.push(Pending::Scope(ScopeId::Msb(msb), end));
            self.injected
                .push((now, UnavailabilityKind::CorrelatedFailure, n));
        }

        // Power-row correlated failure.
        let row_rate = self.rates.power_row_per_row_per_year * dt_days / 365.0
            * region.power_rows().len() as f64;
        if self.happens(row_rate) {
            let row = PowerRowId::from_index(self.rng.gen_range(0..region.power_rows().len()));
            let end = now.plus_secs((self.uniform(POWER_ROW_HOURS) * 3600.0) as u64);
            let n = report_scope_down(
                broker,
                region,
                ScopeId::PowerRow(row),
                UnavailabilityKind::CorrelatedFailure,
                now,
                Some(end),
            )
            .unwrap_or(0);
            self.pending
                .push(Pending::Scope(ScopeId::PowerRow(row), end));
            self.injected
                .push((now, UnavailabilityKind::CorrelatedFailure, n));
        }

        // Planned maintenance: up to 25 % of an MSB at a time.
        let maint_rate =
            self.rates.maintenance_per_msb_per_week * dt_days / 7.0 * region.msbs().len() as f64;
        if self.happens(maint_rate) {
            let msb = MsbId::from_index(self.rng.gen_range(0..region.msbs().len()));
            let members: Vec<ServerId> = region.servers_in_msb(msb).map(|s| s.id).collect();
            let take = (members.len() as f64 * MAINTENANCE_FRACTION) as usize;
            let end = now.plus_secs((self.uniform(self.rates.maintenance_hours) * 3600.0) as u64);
            let mut n = 0;
            for s in members.into_iter().take(take) {
                if broker.record(s).map(|r| r.is_up()).unwrap_or(false) {
                    let _ = broker.mark_down(UnavailabilityEvent {
                        server: s,
                        kind: UnavailabilityKind::PlannedMaintenance,
                        scope: ScopeId::Msb(msb),
                        start: now,
                        expected_end: Some(end),
                    });
                    self.pending.push(Pending::Server(s, end));
                    n += 1;
                }
            }
            if n > 0 {
                self.injected
                    .push((now, UnavailabilityKind::PlannedMaintenance, n));
            }
        }
    }

    fn poisson(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 100_000 {
                return k;
            }
        }
    }

    fn complete_recoveries(&mut self, region: &Region, broker: &mut ResourceBroker, now: SimTime) {
        let due: Vec<Pending> = self
            .pending
            .iter()
            .filter(|p| match p {
                Pending::Server(_, t) | Pending::Scope(_, t) => *t <= now,
            })
            .copied()
            .collect();
        self.pending.retain(|p| match p {
            Pending::Server(_, t) | Pending::Scope(_, t) => *t > now,
        });
        for p in due {
            match p {
                Pending::Server(s, t) => {
                    let _ = broker.mark_up(s, t);
                }
                Pending::Scope(scope, t) => {
                    let _ = report_scope_up(broker, region, scope, t);
                }
            }
        }
    }
}

/// Outcome of one MSB-scale failure drill at the container layer.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// Placement policy that ran the drill.
    pub policy: String,
    /// Containers placed before the failure.
    pub containers: usize,
    /// Servers the failed MSB took down.
    pub msb_servers: usize,
    /// Containers that had to evacuate the failed MSB.
    pub containers_on_msb: usize,
    /// Evacuees successfully re-placed within the reservation.
    pub evac_moved: usize,
    /// Evacuees that could not be re-placed.
    pub evac_lost: usize,
    /// Stranded-capacity account before the failure.
    pub stranded_before: StrandedAccount,
    /// Stranded-capacity account after evacuation completed.
    pub stranded_after: StrandedAccount,
    /// Placement latency p50 (µs) across the whole drill.
    pub placement_p50_us: Option<u64>,
    /// Placement latency p99 (µs) across the whole drill.
    pub placement_p99_us: Option<u64>,
}

/// Runs a correlated-failure drill at the container layer: bind
/// `member_fraction` of the fleet (striped across the region) to one
/// reservation, place the container load, fail the MSB hosting the most
/// containers, evacuate every victim, and account stranded capacity
/// before and after.
pub fn run_failure_drill(
    region: &Region,
    load: &ContainerLoad,
    member_fraction: f64,
) -> DrillReport {
    let total = region.server_count();
    let want = ras_core::cast::rounded_usize(total as f64 * member_fraction).clamp(1, total);
    let (mut broker, mut twine, _) = load.place_striped(region, want, "drill");
    let containers = twine.container_count();
    let stranded_before = stranded_now(&mut twine, region, &broker, 1);

    // Fail the MSB hosting the most containers — the worst case for the
    // reservation's embedded buffer capacity.
    let mut per_msb = vec![0usize; region.msbs().len()];
    for msb in region.msbs() {
        per_msb[msb.id.index()] = region
            .servers_in_msb(msb.id)
            .map(|s| twine.containers_on(s.id))
            .sum();
    }
    let worst = per_msb
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| **n)
        .map(|(i, _)| MsbId::from_index(i))
        .unwrap_or(MsbId::from_index(0));
    let containers_on_msb = per_msb[worst.index()];

    let msb_servers = report_scope_down(
        &mut broker,
        region,
        ScopeId::Msb(worst),
        UnavailabilityKind::CorrelatedFailure,
        SimTime::ZERO,
        Some(SimTime::from_hours(6)),
    )
    .unwrap_or(0);

    let mut evac_moved = 0;
    let mut evac_lost = 0;
    for server in region.servers_in_msb(worst).map(|s| s.id) {
        if twine.containers_on(server) > 0 {
            let (m, l) = twine.evacuate(region, &mut broker, server);
            evac_moved += m;
            evac_lost += l;
        }
    }
    let stranded_after = stranded_now(&mut twine, region, &broker, 1);

    DrillReport {
        policy: load.policy.name().to_string(),
        containers,
        msb_servers,
        containers_on_msb,
        evac_moved,
        evac_lost,
        stranded_before,
        stranded_after,
        placement_p50_us: twine.latency.percentile(50.0),
        placement_p99_us: twine.latency.percentile(99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn down_fraction(broker: &ResourceBroker) -> f64 {
        let down = broker.iter().filter(|(_, r)| !r.is_up()).count();
        down as f64 / broker.server_count() as f64
    }

    #[test]
    fn quiet_rates_inject_nothing() {
        let (region, mut broker) = setup();
        let mut inj = FailureInjector::new(FailureRates::quiet(), 1);
        for h in 0..48 {
            inj.step(&region, &mut broker, SimTime::from_hours(h), 3600);
        }
        assert_eq!(inj.injected.len(), 0);
        assert_eq!(down_fraction(&broker), 0.0);
    }

    #[test]
    fn failures_eventually_recover() {
        let (region, mut broker) = setup();
        let rates = FailureRates {
            software_per_server_per_day: 5.0, // Very bursty.
            software_minutes: (5.0, 10.0),
            ..FailureRates::quiet()
        };
        let mut inj = FailureInjector::new(rates, 2);
        inj.step(&region, &mut broker, SimTime::ZERO, 3600);
        assert!(down_fraction(&broker) > 0.0, "events must fire");
        // After two hours every short software event has recovered; a
        // zero-length step performs recoveries without new injections.
        inj.step(&region, &mut broker, SimTime::from_hours(2), 0);
        assert_eq!(down_fraction(&broker), 0.0);
    }

    #[test]
    fn msb_failure_takes_out_whole_scope() {
        let (region, mut broker) = setup();
        let rates = FailureRates {
            msb_failures_per_month: 1e9, // Force it immediately.
            ..FailureRates::quiet()
        };
        let mut inj = FailureInjector::new(rates, 3);
        inj.step(&region, &mut broker, SimTime::ZERO, 3600);
        let correlated: usize = inj
            .injected
            .iter()
            .filter(|(_, k, _)| *k == UnavailabilityKind::CorrelatedFailure)
            .map(|(_, _, n)| *n)
            .sum();
        let per_msb = region.server_count() / region.msbs().len();
        assert!(
            correlated >= per_msb,
            "whole MSB must fail, got {correlated}"
        );
    }

    #[test]
    fn maintenance_respects_concurrency_cap() {
        let (region, mut broker) = setup();
        let rates = FailureRates {
            maintenance_per_msb_per_week: 1e9,
            ..FailureRates::quiet()
        };
        let mut inj = FailureInjector::new(rates, 4);
        inj.step(&region, &mut broker, SimTime::ZERO, 3600);
        // Per-MSB fraction under maintenance must respect the 25 % cap.
        for msb in region.msbs() {
            let members: Vec<_> = region.servers_in_msb(msb.id).collect();
            let down = members
                .iter()
                .filter(|s| !broker.record(s.id).unwrap().is_up())
                .count();
            assert!(
                down as f64 <= members.len() as f64 * 0.25 + 1.0,
                "MSB {} has {down}/{} down",
                msb.id,
                members.len()
            );
        }
    }

    #[test]
    fn failure_drill_evacuates_the_worst_msb() {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
        let load = crate::continuous::ContainerLoad::mixed(
            ras_twine::PlacementPolicyKind::FarbBalance,
            24,
        );
        let report = run_failure_drill(&region, &load, 0.5);
        assert_eq!(report.policy, "farb");
        assert!(report.containers > 0, "drill places the load");
        assert!(report.msb_servers > 0, "an MSB went down");
        assert!(
            report.containers_on_msb > 0,
            "the worst MSB hosted containers"
        );
        assert_eq!(
            report.evac_moved + report.evac_lost,
            report.containers_on_msb,
            "every victim is accounted moved or lost"
        );
        // Half the fleet bound and ~1/6 of it down: ample spare capacity,
        // nothing may be lost.
        assert_eq!(report.evac_lost, 0, "dense spare capacity absorbs all");
        assert!(report.placement_p99_us.is_some());
        // Only occupied healthy hosts are accounted, so the host count is
        // bounded by the container count on both sides of the drill.
        assert!(report.stranded_before.hosts > 0);
        assert!(report.stranded_after.hosts > 0);
        assert!(report.stranded_before.hosts <= report.containers);
        assert!(report.stranded_after.hosts <= report.containers);
    }

    #[test]
    fn hardware_steady_state_near_point_one_percent() {
        let region = RegionBuilder::new(RegionTemplate::medium(), 9).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let rates = FailureRates {
            software_per_server_per_day: 0.0,
            msb_failures_per_month: 0.0,
            power_row_per_row_per_year: 0.0,
            maintenance_per_msb_per_week: 0.0,
            ..FailureRates::default()
        };
        let mut inj = FailureInjector::new(rates, 5);
        // Warm up 60 days at 6-hour steps, then sample.
        let mut t = SimTime::ZERO;
        for _ in 0..(60 * 4) {
            inj.step(&region, &mut broker, t, 6 * 3600);
            t = t.plus_hours(6);
        }
        let frac =
            broker.iter().filter(|(_, r)| !r.is_up()).count() as f64 / broker.server_count() as f64;
        assert!(
            (0.0002..0.004).contains(&frac),
            "steady-state hardware repair fraction {frac} out of band"
        );
    }
}
