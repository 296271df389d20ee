//! Shared "production-like" solve instances for the solver experiments.
//!
//! Builds a region plus a reservation portfolio (headline services,
//! random capacity requests, shared buffers), runs one warm-up solve and
//! materializes it, and sprinkles container load — so subsequent solves
//! see the incremental, mostly-stable inputs production sees
//! (Section 4.1.1 credits the tight latency distribution to "moderate
//! hardware pool changes between solves").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_broker::{ResourceBroker, SimTime};
use ras_core::buffers;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_core::solver::{AsyncSolver, SolveOutput};
use ras_core::{CoreError, SolverParams};
use ras_topology::{
    HardwareCatalog, ProcessorGeneration, Region, RegionBuilder, RegionTemplate, ServerId,
};
use ras_workloads::{RequestGenerator, RequestGeneratorConfig, StandardServices};

/// A ready-to-solve instance.
pub struct Instance {
    /// The region.
    pub region: Region,
    /// The broker, warmed up with a materialized first solve.
    pub broker: ResourceBroker,
    /// Reservation specs (broker-aligned).
    pub specs: Vec<ReservationSpec>,
    /// Solver parameters used.
    pub params: SolverParams,
}

/// The region and reservation portfolio of [`build`], without the broker
/// or the warm-up solve: `reservations` guaranteed reservations (headline
/// profiles first, then generated requests) asking in total for
/// `utilization` of the fleet's RRUs, plus 2 % shared failure buffers.
pub fn portfolio(
    template: RegionTemplate,
    seed: u64,
    reservations: usize,
    utilization: f64,
) -> (Region, Vec<ReservationSpec>) {
    let region = RegionBuilder::new(template, seed).build();
    let total_units = region.server_count() as f64 * utilization;

    // Portfolio: headline profiles get 40 % of demand, generated capacity
    // requests share the rest.
    let mut specs: Vec<ReservationSpec> = Vec::new();
    let headline = [
        StandardServices::web(),
        StandardServices::feed1(),
        StandardServices::feed2(),
        StandardServices::datastore(),
    ];
    let headline_n = headline.len().min(reservations);
    for p in headline.iter().take(headline_n) {
        specs.push(p.reservation(&region.catalog, total_units * 0.4 / headline_n as f64));
    }
    let mut gen = RequestGenerator::new(RequestGeneratorConfig {
        seed: seed ^ 0xabcd,
    });
    let rest = reservations.saturating_sub(headline_n);
    if rest > 0 {
        let budget = total_units * 0.6 / rest as f64;
        for i in 0..rest {
            let req = gen.sample(&region.catalog, SimTime::ZERO);
            let mut spec = req.to_spec(&region.catalog, format!("svc{i}"));
            // Rescale to the per-reservation budget so the region fits.
            spec.capacity = budget.max(4.0).round();
            specs.push(spec);
        }
    }
    // Shared random-failure buffers (2 %).
    specs.extend(buffers::shared_buffer_specs(&region, 0.02));
    (region, specs)
}

/// Builds an instance over the given template.
///
/// `reservations` counts the guaranteed reservations (headline profiles
/// first, then generated requests); utilization sets the fraction of
/// fleet RRUs requested in total.
pub fn build(
    template: RegionTemplate,
    seed: u64,
    reservations: usize,
    utilization: f64,
) -> Instance {
    let (region, specs) = portfolio(template, seed, reservations, utilization);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);

    // Warm-up solve + materialization, then container load.
    let mut inst = Instance {
        broker: broker_for(&region, &specs),
        region,
        specs,
        params: SolverParams::default(),
    };
    let _ = inst.solve_round(&mut AsyncSolver::new(inst.params.clone()), SimTime::ZERO);
    for i in 0..inst.region.server_count() {
        let s = ServerId::from_index(i);
        let bound = inst
            .broker
            .record(s)
            .map(|r| r.current.is_some())
            .unwrap_or(false);
        if bound && rng.gen::<f64>() < 0.8 {
            let _ = inst.broker.set_running_containers(s, rng.gen_range(1..6));
        }
    }
    inst
}

impl Instance {
    /// Solves the round at `now` with `solver`, applies the plan and
    /// materializes every pending move, so the next round starts from the
    /// state this one planned.
    pub fn solve_round(
        &mut self,
        solver: &mut AsyncSolver,
        now: SimTime,
    ) -> Result<SolveOutput, CoreError> {
        let out = solver.solve(&self.region, &self.specs, &self.broker.snapshot(now))?;
        let _ = solver.apply(&out, &mut self.broker);
        for s in self.broker.pending_moves() {
            let t = self.broker.record(s).map(|r| r.target).unwrap_or(None);
            let _ = self.broker.bind_current(s, t);
        }
        Ok(out)
    }
}

/// A broker over `region` with one reservation registered per spec, in
/// spec order.
pub fn broker_for(region: &Region, specs: &[ReservationSpec]) -> ResourceBroker {
    let mut broker = ResourceBroker::new(region.server_count());
    for s in specs {
        broker.register_reservation(&s.name);
    }
    broker
}

/// Count-based RRUs on newer compute: every accelerator-free hardware
/// type past the first processor generation.
pub fn newer_compute(catalog: &HardwareCatalog) -> RruTable {
    let mut rru = RruTable::empty(catalog);
    for hw in catalog.iter() {
        if !hw.has_accelerator() && hw.generation != ProcessorGeneration::Gen1 {
            rru.set(hw.id, 1.0);
        }
    }
    rru
}

/// Applies a small production-like perturbation: resize a few
/// reservations and fail/recover a few servers.
pub fn perturb(instance: &mut Instance, round: u64) {
    let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x51ab_cd12));
    // Resize ~10 % of guaranteed reservations by ±10 %.
    for spec in instance.specs.iter_mut() {
        if spec.kind == ras_core::reservation::ReservationKind::Guaranteed && rng.gen::<f64>() < 0.1
        {
            let factor = 0.9 + rng.gen::<f64>() * 0.2;
            spec.capacity = (spec.capacity * factor).max(2.0).round();
        }
    }
    // A handful of random failures and recoveries.
    for _ in 0..3 {
        let s = ServerId::from_index(rng.gen_range(0..instance.region.server_count()));
        let up = instance
            .broker
            .record(s)
            .map(|r| r.is_up())
            .unwrap_or(false);
        if up {
            let _ = instance.broker.mark_down(ras_broker::UnavailabilityEvent {
                server: s,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(s),
                start: SimTime::from_hours(round),
                expected_end: None,
            });
        } else {
            let _ = instance.broker.mark_up(s, SimTime::from_hours(round));
        }
    }
}
