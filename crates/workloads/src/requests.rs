//! Capacity-request generator (paper Section 2.4, Figure 4).
//!
//! Requests vary from 1 to >10 000 capacity units with most between a few
//! hundred and a few thousand, and their hardware fungibility is bimodal:
//! many requests accept exactly one type (the newest generation), a large
//! mode accepts ~8 types, and a small tail accepts 10–12. Arrivals follow
//! a diurnal/weekday pattern ("spikes align with working hours",
//! Section 4.6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_broker::SimTime;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_topology::{HardwareCatalog, HardwareTypeId, ProcessorGeneration};

/// One generated capacity request.
#[derive(Debug, Clone)]
pub struct CapacityRequest {
    /// Requested capacity in units (1 unit ≈ 1 server, Figure 4).
    pub units: f64,
    /// Hardware types that can fulfill the request.
    pub acceptable: Vec<HardwareTypeId>,
    /// Submission time.
    pub at: SimTime,
}

impl CapacityRequest {
    /// Number of acceptable hardware types (Figure 4's x-axis).
    pub fn fungibility(&self) -> usize {
        self.acceptable.len()
    }

    /// Materializes the request as a count-based reservation spec.
    pub fn to_spec(&self, catalog: &HardwareCatalog, name: impl Into<String>) -> ReservationSpec {
        let mut rru = RruTable::empty(catalog);
        for hw in &self.acceptable {
            rru.set(*hw, 1.0);
        }
        ReservationSpec::guaranteed(name, self.units, rru)
    }
}

/// Mean requests per working hour (paper: thousands per day).
const MEAN_PER_WORKING_HOUR: f64 = 40.0;

/// Largest request size (the paper's Web/Feed requests near 30 000).
const MAX_UNITS: f64 = 30_000.0;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct RequestGeneratorConfig {
    /// RNG seed.
    pub seed: u64,
}

impl Default for RequestGeneratorConfig {
    fn default() -> Self {
        Self { seed: 0xF164 }
    }
}

/// Deterministic request generator.
#[derive(Debug)]
pub struct RequestGenerator {
    rng: StdRng,
}

impl RequestGenerator {
    /// Creates a generator.
    pub fn new(config: RequestGeneratorConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    /// Samples one request submitted at `at`.
    pub fn sample(&mut self, catalog: &HardwareCatalog, at: SimTime) -> CapacityRequest {
        let units = self.sample_units();
        let acceptable = self.sample_acceptable(catalog, units);
        CapacityRequest {
            units,
            acceptable,
            at,
        }
    }

    /// Log-normal-ish size: log10(units) uniform-mixed with a bulge at
    /// a few hundred to a few thousand units.
    fn sample_units(&mut self) -> f64 {
        let r: f64 = self.rng.gen();
        let log10 = if r < 0.10 {
            // Small requests: 1–30 units.
            self.rng.gen::<f64>() * 1.5
        } else if r < 0.85 {
            // The bulk: a few hundred to a few thousand.
            2.0 + self.rng.gen::<f64>() * 1.5
        } else if r < 0.98 {
            // Large: thousands to ten thousand.
            3.5 + self.rng.gen::<f64>() * 0.5
        } else {
            // Very large Web/Feed-scale requests.
            4.0 + self.rng.gen::<f64>() * 0.48
        };
        10f64.powf(log10).clamp(1.0, MAX_UNITS).round()
    }

    /// Bimodal fungibility: newest-generation-only (mode at 1), flexible
    /// (~8 types), or anything-goes (10–12 types).
    fn sample_acceptable(&mut self, catalog: &HardwareCatalog, _units: f64) -> Vec<HardwareTypeId> {
        let r: f64 = self.rng.gen();
        let mut newest: Vec<HardwareTypeId> = catalog
            .of_generation(ProcessorGeneration::Gen3)
            .into_iter()
            .filter(|id| !catalog.get(*id).has_accelerator())
            .collect();
        if newest.is_empty() {
            newest = catalog.iter().map(|t| t.id).take(1).collect();
        }
        if r < 0.35 {
            // Latest generation only.
            vec![newest[self.rng.gen_range(0..newest.len())]]
        } else if r < 0.85 {
            // One or two processor generations, memory-size agnostic: take
            // every non-accelerator type of gen II + III (≈8 types).
            catalog
                .iter()
                .filter(|t| !t.has_accelerator() && t.generation != ProcessorGeneration::Gen1)
                .map(|t| t.id)
                .collect()
        } else {
            // Any generation and configuration (10–12 types).
            catalog
                .iter()
                .filter(|t| !t.has_accelerator())
                .map(|t| t.id)
                .collect()
        }
    }

    /// Expected number of requests in the hour starting at `at`,
    /// following the working-hours pattern (weekday 9–18 busy, nights and
    /// weekends quiet — the shape behind Figure 16's spikes).
    pub fn arrival_rate(&self, at: SimTime) -> f64 {
        let hour = at.hour_of_day();
        let weekday = at.day_of_week() < 5;
        let base = MEAN_PER_WORKING_HOUR;
        match (weekday, hour) {
            (true, 9..=17) => base,
            (true, 7..=8) | (true, 18..=20) => base * 0.4,
            (true, _) => base * 0.08,
            (false, 9..=17) => base * 0.15,
            (false, _) => base * 0.05,
        }
    }

    /// Samples a Poisson-distributed count with the given mean (Knuth).
    pub fn sample_count(&mut self, mean: f64) -> usize {
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
            if k > 10_000 {
                return k; // Guard against pathological means.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> (RequestGenerator, HardwareCatalog) {
        (
            RequestGenerator::new(RequestGeneratorConfig::default()),
            HardwareCatalog::standard(),
        )
    }

    #[test]
    fn sizes_span_figure_4_range() {
        let (mut gen, catalog) = generator();
        let sizes: Vec<f64> = (0..2000)
            .map(|_| gen.sample(&catalog, SimTime::ZERO).units)
            .collect();
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(min <= 30.0, "small requests exist (min {min})");
        assert!(max >= 10_000.0, "very large requests exist (max {max})");
        // Majority between a few hundred and a few thousand.
        let bulk = sizes
            .iter()
            .filter(|s| (100.0..=10_000.0).contains(*s))
            .count();
        assert!(bulk as f64 > 0.6 * sizes.len() as f64);
    }

    #[test]
    fn fungibility_is_bimodal() {
        let (mut gen, catalog) = generator();
        let mut hist = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let f = gen.sample(&catalog, SimTime::ZERO).fungibility();
            *hist.entry(f).or_insert(0usize) += 1;
        }
        let ones = hist.get(&1).copied().unwrap_or(0);
        assert!(ones > 400, "mode at fungibility 1, got {ones}");
        // A second mode well above 1 (around 8 types).
        let (mode, _) = hist
            .iter()
            .filter(|(k, _)| **k > 2)
            .max_by_key(|(_, v)| **v)
            .unwrap();
        assert!((6..=9).contains(mode), "flexible mode near 8, got {mode}");
        // A small tail accepting 10+ types.
        let tail: usize = hist.iter().filter(|(k, _)| **k >= 10).map(|(_, v)| v).sum();
        assert!(tail > 0 && tail < ones);
    }

    #[test]
    fn working_hours_dominate_arrivals() {
        let (gen, _) = generator();
        let monday_noon = SimTime::from_hours(12);
        let monday_night = SimTime::from_hours(3);
        let saturday_noon = SimTime::from_days(5).plus_hours(12);
        assert!(gen.arrival_rate(monday_noon) > 4.0 * gen.arrival_rate(monday_night));
        assert!(gen.arrival_rate(monday_noon) > 4.0 * gen.arrival_rate(saturday_noon));
    }

    #[test]
    fn determinism_under_seed() {
        let catalog = HardwareCatalog::standard();
        let mut a = RequestGenerator::new(RequestGeneratorConfig::default());
        let mut b = RequestGenerator::new(RequestGeneratorConfig::default());
        for _ in 0..50 {
            let ra = a.sample(&catalog, SimTime::ZERO);
            let rb = b.sample(&catalog, SimTime::ZERO);
            assert_eq!(ra.units, rb.units);
            assert_eq!(ra.acceptable, rb.acceptable);
        }
    }

    #[test]
    fn poisson_sampler_mean_is_roughly_right() {
        let (mut gen, _) = generator();
        let n = 2000;
        let total: usize = (0..n).map(|_| gen.sample_count(3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.3, "mean {mean}");
        assert_eq!(gen.sample_count(0.0), 0);
    }

    #[test]
    fn request_to_spec_roundtrip() {
        let (mut gen, catalog) = generator();
        let req = gen.sample(&catalog, SimTime::from_hours(1));
        let spec = req.to_spec(&catalog, "svc");
        assert_eq!(spec.capacity, req.units);
        assert_eq!(spec.rru.eligible_count(), req.fungibility());
    }
}
