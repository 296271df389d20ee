//! Frozen, seeded workload generator.
//!
//! Everything the benchmark feeds the program is made here: the region,
//! the reservation portfolio, and the operation stream (spec resizes,
//! server failures and recoveries, container jobs). The stream is
//! generated up front and never looks at a solver output, so the program
//! only ever receives generated inputs.
//!
//! Two seeds go in. The workload's own `instance_seed` fixes everything
//! a solve can see: region, portfolio, resizes and failures. The run's
//! `--seed` draws what no solve can see: the burst of four-replica jobs
//! (placed and stopped again between rounds) and the maintenance drill
//! that evacuates the last of them.
//! Branch-and-bound is chaotic in its inputs — over 16 seeded drift
//! sequences of one portfolio the mean round time spread by 37 % and one
//! sequence ran a root LP past a 170 s timeout — so the rounds replay one
//! recorded instance per workload, and the work counters of a workload
//! repeat exactly from run to run. `--instance-seed` runs another one.
//!
//! The generator deliberately does not use `ras_bench::instance` or
//! `ras_sim::continuous::portfolio`. It does call the program's own
//! `RegionBuilder`, `RequestGenerator`, `StandardServices`,
//! `RruTable::uniform` and `shared_buffer_specs`, on the workload's own
//! region template; [`Inputs::hash`] covers what they returned, and a run
//! fails when it differs from the workload's recorded value.

use ras_broker::SimTime;
use ras_core::buffers::shared_buffer_specs;
use ras_core::cast::rounded_usize;
use ras_core::{ReservationKind, ReservationSpec};
use ras_topology::{Region, RegionBuilder, RegionTemplate};
use ras_workloads::{RequestGenerator, RequestGeneratorConfig, StandardServices};

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// FNV-1a over the canonical encoding of the inputs.
#[derive(Debug, Clone)]
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How the portfolio's demand relates to the region's supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Demand {
    /// Every capacity is capped so that a witness assignment exists with
    /// headroom: the hard model is feasible on every round.
    Satisfiable,
    /// No cap, and the least-flexible request is pushed past its
    /// MSB-loss-safe supply: the hard model is infeasible on every round.
    OverSubscribed,
    /// The two-spec uniform-RRU portfolio (web 2/3, feed 1/3).
    Uniform,
}

/// Size and shape of one workload's inputs.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Seeds the region, the portfolio and every operation a solve can
    /// see; picked per workload so that no round fails at the commit
    /// that recorded it.
    pub instance_seed: u64,
    pub template: RegionTemplate,
    /// Guaranteed request specs, headline services included.
    pub request_specs: usize,
    /// Fraction of fleet servers requested in total.
    pub utilization: f64,
    pub demand: Demand,
    /// Timed rounds of a run of the recorded length (round 0, the
    /// set-up, excluded), and the rounds [`Inputs::hash`] covers.
    pub rounds: usize,
    /// Fraction of guaranteed specs resized per round.
    pub resize_fraction: f64,
    /// Servers that fail per round (last round's failures recover).
    pub failures_per_round: usize,
    /// Four-replica jobs of the burst, from `--seed`.
    pub burst_jobs: usize,
    /// Servers drained after the burst to evacuate it, from `--seed`.
    pub drill_failures: usize,
}

/// What happens to the inputs before one round's solve.
#[derive(Debug, Clone, Default)]
pub struct RoundOps {
    /// `(spec index, new capacity)`.
    pub resizes: Vec<(usize, f64)>,
    /// Servers that come back up (last round's failures).
    pub recover: Vec<usize>,
    /// Servers that fail with an unplanned hardware fault.
    pub fail: Vec<usize>,
}

/// One four-replica job.
#[derive(Debug, Clone, Copy)]
pub struct JobOp {
    /// Index of the guaranteed spec the job runs in.
    pub spec: usize,
    /// 0 = small, 1 = cores-heavy, 2 = memory-heavy.
    pub shape: u8,
}

/// Replicas per burst job: `place_us` is one submit divided by this.
pub const REPLICAS: u32 = 4;

/// Replicas of the one small-container job every guaranteed reservation
/// runs from set-up on, so that some servers are in use while rounds run
/// (an in-use server is ten times dearer to move). One job of one shape
/// per reservation keeps a server's containers interchangeable: the
/// allocator evacuates a server in hash-map order, and only then does
/// that order not reach the next solve's inputs.
pub fn base_load_replicas(capacity: f64) -> u32 {
    (capacity / 8.0).clamp(1.0, 64.0) as u32
}

/// Everything one workload run consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub region: Region,
    pub specs: Vec<ReservationSpec>,
    /// Jobs can run in `specs[i]` iff `hosts_jobs[i]`.
    pub hosts_jobs: Vec<bool>,
    pub stream: Stream,
    /// Hash of everything a solve can see: region, specs and the first
    /// `shape.rounds` rounds of the stream. It depends on the shape alone,
    /// not on `--seed` or `--seconds`.
    pub hash: u64,
}

/// The operations applied to the system once it is set up.
#[derive(Debug, Clone)]
pub struct Stream {
    pub rounds: Vec<RoundOps>,
    pub burst: Vec<JobOp>,
    pub drill: Vec<usize>,
}

/// Margin between a `Satisfiable` capacity and what the witness proves
/// is available: covers the +10 % resizes, the failed servers and the
/// integer rounding of a per-MSB spread.
const WITNESS_MARGIN: f64 = 1.25;

/// Generates a workload's inputs from its shape, the number of timed
/// rounds the run makes and the run's seed.
pub fn generate(shape: &Shape, timed_rounds: usize, seed: u64) -> Inputs {
    let region = RegionBuilder::new(shape.template.clone(), shape.instance_seed).build();
    let mut rng = Rng::new(shape.instance_seed ^ 0x5EED_0E2E);
    let mut specs = match shape.demand {
        Demand::Uniform => uniform_portfolio(&region, shape.utilization),
        _ => figure4_portfolio(&region, shape),
    };
    match shape.demand {
        Demand::Satisfiable => cap_to_witness(&region, &mut specs),
        Demand::OverSubscribed => oversubscribe_one(&region, &mut specs),
        Demand::Uniform => {}
    }

    let guaranteed: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == ReservationKind::Guaranteed)
        .map(|(i, _)| i)
        .collect();
    let base: Vec<f64> = specs.iter().map(|s| s.capacity).collect();
    // Bigger reservations run more jobs: a job lands in a guaranteed
    // reservation with probability proportional to its capacity. One
    // whose hardware cannot outlive an MSB never holds a server, so it
    // runs none.
    let whole = Supply::of(&region);
    let job_weight: Vec<f64> = specs
        .iter()
        .map(|s| match s.kind {
            ReservationKind::Guaranteed if whole.loss_safe(s) > 0.0 => s.capacity,
            _ => 0.0,
        })
        .collect();
    let job_weights: f64 = job_weight.iter().sum();
    let job = |rng: &mut Rng| {
        let mut at = rng.unit() * job_weights;
        let mut spec = guaranteed[0];
        for (ri, w) in job_weight.iter().enumerate().filter(|(_, w)| **w > 0.0) {
            spec = ri;
            at -= w;
            if at < 0.0 {
                break;
            }
        }
        JobOp {
            spec,
            shape: rng.below(3) as u8,
        }
    };

    let resized =
        rounded_usize(guaranteed.len() as f64 * shape.resize_fraction).min(guaranteed.len());
    let mut down: Vec<usize> = Vec::new();
    // Rounds are drawn one after another, so a shorter run replays a
    // prefix of a longer one, and the hashed prefix is always there.
    let drawn = timed_rounds.max(shape.rounds);
    let mut rounds = Vec::with_capacity(drawn);
    for _ in 0..drawn {
        let mut ops = RoundOps {
            recover: std::mem::take(&mut down),
            ..RoundOps::default()
        };
        // Resizes are drawn against the *base* capacity, so a spec never
        // drifts outside ±10 % of what the witness was sized for.
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < resized {
            let ri = guaranteed[rng.below(guaranteed.len())];
            if picked.contains(&ri) {
                continue;
            }
            picked.push(ri);
            let factor = 0.9 + 0.2 * rng.unit();
            ops.resizes.push((ri, (base[ri] * factor).round()));
        }
        while ops.fail.len() < shape.failures_per_round {
            let s = rng.below(region.server_count());
            if !ops.fail.contains(&s) && !ops.recover.contains(&s) {
                ops.fail.push(s);
            }
        }
        down = ops.fail.clone();
        rounds.push(ops);
    }
    let hash = hash_inputs(&region, &specs, &rounds[..shape.rounds]);
    rounds.truncate(timed_rounds);
    let down: &[usize] = rounds.last().map_or(&[], |ops| &ops.fail);
    let mut after = Rng::new(seed);
    let burst: Vec<JobOp> = (0..shape.burst_jobs).map(|_| job(&mut after)).collect();
    let mut drill: Vec<usize> = Vec::new();
    while drill.len() < shape.drill_failures {
        let s = after.below(region.server_count());
        if !drill.contains(&s) && !down.contains(&s) {
            drill.push(s);
        }
    }

    Inputs {
        hosts_jobs: job_weight.iter().map(|w| *w > 0.0).collect(),
        region,
        specs,
        stream: Stream {
            rounds,
            burst,
            drill,
        },
        hash,
    }
}

/// Two guaranteed reservations valuing every hardware type at 1 RRU.
fn uniform_portfolio(region: &Region, utilization: f64) -> Vec<ReservationSpec> {
    let total = region.server_count() as f64 * utilization;
    let rru = ras_core::RruTable::uniform(&region.catalog, 1.0);
    vec![
        ReservationSpec::guaranteed("web", (total * 2.0 / 3.0).floor(), rru.clone()),
        ReservationSpec::guaranteed("feed", (total / 3.0).floor(), rru),
    ]
}

/// The realistic portfolio: four headline services sharing 40 % of the
/// demand, Figure-4 requests sharing the rest, and 2 % shared
/// random-failure buffers.
fn figure4_portfolio(region: &Region, shape: &Shape) -> Vec<ReservationSpec> {
    let total = region.server_count() as f64 * shape.utilization;
    let headline = [
        StandardServices::web(),
        StandardServices::feed1(),
        StandardServices::feed2(),
        StandardServices::datastore(),
    ];
    let n_headline = headline.len().min(shape.request_specs);
    let mut specs: Vec<ReservationSpec> = headline
        .iter()
        .take(n_headline)
        .map(|p| p.reservation(&region.catalog, (total * 0.4 / n_headline as f64).round()))
        .collect();

    let mut requests = RequestGenerator::new(RequestGeneratorConfig {
        seed: shape.instance_seed ^ 0xF164,
        ..RequestGeneratorConfig::default()
    });
    // Generated requests split the rest evenly: Figure 4 gives each its
    // hardware fungibility, the budget gives it its size.
    let generated = shape.request_specs - n_headline;
    let budget = (total * 0.6 / generated.max(1) as f64).max(4.0).round();
    for i in 0..generated {
        let request = requests.sample(&region.catalog, SimTime::ZERO);
        let mut spec = request.to_spec(&region.catalog, format!("svc{i}"));
        spec.capacity = budget;
        specs.push(spec);
    }
    specs.extend(shared_buffer_specs(region, 0.02));
    specs
}

/// RRUs of eligible supply per MSB, by hardware type, still unclaimed.
struct Supply {
    /// `free[msb][hardware]` in servers.
    free: Vec<Vec<f64>>,
}

impl Supply {
    fn of(region: &Region) -> Self {
        let mut free = vec![vec![0.0; region.catalog.len()]; region.msbs().len()];
        for s in region.servers() {
            free[s.msb.index()][s.hardware.index()] += 1.0;
        }
        Self { free }
    }

    /// RRUs the spec could still draw from each MSB.
    fn per_msb(&self, spec: &ReservationSpec) -> Vec<f64> {
        self.free
            .iter()
            .map(|row| {
                spec.rru
                    .iter_eligible()
                    .map(|(hw, v)| row[hw.index()] * v)
                    .sum()
            })
            .collect()
    }

    /// Most RRUs the whole of this supply can keep serving the spec
    /// through the loss of any one MSB.
    fn loss_safe(&self, spec: &ReservationSpec) -> f64 {
        let own = self.per_msb(spec);
        let top = own.iter().copied().fold(0.0, f64::max);
        carried(&own, top, spec.msb_buffer)
    }

    /// Claims `take[m]` RRUs in every MSB, proportionally over the
    /// spec's eligible hardware there.
    fn claim(&mut self, spec: &ReservationSpec, avail: &[f64], take: &[f64]) {
        for (m, row) in self.free.iter_mut().enumerate() {
            if avail[m] <= 0.0 {
                continue;
            }
            let keep = 1.0 - take[m] / avail[m];
            for (hw, _) in spec.rru.iter_eligible() {
                row[hw.index()] *= keep;
            }
        }
    }
}

/// Largest capacity `C` a per-MSB supply can carry through the loss of
/// any one MSB when each MSB gives at most `level`: `Σ min(a, level) −
/// level` (for a spec without the embedded buffer the `− level` goes).
fn carried(avail: &[f64], level: f64, buffered: bool) -> f64 {
    let total: f64 = avail.iter().map(|a| a.min(level)).sum();
    if buffered {
        total - level
    } else {
        total
    }
}

/// Shrinks capacities until a fractional witness assignment exists that
/// serves `WITNESS_MARGIN ×` every capacity at once. Specs claim supply
/// least-flexible first, each spread level across MSBs; no spec ends up
/// above 10 % of its own MSB-loss-safe eligible supply.
fn cap_to_witness(region: &Region, specs: &mut [ReservationSpec]) {
    let whole = Supply::of(region);
    let mut supply = Supply::of(region);
    let flexibility: Vec<f64> = specs
        .iter()
        .map(|s| whole.per_msb(s).iter().sum())
        .collect();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|a, b| flexibility[*a].total_cmp(&flexibility[*b]).then(a.cmp(b)));
    for ri in order {
        let spec = &mut specs[ri];
        let buffered = spec.msb_buffer;
        let avail = supply.per_msb(spec);
        let top = avail.iter().copied().fold(0.0, f64::max);
        let tenth = 0.1 * whole.loss_safe(spec);
        let reachable = carried(&avail, top, buffered) / WITNESS_MARGIN;
        // A request whose hardware sits in a single MSB cannot survive
        // that MSB's loss at any size: it ends up with capacity 0.
        if spec.kind == ReservationKind::Guaranteed {
            spec.capacity = spec.capacity.min(tenth).min(reachable).floor();
        } else {
            spec.capacity = spec.capacity.min(reachable).floor();
        }
        // Lowest level that carries the margin-inflated capacity.
        let want = spec.capacity * WITNESS_MARGIN;
        let (mut lo, mut hi) = (0.0, top);
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if carried(&avail, mid, buffered) >= want {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let take: Vec<f64> = avail.iter().map(|a| a.min(hi)).collect();
        supply.claim(spec, &avail, &take);
    }
}

/// Pushes the guaranteed request with the least eligible supply 20 % past
/// what that supply can carry through an MSB loss.
fn oversubscribe_one(region: &Region, specs: &mut [ReservationSpec]) {
    let whole = Supply::of(region);
    let safe = |s: &ReservationSpec| whole.loss_safe(s);
    let tightest = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == ReservationKind::Guaranteed)
        .min_by(|a, b| safe(a.1).total_cmp(&safe(b.1)).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i);
    if let Some(ri) = tightest {
        specs[ri].capacity = specs[ri].capacity.max((safe(&specs[ri]) * 1.2).ceil());
    }
}

fn hash_inputs(region: &Region, specs: &[ReservationSpec], rounds: &[RoundOps]) -> u64 {
    let mut h = Hasher::new();
    h.u64(region.server_count() as u64);
    for s in region.servers() {
        h.u64(s.hardware.index() as u64);
        h.u64(s.rack.index() as u64);
        h.u64(s.msb.index() as u64);
        h.u64(s.datacenter.index() as u64);
    }
    h.u64(specs.len() as u64);
    for spec in specs {
        h.bytes(spec.name.as_bytes());
        h.u64(spec.kind as u64);
        h.f64(spec.capacity);
        for hw in region.catalog.iter() {
            h.f64(spec.rru.value(hw.id));
        }
        h.f64(spec.spread.msb_share.unwrap_or(-1.0));
        h.f64(spec.spread.rack_share.unwrap_or(-1.0));
        h.u64(u64::from(spec.msb_buffer));
    }
    h.u64(rounds.len() as u64);
    for ops in rounds {
        for (ri, c) in &ops.resizes {
            h.u64(*ri as u64);
            h.f64(*c);
        }
        for s in ops.recover.iter().chain(&ops.fail) {
            h.u64(*s as u64);
        }
    }
    h.finish()
}
