//! POP-style sharded region solves (after "Solving Large-Scale Granular
//! Resource Allocation Problems Efficiently with POP").
//!
//! The monolithic region MIP cannot reach the paper's 10⁵–10⁶-server
//! scale on one thread. This module partitions the region into `k`
//! near-independent subproblems along the fault-domain tree — each shard
//! is a set of *whole MSB subtrees* — which the
//! [`AsyncSolver`](crate::solver::AsyncSolver) solves concurrently on
//! worker threads (each shard's phase-1 root starting from the running
//! plan, as a one-shard round's does) and recombines with a cheap
//! merge/reconcile pass. This
//! module holds the math of both ends: the partition, the capacity split
//! and its feasibility screen, the reconcile pass, the regional
//! evaluator and the folds of the per-shard statistics.
//!
//! Why whole MSBs? Every intra-MSB structure of the model (per-MSB usage
//! expressions, the `max_msb` buffer variable, rack groups) is then
//! shard-local by construction, so a shard's solution never depends on
//! another shard's variables. The only shared resources are reservation
//! *capacities*, which [`shard_specs`] splits proportionally to each
//! shard's static eligible supply, and the correlated-failure buffer,
//! which sharding strictly over-provisions:
//!
//! > each shard `i` enforces `totalᵢ − max_msbᵢ ≥ capᵢ`; summing gives
//! > `total − Σᵢ max_msbᵢ ≥ Cr`, and since MSBs never straddle shards the
//! > regional max-MSB usage is `maxᵢ max_msbᵢ ≤ Σᵢ max_msbᵢ`, so the
//! > merged plan satisfies the regional `total − max_msb ≥ Cr` outright.
//!
//! The reconcile pass then *releases* that surplus — newly-acquired
//! free-pool servers are returned while the regional capacity constraint
//! keeps holding — which strictly improves the objective (an acquisition
//! costs [`ASSIGNMENT_COST`] and inflates buffer/spread terms; releasing a
//! free server incurs no movement cost). The merged plan is valued with
//! [`evaluate_targets`], an exact re-implementation of the phase-1
//! objective, and must land within [`sharded_tolerance`] of the
//! monolithic objective (asserted by tests and the `fig_scale` bench).

use ras_broker::{BrokerSnapshot, ReservationId, ServerRecord};
use ras_topology::{MsbId, Region, ServerId};

use crate::classes::{unplanned_unavailable, EquivClass};
use crate::model::solver_visible;
use crate::params::{SolverParams, ASSIGNMENT_COST, BUFFER_COST, SPREAD_PENALTY};
use crate::reservation::ReservationSpec;
use crate::session::WarmReport;
use crate::stats::PhaseStats;
use ras_milp::nan;
use ras_milp::nan::NanGuard;
use ras_milp::tol;

/// One shard: a set of whole MSB subtrees solved as an independent
/// subproblem.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Position in the plan.
    pub index: usize,
    /// Member MSBs (whole subtrees; racks and rows never straddle shards).
    pub msbs: Vec<MsbId>,
    /// Every server under the member MSBs, in ascending id order: the
    /// scope the shard's round solves in.
    pub(crate) servers: Vec<ServerId>,
}

/// A region partition for sharded solving.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shards, in datacenter-contiguous order.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Partitions the region into (at most) `k` shards of whole MSBs.
    ///
    /// MSBs are walked in `(datacenter, id)` order and packed into
    /// contiguous chunks of roughly equal server count, so shards align
    /// with datacenters as far as the arithmetic allows. Every server
    /// lands in exactly one shard. `k` is clamped to the MSB count (a
    /// shard must own at least one whole MSB).
    // lint:allow(hot-path-index): per-shard vectors are allocated to k immediately above
    pub fn build(region: &Region, k: usize) -> Self {
        let k = k.clamp(1, region.msbs().len().max(1));
        let mut msb_sizes = vec![0usize; region.msbs().len()];
        for server in region.servers() {
            msb_sizes[server.msb.index()] += 1;
        }
        let mut order: Vec<MsbId> = region.msbs().iter().map(|m| m.id).collect();
        order.sort_by_key(|m| (region.msb(*m).datacenter.index(), m.index()));

        let total: usize = msb_sizes.iter().sum();
        let mut shards: Vec<Shard> = Vec::with_capacity(k);
        let mut cursor = 0usize;
        let mut remaining = total;
        for index in 0..k {
            let shards_left = k - index;
            // Leave at least one MSB for every remaining shard.
            let max_take = order.len() - cursor - (shards_left - 1);
            let goal = remaining.div_ceil(shards_left);
            let mut msbs = Vec::new();
            let mut size = 0usize;
            while cursor < order.len() && msbs.len() < max_take && (msbs.is_empty() || size < goal)
            {
                let m = order[cursor];
                msbs.push(m);
                size += msb_sizes[m.index()];
                cursor += 1;
            }
            remaining -= size;
            let mut member = vec![false; region.msbs().len()];
            for m in &msbs {
                member[m.index()] = true;
            }
            let servers = region
                .servers()
                .iter()
                .filter(|s| member[s.msb.index()])
                .map(|s| s.id)
                .collect();
            shards.push(Shard {
                index,
                msbs,
                servers,
            });
        }
        Self { shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for the degenerate single-shard plan.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Per-shard, per-spec *static* eligible RRU supply (availability is
/// ignored so the numbers — and everything derived from them — stay
/// byte-identical across rounds of fleet churn).
///
/// Returns `(raw, bufferable)`: `raw[s][r]` is the shard's total eligible
/// supply for spec `r`; `bufferable[s][r]` subtracts the shard's largest
/// single-MSB supply — the most the shard can contribute to a capacity
/// constraint that must survive the loss of its own worst MSB. A
/// single-MSB shard has bufferable supply 0 by construction.
// lint:allow(hot-path-index): k x n_res matrices allocated at entry; msb_of maps into them
fn shard_supplies(
    region: &Region,
    specs: &[ReservationSpec],
    plan: &ShardPlan,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n_msb = region.msbs().len();
    let mut msb_supply = vec![vec![0.0f64; specs.len()]; n_msb];
    for server in region.servers() {
        for (ri, spec) in specs.iter().enumerate() {
            msb_supply[server.msb.index()][ri] += spec.rru.value(server.hardware);
        }
    }
    let k = plan.shards.len();
    let mut raw = vec![vec![0.0f64; specs.len()]; k];
    let mut bufferable = vec![vec![0.0f64; specs.len()]; k];
    for shard in &plan.shards {
        for ri in 0..specs.len() {
            let mut total = 0.0f64;
            let mut largest = 0.0f64;
            for m in &shard.msbs {
                let v = msb_supply[m.index()][ri];
                total += v;
                largest = largest.max(v);
            }
            raw[shard.index][ri] = total;
            bufferable[shard.index][ri] = total - largest;
        }
    }
    (raw, bufferable)
}

/// Splits each spec's capacity across the shards of a plan.
///
/// The split is proportional to each shard's *static* eligible RRU supply
/// (`shard_supplies`) — static so the per-shard specs, and therefore
/// the cached per-shard model skeletons, stay byte-identical across
/// rounds of fleet churn. For buffer-carrying specs the weight is the
/// shard's *bufferable* supply (supply minus its largest member MSB): a
/// shard enforces `total − max_msb ≥ cap` locally, so that is the most
/// it can actually contribute — in particular a single-MSB shard gets
/// capacity 0 instead of an unsatisfiable slice. Shares of one spec sum
/// to exactly its regional capacity: the last weighted shard absorbs the
/// floating-point residue.
// lint:allow(hot-path-index): weights/out are k-sized, built in this function
pub fn shard_specs(
    region: &Region,
    specs: &[ReservationSpec],
    plan: &ShardPlan,
) -> Vec<Vec<ReservationSpec>> {
    let k = plan.shards.len();
    let (raw, bufferable) = shard_supplies(region, specs, plan);
    let mut out: Vec<Vec<ReservationSpec>> = (0..k).map(|_| specs.to_vec()).collect();
    for (ri, spec) in specs.iter().enumerate() {
        // Non-finite capacity is left unsplit: `∞·w/total` and the
        // `∞ − ∞` remainder would poison the slices with NaN. Each
        // shard keeps the full spec and its model audit rejects it.
        if !solver_visible(spec) || spec.capacity <= 0.0 || !spec.capacity.is_finite() {
            continue;
        }
        let weights: Vec<f64> =
            if spec.survives_msb_loss() && (0..k).any(|si| bufferable[si][ri] > 0.0) {
                (0..k).map(|si| bufferable[si][ri]).collect()
            } else {
                (0..k).map(|si| raw[si][ri]).collect()
            };
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            continue;
        }
        let last_weighted = (0..k).rev().find(|si| weights[*si] > 0.0);
        let mut assigned = 0.0;
        for si in 0..k {
            let cap = if Some(si) == last_weighted {
                (spec.capacity - assigned).nmax(0.0)
            } else {
                spec.capacity * weights[si] / total
            };
            assigned += cap;
            out[si][ri].capacity = cap;
        }
    }
    out
}

/// True when every shard of the plan can plausibly carry its capacity
/// slice: a shard spreading a buffered spec evenly over its `m` MSBs
/// needs at least `cap·m/(m−1)` RRUs of supply (`total − max_msb ≥ cap`
/// with `max_msb ≥ total/m`), an unbuffered spec needs `cap`, and the
/// summed requirement across specs must fit the shard's static supply.
/// This is a necessary condition, not a full feasibility proof — the
/// shard MIP still softens genuine edge cases — but it rejects the
/// partitions that are infeasible *by construction* (too many shards for
/// the fleet's buffering head-room), which is what drives the automatic
/// shard-count reduction in [`supported_plan`].
// lint:allow(hot-path-index): per-MSB accumulators sized to the region MSB count
fn plan_supports(
    specs: &[ReservationSpec],
    plan: &ShardPlan,
    split: &[Vec<ReservationSpec>],
    raw: &[Vec<f64>],
) -> bool {
    for shard in &plan.shards {
        let m = shard.msbs.len() as f64;
        let mut required = 0.0f64;
        let mut available = f64::INFINITY;
        for (ri, spec) in specs.iter().enumerate() {
            let cap = split[shard.index][ri].capacity;
            if !solver_visible(spec) || cap <= tol::EPS {
                continue;
            }
            if spec.survives_msb_loss() {
                if shard.msbs.len() < 2 {
                    return false;
                }
                required += cap * m / (m - 1.0);
            } else {
                required += cap;
            }
            available = available.min(raw[shard.index][ri]);
        }
        if required > 0.0 && required > available + tol::PRIMAL_FEAS {
            return false;
        }
    }
    true
}

/// The partition a round solves on: the largest `k' ≤ k` (with
/// `k' ≥ 2`) whose plan every shard can carry ([`plan_supports`]), with
/// each shard's capacity slices. `None` when no such plan exists — a
/// small region or a high utilization — and the round runs as one shard
/// over the whole region (always feasible).
pub(crate) fn supported_plan(
    region: &Region,
    specs: &[ReservationSpec],
    k: usize,
) -> Option<(ShardPlan, Vec<Vec<ReservationSpec>>)> {
    (2..=k).rev().find_map(|k_try| {
        let plan = ShardPlan::build(region, k_try);
        if plan.shards.len() != k_try {
            return None;
        }
        let split = shard_specs(region, specs, &plan);
        let (raw, _) = shard_supplies(region, specs, &plan);
        plan_supports(specs, &plan, &split, &raw).then_some((plan, split))
    })
}

/// A target assignment valued with the exact monolithic phase-1
/// objective (movement + stability + acquisition + MSB spread + buffer).
#[derive(Debug, Clone, Default)]
pub struct PlanScore {
    /// The phase-1 objective this plan scores in the regional model.
    pub objective: f64,
    /// Per-reservation RRU shortfall against the (buffered) capacity
    /// constraint — all zeros on a feasible plan.
    pub capacity_shortfall: Vec<f64>,
    /// Per-reservation maximum single-MSB RRU usage (the correlated-
    /// failure exposure the buffer covers).
    pub max_msb_rru: Vec<f64>,
}

impl PlanScore {
    /// True when every capacity constraint is met (within `eps` RRUs).
    pub fn capacity_feasible(&self, eps: f64) -> bool {
        self.capacity_shortfall.iter().all(|s| *s <= eps)
    }
}

/// Values a full per-server target assignment with the phase-1 objective,
/// mirroring `build_model` term by term: movement (`Ms`, refunded for
/// stays the model can express), the follow-through stability bonus, the
/// epsilon acquisition cost, the MSB spread penalty `β·max(0, usage −
/// αF·Cr)`, and the buffer cost `τ·max_msb` for buffered specs. Servers
/// unavailable for unplanned reasons are outside the model and are
/// skipped. Datacenter affinity is a hard constraint, not an objective
/// term, so it does not contribute here.
///
/// This is the common yardstick for sharded-vs-monolithic comparisons:
/// both plans are valued by this one function, so differences measure
/// plan quality and nothing else.
// lint:allow(hot-path-index): per-reservation/per-MSB arrays sized together at entry
pub fn evaluate_targets(
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    targets: &[Option<ReservationId>],
) -> PlanScore {
    let n_msb = region.msbs().len();
    let mut objective = 0.0;
    let mut total = vec![0.0f64; specs.len()];
    let mut by_msb = vec![vec![0.0f64; n_msb]; specs.len()];
    let assignable = |r: ReservationId, hw| {
        specs
            .get(r.index())
            .is_some_and(|spec| solver_visible(spec) && spec.rru.eligible(hw))
    };

    for server in region.servers() {
        let record = snapshot.record(server.id);
        if unplanned_unavailable(record) {
            continue;
        }
        let t = targets[server.id.index()];
        let m = if record.running_containers > 0 {
            params.move_cost_in_use
        } else {
            params.move_cost_unused
        };
        if let Some(cur) = record.current {
            // Expression 1: staying put refunds the movement constant,
            // but only when the model can express the stay (visible spec,
            // eligible hardware) — exactly like the class formulation.
            let stays = t == Some(cur) && assignable(cur, server.hardware);
            if !stays {
                objective += m;
            }
        }
        if let Some(planned) = record.target {
            if record.target != record.current
                && t == Some(planned)
                && assignable(planned, server.hardware)
            {
                objective -= params.stability_bonus;
            }
        }
        if let Some(r) = t {
            if assignable(r, server.hardware) {
                objective += ASSIGNMENT_COST;
                let v = specs[r.index()].rru.value(server.hardware);
                total[r.index()] += v;
                by_msb[r.index()][server.msb.index()] += v;
            }
        }
    }

    let mut capacity_shortfall = vec![0.0; specs.len()];
    let mut max_msb_rru = vec![0.0; specs.len()];
    for (ri, spec) in specs.iter().enumerate() {
        if !solver_visible(spec) {
            continue;
        }
        let max_msb = by_msb[ri].iter().copied().fold(0.0, nan::fmax);
        max_msb_rru[ri] = max_msb;
        let effective = if spec.survives_msb_loss() {
            objective += BUFFER_COST * max_msb;
            total[ri] - max_msb
        } else {
            total[ri]
        };
        if spec.capacity > 0.0 {
            capacity_shortfall[ri] = (spec.capacity - effective).nmax(0.0);
            if let Some(alpha_f) = spec.spread.msb_share {
                let limit = alpha_f * spec.capacity;
                for usage in &by_msb[ri] {
                    objective += SPREAD_PENALTY * (usage - limit).nmax(0.0);
                }
            }
        }
    }
    PlanScore {
        objective,
        capacity_shortfall,
        max_msb_rru,
    }
}

/// Documented objective tolerance of the sharded solve against the
/// monolithic solve of the same input: each of the `k` subproblem MIPs
/// stops within `mip_abs_gap` of its own optimum, and the capacity split
/// plus per-shard buffering leave a small structural gap the reconcile
/// pass cannot always recover. Tests and `fig_scale` assert
/// `|sharded − monolithic| ≤ sharded_tolerance(...)` with both sides
/// valued by [`evaluate_targets`].
pub fn sharded_tolerance(k: usize, params: &SolverParams, mono_objective: f64) -> f64 {
    k as f64 * params.mip_abs_gap + 0.05 * mono_objective.abs()
}

/// What the merge/reconcile pass did after the shard solves landed.
#[derive(Debug, Clone, Default)]
pub struct ReconcileReport {
    /// Newly-acquired free-pool servers released back (surplus from
    /// per-shard over-buffering).
    pub released: usize,
    /// RRUs those releases returned to the free pool.
    pub released_rru: f64,
    /// Wall-clock seconds of merge + reconcile + final valuation.
    pub merge_seconds: f64,
}

/// What reconcile reads of a server: whether a round could assign it
/// at all, and whether it is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Standing {
    /// Down for an unplanned reason: outside every class.
    Unavailable,
    /// Assignable and bound to a reservation.
    Bound,
    /// Assignable and bound to none: a release candidate when targeted.
    Free,
}

impl Standing {
    /// The standing `record` gives its server.
    pub(crate) fn of(record: &ServerRecord) -> Self {
        if unplanned_unavailable(record) {
            Standing::Unavailable
        } else if record.current.is_some() {
            Standing::Bound
        } else {
            Standing::Free
        }
    }
}

/// Every server's [`Standing`] from the classes of reductions whose
/// scopes cover the region of `servers` servers: a class member is
/// assignable and bound as its class is, and a server in no class is
/// down (the class builder leaves out exactly those).
// lint:allow(hot-path-index): class members are servers of the region, one entry each
pub(crate) fn standings<'a>(
    servers: usize,
    classes: impl IntoIterator<Item = &'a EquivClass>,
) -> Vec<Standing> {
    let mut standing = vec![Standing::Unavailable; servers];
    for class in classes {
        let s = if class.current.is_some() {
            Standing::Bound
        } else {
            Standing::Free
        };
        for member in &class.servers {
            standing[member.index()] = s;
        }
    }
    standing
}

/// Releases surplus acquisitions from a merged sharded plan.
///
/// Candidates are servers the round newly acquired from the free pool
/// (`target == Some(r)`, [`Standing::Free`]): releasing one undoes an
/// [`ASSIGNMENT_COST`] and shrinks buffer/spread terms without incurring
/// any movement cost, so every release strictly improves the objective.
/// A release is committed only while the regional (buffered) capacity
/// constraint keeps holding, preferring candidates inside the current
/// maximum-usage MSB so the buffer shrinks alongside the total.
///
/// One walk over the region sums every reservation's RRUs, by MSB, and
/// stacks its candidates, each reservation's terms in server id order,
/// reading each server's [`Standing`] (indexed by `ServerId`) where the
/// per-reservation walks this replaced read its record; each reservation
/// then releases from its own stacks. A round costs one walk whatever
/// the number of reservations.
// lint:allow(hot-path-index): per-reservation holdings and per-MSB stacks sized at entry
pub(crate) fn reconcile(
    region: &Region,
    specs: &[ReservationSpec],
    standing: &[Standing],
    targets: &mut [Option<ReservationId>],
) -> (usize, f64) {
    /// One reservation's RRUs under the plan: in total, by MSB, and its
    /// release candidates by MSB.
    struct Holdings {
        total: f64,
        by_msb: Vec<f64>,
        candidates: Vec<Vec<(ServerId, f64)>>,
    }
    let n_msb = region.msbs().len();
    let mut held: Vec<Option<Holdings>> = specs
        .iter()
        .map(|spec| {
            (solver_visible(spec) && spec.capacity > 0.0).then(|| Holdings {
                total: 0.0,
                by_msb: vec![0.0; n_msb],
                candidates: vec![Vec::new(); n_msb],
            })
        })
        .collect();
    let walk = region.servers().iter().zip(targets.iter()).zip(standing);
    for ((server, target), standing) in walk {
        let Some(r) = target else {
            continue;
        };
        let Some(Some(h)) = held.get_mut(r.index()) else {
            continue;
        };
        let spec = &specs[r.index()];
        if *standing == Standing::Unavailable || !spec.rru.eligible(server.hardware) {
            continue;
        }
        let v = spec.rru.value(server.hardware);
        h.total += v;
        h.by_msb[server.msb.index()] += v;
        if *standing == Standing::Free {
            // Per-MSB candidate stacks, largest RRU on top once sorted
            // (fewer, bigger releases converge faster).
            h.candidates[server.msb.index()].push((server.id, v));
        }
    }

    let mut released = 0usize;
    let mut released_rru = 0.0f64;
    for (spec, h) in specs.iter().zip(held) {
        let Some(Holdings {
            mut total,
            mut by_msb,
            mut candidates,
        }) = h
        else {
            continue;
        };
        for stack in &mut candidates {
            stack.sort_by(|a, b| a.1.total_cmp(&b.1));
        }

        let buffered = spec.survives_msb_loss();
        let feasible = |total: f64, max_msb: f64| {
            let effective = if buffered { total - max_msb } else { total };
            effective >= spec.capacity - tol::EPS
        };
        loop {
            // MSBs by usage, heaviest first: releasing from the max MSB
            // shrinks the buffer together with the total.
            let mut order: Vec<usize> = (0..n_msb).collect();
            order.sort_by(|a, b| by_msb[*b].total_cmp(&by_msb[*a]));
            let mut committed = false;
            for mi in order {
                let Some(&(s, v)) = candidates[mi].last() else {
                    continue;
                };
                let new_total = total - v;
                let old = by_msb[mi];
                by_msb[mi] = old - v;
                let new_max = by_msb.iter().copied().fold(0.0, nan::fmax);
                if feasible(new_total, new_max) {
                    candidates[mi].pop();
                    total = new_total;
                    targets[s.index()] = None;
                    released += 1;
                    released_rru += v;
                    committed = true;
                    break;
                }
                by_msb[mi] = old;
            }
            if !committed {
                break;
            }
        }
    }
    (released, released_rru)
}

/// Per-shard view of one sharded round.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard position in the plan.
    pub shard: usize,
    /// Servers in the shard's universe.
    pub servers: usize,
    /// Capacity slice per reservation this shard solved for.
    pub capacity: Vec<f64>,
    /// The shard's phase-1 statistics (real, per-shard solver output —
    /// audit certification lives in `phase1.mip_stats.audit`).
    pub phase1: PhaseStats,
    /// The shard's phase-2 statistics, when its refinement ran.
    pub phase2: Option<PhaseStats>,
    /// The shard's warm-start account.
    pub warm: WarmReport,
}

/// Everything a sharded round did beyond the merged targets.
#[derive(Debug, Clone, Default)]
pub struct ShardedReport {
    /// Per-shard solve reports, two or more.
    pub shards: Vec<ShardReport>,
    /// Merge/reconcile accounting.
    pub reconcile: ReconcileReport,
    /// The merged plan's regional score from [`evaluate_targets`].
    pub score: PlanScore,
}

/// Folds per-shard warm reports into one round-level view: the flags
/// AND across shards (the round is only as warm as its coldest shard).
pub(crate) fn aggregate_warm(shards: &[ShardReport]) -> WarmReport {
    let all = |f: fn(&WarmReport) -> bool| shards.iter().all(|s| f(&s.warm));
    WarmReport {
        dual_resolve: all(|w| w.dual_resolve),
        incumbent_seeded: all(|w| w.incumbent_seeded),
        ..WarmReport::default()
    }
}

/// Synthesizes the round-level phase-1 statistics from the shard solves:
/// wall-clock totals take the parallel critical path (max across shards),
/// size and work counters sum, the status is `Optimal` only when every
/// shard proved optimal, and the objective is the merged plan's regional
/// score (comparable with a monolithic phase-1 objective). The
/// aggregate's `mip_stats.audit` folds every shard's phase-1 and phase-2
/// certificate ([`AuditReport::absorb`](ras_milp::AuditReport::absorb)):
/// the round is certified only if every solve in it was. Per-shard raw
/// statistics stay available in [`ShardedReport::shards`]; the
/// aggregate's `gap` and `best_bound` are left at their defaults.
pub(crate) fn aggregate_phase1(
    shards: &[ShardReport],
    objective: f64,
    wall_seconds: f64,
) -> PhaseStats {
    let fmax = |f: fn(&PhaseStats) -> f64| {
        shards
            .iter()
            .map(|s| f(&s.phase1) + s.phase2.as_ref().map_or(0.0, f))
            .fold(0.0, nan::fmax)
    };
    // `SolveStats::absorb` and `AuditReport::absorb` own the per-field
    // rules; only the seeding flag is this level's call: it ANDs over
    // phase 1.
    let mut mip_stats = ras_milp::SolveStats::default();
    let mut audit: Option<ras_milp::AuditReport> = None;
    let mut reduction = crate::aggregate::ReductionStats::default();
    for s in shards {
        for p in std::iter::once(&s.phase1).chain(s.phase2.as_ref()) {
            mip_stats.absorb(&p.mip_stats);
            match &mut audit {
                Some(audit) => audit.absorb(&p.mip_stats.audit),
                None => audit = Some(p.mip_stats.audit.clone()),
            }
        }
        reduction.absorb(&s.phase1.reduction);
    }
    mip_stats.audit = audit.unwrap_or_default();
    mip_stats.incumbent_seeded = shards.iter().all(|s| s.phase1.mip_stats.incumbent_seeded);
    PhaseStats {
        ras_build_seconds: fmax(|p| p.ras_build_seconds),
        solver_build_seconds: fmax(|p| p.solver_build_seconds),
        initial_state_seconds: fmax(|p| p.initial_state_seconds),
        mip_seconds: fmax(|p| p.mip_seconds),
        total_seconds: wall_seconds,
        assignment_vars: shards.iter().map(|s| s.phase1.assignment_vars).sum(),
        classes: shards.iter().map(|s| s.phase1.classes).sum(),
        memory_bytes: shards.iter().map(|s| s.phase1.memory_bytes).sum(),
        mip_stats,
        softened: shards
            .iter()
            .flat_map(|s| s.phase1.softened.iter().cloned())
            .collect(),
        status: if shards
            .iter()
            .all(|s| s.phase1.status == ras_milp::Status::Optimal)
        {
            ras_milp::Status::Optimal
        } else {
            ras_milp::Status::Feasible
        },
        objective,
        reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};
    use std::collections::HashSet;

    fn region() -> Region {
        RegionBuilder::new(RegionTemplate::tiny(), 42).build()
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    #[test]
    fn plan_partitions_every_server_into_whole_msbs() {
        let region = region();
        for k in [1, 2, 3, 4, 6] {
            let plan = ShardPlan::build(&region, k);
            assert_eq!(plan.len(), k.min(region.msbs().len()));
            let mut seen = HashSet::new();
            for shard in &plan.shards {
                assert!(!shard.msbs.is_empty(), "shard {} owns no MSB", shard.index);
                assert!(shard.servers.windows(2).all(|w| w[0] < w[1]));
                for s in &shard.servers {
                    assert!(seen.insert(*s), "server in two shards");
                    assert!(shard.msbs.contains(&region.server(*s).msb));
                }
            }
            assert_eq!(seen.len(), region.server_count(), "k={k} must cover fleet");
        }
    }

    #[test]
    fn plan_clamps_k_to_msb_count() {
        let region = region();
        let plan = ShardPlan::build(&region, 1000);
        assert_eq!(plan.len(), region.msbs().len());
    }

    #[test]
    fn capacity_split_sums_exactly_and_follows_supply() {
        let region = region();
        let specs = vec![
            uniform_spec(&region, "web", 120.0),
            uniform_spec(&region, "feed", 60.0),
        ];
        let plan = ShardPlan::build(&region, 3);
        let split = shard_specs(&region, &specs, &plan);
        for (ri, spec) in specs.iter().enumerate() {
            let total: f64 = split.iter().map(|s| s[ri].capacity).sum();
            assert!(
                (total - spec.capacity).abs() < 1e-9,
                "{}: split sums to {total}",
                spec.name
            );
            for shard in &split {
                assert!(shard[ri].capacity >= 0.0);
                // Non-capacity fields stay intact (skeleton stability).
                assert_eq!(shard[ri].name, spec.name);
                assert_eq!(shard[ri].msb_buffer, spec.msb_buffer);
            }
        }
    }

    #[test]
    fn evaluator_scores_empty_and_assigned_plans_sanely() {
        let region = region();
        let specs = vec![uniform_spec(&region, "web", 30.0)];
        let broker = ResourceBroker::new(region.server_count());
        let snap = broker.snapshot(SimTime::ZERO);
        let params = SolverParams::default();

        let empty: Vec<Option<ReservationId>> = vec![None; region.server_count()];
        let score = evaluate_targets(&region, &specs, &snap, &params, &empty);
        assert_eq!(score.objective, 0.0, "empty plan costs nothing");
        assert!(score.capacity_shortfall[0] > 0.0, "and satisfies nothing");

        // A real solve's plan must be feasible and strictly cheaper than
        // an arbitrary all-in-one-MSB plan of the same size.
        let outcome = crate::solver::AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snap)
            .expect("solve");
        let solved = evaluate_targets(&region, &specs, &snap, &params, &outcome.targets);
        assert!(solved.capacity_feasible(1e-6));
        // Phase 2 may have refined the merged targets, so allow a small
        // drift against the reported phase-1 objective.
        assert!(
            (solved.objective - outcome.phase1.objective).abs()
                <= 0.05 * outcome.phase1.objective.abs() + 2.0,
            "evaluator {} vs phase-1 report {}",
            solved.objective,
            outcome.phase1.objective
        );
    }

    #[test]
    fn reconcile_releases_only_surplus_and_keeps_feasibility() {
        let region = region();
        let specs = vec![uniform_spec(&region, "web", 20.0)];
        let broker = ResourceBroker::new(region.server_count());
        let snap = broker.snapshot(SimTime::ZERO);
        // Grossly over-assign: every server to the reservation.
        let mut targets: Vec<Option<ReservationId>> =
            vec![Some(ReservationId::from_index(0)); region.server_count()];
        let standing: Vec<Standing> = snap.records.iter().map(Standing::of).collect();
        let (released, rru) = reconcile(&region, &specs, &standing, &mut targets);
        assert!(released > 0, "surplus must be released");
        assert!(rru > 0.0);
        let score = evaluate_targets(&region, &specs, &snap, &SolverParams::default(), &targets);
        assert!(
            score.capacity_feasible(1e-6),
            "{:?}",
            score.capacity_shortfall
        );
    }

    /// A `SolveStats` whose every field is a distinct multiple of `n`, so
    /// decimal digits show which inputs reached which output field.
    fn solve_stats(n: usize, flags: [bool; 4]) -> ras_milp::SolveStats {
        let f = n as f64;
        ras_milp::SolveStats {
            nodes: n,
            simplex_iterations: 2 * n,
            phase1_iterations: 3 * n,
            dual_iterations: 4 * n,
            used_dual_simplex: flags[0],
            root_phase1_iterations: 5 * n,
            root_used_dual_simplex: flags[1],
            lp_refactorizations: 6 * n,
            basis_updates: 7 * n,
            spike_entries: 14 * n,
            refactors_interval: 8 * n,
            refactors_growth: 9 * n,
            refactors_accuracy: 10 * n,
            pricing_candidate_hits: 11 * n,
            pricing_full_rebuilds: 12 * n,
            discarded_iterations: 19 * n,
            discarded_refactorizations: 20 * n,
            root_discarded_seconds: 5.5 * f,
            solve_seconds: 0.125 * f,
            best_bound: 7.0 * f,
            absolute_gap: 0.5 * f,
            gap: 0.25 * f,
            hit_limit: flags[2],
            setup_seconds: 1.5 * f,
            root_lp_seconds: 2.5 * f,
            mip_seconds: 3.5 * f,
            dive_seconds: 4.5 * f,
            incumbent_seeded: flags[3],
            nodes_pruned_by_seed: 13 * n,
            nodes_solved_ahead: 15 * n,
            lp_solves_discarded: 16 * n,
            dive_lps: 17 * n,
            held_installs: 18 * n,
            audit: audit_report(n, n != 10),
        }
    }

    /// An `AuditReport` that ran every check, its one flagged finding and
    /// its `max_*` fields distinct multiples of `n`; the dual certificate
    /// checked as `dual_certified` says.
    fn audit_report(n: usize, dual_certified: bool) -> ras_milp::AuditReport {
        let f = n as f64;
        ras_milp::AuditReport {
            model_checked: true,
            certified: true,
            dual_certified,
            issues: vec![audit_issue(&format!("n{n}"))],
            violations: Vec::new(),
            max_primal_residual: 0.5 * f,
            max_bound_violation: 0.25 * f,
            max_integrality_violation: 0.125 * f,
            max_dual_violation: 2.0 * f,
            max_complementarity_violation: 4.0 * f,
        }
    }

    fn audit_issue(subject: &str) -> ras_milp::AuditIssue {
        ras_milp::AuditIssue {
            check: ras_milp::AuditCheck::TinyCoefficient,
            severity: ras_milp::Severity::Flag,
            subject: subject.into(),
            detail: String::new(),
        }
    }

    /// The sharded round's phase-1 aggregate, field for field: counters
    /// sum over every shard's phase 1 and phase 2, flags OR, seconds take
    /// the slowest shard, the seeding flag ANDs over phase 1 only,
    /// size accounting sums over phase 1 only, and `best_bound`, `gap`,
    /// the per-step seconds of `mip_stats` stay at their defaults, and its
    /// `audit` ANDs the checks, concatenates the findings in shard order
    /// and takes each `max_*` from the largest. Expected values, but for
    /// `audit`, recorded from the hand-written merge this replaced
    /// (63e5252).
    #[test]
    fn aggregate_phase1_merges_shards_field_for_field() {
        use crate::aggregate::ReductionStats;
        use ras_milp::Status;
        let reduction = |n: usize| ReductionStats {
            servers: 100 * n,
            servers_excluded: n,
            classes: 5 * n,
        };
        // Shard A: phase 1 (n = 1) and a phase 2 (n = 10); shard B:
        // phase 1 only (n = 100).
        let a1 = PhaseStats {
            ras_build_seconds: 0.5,
            solver_build_seconds: 0.25,
            initial_state_seconds: 1.0,
            mip_seconds: 8.0,
            total_seconds: 9.0,
            assignment_vars: 20,
            classes: 5,
            memory_bytes: 1000,
            mip_stats: solve_stats(1, [false, false, false, true]),
            softened: vec!["cap[web]".into()],
            status: Status::Optimal,
            objective: 1.0,
            reduction: reduction(1),
        };
        let a2 = PhaseStats {
            ras_build_seconds: 4.0,
            solver_build_seconds: 0.25,
            initial_state_seconds: 2.0,
            mip_seconds: 0.0,
            total_seconds: 9.0,
            assignment_vars: 7,
            classes: 3,
            memory_bytes: 10,
            mip_stats: solve_stats(10, [true, false, false, false]),
            softened: vec!["rackspread[web][k3]".into()],
            status: Status::Feasible,
            objective: 2.0,
            reduction: reduction(10),
        };
        let b1 = PhaseStats {
            ras_build_seconds: 3.0,
            solver_build_seconds: 1.0,
            initial_state_seconds: 2.5,
            mip_seconds: 7.0,
            total_seconds: 9.0,
            assignment_vars: 30,
            classes: 6,
            memory_bytes: 2000,
            mip_stats: solve_stats(100, [false, true, false, false]),
            softened: vec!["cap[feed]".into()],
            status: Status::Optimal,
            objective: 3.0,
            reduction: reduction(100),
        };
        let shard = |shard, phase1, phase2| ShardReport {
            shard,
            servers: 0,
            capacity: Vec::new(),
            phase1,
            phase2,
            warm: WarmReport::default(),
        };
        let shards = [shard(0, a1, Some(a2)), shard(1, b1, None)];

        let expected = PhaseStats {
            ras_build_seconds: 4.5,
            solver_build_seconds: 1.0,
            initial_state_seconds: 3.0,
            mip_seconds: 8.0,
            total_seconds: 0.75,
            assignment_vars: 50,
            classes: 11,
            memory_bytes: 3000,
            mip_stats: ras_milp::SolveStats {
                nodes: 111,
                simplex_iterations: 222,
                phase1_iterations: 333,
                dual_iterations: 444,
                used_dual_simplex: true,
                root_phase1_iterations: 555,
                root_used_dual_simplex: true,
                lp_refactorizations: 666,
                basis_updates: 777,
                spike_entries: 1554,
                refactors_interval: 888,
                refactors_growth: 999,
                refactors_accuracy: 1110,
                pricing_candidate_hits: 1221,
                pricing_full_rebuilds: 1332,
                discarded_iterations: 2109,
                discarded_refactorizations: 2220,
                root_discarded_seconds: 610.5,
                solve_seconds: 12.5,
                absolute_gap: 55.5,
                hit_limit: false,
                incumbent_seeded: false,
                nodes_pruned_by_seed: 1443,
                nodes_solved_ahead: 1665,
                lp_solves_discarded: 1776,
                dive_lps: 1887,
                held_installs: 1998,
                audit: ras_milp::AuditReport {
                    issues: ["n1", "n10", "n100"].map(audit_issue).to_vec(),
                    ..audit_report(100, false)
                },
                ..ras_milp::SolveStats::default()
            },
            softened: vec!["cap[web]".into(), "cap[feed]".into()],
            status: Status::Optimal,
            objective: 123.5,
            reduction: ReductionStats {
                servers: 10_100,
                servers_excluded: 101,
                classes: 505,
            },
        };
        let got = aggregate_phase1(&shards, 123.5, 0.75);
        assert_eq!(format!("{got:#?}"), format!("{expected:#?}"));
    }

    /// A sharded round is certified clean exactly when every shard's
    /// solves are: two clean shards make a clean aggregate, and one
    /// certificate violation in either makes it not.
    #[test]
    fn aggregate_phase1_certifies_only_what_every_shard_certified() {
        let phase = |audit: ras_milp::AuditReport| PhaseStats {
            mip_stats: ras_milp::SolveStats {
                audit,
                ..ras_milp::SolveStats::default()
            },
            ..PhaseStats::default()
        };
        let clean = ras_milp::AuditReport {
            model_checked: true,
            certified: true,
            dual_certified: true,
            ..ras_milp::AuditReport::default()
        };
        let shard = |shard, audit: &ras_milp::AuditReport| ShardReport {
            shard,
            servers: 0,
            capacity: Vec::new(),
            phase1: phase(audit.clone()),
            phase2: Some(phase(clean.clone())),
            warm: WarmReport::default(),
        };
        let audit = |shards: &[ShardReport]| aggregate_phase1(shards, 0.0, 0.0).mip_stats.audit;
        let both_clean = [shard(0, &clean), shard(1, &clean)];
        assert!(audit(&both_clean).certified_clean());
        let mut violated = clean.clone();
        violated.violations.push(audit_issue("row 3"));
        for k in 0..2 {
            let mut shards = both_clean.clone();
            shards[k].phase1.mip_stats.audit = violated.clone();
            let got = audit(&shards);
            assert!(!got.certified_clean(), "shard {k} violated");
            assert_eq!(got.violations, violated.violations, "shard {k} violated");
        }
    }
}
