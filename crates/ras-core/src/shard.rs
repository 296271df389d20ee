//! POP-style sharded region solves (after "Solving Large-Scale Granular
//! Resource Allocation Problems Efficiently with POP").
//!
//! The monolithic region MIP cannot reach the paper's 10⁵–10⁶-server
//! scale on one thread. This module partitions the region into `k`
//! near-independent subproblems along the fault-domain tree — each shard
//! is a set of *whole MSB subtrees* — solves them concurrently on worker
//! threads (each shard owns its own warm [`SolveSession`], so continuous
//! rounds stay warm per shard), and recombines the per-shard plans with a
//! cheap merge/reconcile pass.
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
//! costs `assignment_cost` and inflates buffer/spread terms; releasing a
//! free server incurs no movement cost). The merged plan is valued with
//! [`evaluate_targets`], an exact re-implementation of the phase-1
//! objective, and must land within [`sharded_tolerance`] of the
//! monolithic objective (asserted by tests and the `fig_scale` bench).

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId, UnavailabilityKind};
use ras_topology::{MsbId, Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::model::solver_visible;
use crate::params::SolverParams;
use crate::phases::TwoPhaseOutcome;
use crate::reservation::ReservationSpec;
use crate::session::{SolveSession, WarmReport};
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
    /// Every server under the member MSBs, in ascending id order.
    servers: Vec<ServerId>,
    /// The same servers as a mask indexed by `ServerId` (one entry per
    /// server of the region), the scope the shard's session solves in.
    mask: Vec<bool>,
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
            let mask: Vec<bool> = region
                .servers()
                .iter()
                .map(|s| member[s.msb.index()])
                .collect();
            let servers = region
                .servers()
                .iter()
                .filter(|s| mask[s.id.index()])
                .map(|s| s.id)
                .collect();
            shards.push(Shard {
                index,
                msbs,
                servers,
                mask,
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
/// shard-count reduction in [`ShardedSession`].
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

/// A target assignment valued with the exact monolithic phase-1
/// objective (movement + stability + acquisition + MSB spread + buffer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
        if let Some(event) = &record.unavailability {
            if event.kind != UnavailabilityKind::PlannedMaintenance {
                continue;
            }
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
                objective += params.assignment_cost;
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
            objective += params.buffer_cost * max_msb;
            total[ri] - max_msb
        } else {
            total[ri]
        };
        if spec.capacity > 0.0 {
            capacity_shortfall[ri] = (spec.capacity - effective).nmax(0.0);
            if let Some(alpha_f) = spec.spread.msb_share {
                let limit = alpha_f * spec.capacity;
                for usage in &by_msb[ri] {
                    objective += params.spread_penalty * (usage - limit).nmax(0.0);
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// Newly-acquired free-pool servers released back (surplus from
    /// per-shard over-buffering).
    pub released: usize,
    /// RRUs those releases returned to the free pool.
    pub released_rru: f64,
    /// Wall-clock seconds of merge + reconcile + final valuation.
    pub merge_seconds: f64,
}

/// Releases surplus acquisitions from a merged sharded plan.
///
/// Candidates are servers the round newly acquired from the free pool
/// (`target == Some(r)`, `current == None`): releasing one undoes an
/// `assignment_cost` and shrinks buffer/spread terms without incurring
/// any movement cost, so every release strictly improves the objective.
/// A release is committed only while the regional (buffered) capacity
/// constraint keeps holding, preferring candidates inside the current
/// maximum-usage MSB so the buffer shrinks alongside the total.
// lint:allow(hot-path-index): per-MSB candidate stacks sized to n_msb at entry
fn reconcile(
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    targets: &mut [Option<ReservationId>],
) -> (usize, f64) {
    let n_msb = region.msbs().len();
    let mut released = 0usize;
    let mut released_rru = 0.0f64;
    for (ri, spec) in specs.iter().enumerate() {
        if !solver_visible(spec) || spec.capacity <= 0.0 {
            continue;
        }
        let res = ReservationId::from_index(ri);
        let mut total = 0.0f64;
        let mut by_msb = vec![0.0f64; n_msb];
        // Per-MSB candidate stacks, largest RRU on top (fewer, bigger
        // releases converge faster).
        let mut candidates: Vec<Vec<(ServerId, f64)>> = vec![Vec::new(); n_msb];
        for server in region.servers() {
            let record = snapshot.record(server.id);
            if let Some(event) = &record.unavailability {
                if event.kind != UnavailabilityKind::PlannedMaintenance {
                    continue;
                }
            }
            if targets[server.id.index()] != Some(res) || !spec.rru.eligible(server.hardware) {
                continue;
            }
            let v = spec.rru.value(server.hardware);
            total += v;
            by_msb[server.msb.index()] += v;
            if record.current.is_none() {
                candidates[server.msb.index()].push((server.id, v));
            }
        }
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
    /// The shard session's warm-start account.
    pub warm: WarmReport,
}

/// Everything a sharded round did beyond the merged targets.
#[derive(Debug, Clone, Default)]
pub struct ShardedReport {
    /// Per-shard solve reports (a single entry = monolithic delegation).
    pub shards: Vec<ShardReport>,
    /// Merge/reconcile accounting (default for monolithic delegation).
    pub reconcile: ReconcileReport,
    /// The merged plan's regional score from [`evaluate_targets`].
    pub score: PlanScore,
    /// Aggregate warm-start view across shards (AND for the reuse flags,
    /// sums for the counters).
    pub warm: WarmReport,
}

/// A continuous solve session over a sharded region.
///
/// With `params.shards <= 1` this is a thin wrapper around one
/// [`SolveSession`] (byte-for-byte the monolithic behavior). With
/// `k > 1` it owns `k` warm sessions, one per shard, and each
/// [`solve_round`](Self::solve_round):
///
/// 1. solves every shard concurrently under `std::thread::scope`, each
///    restricted to its server universe and its capacity slice;
/// 2. merges the per-shard targets (disjoint universes — no conflicts);
/// 3. reconciles: releases surplus acquisitions while the regional
///    buffered capacity constraint keeps holding;
/// 4. values the merged plan with [`evaluate_targets`] and reports it as
///    the round's phase-1 objective.
///
/// Failure recovery matches [`SolveSession`]: any shard failing
/// invalidates *every* shard session (and the round numbering) and
/// surfaces [`CoreError::SessionInvalidated`]; the next round runs cold.
#[derive(Debug, Clone, Default)]
pub struct ShardedSession {
    k: usize,
    region_fingerprint: (usize, usize),
    plan: Option<ShardPlan>,
    specs_key: Vec<ReservationSpec>,
    shard_specs: Vec<Vec<ReservationSpec>>,
    sessions: Vec<SolveSession>,
    rounds: usize,
}

impl ShardedSession {
    /// Creates an empty session; the first round is cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True when any shard can warm-start its next round.
    pub fn is_warm(&self) -> bool {
        self.sessions.iter().any(|s| s.is_warm())
    }

    /// Drops every shard's cached state; the next round solves cold.
    pub fn reset(&mut self) {
        for s in &mut self.sessions {
            s.reset();
        }
    }

    /// The current shard plan (absent before the first sharded round).
    pub fn plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// Re-partitions when the shard count, region, or specs changed.
    ///
    /// The requested `k` is an upper bound: the effective shard count is
    /// the largest `k' ≤ k` whose partition every shard can support (see
    /// [`plan_supports`]) — small regions or high utilization reduce it,
    /// down to 1 in the limit (monolithic, always feasible). When the
    /// re-derived partition is identical to the current one, the warm
    /// per-shard sessions are kept.
    fn ensure_plan(&mut self, region: &Region, specs: &[ReservationSpec], k: usize) {
        let fingerprint = (region.server_count(), region.msbs().len());
        if self.k == k
            && self.region_fingerprint == fingerprint
            && self.specs_key.as_slice() == specs
            && self.plan.is_some()
        {
            return;
        }
        let mut chosen: Option<(ShardPlan, Vec<Vec<ReservationSpec>>)> = None;
        for k_try in (2..=k.min(region.msbs().len().max(1))).rev() {
            let plan = ShardPlan::build(region, k_try);
            if plan.shards.len() != k_try {
                continue;
            }
            let split = shard_specs(region, specs, &plan);
            let (raw, _) = shard_supplies(region, specs, &plan);
            if plan_supports(specs, &plan, &split, &raw) {
                chosen = Some((plan, split));
                break;
            }
        }
        let (plan, split) = chosen.unwrap_or_else(|| {
            let plan = ShardPlan::build(region, 1);
            let split = shard_specs(region, specs, &plan);
            (plan, split)
        });
        let same_partition = self.plan.as_ref().is_some_and(|old| {
            old.shards.len() == plan.shards.len()
                && old
                    .shards
                    .iter()
                    .zip(&plan.shards)
                    .all(|(a, b)| a.msbs == b.msbs)
        });
        if !same_partition {
            self.sessions = vec![SolveSession::new(); plan.shards.len()];
            self.rounds = 0;
        }
        self.k = k;
        self.region_fingerprint = fingerprint;
        self.plan = Some(plan);
        self.shard_specs = split;
        self.specs_key = specs.to_vec();
    }

    /// Runs one sharded continuous round. See the type docs for the
    /// lifecycle and [`SolveSession::solve_round_scoped`] for the
    /// failure-recovery contract.
    // lint:allow(hot-path-index): shard results vector sized to plan.shards.len()
    pub fn solve_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
    ) -> Result<(TwoPhaseOutcome, ShardedReport), CoreError> {
        let k = params.shards.max(1).min(region.msbs().len().max(1));
        if k <= 1 {
            // Monolithic delegation: one full-universe session, untouched
            // semantics.
            if self.sessions.len() != 1 || self.k != 1 {
                self.k = 1;
                self.plan = None;
                self.sessions = vec![SolveSession::new()];
                self.rounds = 0;
            }
            let round = self.rounds;
            let (outcome, warm) =
                match self.sessions[0].solve_round(region, specs, snapshot, params) {
                    Ok(v) => v,
                    Err(e) => {
                        self.rounds = 0;
                        return Err(e);
                    }
                };
            self.rounds = round + 1;
            let report = ShardedReport {
                shards: vec![ShardReport {
                    shard: 0,
                    servers: region.server_count(),
                    capacity: specs.iter().map(|s| s.capacity).collect(),
                    phase1: outcome.phase1.clone(),
                    phase2: outcome.phase2.clone(),
                    warm: warm.clone(),
                }],
                reconcile: ReconcileReport::default(),
                score: PlanScore::default(),
                warm,
            };
            return Ok((outcome, report));
        }

        let round_start = Instant::now();
        // Sample the recovery-contract state BEFORE re-planning: a spec
        // or shard-count change may rebuild the partition (dropping warm
        // state), and a failure in that very round must still tell the
        // caller the session it entered warm was invalidated.
        let warm_at_entry = self.rounds > 0 || self.is_warm();
        let round = self.rounds;
        self.ensure_plan(region, specs, k);
        let mut shard_params = params.clone();
        shard_params.shards = 1;

        let Self {
            plan,
            shard_specs,
            sessions,
            ..
        } = self;
        let Some(plan) = plan.as_ref() else {
            return Err(CoreError::Solver("shard plan missing after ensure".into()));
        };

        let results: Vec<Result<(TwoPhaseOutcome, WarmReport), CoreError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter_mut()
                    .zip(plan.shards.iter())
                    .zip(shard_specs.iter())
                    .map(|((session, shard), sspecs)| {
                        let p = &shard_params;
                        scope.spawn(move || {
                            session.solve_round_scoped(
                                region,
                                sspecs,
                                snapshot,
                                p,
                                Some(&shard.mask),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(CoreError::Solver("shard worker thread panicked".into()))
                        })
                    })
                    .collect()
            });

        if results.iter().any(|r| r.is_err()) {
            // One failed shard invalidates the whole sharded session: the
            // survivors' warm caches describe capacity slices the next
            // (possibly re-planned) round may not reproduce.
            for s in &mut self.sessions {
                s.invalidate();
            }
            self.rounds = 0;
            let cause = results
                .into_iter()
                .find_map(|r| r.err())
                .unwrap_or_else(|| CoreError::Solver("shard round failed".into()));
            // Unwrap nested invalidation wrappers from the failing shard;
            // this level owns the caller-facing contract.
            let cause = match cause {
                CoreError::SessionInvalidated { cause, .. } => *cause,
                other => other,
            };
            return Err(if warm_at_entry {
                CoreError::SessionInvalidated {
                    round,
                    cause: Box::new(cause),
                }
            } else {
                cause
            });
        }
        let outcomes: Vec<(TwoPhaseOutcome, WarmReport)> =
            results.into_iter().filter_map(|r| r.ok()).collect();

        // Merge: every shard rules over its own (disjoint) universe;
        // servers outside every universe keep their current binding.
        let merge_start = Instant::now();
        let mut targets: Vec<Option<ReservationId>> =
            snapshot.records.iter().map(|r| r.current).collect();
        for (shard, (outcome, _)) in plan.shards.iter().zip(&outcomes) {
            for s in &shard.servers {
                targets[s.index()] = outcome.targets[s.index()];
            }
        }
        let (released, released_rru) = reconcile(region, specs, snapshot, &mut targets);
        let score = evaluate_targets(region, specs, snapshot, params, &targets);
        let reconcile_report = ReconcileReport {
            released,
            released_rru,
            merge_seconds: merge_start.elapsed().as_secs_f64(),
        };

        let shard_reports: Vec<ShardReport> = plan
            .shards
            .iter()
            .zip(&outcomes)
            .zip(shard_specs.iter())
            .map(|((shard, (outcome, warm)), sspecs)| ShardReport {
                shard: shard.index,
                servers: shard.servers.len(),
                capacity: sspecs.iter().map(|s| s.capacity).collect(),
                phase1: outcome.phase1.clone(),
                phase2: outcome.phase2.clone(),
                warm: warm.clone(),
            })
            .collect();
        let warm = aggregate_warm(round, &shard_reports);
        let phase1 = aggregate_phase1(
            &shard_reports,
            score.objective,
            round_start.elapsed().as_secs_f64(),
        );

        self.rounds = round + 1;
        Ok((
            TwoPhaseOutcome {
                targets,
                phase1,
                phase2: None,
            },
            ShardedReport {
                shards: shard_reports,
                reconcile: reconcile_report,
                score,
                warm,
            },
        ))
    }
}

/// Folds per-shard warm reports into one session-level view: the flags
/// AND across shards (the round is only as warm as its coldest shard),
/// `basis_remapped` and `ratchet_checked` OR, and the ratchet gap sums.
fn aggregate_warm(round: usize, shards: &[ShardReport]) -> WarmReport {
    let all = |f: fn(&WarmReport) -> bool| shards.iter().all(|s| f(&s.warm));
    let any = |f: fn(&WarmReport) -> bool| shards.iter().any(|s| f(&s.warm));
    WarmReport {
        round,
        model_reused: all(|w| w.model_reused),
        warm_basis_supplied: all(|w| w.warm_basis_supplied),
        basis_remapped: any(|w| w.basis_remapped),
        warm_basis_accepted: all(|w| w.warm_basis_accepted),
        bounds_only_patch: all(|w| w.bounds_only_patch),
        dual_resolve: all(|w| w.dual_resolve),
        incumbent_seeded: all(|w| w.incumbent_seeded),
        seed_supplied: all(|w| w.seed_supplied),
        phase2_skipped: all(|w| w.phase2_skipped),
        ratchet_checked: any(|w| w.ratchet_checked),
        ratchet_gap: shards.iter().map(|s| s.warm.ratchet_gap).sum(),
        // The round's ratchet holds only if every shard that checked one
        // passed; shards that skipped theirs this round don't vote.
        ratchet_ok: all(|w| !w.ratchet_checked || w.ratchet_ok),
    }
}

/// Synthesizes the round-level phase-1 statistics from the shard solves:
/// wall-clock totals take the parallel critical path (max across shards),
/// size and work counters sum, the status is `Optimal` only when every
/// shard proved optimal, and the objective is the merged plan's regional
/// score (comparable with a monolithic phase-1 objective). Per-shard raw
/// statistics — including audit certificates — stay available in
/// [`ShardedReport::shards`]; the aggregate's `mip_stats.audit` is
/// deliberately left default (it certifies nothing itself), and so are
/// its `gap` and `best_bound`.
fn aggregate_phase1(shards: &[ShardReport], objective: f64, wall_seconds: f64) -> PhaseStats {
    let fmax = |f: fn(&PhaseStats) -> f64| {
        shards
            .iter()
            .map(|s| f(&s.phase1) + s.phase2.as_ref().map_or(0.0, f))
            .fold(0.0, nan::fmax)
    };
    // `SolveStats::absorb` owns the per-counter rules; only the two
    // acceptance flags are this level's call: they AND over phase 1.
    let mut mip_stats = ras_milp::SolveStats::default();
    let mut reduction = crate::aggregate::ReductionStats::default();
    let mut disagg = crate::aggregate::DisaggStats::default();
    for s in shards {
        for p in std::iter::once(&s.phase1).chain(s.phase2.as_ref()) {
            mip_stats.absorb(&p.mip_stats);
        }
        reduction.absorb(&s.phase1.reduction);
        disagg.absorb(&s.phase1.disagg);
    }
    mip_stats.warm_basis_accepted = shards
        .iter()
        .all(|s| s.phase1.mip_stats.warm_basis_accepted);
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
        disagg,
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
                let masked: Vec<ServerId> = (0..region.server_count())
                    .filter(|i| shard.mask[*i])
                    .map(ServerId::from_index)
                    .collect();
                assert_eq!(masked, shard.servers, "mask and member list agree");
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
        let outcome =
            crate::phases::solve_two_phase(&region, &specs, &snap, &params).expect("solve");
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
    fn sharded_round_is_feasible_and_audited() {
        let region = region();
        let specs = vec![
            uniform_spec(&region, "web", 80.0),
            uniform_spec(&region, "feed", 40.0),
        ];
        let mut broker = ResourceBroker::new(region.server_count());
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let snap = broker.snapshot(SimTime::ZERO);
        let params = SolverParams {
            shards: 3,
            audit: crate::AuditMode::On,
            ..SolverParams::default()
        };

        let mut session = ShardedSession::new();
        let (outcome, report) = session
            .solve_round(&region, &specs, &snap, &params)
            .expect("sharded solve");
        assert_eq!(report.shards.len(), 3);
        for shard in &report.shards {
            assert!(
                shard.phase1.mip_stats.audit.certified_clean(),
                "shard {} not certified",
                shard.shard
            );
        }
        let score = evaluate_targets(&region, &specs, &snap, &params, &outcome.targets);
        assert!(
            score.capacity_feasible(1e-6),
            "merged plan infeasible: {:?}",
            score.capacity_shortfall
        );
        assert_eq!(outcome.phase1.classes, {
            let s: usize = report.shards.iter().map(|s| s.phase1.classes).sum();
            s
        });
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
        let (released, rru) = reconcile(&region, &specs, &snap, &mut targets);
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
    fn solve_stats(n: usize, flags: [bool; 5]) -> ras_milp::SolveStats {
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
            solve_seconds: 0.125 * f,
            best_bound: 7.0 * f,
            absolute_gap: 0.5 * f,
            gap: 0.25 * f,
            hit_limit: flags[2],
            setup_seconds: 1.5 * f,
            root_lp_seconds: 2.5 * f,
            mip_seconds: 3.5 * f,
            dive_seconds: 4.5 * f,
            warm_basis_accepted: flags[3],
            incumbent_seeded: flags[4],
            nodes_pruned_by_seed: 13 * n,
            nodes_solved_ahead: 15 * n,
            lp_solves_discarded: 16 * n,
            audit: crate::AuditReport {
                certified: true,
                ..crate::AuditReport::default()
            },
        }
    }

    /// The sharded round's phase-1 aggregate, field for field: counters
    /// sum over every shard's phase 1 and phase 2, flags OR, seconds take
    /// the slowest shard, the two acceptance flags AND over phase 1 only,
    /// size accounting sums over phase 1 only, and `best_bound`, `gap`,
    /// the per-step seconds and `audit` of `mip_stats` stay at their
    /// defaults. Expected values recorded from the hand-written merge
    /// this replaced (63e5252), which had no `disagg` to sum: that summed
    /// in `aggregate_warm`.
    #[test]
    fn aggregate_phase1_merges_shards_field_for_field() {
        use crate::aggregate::{AggregationLevel, DisaggStats, ReductionStats};
        use ras_milp::Status;
        let reduction = |n: usize, level| ReductionStats {
            level,
            servers: 100 * n,
            servers_excluded: n,
            classes: 5 * n,
            full_specs: 4 * n,
            reduced_specs: 2 * n,
            spec_clusters: n,
            vars_full: 40 * n,
            vars_reduced: 20 * n,
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
            mip_stats: solve_stats(1, [false, false, false, true, true]),
            softened: vec!["cap[web]".into()],
            status: Status::Optimal,
            objective: 1.0,
            reduction: reduction(1, AggregationLevel::Classes),
            disagg: DisaggStats {
                repair_moves: 1,
                stays_honored: 2,
                topup_units: 3,
                shortfall_rru: 0.5,
            },
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
            mip_stats: solve_stats(10, [true, false, false, false, false]),
            softened: vec!["rackspread[web][k3]".into()],
            status: Status::Feasible,
            objective: 2.0,
            reduction: reduction(10, AggregationLevel::Classes),
            disagg: DisaggStats::default(),
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
            mip_stats: solve_stats(100, [false, true, false, true, false]),
            softened: vec!["cap[feed]".into()],
            status: Status::Optimal,
            objective: 3.0,
            reduction: reduction(100, AggregationLevel::Clusters),
            disagg: DisaggStats {
                repair_moves: 10,
                stays_honored: 20,
                topup_units: 30,
                shortfall_rru: 1.5,
            },
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
                solve_seconds: 12.5,
                absolute_gap: 55.5,
                hit_limit: false,
                warm_basis_accepted: true,
                incumbent_seeded: false,
                nodes_pruned_by_seed: 1443,
                nodes_solved_ahead: 1665,
                lp_solves_discarded: 1776,
                ..ras_milp::SolveStats::default()
            },
            softened: vec!["cap[web]".into(), "cap[feed]".into()],
            status: Status::Optimal,
            objective: 123.5,
            reduction: ReductionStats {
                level: AggregationLevel::Clusters,
                servers: 10_100,
                servers_excluded: 101,
                classes: 505,
                full_specs: 404,
                reduced_specs: 202,
                spec_clusters: 101,
                vars_full: 4040,
                vars_reduced: 2020,
            },
            disagg: DisaggStats {
                repair_moves: 11,
                stays_honored: 22,
                topup_units: 33,
                shortfall_rru: 2.0,
            },
        };
        let got = aggregate_phase1(&shards, 123.5, 0.75);
        assert_eq!(format!("{got:#?}"), format!("{expected:#?}"));
    }
}
