//! The two-sided aggregation pipeline (CvxCluster-style).
//!
//! The paper's symmetric-server equivalence classes ([`crate::classes`])
//! aggregate one side of the allocation problem: interchangeable servers
//! collapse into one integer variable per (class, reservation) pair.
//! CvxCluster's observation is that the *other* side aggregates too —
//! reservations whose hardware-fungibility footprints are identical (same
//! RRU rows, same spread/affinity/host-profile shape) are interchangeable
//! from the model's point of view, so they can be solved as one aggregate
//! spec and split back afterwards. Both reductions, and any future one,
//! share a contract:
//!
//! * a **forward map** from the full problem to the reduced model
//!   entities (classes, specs, labels), and
//! * a **backward map** from the reduced solution to per-server /
//!   per-reservation targets, with integer rounding repaired.
//!
//! [`Reduction`] is that artifact. [`build_reduction`] produces it in two
//! calls: the equivalence-class build, then — at
//! [`AggregationLevel::Clusters`] — the reservation-side clustering.
//!
//! # Certified disaggregation
//!
//! Aggregation must not silently cost quality. Three safety nets bound it:
//!
//! 1. every aggregated round still runs through the audit layer's
//!    post-solve certificates (the reduced model is a real model);
//! 2. [`Reduction::disaggregate_counts`] reports residual per-member
//!    capacity shortfall after its repair passes, surfaced in
//!    [`PhaseStats::disagg`](crate::stats::PhaseStats::disagg);
//! 3. the continuous round's **exact-model ratchet** re-solves the unreduced
//!    (`Classes`-level) model every `exact_ratchet_interval` rounds and
//!    compares plan objectives under the common
//!    [`evaluate_targets`](crate::shard::evaluate_targets) yardstick.
//!
//! # Disaggregation math
//!
//! An aggregate spec's solved allocation is split back over its members
//! in three passes. Pass A assigns every class's units **stays first**: a
//! unit goes to the member whose servers currently run in that class
//! before anyone else, because the reduced model priced those servers
//! as stays — a split that reshuffles servers between members pays real
//! movement costs the model never saw. Leftover units go one server at
//! a time to the member with the largest **global** proportional RRU
//! deficit `w_j · cum − totals_j` (weights `w_j = C_j / ΣC_j`). The
//! global deficit is the load-bearing choice: per-MSB apportionment
//! bounds each MSB's error but lets a member's *total* drift by up to
//! one server per MSB, which at region scale (tens of MSBs) dwarfs any
//! reasonable rounding margin. Since the greedy's running deficits stay
//! within one server at every prefix, each MSB's contiguous block still
//! splits near-proportionally, so member MSB maxima track
//! `w_j · max_msb_g` and the buffered capacity constraint survives the
//! split up to integer rounding. That rounding is funded by a small
//! **margin** added to the aggregate capacity (`m · v_max`, one
//! worst-case server per member), and Pass B repairs what remains: a
//! local search on the cluster's summed capacity shortfall that shifts
//! single servers (within a class, hence within one MSB) toward the
//! worst-shortfall member, preferring moves that break no stay and
//! accepting any move that strictly shrinks the total shortfall — even
//! one that dips the donor below its own requirement, since later
//! iterations keep repairing until no move helps. What repair cannot
//! fix — members whose MSB maxima land in *different* MSBs need more
//! individual buffer than the shared aggregate buffer bought — Pass C
//! covers by **topping up** from the active classes' unallocated
//! supply: a few extra servers in below-max MSBs, priced by
//! `concretize` as cheap acquisitions, instead of a worst-case margin
//! carried on every round.

use std::collections::{BTreeMap, HashMap};

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_topology::{Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::classes::{build_classes_counted, EquivClass, Granularity};
use crate::model::solver_visible;
use crate::reservation::ReservationSpec;
use ras_milp::cast;
use ras_milp::nan;
use ras_milp::nan::NanGuard;
use ras_milp::tol;

/// How aggressively one solve aggregates before solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationLevel {
    /// Server-side only: the paper's symmetric-server equivalence
    /// classes. Today's default behavior.
    #[default]
    Classes,
    /// Both sides: reservations with identical hardware-fungibility
    /// footprints also collapse into one aggregate spec, and classes
    /// whose keys collide under the merged spec space are merged too.
    Clusters,
}

impl AggregationLevel {
    /// The level phase 2 solves at: spec clustering only applies to the
    /// phase-1 region-wide solve. Phase 2's restricted universe changes
    /// every round and its selected-spec visibility is per-spec, so
    /// clustering there would churn the aggregate identities for no
    /// reuse benefit.
    pub fn without_spec_clusters(self) -> Self {
        match self {
            Self::Clusters => Self::Classes,
            other => other,
        }
    }
}

/// Size accounting of one reduction (forward-map side).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Level the reduction was built at.
    pub level: AggregationLevel,
    /// Servers covered by the reduced classes.
    pub servers: usize,
    /// Servers the class builder excluded as unplanned-unavailable
    /// (previously dropped silently; `servers + servers_excluded` equals
    /// the include-filtered universe, asserted in debug builds).
    pub servers_excluded: usize,
    /// Reduced (post-merge) class count.
    pub classes: usize,
    /// Full (pre-aggregation) spec count.
    pub full_specs: usize,
    /// Reduced spec count (`== full_specs` below `Clusters`).
    pub reduced_specs: usize,
    /// Multi-member spec clusters formed.
    pub spec_clusters: usize,
    /// Assignment variables the `Classes`-level model would have.
    pub vars_full: usize,
    /// Assignment variables the reduced model has.
    pub vars_reduced: usize,
}

impl ReductionStats {
    /// Model-size reduction factor of the spec-clustering stage
    /// (`vars_full / vars_reduced`; 1.0 when nothing was clustered).
    pub fn reduction_ratio(&self) -> f64 {
        if self.vars_full == 0 {
            1.0
        } else {
            self.vars_full as f64 / self.vars_reduced.max(1) as f64
        }
    }

    /// Folds in the reduction of a disjoint server universe (another
    /// shard's): the size counters sum; the level is uniform across
    /// shards (they solve with the same params), so the last one stands.
    pub fn absorb(&mut self, other: &ReductionStats) {
        self.level = other.level;
        self.servers += other.servers;
        self.servers_excluded += other.servers_excluded;
        self.classes += other.classes;
        self.full_specs += other.full_specs;
        self.reduced_specs += other.reduced_specs;
        self.spec_clusters += other.spec_clusters;
        self.vars_full += other.vars_full;
        self.vars_reduced += other.vars_reduced;
    }
}

/// What the backward map (integer disaggregation) had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DisaggStats {
    /// Single-server transfers the capacity-repair loop committed.
    pub repair_moves: usize,
    /// Units the split assigned to the member whose servers already run
    /// them — stays the disaggregation honored instead of reshuffling.
    pub stays_honored: usize,
    /// Extra servers pulled from classes' unallocated supply to cover
    /// shortfall that no transfer or swap inside the cluster's own
    /// allocation could repair.
    pub topup_units: usize,
    /// Residual RRU shortfall across members after repair and top-up —
    /// 0.0 on a certified split.
    pub shortfall_rru: f64,
}

impl DisaggStats {
    /// Folds in another shard's split: every field sums.
    pub fn absorb(&mut self, other: &DisaggStats) {
        self.repair_moves += other.repair_moves;
        self.stays_honored += other.stays_honored;
        self.topup_units += other.topup_units;
        self.shortfall_rru += other.shortfall_rru;
    }
}

/// The forward/backward map between the full problem and the reduced
/// model entities — the artifact every solve path builds once per round
/// and threads through model build, warm-start diffing, and target
/// concretization.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Level the reduction was built at.
    pub level: AggregationLevel,
    /// Reduced equivalence classes. At [`AggregationLevel::Clusters`] the
    /// `current`/`target` fields are expressed in the *reduced* spec
    /// space and classes whose keys collided under the merge are
    /// concatenated.
    pub classes: Vec<EquivClass>,
    /// Interned class labels, parallel to `classes` — built once per
    /// reduction and reused for model variable/row names and basis
    /// remapping (previously each model build re-derived every label).
    pub labels: Vec<String>,
    /// Reduced reservation specs. An aggregate spec carries the summed
    /// member capacity plus the integer-rounding margin.
    pub specs: Vec<ReservationSpec>,
    /// Forward spec map: `spec_of[full_index] == reduced_index`.
    pub spec_of: Vec<usize>,
    /// Backward spec map: `members[reduced_index]` lists the full spec
    /// indices the reduced spec stands for (singleton below `Clusters`).
    pub members: Vec<Vec<usize>>,
    /// Size accounting.
    pub stats: ReductionStats,
}

impl Reduction {
    /// True when at least one reduced spec stands for several full specs
    /// (the backward map is non-trivial).
    pub fn has_clusters(&self) -> bool {
        self.members.iter().any(|m| m.len() > 1)
    }

    /// Maps a full-space reservation id into the reduced spec space.
    pub fn reduced_index(&self, r: ReservationId) -> Option<usize> {
        self.spec_of.get(r.index()).copied()
    }

    /// Splits reduced per-class counts back into full-spec space,
    /// repairing integer rounding (see the module docs for the math).
    /// `full_specs` are the unreduced specs the reduction was built from.
    /// Returns `counts[class][full_spec]` plus repair accounting.
    pub fn disaggregate_counts(
        &self,
        snapshot: &BrokerSnapshot,
        full_specs: &[ReservationSpec],
        counts: &[Vec<usize>],
    ) -> (Vec<Vec<usize>>, DisaggStats) {
        let mut full = vec![vec![0usize; full_specs.len()]; self.classes.len()];
        let mut stats = DisaggStats::default();
        // Top-up bookkeeping shared across clusters: extra servers taken
        // from each class beyond what the reduced model allocated, so
        // two clusters can't oversubscribe the same free supply.
        let mut borrowed = vec![0usize; self.classes.len()];
        for (g, members) in self.members.iter().enumerate() {
            if members.len() == 1 {
                let r = members[0];
                for (ci, row) in counts.iter().enumerate() {
                    full[ci][r] = row.get(g).copied().unwrap_or(0);
                }
            } else {
                split_cluster(
                    self,
                    g,
                    members,
                    snapshot,
                    full_specs,
                    counts,
                    &mut full,
                    &mut borrowed,
                    &mut stats,
                );
            }
        }
        (full, stats)
    }
}

/// Builds the round's reduction at `level`: the paper's symmetric-server
/// equivalence classes (Section 3.5.2) under the identity spec map, then
/// the spec clustering on top at [`AggregationLevel::Clusters`].
pub fn build_reduction(
    region: &Region,
    snapshot: &BrokerSnapshot,
    specs: &[ReservationSpec],
    granularity: Granularity,
    level: AggregationLevel,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> Reduction {
    let (classes, excluded) = build_classes_counted(region, snapshot, granularity, include);
    let vars = eligible_vars(&classes, specs);
    let mut reduction = Reduction {
        level,
        labels: classes.iter().map(|c| c.label()).collect(),
        specs: specs.to_vec(),
        spec_of: (0..specs.len()).collect(),
        members: (0..specs.len()).map(|i| vec![i]).collect(),
        stats: ReductionStats {
            level,
            servers: crate::classes::total_servers(&classes),
            servers_excluded: excluded,
            classes: classes.len(),
            full_specs: specs.len(),
            reduced_specs: specs.len(),
            spec_clusters: 0,
            vars_full: vars,
            vars_reduced: vars,
        },
        classes,
    };
    if level == AggregationLevel::Clusters {
        cluster_specs(specs, &mut reduction);
    }
    reduction
}

/// The reservation-side reduction: clusters specs with identical
/// hardware-fungibility footprints into one aggregate spec and merges
/// classes whose keys collide in the reduced spec space.
fn cluster_specs(specs: &[ReservationSpec], reduction: &mut Reduction) {
    // Group clusterable specs by footprint. O(n²) on the spec count,
    // which is tiny next to the fleet.
    let clusterable = |spec: &ReservationSpec| solver_visible(spec) && spec.capacity > 0.0;
    let same_footprint = |a: &ReservationSpec, b: &ReservationSpec| {
        a.kind == b.kind
            && a.rru == b.rru
            && a.spread == b.spread
            && a.dc_affinity == b.dc_affinity
            && a.msb_buffer == b.msb_buffer
            && a.host_profile == b.host_profile
    };
    let mut cluster_of: Vec<Option<usize>> = vec![None; specs.len()];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (ri, spec) in specs.iter().enumerate() {
        if !clusterable(spec) {
            continue;
        }
        let found = clusters
            .iter()
            .position(|c| same_footprint(&specs[c[0]], spec));
        match found {
            Some(gi) => {
                clusters[gi].push(ri);
                cluster_of[ri] = Some(gi);
            }
            None => {
                cluster_of[ri] = Some(clusters.len());
                clusters.push(vec![ri]);
            }
        }
    }
    if !clusters.iter().any(|c| c.len() > 1) {
        return; // Nothing to merge: identity (Clusters ≡ Classes).
    }

    // Reduced spec list: the first member of each multi-member
    // cluster becomes the aggregate spec (at its original position,
    // preserving relative spec order); later members vanish.
    let mut spec_of = vec![usize::MAX; specs.len()];
    let mut reduced: Vec<ReservationSpec> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (ri, spec) in specs.iter().enumerate() {
        let in_cluster = cluster_of[ri]
            .filter(|gi| clusters[*gi].len() > 1)
            .map(|gi| clusters[gi].clone());
        match in_cluster {
            Some(cluster) if cluster[0] == ri => {
                // Aggregate spec: summed capacity plus the rounding
                // margin (one worst-case server per member funds the
                // integer apportionment; see the module docs).
                let mut agg = spec.clone();
                agg.name = format!(
                    "agg[{}]",
                    cluster
                        .iter()
                        .map(|j| specs[*j].name.as_str())
                        .collect::<Vec<_>>()
                        .join("+")
                );
                let summed: f64 = cluster.iter().map(|j| specs[*j].capacity).sum();
                agg.capacity = summed + cluster.len() as f64 * spec.rru.max_value();
                let g = reduced.len();
                for &j in &cluster {
                    spec_of[j] = g;
                }
                reduced.push(agg);
                members.push(cluster);
            }
            Some(_) => {} // Later cluster member: mapped with its head.
            None => {
                let g = reduced.len();
                spec_of[ri] = g;
                reduced.push(spec.clone());
                members.push(vec![ri]);
            }
        }
    }

    // Merge classes whose keys collide once current/target map into
    // the reduced spec space — mandatory, not cosmetic: two classes
    // with the same reduced key would otherwise carry the same label
    // and the by-name basis remap (and the model's name-keyed rows)
    // would see duplicates.
    let map_res = |r: Option<ReservationId>| {
        r.and_then(|r| spec_of.get(r.index()).copied())
            .filter(|g| *g != usize::MAX)
            .map(ReservationId::from_index)
    };
    type Key = (
        u32,
        u32,
        Option<u32>,
        Option<ReservationId>,
        Option<ReservationId>,
        bool,
    );
    let mut merged: BTreeMap<Key, EquivClass> = BTreeMap::new();
    for class in reduction.classes.drain(..) {
        let mut mapped = class;
        mapped.current = map_res(mapped.current);
        mapped.target = map_res(mapped.target);
        match merged.entry(mapped.key()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(mapped);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().servers.extend(mapped.servers);
            }
        }
    }
    reduction.classes = merged.into_values().collect();
    reduction.labels = reduction.classes.iter().map(|c| c.label()).collect();
    reduction.stats.vars_reduced = eligible_vars(&reduction.classes, &reduced);
    reduction.stats.classes = reduction.classes.len();
    reduction.stats.reduced_specs = reduced.len();
    reduction.stats.spec_clusters = members.iter().filter(|m| m.len() > 1).count();
    reduction.specs = reduced;
    reduction.spec_of = spec_of;
    reduction.members = members;
}

/// Assignment variables a model over `classes × specs` would create.
fn eligible_vars(classes: &[EquivClass], specs: &[ReservationSpec]) -> usize {
    classes
        .iter()
        .map(|class| {
            specs
                .iter()
                .filter(|s| solver_visible(s) && s.rru.eligible(class.hardware))
                .count()
        })
        .sum()
}

/// Splits one multi-member cluster's solved allocation over its members.
#[allow(clippy::too_many_arguments)]
fn split_cluster(
    reduction: &Reduction,
    g: usize,
    members: &[usize],
    snapshot: &BrokerSnapshot,
    full_specs: &[ReservationSpec],
    counts: &[Vec<usize>],
    full: &mut [Vec<usize>],
    borrowed: &mut [usize],
    stats: &mut DisaggStats,
) {
    let m = members.len();
    let caps: Vec<f64> = members
        .iter()
        .map(|&r| full_specs.get(r).map_or(0.0, |s| s.capacity))
        .collect();
    let cap_total: f64 = caps.iter().sum();
    let weights: Vec<f64> = if cap_total > 0.0 {
        caps.iter().map(|c| c / cap_total).collect()
    } else {
        vec![1.0 / m as f64; m]
    };
    // Full spec index → member position, for stay lookups.
    let member_pos: HashMap<usize, usize> =
        members.iter().enumerate().map(|(j, &r)| (r, j)).collect();

    // Cluster-local classes with an allocation: (class index, RRU value,
    // MSB id). All members share one RRU table by footprint equality.
    let rru = &full_specs[members[0]].rru;
    let active: Vec<(usize, f64, u32)> = reduction
        .classes
        .iter()
        .enumerate()
        .filter(|(ci, _)| counts.get(*ci).and_then(|r| r.get(g)).copied().unwrap_or(0) > 0)
        .map(|(ci, class)| (ci, rru.value(class.hardware), class.msb.0))
        .collect();

    // Pass A: stays first, then global proportional apportionment. Each
    // class's units go to the members whose servers currently run there
    // — the reduced model priced those servers as stays, so a split
    // that reshuffles them between members pays movement costs the
    // model never saw. Leftover units go one server at a time to the
    // member with the largest *global* RRU deficit `w_j·cum − totals_j`.
    // Global, not per-MSB: per-MSB apportionment bounds each MSB's
    // error but lets a member's total drift by one server per MSB,
    // which at region scale dwarfs the rounding margin. The greedy's
    // running deficits stay within one server at every prefix, so each
    // MSB's contiguous block still splits near-proportionally and
    // member MSB maxima keep tracking `w_j · max_msb_g`.
    let buffered = full_specs[members[0]].survives_msb_loss();
    let mut assigned: Vec<HashMap<u32, f64>> = vec![HashMap::new(); m];
    let mut totals = vec![0.0f64; m];
    let mut cum = 0.0f64;
    // Per active class: units each member holds as honored stays, read
    // by the repair pass to prefer stay-preserving transfers.
    let mut stay_floor: Vec<Vec<usize>> = Vec::with_capacity(active.len());
    for &(ci, v, msb) in &active {
        let n = counts[ci][g];
        let mut stay = vec![0usize; m];
        for s in &reduction.classes[ci].servers {
            if let Some(cur) = snapshot.records[s.index()].current {
                if let Some(&j) = member_pos.get(&cur.index()) {
                    stay[j] += 1;
                }
            }
        }
        let total_stay: usize = stay.iter().sum();
        let mut take = stay.clone();
        if total_stay > n {
            // The aggregate shrank this class: scale stays down by
            // largest remainder so exactly `n` survive.
            let scale = n as f64 / total_stay as f64;
            let mut used = 0usize;
            let mut frac: Vec<(f64, usize)> = Vec::with_capacity(m);
            for (j, &s) in stay.iter().enumerate() {
                let share = s as f64 * scale;
                take[j] = cast::rounded_usize(share.floor());
                used += take[j];
                frac.push((take[j] as f64 - share, j));
            }
            frac.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, j) in frac.iter().take(n - used) {
                take[j] += 1;
            }
        }
        for (j, &t) in take.iter().enumerate() {
            full[ci][members[j]] += t;
            let value = t as f64 * v;
            totals[j] += value;
            *assigned[j].entry(msb).or_insert(0.0) += value;
            cum += value;
            stats.stays_honored += t;
        }
        let mut rest = n - take.iter().sum::<usize>();
        while rest > 0 {
            cum += v;
            let mut best = 0usize;
            let mut best_deficit = f64::NEG_INFINITY;
            for (j, w) in weights.iter().enumerate() {
                let deficit = w * cum - totals[j];
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = j;
                }
            }
            full[ci][members[best]] += 1;
            totals[best] += v;
            *assigned[best].entry(msb).or_insert(0.0) += v;
            rest -= 1;
        }
        stay_floor.push(take);
    }

    // Pass B: capacity repair — a local search on the cluster's summed
    // shortfall. Each move shifts one server (within a class, hence one
    // MSB) from a donor to the worst-shortfall member; any move that
    // strictly shrinks the *total* shortfall is allowed, even one that
    // dips the donor below its own requirement, since later iterations
    // keep repairing until no move helps. Moves that break a stay are
    // taken only when no stay-preserving move helps.
    let effective = |totals: &[f64], assigned: &[HashMap<u32, f64>], j: usize| {
        let max_msb = if buffered {
            assigned[j].values().fold(0.0f64, |a, b| a.max(*b))
        } else {
            0.0
        };
        totals[j] - max_msb
    };
    let total_units: usize = active.iter().map(|&(ci, _, _)| counts[ci][g]).sum();
    let max_iters = 2 * total_units + 16;
    for _ in 0..max_iters {
        let shortfalls: Vec<f64> = (0..m)
            .map(|j| (caps[j] - effective(&totals, &assigned, j)).nmax(0.0))
            .collect();
        let (worst, worst_short) =
            shortfalls
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |acc, (j, s)| {
                    if *s > acc.1 {
                        (j, *s)
                    } else {
                        acc
                    }
                });
        if worst_short <= tol::EPS {
            break;
        }
        // Best transfer: (total-shortfall reduction, preserves stays,
        // active index, donor), stay preservation before reduction size.
        let mut best: Option<(f64, bool, usize, usize)> = None;
        for (ai, &(ci, v, msb)) in active.iter().enumerate() {
            for k in 0..m {
                if k == worst || full[ci][members[k]] == 0 {
                    continue;
                }
                let donor_short_after = {
                    let new_total = totals[k] - v;
                    let max_after = if buffered {
                        assigned[k]
                            .iter()
                            .map(|(mm, u)| if *mm == msb { u - v } else { *u })
                            .fold(0.0f64, nan::fmax)
                    } else {
                        0.0
                    };
                    (caps[k] - (new_total - max_after)).nmax(0.0)
                };
                let worst_short_after = {
                    let new_total = totals[worst] + v;
                    let new_in_msb = assigned[worst].get(&msb).copied().unwrap_or(0.0) + v;
                    let old_max = if buffered {
                        assigned[worst].values().fold(0.0f64, |a, b| a.max(*b))
                    } else {
                        0.0
                    };
                    let new_max = if buffered {
                        old_max.max(new_in_msb)
                    } else {
                        0.0
                    };
                    (caps[worst] - (new_total - new_max)).nmax(0.0)
                };
                let delta =
                    (shortfalls[worst] + shortfalls[k]) - (worst_short_after + donor_short_after);
                if delta <= tol::EPS {
                    continue;
                }
                let keeps_stays = full[ci][members[k]] > stay_floor[ai][k];
                let better = best.as_ref().is_none_or(|&(bd, bs, _, _)| {
                    (keeps_stays && !bs) || (keeps_stays == bs && delta > bd)
                });
                if better {
                    best = Some((delta, keeps_stays, ai, k));
                }
            }
        }
        if let Some((_, _, ai, k)) = best {
            let (ci, v, msb) = active[ai];
            full[ci][members[k]] -= 1;
            full[ci][members[worst]] += 1;
            totals[k] -= v;
            totals[worst] += v;
            *assigned[k].entry(msb).or_insert(0.0) -= v;
            *assigned[worst].entry(msb).or_insert(0.0) += v;
            stats.repair_moves += 1;
            continue;
        }
        // No transfer helps — typically both members are short because
        // their maxima sit in *different* MSBs, so their individual
        // buffers no longer sum to the shared one the aggregate bought.
        // Swap search: trade one of the worst member's servers out of
        // its max MSB for a partner's server in another MSB. The
        // worst's total is ~unchanged but its max drops, so its
        // effective capacity rises; the partner's max only grows if the
        // vacated MSB was near its own max, which the delta prices in.
        let worst_max_msb = assigned[worst]
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(mm, _)| *mm);
        let eval_pair = |j: usize, out: Option<(f64, u32)>, inn: Option<(f64, u32)>| -> f64 {
            let mut new_total = totals[j];
            let by_msb = |mm: u32| {
                let mut u = assigned[j].get(&mm).copied().unwrap_or(0.0);
                if let Some((v, om)) = out {
                    if om == mm {
                        u -= v;
                    }
                }
                if let Some((v, im)) = inn {
                    if im == mm {
                        u += v;
                    }
                }
                u
            };
            if let Some((v, _)) = out {
                new_total -= v;
            }
            if let Some((v, _)) = inn {
                new_total += v;
            }
            let new_max = if buffered {
                assigned[j]
                    .keys()
                    .chain(out.iter().map(|(_, mm)| mm))
                    .chain(inn.iter().map(|(_, mm)| mm))
                    .map(|&mm| by_msb(mm))
                    .fold(0.0f64, nan::fmax)
            } else {
                0.0
            };
            (caps[j] - (new_total - new_max)).nmax(0.0)
        };
        let mut best_swap: Option<(f64, usize, usize, usize)> = None; // (delta, ao, ain, k)
        if let Some(peak) = worst_max_msb {
            for (ao, &(co, vo, mo)) in active.iter().enumerate() {
                if mo != peak || full[co][members[worst]] == 0 {
                    continue;
                }
                for (ain, &(cin, vi, mi)) in active.iter().enumerate() {
                    if mi == peak {
                        continue;
                    }
                    for k in 0..m {
                        if k == worst || full[cin][members[k]] == 0 {
                            continue;
                        }
                        let worst_after = eval_pair(worst, Some((vo, mo)), Some((vi, mi)));
                        let donor_after = eval_pair(k, Some((vi, mi)), Some((vo, mo)));
                        let delta =
                            (shortfalls[worst] + shortfalls[k]) - (worst_after + donor_after);
                        if delta > tol::EPS
                            && best_swap.as_ref().is_none_or(|&(bd, _, _, _)| delta > bd)
                        {
                            best_swap = Some((delta, ao, ain, k));
                        }
                    }
                }
            }
        }
        let Some((_, ao, ain, k)) = best_swap else {
            break;
        };
        let (co, vo, mo) = active[ao];
        let (cin, vi, mi) = active[ain];
        full[co][members[worst]] -= 1;
        full[co][members[k]] += 1;
        full[cin][members[k]] -= 1;
        full[cin][members[worst]] += 1;
        totals[worst] += vi - vo;
        totals[k] += vo - vi;
        *assigned[worst].entry(mo).or_insert(0.0) -= vo;
        *assigned[worst].entry(mi).or_insert(0.0) += vi;
        *assigned[k].entry(mo).or_insert(0.0) += vo;
        *assigned[k].entry(mi).or_insert(0.0) -= vi;
        stats.repair_moves += 2;
    }

    // Pass C: top-up from free supply. When no transfer or swap helps,
    // the members' individual MSB buffers genuinely exceed the shared
    // buffer the aggregate bought — their maxima sit in different MSBs,
    // or churn skewed the stay distribution across MSBs. Rather than
    // inflating the always-on margin to cover that worst case, pull the
    // few missing servers from the active classes' unallocated supply:
    // the fleet runs well below full utilization, and `concretize`
    // prices each extra server as a cheap acquisition. Only units in
    // MSBs strictly below the member's current max are taken, so every
    // top-up adds its full RRU value to effective capacity and the loop
    // provably terminates; `borrowed` keeps two clusters from claiming
    // the same free server.
    let avail = |ci: usize, borrowed: &[usize]| {
        let used: usize = counts[ci].iter().sum();
        reduction.classes[ci]
            .servers
            .len()
            .saturating_sub(used + borrowed[ci])
    };
    for j in 0..m {
        loop {
            let short = caps[j] - effective(&totals, &assigned, j);
            if short <= tol::EPS {
                break;
            }
            let old_max = if buffered {
                assigned[j].values().fold(0.0f64, |a, b| a.max(*b))
            } else {
                0.0
            };
            let mut pick: Option<(usize, f64, u32)> = None;
            for &(ci, v, msb) in &active {
                if v <= tol::DROP || avail(ci, borrowed) == 0 {
                    continue;
                }
                let in_msb = assigned[j].get(&msb).copied().unwrap_or(0.0);
                if buffered && in_msb + v > old_max + tol::EPS {
                    continue;
                }
                // Smallest RRU value wins: it overshoots the gap least.
                if pick.as_ref().is_none_or(|&(_, bv, _)| v < bv) {
                    pick = Some((ci, v, msb));
                }
            }
            let Some((ci, v, msb)) = pick else { break };
            full[ci][members[j]] += 1;
            borrowed[ci] += 1;
            totals[j] += v;
            *assigned[j].entry(msb).or_insert(0.0) += v;
            stats.topup_units += 1;
        }
    }
    let residual: f64 = (0..m)
        .map(|j| (caps[j] - effective(&totals, &assigned, j)).nmax(0.0))
        .sum();
    stats.shortfall_rru += residual;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::build_classes;
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    #[test]
    fn classes_level_matches_legacy_builder() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 30.0)];
        let snap = broker.snapshot(SimTime::ZERO);
        let reduction = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Classes,
            None,
        );
        let legacy = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(reduction.classes.len(), legacy.len());
        for ((a, b), label) in reduction.classes.iter().zip(&legacy).zip(&reduction.labels) {
            assert_eq!(a.servers, b.servers);
            assert_eq!(label, &b.label(), "interned label must match legacy");
        }
    }

    #[test]
    fn identical_footprints_cluster_and_distinct_ones_do_not() {
        let (region, broker) = setup();
        let mut other = uniform_spec(&region, "batch", 10.0);
        other.host_profile = 7; // Distinct footprint.
        let specs = vec![
            uniform_spec(&region, "web", 30.0),
            uniform_spec(&region, "feed", 15.0),
            other,
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let r = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Clusters,
            None,
        );
        assert!(r.has_clusters());
        assert_eq!(r.stats.spec_clusters, 1);
        assert_eq!(r.specs.len(), 2, "web+feed merge, batch survives");
        assert_eq!(r.spec_of, vec![0, 0, 1]);
        assert_eq!(r.members, vec![vec![0, 1], vec![2]]);
        let agg = &r.specs[0];
        assert!(agg.name.contains("web") && agg.name.contains("feed"));
        assert!(
            agg.capacity >= 45.0,
            "aggregate capacity must cover the members plus margin"
        );
        assert!(
            r.stats.vars_reduced < r.stats.vars_full,
            "clustering must shrink the model"
        );
        assert!(r.stats.reduction_ratio() > 1.0);
    }

    #[test]
    fn cluster_merges_colliding_classes() {
        let (region, mut broker) = setup();
        let web = broker.register_reservation("web");
        let feed = broker.register_reservation("feed");
        // Two servers of the same hardware/MSB class, one bound to each
        // member: distinct full-space keys, identical reduced keys.
        let specs = vec![
            uniform_spec(&region, "web", 10.0),
            uniform_spec(&region, "feed", 10.0),
        ];
        let snap0 = broker.snapshot(SimTime::ZERO);
        let base = build_classes(&region, &snap0, Granularity::Msb, None);
        let class = base.iter().max_by_key(|c| c.count()).unwrap();
        broker.bind_current(class.servers[0], Some(web)).unwrap();
        broker.bind_current(class.servers[1], Some(feed)).unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let full = build_classes(&region, &snap, Granularity::Msb, None);
        let r = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Clusters,
            None,
        );
        assert!(r.classes.len() < full.len(), "colliding classes must merge");
        let mut seen = std::collections::HashSet::new();
        for label in &r.labels {
            assert!(seen.insert(label.clone()), "duplicate label {label}");
        }
        assert_eq!(
            crate::classes::total_servers(&r.classes),
            region.server_count()
        );
    }

    #[test]
    fn disaggregation_preserves_class_totals_and_capacity() {
        let (region, broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 24.0),
            uniform_spec(&region, "feed", 12.0),
        ];
        let snap = broker.snapshot(SimTime::ZERO);
        let r = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Clusters,
            None,
        );
        assert!(r.has_clusters());
        // Hand the cluster an allocation a real solve would produce: one
        // that satisfies the aggregate's own buffered capacity constraint
        // (total − max-MSB ≥ C_agg), built by always topping up the
        // least-loaded MSB.
        let cap = r.specs[0].capacity;
        let mut counts = vec![vec![0usize; r.specs.len()]; r.classes.len()];
        let mut total = 0.0f64;
        let mut by_msb: HashMap<u32, f64> = HashMap::new();
        loop {
            let max_msb = by_msb.values().fold(0.0f64, |a, b| a.max(*b));
            if total - max_msb >= cap {
                break;
            }
            let next = r
                .classes
                .iter()
                .enumerate()
                .filter(|(ci, c)| counts[*ci][0] < c.count())
                .min_by(|(_, a), (_, b)| {
                    let la = by_msb.get(&a.msb.0).copied().unwrap_or(0.0);
                    let lb = by_msb.get(&b.msb.0).copied().unwrap_or(0.0);
                    la.total_cmp(&lb)
                });
            let Some((ci, class)) = next else {
                panic!("fleet too small for the test allocation");
            };
            counts[ci][0] += 1;
            total += 1.0;
            *by_msb.entry(class.msb.0).or_insert(0.0) += 1.0;
        }
        let (full, stats) = r.disaggregate_counts(&snap, &specs, &counts);
        // Per-class totals preserved: the supply constraint stays intact.
        for (ci, row) in full.iter().enumerate() {
            let members_sum: usize = r.members[0].iter().map(|&j| row[j]).sum();
            assert_eq!(members_sum, counts[ci][0], "class {ci} total drifted");
        }
        // Every member's effective capacity is covered.
        assert_eq!(stats.shortfall_rru, 0.0, "margin must fund the rounding");
        for (pos, &ri) in r.members[0].iter().enumerate() {
            let mut total = 0.0;
            let mut by_msb = std::collections::HashMap::new();
            for (ci, class) in r.classes.iter().enumerate() {
                let v = specs[ri].rru.value(class.hardware) * full[ci][ri] as f64;
                total += v;
                *by_msb.entry(class.msb.0).or_insert(0.0) += v;
            }
            let max_msb = by_msb.values().fold(0.0f64, |a, b| a.max(*b));
            assert!(
                total - max_msb >= specs[ri].capacity - 1e-9,
                "member {pos}: effective {} < capacity {}",
                total - max_msb,
                specs[ri].capacity
            );
        }
    }

    #[test]
    fn identity_disaggregation_is_a_copy() {
        let (region, broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 20.0)];
        let snap = broker.snapshot(SimTime::ZERO);
        let r = build_reduction(
            &region,
            &snap,
            &specs,
            Granularity::Msb,
            AggregationLevel::Classes,
            None,
        );
        let counts: Vec<Vec<usize>> = r.classes.iter().map(|c| vec![c.count().min(2)]).collect();
        let (full, stats) = r.disaggregate_counts(&snap, &specs, &counts);
        assert_eq!(full, counts);
        assert_eq!(stats, DisaggStats::default());
    }
}
