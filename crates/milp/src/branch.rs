//! Best-bound branch-and-bound over the simplex LP relaxation.
//!
//! This is the exact backend the RAS Async Solver uses. It mirrors the
//! production behaviours the paper measures: a hard wall-clock timeout
//! that can stop the search with a feasible-but-unproven incumbent, and a
//! reported *gap* against the best proven bound (Figure 9 plots exactly
//! that gap).
//!
//! **Look-ahead on an idle core.** A node LP is a pure function of the
//! node's bounds and its parent's basis: every [`Simplex::solve`] returns
//! what a reset engine returns, so which engine solved a node, and what
//! it solved before, cannot show in the result. (A dive's steps after its
//! first keep the factors the step before left, and so depend on the
//! engine's past; but only the search thread dives, and each dive's first
//! step refactorizes, so those steps follow from the dive alone.) While
//! the search runs exactly as it would alone, one helper thread with an
//! engine of its own solves nodes ahead of their pop and files each
//! result under the node's id with the node's branching path; the search
//! takes a filed result when it pops a node with that id and path. While
//! the search runs its root dive, the helper walks the search's own
//! best-bound expansion from the root with no incumbent to prune against:
//! until the search first prunes a node by its incumbent, the two trees
//! are one. After the dive it solves the best open nodes (the best three,
//! republished at every pop). Node stats are
//! recorded only when the search takes a node, so every counter, every
//! prune and the plan are those of the serial search; only
//! [`SolveStats::nodes_solved_ahead`] and
//! [`SolveStats::lp_solves_discarded`] depend on timing. The helper starts
//! only while the process has fewer searches in their dive or node loop
//! than it has cores, and both threads wait by yielding, not parking: a
//! parked helper woke on the search's own core often enough to lose the
//! gain.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Instant;

use crate::audit::{
    audit_model, audit_standard_form, check_lp_certificate, check_mip_certificate, AuditConfig,
    AuditIssue, AuditReport, Severity,
};
use crate::branching::PseudoCosts;
use crate::model::{Model, VarType};
use crate::nan;
use crate::nan::NanGuard;
use crate::simplex::{Basis, DualRule, LpResult, LpStatus, Simplex, SimplexConfig};
use crate::solution::{Solution, SolveConfig, SolveError, SolveStats, Status};
use crate::standard::StandardForm;
use crate::tol;

/// One branching decision: `(column, is_upper, value)` sets the column's
/// upper (`true`) or lower (`false`) bound to `value`.
type BoundChange = (usize, bool, f64);

/// The dual iteration every node, dive and look-ahead LP re-solves
/// with: the conservative one-violation-at-a-time repair. A branch
/// changes a single bound, and the long step's bound flips would jump
/// whole runs of nonbasic integer columns to their opposite bounds,
/// scrambling the vertex trajectory the search (and any downstream solve
/// built from this solution) depends on staying near-integral. The long
/// step earns its keep on the root re-solve, where a round's bound patch
/// moves many bounds at once.
const NODE_RULE: DualRule = DualRule::Repair;

/// Open nodes the look-ahead keeps queued for the helper.
const LOOK_AHEAD: usize = 3;

/// Slots of the heap's array that hold its [`LOOK_AHEAD`] best entries: a
/// binary max-heap keeps its `k`-th greatest entry at depth `k − 1` or
/// less, so within its first `2^k − 1` slots. (Were the layout ever
/// otherwise, the look-ahead would guess worse nodes: slower, not wrong.)
const LOOK_AHEAD_SLOTS: usize = (1 << LOOK_AHEAD) - 1;

/// Results the walk files ahead of the search, not yet taken, at which it
/// stops: the memory a walk may hold.
const WALK_CAP: usize = 128;

/// Searches of this process in their root dive or best-bound loop: a
/// search starts a helper only while the count, itself included, is below
/// the cores.
static SEARCHING: AtomicUsize = AtomicUsize::new(0);

/// An open node, stored as its branching path instead of full bound
/// vectors: memory per node follows its depth, not the model's size.
#[derive(Clone)]
struct Node {
    /// Creation order within the search (the root is 0): the key its
    /// look-ahead result is filed under. It never orders the heap.
    id: u64,
    /// Bound changes from the root, in branching order; the last one
    /// created this node and the length is the node's depth.
    path: Vec<BoundChange>,
    /// Fractional part of the branched variable in the parent's LP
    /// (pseudo-cost weight; unused at the root).
    frac: f64,
    /// Parent's optimal basis, used to warm-start this node's LP.
    warm: Option<Arc<Basis>>,
}

impl Node {
    /// Materialises this node's bounds into `lower`/`upper`: the root
    /// bounds with the path applied in order, so a column branched twice
    /// ends on its latest bound.
    fn bounds_into(
        &self,
        root_lower: &[f64],
        root_upper: &[f64],
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
    ) {
        lower.clear();
        lower.extend_from_slice(root_lower);
        upper.clear();
        upper.extend_from_slice(root_upper);
        for &(column, is_upper, value) in &self.path {
            if is_upper {
                upper[column] = value;
            } else {
                lower[column] = value;
            }
        }
    }

    /// The child one branching decision further down.
    fn child(&self, id: u64, change: BoundChange, frac: f64, warm: Option<Arc<Basis>>) -> Node {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(&self.path);
        path.push(change);
        Node {
            id,
            path,
            frac,
            warm,
        }
    }
}

/// Max-heap entry ordered so that the *smallest* bound pops first. It
/// owns its node, so a popped node is freed once it has been processed.
struct HeapEntry {
    /// The parent's LP objective (the root's own for the root): the
    /// node's bound and its pseudo-cost degradation baseline.
    bound: f64,
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on bound (min-heap); deeper first on ties (dive).
        // `total_cmp` keeps the heap ordering a total order even if a
        // NaN bound ever slips in (`partial_cmp(..).unwrap_or(Equal)`
        // would silently scramble the best-bound search instead).
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.node.path.len().cmp(&other.node.path.len()))
    }
}

/// A best-bound expansion: the open nodes, what branching has learnt, and
/// the next node id. The search owns one; during the root dive the
/// helper's walk owns another, grown by the same [`expand`](Self::expand),
/// so while no node is pruned the two hand out the same ids to the same
/// nodes.
struct Tree {
    heap: BinaryHeap<HeapEntry>,
    pseudo: PseudoCosts,
    next_id: u64,
}

impl Tree {
    /// The tree of one open node, the root (id 0), with bound `bound`.
    fn new(root: Node, bound: f64, num_vars: usize) -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { bound, node: root });
        Self {
            heap,
            pseudo: PseudoCosts::new(num_vars),
            next_id: 1,
        }
    }

    /// Learns from `entry`'s node, solved to optimality as `lp` under
    /// `lower`/`upper`, and branches on it unless `pruned`: records the
    /// degradation the branch that created it caused, picks a variable by
    /// [`crate::branching::select`] and pushes the down child
    /// (`x ≤ ⌊v⌋`), then the up one (`x ≥ ⌈v⌉`), each only if non-empty,
    /// ids in creation order. The children take `lp`'s basis. Returns true
    /// when the node was not pruned and `lp` is integral: a feasible point.
    fn expand(
        &mut self,
        entry: &HeapEntry,
        lp: &mut LpResult,
        lower: &[f64],
        upper: &[f64],
        int_vars: &[usize],
        pruned: bool,
    ) -> bool {
        let node = &entry.node;
        if let Some(&(var, is_upper, _)) = node.path.last() {
            self.pseudo
                .record(var, !is_upper, node.frac, lp.objective - entry.bound);
        }
        if pruned {
            return false;
        }
        let Some(branch_var) = crate::branching::select(&lp.values, int_vars, &self.pseudo) else {
            return true;
        };
        let value = lp.values[branch_var];
        let frac = value - value.floor();
        let child_warm = lp.basis.take().map(Arc::new);
        for (is_upper, bound) in [(true, value.floor()), (false, value.ceil())] {
            let nonempty = if is_upper {
                lower[branch_var] <= bound
            } else {
                bound <= upper[branch_var]
            };
            if nonempty {
                self.heap.push(HeapEntry {
                    bound: lp.objective,
                    node: node.child(
                        self.next_id,
                        (branch_var, is_upper, bound),
                        frac,
                        child_warm.clone(),
                    ),
                });
                self.next_id += 1;
            }
        }
        false
    }
}

/// The stall rule's count: pops since the best open bound last rose by
/// more than the absolute gap tolerance.
struct Stall {
    nodes: usize,
    last_bound: f64,
}

impl Stall {
    fn new() -> Self {
        Self {
            nodes: 0,
            last_bound: f64::NEG_INFINITY,
        }
    }

    /// Counts the pop of a node with bound `bound`; true once the bound
    /// has not risen for `config.stall_node_limit` pops in a row.
    fn stalled(&mut self, bound: f64, config: &SolveConfig) -> bool {
        if bound > self.last_bound + config.abs_gap_tol.max(tol::EPS) {
            self.last_bound = bound;
            self.nodes = 0;
            false
        } else {
            self.nodes += 1;
            self.nodes >= config.stall_node_limit
        }
    }
}

/// What the search and its look-ahead helper share, under one lock.
#[derive(Default)]
struct Shared {
    /// Open nodes for the helper to solve, best first.
    queue: Vec<Node>,
    /// The id and path of the node the helper is solving.
    helper_on: Option<(u64, Vec<BoundChange>)>,
    /// Finished look-ahead results, by node id, each with the path of the
    /// node it was solved for.
    done: HashMap<u64, (Vec<BoundChange>, LpResult)>,
    /// Results dropped unused: filed under a popped node's id for another
    /// path, or replaced by a later result under the same id.
    discarded: usize,
    /// Set while the search runs its root dive and the helper walks.
    walking: bool,
    /// Set when the search leaves its node loop, by any exit.
    stop: bool,
}

impl Shared {
    /// Whether the helper is solving `node` now.
    fn is_on(&self, node: &Node) -> bool {
        self.helper_on
            .as_ref()
            .is_some_and(|(id, path)| *id == node.id && *path == node.path)
    }

    /// Whether `node` is solved or being solved.
    fn has(&self, node: &Node) -> bool {
        self.is_on(node)
            || self
                .done
                .get(&node.id)
                .is_some_and(|(path, _)| *path == node.path)
    }

    fn file(&mut self, node: &Node, lp: LpResult) {
        if self.done.insert(node.id, (node.path.clone(), lp)).is_some() {
            self.discarded += 1;
        }
    }

    /// Removes the result filed under `node`'s id and returns it if it was
    /// solved for `node`'s path; one solved for another path is discarded.
    fn take(&mut self, node: &Node) -> Option<LpResult> {
        let (path, lp) = self.done.remove(&node.id)?;
        if path == node.path {
            Some(lp)
        } else {
            self.discarded += 1;
            None
        }
    }
}

/// Locks the shared state. A panicking thread leaves it consistent (no
/// update spans a solve), so a poisoned lock is taken as it is.
fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The search's side of the look-ahead. Created before the search's root
/// dive, where it takes its place in [`SEARCHING`]; dropped on every exit
/// from the node loop, where it gives the place back and stops the
/// helper.
struct LookAhead<'a> {
    shared: &'a Mutex<Shared>,
    /// Whether a core was idle when the search entered its dive.
    idle_core: bool,
    /// Whether the helper has been started (for the walk, or at the first
    /// publish that queued a node).
    started: bool,
    /// Bounds scratch for the nodes the search solves ahead itself.
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl<'a> LookAhead<'a> {
    fn enter(shared: &'a Mutex<Shared>) -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
        let searches = SEARCHING.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        Self {
            shared,
            idle_core: searches < cores,
            started: false,
            lower: Vec::new(),
            upper: Vec::new(),
        }
    }

    /// Returns true when the caller should start the helper walking the
    /// tree while the search dives: a core is idle.
    fn walk(&mut self) -> bool {
        if self.idle_core {
            self.started = true;
            lock(self.shared).walking = true;
        }
        self.started
    }

    /// Ends the walk: the helper finishes its node and turns to the queue.
    fn end_walk(&self) {
        lock(self.shared).walking = false;
    }

    /// Replaces the helper's queue with the [`LOOK_AHEAD`] best open
    /// nodes, less those already solved or being solved. Returns true when
    /// the caller should start the helper: a core is idle, the helper is
    /// not running yet and the queue holds a node.
    fn publish(&mut self, heap: &BinaryHeap<HeapEntry>) -> bool {
        if !self.idle_core {
            return false;
        }
        let slots = heap.as_slice();
        let mut best: Vec<&HeapEntry> = slots[..slots.len().min(LOOK_AHEAD_SLOTS)].iter().collect();
        best.sort_unstable_by(|a, b| b.cmp(a));
        let mut shared = lock(self.shared);
        let shared = &mut *shared;
        shared.queue.clear();
        for entry in best.into_iter().take(LOOK_AHEAD) {
            if !shared.has(&entry.node) {
                shared.queue.push(entry.node.clone());
            }
        }
        let start = !self.started && !shared.queue.is_empty();
        self.started |= start;
        start
    }

    /// The popped node's LP result if the look-ahead has it or is solving
    /// it, `None` when the caller must solve it. While the helper finishes
    /// the node, the search solves the heap's next node itself (when no
    /// one has it yet) and files the result for its pop. No node is
    /// solved twice.
    fn take(
        &mut self,
        node: &Node,
        heap: &BinaryHeap<HeapEntry>,
        engine: &mut Simplex<'_>,
        root_lower: &[f64],
        root_upper: &[f64],
    ) -> Option<LpResult> {
        if !self.started {
            return None;
        }
        let mut shared = lock(self.shared);
        if let Some(lp) = shared.take(node) {
            return Some(lp);
        }
        if !shared.is_on(node) {
            return None;
        }
        if let Some(next) = heap.peek().map(|e| &e.node) {
            if !shared.has(next) {
                shared.queue.retain(|job| job.id != next.id);
                drop(shared);
                next.bounds_into(root_lower, root_upper, &mut self.lower, &mut self.upper);
                let lp = engine.solve(&self.lower, &self.upper, next.warm.as_deref(), NODE_RULE);
                shared = lock(self.shared);
                shared.file(next, lp);
            }
        }
        loop {
            if let Some(lp) = shared.take(node) {
                return Some(lp);
            }
            if !shared.is_on(node) {
                // The helper died mid-solve (its panic resurfaces when the
                // search's scope joins it): solve the node here.
                return None;
            }
            drop(shared);
            thread::yield_now();
            shared = lock(self.shared);
        }
    }
}

impl Drop for LookAhead<'_> {
    fn drop(&mut self) {
        SEARCHING.fetch_sub(1, AtomicOrdering::Relaxed);
        lock(self.shared).stop = true;
    }
}

/// What the helper thread borrows from the search.
#[derive(Clone, Copy)]
struct Helper<'a> {
    shared: &'a Mutex<Shared>,
    sf: &'a StandardForm,
    config: &'a SimplexConfig,
    root_lower: &'a [f64],
    root_upper: &'a [f64],
}

/// The helper's walk while the search dives: the search's best-bound
/// expansion from the root, with no incumbent to prune against.
struct Walk<'a> {
    tree: Tree,
    int_vars: &'a [usize],
    config: &'a SolveConfig,
}

impl Helper<'_> {
    /// The helper thread: walks the tree first when given a walk, then
    /// solves the front of the queue on an engine of its own, files the
    /// result, and repeats until the search stops it.
    fn run(self, walk: Option<Walk<'_>>) {
        /// Clears `helper_on` on every exit, a panic included, so the
        /// search never waits for a node nobody is solving.
        struct Gone<'a>(&'a Mutex<Shared>);
        impl Drop for Gone<'_> {
            fn drop(&mut self) {
                lock(self.0).helper_on = None;
            }
        }
        let _gone = Gone(self.shared);
        let mut engine = Simplex::new(self.sf, self.config.clone());
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        if let Some(walk) = walk {
            self.walk(walk, &mut engine, &mut lower, &mut upper);
        }
        loop {
            let job = {
                let mut shared = lock(self.shared);
                if shared.stop {
                    return;
                }
                if shared.queue.is_empty() {
                    None
                } else {
                    let job = shared.queue.remove(0);
                    shared.helper_on = Some((job.id, job.path.clone()));
                    Some(job)
                }
            };
            let Some(job) = job else {
                thread::yield_now();
                continue;
            };
            job.bounds_into(self.root_lower, self.root_upper, &mut lower, &mut upper);
            let lp = engine.solve(&lower, &upper, job.warm.as_deref(), NODE_RULE);
            let mut shared = lock(self.shared);
            shared.file(&job, lp);
            shared.helper_on = None;
        }
    }

    /// Solves and files the walk's nodes in the order the search would pop
    /// them with no incumbent, until the first of: the dive ends, the
    /// search's stall rule would stop it were an incumbent held, the node
    /// limit, or [`WALK_CAP`] results wait untaken (the dive, and with it
    /// the walk, ends by half the time limit). Stopping early only leaves
    /// nodes for the search to solve itself.
    fn walk(
        &self,
        mut walk: Walk<'_>,
        engine: &mut Simplex<'_>,
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
    ) {
        let config = walk.config;
        let mut stall = Stall::new();
        let mut solved = 0;
        while let Some(entry) = walk.tree.heap.pop() {
            if solved >= config.max_nodes
                || (config.stall_node_limit > 0 && stall.stalled(entry.bound, config))
            {
                return;
            }
            let node = &entry.node;
            {
                let mut shared = lock(self.shared);
                if shared.stop || !shared.walking || shared.done.len() >= WALK_CAP {
                    return;
                }
                shared.helper_on = Some((node.id, node.path.clone()));
            }
            node.bounds_into(self.root_lower, self.root_upper, lower, upper);
            let mut lp = engine.solve(lower, upper, node.warm.as_deref(), NODE_RULE);
            solved += 1;
            {
                let mut shared = lock(self.shared);
                shared.file(node, lp.clone());
                shared.helper_on = None;
            }
            if lp.status == LpStatus::Optimal {
                walk.tree
                    .expand(&entry, &mut lp, lower, upper, walk.int_vars, false);
            }
        }
    }
}

/// Solves `model` by branch and bound under `config`.
pub fn solve(model: &Model, config: &SolveConfig) -> Result<Solution, SolveError> {
    let start = Instant::now();
    // Static audit first: a reject-level defect (NaN coefficient,
    // dangling variable, crossed bounds) would panic or silently
    // corrupt the standard-form build below, so it must never get
    // there. Flags are carried through into the final stats.
    let mut audit = AuditReport::default();
    admit(&mut audit, audit_model(model, &AuditConfig {}))?;
    let sf = StandardForm::from_model(model);
    admit(&mut audit, audit_standard_form(&sf, &AuditConfig {}))?;
    let setup_seconds = start.elapsed().as_secs_f64();
    let int_vars: Vec<usize> = model
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.ty != VarType::Continuous)
        .map(|(i, _)| i)
        .collect();
    let lp_config = SimplexConfig {
        deadline: Some(start + std::time::Duration::from_secs_f64(config.time_limit_seconds)),
        ..SimplexConfig::default()
    };

    // Presolve: tighten variable bounds by interval propagation and
    // catch plain infeasibility before any simplex work.
    let tightened = match crate::presolve::tighten(model) {
        Ok(t) => t,
        Err(crate::presolve::PresolveError::Infeasible) => return Err(SolveError::Infeasible),
    };
    let mut root_lower = sf.lower.clone();
    let mut root_upper = sf.upper.clone();
    root_lower[..model.num_vars()].copy_from_slice(&tightened.lower);
    root_upper[..model.num_vars()].copy_from_slice(&tightened.upper);
    for &j in &int_vars {
        if root_lower[j] > root_upper[j] {
            return Err(SolveError::Infeasible);
        }
    }

    let mut stats = SolveStats {
        setup_seconds,
        ..SolveStats::default()
    };
    let root_start = Instant::now();
    // The root LP runs to completion regardless of the wall-clock
    // deadline: without a proven root bound every reported gap is
    // infinite (the fig09 regression), and an interrupted root must
    // honestly publish no bound at all. The node loop below still
    // enforces the time limit, so the solve stops right after the
    // root if the budget is already spent.
    let root_config = SimplexConfig {
        deadline: None,
        ..lp_config.clone()
    };
    // The root is always a cold solve. Under the long step it goes
    // dual-first from the slack basis past the size gate — or at any size
    // when the caller says the slack basis is the running plan — and
    // takes the primal two-phase solve otherwise or on the attempt's
    // fallback.
    let root_rule = if config.warm_dual {
        DualRule::LongStep
    } else {
        NODE_RULE
    };
    let mut root_lp = Simplex::new(&sf, root_config);
    if config.root_from_plan {
        root_lp.set_cold_dual_gate(0, true);
    }
    let root = root_lp.solve(&root_lower, &root_upper, None, root_rule);
    stats.root_lp_seconds = root_start.elapsed().as_secs_f64();
    stats.root_discarded_seconds = root_lp.discarded_seconds();
    stats.root_phase1_iterations = root.phase1_iterations;
    stats.root_used_dual_simplex = root.used_dual_simplex;
    stats.record_lp(&root);
    match root.status {
        LpStatus::Infeasible => return Err(SolveError::Infeasible),
        LpStatus::Unbounded => return Err(SolveError::Unbounded),
        LpStatus::IterationLimit | LpStatus::Optimal => {}
    }
    // An iteration-limited root proves nothing: its objective must
    // never be used as a bound (it once leaked in as one, overstating
    // `best_bound` whenever the root LP timed out).
    let root_optimal = root.status == LpStatus::Optimal;
    let root_bound = if root_optimal {
        debug_assert!(
            root.objective.is_finite(),
            "optimal LP with non-finite objective"
        );
        root.objective
    } else {
        f64::NEG_INFINITY
    };
    // Certify the root relaxation when it is proven optimal (the checker
    // skips any other status): primal residual, bounds, dual
    // feasibility, and complementary slackness against the duals the
    // simplex reported.
    check_lp_certificate(
        &sf,
        &root_lower,
        &root_upper,
        &root,
        &AuditConfig {},
        &mut audit,
    );

    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    // The one place candidate plans enter the search: each is
    // validated once, in list order, and installed only when strictly
    // cheaper than what is held, so the first of the cheapest wins.
    for candidate in &config.incumbents {
        if candidate.len() != model.num_vars()
            || !model.violations(candidate, tol::PRIMAL_FEAS).is_empty()
        {
            continue;
        }
        let mut values = candidate.clone();
        for &j in &int_vars {
            values[j] = values[j].round();
        }
        let obj = model.objective().eval(&values);
        if incumbent.as_ref().is_none_or(|(io, _)| obj < *io) {
            incumbent = Some((obj, values));
        }
    }
    // True while the incumbent is still a supplied candidate (not
    // something the search found); prunes against it count as seed payoff.
    let mut incumbent_is_seed = incumbent.is_some();
    stats.incumbent_seeded = incumbent_is_seed;
    // Both the dive and the integral-root shortcut require a *proven*
    // root optimum; an iteration-limited root goes straight to the
    // search, which will re-solve it.
    if root_optimal && most_fractional(&root.values, &int_vars).is_none() {
        // Root relaxation is already integral.
        let (obj, values) = snap(model, &root, &int_vars);
        stats.best_bound = obj;
        stats.nodes = 1;
        stats.solve_seconds = start.elapsed().as_secs_f64();
        return certify(model, Status::Optimal, obj, values, stats, audit);
    }
    // One engine for every node and dive LP the search itself solves.
    let mut node_lp = Simplex::new(&sf, lp_config.clone());

    // Best-bound search.
    let root_node = Node {
        id: 0,
        path: Vec::new(),
        frac: 0.0,
        warm: root.basis.clone().map(Arc::new),
    };
    let mut tree = Tree::new(root_node.clone(), root_bound, model.num_vars());
    // The popped node's bounds, materialised from its path.
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    let mut best_open_bound = root_bound;
    // Weakest bound among subtrees the search abandoned (LP iteration
    // limit). It must stay in the final open-bound
    // accounting: silently dropping those nodes let `best_bound`
    // overclaim whatever optimum they might have contained.
    let mut abandoned_bound = f64::INFINITY;
    let mut hit_limit = false;
    let mut stall = Stall::new();

    // The root dive and the node loop run in a thread scope: a look-ahead
    // helper, once started, borrows the standard form and the root
    // bounds, and is stopped and joined on every exit from the loop.
    let shared = Mutex::new(Shared::default());
    let helper = Helper {
        shared: &shared,
        sf: &sf,
        config: &lp_config,
        root_lower: &root_lower,
        root_upper: &root_upper,
    };
    thread::scope(|scope| {
        let mut ahead = LookAhead::enter(&shared);
        if root_optimal {
            // The root is fractional: try the rounding/diving heuristic
            // for an early incumbent. Meanwhile an idle core walks the
            // tree the search will grow, as far as no incumbent prunes it.
            if ahead.walk() {
                let walk = Walk {
                    tree: Tree::new(root_node, root_bound, model.num_vars()),
                    int_vars: &int_vars,
                    config,
                };
                scope.spawn(move || helper.run(Some(walk)));
            }
            let dive_start = Instant::now();
            let found = dive(
                model,
                config,
                &mut node_lp,
                &root_lower,
                &root_upper,
                &root,
                &int_vars,
                &mut stats,
                start,
            );
            stats.dive_seconds += dive_start.elapsed().as_secs_f64();
            ahead.end_walk();
            if let Some((obj, values)) = found {
                if incumbent.as_ref().is_none_or(|(io, _)| obj < *io) {
                    incumbent = Some((obj, values));
                    incumbent_is_seed = false;
                }
            }
        }
        while let Some(entry) = tree.heap.pop() {
            best_open_bound = entry.bound;
            if start.elapsed().as_secs_f64() > config.time_limit_seconds
                || stats.nodes >= config.max_nodes
            {
                hit_limit = true;
                break;
            }
            if config.stall_node_limit > 0
                && incumbent.is_some()
                && stall.stalled(entry.bound, config)
            {
                hit_limit = true;
                break;
            }
            if let Some((inc_obj, _)) = &incumbent {
                if entry.bound >= inc_obj - config.abs_gap_tol {
                    // All remaining nodes have bounds at least this large.
                    if incumbent_is_seed {
                        stats.nodes_pruned_by_seed += tree.heap.len() + 1;
                    }
                    best_open_bound = *inc_obj;
                    tree.heap.clear();
                    break;
                }
            }
            // This node will be solved: point the helper at the ones
            // the search would pop next.
            if ahead.publish(&tree.heap) {
                scope.spawn(move || helper.run(None));
            }
            let node = &entry.node;
            node.bounds_into(&root_lower, &root_upper, &mut lower, &mut upper);
            let mut lp = match ahead.take(node, &tree.heap, &mut node_lp, &root_lower, &root_upper)
            {
                Some(lp) => {
                    stats.nodes_solved_ahead += 1;
                    // Debug oracle: every 16th node solved ahead
                    // must be, to the bit, what this engine solves
                    // (`Debug` prints every field, each float in its
                    // shortest round-trip digits).
                    if cfg!(debug_assertions) && stats.nodes_solved_ahead.is_multiple_of(16) {
                        let again = node_lp.solve(&lower, &upper, node.warm.as_deref(), NODE_RULE);
                        debug_assert!(
                            format!("{lp:?}") == format!("{again:?}"),
                            "node {} solved ahead differs from its re-solve",
                            node.id
                        );
                    }
                    lp
                }
                None => node_lp.solve(&lower, &upper, node.warm.as_deref(), NODE_RULE),
            };
            stats.nodes += 1;
            stats.record_lp(&lp);
            match lp.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => return Err(SolveError::Unbounded),
                LpStatus::IterationLimit => {
                    // Abandoning the subtree is fine, forgetting it is
                    // not: its parent bound stays in the accounting.
                    hit_limit = true;
                    abandoned_bound = abandoned_bound.min(entry.bound);
                    continue;
                }
                LpStatus::Optimal => {}
            }
            debug_assert!(
                lp.objective.is_finite(),
                "optimal node LP with non-finite objective {}",
                lp.objective
            );
            let pruned = incumbent
                .as_ref()
                .is_some_and(|(inc_obj, _)| lp.objective >= inc_obj - config.abs_gap_tol);
            if pruned && incumbent_is_seed {
                stats.nodes_pruned_by_seed += 1;
            }
            // Periodic diving: every 256 nodes, try to round this node's
            // LP into a better incumbent (cheap thanks to warm starts).
            if !pruned && stats.nodes.is_multiple_of(256) {
                let dive_start = Instant::now();
                let found = dive(
                    model,
                    config,
                    &mut node_lp,
                    &lower,
                    &upper,
                    &lp,
                    &int_vars,
                    &mut stats,
                    start,
                );
                stats.dive_seconds += dive_start.elapsed().as_secs_f64();
                if let Some((obj, values)) = found {
                    if incumbent.as_ref().is_none_or(|(io, _)| obj < *io) {
                        incumbent = Some((obj, values));
                        incumbent_is_seed = false;
                    }
                }
            }
            if tree.expand(&entry, &mut lp, &lower, &upper, &int_vars, pruned) {
                let (obj, values) = snap(model, &lp, &int_vars);
                if incumbent.as_ref().is_none_or(|(io, _)| obj < *io) {
                    incumbent = Some((obj, values));
                    incumbent_is_seed = false;
                }
            }
        }
        Ok(())
    })?;
    let shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.lp_solves_discarded = shared.done.len() + shared.discarded;
    stats.held_installs = node_lp.held_installs();

    stats.solve_seconds = start.elapsed().as_secs_f64();
    stats.mip_seconds =
        (stats.solve_seconds - stats.setup_seconds - stats.root_lp_seconds).nmax(0.0);
    stats.hit_limit = hit_limit;
    let open_bound = tree
        .heap
        .iter()
        .map(|e| e.bound)
        .fold(f64::INFINITY, nan::fmin)
        .nmin(best_open_bound)
        .nmin(abandoned_bound);
    match incumbent {
        Some((obj, values)) => {
            stats.best_bound = if tree.heap.is_empty() && !hit_limit {
                obj
            } else {
                open_bound.min(obj)
            };
            debug_assert!(
                stats.best_bound <= obj + tol::PRIMAL_FEAS,
                "best_bound {} overclaims incumbent {}",
                stats.best_bound,
                obj
            );
            stats.absolute_gap = (obj - stats.best_bound).nmax(0.0);
            stats.gap = stats.absolute_gap / obj.abs().nmax(1.0);
            let status =
                if stats.absolute_gap <= config.abs_gap_tol || stats.gap <= config.rel_gap_tol {
                    Status::Optimal
                } else {
                    Status::Feasible
                };
            certify(model, status, obj, values, stats, audit)
        }
        None if hit_limit => Err(SolveError::NoIncumbent),
        None => Err(SolveError::Infeasible),
    }
}

/// Adds one static audit's findings to the report and refuses the solve,
/// with every finding so far, when any is reject-level.
fn admit(audit: &mut AuditReport, issues: Vec<AuditIssue>) -> Result<(), SolveError> {
    audit.issues.extend(issues);
    if audit.issues.iter().any(|i| i.severity == Severity::Reject) {
        return Err(SolveError::InvalidModel(std::mem::take(&mut audit.issues)));
    }
    Ok(())
}

/// The one way a solution leaves the solver: the incumbent's MIP
/// certificate is checked against the original model into `audit`, which
/// already holds the static findings and the root LP certificate, and any
/// violation of either certificate refuses it. So every returned
/// solution's `stats.audit` is certified clean.
fn certify(
    model: &Model,
    status: Status,
    objective: f64,
    values: Vec<f64>,
    mut stats: SolveStats,
    mut audit: AuditReport,
) -> Result<Solution, SolveError> {
    audit.model_checked = true;
    check_mip_certificate(
        model,
        &values,
        objective,
        &stats,
        &AuditConfig {},
        &mut audit,
    );
    if !audit.violations.is_empty() {
        return Err(SolveError::Uncertified(audit.violations));
    }
    stats.audit = audit;
    Ok(Solution {
        status,
        objective,
        values,
        stats,
    })
}

/// Returns the integer variable with the most fractional LP value.
pub(crate) fn most_fractional(values: &[f64], int_vars: &[usize]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &j in int_vars {
        let v = values[j];
        let frac = (v - v.round()).abs();
        if frac > tol::PRIMAL_FEAS {
            let dist = (v - v.floor() - 0.5).abs(); // 0 = most fractional
            match best {
                Some((_, bd)) if dist >= bd => {}
                _ => best = Some((j, dist)),
            }
        }
    }
    best.map(|(j, _)| j)
}

/// Snaps integer values and recomputes the objective.
fn snap(model: &Model, lp: &LpResult, int_vars: &[usize]) -> (f64, Vec<f64>) {
    let mut values = lp.values[..model.num_vars()].to_vec();
    for &j in int_vars {
        values[j] = values[j].round();
    }
    let obj = model.objective().eval(&values);
    (obj, values)
}

/// Iterated rounding/diving heuristic: repeatedly fix near-integral
/// variables and re-solve, hoping to land on a feasible integral point.
///
/// Each step's LP starts from the basis the last one returned, which is
/// the one `node_lp` holds: the engine installs it by applying the bounds
/// the step changed. The first step refactorizes, as every node solve
/// does: its basis is another solve's, maybe the look-ahead helper's, and
/// what it returns must not depend on which engine that was. Every later
/// step keeps the factors the step before left
/// (`Simplex::solve_dive_step`): steps take a pivot or two each, and
/// rebuilding the LU at each was most of a dive's time. Only the search
/// thread dives, so those factors are a function of the dive's own steps
/// and the plan of the serial search. The step's own pass visits only
/// what can have moved (see [`DiveFixings`]), and no LP result is cloned:
/// the current one lends its basis to the next solve.
#[allow(clippy::too_many_arguments)]
fn dive(
    model: &Model,
    config: &SolveConfig,
    node_lp: &mut Simplex<'_>,
    root_lower: &[f64],
    root_upper: &[f64],
    root: &LpResult,
    int_vars: &[usize],
    stats: &mut SolveStats,
    start: Instant,
) -> Option<(f64, Vec<f64>)> {
    let mut lower = root_lower.to_vec();
    let mut upper = root_upper.to_vec();
    let mut fixings = DiveFixings::new(int_vars, model.num_vars());
    let mut current = Cow::Borrowed(root);
    // Every round fixes at least one more integer, so a full sweep
    // needs at most one round per integer variable.
    let max_rounds = int_vars.len().max(64);
    for round in 0..max_rounds {
        if start.elapsed().as_secs_f64() > config.time_limit_seconds * 0.5 {
            return None;
        }
        let basic = current.basis.as_ref().map_or(&[][..], |b| &b.basis[..]);
        let Some(least) = fixings.step(&current.values, basic, &mut lower, &mut upper) else {
            let (obj, values) = snap(model, &current, int_vars);
            if model.violations(&values, tol::DUAL_FEAS).is_empty() {
                return Some((obj, values));
            }
            return None;
        };
        // Round the least fractional remaining one.
        let fixed = least.map(|j| {
            let v = current.values[j]
                .round()
                .clamp(root_lower[j], root_upper[j]);
            lower[j] = v;
            upper[j] = v;
            (j, v)
        });
        let warm = current.basis.as_ref();
        let mut lp = if round == 0 {
            node_lp.solve(&lower, &upper, warm, NODE_RULE)
        } else {
            node_lp.solve_dive_step(&lower, &upper, warm, NODE_RULE)
        };
        stats.record_lp(&lp);
        stats.dive_lps += 1;
        if lp.status != LpStatus::Optimal {
            // Rounding to nearest may have cut off feasibility;
            // retry the opposite rounding direction once.
            let (j, v) = fixed?;
            let frac = current.values[j];
            let other = if v >= frac { frac.floor() } else { frac.ceil() };
            let other = other.clamp(root_lower[j], root_upper[j]);
            if other == v {
                return None;
            }
            lower[j] = other;
            upper[j] = other;
            lp = node_lp.solve(&lower, &upper, warm, NODE_RULE);
            stats.record_lp(&lp);
            stats.dive_lps += 1;
            if lp.status != LpStatus::Optimal {
                return None;
            }
        }
        if let Some((j, _)) = fixed {
            fixings.settle(j, lower[j]);
        }
        current = Cow::Owned(lp);
    }
    None
}

/// The dive's bookkeeping over its integer variables. An integer the dive
/// fixed at an integral value and that its LP left nonbasic rests exactly
/// on that value: its fractionality is zero, and fixing it again at its
/// rounded value writes the bits it already has. So a step visits only the
/// integers not yet fixed and the fixed ones the LP made basic — whose
/// value may have drifted off the bound — in `int_vars` order, and does
/// to them what a pass over every integer would (that pass is kept as
/// the oracle `oracles::full_scan_step`). Both sets are bitsets
/// over positions in `int_vars`, so a step walks their union in order
/// without sorting or merging.
pub(crate) struct DiveFixings<'a> {
    int_vars: &'a [usize],
    /// Position in `int_vars` of each variable; `u32::MAX` when it is
    /// continuous.
    slot: Vec<u32>,
    /// One bit per position: the integer is not fixed at an integral
    /// value.
    open: Vec<u64>,
    /// One bit per position: a fixed integer the current LP made basic.
    basic: Vec<u64>,
}

impl<'a> DiveFixings<'a> {
    /// Nothing fixed yet, over the `int_vars` of a model of `num_vars`.
    pub(crate) fn new(int_vars: &'a [usize], num_vars: usize) -> Self {
        let mut slot = vec![u32::MAX; num_vars];
        let mut open = vec![0u64; int_vars.len().div_ceil(64)];
        for (k, &j) in int_vars.iter().enumerate() {
            slot[j] = crate::cast::idx32(k);
            open[k / 64] |= 1 << (k % 64);
        }
        let basic = vec![0; open.len()];
        Self {
            int_vars,
            slot,
            open,
            basic,
        }
    }

    /// One step over the LP `values`, whose basic columns are `basic`:
    /// `None`, the bounds untouched, when every integer is within the
    /// tolerance of an integer; otherwise each integer that is gets fixed
    /// at its rounded value in `lower`/`upper`, and the answer names the
    /// least fractional of the others (the first in `int_vars` order on a
    /// tie).
    pub(crate) fn step(
        &mut self,
        values: &[f64],
        basic: &[usize],
        lower: &mut [f64],
        upper: &mut [f64],
    ) -> Option<Option<usize>> {
        self.basic.fill(0);
        for &b in basic {
            if let Some(&k) = self.slot.get(b).filter(|&&k| k != u32::MAX) {
                let (word, bit) = (crate::cast::idx(k) / 64, 1 << (k % 64));
                if self.open[word] & bit == 0 {
                    self.basic[word] |= bit;
                }
            }
        }
        let visit: Vec<usize> = self.visited().collect();
        let frac = |k: usize| {
            let v = values[self.int_vars[k]];
            (v - v.round()).abs()
        };
        if !visit.iter().any(|&k| frac(k) > tol::PRIMAL_FEAS) {
            return None;
        }
        let mut least: Option<(usize, f64)> = None;
        for k in visit {
            let j = self.int_vars[k];
            let v = values[j];
            let frac = (v - v.round()).abs();
            if frac <= tol::PRIMAL_FEAS {
                lower[j] = v.round();
                upper[j] = v.round();
                self.open[k / 64] &= !(1 << (k % 64));
            } else {
                match least {
                    Some((_, bf)) if frac >= bf => {}
                    _ => least = Some((j, frac)),
                }
            }
        }
        Some(least.map(|(j, _)| j))
    }

    /// The positions a step visits, ascending.
    fn visited(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.open.iter().zip(&self.basic).enumerate();
        words.flat_map(|(word, (&open, &basic))| {
            let mut bits = open | basic;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = word * 64 + crate::cast::idx(bits.trailing_zeros());
                    bits &= bits - 1;
                    k
                })
            })
        })
    }

    /// Records that integer `j` now sits fixed at `value`: for good when
    /// the value is integral, else among the visited ones (a bound it
    /// was clamped to need not be integral).
    pub(crate) fn settle(&mut self, j: usize, value: f64) {
        let k = crate::cast::idx(self.slot[j]);
        let bit = 1 << (k % 64);
        if value.round().to_bits() == value.to_bits() {
            self.open[k / 64] &= !bit;
        } else {
            self.open[k / 64] |= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditCheck;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    fn entry(bound: f64, depth: usize) -> HeapEntry {
        HeapEntry {
            bound,
            node: Node {
                id: 0,
                path: vec![(0, true, 0.0); depth],
                frac: 0.0,
                warm: None,
            },
        }
    }

    #[test]
    fn heap_entry_equality_agrees_with_its_ordering() {
        let bounds = [0.0, -0.0, f64::NAN, -f64::NAN, 1.0, f64::INFINITY];
        for &a in &bounds {
            for &b in &bounds {
                for (da, db) in [(1, 1), (1, 2)] {
                    let (x, y) = (entry(a, da), entry(b, db));
                    assert_eq!(
                        x == y,
                        x.cmp(&y) == Ordering::Equal,
                        "bounds {a:?}/{b:?}, depths {da}/{db}"
                    );
                }
            }
        }
        assert!(entry(f64::NAN, 1) == entry(f64::NAN, 1));
        assert!(entry(0.0, 1) != entry(-0.0, 1));
        // Smaller bound pops first; deeper first on ties.
        assert!(entry(-0.0, 1) > entry(0.0, 1));
        assert!(entry(1.0, 2) > entry(1.0, 1));
    }

    #[test]
    fn node_bounds_are_root_bounds_with_the_path_applied_in_order() {
        let (root_lower, root_upper) = (vec![0.0, 1.0, 0.0], vec![10.0, 9.0, 7.0]);
        let root = Node {
            id: 0,
            path: Vec::new(),
            frac: 0.0,
            warm: None,
        };
        // x0 <= 4, then x1 >= 2, then x0 again: x0 <= 1.
        let node = root
            .child(1, (0, true, 4.0), 0.5, None)
            .child(2, (1, false, 2.0), 0.5, None)
            .child(3, (0, true, 1.0), 0.5, None);
        assert_eq!(node.path.len(), 3);
        // Scratch vectors arrive dirty from the previous node.
        let (mut lower, mut upper) = (vec![5.0; 7], vec![-1.0]);
        node.bounds_into(&root_lower, &root_upper, &mut lower, &mut upper);
        assert_eq!(lower, vec![0.0, 2.0, 0.0]);
        assert_eq!(upper, vec![1.0, 9.0, 7.0]);
        // The parent's path is untouched by its children.
        root.bounds_into(&root_lower, &root_upper, &mut lower, &mut upper);
        assert_eq!((lower, upper), (root_lower, root_upper));
    }

    /// The walk files results under ids it hands out itself; once the
    /// search has pruned a node the same id names another node. A result
    /// filed for another path must never reach the search, only count as
    /// discarded.
    #[test]
    fn a_result_filed_for_another_path_is_never_taken() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 4.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        let sf = StandardForm::from_model(&m);
        let mut engine = Simplex::new(&sf, SimplexConfig::default());
        let lp = engine.solve(&sf.lower, &sf.upper, None, NODE_RULE);
        let root = Node {
            id: 0,
            path: Vec::new(),
            frac: 0.0,
            warm: None,
        };
        let walked = root.child(1, (0, true, 3.0), 0.5, None);
        let popped = root.child(1, (0, false, 4.0), 0.5, None);
        let shared = Mutex::new(Shared::default());
        let mut ahead = LookAhead::enter(&shared);
        ahead.started = true;
        let heap = BinaryHeap::new();
        lock(&shared).file(&walked, lp.clone());
        let taken = ahead.take(&popped, &heap, &mut engine, &sf.lower, &sf.upper);
        assert!(taken.is_none(), "took a result solved for another path");
        {
            let shared = lock(&shared);
            assert_eq!(shared.discarded, 1);
            assert!(shared.done.is_empty());
        }
        // Filed for the popped node's own path, the result is taken.
        lock(&shared).file(&popped, lp);
        let taken = ahead.take(&popped, &heap, &mut engine, &sf.lower, &sf.upper);
        assert!(taken.is_some());
        assert_eq!(lock(&shared).discarded, 1);
    }

    fn stall_config(limit: usize) -> SolveConfig {
        SolveConfig {
            abs_gap_tol: 0.5,
            stall_node_limit: limit,
            ..SolveConfig::default()
        }
    }

    #[test]
    fn a_bound_rise_within_the_gap_tolerance_does_not_reset_the_stall() {
        let config = stall_config(3);
        let mut stall = Stall::new();
        assert!(!stall.stalled(10.0, &config));
        assert!(!stall.stalled(10.25, &config));
        // 0.5 above the last rise is not a rise.
        assert!(!stall.stalled(10.5, &config));
        assert_eq!(stall.nodes, 2);
        assert!(stall.stalled(10.5, &config));
    }

    #[test]
    fn a_bound_rise_beyond_the_gap_tolerance_resets_the_stall() {
        let config = stall_config(3);
        let mut stall = Stall::new();
        for bound in [10.0, 10.0, 10.0] {
            assert!(!stall.stalled(bound, &config));
        }
        assert_eq!(stall.nodes, 2);
        assert!(!stall.stalled(10.75, &config));
        assert_eq!(stall.nodes, 0);
        // The count starts over from the new bound.
        assert!(!stall.stalled(10.75, &config));
        assert!(!stall.stalled(11.0, &config));
        assert!(stall.stalled(11.25, &config));
    }

    #[test]
    fn the_stall_rule_fires_on_exactly_the_limit_th_flat_pop() {
        for limit in 1..=8 {
            let config = stall_config(limit);
            let mut stall = Stall::new();
            // The first pop is a rise from no bound at all.
            assert!(!stall.stalled(-3.0, &config));
            for flat in 1..limit {
                assert!(!stall.stalled(-3.0, &config), "limit {limit}, pop {flat}");
            }
            assert!(stall.stalled(-3.0, &config), "limit {limit}");
        }
    }

    /// A twelve-item knapsack that needs nodes, whose best open bound
    /// does not rise on every pop.
    fn knapsack_needing_nodes() -> Model {
        let mut m = Model::new();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        for i in 0..12 {
            let x = m.add_var(format!("x{i}"), VarType::Binary, 0.0, 1.0);
            obj += LinExpr::term(x, -((i % 5 + 1) as f64) - 0.37);
            w += LinExpr::term(x, (i % 7 + 1) as f64);
        }
        m.add_constraint("w", w, Sense::Le, 11.0);
        m.set_objective(obj);
        m
    }

    /// With the stall rule off the search proves the knapsack's optimum;
    /// with a budget of one flat pop it stops on the dive's incumbent and
    /// reports the gap it leaves.
    #[test]
    fn a_stall_budget_of_zero_searches_to_proof_and_one_stops_early() {
        let m = knapsack_needing_nodes();
        let off = m.solve_with(&SolveConfig::default()).unwrap();
        assert_eq!(off.status, Status::Optimal);
        assert!(!off.stats.hit_limit);

        let one = m
            .solve_with(&SolveConfig {
                stall_node_limit: 1,
                ..SolveConfig::default()
            })
            .unwrap();
        assert!(one.stats.hit_limit);
        assert!(one.stats.nodes < off.stats.nodes);
        assert!(one.stats.gap.is_finite() && one.stats.gap > 0.0);
        assert!(one.stats.best_bound <= off.objective + 1e-9);
        assert!(one.objective >= off.objective - 1e-9);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, weights 3,4,2, cap 6 → best is a+c = 17? or b+c = 20.
        let mut m = Model::new();
        let a = m.add_var("a", VarType::Binary, 0.0, 1.0);
        let b = m.add_var("b", VarType::Binary, 0.0, 1.0);
        let c = m.add_var("c", VarType::Binary, 0.0, 1.0);
        m.add_constraint("w", 3.0 * a + 4.0 * b + 2.0 * c, Sense::Le, 6.0);
        m.set_objective(-10.0 * a - 13.0 * b - 7.0 * c);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round(), -20.0);
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 1);
    }

    #[test]
    fn the_finish_step_refuses_what_either_certificate_rejects() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        let s = m.solve().unwrap();
        assert!(s.stats.audit.certified_clean() && s.stats.audit.model_checked);
        assert_eq!(s.int_value(x), 3);
        let finish = |values: Vec<f64>, objective: f64, best_bound: f64, audit| {
            let stats = SolveStats {
                best_bound,
                ..SolveStats::default()
            };
            certify(&m, Status::Optimal, objective, values, stats, audit)
        };
        let clean = finish(vec![3.0], -3.0, -3.0, AuditReport::default()).expect("certified");
        assert!(clean.stats.audit.certified_clean() && clean.stats.audit.model_checked);

        // A clean MIP point whose root LP certificate failed.
        let mut failed_root = AuditReport::default();
        failed_root.violations.push(AuditIssue {
            check: AuditCheck::DualInfeasible,
            severity: Severity::Reject,
            subject: "col 0".into(),
            detail: "d < 0 at lower bound".into(),
        });
        for (refused, check) in [
            // A violated row: x = 4 breaks 2x ≤ 7.
            (
                finish(vec![4.0], -4.0, -4.0, AuditReport::default()),
                AuditCheck::PrimalInfeasible,
            ),
            // An overclaimed bound: -2 claims more than the incumbent's -3.
            (
                finish(vec![3.0], -3.0, -2.0, AuditReport::default()),
                AuditCheck::BoundOverclaim,
            ),
            (
                finish(vec![3.0], -3.0, -3.0, failed_root),
                AuditCheck::DualInfeasible,
            ),
        ] {
            match refused {
                Err(SolveError::Uncertified(v)) => {
                    assert!(v.iter().any(|i| i.check == check), "{check:?}: {v:?}")
                }
                other => panic!("{check:?}: expected Uncertified, got {other:?}"),
            }
        }
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 7, x integer → 3 (LP gives 3.5).
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 100.0);
        m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
        m.set_objective(-1.0 * x);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), 3);
    }

    #[test]
    fn assignment_problem_integral() {
        // 3x3 assignment, cost matrix with known optimum 1+2+3 on diagonal-ish.
        let costs = [[1.0, 5.0, 9.0], [6.0, 2.0, 8.0], [7.0, 4.0, 3.0]];
        let mut m = Model::new();
        let mut x = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                x.push(m.add_var(format!("x{i}{j}"), VarType::Binary, 0.0, 1.0));
            }
        }
        for i in 0..3 {
            m.add_constraint(
                format!("row{i}"),
                LinExpr::sum((0..3).map(|j| (x[i * 3 + j], 1.0))),
                Sense::Eq,
                1.0,
            );
            m.add_constraint(
                format!("col{i}"),
                LinExpr::sum((0..3).map(|j| (x[j * 3 + i], 1.0))),
                Sense::Eq,
                1.0,
            );
        }
        let mut obj = LinExpr::zero();
        for i in 0..3 {
            for j in 0..3 {
                obj += LinExpr::term(x[i * 3 + j], costs[i][j]);
            }
        }
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round(), 6.0);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("a", 2.0 * x, Sense::Eq, 5.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
    }

    #[test]
    fn fractional_equality_infeasible_for_integers() {
        // x + y = 2.5 with x, y integer → infeasible.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 10.0);
        m.add_constraint("s", 1.0 * x + 1.0 * y, Sense::Eq, 2.5);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3x + 2y, x integer >= 1.2 → 2, y >= 0.3 continuous.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("cx", LinExpr::from(x), Sense::Ge, 1.2);
        m.add_constraint("cy", LinExpr::from(y), Sense::Ge, 0.3);
        m.set_objective(3.0 * x + 2.0 * y);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), 2);
        assert!((s.value(y) - 0.3).abs() < 1e-6);
        assert!((s.objective - 6.6).abs() < 1e-6);
    }

    #[test]
    fn equality_knapsack_needs_search() {
        // Find integers with 7a + 5b + 3c = 20, minimize a + b + c → a=1,b=2,c=1 (4)
        // or a=2,b=0,c=2 (4)... check optimum value 4.
        let mut m = Model::new();
        let a = m.add_var("a", VarType::Integer, 0.0, 10.0);
        let b = m.add_var("b", VarType::Integer, 0.0, 10.0);
        let c = m.add_var("c", VarType::Integer, 0.0, 10.0);
        m.add_constraint("sum", 7.0 * a + 5.0 * b + 3.0 * c, Sense::Eq, 20.0);
        m.set_objective(1.0 * a + 1.0 * b + 1.0 * c);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round(), 4.0);
        let (av, bv, cv) = (s.int_value(a), s.int_value(b), s.int_value(c));
        assert_eq!(7 * av + 5 * bv + 3 * cv, 20);
    }

    #[test]
    fn node_limit_reports_gap() {
        // A 1-node limit: the heuristic provides an incumbent and the gap
        // is reported.
        let m = knapsack_needing_nodes();
        let config = SolveConfig {
            max_nodes: 1,
            ..SolveConfig::default()
        };
        let s = m.solve_with(&config).unwrap();
        assert!(s.is_usable());
        assert!(s.stats.best_bound <= s.objective + 1e-9);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 4.0);
        m.add_constraint("c", 1.0 * x, Sense::Le, 3.0);
        m.set_objective(-1.0 * x);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn max_of_zero_linearization_is_exact() {
        // min max(0, x - 3) with x >= 5 forced → 2.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("force", LinExpr::from(x), Sense::Ge, 5.0);
        let t = m.max_of_zero("pen", LinExpr::from(x) - 3.0);
        m.set_objective(LinExpr::from(t));
        let s = m.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
        // And when the inner expression is negative the penalty is zero.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 2.0);
        let t = m.max_of_zero("pen", LinExpr::from(x) - 3.0);
        m.set_objective(LinExpr::from(t) + 0.001 * x);
        let s = m.solve().unwrap();
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn max_over_linearization_is_exact() {
        // min max(x, y, 4) with x >= 6 → 6.
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constraint("fx", LinExpr::from(x), Sense::Ge, 6.0);
        let t = m.max_over(
            "m",
            [LinExpr::from(x), LinExpr::from(y), LinExpr::constant(4.0)],
        );
        m.set_objective(LinExpr::from(t));
        let s = m.solve().unwrap();
        assert!(
            (s.objective - 6.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }
}
