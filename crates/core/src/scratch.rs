//! Reusable solver state: the per-instance [`TreeArena`] plus every dense
//! buffer the algorithms sweep over.
//!
//! The solvers in this crate are bottom-up passes that repeatedly touch
//! per-node and per-client state. Allocating that state per solve (let alone
//! per *stage*, as the first `multiple-bin` implementation did with its
//! `HashMap`s) dominates the wall clock on large trees. [`SolverScratch`]
//! owns all of it as flat `Vec` slabs indexed by raw node index:
//!
//! * the arena is (re)built by [`SolverScratch::load_arena`] or streamed in
//!   by [`SolverScratch::load_arena_from_stream`]; buffers are then sized
//!   (and old state cleared) once per solve by the per-solver
//!   `prepare_single_gen` / `prepare_single_nod` / `prepare_multiple_bin`
//!   methods — split per algorithm so a million-node `single-*` solve only
//!   allocates its own three slot rows, never the ~20 Multiple-policy
//!   slabs (the memory audit of the 1M-client tier);
//! * nested buffers (`Vec<Vec<…>>`) are cleared, never dropped, so their
//!   heap blocks survive across stages *and* across solves;
//! * the stage engine's router state lives in its own `RouterBufs`
//!   sub-struct (`crate::stage::router`) so routing calls can borrow it as
//!   one unit next to the tree and demand rows.
//!
//! Callers that solve many instances in a row (benchmarks, experiment
//! sweeps, servers) should create one scratch and thread it through
//! [`crate::multiple_bin_with`] / [`crate::single_gen_with`] /
//! [`crate::single_nod_with`]; the one-shot entry points create a fresh
//! scratch internally, so results never depend on reuse (a property pinned
//! by `tests/scratch_reuse.rs`).
//!
//! # Width narrowing: why the Multiple-policy volume slabs are 64-bit
//!
//! The memory audit of the million-client tier showed 128-bit volume slabs
//! dominating the 10.8 GB peak of the 2²⁰ `multiple-bin` cell. Every one of
//! those cells holds a *request volume*, and volumes are globally bounded:
//! the `multiple-bin` entry points reject instances whose **summed** demand
//! exceeds [`Tree::MAX_REQUESTS`] (`u64::MAX / 4 ≈ 2⁶²`) via
//! `check_multiple_bin`, and [`crate::serve::ServeEngine`] maintains the
//! same bound across demand deltas. From that single invariant:
//!
//! * any genuine volume (a demand row, a routed load, a DP `m`-value, a
//!   subtree's issued demand in `sub_demand`) is ≤ the instance total
//!   ≤ 2⁶² — it fits `u64` with two spare bits;
//! * the sum of two genuine volumes from **disjoint** demand (the only
//!   sums the solvers form: sibling DP parts, a node's own demand plus its
//!   children's) is again ≤ the instance total — still ≤ 2⁶², so `u64`
//!   additions of genuine values can never wrap;
//! * the sparse stage DP (`crate::stage::chain_dp`) stores only genuine
//!   values — a vector's value at `r = 0` and its positive steps — so it
//!   needs no infeasibility sentinel at all (`tests/proptest_stage_dp.rs`
//!   pins the 64-bit pass against a 128-bit reference near the bound).
//!
//! The bound is enforced only where the narrowed slabs are: `multiple-bin`
//! (serial, parallel and serving entry points) and the stage machinery.
//! The `single_*` solvers keep their 128-bit accumulators (`sg_total`,
//! `single-nod` group sums) and deliberately accept larger totals — their
//! per-node state is a few dozen MB even at a million nodes, so narrowing
//! buys nothing there.

use crate::error::SolveError;
use crate::multiple_bin::PendingFlow;
use crate::stage::router::RouterBufs;
use crate::stage::StageStats;
use rp_tree::arena::{StreamNode, TreeArena, NO_PARENT};
use rp_tree::{Dist, NodeId, Requests, Tree, TreeError};

/// One `(client, amount)` assignment fragment on a replica.
pub(crate) type AssignPair = (u32, Requests);

/// One buffered assignment write of a stage commit: `amount` requests of
/// `client` onto the replica at `node`. The commit route appends these to
/// [`SolverScratch::commit_log`] instead of mutating `assigned` / `load`
/// directly, so one routing pass both proves feasibility and produces the
/// writes to flush (see `crate::stage`).
pub(crate) type CommitEntry = (u32, u32, Requests);

/// A pending `single-nod` group: requests of `clients`, aggregated at
/// `node` (an ancestor of each of them), still to be served at `node` or
/// above.
#[derive(Debug, Clone, Default)]
pub(crate) struct Group {
    pub node: u32,
    pub total: Requests,
    pub clients: Vec<AssignPair>,
}

/// Reusable state for all three algorithms (see the module docs).
///
/// The scratch is deliberately opaque: its public surface is construction
/// plus the read-only [`SolverScratch::stage_stats`] counters — everything
/// else is an implementation detail of the solvers.
#[derive(Debug, Default)]
pub struct SolverScratch {
    /// Flat view of the instance's tree.
    pub(crate) arena: TreeArena,
    /// Per-node deadline: the highest ancestor allowed to serve requests
    /// issued there under `dmax` (only client rows are read).
    pub(crate) deadline: Vec<u32>,
    /// `depth(deadline[v])`, the EDF sort key.
    pub(crate) deadline_depth: Vec<u32>,

    // --- multiple-bin sweep state ---
    /// The `req(j)` pending heaps of the sweep (see
    /// [`mod@crate::multiple_bin`]'s `PendingFlow`).
    pub(crate) flow: PendingFlow,
    /// Assignment fragments of the replica at each node (empty when none).
    pub(crate) assigned: Vec<Vec<AssignPair>>,
    /// Whether each node currently holds a replica.
    pub(crate) in_r: Vec<bool>,
    /// Total load of the replica at each node.
    pub(crate) load: Vec<Requests>,
    /// Requests issued inside `subtree(v)`, written by the sweep as it
    /// passes `v`. A stage at `j` prices the volume its scope skipped from
    /// this row alone (see [`crate::stage`]'s request-conservation note).
    pub(crate) sub_demand: Vec<u64>,

    // --- per-stage state ---
    /// Demand that must be served inside the stage subtree, per client.
    /// During scoped collection the `demand_clients` list doubles as the
    /// closure work queue (clients are appended as replica assignments are
    /// collected and processed by index).
    pub(crate) demand: Vec<u64>,
    /// Clients with non-zero [`SolverScratch::demand`] (cleanup list).
    pub(crate) demand_clients: Vec<u32>,
    /// Replicas in the stage's affected scope (their assignments are
    /// collected into the demand pool and re-routed by the commit).
    pub(crate) existing: Vec<u32>,
    /// Buffered assignment writes of the stage commit route (flushed into
    /// `assigned` / `load` only once the route proves feasible).
    pub(crate) commit_log: Vec<CommitEntry>,
    /// Test-only switch: stages compute their affected scope by naive
    /// whole-subtree fixpoint scans and commit with the historical
    /// check-then-write double route. Semantics are identical to the
    /// incremental path (pinned by `tests/proptest_stage_commit.rs`);
    /// never set in production. Survives [`SolverScratch::prepare_multiple_bin`] so one
    /// flagged scratch can reference-solve many instances.
    pub(crate) naive_stage_commit: bool,
    /// Free nodes eligible to host a new replica this stage.
    pub(crate) candidates: Vec<u32>,
    /// Active-forest position of each candidate (parallel to `candidates`).
    pub(crate) cand_pos: Vec<u32>,
    /// The stage's *active forest*: the union of the demand clients' paths
    /// to the stage root, sorted by post-order position — the only nodes a
    /// routing sweep has to visit.
    pub(crate) active_nodes: Vec<u32>,
    /// Stage stamp per node; `== stage_id` means active this stage.
    pub(crate) active_mark: Vec<u32>,
    /// Position of each node in `active_nodes` (valid where active). Both
    /// stage-DP modes index their per-node vectors by it.
    pub(crate) active_pos: Vec<u32>,
    /// Stage stamp per node; `== stage_id` means on a *stuck* client's
    /// path to the stage root — the sub-forest the scope collection walks
    /// first, and the one the DP fallback keeps of the scope forest.
    pub(crate) stuck_mark: Vec<u32>,
    /// Monotone stamp distinguishing stages without clearing marks.
    pub(crate) stage_id: u32,
    /// Minimum deadline depth of the demand below each node — the
    /// eligibility aggregate of the stage engine (valid on active nodes).
    pub(crate) min_dd: Vec<u32>,
    /// Current candidate subset (indices into `candidates`).
    pub(crate) subset_idx: Vec<usize>,
    /// Best feasible placement found so far in a stage.
    pub(crate) best_set: Vec<u32>,
    /// Node-list staging buffer for placements being scored.
    pub(crate) pick_buf: Vec<u32>,
    /// Stage counters of the current / last solve.
    pub(crate) stats: StageStats,
    /// Serve-mode journal + spine marks (`crate::serve`), installed by
    /// [`crate::serve::ServeEngine`] around its own sweeps and `None` for
    /// every other entry point — batch solves and the parallel workers
    /// never look at it. Boxed so the idle scratch stays lean; survives
    /// [`SolverScratch::prepare_multiple_bin`] by construction (the engine
    /// re-installs it per solve).
    pub(crate) serve: Option<Box<crate::serve::ServeCtx>>,
    /// Per-solve deadline: `(must finish by, budget in ms)`, checked by the
    /// sweep between nodes and before each stage; blown budgets surface as
    /// [`crate::SolveError::DeadlineExceeded`]. Installed by
    /// [`crate::serve::ServeEngine`] around its own solves and `None` for
    /// every other entry point. Like [`SolverScratch::serve`], survives
    /// [`SolverScratch::prepare_multiple_bin`] by construction (the engine
    /// sets and clears it around each solve).
    pub(crate) solve_deadline: Option<(std::time::Instant, u64)>,

    // --- EDF router state (see `stage::router`) ---
    /// Live rows and checkpoints of the stage router.
    pub(crate) router: RouterBufs,

    // --- enumeration prune state ---
    /// Demand clients not covered by any existing replica.
    pub(crate) uncovered: Vec<u32>,
    /// Per-candidate cover mask over the first 64 uncovered clients.
    pub(crate) cand_cover: Vec<u64>,
    /// Per-candidate reach mask over the first 64 travelling clients.
    pub(crate) cand_reach: Vec<u64>,
    /// `(client, volume)` of the travelling clients behind the reach bits.
    pub(crate) travel_bits: Vec<(u32, u64)>,

    // --- placement scoring state ---
    /// Travelling volume still absorbable, per client.
    pub(crate) remaining: Vec<u64>,
    /// Clients with travelling volume, sorted tightest deadline first.
    pub(crate) travel_clients: Vec<u32>,
    /// Stage replicas sorted deepest first.
    pub(crate) spare_nodes: Vec<u32>,
    /// `(deadline depth, absorbed)` pairs before aggregation.
    pub(crate) breakdown: Vec<(u32, u64)>,

    // --- stage-DP state ---
    /// Pooled storage of the sparse stage-DP pass, both modes (see
    /// [`crate::stage::chain_dp`]): one segment store holding the per-node
    /// vectors and the backtrack's convolution layers.
    pub(crate) sdp: crate::stage::chain_dp::SparseDp,

    // --- single-gen state ---
    /// Pending `(client, requests)` fragments per node.
    pub(crate) sg_clients: Vec<Vec<AssignPair>>,
    /// Total pending volume per node.
    pub(crate) sg_total: Vec<u128>,
    /// Remaining distance allowance per node (`None` = unconstrained).
    pub(crate) sg_allow: Vec<Option<Dist>>,

    // --- single-nod state ---
    /// Pending groups per node.
    pub(crate) sn_groups: Vec<Vec<Group>>,
}

impl SolverScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused across solves.
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// The stage-engine counters of the solve last run through this
    /// scratch (zeroed at the start of each solve; only `multiple-bin`
    /// stages populate them).
    pub fn stage_stats(&self) -> &StageStats {
        &self.stats
    }

    /// Test-only window: makes stages compute their affected scope by the
    /// naive whole-subtree fixpoint reference and commit with the
    /// historical check-then-write double route, instead of the
    /// incremental closure walk and the fused buffered commit. Results are
    /// identical by construction — `tests/proptest_stage_commit.rs` pins
    /// that equivalence. Hidden: not part of the crate's API surface.
    #[doc(hidden)]
    pub fn set_naive_stage_commit(&mut self, naive: bool) {
        self.naive_stage_commit = naive;
    }

    /// No-op kept so the benchmark harness keeps building: its only
    /// caller is `reference_replicas` in `perfbench/src/cold.rs`.
    /// Hidden: not part of the crate's API surface.
    #[doc(hidden)]
    pub fn set_naive_warm_start(&mut self, _naive: bool) {}

    /// No-op kept so the benchmark harness keeps building: its only
    /// caller is `reference_replicas` in `perfbench/src/cold.rs`.
    /// Hidden: not part of the crate's API surface.
    #[doc(hidden)]
    pub fn set_warm_start_disabled(&mut self, _disabled: bool) {}

    /// Releases the sparse stage-DP segment slabs a solve can leave
    /// behind, returning their memory to the allocator. The per-node rows
    /// (assignment rows, router rows) are kept: they are sized by the
    /// loaded arena and the next solve needs them at full size anyway. The
    /// sweep's pending heaps need no release: each solve drops the previous
    /// one's, and within a solve they hold only live entries. Callers that
    /// solve instances of wildly different sizes through one scratch (the
    /// scaling bench walks 2⁶..2²⁰ clients) call this between cells so a
    /// small cell is not billed for the peak footprint of a huge one.
    pub fn shrink_to_fit_slabs(&mut self) {
        self.sdp.shrink_to_fit();
    }

    /// Read-only view of the instance arena currently loaded in this
    /// scratch (see [`SolverScratch::load_arena`] /
    /// [`SolverScratch::load_arena_from_stream`]).
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// Copies `tree`'s arena into the scratch, reusing its allocations. The
    /// copy is the scratch's own because `rp serve` mutates demand in it.
    /// Solver state is *not* reset here — each solver entry point calls its
    /// own `prepare_*` method, so a solve only sizes the slabs it actually
    /// sweeps.
    pub fn load_arena(&mut self, tree: &Tree) {
        self.arena.clone_from(tree.arena());
    }

    /// Streams an instance tree straight into the arena
    /// ([`TreeArena::rebuild_from_stream`]) — the memory-lean path of the
    /// million-client scaling tier: generator streams feed the flat arrays
    /// node-by-node, so the arena exists once, here, rather than also inside
    /// a [`Tree`]. Combine with the `*_arena` solver entry points of
    /// `crate::par`.
    ///
    /// # Errors
    ///
    /// Propagates the stream-validation errors of
    /// [`TreeArena::rebuild_from_stream`]; the arena is left cleared on
    /// failure.
    pub fn load_arena_from_stream<I>(&mut self, size_hint: usize, nodes: I) -> Result<(), TreeError>
    where
        I: IntoIterator<Item = StreamNode>,
    {
        self.arena.rebuild_from_stream(size_hint, nodes)
    }

    /// Sizes and resets the `single-gen` slot rows (indexed by node id) for
    /// the loaded arena. Called once per solve.
    pub(crate) fn prepare_single_gen(&mut self) {
        let n = self.arena.len();
        clear_nested(&mut self.sg_clients, n);
        reset(&mut self.sg_total, n, 0);
        reset(&mut self.sg_allow, n, None);
        self.stats = StageStats::default();
    }

    /// Sizes and resets the `single-nod` slot rows (indexed by node id) for
    /// the loaded arena. Called once per solve.
    pub(crate) fn prepare_single_nod(&mut self) {
        let n = self.arena.len();
        clear_nested(&mut self.sn_groups, n);
        self.stats = StageStats::default();
    }

    /// Sizes and resets every Multiple-policy slab (sweep state, stage
    /// state, router rows) for the loaded arena.
    /// Called once per solve; deadlines are computed separately by
    /// [`SolverScratch::prepare_deadlines`].
    pub(crate) fn prepare_multiple_bin(&mut self) {
        let n = self.arena.len();
        self.flow.prepare(n);
        clear_nested(&mut self.assigned, n);
        reset(&mut self.in_r, n, false);
        reset(&mut self.load, n, 0);
        reset(&mut self.demand, n, 0);
        reset(&mut self.remaining, n, 0);
        reset(&mut self.min_dd, n, u32::MAX);
        reset(&mut self.active_mark, n, 0);
        reset(&mut self.active_pos, n, 0);
        reset(&mut self.stuck_mark, n, 0);
        self.router.prepare(n);
        reset(&mut self.sub_demand, n, 0);
        self.commit_log.clear();
        self.stats = StageStats::default();
        self.stage_id = 0;
        self.demand_clients.clear();
        self.existing.clear();
        self.candidates.clear();
        self.cand_pos.clear();
        self.active_nodes.clear();
        self.subset_idx.clear();
        self.best_set.clear();
        self.pick_buf.clear();
        self.uncovered.clear();
        self.cand_cover.clear();
        self.cand_reach.clear();
        self.travel_bits.clear();
        self.travel_clients.clear();
        self.spare_nodes.clear();
        self.breakdown.clear();
    }

    /// Finishes an active forest whose nodes have been marked and pushed
    /// (by the stage engine's scope collection walk): ensures the stage
    /// root is present, sorts by post-order position (children before
    /// parents) and fills [`SolverScratch::active_pos`].
    pub(crate) fn seal_active_forest(&mut self, j: u32) {
        if self.active_mark[j as usize] != self.stage_id {
            self.active_mark[j as usize] = self.stage_id;
            self.active_nodes.push(j);
        }
        let SolverScratch { arena, active_nodes, active_pos, .. } = self;
        active_nodes.sort_unstable_by_key(|&u| arena.post_position(u));
        for (i, &u) in active_nodes.iter().enumerate() {
            active_pos[u as usize] = i as u32;
        }
        debug_assert_eq!(self.active_nodes.last(), Some(&j), "j closes its own forest");
    }

    /// Empties the replica slot of `u`: no assignment, no load. `in_r` is
    /// left to the caller.
    pub(crate) fn clear_slot(&mut self, u: u32) {
        self.assigned[u as usize].clear();
        self.load[u as usize] = 0;
    }

    /// Computes the deadline arrays for `dmax` (the Multiple sweep's
    /// distance budgets) — one pre-order pass of the arena, O(log depth)
    /// per node.
    pub(crate) fn prepare_deadlines(&mut self, dmax: Option<Dist>) {
        self.arena.compute_deadlines(dmax, &mut self.deadline);
        let n = self.arena.len();
        self.deadline_depth.clear();
        self.deadline_depth.extend(self.deadline.iter().map(|&d| self.arena.depth(d)));
        debug_assert_eq!(self.deadline_depth.len(), n);
    }
}

/// `vec.clear(); vec.resize(n, fill)` — keeps the buffer's capacity.
fn reset<T: Clone>(vec: &mut Vec<T>, n: usize, fill: T) {
    vec.clear();
    vec.resize(n, fill);
}

/// Sizes a nested buffer to `n` inner vectors and clears each one without
/// dropping its allocation.
fn clear_nested<T>(vec: &mut Vec<Vec<T>>, n: usize) {
    if vec.len() < n {
        vec.resize_with(n, Vec::new);
    }
    for inner in vec.iter_mut() {
        inner.clear();
    }
}

/// Appends buffered `(node, client, amount)` writes to the replica slots:
/// the stage commit flushes its route's log, a spine solve's undo puts
/// back a journaled scope.
pub(crate) fn flush(assigned: &mut [Vec<AssignPair>], load: &mut [Requests], log: &[CommitEntry]) {
    for &(u, c, amount) in log {
        assigned[u as usize].push((c, amount));
        load[u as usize] += amount;
    }
}

/// The `multiple-bin` precondition gate, shared by the serial, parallel
/// and serving entry points: the arity, per-client capacity, total-volume
/// and root-distance checks, in that order.
///
/// # Errors
///
/// The first failing check's error (see each check).
pub(crate) fn check_multiple_bin(arena: &TreeArena, w: Requests) -> Result<(), SolveError> {
    check_binary(arena)?;
    check_clients_fit(arena, w)?;
    check_total_fits(arena)?;
    check_distances_fit(arena)
}

/// Checks the feasibility precondition `r_i ≤ W` straight off an arena —
/// the `*_arena` / streamed entry points have no [`Tree`] to ask.
///
/// # Errors
///
/// [`SolveError::ClientExceedsCapacity`] for the first offending client.
pub(crate) fn check_clients_fit(arena: &TreeArena, w: Requests) -> Result<(), SolveError> {
    for v in 0..arena.len() as u32 {
        if arena.is_client(v) {
            let r = arena.requests(v);
            if r > w {
                return Err(SolveError::ClientExceedsCapacity {
                    client: NodeId(v),
                    requests: r,
                    capacity: w,
                });
            }
        }
    }
    Ok(())
}

/// Checks the tree-wide volume bound the 64-bit Multiple-policy slabs rest
/// on: the instance's *summed* request volume must not exceed
/// [`Tree::MAX_REQUESTS`] (see the width-narrowing module docs). Deliberately
/// separate from [`check_clients_fit`]: only the `multiple-bin` entry points
/// call this — the `single_*` solvers keep 128-bit accumulators and accept
/// larger totals.
///
/// # Errors
///
/// [`SolveError::TotalRequestsTooLarge`] with the offending total.
pub(crate) fn check_total_fits(arena: &TreeArena) -> Result<(), SolveError> {
    let mut total: u128 = 0;
    for v in 0..arena.len() as u32 {
        if arena.is_client(v) {
            total += arena.requests(v) as u128;
        }
    }
    if total > Tree::MAX_REQUESTS as u128 {
        return Err(SolveError::TotalRequestsTooLarge { total });
    }
    Ok(())
}

/// Checks that every root distance of the arena is exact: no path sum
/// from the root exceeds `u64::MAX` (the arena saturates such sums). The
/// `multiple-bin` sweep orders and splits its pending requests by
/// root-distance differences (see [`mod@crate::multiple_bin`]'s
/// `PendingFlow`), and the deadline rows are root-distance differences
/// too, so both need exact values. Only the `multiple-bin` entry points call this.
///
/// # Errors
///
/// [`SolveError::RootDistanceTooLarge`] naming the first node (by index)
/// whose distance from the root overflows.
pub(crate) fn check_distances_fit(arena: &TreeArena) -> Result<(), SolveError> {
    for v in 0..arena.len() as u32 {
        let p = arena.parent(v);
        if p != NO_PARENT && arena.root_dist(p).checked_add(arena.edge(v)).is_none() {
            return Err(SolveError::RootDistanceTooLarge { node: NodeId(v) });
        }
    }
    Ok(())
}

/// Checks that no node has more than two children — Algorithm 3 runs on
/// binary trees only.
///
/// # Errors
///
/// [`SolveError::NotBinary`] with the largest arity found.
pub(crate) fn check_binary(arena: &TreeArena) -> Result<(), SolveError> {
    let arity = (0..arena.len() as u32).map(|v| arena.children(v).len()).max().unwrap_or(0);
    if arity > 2 {
        return Err(SolveError::NotBinary { arity });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    #[test]
    fn prepare_sizes_and_resets_state() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 2, 5);
        let tree = b.freeze().unwrap();

        let mut s = SolverScratch::new();
        s.load_arena(&tree);
        s.prepare_multiple_bin();
        assert_eq!(s.in_r.len(), 3);
        s.in_r[1] = true;
        s.assigned[1].push((2, 5));
        s.demand_clients.push(2);
        s.stats.stages = 7;

        // Re-preparing (even for a smaller tree) drops stale state.
        let small = TreeBuilder::new().freeze().unwrap();
        s.load_arena(&small);
        s.prepare_multiple_bin();
        assert_eq!(s.in_r.len(), 1);
        assert!(!s.in_r[0]);
        assert!(s.assigned[0].is_empty());
        assert!(s.demand_clients.is_empty());
        assert_eq!(s.stage_stats(), &StageStats::default());
    }

    #[test]
    fn deadlines_cover_every_node() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 3);
        b.add_client(n1, 2, 4);
        let tree = b.freeze().unwrap();
        let mut s = SolverScratch::new();
        s.load_arena(&tree);
        s.prepare_multiple_bin();
        s.prepare_deadlines(Some(2));
        assert_eq!(s.deadline.len(), 3);
        assert_eq!(s.deadline[2], 1, "client stops at its parent under dmax=2");
        assert_eq!(s.deadline_depth[2], 1);
        s.prepare_deadlines(None);
        assert!(s.deadline.iter().all(|&d| d == 0));
    }
}
