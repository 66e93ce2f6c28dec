//! The serving tier: a long-lived engine answering a *stream* of demand
//! deltas with incremental `multiple-bin` re-solves.
//!
//! [`ServeEngine`] loads an instance once (from an [`Instance`] or an
//! arena streamed through
//! [`SolverScratch::load_arena_from_stream`]), keeps the warm
//! [`SolverScratch`] across requests, and accepts demand deltas
//! ([`ServeEngine::apply_delta`]: add / subtract / set a client's request
//! count) followed by [`ServeEngine::solve`] calls. Deltas are validated
//! *before* anything is written, so a rejected delta never poisons the
//! warm scratch.
//!
//! # Incremental re-solve: the dirty spine
//!
//! A `multiple-bin` solve is a bottom-up sweep whose pending-request flow
//! is a pure function of client demands and distances: a fragment of
//! client `c` travels exactly the *service path* `c → deadline(c)` and is
//! never absorbed en route (travelling requests stay pending by design —
//! see `crate::multiple_bin`). A stage at `j` reads and writes only
//! `subtree(j)`, and the flow out of a node depends only on the demands
//! below it. So a delta on client `c` can only change stages on `c`'s
//! root path. The changed clients and their ancestors form the **dirty
//! spine**; everything off it hangs in *clean subtrees*, each rooted at a
//! clean child of a spine node.
//!
//! The engine keeps a **stage journal**: one record per stage of the last
//! solve, holding its scope's replicas and their assignment lists at
//! collection time, its placement and its whole [`StageStats`] delta. An
//! incremental solve touches only the spine and calls none of the
//! whole-tree `prepare_*` steps:
//!
//! 1. undo the journaled stages rooted on the spine, in reverse post
//!    order: free their placements and put back their scopes' assignment
//!    lists, and take their counters out of the solve stats;
//! 2. free the changed clients' self-serve slots;
//! 3. refill the pending heap of every clean child `v` of a spine node
//!    with the clients below `v` whose deadline lies above it — exactly
//!    what a full sweep leaves there;
//! 4. sweep the spine nodes in post order.
//!
//! This is **exact**. The state of a clean subtree just after the sweep
//! passes its root depends only on its own demands, which did not change;
//! the only later writers into it are stages at its ancestors, all on the
//! spine; undoing those in reverse order (no later stage wrote the same
//! nodes: later stages off the spine sit in disjoint subtrees) restores it
//! bit for bit. The carried records' counters are unchanged too: a clean
//! stage's subtree, and so its issued and pending demand, is unchanged.
//! The sweep rewrites the per-subtree demand row (`sub_demand`) at every
//! spine node, so the spine's stages price their skipped volume from
//! current demand.
//!
//! Every stage the spine sweep fires is searched and journaled afresh; a
//! spine node that fires no stage leaves the journal. The `stats`
//! counters follow that split: `reused=` counts the journaled stages
//! carried unchanged from the previous solve (the clean subtrees'),
//! `recomputed=` the stages searched this solve.
//!
//! The published [`Solution`] is patched in place: every node the solve
//! wrote had its pre-solve state captured at its first write, and only
//! those nodes are retracted and re-added. A spine solve therefore costs
//! O(spine + its stages' scopes), not O(n). Full solves — the first one,
//! the one after a failed or stale solve, the naive reference, and one
//! whenever a never-reset stamp (stage id, router epoch, mark generation)
//! has passed half its range — prepare, sweep the whole tree, rebuild the
//! journal and collect the solution.
//!
//! Results are **bit-identical to a cold solve** on every delta sequence,
//! and `tests/proptest_serve.rs` pins the equivalence — placements,
//! assignments *and* `StageStats` — against both the naive reference
//! switch ([`ServeEngine::set_naive_resolve`]) and from-scratch solves
//! over rebuilt trees.
//!
//! # Reliability
//!
//! Three coupled defences keep a long-lived engine serving through
//! faults. **Durability** ([`ServeEngine::attach_persist`], module
//! [`persist`]): every applied delta is write-ahead-logged before it
//! mutates the arena and the demand state is periodically snapshotted, so
//! a restarted engine recovers to the exact demand state of the killed
//! one — and, demand being the only mutable input, re-solves to a
//! bit-identical solution. **Graceful degradation**
//! ([`ServeEngine::set_solve_budget`]): a solve that blows its deadline
//! budget is abandoned mid-sweep and the engine answers with its
//! last-known-good solution, tagged [`ServeOutcome::stale`], rather than
//! stalling the protocol loop. **Fault injection** ([`crate::fault`]): the
//! persist and solve paths thread named fault points, and the chaos
//! gauntlet (`tests/fault_gauntlet.rs`) proves every injected failure
//! surfaces as a structured [`ServeError`] or a stale response — never a
//! lost delta or a poisoned warm scratch.

pub mod persist;

use crate::error::SolveError;
use crate::multiple_bin::{collect_solution, mb_sweep};
use crate::scratch::{check_multiple_bin, flush, AssignPair, CommitEntry, SolverScratch};
use crate::stage::StageStats;
use persist::{PersistConfig, PersistCounters, PersistState, Recovery};
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Dist, Instance, NodeId, Requests, Solution, Tree};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// One demand mutation of [`ServeEngine::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandDelta {
    /// `client += k` requests.
    Add(Requests),
    /// `client -= k` requests (rejected when it would underflow).
    Sub(Requests),
    /// `client = k` requests (`Set(0)` is "client leaves": topology is
    /// fixed for the lifetime of the engine, demand is not).
    Set(Requests),
}

/// A rejected serve request. Every variant is detected *before* any state
/// is mutated, so the warm scratch and the arena are exactly as they were —
/// callers can keep streaming deltas after an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The node index does not exist in the loaded instance.
    UnknownNode {
        /// The out-of-range raw index.
        node: u32,
    },
    /// The node exists but is not a client leaf; only clients issue
    /// requests.
    NotAClient {
        /// The offending node.
        node: NodeId,
    },
    /// A subtract delta larger than the client's current demand.
    Underflow {
        /// The client.
        node: NodeId,
        /// Its current request count.
        current: Requests,
        /// The amount the delta tried to subtract.
        sub: Requests,
    },
    /// The resulting demand would exceed [`Tree::MAX_REQUESTS`], the
    /// solvers' `u64` summation guard.
    RequestsTooLarge {
        /// The client.
        node: NodeId,
        /// The (128-bit, pre-clamp) demand the delta asked for.
        requested: u128,
    },
    /// The delta is fine per client but would push the instance's *summed*
    /// demand past [`Tree::MAX_REQUESTS`] — the tree-wide bound the
    /// solver's 64-bit volume slabs rest on (see the width-narrowing notes
    /// in `rp_core::scratch`). Tracked incrementally across deltas, so the
    /// check is O(1).
    TotalRequestsTooLarge {
        /// The client whose delta crossed the bound.
        node: NodeId,
        /// The (128-bit, pre-clamp) instance total the delta asked for.
        requested: u128,
    },
    /// The resulting demand would exceed the server capacity `W` —
    /// `multiple-bin`'s optimality precondition `r_i ≤ W` (Theorem 6).
    ExceedsCapacity {
        /// The client.
        node: NodeId,
        /// The demand the delta asked for.
        requests: Requests,
        /// The instance capacity.
        capacity: Requests,
    },
    /// A solve failed ([`SolveError`]); the journal is invalidated and the
    /// next solve runs cold.
    Solve(SolveError),
    /// A durability operation failed (WAL append, fault point). For an
    /// append this means the delta was **not** applied — acknowledged
    /// deltas are always durable first. The warm state is untouched;
    /// callers can keep streaming. Stringified (not an `io::Error`) so
    /// the error type stays `Clone`/`Eq` for the differential suites.
    Persist {
        /// Which operation failed (`"append"`, `"apply"`…).
        op: &'static str,
        /// The underlying failure, rendered.
        message: String,
    },
    /// Recovering a state directory failed: corrupt on-disk state or an
    /// I/O error during the scan. The engine refuses to start over state
    /// it cannot trust rather than silently dropping deltas.
    Recovery {
        /// The underlying [`persist::PersistError`], rendered.
        message: String,
    },
}

impl ServeError {
    /// Stable machine-readable code, used by the line protocol's `err`
    /// responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownNode { .. } => "unknown-node",
            ServeError::NotAClient { .. } => "not-a-client",
            ServeError::Underflow { .. } => "underflow",
            ServeError::RequestsTooLarge { .. } => "overflow",
            ServeError::TotalRequestsTooLarge { .. } => "overflow-total",
            ServeError::ExceedsCapacity { .. } => "capacity",
            ServeError::Solve(_) => "solve",
            ServeError::Persist { .. } => "persist",
            ServeError::Recovery { .. } => "recovery",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownNode { node } => {
                write!(f, "node {node} does not exist in the loaded instance")
            }
            ServeError::NotAClient { node } => {
                write!(f, "node {node:?} is not a client leaf")
            }
            ServeError::Underflow { node, current, sub } => {
                write!(f, "client {node:?} holds {current} requests; cannot subtract {sub}")
            }
            ServeError::RequestsTooLarge { node, requested } => {
                write!(
                    f,
                    "client {node:?} demand {requested} exceeds the solver bound {}",
                    Tree::MAX_REQUESTS
                )
            }
            ServeError::TotalRequestsTooLarge { node, requested } => {
                write!(
                    f,
                    "delta on client {node:?} would raise the instance total to {requested}, \
                     beyond the tree-wide volume bound {}",
                    Tree::MAX_REQUESTS
                )
            }
            ServeError::ExceedsCapacity { node, requests, capacity } => {
                write!(
                    f,
                    "client {node:?} demand {requests} exceeds capacity W = {capacity} \
                     (multiple-bin requires r_i ≤ W)"
                )
            }
            ServeError::Solve(e) => write!(f, "solve failed: {e}"),
            ServeError::Persist { op, message } => {
                write!(f, "persist {op} failed (delta not applied): {message}")
            }
            ServeError::Recovery { message } => {
                write!(f, "state recovery failed: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

/// Counters of an engine's lifetime, surfaced by the `stats` protocol
/// command and the soak bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Deltas accepted and applied.
    pub deltas_applied: u64,
    /// Deltas rejected by validation (no state was changed).
    pub deltas_rejected: u64,
    /// Total solves.
    pub solves: u64,
    /// Solves that swept the whole tree: the first solve, naive-mode
    /// solves, failed or stale solves, the solve after a failed or stale
    /// one (which finds no valid journal), and the rare solve the stamp
    /// wrap-around guard forces.
    pub full_solves: u64,
    /// Spine solves over a valid journal.
    pub incremental_solves: u64,
    /// Journaled stages carried unchanged rather than searched, across
    /// all solves.
    pub stages_reused: u64,
    /// Stages searched (and journaled), across all solves.
    pub stages_recomputed: u64,
    /// Dirty clients of the most recent solve.
    pub last_dirty_clients: u64,
    /// Journaled stages carried unchanged by the most recent solve.
    pub last_reused: u64,
    /// Stages searched by the most recent solve.
    pub last_recomputed: u64,
    /// Nodes swept by the most recent solve: every node for a full solve,
    /// the dirty spine (changed clients and their ancestors) for an
    /// incremental one, 0 for a stale one.
    pub last_swept: u64,
    /// Solves that blew their deadline budget and answered with the
    /// last-known-good solution instead (the `stale` degradation path).
    pub stale_served: u64,
}

/// What one [`ServeEngine::solve`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Replica count of the committed solution.
    pub replicas: u64,
    /// Whether this was a spine solve over the stage journal (`false`:
    /// plain full solve).
    pub incremental: bool,
    /// `true` when the solve blew its deadline budget and this outcome
    /// describes the *last-known-good* solution, not one reflecting the
    /// latest deltas — the graceful-degradation path
    /// ([`ServeEngine::set_solve_budget`]). The next solve runs cold and
    /// catches the state up.
    pub stale: bool,
    /// Clients whose demand changed since the previous solve.
    pub dirty_clients: u64,
    /// Journaled stages carried unchanged rather than searched.
    pub stages_reused: u64,
    /// Stages searched.
    pub stages_recomputed: u64,
}

/// Linear sub-buckets per power-of-two octave of [`LatencyHistogram`].
const SUB_BUCKETS: u64 = 8;

/// Buckets of [`LatencyHistogram`]: one per value below [`SUB_BUCKETS`],
/// then [`SUB_BUCKETS`] per octave `[2^e, 2^(e+1))` for `e` in `3..=63`.
const HIST_BUCKETS: usize = 8 * 62;

/// A latency histogram with HDR-style buckets — each power-of-two octave
/// split into 8 linear sub-buckets, covering the full `u64` nanosecond
/// range — plus exact count, mean and max: the per-request
/// instrumentation shared by `rp serve` and the soak bench. Quantiles
/// report the upper bound of the hit bucket clamped to the recorded max,
/// so they never under-estimate and over-estimate by at most 12.5%.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; HIST_BUCKETS], total: 0, sum_ns: 0, max_ns: 0 }
    }
}

/// Bucket of a sample: values below [`SUB_BUCKETS`] are exact; above, the
/// octave's exponent picks the bucket group and the three bits below the
/// leading one pick the sub-bucket.
fn hist_bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as u64;
    let sub = (ns >> (e - 3)) & (SUB_BUCKETS - 1);
    ((e - 2) * SUB_BUCKETS + sub) as usize
}

/// Largest sample that [`hist_bucket`] maps to `bucket`.
fn hist_upper(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB_BUCKETS {
        return b;
    }
    let shift = b / SUB_BUCKETS - 1;
    let lower = (SUB_BUCKETS + b % SUB_BUCKETS) << shift;
    lower + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[hist_bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum_ns / self.total as u128) as u64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample, clamped
    /// to the recorded max (`q ∈ (0, 1]`; 0 when the histogram is empty):
    /// at least the true sample and at most 12.5% above it.
    /// `quantile_ns(0.5)` is the p50, `quantile_ns(0.99)` the p99.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return hist_upper(bucket).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// One journaled stage: what its commit read and wrote, so that a later
/// solve can undo it exactly. Keyed by the stage root `j` — a node fires at
/// most one stage per solve (its stuck set is determined by the post-order
/// sweep), so the key is unique.
#[derive(Debug, Default)]
pub(crate) struct StageRecord {
    /// The scope's replicas at collection time (canonical post order).
    existing: Vec<u32>,
    /// The assignment lists of `existing` at collection time, as
    /// `(node, client, amount)` entries in list order: what undoing the
    /// stage puts back.
    pre_log: Vec<CommitEntry>,
    /// The committed placement (new replicas).
    best_set: Vec<u32>,
    /// The stage's whole [`StageStats`] delta: the live counters
    /// (`stages`, `commit_touched`, `commit_skipped`) and the search
    /// counters. `router_carried_peak` holds the stage's own peak (a max
    /// cannot be recovered from a `post − pre` delta).
    stats: StageStats,
}

impl StageRecord {
    /// Nodes whose persistent state (`in_r` / `assigned` / `load`) the
    /// stage wrote: `existing ∪ best_set`.
    fn written(&self) -> impl Iterator<Item = u32> + '_ {
        self.existing.iter().chain(&self.best_set).copied()
    }
}

/// The pre-solve state of every node a spine solve writes, captured at
/// its first write, so the published [`Solution`] can be patched node by
/// node instead of rebuilt.
#[derive(Debug, Default)]
struct FirstTouch {
    /// Stamp per node; `== generation` means captured this solve.
    mark: Vec<u32>,
    /// `(node, held a replica, end of its assignment list in pairs)`.
    nodes: Vec<(u32, bool, usize)>,
    /// The captured assignment lists, concatenated.
    pairs: Vec<AssignPair>,
}

impl FirstTouch {
    fn capture(&mut self, generation: u32, u: u32, replica: bool, assigned: &[AssignPair]) {
        if self.mark[u as usize] != generation {
            self.mark[u as usize] = generation;
            self.pairs.extend_from_slice(assigned);
            self.nodes.push((u, replica, self.pairs.len()));
        }
    }
}

/// The serve-mode solve context: the stage journal, the spine marks and
/// the spine-solve buffers. Installed into
/// [`SolverScratch::serve`] around the engine's sweeps and `None`
/// everywhere else, so batch solvers never pay for it.
#[derive(Debug, Default)]
pub(crate) struct ServeCtx {
    /// One record per stage of the last successful solve. A spine solve
    /// undoes and rewrites the records rooted on the spine and carries
    /// every other one unchanged.
    journal: HashMap<u32, StageRecord>,
    /// Multiset (peak → count) of the journaled stages'
    /// `router_carried_peak`, so the solve-wide max survives undo.
    peaks: BTreeMap<u64, u32>,
    /// Stamp per node; `== generation` means the node is on the spine.
    spine_mark: Vec<u32>,
    /// Current solve's stamp. Grows by one per solve; full solves reset
    /// it (and the engine runs one before it passes half its range).
    generation: u32,
    /// Stages searched this solve.
    recomputed: u64,
    /// Whether this is a spine solve, which captures first touches and
    /// drops vanished stages from the journal (a full solve rebuilds the
    /// published solution and the journal anyway).
    track: bool,
    first: FirstTouch,
    /// The collected scope's pre-state of the stage being searched,
    /// staged by [`capture_scope`] for [`record_stage`].
    pre_log: Vec<CommitEntry>,
    /// The current spine in post order.
    spine: Vec<u32>,
    /// Smallest deadline depth of any client in each subtree — static,
    /// like the deadlines; prunes [`PendingFlow::seed_pending`].
    ///
    /// [`PendingFlow::seed_pending`]: crate::multiple_bin::PendingFlow::seed_pending
    sub_min_dd: Vec<u32>,
    /// Work list of the heap seeding walk.
    stack: Vec<u32>,
}

impl ServeCtx {
    /// Opens a full solve: drops the journal, resets every mark row (so
    /// the generation restarts at 1) and computes the static per-subtree
    /// deadline minimum. Called after the deadlines are prepared.
    fn begin_full(&mut self, s: &SolverScratch) {
        let n = s.arena.len();
        self.invalidate();
        for row in [&mut self.spine_mark, &mut self.first.mark] {
            row.clear();
            row.resize(n, 0);
        }
        self.generation = 1;
        self.recomputed = 0;
        self.track = false;
        if self.sub_min_dd.len() != n {
            self.sub_min_dd.clear();
            self.sub_min_dd.resize(n, u32::MAX);
            for &u in s.arena.postorder() {
                let own =
                    if s.arena.is_client(u) { s.deadline_depth[u as usize] } else { u32::MAX };
                let below = s.arena.children(u).iter().map(|&c| self.sub_min_dd[c as usize]);
                self.sub_min_dd[u as usize] = below.fold(own, u32::min);
            }
        }
    }

    /// Opens a spine solve over a valid journal.
    fn begin_spine(&mut self) {
        self.generation += 1;
        self.recomputed = 0;
        self.track = true;
        self.first.nodes.clear();
        self.first.pairs.clear();
    }

    /// Drops the journal (after a failed solve the slab state is
    /// unspecified, so nothing recorded can be trusted).
    fn invalidate(&mut self) {
        self.journal.clear();
        self.peaks.clear();
    }

    fn on_spine(&self, u: u32) -> bool {
        self.spine_mark[u as usize] == self.generation
    }

    /// The largest journaled stage peak (0 with no stage).
    fn peak(&self) -> u64 {
        self.peaks.last_key_value().map_or(0, |(&p, _)| p)
    }
}

/// Adds one stage peak to the journal's peak multiset.
fn add_peak(peaks: &mut BTreeMap<u64, u32>, peak: u64) {
    *peaks.entry(peak).or_insert(0) += 1;
}

/// Removes one stage peak from the journal's peak multiset.
fn remove_peak(peaks: &mut BTreeMap<u64, u32>, peak: u64) {
    match peaks.get_mut(&peak) {
        Some(count) if *count > 1 => *count -= 1,
        _ => {
            let removed = peaks.remove(&peak);
            debug_assert!(removed.is_some(), "every journaled peak is in the multiset");
        }
    }
}

/// Undoes the journaled stage rooted at `j`, if any: frees its placements,
/// puts back the assignment lists its scope held at collection time and
/// takes its counters out of the solve stats. Exact only when no later
/// stage wrote the same nodes, which the spine solve guarantees by undoing
/// in reverse post order (see the module docs). The record stays in the
/// journal until the sweep reaches `j`: [`record_stage`] rewrites it in
/// place, [`note_no_stage`] drops it.
fn undo_stage(s: &mut SolverScratch, ctx: &mut ServeCtx, j: u32) {
    let ServeCtx { journal, peaks, first, generation, .. } = ctx;
    let Some(rec) = journal.get(&j) else { return };
    for u in rec.written() {
        first.capture(*generation, u, s.in_r[u as usize], &s.assigned[u as usize]);
        s.clear_slot(u);
    }
    for &u in &rec.best_set {
        s.in_r[u as usize] = false;
    }
    flush(&mut s.assigned, &mut s.load, &rec.pre_log);
    s.stats.retract(&rec.stats);
    remove_peak(peaks, rec.stats.router_carried_peak);
}

/// Stage hook (called by `crate::stage::serve_stuck` right after scope
/// collection, before the commit clears the scope): captures the first
/// touch of every scope replica and stages the scope's assignment lists —
/// what undoing the stage puts back — for [`record_stage`].
pub(crate) fn capture_scope(s: &SolverScratch, ctx: &mut ServeCtx) {
    ctx.pre_log.clear();
    for &u in s.existing.iter() {
        let assigned = &s.assigned[u as usize];
        if ctx.track {
            ctx.first.capture(ctx.generation, u, true, assigned);
        }
        ctx.pre_log.extend(assigned.iter().map(|&(c, amount)| (u, c, amount)));
    }
}

/// Stage hook (after a stage committed): journals the stage's outputs.
/// `pre` is the stats snapshot taken before scope collection, so the
/// recorded delta covers the whole stage. `stage_peak` is the stage's own
/// carried peak (a max, not a count — journaled verbatim so carried stages
/// reproduce the cold solve's peak exactly).
pub(crate) fn record_stage(
    s: &SolverScratch,
    ctx: &mut ServeCtx,
    j: u32,
    pre: &StageStats,
    stage_peak: u64,
) {
    if ctx.track {
        // A node first written by this commit was free before it.
        for &u in &s.best_set {
            ctx.first.capture(ctx.generation, u, false, &[]);
        }
    }
    let rec = ctx.journal.entry(j).or_default();
    rec.existing.clone_from(&s.existing);
    rec.best_set.clone_from(&s.best_set);
    std::mem::swap(&mut rec.pre_log, &mut ctx.pre_log);
    rec.stats = StageStats { router_carried_peak: stage_peak, ..stats_delta(&s.stats, pre) };
    add_peak(&mut ctx.peaks, stage_peak);
    ctx.recomputed += 1;
}

/// Sweep hook for nodes that fire *no* stage this solve: in a spine solve,
/// a journaled stage whose stuck set a delta emptied leaves the journal
/// (its undo already ran). A full solve has just cleared the journal, so
/// it skips the lookup.
pub(crate) fn note_no_stage(s: &mut SolverScratch, j: u32) {
    let Some(ctx) = s.serve.as_deref_mut() else { return };
    if ctx.track {
        ctx.journal.remove(&j);
    }
}

/// `post - pre` over every count-like [`StageStats`] counter (all are
/// monotone within a solve). `router_carried_peak` is a max, not a count —
/// subtraction is meaningless for it, so the delta carries 0 and the
/// callers fill in the stage's own peak.
fn stats_delta(post: &StageStats, pre: &StageStats) -> StageStats {
    let mut delta = *post;
    delta.retract(pre);
    delta.router_carried_peak = 0;
    delta
}

/// A warm `multiple-bin` solver answering demand deltas — see the module
/// docs for the journaled incremental re-solve and its equivalence
/// guarantee. Topology, capacity and `dmax` are fixed for the engine's
/// lifetime; demand is not.
#[derive(Debug)]
pub struct ServeEngine {
    scratch: SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    /// Journal + marks, installed into the scratch around each sweep.
    ctx: Box<ServeCtx>,
    /// Differential switch: plain cold solves, no journal (the reference
    /// behaviour the proptests compare against).
    naive: bool,
    clients: u64,
    /// Running instance total across deltas — keeps the tree-wide
    /// volume-bound check ([`Tree::MAX_REQUESTS`], the 64-bit slab
    /// invariant) O(1) per delta. 128-bit so candidate totals can be
    /// formed before clamping.
    total_requests: u128,
    /// Clients whose demand changed since the last solve (deduplicated).
    changed: Vec<u32>,
    changed_mark: Vec<bool>,
    /// Whether the journal describes the current slab state (false until
    /// the first journaled solve, and after any solve error).
    journal_valid: bool,
    stats: ServeStats,
    /// Durability layer; `None` runs fully in-memory (the default).
    persist: Option<PersistState>,
    /// How the current demand state was (re)built, for `health` reporting.
    /// `None` until [`ServeEngine::attach_persist`] runs.
    recovery: Option<Recovery>,
    /// The committed solution of the last successful solve — what
    /// [`ServeEngine::solution`] returns, and what a blown-budget solve
    /// degrades to. Rebuilt by full solves, patched by spine solves.
    last_good: Option<Solution>,
    /// Replica count of `last_good`.
    replicas: u64,
    /// Per-solve deadline budget; `None` lets solves run unbounded.
    budget: Option<Duration>,
}

impl ServeEngine {
    /// Creates an engine for `instance` (the arena is rebuilt from its
    /// tree).
    ///
    /// # Errors
    ///
    /// [`SolveError::NotBinary`] / [`SolveError::ClientExceedsCapacity`] /
    /// [`SolveError::TotalRequestsTooLarge`] /
    /// [`SolveError::RootDistanceTooLarge`] — `multiple-bin`'s
    /// preconditions, checked once here and then upheld per delta.
    pub fn new(instance: &Instance) -> Result<ServeEngine, SolveError> {
        let mut scratch = SolverScratch::new();
        scratch.load_arena(instance.tree());
        ServeEngine::from_scratch(scratch, instance.capacity(), instance.dmax())
    }

    /// Creates an engine over an arena already loaded into `scratch` —
    /// the streamed path for huge trees
    /// ([`SolverScratch::load_arena_from_stream`]), where no
    /// [`rp_tree::Tree`] is ever materialised.
    ///
    /// # Errors
    ///
    /// Same as [`ServeEngine::new`].
    pub fn from_scratch(
        scratch: SolverScratch,
        w: Requests,
        dmax: Option<Dist>,
    ) -> Result<ServeEngine, SolveError> {
        check_multiple_bin(scratch.arena(), w)?;
        let n = scratch.arena().len();
        let clients = (0..n as u32).filter(|&v| scratch.arena().is_client(v)).count() as u64;
        let total_requests = (0..n as u32)
            .filter(|&v| scratch.arena().is_client(v))
            .map(|v| scratch.arena().requests(v) as u128)
            .sum();
        Ok(ServeEngine {
            scratch,
            w,
            dmax,
            ctx: Box::default(),
            naive: false,
            clients,
            total_requests,
            changed: Vec::new(),
            changed_mark: vec![false; n],
            journal_valid: false,
            stats: ServeStats::default(),
            persist: None,
            recovery: None,
            last_good: None,
            replicas: 0,
            budget: None,
        })
    }

    /// Attaches a state directory: recovers any persisted demand state
    /// (latest valid snapshot + WAL tail, tolerating a torn final record)
    /// into the engine, then write-ahead-logs every subsequently applied
    /// delta there. Call before streaming deltas; the returned
    /// [`Recovery`] says whether the state came back cold or replayed.
    ///
    /// Recovered demand replaces the arena's seed values wholesale for
    /// the recovered clients (records carry resulting-value semantics),
    /// so a recovered engine's demand state — and hence its solutions —
    /// is bit-identical to the killed session's.
    ///
    /// # Errors
    ///
    /// [`ServeError::Recovery`] when the on-disk state is corrupt or
    /// unreadable — refusing to serve beats silently dropping deltas —
    /// and [`ServeError::UnknownNode`] / [`ServeError::NotAClient`] /
    /// [`ServeError::ExceedsCapacity`] etc. when recovered demand does
    /// not fit the loaded instance (wrong `--state-dir` for this tree).
    /// Unlike delta rejection, a mid-recovery error leaves the engine
    /// partially loaded: this runs at startup, and callers must discard
    /// the engine on `Err` rather than serve from it.
    pub fn attach_persist(
        &mut self,
        dir: &Path,
        config: PersistConfig,
    ) -> Result<Recovery, ServeError> {
        let (state, recovered) = PersistState::open(dir, config)
            .map_err(|e| ServeError::Recovery { message: e.to_string() })?;
        for &(node, requests) in &recovered.demands {
            // Validate against the live instance (a recovered file can
            // name a different tree), then write through the normal set
            // path *without* stats or WAL traffic: recovery is not new
            // deltas.
            let new = self.validate_delta(node, DemandDelta::Set(requests))?;
            let cur = self.scratch.arena().requests(node);
            if new != cur {
                self.total_requests = self.total_requests - cur as u128 + new as u128;
                self.scratch.arena.set_requests(node, new);
                if !self.changed_mark[node as usize] {
                    self.changed_mark[node as usize] = true;
                    self.changed.push(node);
                }
            }
        }
        self.persist = Some(state);
        self.recovery = Some(recovered.recovery);
        Ok(recovered.recovery)
    }

    /// How the demand state was built, when a state directory is
    /// attached (`None` before [`ServeEngine::attach_persist`]).
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// Live durability counters (`None` without a state directory).
    pub fn persist_counters(&self) -> Option<PersistCounters> {
        self.persist.as_ref().map(PersistState::counters)
    }

    /// Sets the per-solve deadline budget: a solve still running after
    /// `budget` is abandoned and answered with the last-known-good
    /// solution tagged [`ServeOutcome::stale`] (an error if no solve ever
    /// succeeded). `None` removes the bound. The budget is enforced
    /// between sweep nodes and before each stage, so overrun is bounded
    /// by one in-flight stage.
    pub fn set_solve_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// Test-only differential switch, mirroring
    /// [`SolverScratch::set_naive_stage_commit`]: every solve runs the
    /// plain cold path with no journal, so incremental results can be
    /// pinned identical on any delta sequence
    /// (`tests/proptest_serve.rs`). Hidden: not part of the crate's API
    /// surface.
    #[doc(hidden)]
    pub fn set_naive_resolve(&mut self, naive: bool) {
        self.naive = naive;
        if naive {
            self.ctx.invalidate();
            self.journal_valid = false;
        }
    }

    /// Read-only view of the loaded arena.
    pub fn arena(&self) -> &TreeArena {
        self.scratch.arena()
    }

    /// The instance capacity `W`.
    pub fn capacity(&self) -> Requests {
        self.w
    }

    /// The instance distance bound.
    pub fn dmax(&self) -> Option<Dist> {
        self.dmax
    }

    /// Number of client leaves.
    pub fn client_count(&self) -> u64 {
        self.clients
    }

    /// Clients whose demand changed since the last solve.
    pub fn pending_dirty(&self) -> u64 {
        self.changed.len() as u64
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Stage counters of the last solve (see
    /// [`SolverScratch::stage_stats`]).
    pub fn stage_stats(&self) -> &StageStats {
        self.scratch.stage_stats()
    }

    /// Current demand of `node`, or `None` for an out-of-range index.
    pub fn requests_of(&self, node: u32) -> Option<Requests> {
        if (node as usize) < self.scratch.arena().len() {
            Some(self.scratch.arena().requests(node))
        } else {
            None
        }
    }

    /// Applies one demand delta and returns the client's new request
    /// count. Validation happens before any write: a rejected delta
    /// leaves the arena, the journal and the warm scratch untouched.
    /// With a state directory attached, the delta is write-ahead-logged
    /// *before* it mutates anything — an append failure rejects the
    /// delta, so acknowledged always implies durable.
    ///
    /// # Errors
    ///
    /// See [`ServeError`] — unknown node, non-client target, underflow,
    /// demand beyond [`Tree::MAX_REQUESTS`] or beyond the capacity `W`,
    /// or a failed WAL append ([`ServeError::Persist`]).
    pub fn apply_delta(&mut self, node: u32, delta: DemandDelta) -> Result<Requests, ServeError> {
        let result = self.validate_delta(node, delta).and_then(|new| {
            // Chaos seam for the application step itself; inert without
            // the `fault-inject` feature.
            crate::fault::point("serve.apply")
                .map_err(|e| ServeError::Persist { op: "apply", message: e.to_string() })?;
            let cur = self.scratch.arena().requests(node);
            if new != cur {
                if let Some(persist) = self.persist.as_mut() {
                    // WAL first: only a durable record may mutate state.
                    persist.append(node, new).map_err(|e| ServeError::Persist {
                        op: "append",
                        message: e.to_string(),
                    })?;
                }
                self.total_requests = self.total_requests - cur as u128 + new as u128;
                self.scratch.arena.set_requests(node, new);
                if !self.changed_mark[node as usize] {
                    self.changed_mark[node as usize] = true;
                    self.changed.push(node);
                }
            }
            Ok(new)
        });
        match result {
            Ok(new) => {
                self.stats.deltas_applied += 1;
                self.maybe_snapshot();
                Ok(new)
            }
            Err(e) => {
                self.stats.deltas_rejected += 1;
                Err(e)
            }
        }
    }

    /// Writes a demand snapshot when the WAL has grown past the
    /// configured interval. Failure is non-fatal — the WAL still covers
    /// the state — and tallied in
    /// [`PersistCounters::snapshot_failures`].
    fn maybe_snapshot(&mut self) {
        let Some(persist) = self.persist.as_mut() else { return };
        if !persist.wants_snapshot() {
            return;
        }
        let arena = self.scratch.arena();
        let demands: Vec<(u32, u64)> = (0..arena.len() as u32)
            .filter(|&v| arena.is_client(v))
            .map(|v| (v, arena.requests(v)))
            .collect();
        let _ = persist.write_snapshot(&demands);
    }

    /// The read-only half of [`ServeEngine::apply_delta`].
    fn validate_delta(&self, node: u32, delta: DemandDelta) -> Result<Requests, ServeError> {
        if node as usize >= self.scratch.arena().len() {
            return Err(ServeError::UnknownNode { node });
        }
        if !self.scratch.arena().is_client(node) {
            return Err(ServeError::NotAClient { node: NodeId(node) });
        }
        let current = self.scratch.arena().requests(node);
        let new: u128 = match delta {
            DemandDelta::Add(k) => current as u128 + k as u128,
            DemandDelta::Sub(k) => {
                if k > current {
                    return Err(ServeError::Underflow { node: NodeId(node), current, sub: k });
                }
                (current - k) as u128
            }
            DemandDelta::Set(k) => k as u128,
        };
        if new > Tree::MAX_REQUESTS as u128 {
            return Err(ServeError::RequestsTooLarge { node: NodeId(node), requested: new });
        }
        let new = new as Requests;
        if new > self.w {
            return Err(ServeError::ExceedsCapacity {
                node: NodeId(node),
                requests: new,
                capacity: self.w,
            });
        }
        // Tree-wide volume bound (the 64-bit slab invariant): tracked
        // incrementally, so the check stays O(1) per delta.
        let new_total = self.total_requests - current as u128 + new as u128;
        if new_total > Tree::MAX_REQUESTS as u128 {
            return Err(ServeError::TotalRequestsTooLarge {
                node: NodeId(node),
                requested: new_total,
            });
        }
        Ok(new)
    }

    /// Re-solves under the current demand. Incremental (a spine solve:
    /// undo and re-sweep only the changed clients' root paths) exactly when
    /// a valid journal exists, the engine is not naive and no stamp is near
    /// wrap-around; plain full otherwise. Either way the committed slab
    /// state — and hence [`ServeEngine::solution`] — is bit-identical to a
    /// cold solve of the same demands.
    ///
    /// A solve that blows the configured deadline budget
    /// ([`ServeEngine::set_solve_budget`]) is abandoned and answered with
    /// the last-known-good solution, `stale`-tagged — see
    /// [`ServeOutcome::stale`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Solve`] wrapping the stage-engine errors (including
    /// a blown deadline with no previous solution to degrade to); the
    /// journal is invalidated and the next solve runs cold.
    pub fn solve(&mut self) -> Result<ServeOutcome, ServeError> {
        let dirty = self.changed.len() as u64;
        let journal = !self.naive;
        let incremental = journal && self.journal_valid && !self.stamps_past_half();

        self.scratch.solve_deadline =
            self.budget.map(|b| (Instant::now() + b, b.as_millis() as u64));
        let result = if incremental { self.solve_spine() } else { self.solve_full(journal) };
        self.scratch.solve_deadline = None;

        for &c in &self.changed {
            self.changed_mark[c as usize] = false;
        }
        self.changed.clear();

        // A failed or abandoned sweep leaves the slabs unspecified (the
        // next solve re-prepares), so nothing journaled can be trusted.
        self.journal_valid = journal && result.is_ok();
        if result.is_err() {
            self.ctx.invalidate();
        }
        self.stats.solves += 1;
        match result {
            Ok(swept) => {
                let (reused, recomputed) = if journal {
                    let recomputed = self.ctx.recomputed;
                    (self.ctx.journal.len() as u64 - recomputed, recomputed)
                } else {
                    (0, 0)
                };
                if incremental {
                    self.stats.incremental_solves += 1;
                } else {
                    self.stats.full_solves += 1;
                }
                self.stats.stages_reused += reused;
                self.stats.stages_recomputed += recomputed;
                self.stats.last_dirty_clients = dirty;
                self.stats.last_reused = reused;
                self.stats.last_recomputed = recomputed;
                self.stats.last_swept = swept;
                Ok(ServeOutcome {
                    replicas: self.replicas,
                    incremental,
                    stale: false,
                    dirty_clients: dirty,
                    stages_reused: reused,
                    stages_recomputed: recomputed,
                })
            }
            Err(SolveError::DeadlineExceeded { .. }) if self.last_good.is_some() => {
                // Graceful degradation: the demand state and the cached
                // solution are intact — answer stale rather than stall the
                // protocol loop.
                self.stats.full_solves += 1;
                self.stats.stale_served += 1;
                self.stats.last_dirty_clients = dirty;
                self.stats.last_reused = 0;
                self.stats.last_recomputed = 0;
                self.stats.last_swept = 0;
                Ok(ServeOutcome {
                    replicas: self.replicas,
                    incremental: false,
                    stale: true,
                    dirty_clients: dirty,
                    stages_reused: 0,
                    stages_recomputed: 0,
                })
            }
            Err(e) => {
                self.stats.full_solves += 1;
                Err(ServeError::Solve(e))
            }
        }
    }

    /// Whether some stamp a spine solve never resets — the stage id, the
    /// router epoch, the mark generation — has passed half its range. A
    /// full solve resets all three, long before any could wrap and alias
    /// a stale mark.
    fn stamps_past_half(&self) -> bool {
        const HALF: u32 = 1 << 31;
        self.scratch.stage_id >= HALF
            || self.scratch.router.epoch() >= HALF
            || self.ctx.generation >= HALF
    }

    /// Test-only hook: moves the stage id, the router epoch and the mark
    /// generation forward to at least `to`, so tests can drive an engine
    /// to the wrap-around guard without billions of solves. Moving stamps
    /// forward never aliases a stale mark. Hidden: not part of the crate's
    /// API surface.
    #[doc(hidden)]
    pub fn advance_stamps(&mut self, to: u32) {
        self.scratch.stage_id = self.scratch.stage_id.max(to);
        self.scratch.router.advance_epoch(to);
        self.ctx.generation = self.ctx.generation.max(to);
    }

    /// The whole-tree sweep, with the stage journal rebuilt from scratch
    /// when `journal`. Publishes a freshly collected solution; returns the
    /// number of nodes swept.
    fn solve_full(&mut self, journal: bool) -> Result<u64, SolveError> {
        let s = &mut self.scratch;
        s.prepare_multiple_bin();
        s.prepare_deadlines(self.dmax);
        if journal {
            self.ctx.begin_full(s);
            s.serve = Some(std::mem::take(&mut self.ctx));
        }
        let result = mb_sweep(s, self.w, self.dmax, None, None);
        if journal {
            self.ctx = s.serve.take().unwrap_or_default();
        }
        result?;
        self.replicas = s.in_r.iter().filter(|&&r| r).count() as u64;
        self.last_good = Some(collect_solution(s));
        Ok(s.arena.len() as u64)
    }

    /// The incremental solve over a valid journal: re-sweeps only the
    /// dirty spine — see the module docs for the steps and why the result
    /// is exact. Patches the published solution in place; returns the
    /// number of nodes swept.
    fn solve_spine(&mut self) -> Result<u64, SolveError> {
        let s = &mut self.scratch;
        let ctx = &mut *self.ctx;
        ctx.begin_spine();
        let mut spine = std::mem::take(&mut ctx.spine);
        spine.clear();
        for &c in &self.changed {
            // Only stages on the client's root path can see its demand.
            let mut at = c;
            while at != NO_PARENT && !ctx.on_spine(at) {
                ctx.spine_mark[at as usize] = ctx.generation;
                spine.push(at);
                at = s.arena.parent(at);
            }
        }
        spine.sort_unstable_by_key(|&u| s.arena.post_position(u));

        // 1. Undo the spine's stages, last writer first.
        for &j in spine.iter().rev() {
            undo_stage(s, ctx, j);
        }
        // 2. Free the changed clients' self-serve slots (no stage slot
        // survives step 1: a stage writing `c` is rooted on c's root path).
        for &c in &self.changed {
            let ci = c as usize;
            ctx.first.capture(ctx.generation, c, s.in_r[ci], &s.assigned[ci]);
            if s.in_r[ci] {
                s.clear_slot(c);
                s.in_r[ci] = false;
            }
        }
        // 3. Seed the pending heap of every clean child of the spine.
        for &p in &spine {
            for &v in s.arena.children(p) {
                if !ctx.on_spine(v) {
                    s.flow.seed_pending(&s.arena, &ctx.sub_min_dd, v, &mut ctx.stack);
                }
            }
        }
        // 4. Sweep the spine.
        s.serve = Some(std::mem::take(&mut self.ctx));
        let result = mb_sweep(s, self.w, self.dmax, None, Some(&spine));
        self.ctx = s.serve.take().unwrap_or_default();
        let swept = spine.len() as u64;
        self.ctx.spine = spine;
        result?;
        debug_assert!(self.ctx.spine.last().is_none_or(|&r| s.flow.is_empty_at(r)));
        s.stats.router_carried_peak = self.ctx.peak();
        self.publish_spine();
        Ok(swept)
    }

    /// Patches the published solution with the nodes a spine solve wrote:
    /// each one's first-touch pre-state out, its current state in.
    fn publish_spine(&mut self) {
        let sol = self.last_good.as_mut().expect("a valid journal implies a published solution");
        let s = &self.scratch;
        let first = &self.ctx.first;
        let mut from = 0;
        for &(u, was, to) in &first.nodes {
            let old = &first.pairs[from..to];
            from = to;
            let (now, new) = (s.in_r[u as usize], &s.assigned[u as usize]);
            if was == now && old == new.as_slice() {
                continue;
            }
            let server = NodeId(u);
            for &(c, amount) in old {
                sol.retract(NodeId(c), server, amount);
            }
            if was {
                sol.unforce_replica(server);
                self.replicas -= 1;
            }
            if now {
                sol.force_replica(server);
                self.replicas += 1;
            }
            for &(c, amount) in new {
                sol.assign(NodeId(c), server, amount);
            }
        }
    }

    /// The committed solution of the last successful [`ServeEngine::solve`]
    /// (empty before the first solve), in canonical node order. After a
    /// `stale` outcome this is the last-known-good solution — exactly what
    /// the degraded answer described.
    pub fn solution(&self) -> Solution {
        self.last_good.clone().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::TreeBuilder;

    fn small_instance(capacity: u64, dmax: Option<u64>) -> Instance {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 4);
        b.add_client(n1, 2, 5);
        Instance::new(b.freeze().unwrap(), capacity, dmax).unwrap()
    }

    #[test]
    fn deltas_validate_before_writing() {
        let inst = small_instance(10, Some(4));
        let mut engine = ServeEngine::new(&inst).unwrap();
        // node ids: 0 root, 1 internal, 2 and 3 clients.
        assert_eq!(engine.apply_delta(2, DemandDelta::Add(3)).unwrap(), 7);
        assert_eq!(engine.apply_delta(2, DemandDelta::Sub(7)).unwrap(), 0);
        assert_eq!(engine.apply_delta(3, DemandDelta::Set(10)).unwrap(), 10);

        let err = engine.apply_delta(99, DemandDelta::Add(1)).unwrap_err();
        assert_eq!(err.code(), "unknown-node");
        let err = engine.apply_delta(1, DemandDelta::Add(1)).unwrap_err();
        assert_eq!(err.code(), "not-a-client");
        let err = engine.apply_delta(2, DemandDelta::Sub(1)).unwrap_err();
        assert_eq!(err, ServeError::Underflow { node: NodeId(2), current: 0, sub: 1 });
        let err = engine.apply_delta(3, DemandDelta::Add(1)).unwrap_err();
        assert_eq!(
            err,
            ServeError::ExceedsCapacity { node: NodeId(3), requests: 11, capacity: 10 }
        );
        // Rejections changed nothing.
        assert_eq!(engine.requests_of(2), Some(0));
        assert_eq!(engine.requests_of(3), Some(10));
        assert_eq!(engine.stats().deltas_applied, 3);
        assert_eq!(engine.stats().deltas_rejected, 4);
    }

    #[test]
    fn overflow_guard_matches_the_tree_bound() {
        // W above MAX_REQUESTS: the summation guards fire before the
        // capacity check (the overflow_regressions pattern: demand near
        // u64::MAX / 4 must be rejected structurally, never wrapped).
        let inst = small_instance(u64::MAX, None);
        let mut engine = ServeEngine::new(&inst).unwrap();
        // Client 3 still holds 5 requests, so maxing out client 2 is fine
        // per client but crosses the *tree-wide* volume bound.
        let err = engine.apply_delta(2, DemandDelta::Set(Tree::MAX_REQUESTS)).unwrap_err();
        assert_eq!(err.code(), "overflow-total");
        assert!(matches!(err, ServeError::TotalRequestsTooLarge { requested, .. }
            if requested == Tree::MAX_REQUESTS as u128 + 5));
        assert_eq!(engine.requests_of(2), Some(4), "rejected deltas change nothing");
        // Empty client 3 and the same delta fits the total exactly.
        engine.apply_delta(3, DemandDelta::Set(0)).unwrap();
        assert_eq!(engine.apply_delta(2, DemandDelta::Set(Tree::MAX_REQUESTS)).unwrap(), {
            Tree::MAX_REQUESTS
        });
        // One more request breaks the per-client bound (checked first).
        let err = engine.apply_delta(2, DemandDelta::Add(1)).unwrap_err();
        assert_eq!(err.code(), "overflow");
        assert!(matches!(err, ServeError::RequestsTooLarge { requested, .. }
            if requested == Tree::MAX_REQUESTS as u128 + 1));
        assert_eq!(engine.requests_of(2), Some(Tree::MAX_REQUESTS));
        // The engine still solves after the rejections.
        engine.apply_delta(2, DemandDelta::Set(5)).unwrap();
        let outcome = engine.solve().unwrap();
        assert!(outcome.replicas >= 1);
    }

    #[test]
    fn incremental_solves_match_cold_reference() {
        let inst = small_instance(10, Some(4));
        let mut engine = ServeEngine::new(&inst).unwrap();
        let mut reference = ServeEngine::new(&inst).unwrap();
        reference.set_naive_resolve(true);

        let deltas: [(u32, DemandDelta); 5] = [
            (2, DemandDelta::Add(3)),
            (3, DemandDelta::Sub(2)),
            (2, DemandDelta::Set(0)),
            (3, DemandDelta::Add(7)),
            (2, DemandDelta::Set(6)),
        ];
        let first = engine.solve().unwrap();
        assert!(!first.incremental, "the first solve builds the journal cold");
        reference.solve().unwrap();
        assert_eq!(engine.solution(), reference.solution());
        for (node, delta) in deltas {
            engine.apply_delta(node, delta).unwrap();
            reference.apply_delta(node, delta).unwrap();
            let outcome = engine.solve().unwrap();
            assert!(outcome.incremental, "a valid journal makes every re-solve incremental");
            reference.solve().unwrap();
            assert_eq!(engine.solution(), reference.solution());
            assert_eq!(engine.stage_stats(), reference.stage_stats());
        }
        assert!(engine.stats().incremental_solves >= 5);
        assert_eq!(reference.stats().incremental_solves, 0);
    }

    #[test]
    fn blown_budget_degrades_to_stale() {
        let inst = small_instance(10, Some(4));
        let mut engine = ServeEngine::new(&inst).unwrap();
        // A zero budget blows deterministically at the sweep's first
        // deadline probe.
        engine.set_solve_budget(Some(Duration::ZERO));
        // No last-known-good yet: a blown budget is a hard error.
        let err = engine.solve().unwrap_err();
        assert!(matches!(err, ServeError::Solve(SolveError::DeadlineExceeded { .. })), "{err:?}");
        engine.set_solve_budget(None);
        let good = engine.solve().unwrap();
        assert!(!good.stale);
        let reference = engine.solution();
        engine.set_solve_budget(Some(Duration::ZERO));
        engine.apply_delta(2, DemandDelta::Add(1)).unwrap();
        let outcome = engine.solve().unwrap();
        assert!(outcome.stale && !outcome.incremental);
        assert_eq!(outcome.replicas, good.replicas);
        assert_eq!(engine.solution(), reference, "stale answer is the last good solution");
        assert_eq!(engine.stats().stale_served, 1);
        // Lifting the budget catches the state back up (cold: the stale
        // solve invalidated the journal).
        engine.set_solve_budget(None);
        let caught_up = engine.solve().unwrap();
        assert!(!caught_up.stale && !caught_up.incremental);
    }

    #[test]
    fn histogram_quantiles_are_conservative() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [0, 1, 2, 3, 900, 1000, 1100, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!(h.mean_ns() > 0);
        assert_eq!(h.quantile_ns(0.5), 3, "values below 8 have exact buckets");
        assert_eq!(h.quantile_ns(0.99), 1_000_000, "the top bucket is clamped to the max");
        let mut top = LatencyHistogram::new();
        top.record_ns(u64::MAX);
        assert_eq!(top.quantile_ns(0.99), u64::MAX);
        // A lone sample reads back exactly, not as its octave's upper edge.
        let mut one = LatencyHistogram::new();
        one.record_ns(918_094_000);
        assert_eq!(one.quantile_ns(0.5), 918_094_000);

        // Every bucket's upper edge maps back into the bucket, and the next
        // value starts the next one.
        for b in 0..HIST_BUCKETS {
            assert_eq!(hist_bucket(hist_upper(b)), b);
            if b + 1 < HIST_BUCKETS {
                assert_eq!(hist_bucket(hist_upper(b) + 1), b + 1);
            }
        }

        // Over a spread of magnitudes, each quantile lies between the true
        // sample and 12.5% above it.
        let mut samples: Vec<u64> = (0..420u64)
            .map(|i| (1u64 << (i / 7)) + i.wrapping_mul(0x9E37_79B9) % (1u64 << (i / 7)))
            .collect();
        let mut h = LatencyHistogram::new();
        samples.iter().for_each(|&ns| h.record_ns(ns));
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let got = h.quantile_ns(q);
            assert!(got >= truth, "q={q}: {got} under the true sample {truth}");
            assert!(got - truth <= truth / 8, "q={q}: {got} over 12.5% above {truth}");
            assert!(got <= h.max_ns());
        }
    }

    #[test]
    fn error_display_is_exhaustive() {
        // The error.rs idiom: pattern-match every variant so a new one
        // cannot ship without Display coverage.
        let all = [
            ServeError::UnknownNode { node: 9 },
            ServeError::NotAClient { node: NodeId(1) },
            ServeError::Underflow { node: NodeId(2), current: 1, sub: 2 },
            ServeError::RequestsTooLarge { node: NodeId(2), requested: u128::MAX },
            ServeError::TotalRequestsTooLarge { node: NodeId(2), requested: u128::MAX },
            ServeError::ExceedsCapacity { node: NodeId(2), requests: 11, capacity: 10 },
            ServeError::Solve(SolveError::NotBinary { arity: 3 }),
            ServeError::Persist { op: "append", message: "disk full".into() },
            ServeError::Recovery { message: "WAL record damaged".into() },
        ];
        let mut codes = Vec::new();
        for e in all {
            match e {
                ServeError::UnknownNode { .. }
                | ServeError::NotAClient { .. }
                | ServeError::Underflow { .. }
                | ServeError::RequestsTooLarge { .. }
                | ServeError::TotalRequestsTooLarge { .. }
                | ServeError::ExceedsCapacity { .. }
                | ServeError::Solve(_)
                | ServeError::Persist { .. }
                | ServeError::Recovery { .. } => {}
            }
            assert!(!e.to_string().is_empty());
            assert!(!e.code().is_empty());
            codes.push(e.code());
        }
        let mut deduped = codes.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), codes.len(), "protocol codes must be distinct");
        use std::error::Error;
        assert!(ServeError::Solve(SolveError::NotBinary { arity: 3 }).source().is_some());
        assert!(ServeError::UnknownNode { node: 0 }.source().is_none());
    }
}
