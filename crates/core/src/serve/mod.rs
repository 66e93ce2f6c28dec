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
//! # Incremental re-solve: the stage journal
//!
//! A `multiple-bin` solve is a bottom-up sweep whose pending-request flow
//! is a pure function of client demands and distances: a fragment of
//! client `c` travels exactly the *service path* `c → deadline(c)` and is
//! never absorbed en route (travelling requests stay pending by design —
//! see `crate::multiple_bin`), so changing one client's demand changes
//! stage *inputs* only along that client's service path. Every other
//! stage sees bit-identical stuck and travelling sets, and — because
//! [`StageEngine`](crate::stage::StageEngine) is deterministic given its
//! collected scope — produces bit-identical commits, *provided the state
//! its scope collection reads is also unchanged*.
//!
//! The engine exploits this with a two-generation **stage journal**: each
//! solve re-runs the cheap sweep, but a stage whose root is *flow-clean*
//! (off every changed client's service path) and whose collected scope
//! touches no *state-dirty* node (no node written differently by an
//! earlier re-computed stage) replays its journaled commit — placement,
//! buffered assignment writes and search counters — without enumerating,
//! routing or running the DP. Dirty stages run the real search and
//! journal their new outputs. Every solve after the first is incremental
//! while the journal is valid, whatever the batch size: a large batch
//! simply marks more stages dirty.
//!
//! Results are **bit-identical to a cold solve** on every delta sequence:
//! replayed stages write exactly the values a cold solve would recompute
//! (same inputs, deterministic engine), and `tests/proptest_serve.rs`
//! pins the equivalence — placements, assignments *and* `StageStats` —
//! against both the naive reference switch
//! ([`ServeEngine::set_naive_resolve`]) and from-scratch solves over
//! rebuilt trees. The `commit_touched` / `commit_skipped` / `stages`
//! counters are recomputed live on replay (the skipped share prices
//! off-scope subtree load through the Fenwick summary, which journaling
//! would falsify); only the search counters are journaled.
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
use crate::scratch::{
    check_binary, check_clients_fit, check_distances_fit, check_total_fits, CommitEntry,
    SolverScratch,
};
use crate::stage::StageStats;
use persist::{PersistConfig, PersistCounters, PersistState, Recovery};
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Dist, Instance, NodeId, Requests, Solution, Tree};
use std::collections::HashMap;
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
    /// Solves that did not replay from the journal: the first solve,
    /// naive-mode solves, failed or stale solves, and the solve after a
    /// failed or stale one (which finds no valid journal).
    pub full_solves: u64,
    /// Solves that ran with the stage journal enabled.
    pub incremental_solves: u64,
    /// Stages replayed from the journal, across all solves.
    pub stages_reused: u64,
    /// Stages re-searched (and re-journaled), across all solves.
    pub stages_recomputed: u64,
    /// Dirty clients of the most recent solve.
    pub last_dirty_clients: u64,
    /// Stages replayed by the most recent solve.
    pub last_reused: u64,
    /// Stages re-searched by the most recent solve.
    pub last_recomputed: u64,
    /// Solves that blew their deadline budget and answered with the
    /// last-known-good solution instead (the `stale` degradation path).
    pub stale_served: u64,
}

/// What one [`ServeEngine::solve`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Replica count of the committed solution.
    pub replicas: u64,
    /// Whether the stage journal was consulted (`false`: plain full solve).
    pub incremental: bool,
    /// `true` when the solve blew its deadline budget and this outcome
    /// describes the *last-known-good* solution, not one reflecting the
    /// latest deltas — the graceful-degradation path
    /// ([`ServeEngine::set_solve_budget`]). The next solve runs cold and
    /// catches the state up.
    pub stale: bool,
    /// Clients whose demand changed since the previous solve.
    pub dirty_clients: u64,
    /// Stages replayed from the journal.
    pub stages_reused: u64,
    /// Stages re-searched.
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

/// One journaled stage: everything needed to replay its commit without
/// re-running collection's downstream (candidates, enumeration, DP,
/// routing). Keyed by the stage root `j` — a node triggers at most one
/// stage per solve (its stuck set is determined by the post-order sweep),
/// so the key is unique.
#[derive(Debug, Default)]
pub(crate) struct StageRecord {
    /// The scope's replicas at collection time (canonical post-order) —
    /// kept for the replay debug-assert: a stage judged clean must collect
    /// exactly this scope.
    existing: Vec<u32>,
    /// The committed placement (new replicas).
    best_set: Vec<u32>,
    /// The buffered assignment writes of the commit route.
    commit_log: Vec<CommitEntry>,
    /// Nodes whose persistent state (`in_r` / `assigned` / `load`) this
    /// stage wrote: `existing ∪ best_set`. Marked state-dirty when the
    /// stage is re-searched or disappears, so later stages whose scopes
    /// overlap stop trusting their journal entries.
    touched: Vec<u32>,
    /// The stage's *search*-counter delta (subsets, DP visits, prefix
    /// routes…). `stages` / `commit_touched` / `commit_skipped` are always
    /// zero here: they are recomputed live on replay, because the skipped
    /// share depends on off-scope subtree loads.
    stats: StageStats,
}

/// The serve-mode solve context: the two-generation stage journal plus the
/// per-solve dirty marks. Installed into [`SolverScratch::serve`] around
/// the engine's sweeps and `None` everywhere else, so batch solvers never
/// pay for it.
#[derive(Debug, Default)]
pub(crate) struct ServeCtx {
    /// Journal of the previous successful solve (consulted this solve).
    prev: HashMap<u32, StageRecord>,
    /// Journal being built by the current solve.
    next: HashMap<u32, StageRecord>,
    /// Stamp per node; `== generation` means the node lies on a changed
    /// client's service path, so stage inputs there may have changed.
    flow_mark: Vec<u32>,
    /// Stamp per node; `== generation` means the node's persistent state
    /// diverged from the previous solve (written by a re-searched stage,
    /// or a changed client's self-serve slot).
    state_mark: Vec<u32>,
    /// Current solve's stamp (monotone; marks are never cleared).
    generation: u32,
    /// Stages replayed this solve.
    reused: u64,
    /// Stages re-searched this solve.
    recomputed: u64,
}

impl ServeCtx {
    /// Opens a solve: bumps the mark generation (wrap-safe), sizes the mark
    /// rows and resets the per-solve counters. A full solve needs no replay
    /// switch: `prev` is empty whenever the journal is invalid, so every
    /// stage re-searches and records.
    fn begin_solve(&mut self, n: usize) {
        if self.generation == u32::MAX {
            self.flow_mark.iter_mut().for_each(|m| *m = 0);
            self.state_mark.iter_mut().for_each(|m| *m = 0);
            self.generation = 0;
        }
        self.generation += 1;
        if self.flow_mark.len() < n {
            self.flow_mark.resize(n, 0);
            self.state_mark.resize(n, 0);
        }
        self.reused = 0;
        self.recomputed = 0;
        self.next.clear();
    }

    /// Closes a successful solve: the journal just built becomes the one
    /// the next solve compares against.
    fn finish_solve(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.next);
        self.next.clear();
    }

    /// Drops both journal generations (after a failed solve: the slab
    /// state is unspecified, so nothing recorded can be trusted).
    fn invalidate(&mut self) {
        self.prev.clear();
        self.next.clear();
    }

    fn mark_flow(&mut self, u: u32) {
        self.flow_mark[u as usize] = self.generation;
    }

    fn is_flow_dirty(&self, u: u32) -> bool {
        self.flow_mark[u as usize] == self.generation
    }

    fn mark_state(&mut self, u: u32) {
        self.state_mark[u as usize] = self.generation;
    }

    fn is_state_dirty(&self, u: u32) -> bool {
        self.state_mark[u as usize] == self.generation
    }
}

/// Stage hook (called by `StageEngine::serve_stuck` right after scope
/// collection): replays stage `j`'s journaled commit and returns `true`
/// when the stage is provably clean — `j` is flow-clean (identical stuck
/// and travelling inputs, by the service-path argument in the module docs)
/// and its freshly collected scope visits no state-dirty node (identical
/// collected pool, replicas and assignments: the closure walk reads only
/// `in_r` / `assigned` on visited nodes, and walks diverge first at a
/// visited dirty node). Replay performs exactly the writes of the cold
/// commit path — clear the scope's loads, place the journaled best set,
/// flush the journaled log, release the demand rows — plus the journaled
/// search-counter delta.
pub(crate) fn try_replay(s: &mut SolverScratch, ctx: &mut ServeCtx, j: u32) -> bool {
    if ctx.is_flow_dirty(j) || !ctx.prev.contains_key(&j) {
        return false;
    }
    for &u in s.active_nodes.iter() {
        if ctx.is_state_dirty(u) {
            return false;
        }
    }
    let rec = ctx.prev.remove(&j).expect("presence checked above");
    debug_assert_eq!(rec.existing, s.existing, "a clean stage re-collects its journaled scope");
    {
        let SolverScratch { arena, existing, assigned, load, load_sums, .. } = &mut *s;
        for &u in existing.iter() {
            let ui = u as usize;
            if load[ui] > 0 {
                load_sums.add(arena.post_position(u), -(load[ui] as i64));
            }
            assigned[ui].clear();
            load[ui] = 0;
        }
    }
    for &u in &rec.best_set {
        debug_assert!(!s.in_r[u as usize], "journaled placements target free nodes");
        s.in_r[u as usize] = true;
    }
    for &(u, c, amount) in &rec.commit_log {
        let ui = u as usize;
        s.assigned[ui].push((c, amount));
        s.load[ui] += amount;
        s.load_sums.add(s.arena.post_position(u), amount as i64);
    }
    {
        let SolverScratch { demand, demand_clients, .. } = &mut *s;
        for &c in demand_clients.iter() {
            demand[c as usize] = 0;
        }
        demand_clients.clear();
    }
    s.stats.absorb(&rec.stats);
    ctx.next.insert(j, rec);
    ctx.reused += 1;
    true
}

/// Stage hook (after a re-searched stage committed): journals the stage's
/// outputs for the next solve and marks the state it wrote — old and new —
/// dirty, so downstream stages whose scopes overlap fall back to the real
/// search. `pre` is the stats snapshot taken right after the collection
/// block; the recorded delta therefore covers exactly the search phase.
/// `stage_peak` is the stage's own carried-peak (a max, not a count — it
/// cannot be recovered from `post − pre` and is journaled verbatim so
/// replays reproduce the cold solve's peak exactly).
pub(crate) fn record_stage(
    s: &SolverScratch,
    ctx: &mut ServeCtx,
    j: u32,
    pre: &StageStats,
    stage_peak: u64,
) {
    let mut touched = Vec::with_capacity(s.existing.len() + s.best_set.len());
    touched.extend_from_slice(&s.existing);
    touched.extend_from_slice(&s.best_set);
    // Output-equality damping: a re-searched stage whose commit came out
    // bit-identical to its journal entry (same scope cleared, same
    // placements, same buffered writes in the same order) wrote exactly
    // the state the previous solve left behind — downstream journal
    // entries stay valid, so nothing is marked and the dirtiness cascade
    // stops here. Without this, one deep delta on a scope-overlapping
    // chain (a tight-dmax caterpillar) re-searches every stage above it.
    let unchanged = match ctx.prev.remove(&j) {
        Some(old) => {
            let same = old.existing == s.existing
                && old.best_set == s.best_set
                && old.commit_log == s.commit_log;
            if !same {
                for &u in &old.touched {
                    ctx.mark_state(u);
                }
            }
            same
        }
        None => false,
    };
    if !unchanged {
        for &u in &touched {
            ctx.mark_state(u);
        }
    }
    let mut stats = stats_delta(&s.stats, pre);
    debug_assert_eq!(
        (stats.stages, stats.commit_touched, stats.commit_skipped),
        (0, 0, 0),
        "live-recomputed counters precede the search phase"
    );
    stats.router_carried_peak = stage_peak;
    let rec = StageRecord {
        existing: s.existing.clone(),
        best_set: s.best_set.clone(),
        commit_log: s.commit_log.clone(),
        touched,
        stats,
    };
    ctx.next.insert(j, rec);
    ctx.recomputed += 1;
}

/// Sweep hook for nodes that trigger *no* stage this solve: a journaled
/// stage that silently disappears (its stuck set emptied by a delta) must
/// still poison the state it used to write. Flow-clean nodes cannot change
/// stuckness, so the journal lookup only runs on the (short) dirty paths.
pub(crate) fn note_no_stage(s: &mut SolverScratch, j: u32) {
    let Some(ctx) = s.serve.as_deref_mut() else { return };
    if !ctx.is_flow_dirty(j) {
        return;
    }
    if let Some(old) = ctx.prev.remove(&j) {
        for &u in &old.touched {
            ctx.mark_state(u);
        }
    }
}

/// Field-wise `post - pre` over every count-like [`StageStats`] counter
/// (all are monotone within a solve). `router_carried_peak` is a max, not
/// a count — subtraction is meaningless for it, so the delta carries 0 and
/// [`record_stage`] overwrites it with the stage's own peak.
fn stats_delta(post: &StageStats, pre: &StageStats) -> StageStats {
    StageStats {
        stages: post.stages - pre.stages,
        subsets_enumerated: post.subsets_enumerated - pre.subsets_enumerated,
        subsets_routed: post.subsets_routed - pre.subsets_routed,
        subsets_pruned: post.subsets_pruned - pre.subsets_pruned,
        prefix_routes: post.prefix_routes - pre.prefix_routes,
        dp_sizes_skipped: post.dp_sizes_skipped - pre.dp_sizes_skipped,
        dp_bound_skips: post.dp_bound_skips - pre.dp_bound_skips,
        dp_fallbacks: post.dp_fallbacks - pre.dp_fallbacks,
        dp_node_visits: post.dp_node_visits - pre.dp_node_visits,
        repairs: post.repairs - pre.repairs,
        commit_touched: post.commit_touched - pre.commit_touched,
        commit_skipped: post.commit_skipped - pre.commit_skipped,
        router_carry_merges: post.router_carry_merges - pre.router_carry_merges,
        router_carried_peak: 0,
        scope_cache_hits: 0,
    }
}

/// A warm `multiple-bin` solver answering demand deltas — see the module
/// docs for the journal-memoized incremental re-solve and its equivalence
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
    /// Whether `ctx.prev` describes the current slab state (false until
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
    /// degrades to.
    last_good: Option<Solution>,
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
        check_binary(scratch.arena())?;
        check_clients_fit(scratch.arena(), w)?;
        check_total_fits(scratch.arena())?;
        check_distances_fit(scratch.arena())?;
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

    /// Re-solves under the current demand. Incremental (journal-replaying)
    /// exactly when a valid journal exists and the engine is not naive;
    /// plain full otherwise. Either way the committed slab state — and
    /// hence [`ServeEngine::solution`] — is bit-identical to a cold solve
    /// of the same demands.
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
        let incremental = journal && self.journal_valid;

        self.scratch.solve_deadline =
            self.budget.map(|b| (Instant::now() + b, b.as_millis() as u64));
        let result = self.solve_serial(journal, incremental);
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
            Ok(solution) => {
                let (reused, recomputed) =
                    if journal { (self.ctx.reused, self.ctx.recomputed) } else { (0, 0) };
                let replicas = solution.replica_count() as u64;
                self.last_good = Some(solution);
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
                Ok(ServeOutcome {
                    replicas,
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
                let replicas = self.last_good.as_ref().map_or(0, |s| s.replica_count() as u64);
                Ok(ServeOutcome {
                    replicas,
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

    /// The serial sweep, with the stage journal installed when `journal`
    /// (and consulted when `incremental`).
    fn solve_serial(&mut self, journal: bool, incremental: bool) -> Result<Solution, SolveError> {
        self.scratch.prepare_multiple_bin();
        self.scratch.prepare_deadlines(self.dmax);

        if journal {
            debug_assert!(incremental || self.ctx.prev.is_empty(), "only a valid journal replays");
            let n = self.scratch.arena().len();
            self.ctx.begin_solve(n);
            if incremental {
                for i in 0..self.changed.len() {
                    let c = self.changed[i];
                    // The client's own slot may flip between self-serve
                    // and pending, so its state is dirty either way…
                    self.ctx.mark_state(c);
                    // …and its fragments flow exactly along the service
                    // path c → deadline(c) (see the module docs).
                    let dl = self.scratch.deadline[c as usize];
                    let mut at = c;
                    loop {
                        self.ctx.mark_flow(at);
                        if at == dl || self.scratch.arena().parent(at) == NO_PARENT {
                            break;
                        }
                        at = self.scratch.arena().parent(at);
                    }
                }
            }
            self.scratch.serve = Some(std::mem::take(&mut self.ctx));
        }
        let result = mb_sweep(&mut self.scratch, self.w, self.dmax, None, None);
        if journal {
            self.ctx = self.scratch.serve.take().unwrap_or_default();
            if result.is_ok() {
                self.ctx.finish_solve();
            }
        }
        result?;
        Ok(collect_solution(&self.scratch))
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
