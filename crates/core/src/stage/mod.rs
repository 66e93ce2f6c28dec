//! The stage engine behind the Multiple-policy sweep (`multiple-bin`).
//!
//! Algorithm 3 places replicas lazily: the bottom-up sweep only acts when
//! pending requests get **stuck** at a node `j` — they cannot travel above
//! it without violating `dmax`. Serving them is a *stage*: place the
//! minimum number of new replicas inside `subtree(j)` so that the newly
//! stuck volume, plus whatever already-assigned volume has to move to make
//! room (re-routable — replica positions are fixed, assignments are not),
//! fits. The same route-then-place stage pattern recurs across the
//! distance- and QoS-constrained variants of the problem, so it lives here
//! as its own subsystem, split by concern:
//!
//! * [`mod@self`] — the stage driver (`serve_stuck`): scoped demand
//!   collection, candidate eligibility, the fused buffered commit, and the
//!   [`StageStats`] counters;
//! * `router` — earliest-deadline-first feasibility routing, with
//!   checkpointed incremental re-routing across similar placements and a
//!   buffered-write commit mode;
//! * `enumerate` — the pruned branch-and-bound search for the best
//!   minimum-size placement;
//! * `dp` — the fungible stage dynamic program, serving both as the
//!   enumeration's lower bound / incumbent seed and as the
//!   reassignment-free fallback for oversized stages (it holds existing
//!   assignments fixed, so it can open more replicas than the stage
//!   needs); both modes run one uncapped sparse pass (`chain_dp`) over the
//!   stage's scope forest, with one pooled segment store and one convex
//!   merge (no steady-state allocation) — the lower bound takes every
//!   scope node, the fallback only the stuck paths.
//!
//! # Incremental stage commits: the affected scope
//!
//! A stage does **not** rebuild the world under `j`. It collects demand
//! only from its *affected scope* — the closure obtained by seeding the
//! demand pool with the stuck clients and walking each pool client's
//! **service path** (the client up to its deadline, truncated at `j`):
//! every replica the walk crosses joins the scope and its assignments
//! join the pool (enqueueing their clients for the same walk), until a
//! fixpoint. Walks stop at already-visited nodes, so collection is
//! O(|scope forest|), not O(|subtree|), and the commit clears and
//! re-routes only the scope's replicas; everything else in `subtree(j)`
//! keeps its assignments untouched.
//!
//! The restriction is **exact**, by the ancestry argument that powers the
//! active forest plus deadline-reachability. A replica can serve a client
//! only from the client's service path — at or below its deadline, at or
//! above the client — so a replica off every pool client's service path
//! can serve none of the pool in any feasible routing; excluding its
//! capacity loses nothing. Conversely its own clients are not in the pool
//! (a replica's assignments are deadline-valid, so it sits on its own
//! clients' service paths and would have been collected through them), so
//! leaving its assignments in place keeps them served exactly as before.
//! Displacement chains are fully captured: if freeing capacity on some
//! replica `u` for stuck volume requires moving `u`'s clients onto
//! another replica `v`, then `u` is on a stuck client's service path (it
//! joined the scope on their walk — a newly stuck client's deadline is
//! `j` itself, since its fragment travelled to `j` legally but cannot
//! leave, so stuck walks cover the whole `j`-path), `u`'s clients are in
//! the pool, and `v` — necessarily on one of their service paths to serve
//! them — is crossed by that client's walk and joins the scope too. And a
//! minimum-size placement never opens a replica off the scope forest:
//! such a replica could serve no pool client, so dropping it (after
//! returning any displaced off-pool clients to their pre-stage replicas,
//! which hold exactly their old assignments) would stay feasible,
//! contradicting minimality. Hence the minimum replica count of the
//! scoped stage equals the minimum of the historical whole-subtree
//! collection; only the tie-broken choice *among* minimum placements can
//! differ (the spare of untouched far replicas no longer participates in
//! scoring).
//!
//! The commit itself is a single **buffered-write pass**: one routing
//! sweep over the committed replica set appends `(node, client, amount)`
//! entries to a log, and the log is flushed into the persistent
//! `assigned` / `load` slabs only on a feasible verdict — replacing the
//! historical check-then-commit double route.
//!
//! # Pricing the skipped volume: request conservation
//!
//! The [`StageStats::commit_touched`] / [`StageStats::commit_skipped`]
//! counters split the volume assigned inside `subtree(j)` into re-routed
//! scope volume and untouched off-scope volume. The subtree total needs no
//! walk of the region the scope avoided, because the sweep conserves
//! requests: when the stage at `j` fires, every request issued below `j`
//! is either still pending in `req(j)` (the `stuck` and `travelling`
//! slices the stage receives) or assigned to a replica inside
//! `subtree(j)` — under the Multiple policy a request is served only by
//! an ancestor of its client, and no ancestor above `j` has been swept
//! yet. So the assigned volume is `sub_demand[j]` (the requests issued in
//! `subtree(j)`, which the sweep writes as it passes each node) minus the
//! pending volume. The naive reference sums `load` over the subtree
//! instead, so `tests/proptest_stage_commit.rs` checks the identity.
//!
//! A stage walks its forest once. The stuck clients head the collection
//! queue and walk all the way to `j`, so the nodes their walks mark are
//! exactly the *stuck forest*; the collection stamps them into
//! `stuck_mark` as it goes. A DP fallback runs over the sorted scope
//! forest itself and skips every node off the stuck forest, so no second
//! forest is built, and the scope forest stays in place for the commit
//! route.
//!
//! Every stage starts from the committed state alone: nothing is carried
//! from one stage to the next. Everything runs on the dense slabs of
//! [`SolverScratch`]; the engine owns no state of its own.

pub(crate) mod chain_dp;
pub(crate) mod dp;
pub(crate) mod enumerate;
pub(crate) mod router;

#[doc(hidden)]
pub use dp::testing as dp_testing;
pub use router::testing as router_testing;

use crate::error::SolveError;
use crate::scratch::{flush, SolverScratch};
use router::RouteEnv;
use rp_tree::arena::NO_PARENT;
use rp_tree::{Dist, NodeId, Requests};

/// `w` requests of `client`, currently at distance `d` from the node whose
/// pending set contains them (the `req(j)` entries of Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRequest {
    /// Distance already travelled from the issuing client.
    pub d: Dist,
    /// Number of requests in the fragment.
    pub w: Requests,
    /// The issuing client (raw node index).
    pub client: u32,
}

/// Counters of one solve's stage work, exposed through
/// [`SolverScratch::stage_stats`](crate::SolverScratch::stage_stats) and
/// listed once by [`StageStats::counters`], which every report iterates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stages run (stuck events served).
    pub stages: u64,
    /// Candidate subsets considered by the enumeration.
    pub subsets_enumerated: u64,
    /// Subsets actually routed (full or incremental).
    pub subsets_routed: u64,
    /// Subsets skipped by the coverage / incumbent / shared-prefix bounds.
    pub subsets_pruned: u64,
    /// Shared-prefix routes of the incremental router.
    pub prefix_routes: u64,
    /// Subset sizes proven infeasible by the stage-DP lower bound.
    pub dp_sizes_skipped: u64,
    /// Stages whose whole enumeration the lower bound proved infeasible.
    pub dp_bound_skips: u64,
    /// Stages solved by the reassignment-free DP fallback.
    pub dp_fallbacks: u64,
    /// Nodes processed by the stage DP across all its passes (lower-bound
    /// probes and fallback runs alike) — the observability handle on the
    /// fallback-dominated cells: since the DP walks the stage's active
    /// forest, this stays proportional to |active| · passes, not to the
    /// subtree sizes.
    pub dp_node_visits: u64,
    /// Stage commits whose placement failed to route (each aborts the
    /// solve with [`SolveError::StageRepair`]; always 0 in a valid build).
    pub repairs: u64,
    /// Previously-assigned volume collected into stage scopes and
    /// re-routed by the commits (requests, summed over all stages).
    pub commit_touched: u64,
    /// Assigned volume that sat inside stage subtrees but outside the
    /// stages' affected scopes, and was therefore left untouched — the
    /// volume the historical whole-subtree collection would have cleared
    /// and re-routed. The observability handle on the incremental commit:
    /// stage-dense instances live or die by this staying high.
    pub commit_skipped: u64,
    /// Carried-heap entries physically pushed by the router's
    /// small-to-large merges, summed over all routing sweeps — the
    /// observability handle on hierarchical carried aggregation: the
    /// historical flat merge moved every entry at every spine node
    /// (O(spine × clients) on chains); the aggregated router moves whole
    /// heaps by pointer swap and only pays per entry on genuine merges,
    /// so deep chains keep this near clients · log(clients).
    pub router_carry_merges: u64,
    /// Largest carried heap (pending clients riding one node's heap)
    /// materialised by any single routing sweep — a max across stages,
    /// not a sum (merged with `max`, journaled per stage by the serve
    /// engine).
    pub router_carried_peak: u64,
    /// Always 0. Kept so the benchmark harness keeps parsing its traced
    /// runs: its only reader is `add_stage_counts` in
    /// `perfbench/src/report.rs`, which reads the counter out of this
    /// struct's `Debug` text.
    pub scope_cache_hits: u64,
}

/// Position of `router_carried_peak` in [`StageStats::counters`]: the one
/// running maximum among the counters. It merges with `max` and is never
/// retracted; every other counter is a plain event count.
const PEAK: usize = 13;

impl StageStats {
    /// Every counter as `(field name, value)`, in field order — the one
    /// list that the parallel merge, the serve journal, `rp solve
    /// --stage-stats`, `stage_probe --json` and the scaling report iterate.
    /// The retired `scope_cache_hits` is not in it.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 14] {
        let StageStats {
            stages,
            subsets_enumerated,
            subsets_routed,
            subsets_pruned,
            prefix_routes,
            dp_sizes_skipped,
            dp_bound_skips,
            dp_fallbacks,
            dp_node_visits,
            repairs,
            commit_touched,
            commit_skipped,
            router_carry_merges,
            router_carried_peak,
            scope_cache_hits: _,
        } = self;
        [
            ("stages", stages),
            ("subsets_enumerated", subsets_enumerated),
            ("subsets_routed", subsets_routed),
            ("subsets_pruned", subsets_pruned),
            ("prefix_routes", prefix_routes),
            ("dp_sizes_skipped", dp_sizes_skipped),
            ("dp_bound_skips", dp_bound_skips),
            ("dp_fallbacks", dp_fallbacks),
            ("dp_node_visits", dp_node_visits),
            ("repairs", repairs),
            ("commit_touched", commit_touched),
            ("commit_skipped", commit_skipped),
            ("router_carry_merges", router_carry_merges),
            ("router_carried_peak", router_carried_peak),
        ]
    }

    /// [`StageStats::counters_mut`] by value.
    pub fn counters(&self) -> [(&'static str, u64); 14] {
        let mut copy = *self;
        copy.counters_mut().map(|(name, v)| (name, *v))
    }

    /// Adds every counter of `other` into `self` — the merge step of the
    /// frontier-parallel `multiple-bin` driver (`crate::par`), which sums
    /// the workers' per-subtree counters into the session scratch. The
    /// counters are plain event counts, so summation is exact and
    /// order-independent; `router_carried_peak` is a running maximum and
    /// merges with `max`, which is just as order-independent.
    pub(crate) fn absorb(&mut self, other: &StageStats) {
        for (i, ((_, total), (_, v))) in
            self.counters_mut().into_iter().zip(other.counters()).enumerate()
        {
            *total = if i == PEAK { (*total).max(v) } else { *total + v };
        }
    }

    /// Subtracts every count-like counter of `stage` from `self` — the
    /// serve journal's undo of one stage. `router_carried_peak` is left
    /// alone: a max cannot be retracted, so the journal's peak multiset
    /// owns it.
    pub(crate) fn retract(&mut self, stage: &StageStats) {
        for (i, ((_, total), (_, v))) in
            self.counters_mut().into_iter().zip(stage.counters()).enumerate()
        {
            if i != PEAK {
                *total -= v;
            }
        }
    }
}

/// Runs one stage over a prepared [`SolverScratch`] (the `multiple-bin`
/// sweep calls it once per stuck event): serve the newly stuck requests
/// inside `subtree(j)` with the minimum number of new replicas, re-routing
/// the assignments of the stage's *affected scope* (replica positions are
/// fixed; loads are not) and leaving the rest of the subtree untouched —
/// see the module docs for the scope closure and its exactness argument.
/// `stuck` and `travelling` are the whole of `req(j)`.
///
/// # Errors
///
/// [`SolveError::StageRepair`] if the chosen placement fails to route at
/// commit time, and [`SolveError::StageDpExhausted`] if the DP fallback
/// cannot serve the stuck volume even with a replica on every free node —
/// solver invariant violations that release builds surface instead of
/// silently degrading.
pub(crate) fn serve_stuck(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    stuck: &[PendingRequest],
    travelling: &[PendingRequest],
) -> Result<(), SolveError> {
    debug_assert!(!stuck.is_empty());
    let pre_stats = scratch.stats;
    scratch.stats.stages += 1;
    scratch.stage_id += 1;
    // Scoped demand collection (see the module docs): the demand pool, the
    // affected scope's replicas and the active forest all come out of one
    // closure walk seeded by the stuck clients. The naive reference
    // recomputes the same fixpoint by whole-subtree scans and sums the
    // subtree's loads directly (test-only).
    let (collected, subtree_vol) = if scratch.naive_stage_commit {
        let collected = collect_scope_naive(scratch, j, stuck);
        let s = &*scratch;
        (collected, s.arena.subtree_post(j).iter().map(|&u| s.load[u as usize]).sum())
    } else {
        // Touched vs. skipped volume by request conservation (see the
        // module docs): what was issued below `j` and is no longer pending
        // is assigned inside `subtree(j)`.
        let collected = collect_scope(scratch, j, stuck);
        let pending: u64 = stuck.iter().chain(travelling).map(|t| t.w).sum();
        (collected, scratch.sub_demand[j as usize] - pending)
    };
    debug_assert!(subtree_vol >= collected, "scope volume is part of the subtree volume");
    scratch.stats.commit_touched += collected;
    scratch.stats.commit_skipped += subtree_vol - collected;

    // Serve-mode journal (`crate::serve`): with a journal installed, the
    // scope just collected is captured before the commit clears it, so a
    // later spine solve can undo this stage. Taken out of the scratch
    // around the search so the hooks can borrow both halves; restored on
    // every path, including errors.
    let mut serve_ctx = scratch.serve.take();
    if let Some(ctx) = serve_ctx.as_deref_mut() {
        crate::serve::capture_scope(scratch, ctx);
    }
    let result = serve_stuck_search(scratch, w, j, stuck, travelling);
    if result.is_ok() {
        // Fold the stage's router counters into the solve stats. The fold
        // happens here, per stage, so the serve journal can record the
        // stage's *own* peak (a max is not recoverable from a post − pre
        // delta) — carried stages then reproduce the cold solve's peak
        // exactly, whichever stage dominates.
        let stage_merges = std::mem::take(&mut scratch.router.carry_merges);
        let stage_peak = std::mem::take(&mut scratch.router.carried_peak);
        scratch.stats.router_carry_merges += stage_merges;
        if stage_peak > scratch.stats.router_carried_peak {
            scratch.stats.router_carried_peak = stage_peak;
        }
        if let Some(ctx) = serve_ctx.as_deref_mut() {
            crate::serve::record_stage(scratch, ctx, j, &pre_stats, stage_peak);
        }
    }
    scratch.serve = serve_ctx;
    result
}

/// The search half of a stage: candidate selection, placement search
/// (enumeration or DP fallback), commit and flush. The collection half (and
/// its live counters) runs in [`serve_stuck`] before the serve-mode scope
/// capture.
fn serve_stuck_search(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    stuck: &[PendingRequest],
    travelling: &[PendingRequest],
) -> Result<(), SolveError> {
    {
        let s = &mut *scratch;
        // Candidate hosts for new replicas: free active nodes eligible
        // for at least one demand fragment, i.e. lying between a
        // demanding client and its deadline. One bottom-up min-relax of
        // the deadline depth along the active forest decides
        // eligibility — `u` is on some demand path iff a demanding
        // client below it has a deadline at or above `u` — replacing
        // the former O(depth)-per-client path walks.
        for i in 0..s.active_nodes.len() {
            let u = s.active_nodes[i] as usize;
            s.min_dd[u] = if s.demand[u] > 0 { s.deadline_depth[u] } else { u32::MAX };
        }
        for i in 0..s.active_nodes.len() {
            let u = s.active_nodes[i];
            if u != j {
                let p = s.arena.parent(u) as usize;
                s.min_dd[p] = s.min_dd[p].min(s.min_dd[u as usize]);
            }
        }
        s.candidates.clear();
        s.cand_pos.clear();
        for (i, &u) in s.active_nodes.iter().enumerate() {
            if !s.in_r[u as usize] && s.min_dd[u as usize] <= s.arena.depth(u) {
                s.candidates.push(u);
                s.cand_pos.push(i as u32);
            }
        }

        // Replicas stranded off the active forest (zero assignments, no
        // demand path through them) are simply never visited by the
        // sweeps; the router's epoch stamps make their load rows read
        // as zero wherever the scorer looks.
    }

    if !enumerate::best_placement(scratch, w, j, travelling) {
        // Candidate space too large for the enumeration cost model, or
        // every affordable subset size is provably infeasible: fall
        // back to the reassignment-free dynamic program over the stuck
        // volume (stuck-forest restricted — see `dp`). The fallback
        // skips the scope nodes off the stuck paths the collection marked,
        // so the scope forest stays in place for the commit route below.
        scratch.stats.dp_fallbacks += 1;
        dp::fallback_placement(scratch, w, j, stuck)?;
    }

    // Commit: clear the scope's assignments (off-scope replicas keep
    // theirs — the module docs' exactness argument) and re-route the
    // pool over the scope's old and new replicas together.
    {
        let s = &mut *scratch;
        for i in 0..s.existing.len() {
            s.clear_slot(s.existing[i]);
        }
        for i in 0..s.best_set.len() {
            let u = s.best_set[i];
            debug_assert!(!s.in_r[u as usize]);
            s.in_r[u as usize] = true;
        }
    }
    // One buffered-write pass both proves the placement routes and
    // stages the assignment writes; the log is flushed only on a
    // feasible verdict. Enumeration results are pre-checked, but the
    // DP fallback models old assignments as fixed while the commit
    // re-routes them — if the routings ever disagreed, surface a
    // structured error instead of silently degrading the solution in
    // release builds. (The naive reference keeps the historical
    // check-then-write double route.)
    if scratch.naive_stage_commit && route_on_committed(scratch, w, j, false) != Some(0) {
        scratch.stats.repairs += 1;
        return Err(SolveError::StageRepair { node: NodeId(j) });
    }
    if route_on_committed(scratch, w, j, true) != Some(0) {
        scratch.stats.repairs += 1;
        return Err(SolveError::StageRepair { node: NodeId(j) });
    }

    // Flush the buffered writes and release the stage's demand rows.
    let SolverScratch { assigned, load, commit_log, demand, demand_clients, .. } = scratch;
    flush(assigned, load, commit_log);
    // The flushed log is left in place: the next route clears it on entry
    // (`route_on_committed`).
    for &c in demand_clients.iter() {
        demand[c as usize] = 0;
    }
    demand_clients.clear();
    Ok(())
}

/// Scoped demand collection (the incremental path; see the module docs):
/// seeds the pool with the stuck fragments, then walks each pool client's
/// *service path* — from the client up to its deadline, truncated at `j` —
/// marking active-forest nodes and absorbing the assignments of every
/// replica crossed, whose clients join the pool and the walk queue
/// (`demand_clients` doubles as that queue). Newly stuck clients always
/// walk all the way to `j` (a fragment only reaches `j`'s pending set
/// within its distance budget, so a stuck client's deadline *is* `j`);
/// collected clients stop at their own deadline, which is what keeps
/// far-away replica neighbourhoods out of the closure. Walks stop at
/// already-marked nodes, so the whole closure is O(|scope forest|). The
/// stuck clients head the queue, so the nodes their walks mark are
/// exactly the stuck forest (every stuck path up to `j`); those are
/// stamped into `stuck_mark` too, for the DP fallback. Fills
/// `demand` / `demand_clients`, `existing` and the sealed active forest;
/// returns the collected (previously-assigned) volume.
fn collect_scope(s: &mut SolverScratch, j: u32, stuck: &[PendingRequest]) -> u64 {
    debug_assert!(s.demand_clients.is_empty());
    let stamp = s.stage_id;
    s.existing.clear();
    s.active_nodes.clear();
    for t in stuck {
        if s.demand[t.client as usize] == 0 {
            s.demand_clients.push(t.client);
        }
        s.demand[t.client as usize] += t.w;
        debug_assert_eq!(
            s.deadline[t.client as usize], j,
            "a stuck fragment travelled legally to j but cannot leave it"
        );
    }
    let stuck_clients = s.demand_clients.len();
    let mut collected = 0u64;
    let mut next = 0;
    while next < s.demand_clients.len() {
        let c = s.demand_clients[next];
        let on_stuck_path = next < stuck_clients;
        next += 1;
        debug_assert!(s.arena.is_ancestor_or_self(j, c), "pool clients live in subtree(j)");
        let dl = s.deadline[c as usize];
        // A frontier worker's pool clients all have deadlines inside its
        // sub-arena (see `crate::par`), so the sentinel never reaches here.
        debug_assert_ne!(dl, NO_PARENT, "pool clients have a deadline in the arena");
        let mut at = c;
        loop {
            if s.active_mark[at as usize] == stamp {
                break;
            }
            s.active_mark[at as usize] = stamp;
            s.active_nodes.push(at);
            if on_stuck_path {
                s.stuck_mark[at as usize] = stamp;
            }
            if s.in_r[at as usize] {
                s.existing.push(at);
                for k in 0..s.assigned[at as usize].len() {
                    let (x, amount) = s.assigned[at as usize][k];
                    if s.demand[x as usize] == 0 {
                        s.demand_clients.push(x);
                    }
                    s.demand[x as usize] += amount;
                    collected += amount;
                }
            }
            if at == j || at == dl {
                break;
            }
            at = s.arena.parent(at);
        }
    }
    s.seal_active_forest(j);
    canonicalize_scope(s);
    collected
}

/// Sorts the scope's replicas by post-order position, so downstream
/// consumers that are sensitive to `existing` order (the placement
/// scorer's stable depth sort) see one canonical order regardless of how
/// the collection discovered the scope. The demand pool is deliberately
/// *not* canonicalized: `demand_clients` doubles as the walk queue, and
/// the realized forest depends on walk order (stuck clients first, then
/// discovery order) — reordering it changes which truncated path
/// segments get marked.
fn canonicalize_scope(s: &mut SolverScratch) {
    let SolverScratch { arena, existing, .. } = s;
    existing.sort_unstable_by_key(|&u| arena.post_position(u));
}

/// The naive whole-subtree reference for [`collect_scope`] (test-only,
/// behind [`SolverScratch::set_naive_stage_commit`]): computes the same
/// affected-scope fixpoint by repeatedly scanning every replica of
/// `subtree(j)` for one sitting on a pool client's service path, then
/// builds the truncated active forest from the final pool —
/// O(|subtree|²) per stage, but obviously correct.
/// `tests/proptest_stage_commit.rs` pins the two paths to identical
/// results.
fn collect_scope_naive(s: &mut SolverScratch, j: u32, stuck: &[PendingRequest]) -> u64 {
    debug_assert!(s.demand_clients.is_empty());
    s.existing.clear();
    for t in stuck {
        if s.demand[t.client as usize] == 0 {
            s.demand_clients.push(t.client);
        }
        s.demand[t.client as usize] += t.w;
    }
    let stuck_clients = s.demand_clients.len();
    let mut collected = 0u64;
    let mut changed = true;
    while changed {
        changed = false;
        for p in 0..s.arena.subtree_size(j) {
            let u = s.arena.subtree_post(j)[p];
            if !s.in_r[u as usize] || s.existing.contains(&u) {
                continue;
            }
            // `u` is in scope iff it sits on some pool client's service
            // path: at or below the client's deadline, at or above the
            // client (the same rule the candidate masks use).
            let on_pool_path = (0..s.demand_clients.len()).any(|i| {
                let c = s.demand_clients[i];
                s.arena.is_ancestor_or_self(u, c)
                    && s.arena.is_ancestor_or_self(s.deadline[c as usize], u)
            });
            if !on_pool_path {
                continue;
            }
            s.existing.push(u);
            for k in 0..s.assigned[u as usize].len() {
                let (c, amount) = s.assigned[u as usize][k];
                if s.demand[c as usize] == 0 {
                    s.demand_clients.push(c);
                }
                s.demand[c as usize] += amount;
                collected += amount;
            }
            changed = true;
        }
    }
    build_scope_forest(s, j, stuck_clients);
    canonicalize_scope(s);
    collected
}

/// Builds the stage's scope forest — the union of the pool clients'
/// service paths, each truncated at its deadline or `j` — from the current
/// `demand_clients` under the current stage stamp, stamping the paths of
/// the first `stuck_clients` entries (the stuck clients, which walk up to
/// `j`) into `stuck_mark` as [`collect_scope`] does. Used by the naive
/// collection reference and the strict-DP test hook.
fn build_scope_forest(s: &mut SolverScratch, j: u32, stuck_clients: usize) {
    let stamp = s.stage_id;
    s.active_nodes.clear();
    for i in 0..s.demand_clients.len() {
        let c = s.demand_clients[i];
        let dl = s.deadline[c as usize];
        let mut at = c;
        loop {
            if s.active_mark[at as usize] == stamp {
                break;
            }
            s.active_mark[at as usize] = stamp;
            s.active_nodes.push(at);
            if i < stuck_clients {
                s.stuck_mark[at as usize] = stamp;
            }
            if at == j || at == dl {
                break;
            }
            at = s.arena.parent(at);
        }
    }
    s.seal_active_forest(j);
}

/// Routes the stage demand over the committed replica set (`in_r`). With
/// `commit` set, the assignment writes are buffered into the scratch's
/// commit log (cleared first) for the caller to flush on a feasible
/// verdict; the persistent `assigned` / `load` slabs are never touched
/// here.
fn route_on_committed(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    commit: bool,
) -> Option<u64> {
    let SolverScratch {
        arena,
        deadline_depth,
        in_r,
        demand,
        demand_clients,
        active_nodes,
        router: bufs,
        commit_log,
        ..
    } = scratch;
    let total_demand: u64 = demand_clients.iter().map(|&c| demand[c as usize]).sum();
    let env = RouteEnv { arena, cap: w, deadline_depth, order: active_nodes, j, total_demand };
    commit_log.clear();
    router::route_full(
        &env,
        in_r,
        demand,
        demand_clients,
        bufs,
        if commit { Some(commit_log) } else { None },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`StageStats`] whose listed counters hold `base + position`.
    fn distinct(base: u64) -> StageStats {
        let mut stats = StageStats::default();
        for (i, (_, v)) in stats.counters_mut().into_iter().enumerate() {
            *v = base + i as u64;
        }
        stats
    }

    #[test]
    fn counter_table_matches_the_debug_text() {
        let stats = distinct(1000);
        let debug = format!("{stats:?}");
        for (name, value) in stats.counters() {
            // Every listed counter is followed by `scope_cache_hits`, so
            // the pair always ends in a comma.
            assert!(debug.contains(&format!(" {name}: {value},")), "{name} in {debug}");
        }
        let mut names: Vec<&str> = stats.counters().iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), stats.counters().len(), "counter names are unique");
        assert!(!names.contains(&"scope_cache_hits"), "the retired counter is not listed");
        assert_eq!(stats.counters()[PEAK].0, "router_carried_peak");
    }

    #[test]
    fn absorb_sums_counts_maxes_the_peak_and_retract_undoes_the_counts() {
        let mut total = distinct(100);
        let stage = distinct(10);
        total.absorb(&stage);
        for (i, ((name, after), (_, before))) in
            total.counters().into_iter().zip(distinct(100).counters()).enumerate()
        {
            let expected =
                if i == PEAK { before.max(10 + i as u64) } else { before + 10 + i as u64 };
            assert_eq!(after, expected, "{name}");
        }
        let mut high = StageStats { router_carried_peak: 7, ..StageStats::default() };
        high.absorb(&StageStats { router_carried_peak: 3, ..StageStats::default() });
        assert_eq!(high.router_carried_peak, 7, "absorb keeps the larger peak");
        high.absorb(&StageStats { router_carried_peak: 9, ..StageStats::default() });
        assert_eq!(high.router_carried_peak, 9, "absorb takes the larger peak");

        total.retract(&stage);
        assert_eq!(total, distinct(100), "retract restores every count and leaves the peak");
    }
}
