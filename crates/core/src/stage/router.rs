//! Earliest-deadline-first routing of stage demand over a replica set.
//!
//! The router decides feasibility of a candidate placement: it sweeps the
//! stage subtree bottom-up (post-order), carrying each client's unserved
//! volume towards the stage root. A replica first serves the requests whose
//! deadline is the replica's own node (their last chance), then fills the
//! remaining capacity with pending requests of the nearest (deepest)
//! deadline. A placement is feasible iff the sweep finishes with no request
//! past its deadline and no volume left at the stage root.
//!
//! Because the enumeration probes thousands of placements that differ in a
//! single node, the router supports **checkpointed incremental re-routing**:
//! [`route_prefix`] routes the part of the post-order sweep shared by a run
//! of sibling placements once and snapshots the live state (frontier carried
//! heaps and their pending volumes); [`route_suffix`] then resumes from the
//! snapshot for each placement, re-routing only the requests the changed
//! candidate can affect, and rewinds back to the snapshot afterwards. The
//! snapshot is sound because the sweep state at post-order position `p`
//! depends only on the replica flags of nodes at positions `< p`.
//!
//! # Hierarchical carried aggregation
//!
//! Carried sets are max-heaps of static per-client keys — the pending
//! heap shared with the `multiple-bin` sweep ([`crate::heap`]) — keyed by
//! `(deadline depth desc, client id asc)`, each with one aggregate: the
//! total pending volume. That turns the per-node costs that used to be
//! Θ(carried clients) into O(1) or O(log n) per entry touched:
//!
//! * a non-replica node with no own demand and one populated child *moves*
//!   the child's heap up in O(1) (the dominant step on chains and
//!   caterpillar spines — previously an O(clients) copy + sort per spine
//!   node, O(spine × clients) per maximal chain stage);
//! * merging at a join is small-to-large: the largest child heap is taken
//!   as the base and the others are pushed onto it, so over a whole sweep
//!   each client entry is pushed O(log n) times instead of once per
//!   ancestor ([`StageStats::router_carry_merges`](crate::stage::StageStats)
//!   counts exactly these pushes);
//! * the missed-deadline test needs no scan: within one carried heap every
//!   deadline is an ancestor-or-self of the holding node `u`, i.e. all of
//!   them lie on the root path of `u`, where depth identifies a node
//!   uniquely — so "some client's deadline is `u`" is exactly
//!   "the top's deadline depth is `depth(u)`". Sub-arena sweeps keep
//!   *global* depths (see [`rp_tree::TreeArena::rebuild_subtree`]), so the
//!   equivalence holds in the frontier-parallel workers too; deadlines
//!   above a worker's local root are the `NO_PARENT` sentinel and their
//!   (global) deadline depths are strictly above the local root, so they
//!   can never fake an equality.
//!
//! The same equivalence makes the heap order the serving order: a replica
//! node serves the requests whose deadline is itself first, then the
//! deepest deadline, ties by client id — and `deadline == u` is
//! `deadline depth == depth(u)`, the largest depth in the heap. So a
//! replica serves by popping the top, leaving a partially served client
//! there, with no sort and no scan of the rest. Loads and commit logs are
//! bit-identical to the flat-list router that sorted by id and then
//! stable-sorted by `(deadline != u, deepest deadline first)`
//! (`tests/proptest_router.rs` pins the equivalence).
//!
//! All state lives in [`RouterBufs`], dense rows recycled across calls,
//! stages and solves.

use crate::heap::HeapForest;
use crate::scratch::CommitEntry;
use rp_tree::arena::TreeArena;
use rp_tree::Requests;

/// The carried-heap key of client `c`: deadline depth in the high half,
/// the complemented id in the low half, so the max-heap top is the deepest
/// deadline and, among equal deadlines, the smallest id.
#[inline]
fn carry_key(deadline_depth: &[u32], c: u32) -> u64 {
    (u64::from(deadline_depth[c as usize]) << 32) | u64::from(!c)
}

/// The client of a [`carry_key`].
#[inline]
fn key_client(key: u64) -> u32 {
    !(key as u32)
}

/// The deadline depth of a [`carry_key`].
#[inline]
fn key_depth(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Immutable context of one stage's routing calls: the tree, the capacity,
/// the deadline depths, the stage's active forest (`order`, sorted by
/// post-order position, ending at `j`) and the stage's total demand (the
/// early-exit threshold: once that much volume is served the rest of the
/// sweep is a no-op).
pub(crate) struct RouteEnv<'a> {
    pub arena: &'a TreeArena,
    pub cap: Requests,
    pub deadline_depth: &'a [u32],
    pub order: &'a [u32],
    pub j: u32,
    pub total_demand: u64,
}

/// The router's reusable state: live rows of the current sweep plus the
/// checkpoint of the shared prefix (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct RouterBufs {
    /// Remaining unserved volume per client during one routing call.
    pub(crate) pending: Vec<u64>,
    /// Clients pending at each node, children-merged bottom-up: a max-heap
    /// of [`carry_key`]s, so the top is the next client to serve.
    /// Invariant: every held client has `pending > 0`.
    carried: HeapForest<u64>,
    /// Σ pending over `carried[v]` (meaningful while the heap is
    /// non-empty).
    carried_total: Vec<u64>,
    /// Nodes whose `carried` heap may be non-empty (cleanup list).
    carried_touched: Vec<u32>,
    /// Per-replica load accumulated by the routing call.
    pub(crate) loads: Vec<u64>,
    /// Epoch stamp of each `loads` row: a row is only meaningful for the
    /// current route if its stamp matches (sweeps may exit early and leave
    /// stale rows behind; see [`RouterBufs::routed_load`]).
    loads_at: Vec<u32>,
    /// Monotone sweep counter behind [`RouterBufs::loads_at`].
    epoch: u32,
    /// Epoch of the live prefix checkpoint (0 = none): prefix-written load
    /// rows stay valid for every suffix of the run.
    prefix_epoch: u32,
    /// Volume served so far by the current route (prefix + suffix).
    served: u64,
    /// Checkpointed frontier: `(node, key)` pairs of every carried heap
    /// whose consuming parent lies in the suffix, in heap array order.
    ck_carried: Vec<(u32, u64)>,
    /// Checkpointed pending volume of every frontier client.
    ck_pending: Vec<(u32, u64)>,
    /// Length of `carried_touched` at the checkpoint.
    ck_touched_len: usize,
    /// `served` at the checkpoint.
    ck_served: u64,
    /// Client entries appended across small-to-large list merges since the
    /// last harvest — the router's merge work (moves are free and not
    /// counted). Folded into `StageStats::router_carry_merges` per stage.
    pub(crate) carry_merges: u64,
    /// Largest carried set materialised (or summed at the stage root)
    /// since the last harvest. Folded into
    /// `StageStats::router_carried_peak` per stage.
    pub(crate) carried_peak: u64,
}

impl RouterBufs {
    /// Sizes the node-indexed rows for an `n`-node tree and drops any state
    /// left over from a previous solve. Allocations are kept.
    pub(crate) fn prepare(&mut self, n: usize) {
        self.pending.clear();
        self.pending.resize(n, 0);
        self.loads.clear();
        self.loads.resize(n, 0);
        self.loads_at.clear();
        self.loads_at.resize(n, 0);
        self.carried_total.clear();
        self.carried_total.resize(n, 0);
        self.epoch = 0;
        self.prefix_epoch = 0;
        self.served = 0;
        self.carried.prepare(n, false);
        self.carried_touched.clear();
        self.ck_carried.clear();
        self.ck_pending.clear();
        self.ck_touched_len = 0;
        self.ck_served = 0;
        self.carry_merges = 0;
        self.carried_peak = 0;
    }

    /// The sweep counter behind the load stamps. It only grows between
    /// [`RouterBufs::prepare`] calls, so a long-lived caller that never
    /// re-prepares must watch it for wrap-around (the serve engine does).
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Moves the sweep counter forward to `to` (never backward): stale
    /// stamps stay below it, so nothing aliases. The serve engine's
    /// wrap-guard test hook.
    pub(crate) fn advance_epoch(&mut self, to: u32) {
        self.epoch = self.epoch.max(to);
    }

    /// The load the *current* route put on replica `u` — 0 when the sweep
    /// exited early before reaching it (or never visited it at all).
    pub(crate) fn routed_load(&self, u: u32) -> u64 {
        let at = self.loads_at[u as usize];
        if at == self.epoch || (self.prefix_epoch != 0 && at == self.prefix_epoch) {
            self.loads[u as usize]
        } else {
            0
        }
    }
}

/// Routes the whole stage subtree in one call and restores the resting
/// state afterwards. Returns `Some(unserved volume at j)` — 0 means the
/// placement is feasible, with the per-replica loads left in
/// [`RouterBufs::loads`] — or `None` if some request passed its deadline.
///
/// With `commit` set, every assignment the sweep makes is appended to the
/// log as a `(node, client, amount)` entry — the sweep itself never
/// mutates the persistent `assigned` / `load` slabs, so one call both
/// decides feasibility and stages the writes; the caller flushes the log
/// only on a `Some(0)` verdict (the fused stage commit in `crate::stage`).
pub(crate) fn route_full(
    env: &RouteEnv<'_>,
    is_replica: &[bool],
    demand: &[u64],
    demand_clients: &[u32],
    bufs: &mut RouterBufs,
    commit: Option<&mut Vec<CommitEntry>>,
) -> Option<u64> {
    bufs.epoch += 1;
    bufs.prefix_epoch = 0;
    bufs.served = 0;
    let res = sweep(env, 0, env.order.len(), is_replica, demand, bufs, commit);
    restore_resting(bufs, demand_clients);
    res
}

/// Routes `order[..barrier]` — the sweep prefix shared by a run of
/// placements — and snapshots the live state so [`route_suffix`] can resume
/// from it repeatedly. Returns `false` when the prefix is already
/// infeasible for every placement of the run (a request's deadline passed
/// below the barrier); the state is then restored to resting.
///
/// The caller must set the replica flags of every prefix node before the
/// call and must finish the run with [`end_inner_run`].
pub(crate) fn route_prefix(
    env: &RouteEnv<'_>,
    barrier: usize,
    is_replica: &[bool],
    demand: &[u64],
    demand_clients: &[u32],
    bufs: &mut RouterBufs,
) -> bool {
    debug_assert!(bufs.ck_carried.is_empty() && bufs.ck_pending.is_empty());
    bufs.epoch += 1;
    bufs.prefix_epoch = bufs.epoch;
    bufs.served = 0;
    if sweep(env, 0, barrier, is_replica, demand, bufs, None).is_none() {
        restore_resting(bufs, demand_clients);
        return false;
    }
    snapshot(bufs);
    true
}

/// Advances the live prefix state from position `from` to `to` — the
/// replica flags must be the run's shared prefix (the varying candidate
/// cleared) — and re-snapshots there, so subsequent suffixes start at `to`.
/// Loads written here carry the prefix epoch, staying valid for every
/// later suffix of the run. Returns `false` when the prefix becomes
/// infeasible on the way (every remaining placement of the run shares that
/// failure); the state is then restored to resting.
pub(crate) fn advance_checkpoint(
    env: &RouteEnv<'_>,
    from: usize,
    to: usize,
    is_replica: &[bool],
    demand: &[u64],
    demand_clients: &[u32],
    bufs: &mut RouterBufs,
) -> bool {
    let saved_epoch = bufs.epoch;
    bufs.epoch = bufs.prefix_epoch;
    bufs.served = bufs.ck_served;
    let ok = sweep(env, from, to, is_replica, demand, bufs, None).is_some();
    bufs.epoch = saved_epoch;
    if !ok {
        restore_resting(bufs, demand_clients);
        return false;
    }
    bufs.ck_carried.clear();
    bufs.ck_pending.clear();
    snapshot(bufs);
    true
}

/// Records the live state as the run's checkpoint: the frontier carried
/// heaps (every still-populated heap waits for a parent beyond the
/// checkpoint; consumed heaps are empty), the pending volume of their
/// clients — a client sits in exactly one carried heap, so the snapshot is
/// disjoint — and the served tally. Heaps are recorded in array order:
/// re-pushing that order rebuilds the identical heap without a single
/// swap.
fn snapshot(bufs: &mut RouterBufs) {
    let RouterBufs { carried, carried_touched, pending, ck_carried, ck_pending, .. } = bufs;
    for &v in carried_touched.iter() {
        for &key in carried.get(v).iter() {
            ck_carried.push((v, key));
            let c = key_client(key);
            ck_pending.push((c, pending[c as usize]));
        }
    }
    bufs.ck_served = bufs.served;
    bufs.ck_touched_len = bufs.carried_touched.len();
}

/// Resumes the sweep from the [`route_prefix`] snapshot, routing
/// `order[barrier..]` with the current replica flags, then rewinds the
/// state back to the snapshot so the next suffix can run. Same verdict as
/// [`route_full`]; the loads of prefix replicas (from the prefix run) and
/// suffix replicas (from this run) are both valid right after the call.
pub(crate) fn route_suffix(
    env: &RouteEnv<'_>,
    barrier: usize,
    is_replica: &[bool],
    demand: &[u64],
    bufs: &mut RouterBufs,
) -> Option<u64> {
    bufs.epoch += 1;
    bufs.served = bufs.ck_served;
    let res = sweep(env, barrier, env.order.len(), is_replica, demand, bufs, None);
    // Rewind to the snapshot: drop carried heaps created by the suffix,
    // refill the (possibly consumed) frontier heaps — rebuilding their
    // totals from the checkpointed pendings — and restore the frontier
    // clients' pending rows. Demand rows of suffix clients need no reset —
    // the next suffix overwrites them on visit.
    let RouterBufs {
        carried,
        carried_total,
        carried_touched,
        pending,
        ck_carried,
        ck_pending,
        ck_touched_len,
        ..
    } = bufs;
    for &v in &carried_touched[*ck_touched_len..] {
        carried.get_mut(v).clear();
    }
    carried_touched.truncate(*ck_touched_len);
    let mut prev = u32::MAX;
    for (&(v, key), &(c, p)) in ck_carried.iter().zip(ck_pending.iter()) {
        debug_assert_eq!(key_client(key), c, "ck_carried and ck_pending are recorded in lockstep");
        if v != prev {
            carried.get_mut(v).clear();
            carried_total[v as usize] = 0;
            prev = v;
        }
        carried.get_mut(v).push(key);
        pending[c as usize] = p;
        carried_total[v as usize] += p;
    }
    res
}

/// Ends an incremental run: discards the snapshot and restores the resting
/// state (all carried heaps empty, all pending rows zero). No-op when no
/// prefix was routed.
pub(crate) fn end_inner_run(bufs: &mut RouterBufs, demand_clients: &[u32]) {
    restore_resting(bufs, demand_clients);
}

/// Restores every row the sweep may have touched to its resting state:
/// cheap — proportional to what the calls actually used. Totals need no
/// reset: they are only read while a heap is non-empty, and every
/// non-empty store writes them.
fn restore_resting(bufs: &mut RouterBufs, demand_clients: &[u32]) {
    for &v in bufs.carried_touched.iter() {
        bufs.carried.get_mut(v).clear();
    }
    bufs.carried_touched.clear();
    for &c in demand_clients {
        bufs.pending[c as usize] = 0;
    }
    bufs.ck_carried.clear();
    bufs.ck_pending.clear();
    bufs.ck_touched_len = 0;
}

/// The EDF sweep over `order[from..to]`. Returns `None` on a passed
/// deadline, otherwise `Some(unserved volume at j)` (meaningful only when
/// the range reaches the end of the order, where `j` sits).
fn sweep(
    env: &RouteEnv<'_>,
    from: usize,
    to: usize,
    is_replica: &[bool],
    demand: &[u64],
    bufs: &mut RouterBufs,
    mut commit: Option<&mut Vec<CommitEntry>>,
) -> Option<u64> {
    let RouteEnv { arena, cap, deadline_depth, order, j, .. } = *env;
    let mut unserved_at_j = 0u64;
    for &u in &order[from..to] {
        let ui = u as usize;
        let own = demand[ui] > 0;
        let children = arena.children(u);

        // Survey the children's carried heaps: how many are populated, and
        // which holds the most clients (the merge base).
        let populated = children.iter().filter(|&&c| !bufs.carried.get(c).is_empty()).count();
        let big = bufs.carried.largest_child(children);

        if !is_replica[ui] && !own {
            // Pass-through fast paths: nothing is served here and no new
            // client joins, so the aggregates answer everything without
            // touching the heaps.
            let Some(b) = big else { continue };
            if populated == 1 {
                let bi = b as usize;
                if u == j {
                    unserved_at_j = bufs.carried_total[bi];
                    bump_peak(bufs, bufs.carried.get(b).len() as u64);
                    continue;
                }
                // Deadline passed? All pending volume sits in this one
                // heap; see the module docs for the depth equivalence.
                if bufs.carried.get(b).peek().map(|&k| key_depth(k)) == Some(arena.depth(u)) {
                    return None;
                }
                // Move the heap (and its total) up in O(1).
                bufs.carried.move_up(b, u);
                bufs.carried_total[ui] = bufs.carried_total[bi];
                bufs.carried_touched.push(u);
                if bufs.served == env.total_demand {
                    break;
                }
                continue;
            }
            if u == j {
                // Stage root, nothing served here: the unserved volume is
                // the plain sum of what the children still carry.
                let (total, size) = children_totals(bufs, children);
                unserved_at_j = total;
                bump_peak(bufs, size);
                continue;
            }
        } else if u == j && !is_replica[ui] {
            // Stage root with own demand but no replica: own pending joins
            // the children's leftovers unserved.
            let (total, size) = children_totals(bufs, children);
            unserved_at_j = total + demand[ui];
            bump_peak(bufs, size + 1);
            continue;
        }

        // General path: gather the children's heaps into u's, largest as
        // the base (taken by swap — free), the rest pushed (small-to-large:
        // each client entry is pushed O(log n) times over a sweep).
        let (mut total, _) = children_totals(bufs, children);
        bufs.carry_merges += bufs.carried.gather(u, children, big, false);
        if own {
            bufs.pending[ui] = demand[ui];
            bufs.carried.get_mut(u).push(carry_key(deadline_depth, u));
            total += demand[ui];
        }
        let size = bufs.carried.get(u).len() as u64;
        if size == 0 {
            // A replica with nothing to serve (its load reads 0 through the
            // epoch stamps).
            debug_assert!(is_replica[ui]);
            if u != j && bufs.served == env.total_demand {
                break;
            }
            continue;
        }
        bufs.carried_touched.push(u);
        bump_peak(bufs, size);

        if is_replica[ui] {
            bufs.loads[ui] = 0;
            bufs.loads_at[ui] = bufs.epoch;
            // Serve in heap order (see the module docs): must-serve-now
            // requests sit on top, then the nearest deadline; a client the
            // spare runs out on stays on top, partially served.
            let mut spare = cap;
            while spare > 0 {
                let Some(&key) = bufs.carried.get(u).peek() else { break };
                let c = key_client(key);
                let rem = &mut bufs.pending[c as usize];
                debug_assert!(*rem > 0);
                let take = spare.min(*rem);
                *rem -= take;
                spare -= take;
                if *rem == 0 {
                    bufs.carried.get_mut(u).pop();
                }
                bufs.loads[ui] += take;
                bufs.served += take;
                total -= take;
                if let Some(log) = commit.as_mut() {
                    log.push((u, c, take as Requests));
                }
            }
        }

        // Anything still pending whose deadline is here cannot move up.
        let top_depth = bufs.carried.get(u).peek().map(|&k| key_depth(k));
        if u == j {
            unserved_at_j = total;
        } else {
            if top_depth == Some(arena.depth(u)) {
                return None;
            }
            bufs.carried_total[ui] = total;
            // Early exit: once the whole stage demand is served, the rest
            // of the sweep is a no-op (no pending volume anywhere, so no
            // deadline can be missed and nothing reaches `j`). Loads of
            // unvisited replicas read as 0 via the epoch stamps.
            if bufs.served == env.total_demand {
                break;
            }
        }
    }
    Some(unserved_at_j)
}

/// Σ pending and Σ clients over the populated carried heaps of `children`.
fn children_totals(bufs: &RouterBufs, children: &[u32]) -> (u64, u64) {
    let mut total = 0u64;
    let mut size = 0u64;
    for &c in children {
        let len = bufs.carried.get(c).len();
        if len > 0 {
            total += bufs.carried_total[c as usize];
            size += len as u64;
        }
    }
    (total, size)
}

#[inline]
fn bump_peak(bufs: &mut RouterBufs, size: u64) {
    if size > bufs.carried_peak {
        bufs.carried_peak = size;
    }
}

/// Test-only driver: routes one demand/placement scenario through the
/// production router exactly as the stage engine would, exposing every
/// observable of the call (verdict, loads, staged commit log, counters and
/// the deadline rows it ran under) so `tests/proptest_router.rs` can pin
/// the aggregated router against an independent flat-list reference.
#[doc(hidden)]
pub mod testing {
    use super::*;
    use crate::scratch::SolverScratch;
    use rp_tree::{Dist, Tree};

    /// Result of one [`route`] call through the production router.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RouteRun {
        /// `Some(unserved volume at j)` — 0 means the placement is
        /// feasible — or `None` when a request passed its deadline.
        pub verdict: Option<u64>,
        /// Load routed onto each queried replica, in `replicas` order.
        pub loads: Vec<u64>,
        /// The staged commit log: `(replica, client, amount)` in the exact
        /// order the sweep wrote it.
        pub commit: Vec<(u32, u32, u64)>,
        /// Entries appended by small-to-large merges (the physical work the
        /// aggregation saves; folded into `StageStats::router_carry_merges`
        /// by the stage engine).
        pub carry_merges: u64,
        /// Largest carried set materialised or summed at the stage root.
        pub carried_peak: u64,
        /// The deadline node per tree node, as `prepare_deadlines` derived
        /// it from `dmax` — input for reference implementations.
        pub deadline: Vec<u32>,
        /// `depth(deadline[v])` per tree node.
        pub deadline_depth: Vec<u32>,
        /// The active-forest sweep order the route ran over.
        pub order: Vec<u32>,
    }

    /// Routes `demand` over the `replicas` placement exactly as the stage
    /// engine does: deadlines derived from `dmax` via `prepare_deadlines`,
    /// active forest built from the demand clients' paths to `j`, then one
    /// committing `route_full` call.
    pub fn route(
        tree: &Tree,
        j: u32,
        cap: u64,
        dmax: Option<Dist>,
        replicas: &[u32],
        demand: &[(u32, u64)],
    ) -> RouteRun {
        let mut s = SolverScratch::new();
        s.load_arena(tree);
        s.prepare_multiple_bin();
        s.prepare_deadlines(dmax);
        for &(c, w) in demand {
            if s.demand[c as usize] == 0 {
                s.demand_clients.push(c);
            }
            s.demand[c as usize] += w;
        }
        // The active forest: every demand client's path up to `j`.
        s.stage_id = 1;
        for i in 0..s.demand_clients.len() {
            let mut at = s.demand_clients[i];
            while s.active_mark[at as usize] != s.stage_id {
                s.active_mark[at as usize] = s.stage_id;
                s.active_nodes.push(at);
                if at == j {
                    break;
                }
                at = s.arena.parent(at);
            }
        }
        s.seal_active_forest(j);
        for &u in replicas {
            s.in_r[u as usize] = true;
        }
        let mut log: Vec<CommitEntry> = Vec::new();
        let verdict = {
            let SolverScratch {
                arena,
                deadline_depth,
                in_r,
                demand,
                demand_clients,
                active_nodes,
                router,
                ..
            } = &mut s;
            let total_demand: u64 = demand_clients.iter().map(|&c| demand[c as usize]).sum();
            let env = RouteEnv { arena, cap, deadline_depth, order: active_nodes, j, total_demand };
            route_full(&env, in_r, demand, demand_clients, router, Some(&mut log))
        };
        RouteRun {
            verdict,
            loads: replicas.iter().map(|&u| s.router.routed_load(u)).collect(),
            commit: log,
            carry_merges: s.router.carry_merges,
            carried_peak: s.router.carried_peak,
            deadline: s.deadline.clone(),
            deadline_depth: s.deadline_depth.clone(),
            order: s.active_nodes.clone(),
        }
    }
}
