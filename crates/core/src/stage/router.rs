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
//! lists and their pending volumes); [`route_suffix`] then resumes from the
//! snapshot for each placement, re-routing only the requests the changed
//! candidate can affect, and rewinds back to the snapshot afterwards. The
//! snapshot is sound because the sweep state at post-order position `p`
//! depends only on the replica flags of nodes at positions `< p`.
//!
//! # Hierarchical carried aggregation
//!
//! Carried lists are stored **unsorted**, each with two aggregates: the
//! total pending volume and the maximum deadline depth of its clients.
//! That turns the three per-node costs that used to be Θ(carried clients)
//! into O(1) or O(smaller side):
//!
//! * a non-replica node with no own demand and one populated child *moves*
//!   the child's list up in O(1) (the dominant step on chains and
//!   caterpillar spines — previously an O(clients) copy + sort per spine
//!   node, O(spine × clients) per maximal chain stage);
//! * merging at a join is small-to-large: the largest child list is taken
//!   as the base and the others are appended onto it, so over a whole sweep
//!   each client entry is copied O(log n) times instead of once per
//!   ancestor ([`StageStats::router_carry_merges`](crate::stage::StageStats)
//!   counts exactly these appends);
//! * the missed-deadline test needs no scan: within one carried list every
//!   deadline is an ancestor-or-self of the holding node `u`, i.e. all of
//!   them lie on the root path of `u`, where depth identifies a node
//!   uniquely — so "some client's deadline is `u`" is exactly
//!   `max deadline depth == depth(u)`. Sub-arena sweeps keep *global*
//!   depths (see [`rp_tree::TreeArena::rebuild_subtree`]), so the
//!   equivalence holds in the frontier-parallel workers too; deadlines
//!   above a worker's local root are the `NO_PARENT` sentinel and their
//!   (global) deadline depths are strictly above the local root, so they
//!   can never fake an equality.
//!
//! Ordering only matters where volume is *served*: a replica node sorts its
//! materialised list by `(deadline != u, deepest deadline first, client
//! id)` — one unstable sort whose explicit id tie-break reproduces the
//! historical "sort by id, then stable sort by deadline key" order, keeping
//! loads and commit logs bit-identical to the flat-list router
//! (`tests/proptest_router.rs` pins the equivalence).
//!
//! All state lives in [`RouterBufs`], dense rows recycled across calls,
//! stages and solves.

use crate::scratch::CommitEntry;
use rp_tree::arena::TreeArena;
use rp_tree::Requests;

/// Immutable context of one stage's routing calls: the tree, the capacity,
/// the deadline arrays, the stage's active forest (`order`, sorted by
/// post-order position, ending at `j`) and the stage's total demand (the
/// early-exit threshold: once that much volume is served the rest of the
/// sweep is a no-op).
pub(crate) struct RouteEnv<'a> {
    pub arena: &'a TreeArena,
    pub cap: Requests,
    pub deadline: &'a [u32],
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
    /// Clients pending at each node, children-merged bottom-up. Unsorted;
    /// invariant: every listed client has `pending > 0`.
    pub(crate) carried: Vec<Vec<u32>>,
    /// Σ pending over `carried[v]` (meaningful while the list is
    /// non-empty).
    carried_total: Vec<u64>,
    /// Max deadline depth over `carried[v]` (meaningful while the list is
    /// non-empty) — the O(1) missed-deadline handle, see the module docs.
    carried_max_dd: Vec<u32>,
    /// Nodes whose `carried` list may be non-empty (cleanup list).
    pub(crate) carried_touched: Vec<u32>,
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
    /// Staging buffer for the per-node pending list (recycled via swap).
    pub(crate) here_buf: Vec<u32>,
    /// Checkpointed frontier: `(node, client)` pairs of every carried list
    /// whose consuming parent lies in the suffix.
    ck_carried: Vec<(u32, u32)>,
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
        self.carried_max_dd.clear();
        self.carried_max_dd.resize(n, 0);
        self.epoch = 0;
        self.prefix_epoch = 0;
        self.served = 0;
        if self.carried.len() < n {
            self.carried.resize_with(n, Vec::new);
        }
        for list in self.carried.iter_mut() {
            list.clear();
        }
        self.carried_touched.clear();
        self.here_buf.clear();
        self.ck_carried.clear();
        self.ck_pending.clear();
        self.ck_touched_len = 0;
        self.ck_served = 0;
        self.carry_merges = 0;
        self.carried_peak = 0;
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
/// lists (every still-populated list waits for a parent beyond the
/// checkpoint; consumed lists are empty), the pending volume of their
/// clients — a client sits in exactly one carried list, so the snapshot is
/// disjoint — and the served tally.
fn snapshot(bufs: &mut RouterBufs) {
    bufs.ck_served = bufs.served;
    bufs.ck_touched_len = bufs.carried_touched.len();
    for i in 0..bufs.ck_touched_len {
        let v = bufs.carried_touched[i];
        for k in 0..bufs.carried[v as usize].len() {
            let c = bufs.carried[v as usize][k];
            bufs.ck_carried.push((v, c));
            bufs.ck_pending.push((c, bufs.pending[c as usize]));
        }
    }
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
    // Rewind to the snapshot: drop carried lists created by the suffix,
    // refill the (possibly consumed) frontier lists — rebuilding their
    // aggregates from the checkpointed pendings — and restore the frontier
    // clients' pending rows. Demand rows of suffix clients need no reset —
    // the next suffix overwrites them on visit.
    for i in bufs.ck_touched_len..bufs.carried_touched.len() {
        let v = bufs.carried_touched[i];
        bufs.carried[v as usize].clear();
    }
    bufs.carried_touched.truncate(bufs.ck_touched_len);
    let mut prev = u32::MAX;
    for i in 0..bufs.ck_carried.len() {
        let (v, c) = bufs.ck_carried[i];
        let (c2, p) = bufs.ck_pending[i];
        debug_assert_eq!(c, c2, "ck_carried and ck_pending are recorded in lockstep");
        let vi = v as usize;
        if v != prev {
            bufs.carried[vi].clear();
            bufs.carried_total[vi] = 0;
            bufs.carried_max_dd[vi] = 0;
            prev = v;
        }
        bufs.carried[vi].push(c);
        bufs.pending[c as usize] = p;
        bufs.carried_total[vi] += p;
        let dd = env.deadline_depth[c as usize];
        if dd > bufs.carried_max_dd[vi] {
            bufs.carried_max_dd[vi] = dd;
        }
    }
    bufs.here_buf.clear();
    res
}

/// Ends an incremental run: discards the snapshot and restores the resting
/// state (all carried lists empty, all pending rows zero). No-op when no
/// prefix was routed.
pub(crate) fn end_inner_run(bufs: &mut RouterBufs, demand_clients: &[u32]) {
    restore_resting(bufs, demand_clients);
}

/// Restores every row the sweep may have touched to its resting state:
/// cheap — proportional to what the calls actually used. Aggregates need
/// no reset: they are only read while a list is non-empty, and every
/// non-empty store writes them.
fn restore_resting(bufs: &mut RouterBufs, demand_clients: &[u32]) {
    for &v in bufs.carried_touched.iter() {
        bufs.carried[v as usize].clear();
    }
    bufs.carried_touched.clear();
    for &c in demand_clients {
        bufs.pending[c as usize] = 0;
    }
    bufs.here_buf.clear();
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
    let RouteEnv { arena, cap, deadline, deadline_depth, order, j, .. } = *env;
    let mut unserved_at_j = 0u64;
    for &u in &order[from..to] {
        let ui = u as usize;
        let own = demand[ui] > 0;

        // Survey the children's carried lists: how many are populated, and
        // which holds the most clients (the merge base).
        let mut populated = 0usize;
        let mut big = u32::MAX;
        for &c in arena.children(u) {
            let len = bufs.carried[c as usize].len();
            if len > 0 {
                populated += 1;
                if big == u32::MAX || len > bufs.carried[big as usize].len() {
                    big = c;
                }
            }
        }

        if !is_replica[ui] && !own {
            // Pass-through fast paths: nothing is served here and no new
            // client joins, so the aggregates answer everything without
            // touching the lists.
            if populated == 0 {
                continue;
            }
            if populated == 1 {
                let bi = big as usize;
                if u == j {
                    unserved_at_j = bufs.carried_total[bi];
                    bump_peak(bufs, bufs.carried[bi].len() as u64);
                    continue;
                }
                // Deadline passed? All pending volume sits in this one
                // list; see the module docs for the depth equivalence.
                if bufs.carried_max_dd[bi] == arena.depth(u) {
                    return None;
                }
                // Move the list (and its aggregates) up in O(1).
                bufs.carried[ui].clear();
                bufs.carried.swap(ui, bi);
                bufs.carried_total[ui] = bufs.carried_total[bi];
                bufs.carried_max_dd[ui] = bufs.carried_max_dd[bi];
                bufs.carried_touched.push(u);
                if bufs.served == env.total_demand {
                    break;
                }
                continue;
            }
            if u == j {
                // Stage root, nothing served here: the unserved volume is
                // the plain sum of what the children still carry.
                let mut total = 0u64;
                let mut size = 0u64;
                for &c in arena.children(u) {
                    let ci = c as usize;
                    if !bufs.carried[ci].is_empty() {
                        total += bufs.carried_total[ci];
                        size += bufs.carried[ci].len() as u64;
                    }
                }
                unserved_at_j = total;
                bump_peak(bufs, size);
                continue;
            }
        } else if u == j && !is_replica[ui] {
            // Stage root with own demand but no replica: own pending joins
            // the children's leftovers unserved.
            let mut total = demand[ui];
            let mut size = u64::from(own);
            for &c in arena.children(u) {
                let ci = c as usize;
                if !bufs.carried[ci].is_empty() {
                    total += bufs.carried_total[ci];
                    size += bufs.carried[ci].len() as u64;
                }
            }
            unserved_at_j = total;
            bump_peak(bufs, size);
            continue;
        }

        // General path: materialise the merged list, largest child list as
        // the base (taken by swap — free), the rest appended
        // (small-to-large: each client entry is appended O(log n) times
        // over a sweep).
        let mut here = std::mem::take(&mut bufs.here_buf);
        debug_assert!(here.is_empty());
        let mut total = 0u64;
        let mut max_dd = 0u32;
        if big != u32::MAX {
            let bi = big as usize;
            std::mem::swap(&mut bufs.carried[bi], &mut here);
            total = bufs.carried_total[bi];
            max_dd = bufs.carried_max_dd[bi];
        }
        for &c in arena.children(u) {
            if c == big {
                continue;
            }
            let ci = c as usize;
            let list = &mut bufs.carried[ci];
            if !list.is_empty() {
                bufs.carry_merges += list.len() as u64;
                here.extend_from_slice(list);
                list.clear();
                total += bufs.carried_total[ci];
                max_dd = max_dd.max(bufs.carried_max_dd[ci]);
            }
        }
        if own {
            bufs.pending[ui] = demand[ui];
            here.push(u);
            total += demand[ui];
            max_dd = max_dd.max(deadline_depth[ui]);
        }
        debug_assert!(here.iter().all(|&c| bufs.pending[c as usize] > 0));
        bump_peak(bufs, here.len() as u64);

        if is_replica[ui] {
            bufs.loads[ui] = 0;
            bufs.loads_at[ui] = bufs.epoch;
            // Must-serve-now: requests whose deadline is this node. Then
            // nearest deadline (deepest ancestor) first. The trailing id
            // key breaks ties exactly like the historical id-sort +
            // stable-keysort pair: equal keys mean the *same* deadline
            // node (all deadlines here lie on one root path), so ids are
            // the only tie left.
            here.sort_unstable_by_key(|&c| {
                (deadline[c as usize] != u, std::cmp::Reverse(deadline_depth[c as usize]), c)
            });
            let mut spare = cap;
            for &c in here.iter() {
                if spare == 0 {
                    break;
                }
                let rem = &mut bufs.pending[c as usize];
                let take = spare.min(*rem);
                *rem -= take;
                spare -= take;
                if take > 0 {
                    bufs.loads[ui] += take;
                    bufs.served += take;
                    if let Some(log) = commit.as_mut() {
                        log.push((u, c, take as Requests));
                    }
                }
            }
            total = 0;
            max_dd = 0;
            here.retain(|&c| {
                let p = bufs.pending[c as usize];
                if p > 0 {
                    total += p;
                    max_dd = max_dd.max(deadline_depth[c as usize]);
                    true
                } else {
                    false
                }
            });
        }

        // Anything still pending whose deadline is here cannot move up.
        if u != j && !here.is_empty() && max_dd == arena.depth(u) {
            bufs.here_buf = here;
            return None;
        }
        if u == j {
            unserved_at_j = total;
            bufs.here_buf = here;
        } else {
            if !here.is_empty() {
                bufs.carried_touched.push(u);
            }
            bufs.carried_total[ui] = total;
            bufs.carried_max_dd[ui] = max_dd;
            // Store `here` as u's carried list; the old (empty) list becomes
            // the staging buffer for the next node, recycling capacity.
            std::mem::swap(&mut bufs.carried[ui], &mut here);
            bufs.here_buf = here;
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
        s.stage_id = 1;
        let demand_clients = std::mem::take(&mut s.demand_clients);
        s.build_active_forest(j, &demand_clients);
        s.demand_clients = demand_clients;
        for &u in replicas {
            s.in_r[u as usize] = true;
        }
        let mut log: Vec<CommitEntry> = Vec::new();
        let verdict = {
            let SolverScratch {
                arena,
                deadline,
                deadline_depth,
                in_r,
                demand,
                demand_clients,
                active_nodes,
                router,
                ..
            } = &mut s;
            let total_demand: u64 = demand_clients.iter().map(|&c| demand[c as usize]).sum();
            let env = RouteEnv {
                arena,
                cap,
                deadline,
                deadline_depth,
                order: active_nodes,
                j,
                total_demand,
            };
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
