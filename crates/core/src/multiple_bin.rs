//! Algorithm 3 of the paper: `multiple-bin`, which the paper proves optimal
//! for the Multiple policy on binary trees with distance constraints when
//! every client can be served locally (`r_i ≤ W`, Theorem 6).
//!
//! This module is the thin sweep driver; the stage machinery it triggers
//! lives in [`crate::stage`].
//!
//! The sweep processes nodes bottom-up. Every node `j` maintains `req(j)`,
//! the set of fragments `(d, w, i)` — `w` requests of client `i` at
//! distance `d` from `j` — that are still waiting to be served at `j` or
//! above, ordered by non-increasing `d` (most distance-constrained first),
//! ties in post order. Since `d = root_dist(i) − root_dist(j)`, that order
//! is a static per-client key, so `req(j)` is a max-heap built from the
//! children's heaps by small-to-large merging — nothing is copied or
//! re-sorted per node (see the `heap` module). The heap top is the most
//! constrained fragment, so the stuck requests are popped off the top.
//!
//! Replicas are only ever placed when some pending request is **stuck**: it
//! cannot travel above `j` without violating `dmax` (at the root every
//! pending request is stuck, `δ_r = +∞` in the paper). Pending volume alone
//! never forces a replica — under the Multiple policy a volume larger than
//! `W` can still be split over several replicas higher up, so placing early
//! would waste a server that the optimum defers. A stuck event hands the
//! stuck prefix to the stage engine (`crate::stage::serve_stuck`), which
//! places the minimum number of new replicas inside `subtree(j)` and
//! re-routes the subtree's assignments; see [`crate::stage`] for the
//! router, the pruned placement search and the DP fallback.
//!
//! The whole pass runs on the flat [`rp_tree::TreeArena`] plus the dense
//! slabs of [`SolverScratch`]; [`multiple_bin_with`] reuses one scratch
//! across solves and [`multiple_bin`] is the one-shot wrapper.
//!
//! The paper proves the optimal replica count is achievable in polynomial
//! time (Theorem 6). This reconstruction does not carry that proof over:
//!
//! * it equals the independent exact solver of `rp-exact` on the
//!   differential suite (`tests/differential.rs`: every tree shape up to 7
//!   nodes and random binary trees up to 12 clients, whenever `r_i ≤ W`);
//! * a stage the placement enumeration solves places the minimum number of
//!   new replicas for that stage;
//! * a stage that falls back to the stage DP keeps existing assignments
//!   fixed, so it can open replicas that a reassignment would avoid. The
//!   128-client `rp gen --kind binary --seed 7 --dmax-fraction 0.7`
//!   instance (capacity 14, 595 requests) gets 45 replicas with the root
//!   idle, while its volume bound `⌈595 / 14⌉` is 43.

use crate::error::SolveError;
use crate::heap::HeapForest;
use crate::scratch::SolverScratch;
use crate::serve::ServeCtx;
use crate::stage::{serve_stuck, PendingRequest};
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Dist, Fragment, Instance, NodeId, Requests, Solution};
use std::time::Instant;

/// Runs Algorithm 3 (`multiple-bin`) and returns its placement and
/// assignment. The paper proves the algorithm optimal for binary trees when
/// every client satisfies `r_i ≤ W` (Theorem 6); see the module docs for
/// where this reconstruction is known to be exact.
///
/// One-shot wrapper around [`multiple_bin_with`]; callers solving many
/// instances should hold a [`SolverScratch`] and use that entry point.
///
/// # Errors
///
/// * [`SolveError::NotBinary`] if some node has more than two children;
/// * [`SolveError::ClientExceedsCapacity`] if some client issues more than
///   `W` requests (the precondition of Theorem 6);
/// * [`SolveError::TotalRequestsTooLarge`] if the summed request volume
///   exceeds [`rp_tree::Tree::MAX_REQUESTS`] (the bound behind the solver's
///   64-bit volume slabs — see `crate::scratch`);
/// * [`SolveError::RootDistanceTooLarge`] if some node lies further than
///   `u64::MAX` from the root (the sweep keys pending requests on exact
///   root distances).
pub fn multiple_bin(instance: &Instance) -> Result<Solution, SolveError> {
    let mut scratch = SolverScratch::new();
    multiple_bin_with(instance, &mut scratch)
}

/// [`multiple_bin`] with caller-provided scratch state: the arena and every
/// work buffer are rebuilt in place, so consecutive solves reuse their
/// allocations. Results are identical to fresh-scratch solves (pinned by
/// `tests/scratch_reuse.rs`). Stage counters of the solve are left in
/// [`SolverScratch::stage_stats`].
///
/// # Errors
///
/// Same as [`multiple_bin`], plus [`SolveError::StageRepair`] if a stage
/// placement fails to route at commit time (a solver invariant violation,
/// surfaced instead of silently degrading the solution).
pub fn multiple_bin_with(
    instance: &Instance,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveError> {
    scratch.load_arena(instance.tree());
    multiple_bin_arena(scratch, instance.capacity(), instance.dmax())
}

/// [`multiple_bin`] on the arena already loaded into `scratch` (via
/// [`SolverScratch::load_arena`] or
/// [`SolverScratch::load_arena_from_stream`]) — the entry point of the
/// streaming scaling tier, where no [`rp_tree::Tree`] ever exists. This
/// is the parallel driver [`crate::par::multiple_bin_par`] at one thread,
/// which runs the whole sweep serially.
///
/// # Errors
///
/// Same as [`multiple_bin_with`].
pub fn multiple_bin_arena(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
) -> Result<Solution, SolveError> {
    crate::par::multiple_bin_par(scratch, w, dmax, 1)
}

/// The bottom-up sweep of Algorithm 3 (children before parents).
///
/// * `order` — `None` sweeps the full post-order of the loaded arena;
///   `Some(list)` sweeps exactly `list` (which must be in post-order
///   relative to itself), with the pending heaps of the nodes hanging off
///   it already filled. The frontier-parallel driver ([`crate::par`]) uses
///   this for its serial finish pass over the upper region, after the
///   chunk workers' results were merged back; the serve engine for its
///   dirty spine ([`PendingFlow::seed_pending`]).
/// * `root_exit` — for a sub-arena solve of `subtree(f)`: the length of the
///   global edge *above* `f`. The local root then behaves exactly like the
///   interior node `f` of the full-tree sweep — requests whose distance
///   budget still covers that edge stay pending in the local root's heap
///   for the caller to merge upwards. `None` means the local root is the
///   true root (`δ_r = +∞` in the paper: everything pending there is stuck
///   and must be served).
/// * `journal` — the serve engine's stage journal ([`ServeCtx`]): every
///   stage is journaled into it, and a node that fires no stage leaves it.
///   `None` for batch solves and the parallel workers.
/// * `deadline` — the serve engine's per-solve budget, `(must finish by,
///   budget in ms)`, checked between nodes and before each stage. `None`
///   lets the sweep run unbounded.
///
/// # Errors
///
/// Propagates the stage-engine errors of `crate::stage::serve_stuck`, and
/// [`SolveError::DeadlineExceeded`] once `deadline` has passed.
pub(crate) fn mb_sweep(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    root_exit: Option<Dist>,
    order: Option<&[u32]>,
    mut journal: Option<&mut ServeCtx>,
    deadline: Option<(Instant, u64)>,
) -> Result<(), SolveError> {
    let count = match order {
        None => scratch.arena.len(),
        Some(list) => list.len(),
    };
    for pos in 0..count {
        // Deadline budget (serve-mode graceful degradation): probe every 64
        // nodes so the clock read stays off the per-node fast path, and
        // again right before each stage below — a stage is the only
        // unbounded unit of work, so this bounds overrun to one in-flight
        // stage. `solve.sweep` is the delay-injection point the chaos
        // gauntlet uses to blow budgets on demand.
        if pos & 63 == 0 && deadline.is_some() {
            let _ = crate::fault::point("solve.sweep");
            check_deadline(deadline)?;
        }
        let j = match order {
            None => scratch.arena.postorder()[pos],
            Some(list) => list[pos],
        };
        // Requests issued in `subtree(j)`: what a stage at `j` conserves
        // (see `crate::stage`). Children were swept first, or are clean
        // subtrees whose demand has not changed since they were.
        let below: u64 =
            scratch.arena.children(j).iter().map(|&c| scratch.sub_demand[c as usize]).sum();
        scratch.sub_demand[j as usize] = scratch.arena.requests(j) + below;
        match scratch.flow.step(&scratch.arena, dmax, root_exit, j) {
            Step::Pass => {}
            Step::SelfServe(r) => {
                // The client is too far even from its own parent: serve it
                // locally (paper line 5).
                let ji = j as usize;
                scratch.in_r[ji] = true;
                scratch.load[ji] = r;
                scratch.assigned[ji].push((j, r));
            }
            Step::Stage => {
                check_deadline(deadline)?;
                // Serve the stuck requests at `j` or inside its subtree.
                // Travelling requests are deliberately NOT absorbed here
                // even when spare capacity remains: they stay pending, and
                // when they get stuck at some ancestor, that stage routes
                // them back down into any spare capacity left today —
                // deferring the decision can only help. The stage never
                // touches the flow: the stuck prefix already left `j`'s
                // heap.
                let stuck = std::mem::take(&mut scratch.flow.stuck);
                let travelling = std::mem::take(&mut scratch.flow.travelling);
                let result =
                    serve_stuck(scratch, w, j, &stuck, &travelling, journal.as_deref_mut());
                scratch.flow.stuck = stuck;
                scratch.flow.travelling = travelling;
                result?;
            }
            Step::Quiet => {
                if let Some(ctx) = journal.as_deref_mut() {
                    // Serve-mode journal upkeep: a journaled stage whose
                    // stuck set emptied (a delta drained it) fires no stage
                    // this solve and must leave the journal.
                    ctx.note_no_stage(j);
                }
            }
        }
    }
    Ok(())
}

/// One `req(j)` entry of the sweep's pending heaps: `w` requests of
/// `client`. The heap order is the static key `(root_dist desc,
/// post-order position asc)` — see [`PendingFlow`].
#[derive(Debug, Clone, Copy)]
struct SweepEntry {
    rd: Dist,
    post: u32,
    client: u32,
    w: Requests,
}

impl SweepEntry {
    /// The entry as a `req(j)` fragment at a node `j` (an ancestor of the
    /// client) whose root distance is `rd_j`: its distance is the
    /// root-distance difference, exact because the `multiple-bin` entry
    /// points reject root distances beyond `u64`
    /// ([`crate::scratch::check_distances_fit`]).
    fn at(self, rd_j: Dist) -> PendingRequest {
        PendingRequest { d: self.rd - rd_j, w: self.w, client: self.client }
    }
}

impl Ord for SweepEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rd.cmp(&other.rd).then(other.post.cmp(&self.post))
    }
}

impl PartialOrd for SweepEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SweepEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SweepEntry {}

/// The sweep's pending flow: Algorithm 3's `req(j)` sets as one
/// [`HeapForest`] heap per node, plus the stuck and travelling fragments
/// of the last join that fired a stage.
///
/// `req(j)` is ordered by non-increasing distance `d` to `j`, ties in
/// child order — i.e. in post order, since each child's subtree precedes
/// the next in post order. Because `d = root_dist(c) − root_dist(j)`, that
/// is the *static* key `(root_dist(c) desc, post_position(c) asc)`: no
/// entry is rewritten as it travels up, and a join merges the children's
/// heaps small-to-large (see [`crate::heap`]). Sub-arena sweeps keep
/// global root distances and rank-preserving post positions, so their heap
/// order is the serial order too. Stages never change the flow: they
/// receive exactly the stuck prefix, which [`PendingFlow::join`] has
/// already popped.
#[derive(Debug, Default)]
pub(crate) struct PendingFlow {
    heaps: HeapForest<SweepEntry>,
    /// Stuck fragments of the last firing join, in `req(j)` order.
    pub(crate) stuck: Vec<PendingRequest>,
    /// The rest of `req(j)` at the last firing join, in `req(j)` order.
    pub(crate) travelling: Vec<PendingRequest>,
    /// Staging buffer that puts the travelling heap entries in order.
    rest: Vec<SweepEntry>,
}

/// What the pending flow asks of the sweep at one node (see
/// [`PendingFlow::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A client without requests, or one whose requests started
    /// travelling.
    Pass,
    /// A client too far even from its own parent: it must serve its
    /// requests itself (paper line 5).
    SelfServe(Requests),
    /// An internal node with stuck requests: serve
    /// [`PendingFlow::stuck`] inside `subtree(j)`.
    Stage,
    /// An internal node where nothing is stuck.
    Quiet,
}

impl PendingFlow {
    /// Advances the flow over node `j` (children before parents): a client
    /// starts travelling or must serve itself; an internal node builds
    /// `req(j)` ([`PendingFlow::join`]).
    fn step(
        &mut self,
        arena: &TreeArena,
        dmax: Option<Dist>,
        root_exit: Option<Dist>,
        j: u32,
    ) -> Step {
        if !arena.is_client(j) {
            return if self.join(arena, dmax, root_exit, j) { Step::Stage } else { Step::Quiet };
        }
        let r = arena.requests(j);
        if r == 0 {
            Step::Pass
        } else if travel_limit(arena, dmax, root_exit, j).is_some() {
            self.push(arena, j, j, r);
            Step::Pass
        } else {
            Step::SelfServe(r)
        }
    }

    /// Empties the flow for an `n`-node arena, releasing every heap
    /// allocation of the previous solve.
    pub(crate) fn prepare(&mut self, n: usize) {
        self.heaps.prepare(n, true);
        self.stuck.clear();
        self.travelling.clear();
        self.rest.clear();
    }

    /// Adds `w` pending requests of client `c` to the heap of node `at`
    /// (`c` itself when the client starts travelling, at distance 0).
    pub(crate) fn push(&mut self, arena: &TreeArena, at: u32, c: u32, w: Requests) {
        let entry = SweepEntry {
            rd: arena.root_dist(c),
            post: arena.post_position(c) as u32,
            client: c,
            w,
        };
        self.heaps.push(at, entry);
    }

    /// Fills the (empty) heap of `v` with `req(v)` exactly as a full sweep
    /// leaves it right after stepping `v`: one entry per client `x` in
    /// `subtree(v)` with requests whose deadline lies strictly above `v`
    /// (every other request was served at or below its deadline, or never
    /// travelled). `sub_min_dd[u]` is the smallest deadline depth of any
    /// client in `subtree(u)`, so the walk skips every subtree where
    /// nothing travels past `v`; `stack` is a reusable work list. The serve
    /// engine seeds the clean children of a partial sweep this way.
    pub(crate) fn seed_pending(
        &mut self,
        arena: &TreeArena,
        sub_min_dd: &[u32],
        v: u32,
        stack: &mut Vec<u32>,
    ) {
        debug_assert!(self.is_empty_at(v));
        let depth_v = arena.depth(v);
        stack.clear();
        stack.push(v);
        while let Some(u) = stack.pop() {
            if sub_min_dd[u as usize] >= depth_v {
                continue;
            }
            if arena.is_client(u) {
                let r = arena.requests(u);
                if r > 0 {
                    self.push(arena, v, u, r);
                }
            } else {
                stack.extend_from_slice(arena.children(u));
            }
        }
    }

    /// Builds `req(j)` from `j`'s children and pops its stuck prefix into
    /// [`PendingFlow::stuck`] — stuckness is monotone in `d`, so the stuck
    /// entries are exactly the heap's top run. Returns whether any request
    /// is stuck; only then is the rest materialised, in `req(j)` order,
    /// into [`PendingFlow::travelling`] (the stage needs it; a join that
    /// fires nothing stays O(merge)).
    fn join(
        &mut self,
        arena: &TreeArena,
        dmax: Option<Dist>,
        root_exit: Option<Dist>,
        j: u32,
    ) -> bool {
        let children = arena.children(j);
        let base = self.heaps.largest_child(children);
        self.heaps.gather(j, children, base, true);
        let limit = travel_limit(arena, dmax, root_exit, j);
        let rd_j = arena.root_dist(j);
        let heap = self.heaps.get_mut(j);
        self.stuck.clear();
        while let Some(&top) = heap.peek() {
            if limit.is_some_and(|l| top.rd <= l) {
                break;
            }
            self.stuck.push(top.at(rd_j));
            heap.pop();
        }
        if self.stuck.is_empty() {
            return false;
        }
        self.rest.clear();
        self.rest.extend(heap.iter().copied());
        self.rest.sort_unstable_by(|a, b| b.cmp(a));
        self.travelling.clear();
        self.travelling.extend(self.rest.iter().map(|t| t.at(rd_j)));
        true
    }

    /// Whether nothing is pending at `v`.
    pub(crate) fn is_empty_at(&self, v: u32) -> bool {
        self.heaps.get(v).is_empty()
    }

    /// Empties `v`'s heap, returning its `(client, requests)` entries (in
    /// no particular order).
    pub(crate) fn drain_at(&mut self, v: u32) -> impl Iterator<Item = (u32, Requests)> + '_ {
        self.heaps.get_mut(v).drain().map(|t| (t.client, t.w))
    }
}

/// Reads the committed replica set and assignment out of the scratch slabs
/// into a [`Solution`], built in bulk ([`Solution::from_fragments`]).
///
/// The fragments come out already in `(client, server)` order, so the bulk
/// build's sort finds one run: a counting sort over client ids places each
/// client's fragments in its own slot range, and scattering them while
/// scanning the replicas by ascending id keeps the servers ascending within
/// each range (a repeated pair stays adjacent for the merge).
pub(crate) fn collect_solution(scratch: &SolverScratch) -> Solution {
    let replicas: Vec<u32> =
        (0..scratch.arena.len() as u32).filter(|&v| scratch.in_r[v as usize]).collect();
    let lists = || replicas.iter().map(|&v| (v, &scratch.assigned[v as usize]));
    // `next[c]`: the slot of client `c`'s next fragment.
    let mut next = vec![0usize; scratch.arena.len()];
    for (_, list) in lists() {
        for &(c, _) in list {
            next[c as usize] += 1;
        }
    }
    let mut total = 0;
    for slot in &mut next {
        total += std::mem::replace(slot, total);
    }
    let blank = Fragment { client: NodeId(0), server: NodeId(0), amount: 0 };
    let mut fragments = vec![blank; total];
    for (v, list) in lists() {
        for &(c, amount) in list {
            let slot = &mut next[c as usize];
            fragments[*slot] = Fragment { client: NodeId(c), server: NodeId(v), amount };
            *slot += 1;
        }
    }
    Solution::from_fragments(replicas.into_iter().map(NodeId), fragments)
}

/// Fails the sweep with [`SolveError::DeadlineExceeded`] once the serve
/// engine's per-solve `deadline` (if any) has passed. The slabs are left
/// mid-sweep — callers must re-prepare before the next solve, which every
/// entry point does.
#[inline]
fn check_deadline(deadline: Option<(Instant, u64)>) -> Result<(), SolveError> {
    match deadline {
        Some((deadline, budget_ms)) if Instant::now() >= deadline => {
            Err(SolveError::DeadlineExceeded { budget_ms })
        }
        _ => Ok(()),
    }
}

/// The largest client root distance whose requests, pending at node `j`,
/// can still travel strictly above `j`: a request at distance `d` from `j`
/// may leave iff `d + exit(j) ≤ dmax`, i.e. iff its client's root distance
/// is at most `root_dist(j) + dmax − exit(j)`. `None` when nothing can
/// leave: at the true root (`δ_r = +∞` in the paper) or when the exit edge
/// alone exceeds `dmax`. A sub-arena root consults the global exit edge in
/// `root_exit` (see [`mb_sweep`]). Exact because root distances fit `u64`
/// ([`crate::scratch::check_distances_fit`]).
#[inline]
fn travel_limit(
    arena: &TreeArena,
    dmax: Option<Dist>,
    root_exit: Option<Dist>,
    j: u32,
) -> Option<Dist> {
    let exit = if arena.parent(j) == NO_PARENT { root_exit? } else { arena.edge(j) };
    match dmax {
        None => Some(Dist::MAX),
        Some(dmax) => Some(arena.root_dist(j).saturating_add(dmax.checked_sub(exit)?)),
    }
}

/// Test-only driver of the sweep's pending flow: runs the flow of a full
/// `multiple-bin` sweep without the stage engine and records every stage's
/// inputs, so `tests/proptest_sweep_order.rs` can pin the heap order
/// against an independent flat-list reference. The stage engine is not
/// needed for that: a stage receives exactly the stuck prefix, which the
/// flow has already popped, and never changes what stays pending.
#[doc(hidden)]
pub mod testing {
    use super::*;
    use rp_tree::Tree;

    /// The inputs of one stage, as the sweep hands them over.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StageInput {
        /// The node where requests got stuck.
        pub j: u32,
        /// The stuck fragments, in `req(j)` order.
        pub stuck: Vec<PendingRequest>,
        /// The rest of `req(j)`, in `req(j)` order.
        pub travelling: Vec<PendingRequest>,
    }

    /// Runs the production pending flow over `tree` under `dmax` (post
    /// order, true root) and returns every stage's inputs in sweep order.
    ///
    /// # Errors
    ///
    /// [`SolveError::RootDistanceTooLarge`], exactly when the solvers
    /// refuse the tree.
    pub fn stage_inputs(tree: &Tree, dmax: Option<Dist>) -> Result<Vec<StageInput>, SolveError> {
        let arena = tree.arena();
        crate::scratch::check_distances_fit(arena)?;
        let mut flow = PendingFlow::default();
        flow.prepare(arena.len());
        let mut stages = Vec::new();
        for &j in arena.postorder() {
            if flow.step(arena, dmax, None, j) == Step::Stage {
                stages.push(StageInput {
                    j,
                    stuck: flow.stuck.clone(),
                    travelling: flow.travelling.clone(),
                });
            }
        }
        Ok(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_instances::random::{random_binary_tree, wrap_instance};
    use rp_instances::{EdgeDist, RequestDist};
    use rp_tree::{validate, Policy, TreeBuilder};

    fn count(instance: &Instance) -> usize {
        let sol = multiple_bin(instance).expect("feasible");
        let stats =
            validate(instance, Policy::Multiple, &sol).expect("multiple-bin must be feasible");
        stats.replica_count
    }

    #[test]
    fn single_client_is_served_at_the_root_when_unconstrained() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 3, 7);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn splitting_across_two_servers() {
        // Two clients of 6 under the root, W = 10: one replica takes 10
        // (splitting one client), a second takes the remaining 2.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 1, 6);
        b.add_client(n1, 1, 6);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert_eq!(count(&inst), 2);
    }

    #[test]
    fn volume_alone_does_not_trigger_early_placement() {
        // 16 pending requests under an inner node with W = 15, but both
        // clients can travel to the root region, where two replicas can
        // split them: the optimum is 2 and the algorithm must not burn a
        // third replica deep in the tree. (Regression: the E3 counterexample
        // instance, clients=5 / seed=39 / W=15 / dmax=8.)
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 3);
        let n2 = b.add_internal(root, 4);
        let n3 = b.add_internal(n2, 1);
        b.add_client(n3, 1, 12);
        b.add_client(n3, 1, 4);
        let n6 = b.add_internal(n2, 4);
        b.add_client(n6, 1, 2);
        b.add_client(n6, 1, 3);
        let inst = Instance::new(b.freeze().unwrap(), 15, Some(8)).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple).unwrap();
        assert_eq!(opt, 2);
        assert_eq!(sol.replica_count() as u64, opt);
    }

    #[test]
    fn stage_reassignment_reaches_the_optimum() {
        // Regression (random-binary clients=11 / seed=29 / W=16 / dmax=12):
        // the optimum re-routes volume already committed at an inner replica
        // so that a later stage can reuse its capacity; a purely incremental
        // sweep needs 6 replicas where 5 suffice.
        let text = "capacity 16\ndmax 12\nnodes 21\n\
                    0 - 0 internal 0\n1 0 1 internal 0\n2 1 3 client 7\n3 1 3 client 4\n\
                    4 0 4 internal 0\n5 4 2 internal 0\n6 5 1 internal 0\n7 6 2 internal 0\n\
                    8 7 1 client 7\n9 7 2 client 15\n10 6 4 client 4\n11 5 4 internal 0\n\
                    12 11 4 client 3\n13 11 2 client 4\n14 4 4 internal 0\n15 14 2 internal 0\n\
                    16 15 4 client 10\n17 15 1 client 14\n18 14 4 internal 0\n19 18 2 client 2\n\
                    20 18 4 client 9\n";
        let inst = rp_tree::io::parse_instance(text).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple).unwrap();
        assert_eq!(opt, 5);
        assert_eq!(sol.replica_count() as u64, opt);
    }

    #[test]
    fn distance_forces_local_service() {
        // A client further than dmax from its parent serves itself.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c = b.add_client(root, 9, 4);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(5)).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        assert!(sol.is_replica(c));
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn most_constrained_requests_are_absorbed_first() {
        // Two clients under one node: one can only be served there (edge
        // budget exhausted), the other could go higher. Capacity forces a
        // choice; the constrained one must be kept.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 4);
        let far = b.add_client(n1, 5, 6); // distance 5, can reach n1 only (dmax 5)
        let near = b.add_client(n1, 1, 6); // distance 1, can reach the root (5 ≤ dmax)
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(5)).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        let stats = validate(&inst, Policy::Multiple, &sol).unwrap();
        assert_eq!(stats.replica_count, 2);
        // The far client can only be served inside {far, n1}; the optimum
        // needs both a replica reaching it and a second one for the
        // leftover volume. The first stage opens n1 (the far requests are
        // stuck there); the root stage then picks its second replica among
        // {far}, {near} and {root}, all feasible and equal on absorbable
        // spare — the score prefers deeper hosts (shallow nodes keep the
        // widest reach free), and between the depth-tied {far} and {near}
        // the canonical placement order (lexicographically smallest
        // pre-order positions, documented in `rp_tree::arena`) commits
        // {far}. The full placement is therefore pinned, not just the
        // eligibility: far self-serves, near is served whole at n1.
        assert_eq!(sol.servers_of(far), vec![far]);
        assert_eq!(sol.servers_of(near), vec![n1]);
        assert!(sol.is_replica(far) && sol.is_replica(n1));
    }

    /// The precondition error of `inst`, after checking that the `Tree`,
    /// arena, parallel and serving entry points all report the same one.
    fn gate_error(inst: &Instance) -> SolveError {
        let err = multiple_bin(inst).unwrap_err();
        let mut scratch = SolverScratch::new();
        scratch.load_arena(inst.tree());
        let (w, dmax) = (inst.capacity(), inst.dmax());
        assert_eq!(multiple_bin_arena(&mut scratch, w, dmax).unwrap_err(), err);
        assert_eq!(crate::multiple_bin_par(&mut scratch, w, dmax, 2).unwrap_err(), err);
        assert_eq!(crate::ServeEngine::new(inst).unwrap_err(), err);
        err
    }

    #[test]
    fn rejects_non_binary_trees() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        for _ in 0..3 {
            b.add_client(root, 1, 1);
        }
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert_eq!(gate_error(&inst), SolveError::NotBinary { arity: 3 });
    }

    #[test]
    fn rejects_clients_larger_than_capacity() {
        // Two oversized clients: every entry point names the lower id.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        let low = b.add_client(n1, 1, 30);
        b.add_client(n1, 1, 5);
        b.add_client(root, 1, 40);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert_eq!(
            gate_error(&inst),
            SolveError::ClientExceedsCapacity { client: low, requests: 30, capacity: 10 }
        );
    }

    #[test]
    fn empty_tree_and_zero_requests() {
        let inst = Instance::new(TreeBuilder::new().freeze().unwrap(), 5, None).unwrap();
        assert_eq!(count(&inst), 0);
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 0);
        let inst = Instance::new(b.freeze().unwrap(), 5, Some(0)).unwrap();
        assert_eq!(count(&inst), 0);
    }

    #[test]
    fn overflow_descends_along_the_request_paths() {
        // More than W stuck requests at one node: the replica there absorbs
        // W of them and the rest are served further down, matching the
        // exact optimum.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let j = b.add_internal(root, 10);
        let left = b.add_internal(j, 1);
        let c1 = b.add_client(left, 2, 5);
        let c2 = b.add_client(left, 3, 5);
        let right = b.add_internal(j, 1);
        let c3 = b.add_client(right, 1, 6);
        let c4 = b.add_client(right, 4, 6);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(6)).unwrap();
        let sol = multiple_bin(&inst).unwrap();
        let stats = validate(&inst, Policy::Multiple, &sol).unwrap();
        // 22 requests, none can cross the edge of weight 10 → at least 3
        // replicas inside subtree(j); the exact optimum is 3.
        let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple).unwrap();
        assert_eq!(stats.replica_count as u64, opt);
        let _ = (c1, c2, c3, c4);
    }

    #[test]
    fn optimal_on_random_binary_instances_with_distance() {
        // Theorem 6: optimality on binary trees when r_i ≤ W, with distance
        // constraints. (The differential suite covers this far more widely;
        // this is the in-crate smoke version.)
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..15 {
            let clients = 5 + (trial % 4);
            let tree = random_binary_tree(
                clients,
                &EdgeDist::Uniform { lo: 1, hi: 3 },
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.0, Some(0.7));
            assert!(inst.all_requests_fit_locally());
            let algo = count(&inst) as u64;
            let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple)
                .expect("feasible since r_i ≤ W");
            assert_eq!(algo, opt, "trial {trial}: multiple-bin {algo} vs optimum {opt}");
        }
    }

    #[test]
    fn matches_exact_optimum_without_distance_constraints() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..10 {
            let tree = random_binary_tree(
                6,
                &EdgeDist::Constant(1),
                &RequestDist::Uniform { lo: 1, hi: 12 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.5, None);
            let algo = count(&inst) as u64;
            let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple).expect("feasible");
            assert_eq!(algo, opt, "trial {trial}");
        }
    }

    #[test]
    fn never_worse_than_the_single_policy_algorithms() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10 {
            let tree = random_binary_tree(
                8,
                &EdgeDist::Constant(1),
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.0, None);
            let multiple = count(&inst);
            let single = crate::single_gen(&inst).unwrap().replica_count();
            assert!(multiple <= single);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // The dense in-crate smoke version of `tests/scratch_reuse.rs`:
        // solving different instances through one scratch must match fresh
        // solves exactly (replica sets and assignments, not just counts).
        let mut rng = StdRng::seed_from_u64(0x5C7A);
        let mut shared = SolverScratch::new();
        for trial in 0..8 {
            let clients = 4 + trial % 5;
            let tree = random_binary_tree(
                clients,
                &EdgeDist::Uniform { lo: 1, hi: 4 },
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let dmax = if trial % 2 == 0 { Some(0.7) } else { None };
            let inst = wrap_instance(tree, 2.0, dmax);
            let reused = multiple_bin_with(&inst, &mut shared).expect("feasible");
            let fresh = multiple_bin(&inst).expect("feasible");
            assert_eq!(reused, fresh, "trial {trial}: reused scratch diverged");
        }
    }

    #[test]
    fn stage_stats_reflect_the_solve() {
        // A distance-constrained instance runs stages; the counters must be
        // populated, reset per solve, and consistent (enumerated = routed
        // seed probes aside + pruned).
        let mut rng = StdRng::seed_from_u64(99);
        let tree = random_binary_tree(
            24,
            &EdgeDist::Uniform { lo: 1, hi: 3 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let inst = wrap_instance(tree, 2.0, Some(0.6));
        let mut scratch = SolverScratch::new();
        multiple_bin_with(&inst, &mut scratch).unwrap();
        let stats = *scratch.stage_stats();
        assert!(stats.stages > 0, "dmax instances trigger stages: {stats:?}");
        assert!(stats.subsets_routed > 0);
        assert_eq!(stats.repairs, 0);
        // Counter identity: every enumerated subset is either routed or
        // pruned; `subsets_routed` additionally counts one incumbent-seed
        // probe per enumerating stage.
        let seeds = (stats.subsets_routed + stats.subsets_pruned)
            .checked_sub(stats.subsets_enumerated)
            .expect("routed + pruned covers every enumerated subset");
        assert!(seeds <= stats.stages, "at most one seed probe per stage: {stats:?}");
        // Counters are per-solve: a second run reproduces them exactly.
        multiple_bin_with(&inst, &mut scratch).unwrap();
        assert_eq!(*scratch.stage_stats(), stats);
    }
}
