//! The frontier-parallel `multiple-bin` driver: disjoint subtrees are
//! solved by worker threads, then a serial *finish pass* sweeps the
//! leftover upper nodes — results are **bit-identical to the serial
//! sweep** (pinned by `tests/parallel_determinism.rs`).
//!
//! Only `multiple-bin` has one. The single-policy frontier drivers were
//! removed because they ran slower than the serial sweep on the streamed
//! huge tier at 2 threads; their per-chunk solution fragments and merge
//! cost more than the split saved (see the README's million-client tier).
//!
//! ## The frontier
//!
//! `build_frontier` splits the tree into a deterministic antichain of
//! subtree roots: starting from the root, the largest subtree is repeatedly
//! replaced by its children (the split-off parent joins the *upper* region)
//! until there are enough chunks for the requested thread count or the
//! largest chunk is too small to split usefully. Dust chunks below
//! `MIN_CHUNK` nodes are folded into the upper region — parallelism only
//! pays on big subtrees.
//!
//! ## Why the merge is exact
//!
//! Post-order sweeps finalise every node of `subtree(f)` before any proper
//! ancestor of `f`, and nothing outside `subtree(f)` influences those
//! steps. Each worker gets a private [`SolverScratch`] over a
//! [`rebuild_subtree`](rp_tree::TreeArena::rebuild_subtree) sub-arena.
//! Local ids are assigned by global-id *rank*, so every raw-id tie-break
//! inside the stage engine orders exactly like the serial solve; deadlines
//! above `f` become the [`NO_PARENT`] sentinel, while deadline *depths*
//! keep their true global values, preserving the router's must-serve
//! ordering. The sentinel is written but never read. Such a client is
//! never stuck inside the subtree (a stuck client's deadline is the stage
//! root), and no worker stage collects it: a stage collects only clients
//! that hold an assignment, and in a worker an assignment comes from an
//! earlier worker stage (whose pool, by the same argument, has deadlines
//! inside the subtree) or from a client serving itself (its deadline is
//! the client). The stage engine's scope collection asserts this in debug
//! builds. The worker's committed state (replica
//! set, loads, assignments, pending requests at `f`, the requests issued
//! in `subtree(f)`, stage counters) is merged back id-for-id before the
//! finish pass.
//!
//! The split threshold, chunk ordering and merge order are all functions of
//! the tree shape alone — never of thread scheduling — so any thread count
//! (including 1) produces the same [`Solution`] and [`StageStats`].

use crate::error::SolveError;
use crate::multiple_bin::{collect_solution, mb_sweep};
use crate::scratch::{check_multiple_bin, SolverScratch};
use crate::stage::StageStats;
use rp_parallel::par_map_with_threads;
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Dist, Requests, Solution};

/// Smallest subtree (in nodes) worth dispatching to a worker; smaller
/// chunks are folded into the serial finish pass.
const MIN_CHUNK: usize = 1024;

/// A deterministic antichain of disjoint subtree roots plus the post-order
/// list of every node *not* covered by them (the upper region).
struct Frontier {
    /// Worker subtree roots, sorted by pre-order position.
    roots: Vec<u32>,
    /// All uncovered nodes in global post-order — the finish-pass sweep
    /// order (relative post-order is preserved by filtering).
    upper_post: Vec<u32>,
}

/// Splits the tree under a largest-first policy until `threads * 3` chunks
/// exist or the largest chunk drops below `2 * min_chunk`. Returns `None`
/// when parallelism cannot pay: one thread, a tree smaller than two chunks,
/// or a degenerate shape (e.g. a chain) that never yields two real chunks.
fn build_frontier(arena: &TreeArena, threads: usize, min_chunk: usize) -> Option<Frontier> {
    let n = arena.len();
    if threads <= 1 || n < 2 * min_chunk {
        return None;
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // Max-heap on subtree size; ties prefer the earliest pre-order position.
    // Both keys are functions of the tree alone, so the frontier is
    // deterministic for a given (tree, threads).
    let root = arena.preorder()[0];
    let mut heap: BinaryHeap<(usize, Reverse<usize>, u32)> = BinaryHeap::new();
    heap.push((arena.subtree_size(root), Reverse(arena.pre_position(root)), root));
    let mut unsplittable: Vec<u32> = Vec::new();
    let target = threads.saturating_mul(3);
    while heap.len() + unsplittable.len() < target {
        let Some(&(size, _, _)) = heap.peek() else { break };
        if size < 2 * min_chunk {
            break; // splitting the largest chunk further only makes dust
        }
        let (_, _, v) = heap.pop().expect("peeked above");
        if arena.children(v).is_empty() {
            unsplittable.push(v);
            continue;
        }
        // `v` itself joins the upper region; its children become chunks.
        for &c in arena.children(v) {
            heap.push((arena.subtree_size(c), Reverse(arena.pre_position(c)), c));
        }
    }
    let mut roots: Vec<u32> = heap
        .into_iter()
        .map(|(_, _, v)| v)
        .chain(unsplittable)
        .filter(|&v| arena.subtree_size(v) >= min_chunk)
        .collect();
    if roots.len() <= 1 {
        return None;
    }
    roots.sort_unstable_by_key(|&v| arena.pre_position(v));

    let mut covered = vec![false; n];
    for &f in &roots {
        let p = arena.pre_position(f);
        covered[p..p + arena.subtree_size(f)].fill(true);
    }
    let upper_post: Vec<u32> =
        arena.postorder().iter().copied().filter(|&v| !covered[arena.pre_position(v)]).collect();
    Some(Frontier { roots, upper_post })
}

/// `multiple-bin` on the arena loaded into `scratch`, solved with up to
/// `threads` worker threads over disjoint frontier subtrees (each on a
/// private rank-mapped sub-arena), then a serial finish pass over the
/// upper nodes. Without a frontier (one thread, or a tree too small or too
/// narrow to split) the finish pass is the whole serial sweep, which is
/// what [`crate::multiple_bin::multiple_bin_arena`] runs. Bit-identical
/// to that serial solve — solution *and* stage counters — for every thread
/// count.
///
/// # Errors
///
/// Same as [`multiple_bin_with`](crate::multiple_bin::multiple_bin_with).
pub fn multiple_bin_par(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    threads: usize,
) -> Result<Solution, SolveError> {
    check_multiple_bin(scratch.arena(), w)?;
    scratch.prepare_multiple_bin();
    scratch.prepare_deadlines(dmax);
    let frontier = build_frontier(scratch.arena(), threads, MIN_CHUNK);
    if let Some(fr) = &frontier {
        let outcomes: Vec<Result<SolverScratch, SolveError>> = {
            let gs: &SolverScratch = scratch;
            par_map_with_threads(fr.roots.len(), threads, |i| mb_worker(gs, w, dmax, fr.roots[i]))
        };
        for outcome in outcomes {
            merge_mb_worker(scratch, outcome?);
        }
    }

    // Finish pass (the whole sweep without a frontier): stages at upper
    // nodes may still re-route volume the workers committed (the merged
    // loads and assignments are exactly the serial mid-sweep state, and the
    // frontier roots' `sub_demand` is all the finish pass reads below them,
    // so those stages behave identically).
    let upper = frontier.as_ref().map(|fr| &fr.upper_post[..]);
    mb_sweep(scratch, w, dmax, None, upper, None, None)?;
    debug_assert!(scratch.arena.preorder().first().is_none_or(|&r| scratch.flow.is_empty_at(r)));
    Ok(collect_solution(scratch))
}

/// Solves `subtree(f)` on a private scratch over a rank-mapped sub-arena.
/// See the module docs for the deadline sentinel contract.
fn mb_worker(
    gs: &SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    f: u32,
) -> Result<SolverScratch, SolveError> {
    let mut ls = SolverScratch::new();
    ls.arena.rebuild_subtree(gs.arena(), f);
    ls.prepare_multiple_bin();
    seed_worker_deadlines(gs, &mut ls, f);
    // The local root is the interior node `f` of the full sweep: its exit
    // edge decides what stays pending for the finish pass.
    mb_sweep(&mut ls, w, dmax, Some(gs.arena().edge(f)), None, None, None)?;
    Ok(ls)
}

/// Translates the session's deadline rows into a worker's rank-mapped
/// sub-arena over `subtree(f)`.
fn seed_worker_deadlines(gs: &SolverScratch, ls: &mut SolverScratch, f: u32) {
    let SolverScratch { arena, deadline, deadline_depth, .. } = ls;
    let origin = arena.origin();
    deadline.clear();
    deadline.resize(origin.len(), NO_PARENT);
    deadline_depth.clear();
    deadline_depth.resize(origin.len(), 0);
    for (v, &g) in origin.iter().enumerate() {
        let gd = gs.deadline[g as usize];
        // A deadline inside subtree(f) maps to its local rank; one above
        // `f` becomes the NO_PARENT sentinel, which no worker stage reads
        // (see the module docs).
        deadline[v] = if gs.arena().is_ancestor_or_self(f, gd) {
            origin.binary_search(&gd).expect("deadline below f is in subtree(f)") as u32
        } else {
            NO_PARENT
        };
        // Depths stay global so the router's must-serve ordering keys
        // compare exactly as in the serial solve.
        deadline_depth[v] = gs.deadline_depth[g as usize];
    }
}

/// Copies a worker's committed state back into the session scratch,
/// translating local ids through the sub-arena's origin map.
fn merge_mb_worker(gs: &mut SolverScratch, mut ls: SolverScratch) {
    let origin = ls.arena.origin();
    let f = origin[0];
    for (v, &g) in origin.iter().enumerate() {
        if ls.in_r[v] {
            let gi = g as usize;
            debug_assert!(!gs.in_r[gi], "workers are disjoint from the prepared state");
            gs.in_r[gi] = true;
            gs.load[gi] = ls.load[v];
            debug_assert!(gs.assigned[gi].is_empty());
            gs.assigned[gi]
                .extend(ls.assigned[v].iter().map(|&(c, amount)| (origin[c as usize], amount)));
        }
    }
    // The finish pass sums `f`'s issued demand into its parent's, and never
    // reads a row below `f`.
    gs.sub_demand[f as usize] = ls.sub_demand[0];
    // Requests still pending at the local root bubble into `f`'s global
    // heap, re-keyed through `origin`: root distances are global already,
    // and the global post positions order exactly like the local ones, so
    // `f`'s heap hands out the serial sweep's order.
    debug_assert!(gs.flow.is_empty_at(f));
    for (c, w) in ls.flow.drain_at(0) {
        gs.flow.push(&gs.arena, f, origin[c as usize], w);
    }
    let stats: &StageStats = &ls.stats;
    gs.stats.absorb(stats);
}
