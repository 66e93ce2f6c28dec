//! Frontier-parallel drivers for the three solvers: disjoint subtrees are
//! solved by worker threads, then a *finish pass* sweeps the leftover
//! upper nodes — results are **bit-identical to the serial sweeps** (pinned
//! by `tests/parallel_determinism.rs`). For `multiple-bin` the finish pass
//! is itself parallel: it re-applies the frontier split to the upper
//! region (see `finish_mb`) instead of draining it on one thread.
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
//! ancestor of `f`, and nothing outside `subtree(f)` influences those steps:
//!
//! * `single-gen` / `single-nod` keep their per-node slots in rows indexed
//!   by **pre-order position**, so `subtree(f)`'s slots are one contiguous
//!   slice — each worker gets a disjoint `&mut` slice of the session slabs
//!   (no copying, no reconciliation), sweeps `subtree_post(f)` against the
//!   shared global arena, and leaves `f`'s slot exactly as the serial sweep
//!   would. The finish pass then runs the same sweep over the upper nodes
//!   with the full slabs.
//! * `multiple-bin` workers get a private [`SolverScratch`] over a
//!   [`rebuild_subtree`](rp_tree::TreeArena::rebuild_subtree) sub-arena.
//!   Local ids are assigned by global-id *rank*, so every raw-id tie-break
//!   inside the stage engine orders exactly like the serial solve; deadlines
//!   above `f` become the [`NO_PARENT`] sentinel (such clients are never
//!   stuck inside the subtree — their stages run in the finish pass), while
//!   deadline *depths* keep their true global values, preserving the
//!   router's must-serve ordering. The worker's committed state (replica
//!   set, loads, assignments, Fenwick load sums, pending requests at `f`,
//!   stage counters) is merged back id-for-id before the finish pass.
//!
//! ## The parallel finish pass (`multiple-bin`)
//!
//! After the chunk workers merge back, the upper region is an
//! upward-closed connected set rooted at the global root. `finish_mb`
//! repeatedly carves a deterministic antichain of *region subtrees* out of
//! it (same largest-first policy as `build_frontier`, but sized by the
//! number of **region** nodes under each root) and dispatches each to a
//! worker over the *full* global subtree below its root, seeded with the
//! already-committed state and sweeping only its region nodes. Merging a
//! finish worker back overwrites (rather than fills) the subtree's state —
//! stages at upper nodes may have re-routed volume the chunk workers
//! committed. The residual (ancestors of the carved roots plus dust) loops
//! until one region subtree remains, which a serial sweep drains. Every
//! interleaving consistent with "descendants before ancestors" commits the
//! same stages with the same scopes, so the result is bit-identical to the
//! serial finish order.
//!
//! The split threshold, chunk ordering and merge order are all functions of
//! the tree shape alone — never of thread scheduling — so any thread count
//! (including 1) produces the same [`Solution`] and [`StageStats`].

use crate::error::SolveError;
use crate::multiple_bin::{collect_solution, mb_sweep};
use crate::scratch::{check_binary, check_clients_fit, check_total_fits, Group, SolverScratch};
use crate::single_gen::sweep_single_gen;
use crate::single_nod::sweep_single_nod;
use crate::stage::{PendingRequest, StageStats};
use rp_parallel::{par_map_take, par_map_with_threads};
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

/// [`crate::single_gen::single_gen_arena`] solved with up to `threads`
/// worker threads over disjoint frontier subtrees. Bit-identical to the
/// serial entry point for every thread count.
///
/// # Errors
///
/// Same as [`fn@crate::single_gen`].
pub fn single_gen_par(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    threads: usize,
) -> Result<Solution, SolveError> {
    check_clients_fit(scratch.arena(), w)?;
    scratch.prepare_single_gen();
    let frontier = build_frontier(scratch.arena(), threads, MIN_CHUNK);
    let mut solution = Solution::new();
    let Some(fr) = frontier else {
        let SolverScratch { arena, sg_clients, sg_total, sg_allow, .. } = scratch;
        sweep_single_gen(
            arena,
            w,
            dmax,
            arena.postorder(),
            0,
            sg_clients,
            sg_total,
            sg_allow,
            &mut solution,
        );
        return Ok(solution);
    };

    /// One worker's disjoint view: the slot rows of `subtree(f)`.
    struct Chunk<'a> {
        f: u32,
        base: usize,
        clients: &'a mut [Vec<(u32, Requests)>],
        total: &'a mut [u128],
        allow: &'a mut [Option<Dist>],
    }
    {
        let SolverScratch { arena, sg_clients, sg_total, sg_allow, .. } = scratch;
        let arena: &TreeArena = arena;
        let mut rest_c: &mut [Vec<(u32, Requests)>] = sg_clients;
        let mut rest_t: &mut [u128] = sg_total;
        let mut rest_a: &mut [Option<Dist>] = sg_allow;
        let mut consumed = 0usize;
        let mut chunks: Vec<Chunk<'_>> = Vec::with_capacity(fr.roots.len());
        for &f in &fr.roots {
            let base = arena.pre_position(f);
            let size = arena.subtree_size(f);
            let (_, tail) = std::mem::take(&mut rest_c).split_at_mut(base - consumed);
            let (clients, tail) = tail.split_at_mut(size);
            rest_c = tail;
            let (_, tail) = std::mem::take(&mut rest_t).split_at_mut(base - consumed);
            let (total, tail) = tail.split_at_mut(size);
            rest_t = tail;
            let (_, tail) = std::mem::take(&mut rest_a).split_at_mut(base - consumed);
            let (allow, tail) = tail.split_at_mut(size);
            rest_a = tail;
            consumed = base + size;
            chunks.push(Chunk { f, base, clients, total, allow });
        }
        let fragments = par_map_take(chunks, threads, |_, chunk| {
            let mut fragment = Solution::new();
            sweep_single_gen(
                arena,
                w,
                dmax,
                arena.subtree_post(chunk.f),
                chunk.base,
                chunk.clients,
                chunk.total,
                chunk.allow,
                &mut fragment,
            );
            fragment
        });
        for fragment in &fragments {
            solution.merge(fragment);
        }
    }

    // Finish pass: the upper nodes against the full slabs. Frontier-root
    // slots were written in place by the workers, so the sweep sees exactly
    // the serial sweep's state.
    let SolverScratch { arena, sg_clients, sg_total, sg_allow, .. } = scratch;
    sweep_single_gen(
        arena,
        w,
        dmax,
        &fr.upper_post,
        0,
        sg_clients,
        sg_total,
        sg_allow,
        &mut solution,
    );
    Ok(solution)
}

/// [`crate::single_nod::single_nod_arena`] solved with up to `threads`
/// worker threads over disjoint frontier subtrees. Bit-identical to the
/// serial entry point for every thread count.
///
/// # Errors
///
/// Same as [`fn@crate::single_nod`].
pub fn single_nod_par(
    scratch: &mut SolverScratch,
    w: Requests,
    threads: usize,
) -> Result<Solution, SolveError> {
    check_clients_fit(scratch.arena(), w)?;
    scratch.prepare_single_nod();
    let frontier = build_frontier(scratch.arena(), threads, MIN_CHUNK);
    let mut solution = Solution::new();
    let Some(fr) = frontier else {
        let SolverScratch { arena, sn_groups, .. } = scratch;
        sweep_single_nod(arena, w, arena.postorder(), 0, sn_groups, &mut solution);
        return Ok(solution);
    };

    struct Chunk<'a> {
        f: u32,
        base: usize,
        groups: &'a mut [Vec<Group>],
    }
    {
        let SolverScratch { arena, sn_groups, .. } = scratch;
        let arena: &TreeArena = arena;
        let mut rest: &mut [Vec<Group>] = sn_groups;
        let mut consumed = 0usize;
        let mut chunks: Vec<Chunk<'_>> = Vec::with_capacity(fr.roots.len());
        for &f in &fr.roots {
            let base = arena.pre_position(f);
            let size = arena.subtree_size(f);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(base - consumed);
            let (groups, tail) = tail.split_at_mut(size);
            rest = tail;
            consumed = base + size;
            chunks.push(Chunk { f, base, groups });
        }
        let fragments = par_map_take(chunks, threads, |_, chunk| {
            let mut fragment = Solution::new();
            sweep_single_nod(
                arena,
                w,
                arena.subtree_post(chunk.f),
                chunk.base,
                chunk.groups,
                &mut fragment,
            );
            fragment
        });
        for fragment in &fragments {
            solution.merge(fragment);
        }
    }

    let SolverScratch { arena, sn_groups, .. } = scratch;
    sweep_single_nod(arena, w, &fr.upper_post, 0, sn_groups, &mut solution);
    Ok(solution)
}

/// [`crate::multiple_bin::multiple_bin_arena`] solved with up to `threads`
/// worker threads over disjoint frontier subtrees (each on a private
/// rank-mapped sub-arena), then a parallel finish pass over the upper
/// nodes. Bit-identical to the serial entry point — solution *and* stage
/// counters — for every thread count.
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
    check_binary(scratch.arena())?;
    check_clients_fit(scratch.arena(), w)?;
    check_total_fits(scratch.arena())?;
    scratch.prepare_multiple_bin();
    scratch.prepare_deadlines(dmax);
    let Some(fr) = build_frontier(scratch.arena(), threads, MIN_CHUNK) else {
        mb_sweep(scratch, w, dmax, None, None)?;
        debug_assert!(scratch.req.first().is_none_or(|r| r.is_empty()));
        return Ok(collect_solution(scratch));
    };

    let outcomes: Vec<Result<SolverScratch, SolveError>> = {
        let gs: &SolverScratch = scratch;
        par_map_with_threads(fr.roots.len(), threads, |i| mb_worker(gs, w, dmax, fr.roots[i]))
    };
    for outcome in outcomes {
        merge_mb_worker(scratch, outcome?);
    }

    // Finish pass: stages at upper nodes may still re-route volume the
    // workers committed (the merged loads, assignments and Fenwick sums are
    // exactly the serial mid-sweep state, so those stages behave
    // identically). The pass itself recurses the frontier split on the
    // upper region rather than draining it serially.
    finish_mb(scratch, w, dmax, threads, &fr.upper_post)?;
    debug_assert!(scratch.req.first().is_none_or(|r| r.is_empty()));
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
    // Chaos-gauntlet seam: a planned `Panic` here exercises the serve
    // engine's worker-isolation path (the panic rides rp-parallel's
    // propagation machinery to the collecting thread, where the engine
    // catches it and falls back to a serial re-solve). Inert otherwise.
    let _ = crate::fault::point("par.worker");
    let mut ls = SolverScratch::new();
    ls.arena.rebuild_subtree(gs.arena(), f);
    ls.prepare_multiple_bin();
    seed_worker_deadlines(gs, &mut ls, f);
    // The local root is the interior node `f` of the full sweep: its exit
    // edge decides what stays pending for the finish pass.
    mb_sweep(&mut ls, w, dmax, Some(gs.arena().edge(f)), None)?;
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
        // `f` becomes the NO_PARENT sentinel — such a client is never
        // stuck inside the subtree, so the sentinel only has to mean
        // "service path exits the sub-arena" to the stage machinery.
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
            gs.load_sums.add(gs.arena.post_position(g), ls.load[v] as i64);
        }
    }
    // Requests still pending at the local root bubble into `f`'s global
    // slot: distances are already relative to `f`, and the worker's stable
    // sort saw the same (d, insertion-order) sequence as the serial sweep,
    // so the list order is the serial order.
    let pending = std::mem::take(&mut ls.req[0]);
    debug_assert!(gs.req[f as usize].is_empty());
    gs.req[f as usize].extend(pending.iter().map(|t| PendingRequest {
        d: t.d,
        w: t.w,
        client: origin[t.client as usize],
    }));
    let stats: &StageStats = &ls.stats;
    gs.stats.absorb(stats);
}

/// Smallest *region-subtree* (counting only upper-region nodes) worth
/// dispatching to a finish-pass worker. Much smaller than [`MIN_CHUNK`]:
/// a region node usually carries a whole merged chunk's pending volume,
/// so even thin slices of the upper region hold real work.
const MIN_REGION: usize = 256;

/// The `multiple-bin` finish pass: drains the upper region, in parallel
/// where it pays. Each round carves a deterministic antichain of region
/// subtrees (largest-first on region-node counts, exactly the
/// [`build_frontier`] policy), solves them on workers via
/// [`finish_worker`], overwrites the merged state via
/// [`merge_finish_worker`], and loops on the residual ancestors; whatever
/// is left when no two real cuts exist runs on the serial sweep. The cut
/// boundaries and merge order depend only on (tree, region, threads) — and
/// any schedule that finalises descendants before ancestors commits the
/// same stages — so the outcome is bit-identical for every thread count.
fn finish_mb(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    threads: usize,
    upper_post: &[u32],
) -> Result<(), SolveError> {
    let mut region: Vec<u32> = upper_post.to_vec();
    let n = scratch.arena().len();
    // Dense per-node marks, reset after every round (region shrinks, so a
    // stale mark would leak a removed node into the next round's sizes).
    let mut in_region = vec![false; n];
    let mut rsize = vec![0u32; n];
    while threads > 1 && region.len() >= 2 * MIN_REGION {
        let arena = scratch.arena();
        // Region-subtree sizes by post-order accumulation: `region` is a
        // filtered global post-order, so children finalise before parents,
        // and upward-closedness puts every non-root parent in the region.
        for &v in &region {
            in_region[v as usize] = true;
            rsize[v as usize] = 1;
        }
        let root = *region.last().expect("the upper region contains the global root");
        for &v in &region {
            if v != root {
                let p = arena.parent(v);
                debug_assert!(in_region[p as usize], "the upper region is upward-closed");
                rsize[p as usize] += rsize[v as usize];
            }
        }
        debug_assert_eq!(rsize[root as usize] as usize, region.len());

        // Carve the antichain: largest region-subtree first, ties to the
        // earliest pre-order position — the build_frontier policy keyed on
        // region-node counts. Popped ancestors fall into the residual.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<(u32, Reverse<usize>, u32)> = BinaryHeap::new();
        heap.push((rsize[root as usize], Reverse(arena.pre_position(root)), root));
        let target = threads.saturating_mul(3);
        while heap.len() < target {
            let Some(&(size, _, _)) = heap.peek() else { break };
            if (size as usize) < 2 * MIN_REGION {
                break; // splitting the largest cut further only makes dust
            }
            let (_, _, v) = heap.pop().expect("peeked above");
            // size >= 2 * MIN_REGION > 1, so v has region children.
            for &c in arena.children(v) {
                if in_region[c as usize] {
                    heap.push((rsize[c as usize], Reverse(arena.pre_position(c)), c));
                }
            }
        }
        let mut roots: Vec<u32> = heap
            .into_iter()
            .map(|(_, _, v)| v)
            .filter(|&v| rsize[v as usize] as usize >= MIN_REGION)
            .collect();
        let made_cuts = roots.len() > 1;
        if made_cuts {
            roots.sort_unstable_by_key(|&v| arena.pre_position(v));
            let outcomes: Vec<Result<SolverScratch, SolveError>> = {
                let gs: &SolverScratch = scratch;
                let region_ref: &[u32] = &region;
                par_map_with_threads(roots.len(), threads, |i| {
                    finish_worker(gs, w, dmax, roots[i], region_ref)
                })
            };
            for outcome in outcomes {
                merge_finish_worker(scratch, outcome?);
            }
        }
        for &v in &region {
            in_region[v as usize] = false;
        }
        if !made_cuts {
            break; // one real cut is just the serial sweep with extra steps
        }
        // Residual: everything outside the carved subtrees, still in global
        // post-order (retain preserves order). Roots are a pre-order-sorted
        // antichain, so one predecessor lookup decides coverage.
        let arena = scratch.arena();
        region.retain(|&v| {
            let p = arena.pre_position(v);
            match roots.binary_search_by_key(&p, |&g| arena.pre_position(g)) {
                Ok(_) => false,
                Err(0) => true,
                Err(i) => {
                    let g = roots[i - 1];
                    p >= arena.pre_position(g) + arena.subtree_size(g)
                }
            }
        });
    }
    mb_sweep(scratch, w, dmax, None, Some(&region))
}

/// Solves the region nodes under carved root `g` on a private scratch over
/// the **full** `subtree(g)` sub-arena, seeded with the globally committed
/// mid-sweep state (replica set, loads, assignments, Fenwick sums, pending
/// requests). Stages at region nodes may re-route volume committed
/// anywhere below them, which is why the whole subtree rides along even
/// though only the region nodes are swept.
fn finish_worker(
    gs: &SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
    g: u32,
    region: &[u32],
) -> Result<SolverScratch, SolveError> {
    let mut ls = SolverScratch::new();
    ls.arena.rebuild_subtree(gs.arena(), g);
    ls.prepare_multiple_bin();
    seed_worker_deadlines(gs, &mut ls, g);
    {
        let SolverScratch { arena, in_r, load, assigned, req, load_sums, .. } = &mut ls;
        let origin = arena.origin();
        let local =
            |gid: u32| origin.binary_search(&gid).expect("referenced node is in subtree(g)") as u32;
        for (v, &gnode) in origin.iter().enumerate() {
            let gi = gnode as usize;
            if gs.in_r[gi] {
                in_r[v] = true;
                load[v] = gs.load[gi];
                assigned[v].extend(gs.assigned[gi].iter().map(|&(c, amount)| (local(c), amount)));
                load_sums.add(arena.post_position(v as u32), gs.load[gi] as i64);
            }
            if !gs.req[gi].is_empty() {
                // Pending distances are relative to the node they sit at,
                // so they translate unchanged.
                req[v].extend(gs.req[gi].iter().map(|t| PendingRequest {
                    d: t.d,
                    w: t.w,
                    client: local(t.client),
                }));
            }
        }
    }
    // Sweep only the region slice of the subtree; `region` is a filtered
    // global post-order and rank-mapping preserves relative order, so the
    // translated list is a valid local sweep order.
    let order: Vec<u32> = {
        let ga = gs.arena();
        let origin = ls.arena.origin();
        region
            .iter()
            .copied()
            .filter(|&v| ga.is_ancestor_or_self(g, v))
            .map(|v| origin.binary_search(&v).expect("region node below g") as u32)
            .collect()
    };
    mb_sweep(&mut ls, w, dmax, Some(gs.arena().edge(g)), Some(&order))?;
    Ok(ls)
}

/// Copies a finish worker's state back into the session scratch. Unlike
/// [`merge_mb_worker`] this **overwrites**: the worker was seeded with
/// committed state and its stages may have moved any of it, so every row of
/// `subtree(g)` is replaced wholesale (the Fenwick sums by signed delta).
fn merge_finish_worker(gs: &mut SolverScratch, ls: SolverScratch) {
    let origin = ls.arena.origin();
    for (v, &gnode) in origin.iter().enumerate() {
        let gi = gnode as usize;
        gs.in_r[gi] = ls.in_r[v];
        let delta = ls.load[v] as i64 - gs.load[gi] as i64;
        if delta != 0 {
            gs.load_sums.add(gs.arena.post_position(gnode), delta);
        }
        gs.load[gi] = ls.load[v];
        gs.assigned[gi].clear();
        gs.assigned[gi]
            .extend(ls.assigned[v].iter().map(|&(c, amount)| (origin[c as usize], amount)));
        gs.req[gi].clear();
        gs.req[gi].extend(ls.req[v].iter().map(|t| PendingRequest {
            d: t.d,
            w: t.w,
            client: origin[t.client as usize],
        }));
    }
    gs.stats.absorb(&ls.stats);
}
