//! Pruned candidate-subset search for the best stage placement.
//!
//! The search consumes the stage's *scoped* demand view (see
//! `crate::stage`): `demand` / `demand_clients` hold the affected-scope
//! pool, `existing` the scope's replicas and `candidates` the free nodes
//! of the scope forest — never the whole subtree. PR 2's enumeration
//! routed *every* candidate subset of every size under the stage budget.
//! This version is branch-and-bound:
//!
//! 1. the relaxed stage-DP ([`super::dp::sparse_pass`]) prunes every subset
//!    size below the true minimum (or the whole enumeration, when even the
//!    largest affordable size is provably infeasible) — without routing a
//!    single set — and seeds the incumbent with its minimising placement
//!    when that placement happens to route;
//! 2. per subset, two O(r) mask tests fire before any routing: a **coverage
//!    bound** (every demand client not already covered by an existing
//!    replica needs a chosen candidate on its deadline path) and an
//!    **incumbent bound** (an upper estimate of the absorbable travelling
//!    volume that cannot beat the incumbent's score);
//! 3. subsets that survive are routed **incrementally**: candidates are
//!    sorted by post-order position, so the lexicographic enumeration varies
//!    the latest node fastest and each inner run shares one routed prefix
//!    ([`super::router::route_prefix`]), with only the suffix re-routed per
//!    subset.
//!
//! Among feasible minimum-size placements the committed one maximises
//! [`PlacementScore`]; its final component makes the choice canonical
//! (lexicographically smallest pre-order positions — see the canonical
//! placement order in `rp_tree::arena`'s docs), so the result does not
//! depend on enumeration order.

use crate::scratch::SolverScratch;
use crate::stage::router::{self, RouteEnv};
use crate::stage::{dp, PendingRequest};
use rp_tree::arena::TreeArena;
use rp_tree::Requests;

/// Searches placements of increasing size for the best feasible one and
/// stores it in `scratch.best_set`; `false` when the enumeration is proven
/// infeasible or would be too large (the caller then falls back to the
/// reassignment-free dynamic program).
pub(crate) fn best_placement(
    scratch: &mut SolverScratch,
    w: Requests,
    j: u32,
    travelling: &[PendingRequest],
) -> bool {
    let cap = w;

    // Candidates arrive sorted by active-forest (post-order) position, so
    // the lexicographic enumeration varies the latest node fastest — the
    // maximal shared prefix for the incremental router. The committed
    // placement does not depend on this order (canonical tie-break in
    // `PlacementScore`).
    let total: u64 = scratch.demand_clients.iter().map(|&c| scratch.demand[c as usize]).sum();
    // 128-bit intermediate: `existing · cap` has no volume bound.
    let have = (scratch.existing.len() as u128) * cap as u128;
    // Volume lower bound on the number of new replicas.
    let r0 = (total as u128).saturating_sub(have).div_ceil(cap as u128) as usize;

    // Cost-model enumeration budget, in candidate *sets* the stage may
    // probe. A probe's worst case is one routing sweep over the stage's
    // active forest — O(|active|), since PR 3's router never touches the
    // rest of the subtree — so the affordable probe count is a total work
    // target divided by |active| (most probes are far cheaper: the O(r)
    // mask bounds and the shared-prefix router discard or shorten them,
    // which is priced in via `ENUM_WORK_TARGET`). The candidate count then
    // decides how far the budget reaches: subset sizes are enumerated only
    // while `C(n, r)` fits the remaining budget, otherwise the stage falls
    // back to the O(|active| · rmax) DP. Replacing the old
    // `5e6 / |subtree|` heuristic with |active| lets mid-size stages in
    // huge trees — small demand forests under a large subtree — run the
    // optimal search instead of falling back. Small stages (where the
    // exact oracle can check us) still always get the full search.
    const ENUM_WORK_TARGET: u128 = 5_000_000;
    let active_len = scratch.active_nodes.len() as u128;
    let mut budget = (ENUM_WORK_TARGET / active_len.max(1)).min(200_000);

    // Largest size the budget could reach if every size from `r0` up were
    // enumerated — the horizon the DP lower bound has to inspect.
    let n = scratch.candidates.len();
    let mut r_end: Option<usize> = None;
    {
        let mut left = budget;
        let mut r = r0;
        while r <= n {
            let c = combinations(n, r);
            if c > left {
                break;
            }
            left -= c;
            r_end = Some(r);
            r += 1;
        }
    }
    let Some(r_end) = r_end else {
        return false; // even the smallest size blows the budget
    };

    // Stage-DP lower bound: subset sizes below it are provably infeasible
    // and skipped outright; when no size up to the horizon is feasible the
    // whole enumeration is skipped. The minimising placement doubles as the
    // incumbent seed below.
    let r_start = match dp::sparse_pass(scratch, cap, j, false) {
        Some(r) if r <= r_end => r,
        _ => {
            scratch.stats.dp_bound_skips += 1;
            return false;
        }
    };
    debug_assert!(r_start >= r0, "the relaxed DP respects the volume bound");
    scratch.stats.dp_sizes_skipped += (r_start - r0) as u64;

    let SolverScratch {
        arena,
        deadline,
        deadline_depth,
        demand,
        demand_clients,
        existing,
        candidates,
        cand_pos,
        active_nodes,
        in_r,
        subset_idx,
        best_set,
        router,
        remaining,
        travel_clients,
        spare_nodes,
        breakdown,
        uncovered,
        cand_cover,
        cand_reach,
        travel_bits,
        pick_buf,
        stats,
        ..
    } = scratch;
    let arena: &TreeArena = arena;
    let deadline: &[u32] = deadline;
    let env = RouteEnv { arena, cap, deadline_depth, order: active_nodes, j, total_demand: total };

    // --- per-stage prune tables ---
    // Demand clients with no existing replica on their deadline path: each
    // needs a chosen candidate there. The first 64 become mask bits.
    uncovered.clear();
    'clients: for &c in demand_clients.iter() {
        for &u in existing.iter() {
            if on_service_path(arena, deadline, u, c) {
                continue 'clients;
            }
        }
        uncovered.push(c);
    }
    let tracked = uncovered.len().min(64);
    let full_cover: u64 = if tracked == 64 { u64::MAX } else { (1u64 << tracked) - 1 };
    cand_cover.clear();
    for &u in candidates.iter() {
        let mut m = 0u64;
        for (i, &c) in uncovered[..tracked].iter().enumerate() {
            if on_service_path(arena, deadline, u, c) {
                m |= 1 << i;
            }
        }
        cand_cover.push(m);
    }
    // Travelling volume per client; the first 64 become reach-mask bits,
    // the rest count as always-reachable (a weaker, still sound bound).
    travel_bits.clear();
    let mut overflow_travel = 0u64;
    for t in travelling {
        if travel_bits.len() < 64 {
            travel_bits.push((t.client, t.w));
        } else {
            overflow_travel += t.w;
        }
    }
    let mut exist_reach = 0u64;
    for (i, &(tc, _)) in travel_bits.iter().enumerate() {
        if existing.iter().any(|&u| arena.is_ancestor_or_self(u, tc)) {
            exist_reach |= 1 << i;
        }
    }
    cand_reach.clear();
    for &u in candidates.iter() {
        let mut m = 0u64;
        for (i, &(tc, _)) in travel_bits.iter().enumerate() {
            if arena.is_ancestor_or_self(u, tc) {
                m |= 1 << i;
            }
        }
        cand_reach.push(m);
    }

    // Probes flip candidate flags in `in_r` itself: a route visits only the
    // scope forest, whose replicas are exactly `existing`.
    debug_assert_eq!(active_nodes.iter().filter(|&&u| in_r[u as usize]).count(), existing.len());

    let mut best: Option<PlacementScore> = None;
    let mut cur = PlacementScore::default();

    // Incumbent seed: if the DP's minimising placement (left in `best_set`,
    // size `r_start`) routes feasibly, it is already a minimum-size
    // placement — the enumeration then only looks for a better-scoring one
    // and the incumbent bound prunes from the very first subset.
    {
        for &u in best_set.iter() {
            in_r[u as usize] = true;
        }
        let routed = router::route_full(&env, in_r, demand, demand_clients, router, None);
        stats.subsets_routed += 1;
        for &u in best_set.iter() {
            in_r[u as usize] = false;
        }
        if routed == Some(0) {
            score_spare(
                arena,
                cap,
                deadline_depth,
                existing,
                best_set,
                &*router,
                travelling,
                remaining,
                travel_clients,
                spare_nodes,
                breakdown,
                &mut cur,
            );
            best = Some(std::mem::take(&mut cur));
        }
    }

    for r in r_start..=n {
        let count = combinations(n, r);
        if count > budget {
            break;
        }
        budget -= count;
        if r == 0 {
            // The empty subset is exactly the seed probe above.
            if best.is_some() {
                break;
            }
            continue;
        }
        // 128-bit intermediate (`replicas · cap` is unbounded), clamped to
        // `u64`: the clamp only fires above every genuine absorbable volume
        // (≤ total ≤ 2⁶²), so the incumbent-bound comparison is unchanged.
        let spare_total = ((existing.len() + r) as u128)
            .saturating_mul(cap as u128)
            .saturating_sub(total as u128)
            .min(u64::MAX as u128) as u64;

        subset_idx.clear();
        subset_idx.extend(0..r);
        loop {
            // Inner run: the first r-1 candidates are fixed, the last one
            // sweeps k0..n (increasing post-order position).
            let k0 = subset_idx[r - 1];
            let mut prefix_cover = 0u64;
            let mut prefix_reach = exist_reach;
            for &i in subset_idx[..r - 1].iter() {
                in_r[candidates[i] as usize] = true;
                prefix_cover |= cand_cover[i];
                prefix_reach |= cand_reach[i];
            }
            let barrier = cand_pos[k0] as usize;
            let mut ck_pos = barrier;
            let mut prefix_state: Option<bool> = None; // lazily routed
            for k in k0..n {
                stats.subsets_enumerated += 1;
                // Coverage bound: every uncovered client needs a chosen
                // candidate on its deadline path.
                let cover = prefix_cover | cand_cover[k];
                if cover & full_cover != full_cover {
                    stats.subsets_pruned += 1;
                    continue;
                }
                // Incumbent bound: the absorbable travelling volume cannot
                // exceed the reachable volume or the total spare.
                if let Some(b) = best.as_ref() {
                    let mut reach = prefix_reach | cand_reach[k];
                    let mut ub = overflow_travel;
                    while reach != 0 {
                        ub += travel_bits[reach.trailing_zeros() as usize].1;
                        reach &= reach - 1;
                    }
                    if ub.min(spare_total) < b.absorbable {
                        stats.subsets_pruned += 1;
                        continue;
                    }
                }
                if prefix_state.is_none() {
                    stats.prefix_routes += 1;
                    prefix_state = Some(router::route_prefix(
                        &env,
                        barrier,
                        in_r,
                        demand,
                        demand_clients,
                        router,
                    ));
                }
                if prefix_state != Some(true) {
                    // A request misses its deadline below the barrier: every
                    // remaining placement of this run shares that failure.
                    // (Counted as enumerated too, so enumerated stays the
                    // sum of routed suffixes and pruned subsets.)
                    stats.subsets_enumerated += (n - k - 1) as u64;
                    stats.subsets_pruned += (n - k) as u64;
                    break;
                }
                // Slide the checkpoint up to this candidate's position, so
                // the suffix re-routes only what the candidate can affect.
                let pk = cand_pos[k] as usize;
                if pk > ck_pos {
                    if !router::advance_checkpoint(
                        &env,
                        ck_pos,
                        pk,
                        in_r,
                        demand,
                        demand_clients,
                        router,
                    ) {
                        prefix_state = Some(false);
                        stats.subsets_enumerated += (n - k - 1) as u64;
                        stats.subsets_pruned += (n - k) as u64;
                        break;
                    }
                    ck_pos = pk;
                }
                in_r[candidates[k] as usize] = true;
                let routed = router::route_suffix(&env, ck_pos, in_r, demand, router);
                stats.subsets_routed += 1;
                in_r[candidates[k] as usize] = false;
                if routed == Some(0) {
                    pick_buf.clear();
                    pick_buf.extend(subset_idx[..r - 1].iter().map(|&i| candidates[i]));
                    pick_buf.push(candidates[k]);
                    score_spare(
                        arena,
                        cap,
                        deadline_depth,
                        existing,
                        pick_buf,
                        &*router,
                        travelling,
                        remaining,
                        travel_clients,
                        spare_nodes,
                        breakdown,
                        &mut cur,
                    );
                    let better = best.as_ref().map(|b| cur > *b).unwrap_or(true);
                    if better {
                        best_set.clear();
                        best_set.extend_from_slice(pick_buf);
                        match best.as_mut() {
                            Some(b) => std::mem::swap(b, &mut cur),
                            None => best = Some(std::mem::take(&mut cur)),
                        }
                    }
                }
            }
            if prefix_state == Some(true) {
                router::end_inner_run(router, demand_clients);
            }
            for &i in subset_idx[..r - 1].iter() {
                in_r[candidates[i] as usize] = false;
            }
            // The last position is exhausted; advance the earlier ones.
            subset_idx[r - 1] = n - 1;
            if !next_combination(subset_idx, n) {
                break;
            }
        }
        if best.is_some() {
            break;
        }
    }
    best.is_some()
}

/// Whether `u` can serve requests issued at `c`: on the path from `c` up to
/// `c`'s deadline (both inclusive).
#[inline]
fn on_service_path(arena: &TreeArena, deadline: &[u32], u: u32, c: u32) -> bool {
    arena.is_ancestor_or_self(u, c) && arena.is_ancestor_or_self(deadline[c as usize], u)
}

/// `C(n, r)`, saturating.
fn combinations(n: usize, r: usize) -> u128 {
    if r > n {
        return 0;
    }
    let mut count: u128 = 1;
    for i in 0..r {
        count = count.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    count
}

/// Advances `idx` to the next size-`|idx|` combination of `0..n` in
/// lexicographic order; `false` when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let r = idx.len();
    let mut i = r;
    while i > 0 {
        i -= 1;
        if idx[i] < n - r + i {
            idx[i] += 1;
            for k in i + 1..r {
                idx[k] = idx[k - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Ranking of one stage placement (lexicographic order): total travelling
/// volume its spare can absorb, then that volume broken down by deadline
/// depth (deepest — i.e. tightest — first), then the summed depth of the
/// new replicas (deeper placements keep shallow, wide-reach nodes free for
/// demand that merges in later), and finally — so that score ties are
/// broken canonically, independent of enumeration order — the placement
/// whose sorted pre-order positions are lexicographically *smallest* (the
/// canonical placement order documented in `rp_tree::arena`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PlacementScore {
    absorbable: u64,
    by_deadline: Vec<(u32, u64)>,
    depth_sum: u128,
    canon: Vec<u32>,
}

impl PartialOrd for PlacementScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PlacementScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.absorbable
            .cmp(&other.absorbable)
            .then_with(|| self.by_deadline.cmp(&other.by_deadline))
            .then_with(|| self.depth_sum.cmp(&other.depth_sum))
            .then_with(|| other.canon.cmp(&self.canon))
    }
}

/// Scores a feasible placement by what its leftover spare can do for the
/// travelling requests (see [`PlacementScore`]); `loads` is the routing
/// result the router left behind for this placement and `new_nodes` the
/// placement's new replicas. The result is written into `out` (buffers
/// reused across calls).
#[allow(clippy::too_many_arguments)]
fn score_spare(
    arena: &TreeArena,
    cap: u64,
    deadline_depth: &[u32],
    existing: &[u32],
    new_nodes: &[u32],
    bufs: &super::router::RouterBufs,
    travelling: &[PendingRequest],
    remaining: &mut [u64],
    travel_clients: &mut Vec<u32>,
    spare_nodes: &mut Vec<u32>,
    breakdown: &mut Vec<(u32, u64)>,
    out: &mut PlacementScore,
) {
    // Travelling volume reachable by the spare, deepest spare first
    // (total-optimal for laminar reach); within a spare, tightest deadline
    // first, so the secondary score reflects how much hard-to-place volume
    // the spare can save later.
    travel_clients.clear();
    for t in travelling {
        if remaining[t.client as usize] == 0 {
            travel_clients.push(t.client);
        }
        remaining[t.client as usize] += t.w;
    }
    travel_clients.sort_by_key(|&c| std::cmp::Reverse(deadline_depth[c as usize]));
    spare_nodes.clear();
    spare_nodes.extend(existing.iter().copied());
    spare_nodes.extend(new_nodes.iter().copied());
    spare_nodes.sort_by_key(|&u| std::cmp::Reverse(arena.depth(u)));

    let mut absorbable = 0u64;
    breakdown.clear();
    for &u in spare_nodes.iter() {
        let mut s = cap - bufs.routed_load(u);
        if s == 0 {
            continue;
        }
        for &c in travel_clients.iter() {
            let rem = &mut remaining[c as usize];
            if *rem == 0 || !arena.is_ancestor_or_self(u, c) {
                continue;
            }
            let take = s.min(*rem);
            s -= take;
            *rem -= take;
            absorbable += take;
            breakdown.push((deadline_depth[c as usize], take));
            if s == 0 {
                break;
            }
        }
    }
    for &c in travel_clients.iter() {
        remaining[c as usize] = 0;
    }

    out.absorbable = absorbable;
    out.by_deadline.clear();
    // Aggregate per deadline depth, deepest (tightest) first.
    breakdown.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
    for &(d, v) in breakdown.iter() {
        match out.by_deadline.last_mut() {
            Some(last) if last.0 == d => last.1 += v,
            _ => out.by_deadline.push((d, v)),
        }
    }
    out.depth_sum = new_nodes.iter().map(|&u| arena.depth(u) as u128).sum();
    out.canon.clear();
    out.canon.extend(new_nodes.iter().map(|&u| arena.pre_position(u) as u32));
    out.canon.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_iterator_is_lexicographic() {
        let mut idx = vec![0, 1];
        let mut seen = vec![idx.clone()];
        while next_combination(&mut idx, 4) {
            seen.push(idx.clone());
        }
        assert_eq!(
            seen,
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert_eq!(combinations(4, 2), 6);
        assert_eq!(combinations(4, 0), 1);
        assert_eq!(combinations(3, 5), 0);
    }

    #[test]
    fn score_order_prefers_absorbable_then_canonical() {
        let a = PlacementScore { absorbable: 5, ..Default::default() };
        let b = PlacementScore { absorbable: 3, ..Default::default() };
        assert!(a > b);
        // Equal scores: the lexicographically smaller pre-order key wins,
        // i.e. compares *greater* so `cur > best` replaces the incumbent.
        let a = PlacementScore { canon: vec![1, 4], ..Default::default() };
        let b = PlacementScore { canon: vec![2, 3], ..Default::default() };
        assert!(a > b);
    }
}
