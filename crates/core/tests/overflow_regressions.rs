//! Overflow and sentinel-headroom regressions for extreme integer inputs:
//! request volumes and edge lengths near `u64::MAX`. The solvers promise
//! exact integer arithmetic over the paper's integral instances, so these
//! pin that (a) accumulated distances saturate instead of wrapping, (b)
//! `multiple-bin` refuses root distances beyond `u64` instead of
//! mis-splitting on saturated ones, (c) the `single-nod` packing sum cannot
//! overflow `u64`, and (d) the stage DP's narrowed 64-bit sparse tables
//! stay exact at magnitudes at the tree-wide volume bound.

use rp_core::stage::dp_testing::sparse_strict_dp;
use rp_core::SolverScratch;
use rp_core::{multiple_bin, multiple_bin_par, single_gen, single_nod, ServeEngine, SolveError};
use rp_tree::{validate, Instance, Policy, Tree, TreeBuilder};

#[test]
fn multiple_bin_saturates_accumulated_distances() {
    // Two chained edges of u64::MAX / 2 would overflow a plain `d + edge`
    // shift when the client's pending distance crosses both. Without a
    // distance constraint the request must still reach the root.
    let huge = u64::MAX / 2;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, huge);
    let n2 = b.add_internal(n1, huge);
    let c = b.add_client(n2, 1, 5);
    let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
    let sol = multiple_bin(&inst).expect("feasible without dmax");
    assert_eq!(sol.replica_count(), 1);
    assert_eq!(sol.servers_of(c).len(), 1);
    validate(&inst, Policy::Multiple, &sol).expect("solution must stay feasible");
    let _ = root;
}

#[test]
fn multiple_bin_saturated_distance_counts_as_stuck() {
    // Same chain with a dmax large enough for each single edge but not the
    // sum: the saturated distance must read as "cannot go higher" (stuck at
    // n1), never wrap around into a tiny feasible-looking budget.
    let huge = u64::MAX / 2;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, huge);
    let n2 = b.add_internal(n1, huge);
    let c = b.add_client(n2, 0, 5);
    let inst = Instance::new(b.freeze().unwrap(), 10, Some(huge)).unwrap();
    let sol = multiple_bin(&inst).expect("feasible: r_i ≤ W");
    assert_eq!(sol.replica_count(), 1);
    assert!(
        !sol.is_replica(root),
        "a wrapped distance would let the request cross both huge edges"
    );
    let _ = c;
}

#[test]
fn multiple_bin_refuses_root_distances_beyond_u64() {
    // The inner node sits u64::MAX − 1 + 10 from the root: its root
    // distance saturates, and so do its clients'. Differences of saturated
    // root distances are not distances — the deadline rows came out one
    // level too high, so a request stuck at `j` (30 + 10 > dmax) had a
    // deadline above `j`, an invariant the stage engine asserts. The
    // sweep's heap keys are root distances as well, so every
    // `multiple-bin` entry point now refuses the tree up front, naming the
    // first node whose root distance overflows; the single-policy solvers,
    // which only ever add edges with saturation, still solve it.
    let huge = u64::MAX / 2;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let a = b.add_internal(root, huge);
    let m = b.add_internal(a, huge);
    let j = b.add_internal(m, 10);
    b.add_client(j, 20, 6);
    b.add_client(j, 30, 6);
    let inst = Instance::new(b.freeze().unwrap(), 10, Some(35)).unwrap();
    let refused = SolveError::RootDistanceTooLarge { node: j };
    assert_eq!(multiple_bin(&inst).unwrap_err(), refused);
    let mut scratch = SolverScratch::new();
    scratch.load_arena(inst.tree());
    assert_eq!(multiple_bin_par(&mut scratch, 10, Some(35), 2).unwrap_err(), refused);
    assert_eq!(ServeEngine::new(&inst).unwrap_err(), refused);
    let sol = single_gen(&inst).expect("single-gen saturates path sums");
    validate(&inst, Policy::Single, &sol).expect("solution must stay feasible");
}

#[test]
fn single_nod_packing_sum_cannot_overflow() {
    // Five maximum-size client groups (`Tree::MAX_REQUESTS` each) under
    // capacity u64::MAX: the first four pack onto the shared server with an
    // absorbed sum of u64::MAX - 3, so the greedy packing's
    // `absorbed + group.total` check on the fifth exceeds u64::MAX. The
    // checked sum must reject that group (own-node replica) instead of
    // wrapping into "fits".
    let w = u64::MAX;
    let big = Tree::MAX_REQUESTS;
    assert_eq!(4u64.checked_mul(big), Some(u64::MAX - 3));
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, 1);
    let clients: Vec<_> = (0..5).map(|_| b.add_client(n1, 1, big)).collect();
    let inst = Instance::new(b.freeze().unwrap(), w, None).unwrap();
    let sol = single_nod(&inst).expect("feasible: r_i ≤ W");
    assert_eq!(sol.replica_count(), 2, "the fifth group cannot share the packed server");
    assert!(clients.iter().all(|&c| sol.servers_of(c).len() == 1));
    validate(&inst, Policy::Single, &sol).expect("solution must stay feasible");
}

#[test]
fn stage_dp_is_exact_near_the_sentinel_scale() {
    // Stage demand of Tree::MAX_REQUESTS / 2 per client — the largest pair
    // the tree-wide volume bound (and the narrowed harness) admits. The
    // DP's sums reach ~2^62, the genuine ceiling, and every stored cell
    // must stay an exact volume. The expected table is computable by hand:
    // with `r` replicas of capacity `big` placed, the leftover is
    // total - r·W.
    let big = Tree::MAX_REQUESTS / 2;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let n1 = b.add_internal(root, 1);
    let c1 = b.add_client(n1, 1, 1);
    let c2 = b.add_client(n1, 1, 1);
    let tree = b.freeze().unwrap();
    let total = 2 * big;
    let demand = [(c1.0, big), (c2.0, big)];

    // Four free nodes, so the uncapped table has five entries.
    let run = sparse_strict_dp(&tree, root.0, big, &[], &demand);
    assert_eq!(run.rmin, Some(2), "two full-capacity replicas serve 2·big exactly");
    assert_eq!(run.chosen.len(), 2);
    assert_eq!(run.m_root.len(), 5);
    for (r, &m) in run.m_root.iter().enumerate() {
        let expect = total.saturating_sub(r as u64 * big);
        assert_eq!(m, expect, "m_root[{r}] must be exact at near-bound magnitudes");
    }

    // An existing replica with *zero* spare (load == capacity) contributes
    // nothing: the table must shift by one replica, not wrap below zero.
    let run = sparse_strict_dp(&tree, root.0, big, &[(n1.0, big)], &demand);
    assert_eq!(run.rmin, Some(2), "the full existing replica cannot absorb anything");
    assert_eq!(run.m_root.len(), 4);
    for (r, &m) in run.m_root.iter().enumerate() {
        let expect = total.saturating_sub(r as u64 * big);
        assert_eq!(m, expect, "a zero-spare replica must leave the table unchanged at r={r}");
    }

    // A half-loaded existing replica clamps the step list into one full
    // step plus a partial one: the table is the same closed form over the
    // volume its spare leaves.
    let spare = big - big / 2;
    let run = sparse_strict_dp(&tree, root.0, big, &[(n1.0, big / 2)], &demand);
    assert_eq!(run.rmin, Some(2), "half a replica of spare still leaves more than one W");
    for (r, &m) in run.m_root.iter().enumerate() {
        let expect = (total - spare).saturating_sub(r as u64 * big);
        assert_eq!(m, expect, "a partial spare must clamp exactly at r={r}");
    }
}
