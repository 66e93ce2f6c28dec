//! Property test pinning the scoped incremental stage commit against the
//! naive whole-subtree commit reference (`set_naive_stage_commit`) on the
//! double-broom family alone: a comb of clients near the root, a bare
//! spine, and a second comb at the far end, so consecutive stages share
//! long service-path prefixes and re-cross the previous stage's committed
//! replicas.
//!
//! The file and test names date from the stage engine's warm-start slot
//! and cross-stage scope cache, which targeted exactly this overlap
//! pattern. Both mechanisms are gone — the cache produced invalid
//! placements at shallow deadlines — and the stage engine now carries no
//! state between stages; the property that remains is the one the cache
//! had to meet: each stage's incremental commit equals the naive
//! reference, down to the touched and skipped commit volume.

use proptest::prelude::*;
use rp_core::{multiple_bin_with, SolverScratch, StageStats};
use rp_tree::{validate, Instance, Policy, Solution, Tree, TreeBuilder};

/// Double-broom shape, binarised: head comb, bare spine, tail comb.
fn double_broom(head: &[(u64, u64)], spine_len: usize, tail: &[(u64, u64)]) -> Tree {
    let mut b = TreeBuilder::new();
    let mut at = b.root();
    for &(edge, req) in head {
        at = b.add_internal(at, 1 + edge % 2);
        b.add_client(at, 1, 1 + req % 9);
    }
    for i in 0..spine_len {
        at = b.add_internal(at, 1 + (i as u64) % 3);
    }
    for &(edge, req) in tail {
        at = b.add_internal(at, 1 + edge % 2);
        b.add_client(at, 1, 1 + req % 9);
    }
    // The last spine node would otherwise be a childless internal, which
    // the builder rejects; give it a terminal client.
    b.add_client(at, 1, 1);
    b.freeze().expect("double-broom construction is always valid")
}

/// Solves one instance through a fresh scratch in the given commit mode.
fn solve(inst: &Instance, naive: bool) -> (Solution, StageStats) {
    let mut scratch = SolverScratch::new();
    scratch.set_naive_stage_commit(naive);
    let sol = multiple_bin_with(inst, &mut scratch).expect("feasible (r_i ≤ W by construction)");
    (sol, *scratch.stage_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Same fixpoint, same solutions: the incremental commit and the
    /// naive reference agree on placements, assignments and the scope
    /// volume they price, and the placement is valid.
    #[test]
    fn scope_cache_matches_naive_commit(
        head in prop::collection::vec((0u64..2, 0u64..9), 2..16),
        spine in 2usize..20,
        tail in prop::collection::vec((0u64..2, 0u64..9), 2..24),
        capacity in 9u64..22,
        dmax in prop::option::of(2u64..16),
    ) {
        let inst = Instance::new(double_broom(&head, spine, &tail), capacity, dmax)
            .expect("positive capacity");
        let (inc_sol, inc) = solve(&inst, false);
        let (naive_sol, naive) = solve(&inst, true);
        prop_assert_eq!(&inc_sol, &naive_sol, "commit paths diverged on {:?}", inst);
        prop_assert_eq!(inc.stages, naive.stages);
        prop_assert_eq!(inc.commit_touched, naive.commit_touched);
        prop_assert_eq!(inc.commit_skipped, naive.commit_skipped);
        validate(&inst, Policy::Multiple, &inc_sol).expect("incremental solution valid");
    }
}
