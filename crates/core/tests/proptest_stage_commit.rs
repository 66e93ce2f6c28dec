//! Property tests for the incremental stage commit (`rp_core::stage`): on
//! random **stage-dense** binary trees — long caterpillars, branchy binary
//! shapes and double brooms (client combs at both ends of a bare spine, so
//! consecutive stages share long service-path prefixes) under tight
//! distance budgets, so solves run many stages whose affected scopes are
//! strict subsets of their subtrees — the
//! production path (scoped closure walk + fused buffered-write commit)
//! must produce *exactly* the same solutions as the naive reference
//! (whole-subtree fixpoint scans for the same scope, historical
//! check-then-write double route), placements and assignments and loads
//! alike, with no leftover demand (every validated solution serves every
//! client in full). The scope-volume counters must agree too: both paths
//! price the same touched and skipped assignment volume.
//!
//! Fixed regressions pin shallow-deadline random binary instances, built
//! exactly as `rp gen --kind binary` builds them, on which a stage once
//! carried a stale scope summary into the next stage's collection and
//! committed an invalid placement.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::{multiple_bin_with, SolverScratch};
use rp_instances::random::{random_binary_tree, wrap_instance};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::{validate, Instance, Policy, Tree, TreeBuilder};

/// A generated solve scenario: a binary tree plus capacity and distance
/// budget chosen to make stages frequent and scopes partial.
#[derive(Debug, Clone)]
struct Scenario {
    tree: Tree,
    capacity: u64,
    dmax: Option<u64>,
}

/// Caterpillar shape: a spine with one client leaf per spine node (binary
/// by construction) — the stage-dense family the incremental commit
/// exists for.
fn caterpillar(picks: &[(u64, u64, u64)]) -> Tree {
    let mut b = TreeBuilder::new();
    let mut spine = b.root();
    for &(spine_edge, client_edge, req) in picks {
        spine = b.add_internal(spine, 1 + spine_edge % 2);
        b.add_client(spine, 1 + client_edge % 2, 1 + req % 9);
    }
    b.freeze().expect("caterpillar construction is always valid")
}

/// Branchy shape: internal nodes attached to any node with a free child
/// slot (arity kept ≤ 2), clients on the leaves' parents.
fn branchy(internals: &[(u16, u64)], clients: &[(u16, u64, u64)]) -> Tree {
    let mut b = TreeBuilder::new();
    let mut open: Vec<(rp_tree::NodeId, usize)> = vec![(b.root(), 2)];
    for &(pick, edge) in internals {
        let i = pick as usize % open.len();
        let (parent, slots) = open[i];
        let node = b.add_internal(parent, 1 + edge % 3);
        if slots == 1 {
            open.swap_remove(i);
        } else {
            open[i].1 -= 1;
        }
        open.push((node, 2));
    }
    for &(pick, edge, req) in clients {
        if open.is_empty() {
            break;
        }
        let i = pick as usize % open.len();
        let (parent, slots) = open[i];
        b.add_client(parent, 1 + edge % 3, 1 + req % 9);
        if slots == 1 {
            open.swap_remove(i);
        } else {
            open[i].1 -= 1;
        }
    }
    b.freeze().expect("branchy construction keeps arity at 2")
}

/// Double-broom shape, binarised: a comb of clients near the root, then a
/// bare spine, then a second comb at the far end. Stages triggered by the
/// deep comb walk the same bare-spine prefix over and over.
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

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0u8..3,                                                         // family pick
        prop::collection::vec((0u64..2, 0u64..2, 0u64..9), 6..40),      // caterpillar picks
        prop::collection::vec((any::<u16>(), 0u64..3), 4..16),          // branchy internals
        prop::collection::vec((any::<u16>(), 0u64..3, 0u64..9), 4..24), // branchy clients
        prop::collection::vec((0u64..2, 0u64..9), 2..12),               // broom head
        2usize..14,                                                     // broom spine
        prop::collection::vec((0u64..2, 0u64..9), 2..12),               // broom tail
        9u64..22,                                                       // capacity (≥ max r_i)
        prop::option::of(2u64..16),                                     // dmax
    )
        .prop_map(|(family, cat, internals, clients, head, spine, tail, capacity, dmax)| {
            let tree = match family {
                0 => caterpillar(&cat),
                1 => branchy(&internals, &clients),
                _ => double_broom(&head, spine, &tail),
            };
            Scenario { tree, capacity, dmax }
        })
}

/// Solves one instance through a fresh scratch in the given commit mode.
fn solve(inst: &Instance, naive: bool) -> (rp_tree::Solution, rp_core::StageStats) {
    let mut scratch = SolverScratch::new();
    scratch.set_naive_stage_commit(naive);
    let sol = multiple_bin_with(inst, &mut scratch).expect("feasible (r_i ≤ W by construction)");
    (sol, *scratch.stage_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn incremental_commit_matches_naive_reference(s in scenario()) {
        let inst = Instance::new(s.tree.clone(), s.capacity, s.dmax).expect("positive capacity");
        let (inc_sol, inc) = solve(&inst, false);
        let (naive_sol, naive) = solve(&inst, true);

        // Identical solutions: replica placements, per-replica assignments
        // and hence loads. (Solution equality covers all three.)
        prop_assert_eq!(&inc_sol, &naive_sol, "commit paths diverged: {:?}", s);

        // No leftover demand and no invariant repairs in either mode —
        // the validator re-checks that every client is served in full
        // within capacity and distance.
        validate(&inst, Policy::Multiple, &inc_sol).expect("incremental solution valid");
        prop_assert_eq!(inc.repairs, 0);
        prop_assert_eq!(naive.repairs, 0);

        // Both paths computed the same affected scopes, so they priced the
        // same touched / skipped volume over the same stages.
        prop_assert_eq!(inc.stages, naive.stages);
        prop_assert_eq!(inc.dp_fallbacks, naive.dp_fallbacks);
        prop_assert_eq!(inc.commit_touched, naive.commit_touched);
        prop_assert_eq!(inc.commit_skipped, naive.commit_skipped);
    }
}

#[test]
fn long_caterpillar_scopes_skip_most_volume() {
    // The scope restriction must actually engage on the stage-dense shape
    // (not hold vacuously with every stage touching everything): on a long
    // tight-dmax caterpillar, both commit paths must report substantial
    // skipped volume — and, being the same fixpoint, the same amounts.
    let picks: Vec<(u64, u64, u64)> = (0..96).map(|i| (i % 2, (i / 2) % 2, i * 5 % 9)).collect();
    let tree = caterpillar(&picks);
    let inst = Instance::new(tree, 12, Some(9)).expect("positive capacity");
    let (inc_sol, inc) = solve(&inst, false);
    let (naive_sol, naive) = solve(&inst, true);
    assert_eq!(inc_sol, naive_sol);
    assert!(inc.stages > 20, "tight dmax must make the solve stage-dense: {inc:?}");
    assert!(
        inc.commit_skipped > inc.commit_touched,
        "bounded scopes should skip most assigned volume: {inc:?}"
    );
    assert_eq!(inc.commit_skipped, naive.commit_skipped);
    assert_eq!(inc.commit_touched, naive.commit_touched);
}

#[test]
fn deep_double_broom_matches_naive_reference() {
    // On a long double broom under a tight distance budget, consecutive
    // deep-comb stages re-cross the previous stage's committed replicas;
    // each stage must still collect exactly the naive reference's scope.
    let head: Vec<(u64, u64)> = (0..24).map(|i| (i % 2, i * 5 % 9)).collect();
    let tail: Vec<(u64, u64)> = (0..48).map(|i| ((i + 1) % 2, i * 7 % 9)).collect();
    let tree = double_broom(&head, 24, &tail);
    let inst = Instance::new(tree, 11, Some(10)).expect("positive capacity");
    let (inc_sol, inc) = solve(&inst, false);
    let (naive_sol, naive) = solve(&inst, true);
    assert_eq!(inc_sol, naive_sol);
    assert!(inc.stages > 10, "tight dmax must make the solve stage-dense: {inc:?}");
    assert_eq!(inc.commit_touched, naive.commit_touched);
    validate(&inst, Policy::Multiple, &inc_sol).expect("incremental solution valid");
}

#[test]
fn shallow_deadline_binary_instances_solve_valid() {
    // `rp gen --kind binary --capacity-factor 3.0` with these
    // `--clients / --seed / --dmax-fraction` once solved to placements
    // that left clients partly unserved. Each must validate and match the
    // naive reference.
    let cases: [(usize, u64, f64); 6] = [
        (48, 28, 0.2),
        (64, 27, 0.2),
        (96, 18, 0.15),
        (128, 23, 0.1),
        (256, 6, 0.1),
        (8192, 1, 0.1),
    ];
    let edge = EdgeDist::Uniform { lo: 1, hi: 3 };
    let requests = RequestDist::Uniform { lo: 1, hi: 9 };
    for (clients, seed, fraction) in cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_binary_tree(clients, &edge, &requests, &mut rng);
        let inst = wrap_instance(tree, 3.0, Some(fraction));
        let (inc_sol, _) = solve(&inst, false);
        let (naive_sol, _) = solve(&inst, true);
        validate(&inst, Policy::Multiple, &inc_sol)
            .unwrap_or_else(|e| panic!("{clients}/{seed}/{fraction}: invalid placement: {e}"));
        assert_eq!(
            inc_sol.replica_count(),
            naive_sol.replica_count(),
            "{clients}/{seed}/{fraction}: replica count differs from the naive reference"
        );
        assert_eq!(inc_sol, naive_sol, "{clients}/{seed}/{fraction}: commit paths diverged");
    }
}
