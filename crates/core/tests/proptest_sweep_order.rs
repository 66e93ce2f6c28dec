//! Differential tests for the `multiple-bin` sweep's pending flow
//! (`rp_core::multiple_bin::testing`): on random binary trees with
//! weighted edges — small ones and ones near `u64::MAX` — with and without
//! `dmax`, the production flow (per-node max-heaps of static
//! `(root_dist, post-order)` keys, merged small-to-large) must hand every
//! stage **exactly** the inputs of the historical flat-list sweep: the same
//! stage nodes in the same order, and per stage the same stuck and
//! travelling fragments, entry for entry, in the same order.
//!
//! The reference below is that historical sweep: at every node it copies
//! the children's lists with the connecting edge added (saturating),
//! stable-sorts by non-increasing distance and splits off the stuck
//! prefix. Trees whose root distances overflow `u64` are refused by the
//! production flow and by the solvers alike, naming the first such node.

use proptest::prelude::*;
use rp_core::multiple_bin::testing::{stage_inputs, StageInput};
use rp_core::stage::PendingRequest;
use rp_core::{multiple_bin, SolveError};
use rp_tree::{validate, Instance, NodeId, Policy, Tree, TreeBuilder};

/// The flat-list sweep: copy + edge shift + stable sort per node.
fn reference_inputs(tree: &Tree, dmax: Option<u64>) -> Vec<StageInput> {
    let can_go_above = |v: NodeId, d: u64| match tree.parent(v) {
        None => false,
        Some(_) => dmax.is_none_or(|dmax| d.saturating_add(tree.edge(v)) <= dmax),
    };
    let mut req: Vec<Vec<PendingRequest>> = vec![Vec::new(); tree.len()];
    let mut stages = Vec::new();
    for v in tree.postorder() {
        if tree.is_client(v) {
            let r = tree.requests(v);
            if r > 0 && can_go_above(v, 0) {
                req[v.index()].push(PendingRequest { d: 0, w: r, client: v.index() as u32 });
            }
            continue;
        }
        let mut temp: Vec<PendingRequest> = Vec::new();
        for c in tree.children(v) {
            let edge = tree.edge(c);
            temp.extend(
                req[c.index()]
                    .drain(..)
                    .map(|t| PendingRequest { d: t.d.saturating_add(edge), ..t }),
            );
        }
        temp.sort_by_key(|t| std::cmp::Reverse(t.d));
        let split = temp.partition_point(|t| !can_go_above(v, t.d));
        if split > 0 {
            stages.push(StageInput {
                j: v.index() as u32,
                stuck: temp[..split].to_vec(),
                travelling: temp[split..].to_vec(),
            });
            temp.drain(..split);
        }
        req[v.index()] = temp;
    }
    stages
}

/// The first node (by index) whose exact root distance exceeds `u64::MAX`.
fn first_overflow(tree: &Tree) -> Option<NodeId> {
    let mut exact = vec![0u128; tree.len()];
    for v in tree.preorder() {
        if let Some(p) = tree.parent(v) {
            exact[v.index()] = exact[p.index()] + u128::from(tree.edge(v));
        }
    }
    (0..tree.len()).find(|&i| exact[i] > u128::from(u64::MAX)).map(|i| NodeId(i as u32))
}

/// A generated sweep scenario.
#[derive(Debug, Clone)]
struct Scenario {
    tree: Tree,
    dmax: Option<u64>,
}

/// Hangs nodes one by one under random open slots of a binary tree: each
/// op is `(slot pick, is client, edge, requests)`.
fn binary_tree(ops: &[(u16, bool, u64, u64)]) -> Tree {
    let mut b = TreeBuilder::new();
    let mut open = vec![(b.root(), 0u8)];
    for &(pick, client, edge, requests) in ops {
        let slot = pick as usize % open.len();
        let parent = open[slot].0;
        if client {
            b.add_client(parent, edge, requests);
        } else {
            let node = b.add_internal(parent, edge);
            open.push((node, 0));
        }
        open[slot].1 += 1;
        if open[slot].1 == 2 {
            open.swap_remove(slot);
            if open.is_empty() {
                break;
            }
        }
    }
    b.freeze().expect("builder trees are valid")
}

/// Small weighted edges, `dmax` on or off.
fn small_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((any::<u16>(), any::<bool>(), 0u64..6, 0u64..10), 1..60),
        prop::option::of(0u64..30),
    )
        .prop_map(|(ops, dmax)| Scenario { tree: binary_tree(&ops), dmax })
}

/// Edges mixing small lengths with lengths near `u64::MAX` (halves,
/// quarters and the maximum itself, minus a little), and budgets near the
/// maximum too: some trees keep every root distance within `u64`, others
/// overflow it.
fn huge_scenario() -> impl Strategy<Value = Scenario> {
    let edge = (0u8..8, 0u64..4).prop_map(|(class, small)| match class {
        0 => u64::MAX / 2 - small,
        1 => u64::MAX / 4 - small,
        2 => u64::MAX - small,
        _ => small,
    });
    let dmax = (0u8..5, 0u64..4).prop_map(|(class, small)| match class {
        0 => None,
        1 => Some(small + 3),
        2 => Some(u64::MAX / 2 + small),
        3 => Some(u64::MAX - small),
        _ => Some(u64::MAX),
    });
    (prop::collection::vec((any::<u16>(), any::<bool>(), edge, 1u64..10), 1..40), dmax)
        .prop_map(|(ops, dmax)| Scenario { tree: binary_tree(&ops), dmax })
}

fn assert_flow_matches_reference(s: &Scenario) {
    let instance = Instance::new(s.tree.clone(), 10, s.dmax).expect("capacity is positive");
    match first_overflow(&s.tree) {
        Some(node) => {
            let refused = SolveError::RootDistanceTooLarge { node };
            prop_assert_eq!(stage_inputs(&s.tree, s.dmax), Err(refused.clone()));
            prop_assert_eq!(multiple_bin(&instance), Err(refused));
        }
        None => {
            let run = stage_inputs(&s.tree, s.dmax).expect("root distances fit u64");
            let reference = reference_inputs(&s.tree, s.dmax);
            prop_assert_eq!(&run, &reference, "stage inputs diverged");
            // Nothing travels on from the root: everything pending there is
            // stuck.
            if let Some(last) = run.last() {
                prop_assert!(last.j != 0 || last.travelling.is_empty());
            }
            let solution = multiple_bin(&instance).expect("r_i ≤ W and distances fit");
            prop_assert!(validate(&instance, Policy::Multiple, &solution).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn heap_flow_matches_flat_sweep_on_small_edges(s in small_scenario()) {
        assert_flow_matches_reference(&s);
    }

    #[test]
    fn heap_flow_matches_flat_sweep_near_u64_max(s in huge_scenario()) {
        assert_flow_matches_reference(&s);
    }
}

#[test]
fn ties_in_distance_keep_post_order() {
    // Four clients at the same distance from the root, behind two
    // internal nodes: the stable sort keeps child order at every join, so
    // the root stage sees them in post order.
    let mut b = TreeBuilder::new();
    let root = b.root();
    let left = b.add_internal(root, 2);
    let right = b.add_internal(root, 1);
    let c: Vec<NodeId> = vec![
        b.add_client(left, 1, 3),
        b.add_client(left, 1, 4),
        b.add_client(right, 2, 5),
        b.add_client(right, 2, 6),
    ];
    let tree = b.freeze().unwrap();
    let run = stage_inputs(&tree, None).unwrap();
    assert_eq!(run, reference_inputs(&tree, None));
    assert_eq!(run.len(), 1, "without dmax only the root stage fires");
    let order: Vec<u32> = run[0].stuck.iter().map(|t| t.client).collect();
    assert_eq!(order, c.iter().map(|n| n.index() as u32).collect::<Vec<_>>());
    assert!(run[0].stuck.iter().all(|t| t.d == 3));
}
