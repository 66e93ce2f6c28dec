//! Property test for [`rp_tree::TreeArena::compute_deadlines`]: the
//! one-pass root-path search must agree with naive parent walks on random
//! trees, including trees far deeper (depth up to ~200) than the balanced
//! shapes the unit tests cover. Zero-length edges are drawn too: they tie
//! root distances along a path, which is where "the highest ancestor within
//! `dmax`" differs from "some ancestor within `dmax`".

use proptest::prelude::*;
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Tree, TreeBuilder};

/// Builds a deep random tree: each step either extends the current deepest
/// chain (biased, to push the depth towards `steps`) or attaches to a random
/// earlier internal node; clients hang off a suffix of the internal nodes.
fn deep_tree() -> impl Strategy<Value = Tree> {
    (
        prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..9), 1..200),
        prop::collection::vec((any::<u16>(), 0u64..9, 0u64..30), 0..20),
    )
        .prop_map(|(spine, clients)| {
            let mut b = TreeBuilder::new();
            let mut internals = vec![b.root()];
            let mut tip = b.root();
            for (extend, pick, edge) in spine {
                let parent = if extend { tip } else { internals[pick as usize % internals.len()] };
                let id = b.add_internal(parent, edge);
                if extend || parent == tip {
                    tip = id;
                }
                internals.push(id);
            }
            for (pick, edge, requests) in clients {
                let parent = internals[pick as usize % internals.len()];
                b.add_client(parent, edge, requests);
            }
            b.freeze().expect("builder-constructed trees are always valid")
        })
}

/// Naive O(depth) reference: the highest ancestor within `dmax`.
fn naive_deadline(arena: &TreeArena, v: u32, dmax: u64) -> u32 {
    let from = arena.root_dist(v);
    let mut at = v;
    loop {
        let p = arena.parent(at);
        if p == NO_PARENT || from - arena.root_dist(p) > dmax {
            return at;
        }
        at = p;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deadlines_match_naive_walks(tree in deep_tree(), dmax in 0u64..400) {
        let arena = tree.arena();
        let mut out = Vec::new();
        arena.compute_deadlines(Some(dmax), &mut out);
        for v in 0..arena.len() as u32 {
            let expect = naive_deadline(arena, v, dmax);
            prop_assert_eq!(out[v as usize], expect, "compute_deadlines[{}]", v);
        }
        arena.compute_deadlines(None, &mut out);
        let root = arena.preorder()[0];
        prop_assert!(out.iter().all(|&d| d == root));
    }
}
