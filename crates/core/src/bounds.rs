//! Lower bounds on the optimal number of replicas.
//!
//! Exact optima are only computable for small instances (the problems are
//! NP-hard); on larger instances the experiments report the ratio of an
//! algorithm against the best available lower bound, which is what this
//! module provides:
//!
//! * [`volume_lower_bound`] — ⌈ΣR / W⌉: at least this many replicas are
//!   needed just to absorb the request volume;
//! * [`disjoint_paths_lower_bound`] — clients whose eligible-server paths are
//!   pairwise disjoint cannot share a replica, so a maximal set of such
//!   clients is a lower bound (this captures the effect of the distance
//!   constraint, which the volume bound ignores);
//! * [`subtree_volume_lower_bound`] — for every node `v` whose clients cannot
//!   be served above `v` (because of `dmax`), at least
//!   ⌈requests(stuck in subtree(v)) / W⌉ replicas must live inside
//!   `subtree(v)`; summing over disjoint subtrees refines the volume bound;
//! * [`combined_lower_bound`] — the maximum of the three.

use rp_tree::{Instance, NodeId};
use std::collections::HashSet;

/// ⌈total requests / W⌉ (Section 2 of the paper uses this implicitly in every
/// counting argument).
pub fn volume_lower_bound(instance: &Instance) -> u64 {
    instance.request_volume_lower_bound()
}

/// Greedy maximal set of clients whose eligible-server sets are pairwise
/// disjoint; its cardinality lower-bounds the optimum since no two such
/// clients can share a replica.
///
/// Clients are scanned by increasing number of eligible servers, which makes
/// the greedy pick highly constrained clients first and yields a larger set
/// in practice.
pub fn disjoint_paths_lower_bound(instance: &Instance) -> u64 {
    let tree = instance.tree();
    let mut clients: Vec<(NodeId, Vec<NodeId>)> = tree
        .clients()
        .iter()
        .copied()
        .filter(|c| tree.requests(*c) > 0)
        .map(|c| (c, instance.eligible_servers(c)))
        .collect();
    clients.sort_by_key(|(_, servers)| servers.len());
    let mut blocked: HashSet<NodeId> = HashSet::new();
    let mut count = 0u64;
    for (_, servers) in clients {
        if servers.iter().any(|s| blocked.contains(s)) {
            continue;
        }
        for s in servers {
            blocked.insert(s);
        }
        count += 1;
    }
    count
}

/// Sums ⌈stuck volume / W⌉ over a set of disjoint subtrees whose requests
/// cannot escape (every eligible server of the counted requests lies inside
/// the subtree).
///
/// The bound walks the tree bottom-up: a node `v` is *closing* if none of the
/// pending clients below it may be served strictly above `v` (their distance
/// budget is exhausted by the edge above `v`, or `v` is the root). Each
/// closing node contributes the ceiling of its pending volume and stops the
/// volume from propagating further up, so contributions come from disjoint
/// client sets and can be added.
pub fn subtree_volume_lower_bound(instance: &Instance) -> u64 {
    let tree = instance.tree();
    let mut bound = 0u64;
    // Per-node list of pending (volume, remaining allowance) entries, one per
    // client still travelling upwards. `None` allowance = unconstrained.
    type Entry = (u128, Option<u64>);
    let mut pending: Vec<Vec<Entry>> = vec![Vec::new(); tree.len()];

    for v in tree.postorder() {
        if tree.is_client(v) {
            let r = tree.requests(v);
            if r > 0 {
                pending[v.index()] = vec![(r as u128, instance.dmax())];
            }
            continue;
        }
        let mut merged: Vec<Entry> = Vec::new();
        for c in tree.children(v) {
            let edge = tree.edge(c);
            merged.extend(
                pending[c.index()]
                    .drain(..)
                    .map(|(vol, allow)| (vol, allow.map(|a| a.saturating_sub(edge)))),
            );
        }
        let volume: u128 = merged.iter().map(|(vol, _)| vol).sum();
        // The subtree is *closed* when none of the pending requests may be
        // served strictly above `v`: either `v` is the root, or every entry's
        // remaining allowance is smaller than the edge above `v`. Requests of
        // a closed subtree can only be served by replicas inside it, and
        // closed subtrees counted this way are vertex-disjoint, so their
        // ⌈volume / W⌉ contributions add up to a valid lower bound.
        let all_stuck = !merged.is_empty()
            && merged.iter().all(|(_, allow)| match allow {
                Some(a) => *a < tree.edge(v),
                None => false,
            });
        let closing = v == tree.root() || all_stuck;
        if closing && volume > 0 {
            bound += volume.div_ceil(instance.capacity() as u128) as u64;
            pending[v.index()].clear();
        } else {
            pending[v.index()] = merged;
        }
    }
    bound
}

/// The best of the three lower bounds.
pub fn combined_lower_bound(instance: &Instance) -> u64 {
    volume_lower_bound(instance)
        .max(disjoint_paths_lower_bound(instance))
        .max(subtree_volume_lower_bound(instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_instances::random::{random_kary_tree, wrap_instance};
    use rp_instances::{EdgeDist, RequestDist};
    use rp_tree::{Policy, TreeBuilder};

    #[test]
    fn volume_bound_matches_instance_helper() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        for _ in 0..4 {
            b.add_client(root, 1, 7);
        }
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert_eq!(volume_lower_bound(&inst), 3);
    }

    #[test]
    fn disjoint_paths_counts_far_apart_clients() {
        // Two deep clients in different branches whose eligible servers do
        // not overlap because of dmax.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let l = b.add_internal(root, 5);
        let r = b.add_internal(root, 5);
        b.add_client(l, 1, 2);
        b.add_client(r, 1, 2);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(3)).unwrap();
        assert_eq!(disjoint_paths_lower_bound(&inst), 2);
        // Without the constraint both can reach the root → only 1.
        let inst = Instance::new(inst.tree().clone(), 10, None).unwrap();
        assert_eq!(disjoint_paths_lower_bound(&inst), 1);
    }

    #[test]
    fn subtree_volume_bound_sees_stuck_volume() {
        // 30 requests stuck below an edge that exceeds dmax → 3 replicas in
        // that subtree even though the global volume bound alone also says 3;
        // add a second, unconstrained branch to make the refinement visible.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let far = b.add_internal(root, 100);
        b.add_client(far, 1, 15);
        b.add_client(far, 1, 15);
        b.add_client(root, 1, 10);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(20)).unwrap();
        // Stuck subtree needs ⌈30/10⌉ = 3, the root branch needs ⌈10/10⌉ = 1.
        assert_eq!(subtree_volume_lower_bound(&inst), 4);
        assert_eq!(volume_lower_bound(&inst), 4);
        assert_eq!(combined_lower_bound(&inst), 4);
    }

    #[test]
    fn bounds_never_exceed_the_optimum() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..10 {
            let tree = random_kary_tree(
                7,
                3,
                &EdgeDist::Uniform { lo: 1, hi: 3 },
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.0, Some(0.7));
            let lb = combined_lower_bound(&inst);
            let opt_single =
                rp_exact::optimal_replica_count(&inst, Policy::Single).expect("feasible");
            let opt_multiple =
                rp_exact::optimal_replica_count(&inst, Policy::Multiple).expect("feasible");
            assert!(lb <= opt_single, "trial {trial}: lb {lb} > single optimum {opt_single}");
            assert!(lb <= opt_multiple, "trial {trial}: lb {lb} > multiple optimum {opt_multiple}");
        }
    }

    #[test]
    fn zero_request_instances_have_zero_bounds() {
        let inst = Instance::new(TreeBuilder::new().freeze().unwrap(), 5, Some(2)).unwrap();
        assert_eq!(combined_lower_bound(&inst), 0);
    }
}
