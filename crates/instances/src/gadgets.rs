//! NP-hardness reduction gadgets.
//!
//! The paper proves its hardness results by reductions from partition
//! problems; the constructed replica placement instances are reproduced here
//! so that the reductions can be exercised end-to-end with the exact solvers:
//!
//! * [`three_partition_gadget`] — instance `I2` of Fig. 1 (Theorem 1):
//!   3-Partition reduces to Single-NoD-Bin. The source instance has a
//!   3-partition iff `I2` admits a solution with `m` replicas.
//! * [`two_partition_gadget`] — instance `I4` of Fig. 2 (Theorem 2):
//!   2-Partition reduces to Single-NoD-Bin with an optimum of 2 on YES
//!   instances, establishing the (3/2 − ε) inapproximability bound.
//! * [`two_partition_equal_gadget`] — instance `I6` of Fig. 5 (Theorem 5):
//!   2-Partition-Equal reduces to Multiple-Bin when clients may issue more
//!   requests than the capacity. The source instance has an equal-cardinality
//!   partition iff `I6` admits a solution with `4m` replicas.
//!
//! The paper's figures are not reproduced verbatim (binary combs replace the
//! unspecified binary fan-out below a node in `I2`/`I4`), but every property
//! used by the proofs is preserved: which nodes can serve which clients, the
//! capacity `W`, the distance constraints and the replica-count threshold.

use crate::families::attach_binary_comb;
use rp_tree::{Instance, NodeId, TreeBuilder};

/// Which reduction a gadget instance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetKind {
    /// `I2`: 3-Partition → Single-NoD-Bin (Fig. 1, Theorem 1).
    ThreePartition,
    /// `I4`: 2-Partition → Single-NoD-Bin (Fig. 2, Theorem 2).
    TwoPartition,
    /// `I6`: 2-Partition-Equal → Multiple-Bin (Fig. 5, Theorem 5).
    TwoPartitionEqual,
}

/// A reduction gadget: the constructed instance plus the replica-count
/// threshold that encodes the answer of the source problem.
#[derive(Debug, Clone)]
pub struct Gadget {
    /// The replica placement instance produced by the reduction.
    pub instance: Instance,
    /// The source problem has answer YES iff the instance admits a feasible
    /// solution using at most `threshold` replicas (under the policy
    /// appropriate for the reduction).
    pub threshold: u64,
    /// Which reduction built this gadget.
    pub kind: GadgetKind,
    /// Ids of the clients carrying the source numbers `a_1 … a_n`, in input
    /// order (useful to map a placement back to a partition).
    pub item_clients: Vec<NodeId>,
}

/// Builds instance `I2` (Fig. 1): 3-Partition with items `a` (length `3m`)
/// and bin size `b` reduces to Single-NoD-Bin with capacity `W = b` and
/// threshold `m`.
///
/// Structure: a spine of `m` internal nodes below the root (each of them is
/// an ancestor of every client), then a binary comb carrying the `3m` item
/// clients. No distance constraint; the tree is binary.
///
/// # Panics
///
/// Panics if `a.len()` is not a positive multiple of 3 or if `Σa ≠ m·b`.
pub fn three_partition_gadget(a: &[u64], b: u64) -> Gadget {
    assert!(!a.is_empty() && a.len().is_multiple_of(3), "3-Partition needs 3m items");
    let m = a.len() / 3;
    let total: u128 = a.iter().map(|&x| x as u128).sum();
    assert_eq!(total, (m as u128) * (b as u128), "3-Partition requires Σa = m·B");

    let mut builder = TreeBuilder::new();
    let mut spine = builder.root();
    for _ in 0..m {
        spine = builder.add_internal(spine, 1);
    }
    let item_clients = attach_binary_comb(&mut builder, spine, a, 1);
    let tree = builder.freeze().expect("I2 construction is a valid tree");
    debug_assert!(tree.is_binary());
    let instance = Instance::new(tree, b, None).expect("bin size B must be positive");
    Gadget { instance, threshold: m as u64, kind: GadgetKind::ThreePartition, item_clients }
}

/// Builds instance `I4` (Fig. 2): 2-Partition with items `a` reduces to
/// Single-NoD-Bin with capacity `W = Σa / 2` and threshold 2.
///
/// Structure: root → `n_1` → binary comb of the item clients; both the root
/// and `n_1` are ancestors of every client. No distance constraint.
///
/// # Panics
///
/// Panics if `a` is empty or `Σa` is odd (in which case the source instance
/// is trivially NO and the reduction's capacity `S/2` is not integral).
pub fn two_partition_gadget(a: &[u64]) -> Gadget {
    assert!(!a.is_empty(), "2-Partition needs at least one item");
    let total: u128 = a.iter().map(|&x| x as u128).sum();
    assert!(total.is_multiple_of(2), "2-Partition gadget requires an even total");
    let w = (total / 2) as u64;

    let mut builder = TreeBuilder::new();
    let root = builder.root();
    let n1 = builder.add_internal(root, 1);
    let item_clients = attach_binary_comb(&mut builder, n1, a, 1);
    let tree = builder.freeze().expect("I4 construction is a valid tree");
    debug_assert!(tree.is_binary());
    let instance = Instance::new(tree, w, None).expect("S/2 must be positive");
    Gadget { instance, threshold: 2, kind: GadgetKind::TwoPartition, item_clients }
}

/// Node handles of an `I6` gadget, using the paper's indices.
#[derive(Debug, Clone)]
pub struct TwoPartitionEqualNodes {
    /// `node[j]` is the paper's `n_{j+1}` for `j ∈ 0..5m-1` (i.e. paper index
    /// `j+1`); `node[5m-2]` is the root `n_{5m-1}`.
    pub internal: Vec<NodeId>,
    /// Clients carrying the `a_j` values, `j = 1 … 2m` (input order).
    pub a_clients: Vec<NodeId>,
    /// Clients carrying the `b_j = S/2 − 2a_j` values, `j = 1 … 2m`.
    pub b_clients: Vec<NodeId>,
    /// The `m − 1` unit-request clients attached to `n_{4m+1} … n_{5m−1}`.
    pub unit_clients: Vec<NodeId>,
    /// The client with `(2m+1)·W` requests below `n_{2m+1}`.
    pub big_client: NodeId,
}

/// Builds instance `I6` (Fig. 5): 2-Partition-Equal with items `a` (length
/// `2m`) reduces to Multiple-Bin with `W = S/2 + 1`, `dmax = 3m` and
/// threshold `4m`. Also returns the node handles using the paper's indices.
///
/// # Panics
///
/// Panics if `a.len()` is not an even positive number, if `Σa` is odd, or if
/// some `a_j > S/4` (which would make `b_j = S/2 − 2a_j` negative).
pub fn two_partition_equal_gadget(a: &[u64]) -> (Gadget, TwoPartitionEqualNodes) {
    assert!(!a.is_empty() && a.len().is_multiple_of(2), "2-Partition-Equal needs 2m items");
    let m = a.len() / 2;
    let s: u128 = a.iter().map(|&x| x as u128).sum();
    assert!(s.is_multiple_of(2), "2-Partition-Equal gadget requires an even total");
    let half = (s / 2) as u64;
    for &x in a {
        assert!(2 * x <= half, "each a_j must satisfy a_j ≤ S/4 so that b_j ≥ 0");
    }
    let w = half + 1; // W = S/2 + 1
    let m64 = m as u64;
    let dmax = 3 * m64;
    let big_requests = (2 * m64 + 1) * w;

    // internal[j-1] will hold the paper's node n_j, 1 ≤ j ≤ 5m-1.
    let mut internal: Vec<Option<NodeId>> = vec![None; 5 * m - 1];
    let mut builder = TreeBuilder::new();
    let root = builder.root();
    internal[5 * m - 2] = Some(root); // n_{5m-1} is the root.

    // Build the spine top-down: n_{5m-2}, …, n_{2m+1}, each child of n_{j+1}.
    for j in (2 * m + 1..=5 * m - 2).rev() {
        let parent = internal[j].expect("parent created in a previous iteration");
        let node = builder.add_internal(parent, 1);
        internal[j - 1] = Some(node);
    }

    // Lower nodes n_1 … n_2m: parent(n_j) = n_{2m+j}.
    for j in 1..=2 * m {
        let parent = internal[2 * m + j - 1].expect("spine node exists");
        let node = builder.add_internal(parent, 1);
        internal[j - 1] = Some(node);
    }

    let internal: Vec<NodeId> = internal.into_iter().map(|n| n.expect("all nodes built")).collect();

    // Clients of the lower nodes: a_j at distance j + (m-2), b_j at distance 1.
    let mut a_clients = Vec::with_capacity(2 * m);
    let mut b_clients = Vec::with_capacity(2 * m);
    for (idx, &aj) in a.iter().enumerate() {
        let j = idx + 1;
        let nj = internal[j - 1];
        let a_edge = (j as u64 + m64).saturating_sub(2);
        let bj = half - 2 * aj;
        a_clients.push(builder.add_client(nj, a_edge, aj));
        b_clients.push(builder.add_client(nj, 1, bj));
    }

    // Unit clients of n_{4m+1} … n_{5m-1}, at distance dmax.
    let mut unit_clients = Vec::with_capacity(m - 1);
    for j in 4 * m + 1..=5 * m - 1 {
        unit_clients.push(builder.add_client(internal[j - 1], dmax, 1));
    }

    // The big client of n_{2m+1}, at distance m + 1.
    let big_client = builder.add_client(internal[2 * m], m64 + 1, big_requests);

    let tree = builder.freeze().expect("I6 construction is a valid tree");
    debug_assert!(tree.is_binary(), "I6 must be a binary tree");
    let instance = Instance::new(tree, w, Some(dmax)).expect("W is positive");
    let gadget = Gadget {
        instance,
        threshold: 4 * m64,
        kind: GadgetKind::TwoPartitionEqual,
        item_clients: a_clients.clone(),
    };
    let nodes = TwoPartitionEqualNodes { internal, a_clients, b_clients, unit_clients, big_client };
    (gadget, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::{validate, Policy, Solution};

    #[test]
    fn i2_shape_and_parameters() {
        // m = 2, B = 12, items between B/4 = 3 and B/2 = 6 (exclusive).
        let a = [4, 4, 4, 5, 5, 2]; // note: last triple need not satisfy bounds for shape tests
        let g = three_partition_gadget(&a, 12);
        assert_eq!(g.threshold, 2);
        assert_eq!(g.kind, GadgetKind::ThreePartition);
        assert_eq!(g.instance.capacity(), 12);
        assert_eq!(g.instance.dmax(), None);
        assert!(g.instance.tree().is_binary());
        assert_eq!(g.instance.tree().client_count(), 6);
        assert_eq!(g.item_clients.len(), 6);
        // spine nodes are ancestors of every item client
        let tree = g.instance.tree();
        for spine_depth in 1..=2u32 {
            let spine = tree
                .node_ids()
                .find(|id| !tree.is_client(*id) && tree.depth(*id) == spine_depth)
                .unwrap();
            for &c in &g.item_clients {
                assert!(tree.is_ancestor_or_self(spine, c));
            }
        }
    }

    #[test]
    fn i2_yes_instance_admits_threshold_solution() {
        // YES instance of 3-Partition: (4,4,4) and (5,4,3), B = 12.
        let a = [4, 4, 4, 5, 4, 3];
        let g = three_partition_gadget(&a, 12);
        let tree = g.instance.tree();
        // Serve triple 1 at the depth-1 spine node, triple 2 at depth-2.
        let spine1 = tree.node_ids().find(|i| !tree.is_client(*i) && tree.depth(*i) == 1).unwrap();
        let spine2 = tree.node_ids().find(|i| !tree.is_client(*i) && tree.depth(*i) == 2).unwrap();
        let mut sol = Solution::new();
        for (k, &amount) in a.iter().enumerate() {
            let spine = if k < 3 { spine1 } else { spine2 };
            sol.assign(g.item_clients[k], spine, amount);
        }
        let stats = validate(&g.instance, Policy::Single, &sol).unwrap();
        assert_eq!(stats.replica_count as u64, g.threshold);
    }

    #[test]
    #[should_panic(expected = "Σa = m·B")]
    fn i2_rejects_inconsistent_sum() {
        three_partition_gadget(&[1, 2, 3], 100);
    }

    #[test]
    fn i4_shape_and_yes_solution() {
        // YES instance of 2-Partition: {3, 5, 4, 2, 6, 2} → S = 22, halves of 11.
        let a = [3, 5, 4, 2, 6, 2];
        let g = two_partition_gadget(&a);
        assert_eq!(g.instance.capacity(), 11);
        assert_eq!(g.threshold, 2);
        assert!(g.instance.tree().is_binary());
        let tree = g.instance.tree();
        let n1 = tree.children(tree.root()).next().unwrap();
        assert!(!tree.is_client(n1));
        // Partition: {3, 4, 2, 2} no… use {5, 6} = 11 and {3, 4, 2, 2} = 11.
        let mut sol = Solution::new();
        let groups: [&[usize]; 2] = [&[1, 4], &[0, 2, 3, 5]];
        for &i in groups[0] {
            sol.assign(g.item_clients[i], tree.root(), a[i]);
        }
        for &i in groups[1] {
            sol.assign(g.item_clients[i], n1, a[i]);
        }
        let stats = validate(&g.instance, Policy::Single, &sol).unwrap();
        assert_eq!(stats.replica_count, 2);
    }

    #[test]
    #[should_panic(expected = "even total")]
    fn i4_rejects_odd_totals() {
        two_partition_gadget(&[1, 2]);
    }

    #[test]
    fn i6_shape_matches_paper() {
        // m = 2: items a = (2, 2, 2, 2), S = 8, S/2 = 4, W = 5, dmax = 6.
        let a = [2, 2, 2, 2];
        let (g, nodes) = two_partition_equal_gadget(&a);
        let m = 2usize;
        assert_eq!(g.instance.capacity(), 5);
        assert_eq!(g.instance.dmax(), Some(6));
        assert_eq!(g.threshold, 8);
        let tree = g.instance.tree();
        assert!(tree.is_binary());
        // 5m clients and 5m - 1 internal nodes.
        assert_eq!(tree.client_count(), 5 * m);
        assert_eq!(tree.len(), 10 * m - 1);
        assert_eq!(nodes.internal.len(), 5 * m - 1);
        // Parent structure: n_j → n_{j+1} on the spine; n_j → n_{2m+j} below.
        for j in 2 * m + 1..=5 * m - 2 {
            assert_eq!(tree.parent(nodes.internal[j - 1]), Some(nodes.internal[j]));
        }
        for j in 1..=2 * m {
            assert_eq!(tree.parent(nodes.internal[j - 1]), Some(nodes.internal[2 * m + j - 1]));
        }
        // Request values: a_j, b_j = S/2 - 2 a_j, unit clients, big client.
        for (idx, &aj) in a.iter().enumerate() {
            assert_eq!(tree.requests(nodes.a_clients[idx]), aj);
            assert_eq!(tree.requests(nodes.b_clients[idx]), 4 - 2 * aj);
            // a_j client edge = j + m - 2
            assert_eq!(tree.edge(nodes.a_clients[idx]), (idx as u64 + 1) + 2 - 2);
            assert_eq!(tree.edge(nodes.b_clients[idx]), 1);
        }
        assert_eq!(nodes.unit_clients.len(), m - 1);
        for &u in &nodes.unit_clients {
            assert_eq!(tree.requests(u), 1);
            assert_eq!(tree.edge(u), 6);
        }
        assert_eq!(tree.requests(nodes.big_client), (2 * m as u64 + 1) * 5);
        assert_eq!(tree.edge(nodes.big_client), m as u64 + 1);
        // The big client violates r_i ≤ W, which is the point of Theorem 5.
        assert!(!g.instance.all_requests_fit_locally());
    }

    #[test]
    fn i6_forward_direction_yes_solution_exists() {
        // m = 3, a = (1, 2, 3, 2, 3, 1): S = 12, I = {1, 2, 3} (a_1+a_2+a_3 = 6 = S/2).
        let a = [1u64, 2, 3, 2, 3, 1];
        let (g, nodes) = two_partition_equal_gadget(&a);
        let tree = g.instance.tree();
        let m = 3usize;
        let w = g.instance.capacity();
        let s_half = 6u64;
        let in_i = [true, true, true, false, false, false];

        let mut sol = Solution::new();
        // Replicas at n_i for i ∈ I serving both their clients.
        for j in 0..2 * m {
            if in_i[j] {
                let nj = nodes.internal[j];
                sol.assign(nodes.a_clients[j], nj, a[j]);
                sol.assign(nodes.b_clients[j], nj, s_half - 2 * a[j]);
            }
        }
        // Replicas at n_{2m+1} … n_{4m} and at the big client: they absorb the
        // (2m+1)·W requests of the big client.
        let mut remaining = (2 * m as u64 + 1) * w;
        sol.assign(nodes.big_client, nodes.big_client, w);
        remaining -= w;
        for j in 2 * m + 1..=4 * m {
            let node = nodes.internal[j - 1];
            let amount = w.min(remaining);
            sol.assign(nodes.big_client, node, amount);
            remaining -= amount;
        }
        assert_eq!(remaining, 0);
        // Unit clients served by their parents n_{4m+1} … n_{5m-1}.
        for (k, &u) in nodes.unit_clients.iter().enumerate() {
            let parent = nodes.internal[4 * m + k];
            sol.assign(u, parent, 1);
        }
        // Remaining a_j (j ∉ I) go to n_{4m+1}; remaining b_j spread over
        // n_{4m+2} … n_{5m-1}.
        let n4m1 = nodes.internal[4 * m];
        for j in 0..2 * m {
            if !in_i[j] {
                sol.assign(nodes.a_clients[j], n4m1, a[j]);
            }
        }
        // Capacities of the top nodes: W - 1 = S/2 each (after their unit client).
        let mut spare: Vec<(rp_tree::NodeId, u64)> = Vec::new();
        // n_{4m+1} has already absorbed Σ_{j∉I} a_j + 1 (its own unit client):
        let used_on_n4m1: u64 = (0..2 * m).filter(|&j| !in_i[j]).map(|j| a[j]).sum::<u64>() + 1;
        spare.push((n4m1, w - used_on_n4m1));
        for j in 4 * m + 2..=5 * m - 1 {
            // each serves its unit client (1 request) already
            spare.push((nodes.internal[j - 1], w - 1));
        }
        for j in 0..2 * m {
            if !in_i[j] {
                let mut need = s_half - 2 * a[j];
                for entry in spare.iter_mut() {
                    if need == 0 {
                        break;
                    }
                    let take = entry.1.min(need);
                    if take > 0 {
                        sol.assign(nodes.b_clients[j], entry.0, take);
                        entry.1 -= take;
                        need -= take;
                    }
                }
                assert_eq!(need, 0, "top servers must absorb the b_j of j ∉ I");
            }
        }

        let stats = validate(&g.instance, Policy::Multiple, &sol)
            .expect("the paper's YES-direction solution must be feasible");
        assert_eq!(stats.replica_count as u64, g.threshold);
        let _ = tree;
    }

    #[test]
    #[should_panic(expected = "a_j ≤ S/4")]
    fn i6_rejects_items_larger_than_quarter() {
        two_partition_equal_gadget(&[5, 1, 1, 1]);
    }
}
