//! Problem instances: a tree, a server capacity `W`, a distance bound `dmax`
//! and the access policy.

use crate::error::TreeError;
use crate::solution::Solution;
use crate::tree::{NodeId, Tree};
use crate::{Dist, Requests};
use serde::{Deserialize, Serialize};

/// Access policy of the replica placement problem (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// All requests of a client are served by a single server
    /// (`|servers(i)| = 1`).
    Single,
    /// The requests of a client may be split across several servers on its
    /// path to the root.
    Multiple,
}

impl Policy {
    /// Human-readable policy name, matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Single => "Single",
            Policy::Multiple => "Multiple",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A replica placement problem instance.
///
/// Combines the distribution [`Tree`] with the uniform server capacity `W`
/// and the optional distance constraint `dmax` (`None` encodes the *NoD*
/// problem variants with no distance constraint).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    tree: Tree,
    capacity: Requests,
    dmax: Option<Dist>,
}

impl Instance {
    /// Creates an instance.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(tree: Tree, capacity: Requests, dmax: Option<Dist>) -> Result<Self, TreeError> {
        if capacity == 0 {
            return Err(TreeError::ZeroCapacity);
        }
        Ok(Instance { tree, capacity, dmax })
    }

    /// The distribution tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Server capacity `W` (requests per time unit a replica can process).
    #[inline]
    pub fn capacity(&self) -> Requests {
        self.capacity
    }

    /// Distance constraint `dmax`; `None` means no constraint (NoD).
    #[inline]
    pub fn dmax(&self) -> Option<Dist> {
        self.dmax
    }

    /// Whether the instance has a distance constraint.
    #[inline]
    pub fn has_distance_constraint(&self) -> bool {
        self.dmax.is_some()
    }

    /// Whether the distance `d` satisfies the constraint.
    #[inline]
    pub fn within_dmax(&self, d: Dist) -> bool {
        match self.dmax {
            Some(dmax) => d <= dmax,
            None => true,
        }
    }

    /// Whether every client can be served entirely by a local replica
    /// (`r_i ≤ W` for all clients) — the precondition under which the
    /// paper's Theorem 6 proves `multiple-bin` optimal, and the condition
    /// under which the Single problem always admits a solution.
    pub fn all_requests_fit_locally(&self) -> bool {
        self.tree.clients().iter().all(|c| self.tree.requests(*c) <= self.capacity)
    }

    /// Lower bound ⌈ΣR / W⌉ on the number of replicas of any solution.
    pub fn request_volume_lower_bound(&self) -> u64 {
        let total = self.tree.total_requests();
        let w = self.capacity as u128;
        total.div_ceil(w) as u64
    }

    /// Servers eligible to process requests of `client`: the client itself and
    /// its ancestors within distance `dmax`, in bottom-up order.
    ///
    /// This is the path `i = i_1 → i_2 → … → i_k = r` of the paper, truncated
    /// by the distance constraint.
    pub fn eligible_servers(&self, client: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut dist: Dist = 0;
        let mut current = client;
        loop {
            if self.within_dmax(dist) {
                out.push(current);
            } else {
                break;
            }
            match self.tree.parent(current) {
                Some(p) => {
                    dist = dist.saturating_add(self.tree.edge(current));
                    current = p;
                }
                None => break,
            }
        }
        out
    }

    /// The trivial feasible solution that places a replica at every client
    /// (`servers(i) = {i}`, always valid per Section 3 of the paper), provided
    /// every client satisfies `r_i ≤ W`.
    ///
    /// Returns `None` if some client has more requests than the capacity (in
    /// which case the Single problem has no solution at all; the Multiple
    /// problem may still be solvable by splitting).
    pub fn clients_only_solution(&self) -> Option<Solution> {
        if !self.all_requests_fit_locally() {
            return None;
        }
        let mut sol = Solution::new();
        for &c in self.tree.clients() {
            let r = self.tree.requests(c);
            if r > 0 {
                sol.assign(c, c, r);
            }
        }
        Some(sol)
    }

    /// Number of nodes of the tree (convenience passthrough).
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the underlying tree has only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;
    use crate::validate::validate;

    fn chain_instance(dmax: Option<Dist>) -> Instance {
        // root - n1 - n2 - client(6), edge lengths 2, 3, 4
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        let n2 = b.add_internal(n1, 3);
        b.add_client(n2, 4, 6);
        Instance::new(b.freeze().unwrap(), 10, dmax).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        let t = TreeBuilder::new().freeze().unwrap();
        assert_eq!(Instance::new(t, 0, None).unwrap_err(), TreeError::ZeroCapacity);
    }

    #[test]
    fn eligible_servers_without_distance_constraint() {
        let inst = chain_instance(None);
        let client = NodeId(3);
        let servers = inst.eligible_servers(client);
        assert_eq!(servers, vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn eligible_servers_with_distance_constraint() {
        // distances from client: itself 0, n2 4, n1 7, root 9
        let inst = chain_instance(Some(7));
        assert_eq!(inst.eligible_servers(NodeId(3)), vec![NodeId(3), NodeId(2), NodeId(1)]);
        let inst = chain_instance(Some(3));
        assert_eq!(inst.eligible_servers(NodeId(3)), vec![NodeId(3)]);
        let inst = chain_instance(Some(9));
        assert_eq!(inst.eligible_servers(NodeId(3)).len(), 4);
    }

    #[test]
    fn within_dmax_logic() {
        let inst = chain_instance(Some(5));
        assert!(inst.within_dmax(5));
        assert!(!inst.within_dmax(6));
        let inst = chain_instance(None);
        assert!(inst.within_dmax(u64::MAX));
    }

    #[test]
    fn volume_lower_bound() {
        let inst = chain_instance(None);
        assert_eq!(inst.request_volume_lower_bound(), 1);
        let mut b = TreeBuilder::new();
        let root = b.root();
        for _ in 0..5 {
            b.add_client(root, 1, 7);
        }
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        // 35 requests, capacity 10 → at least 4 replicas.
        assert_eq!(inst.request_volume_lower_bound(), 4);
    }

    #[test]
    fn clients_only_solution_is_valid_for_both_policies() {
        let inst = chain_instance(Some(1));
        let sol = inst.clients_only_solution().unwrap();
        assert!(validate(&inst, Policy::Single, &sol).is_ok());
        assert!(validate(&inst, Policy::Multiple, &sol).is_ok());
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn clients_only_solution_requires_local_fit() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 25);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert!(!inst.all_requests_fit_locally());
        assert!(inst.clients_only_solution().is_none());
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Single.to_string(), "Single");
        assert_eq!(Policy::Multiple.to_string(), "Multiple");
    }
}
