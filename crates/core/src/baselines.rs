//! Baseline placement strategies.
//!
//! These are the comparison points used throughout the experiments:
//!
//! * [`clients_only`] — the trivial always-feasible solution that equips every
//!   client with its own replica (the paper notes in Section 3 that this is
//!   always valid when `r_i ≤ W`);
//! * [`multiple_greedy`] — a bottom-up greedy heuristic for the **Multiple**
//!   policy on trees of *arbitrary* arity, with or without distance
//!   constraints. It generalises the forced-placement rule of Algorithm 3 but
//!   resolves overload by falling back to local (client-side) replicas rather
//!   than by the `extra-server` re-arrangement, so it carries no optimality
//!   guarantee — it serves as the practical baseline the paper's future-work
//!   section alludes to for general trees.

use crate::error::SolveError;
use rp_tree::{Dist, Instance, NodeId, Requests, Solution};

/// Places a replica on every client with at least one request.
///
/// # Errors
///
/// Returns [`SolveError::ClientExceedsCapacity`] if some client issues more
/// than `W` requests (then even the trivial solution is infeasible).
pub fn clients_only(instance: &Instance) -> Result<Solution, SolveError> {
    let tree = instance.tree();
    for &c in tree.clients() {
        let r = tree.requests(c);
        if r > instance.capacity() {
            return Err(SolveError::ClientExceedsCapacity {
                client: c,
                requests: r,
                capacity: instance.capacity(),
            });
        }
    }
    Ok(instance.clients_only_solution().expect("all clients fit locally"))
}

/// Pending requests of one client bubbling up the tree (Multiple policy, so
/// fractions of a client may already have been served lower down).
#[derive(Debug, Clone, Copy)]
struct Pending {
    client: NodeId,
    amount: Requests,
    /// Distance already travelled from the client.
    travelled: Dist,
}

/// Greedy bottom-up heuristic for the Multiple policy on general trees.
///
/// At every node (post-order) the pending requests of the children are
/// merged; a replica is opened when some pending request cannot travel
/// further up without violating `dmax`, or when the pending volume exceeds
/// `W`. The replica absorbs the most constrained requests first (exactly as
/// Algorithm 3 does); any overflow that still cannot travel up is served by a
/// replica on its own client, which is always feasible when `r_i ≤ W`.
///
/// # Errors
///
/// Returns [`SolveError::ClientExceedsCapacity`] if some client issues more
/// than `W` requests.
pub fn multiple_greedy(instance: &Instance) -> Result<Solution, SolveError> {
    let tree = instance.tree();
    let w = instance.capacity();
    for &c in tree.clients() {
        let r = tree.requests(c);
        if r > w {
            return Err(SolveError::ClientExceedsCapacity { client: c, requests: r, capacity: w });
        }
    }
    let mut solution = Solution::new();
    let mut pending: Vec<Vec<Pending>> = vec![Vec::new(); tree.len()];

    for j in tree.postorder() {
        if tree.is_client(j) {
            let r = tree.requests(j);
            if r == 0 {
                continue;
            }
            // A client further than dmax from its own parent can only serve
            // itself (same rule as Algorithm 3's leaf case); otherwise its
            // requests start travelling up.
            let too_far = matches!(instance.dmax(), Some(dmax) if tree.edge(j) > dmax);
            if too_far {
                solution.assign(j, j, r);
            } else {
                pending[j.index()] = vec![Pending { client: j, amount: r, travelled: 0 }];
            }
            continue;
        }
        // Merge children, shifting travelled distances by the edges.
        let mut merged: Vec<Pending> = Vec::new();
        for c in tree.children(j) {
            let edge = tree.edge(c);
            merged.extend(pending[c.index()].drain(..).map(|p| Pending {
                client: p.client,
                amount: p.amount,
                travelled: p.travelled + edge,
            }));
        }
        // Most constrained first (largest travelled distance).
        merged.sort_by_key(|p| std::cmp::Reverse(p.travelled));
        let total: u128 = merged.iter().map(|p| p.amount as u128).sum();
        let is_root = j == tree.root();
        let blocked = |p: &Pending| -> bool {
            if is_root {
                return true;
            }
            match instance.dmax() {
                None => false,
                Some(dmax) => p.travelled.saturating_add(tree.edge(j)) > dmax,
            }
        };
        let must_place = !merged.is_empty() && (total > w as u128 || merged.iter().any(&blocked));
        if must_place {
            let mut absorbed: Requests = 0;
            let mut rest: Vec<Pending> = Vec::new();
            for p in merged {
                if absorbed == w {
                    rest.push(p);
                    continue;
                }
                let take = (w - absorbed).min(p.amount);
                solution.assign(p.client, j, take);
                absorbed += take;
                if take < p.amount {
                    rest.push(Pending { amount: p.amount - take, ..p });
                }
            }
            // Whatever still cannot travel up is served by its own client.
            let mut keep = Vec::new();
            for p in rest {
                if blocked(&p) {
                    solution.assign(p.client, p.client, p.amount);
                } else {
                    keep.push(p);
                }
            }
            pending[j.index()] = keep;
        } else {
            pending[j.index()] = merged;
        }
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_instances::random::{random_kary_tree, wrap_instance};
    use rp_instances::{EdgeDist, RequestDist};
    use rp_tree::{validate, Policy, TreeBuilder};

    #[test]
    fn clients_only_is_always_feasible_and_maximal() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 1, 3);
        b.add_client(n1, 1, 0);
        b.add_client(root, 1, 7);
        let inst = Instance::new(b.freeze().unwrap(), 8, Some(1)).unwrap();
        let sol = clients_only(&inst).unwrap();
        let stats = validate(&inst, Policy::Single, &sol).unwrap();
        assert_eq!(stats.replica_count, 2); // zero-request client gets none
        assert_eq!(stats.max_distance, 0);
    }

    #[test]
    fn clients_only_rejects_oversized_clients() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 20);
        let inst = Instance::new(b.freeze().unwrap(), 8, None).unwrap();
        assert!(matches!(
            clients_only(&inst).unwrap_err(),
            SolveError::ClientExceedsCapacity { requests: 20, .. }
        ));
    }

    #[test]
    fn greedy_handles_general_arity_with_distance_constraints() {
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..10 {
            let arity = 2 + (trial % 4);
            let tree = random_kary_tree(
                12,
                arity,
                &EdgeDist::Uniform { lo: 1, hi: 4 },
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 3.0, Some(0.6));
            let sol = multiple_greedy(&inst).expect("r_i ≤ W by construction");
            let stats = validate(&inst, Policy::Multiple, &sol)
                .expect("greedy solutions must always be feasible");
            // Never worse than one replica per client.
            assert!(stats.replica_count <= inst.tree().client_count());
            // Never better than the volume lower bound.
            assert!(stats.replica_count as u64 >= inst.request_volume_lower_bound());
        }
    }

    #[test]
    fn greedy_matches_optimal_on_easy_instances() {
        // A single internal level where everything fits in one server.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        for _ in 0..4 {
            b.add_client(n1, 1, 2);
        }
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let sol = multiple_greedy(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn greedy_agrees_with_multiple_bin_on_binary_trees_reasonably() {
        // The heuristic has no optimality guarantee, but on binary trees it
        // should stay within a small factor of the optimal algorithm.
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..8 {
            let tree = rp_instances::random::random_binary_tree(
                10,
                &EdgeDist::Constant(1),
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.5, Some(0.7));
            let greedy = {
                let sol = multiple_greedy(&inst).unwrap();
                validate(&inst, Policy::Multiple, &sol).unwrap().replica_count
            };
            let optimal = {
                let sol = crate::multiple_bin(&inst).unwrap();
                validate(&inst, Policy::Multiple, &sol).unwrap().replica_count
            };
            assert!(greedy >= optimal);
            assert!(greedy <= 3 * optimal.max(1));
        }
    }

    #[test]
    fn greedy_rejects_oversized_clients() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 50);
        let inst = Instance::new(b.freeze().unwrap(), 8, None).unwrap();
        assert!(multiple_greedy(&inst).is_err());
    }
}
