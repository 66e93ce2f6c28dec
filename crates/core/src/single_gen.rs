//! Algorithm 1 of the paper: `single-gen`, a (Δ+1)-approximation for the
//! Single policy with distance constraints (Δ-approximation without them).
//!
//! The algorithm is a single bottom-up sweep. Each call on a node `j`
//! returns the requests of `subtree(j)` that still have to be processed at
//! `j` or above, together with the remaining distance allowance of the most
//! constrained of them. Replicas are placed greedily in three situations
//! (following the paper's step numbering):
//!
//! 1. the pending requests of a child cannot travel over the edge to `j`
//!    without violating `dmax` → a replica is placed **on that child**;
//! 2. the pending requests of all children together exceed `W` → a replica
//!    is placed on **every child that still has pending requests**, so that
//!    nothing is forwarded to `j`;
//! 3. at the root, any remaining requests are absorbed by a replica on the
//!    root itself.
//!
//! Because the paper's pseudo-code only tracks request *counts*, this
//! implementation additionally carries the identity of the pending clients so
//! that a complete, checkable [`Solution`] is produced. A whole client's
//! requests always travel together, so the result honours the Single policy.

use crate::error::SolveError;
use crate::scratch::SolverScratch;
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Dist, Instance, NodeId, Requests, Solution};

/// Runs Algorithm 1 (`single-gen`) and returns its placement and assignment.
///
/// One-shot wrapper around [`single_gen_with`]; callers solving many
/// instances should hold a [`SolverScratch`] and use that entry point.
///
/// # Errors
///
/// Returns [`SolveError::ClientExceedsCapacity`] if some client issues more
/// than `W` requests — the Single problem has no solution in that case.
pub fn single_gen(instance: &Instance) -> Result<Solution, SolveError> {
    let mut scratch = SolverScratch::new();
    single_gen_with(instance, &mut scratch)
}

/// [`single_gen`] with caller-provided scratch state.
///
/// The sweep runs iteratively over the [`rp_tree::TreeArena`] post-order
/// (no recursion, so arbitrarily deep chains are safe), keeping each node's
/// pending set in dense per-node rows that are reused across solves.
///
/// # Errors
///
/// Same as [`single_gen`].
pub fn single_gen_with(
    instance: &Instance,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveError> {
    scratch.load_arena(instance.tree());
    single_gen_arena(scratch, instance.capacity(), instance.dmax())
}

/// [`single_gen`] on the arena already loaded into `scratch` (via
/// [`SolverScratch::load_arena`] or
/// [`SolverScratch::load_arena_from_stream`]) — the entry point of the
/// streaming scaling tier, where no [`rp_tree::Tree`] ever exists.
///
/// # Errors
///
/// Same as [`single_gen`].
pub fn single_gen_arena(
    scratch: &mut SolverScratch,
    w: Requests,
    dmax: Option<Dist>,
) -> Result<Solution, SolveError> {
    crate::scratch::check_clients_fit(scratch.arena(), w)?;
    scratch.prepare_single_gen();
    let mut solution = Solution::new();
    let SolverScratch { arena, sg_clients, sg_total, sg_allow, .. } = scratch;
    sweep_single_gen(arena, w, dmax, sg_clients, sg_total, sg_allow, &mut solution);
    Ok(solution)
}

/// One bottom-up sweep of Algorithm 1 over the arena's post-order
/// (children always before parents).
///
/// Each node's slot (`sg_clients` — the pending client fragments,
/// `sg_total`, `sg_allow` — the remaining distance allowance of the most
/// constrained of them), indexed by node id, plays the role of the
/// recursive implementation's return value.
fn sweep_single_gen(
    arena: &TreeArena,
    w: Requests,
    dmax: Option<Dist>,
    sg_clients: &mut [Vec<(u32, Requests)>],
    sg_total: &mut [u128],
    sg_allow: &mut [Option<Dist>],
    solution: &mut Solution,
) {
    for &j in arena.postorder() {
        let ji = j as usize;
        if arena.is_client(j) {
            let r = arena.requests(j);
            if r > 0 {
                sg_clients[ji].push((j, r));
                sg_total[ji] = r as u128;
            }
            sg_allow[ji] = dmax;
            continue;
        }

        let mut total: u128 = 0;
        for &c in arena.children(j) {
            let ci = c as usize;
            let edge = arena.edge(c);
            // Step 1: if the child's pending requests cannot travel over the
            // edge to `j`, place a replica on the child.
            let blocked = match sg_allow[ci] {
                Some(allow) => edge > allow && sg_total[ci] > 0,
                None => false,
            };
            if blocked {
                for &(client, requests) in &sg_clients[ci] {
                    solution.assign(NodeId(client), NodeId(c), requests);
                }
                sg_clients[ci].clear();
                sg_total[ci] = 0;
                sg_allow[ci] = dmax;
            } else if let Some(allow) = sg_allow[ci] {
                sg_allow[ci] = Some(allow.saturating_sub(edge));
            }
            total += sg_total[ci];
        }

        if total > w as u128 {
            // Step 2: too many pending requests; close every child that
            // still has pending requests so that nothing reaches `j`.
            for &c in arena.children(j) {
                let ci = c as usize;
                if sg_total[ci] > 0 {
                    for &(client, requests) in &sg_clients[ci] {
                        solution.assign(NodeId(client), NodeId(c), requests);
                    }
                    sg_clients[ci].clear();
                    sg_total[ci] = 0;
                }
                sg_allow[ci] = dmax;
            }
            sg_total[ji] = 0;
            sg_allow[ji] = dmax;
            continue;
        }

        // Step 3: the pending requests fit within one server; merge them.
        let mut allowance = None;
        for &c in arena.children(j) {
            if let Some(a) = sg_allow[c as usize] {
                allowance = Some(allowance.map_or(a, |m: u64| m.min(a)));
            }
        }
        let allowance = allowance.or(dmax).filter(|_| dmax.is_some());
        let mut merged = std::mem::take(&mut sg_clients[ji]);
        debug_assert!(merged.is_empty());
        for &c in arena.children(j) {
            merged.append(&mut sg_clients[c as usize]);
        }
        if arena.parent(j) == NO_PARENT {
            // Step 3a: the root absorbs whatever remains.
            for &(client, requests) in &merged {
                solution.assign(NodeId(client), NodeId(j), requests);
            }
            merged.clear();
            total = 0;
        }
        // Step 3b (non-root): forward to the parent via the node's slot.
        sg_clients[ji] = merged;
        sg_total[ji] = total;
        sg_allow[ji] = allowance;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_instances::worst_case::single_gen_tight;
    use rp_tree::{validate, Policy, TreeBuilder};

    fn count(instance: &Instance) -> usize {
        let sol = single_gen(instance).expect("feasible");
        let stats = validate(instance, Policy::Single, &sol).expect("single-gen must be feasible");
        stats.replica_count
    }

    #[test]
    fn single_client_served_at_root_without_constraints() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 1, 5);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let sol = single_gen(&inst).unwrap();
        assert!(sol.is_replica(rp_tree::NodeId(0)));
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn capacity_overflow_splits_children() {
        // Three clients of 6 under one internal node, W = 10: their sum (18)
        // exceeds W, so step 2 places a replica on each client.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        for _ in 0..3 {
            b.add_client(n1, 1, 6);
        }
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        assert_eq!(count(&inst), 3);
    }

    #[test]
    fn distance_constraint_places_replica_on_child() {
        // The client sits 6 away from its parent but dmax = 5.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        let c = b.add_client(n1, 6, 4);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(5)).unwrap();
        let sol = single_gen(&inst).unwrap();
        validate(&inst, Policy::Single, &sol).unwrap();
        assert!(sol.is_replica(c));
        assert_eq!(sol.replica_count(), 1);
    }

    #[test]
    fn distance_allowance_accumulates_along_path() {
        // Chain with total distance 6 from the client to the root, dmax = 5:
        // the requests must stop strictly below the root.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 3);
        let n2 = b.add_internal(n1, 2);
        b.add_client(n2, 1, 4);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(5)).unwrap();
        let sol = single_gen(&inst).unwrap();
        let stats = validate(&inst, Policy::Single, &sol).unwrap();
        assert_eq!(stats.replica_count, 1);
        assert!(stats.max_distance <= 5);
        // The replica must be n1 or below (distance from client to root is 6).
        assert!(!sol.is_replica(root));
    }

    #[test]
    fn zero_request_clients_add_no_replicas() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 1, 0);
        b.add_client(n1, 1, 3);
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(10)).unwrap();
        assert_eq!(count(&inst), 1);
    }

    #[test]
    fn rejects_clients_larger_than_capacity() {
        // Two oversized clients: both entry points report the lower id.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c = b.add_client(root, 1, 15);
        b.add_client(root, 1, 12);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let refused = SolveError::ClientExceedsCapacity { client: c, requests: 15, capacity: 10 };
        assert_eq!(single_gen(&inst).unwrap_err(), refused);
        let mut scratch = SolverScratch::new();
        scratch.load_arena(inst.tree());
        assert_eq!(single_gen_arena(&mut scratch, 10, None).unwrap_err(), refused);
    }

    #[test]
    fn empty_tree_needs_no_replicas() {
        let inst = Instance::new(TreeBuilder::new().freeze().unwrap(), 5, None).unwrap();
        assert_eq!(count(&inst), 0);
    }

    #[test]
    fn fig3_instance_reaches_the_predicted_count() {
        // Theorem 3 tightness: on `Im` the algorithm places exactly m(Δ+1)
        // replicas (the paper's trace, Section 3.3).
        for (m, delta) in [(1usize, 2usize), (2, 2), (3, 2), (2, 3), (2, 4), (3, 5)] {
            let tight = single_gen_tight(m, delta);
            let sol = single_gen(&tight.instance).expect("feasible");
            let stats = validate(&tight.instance, Policy::Single, &sol).expect("feasible");
            assert_eq!(
                stats.replica_count as u64, tight.predicted_algorithm_replicas,
                "m={m} delta={delta}"
            );
        }
    }

    #[test]
    fn never_worse_than_delta_plus_one_times_optimal_on_small_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rp_instances::random::{random_kary_tree, wrap_instance};
        use rp_instances::{EdgeDist, RequestDist};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..12 {
            let arity = 2 + (trial % 3);
            let tree = random_kary_tree(
                7,
                arity,
                &EdgeDist::Uniform { lo: 1, hi: 3 },
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let delta = tree.arity() as u64;
            let inst = wrap_instance(tree, 2.0, Some(0.75));
            let algo = count(&inst) as u64;
            let opt = rp_exact::optimal_replica_count(&inst, Policy::Single)
                .expect("instance is feasible by construction");
            assert!(
                algo <= (delta + 1) * opt,
                "trial {trial}: algo {algo} > (Δ+1)·opt = {}",
                (delta + 1) * opt
            );
        }
    }

    #[test]
    fn without_distance_constraints_never_worse_than_delta_times_optimal() {
        // Corollary 1: Δ-approximation for Single-NoD.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rp_instances::random::{random_kary_tree, wrap_instance};
        use rp_instances::{EdgeDist, RequestDist};
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..12 {
            let tree = random_kary_tree(
                7,
                3,
                &EdgeDist::Constant(1),
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let delta = tree.arity() as u64;
            let inst = wrap_instance(tree, 2.5, None);
            let algo = count(&inst) as u64;
            let opt = rp_exact::optimal_replica_count(&inst, Policy::Single).expect("feasible");
            assert!(algo <= delta * opt, "trial {trial}: algo {algo} > Δ·opt = {}", delta * opt);
        }
    }
}
