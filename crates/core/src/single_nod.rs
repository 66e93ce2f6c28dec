//! Algorithm 2 of the paper: `single-nod`, a 2-approximation for the Single
//! policy **without** distance constraints (Single-NoD).
//!
//! Like `single-gen`, the algorithm sweeps the tree bottom-up, but instead of
//! closing *every* child when the pending requests exceed `W`, it packs
//! greedily: the current node takes the smallest pending groups until the
//! capacity would be exceeded, the first group that does not fit gets its own
//! replica (on the node the group is attached to), and the remaining groups
//! are re-attached to the parent so they can still be merged higher up. This
//! re-parenting is what brings the ratio down from Δ to 2 (Theorem 4).
//!
//! A *group* is the set of pending clients that were aggregated at some node
//! below; placing a replica for a group on its node is always feasible
//! because the node is an ancestor of every client in the group, and under
//! Single-NoD there is no distance constraint to violate.
//!
//! Any distance constraint carried by the instance is ignored (the paper
//! only defines and analyses this algorithm for Single-NoD); callers that
//! need distance constraints must use [`fn@crate::single_gen`].

use crate::error::SolveError;
use crate::scratch::{Group, SolverScratch};
use rp_tree::arena::{TreeArena, NO_PARENT};
use rp_tree::{Instance, NodeId, Requests, Solution};

/// Runs Algorithm 2 (`single-nod`) and returns its placement and assignment.
///
/// The instance's `dmax`, if any, is ignored — this is the Single-NoD
/// algorithm. Solutions therefore validate under `Policy::Single` against the
/// *unconstrained* version of the instance (and against the original instance
/// whenever the chosen servers happen to be close enough).
///
/// One-shot wrapper around [`single_nod_with`]; callers solving many
/// instances should hold a [`SolverScratch`] and use that entry point.
///
/// # Errors
///
/// Returns [`SolveError::ClientExceedsCapacity`] if some client issues more
/// than `W` requests.
pub fn single_nod(instance: &Instance) -> Result<Solution, SolveError> {
    let mut scratch = SolverScratch::new();
    single_nod_with(instance, &mut scratch)
}

/// Places a replica at `server` serving every client of `group`.
fn place(solution: &mut Solution, server: u32, group: Group) {
    for (client, requests) in group.clients {
        solution.assign(NodeId(client), NodeId(server), requests);
    }
}

/// [`single_nod`] with caller-provided scratch state.
///
/// The sweep runs iteratively over the [`rp_tree::TreeArena`] post-order
/// (no recursion, so arbitrarily deep chains are safe). Each node's slot
/// holds the groups the node forwards to its parent — either a single
/// aggregated group rooted at the node (paper's case 2a) or the groups left
/// over after packing there (paper's case 1a, the re-parenting step).
///
/// # Errors
///
/// Same as [`single_nod`].
pub fn single_nod_with(
    instance: &Instance,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveError> {
    scratch.load_arena(instance.tree());
    single_nod_arena(scratch, instance.capacity())
}

/// [`single_nod`] on the arena already loaded into `scratch` (via
/// [`SolverScratch::load_arena`] or
/// [`SolverScratch::load_arena_from_stream`]) — the entry point of the
/// streaming scaling tier, where no [`rp_tree::Tree`] ever exists.
///
/// # Errors
///
/// Same as [`single_nod`].
pub fn single_nod_arena(scratch: &mut SolverScratch, w: Requests) -> Result<Solution, SolveError> {
    crate::scratch::check_clients_fit(scratch.arena(), w)?;
    scratch.prepare_single_nod();
    let mut solution = Solution::new();
    let SolverScratch { arena, sn_groups, .. } = scratch;
    sweep_single_nod(arena, w, sn_groups, &mut solution);
    Ok(solution)
}

/// One bottom-up sweep of Algorithm 2 over the arena's post-order
/// (children always before parents). Each node's slot, indexed by node id,
/// holds the groups the node forwards to its parent — either a single
/// aggregated group rooted at the node (paper's case 2a) or the groups left
/// over after packing there (paper's case 1a, the re-parenting step).
fn sweep_single_nod(
    arena: &TreeArena,
    w: Requests,
    sn_groups: &mut [Vec<Group>],
    solution: &mut Solution,
) {
    for &j in arena.postorder() {
        let ji = j as usize;
        if arena.is_client(j) {
            let r = arena.requests(j);
            if r > 0 {
                sn_groups[ji].push(Group { node: j, total: r, clients: vec![(j, r)] });
            }
            continue;
        }

        // Collect the pending groups of all children (this is the list L_j /
        // updated child set C_j of the paper).
        let mut groups = std::mem::take(&mut sn_groups[ji]);
        debug_assert!(groups.is_empty());
        for &c in arena.children(j) {
            groups.append(&mut sn_groups[c as usize]);
        }
        let total: u128 = groups.iter().map(|g| g.total as u128).sum();
        let is_root = arena.parent(j) == NO_PARENT;

        if total > w as u128 {
            // Case 1: too much for one server. Sort by non-decreasing size;
            // `j` takes the smallest groups while they fit, the first group
            // that does not fit gets a replica on its own node, the rest
            // bubbles up.
            groups.sort_by_key(|g| g.total);
            let mut absorbed: Requests = 0;
            let mut overflow_handled = false;
            let mut leftovers: Vec<Group> = Vec::new();
            for group in groups.drain(..) {
                if !overflow_handled {
                    // `checked_add`: both terms are ≤ W, but their sum can
                    // still overflow u64 when W > u64::MAX / 2.
                    if absorbed.checked_add(group.total).is_some_and(|sum| sum <= w) {
                        absorbed += group.total;
                        place(solution, j, group);
                        continue;
                    }
                    // First group that does not fit: replica on its own node.
                    overflow_handled = true;
                    place(solution, group.node, group);
                    continue;
                }
                if is_root {
                    // Case 1b: no parent to re-attach to; each leftover
                    // group gets a replica on its own node.
                    place(solution, group.node, group);
                } else {
                    // Case 1a: re-parent the leftover groups.
                    leftovers.push(group);
                }
            }
            groups.extend(leftovers);
            sn_groups[ji] = groups;
        } else if is_root {
            // Case 2b: the root serves whatever is left.
            for group in groups.drain(..) {
                place(solution, j, group);
            }
            sn_groups[ji] = groups;
        } else if total == 0 {
            sn_groups[ji] = groups;
        } else {
            // Case 2a: aggregate into a single group rooted at `j`.
            let mut clients: Vec<(u32, Requests)> = Vec::new();
            for group in groups.drain(..) {
                clients.extend(group.clients);
            }
            groups.push(Group { node: j, total: total as Requests, clients });
            sn_groups[ji] = groups;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_instances::worst_case::single_nod_tight;
    use rp_tree::{validate, Policy, TreeBuilder};

    /// Validates against the distance-free version of the instance (the
    /// algorithm is only defined for Single-NoD).
    fn count(instance: &Instance) -> usize {
        let unconstrained =
            Instance::new(instance.tree().clone(), instance.capacity(), None).unwrap();
        let sol = single_nod(instance).expect("feasible");
        let stats =
            validate(&unconstrained, Policy::Single, &sol).expect("single-nod must be feasible");
        stats.replica_count
    }

    #[test]
    fn single_client_served_at_root() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        b.add_client(n1, 1, 5);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        let sol = single_nod(&inst).unwrap();
        assert_eq!(sol.replica_count(), 1);
        assert!(sol.is_replica(root));
    }

    #[test]
    fn greedy_packing_prefers_small_groups() {
        // Clients 2, 3, 6 under one internal node, W = 6: the internal node
        // absorbs 2 + 3, the 6-client gets its own replica → 2 replicas, which
        // is optimal.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 1);
        let c2 = b.add_client(n1, 1, 2);
        let c3 = b.add_client(n1, 1, 3);
        let c6 = b.add_client(n1, 1, 6);
        let inst = Instance::new(b.freeze().unwrap(), 6, None).unwrap();
        let sol = single_nod(&inst).unwrap();
        validate(&inst, Policy::Single, &sol).unwrap();
        assert_eq!(sol.replica_count(), 2);
        assert_eq!(sol.servers_of(c2), vec![n1]);
        assert_eq!(sol.servers_of(c3), vec![n1]);
        assert_eq!(sol.servers_of(c6), vec![c6]);
    }

    #[test]
    fn leftovers_are_reparented_and_merged_higher() {
        // Two subtrees each with pending leftovers that fit together at the
        // root: re-parenting should merge them instead of opening replicas.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let left = b.add_internal(root, 1);
        b.add_client(left, 1, 7);
        b.add_client(left, 1, 7);
        b.add_client(left, 1, 2);
        let right = b.add_internal(root, 1);
        b.add_client(right, 1, 3);
        let inst = Instance::new(b.freeze().unwrap(), 10, None).unwrap();
        // At `left`: total 16 > 10 → absorbs 2 + 7, replica for the second 7
        // on its own client; nothing left over. At the root: 3 remaining.
        let sol = single_nod(&inst).unwrap();
        let stats = validate(&inst, Policy::Single, &sol).unwrap();
        assert_eq!(stats.replica_count, 3);
    }

    #[test]
    fn root_with_zero_requests_places_no_replica() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, 0);
        let inst = Instance::new(b.freeze().unwrap(), 4, None).unwrap();
        assert_eq!(count(&inst), 0);
    }

    #[test]
    fn rejects_clients_larger_than_capacity() {
        // Two oversized clients: both entry points report the lower id.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c = b.add_client(root, 1, 9);
        b.add_client(root, 1, 7);
        let inst = Instance::new(b.freeze().unwrap(), 5, None).unwrap();
        let refused = SolveError::ClientExceedsCapacity { client: c, requests: 9, capacity: 5 };
        assert_eq!(single_nod(&inst).unwrap_err(), refused);
        let mut scratch = SolverScratch::new();
        scratch.load_arena(inst.tree());
        assert_eq!(single_nod_arena(&mut scratch, 5).unwrap_err(), refused);
    }

    #[test]
    fn fig4_instance_reaches_the_predicted_count() {
        // Theorem 4 tightness: 2K replicas on the Fig. 4 family.
        for k in [1usize, 2, 3, 8, 16] {
            let tight = single_nod_tight(k);
            let sol = single_nod(&tight.instance).expect("feasible");
            let stats = validate(&tight.instance, Policy::Single, &sol).expect("feasible");
            assert_eq!(stats.replica_count as u64, tight.predicted_algorithm_replicas, "k={k}");
        }
    }

    #[test]
    fn never_worse_than_twice_optimal_on_small_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rp_instances::random::{random_kary_tree, wrap_instance};
        use rp_instances::{EdgeDist, RequestDist};
        let mut rng = StdRng::seed_from_u64(404);
        for trial in 0..15 {
            let arity = 2 + (trial % 3);
            let tree = random_kary_tree(
                7,
                arity,
                &EdgeDist::Constant(1),
                &RequestDist::Uniform { lo: 1, hi: 9 },
                &mut rng,
            );
            let inst = wrap_instance(tree, 2.0, None);
            let algo = count(&inst) as u64;
            let opt = rp_exact::optimal_replica_count(&inst, Policy::Single).expect("feasible");
            assert!(algo <= 2 * opt, "trial {trial}: algo {algo} > 2·opt = {}", 2 * opt);
        }
    }

    #[test]
    fn beats_single_gen_on_the_fig4_family() {
        // On the Fig. 4 instances single-gen also produces a feasible answer;
        // single-nod should never be worse there (both give 2K, but this
        // checks the two algorithms agree on feasibility and ordering).
        for k in [2usize, 4, 8] {
            let tight = single_nod_tight(k);
            let nod = single_nod(&tight.instance).unwrap().replica_count();
            let gen = crate::single_gen(&tight.instance).unwrap().replica_count();
            assert!(nod <= gen, "k={k}: single-nod {nod} worse than single-gen {gen}");
        }
    }
}
