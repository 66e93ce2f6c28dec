//! Property-based tests of the placement algorithms: feasibility on arbitrary
//! instances, the approximation guarantees against the exact optimum on tiny
//! instances, and the optimality of `multiple-bin` on Multiple-NoD-Bin.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::{baselines, bounds, multiple_bin, single_gen, single_nod};
use rp_instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::{validate, Instance, Policy};

fn kary_instance(clients: usize, arity: usize, dmax: Option<f64>, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_kary_tree(
        clients,
        arity,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    wrap_instance(tree, 2.0, dmax)
}

fn binary_instance(clients: usize, dmax: Option<f64>, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    wrap_instance(tree, 2.0, dmax)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Feasibility of every algorithm on general-arity instances with and
    /// without distance constraints.
    #[test]
    fn feasible_on_general_trees(
        clients in 2usize..30,
        arity in 2usize..5,
        seed in any::<u64>(),
        dmax_fraction in prop::option::of(0.05f64..1.0),
    ) {
        let inst = kary_instance(clients, arity, dmax_fraction, seed);
        let sol = single_gen(&inst).unwrap();
        validate(&inst, Policy::Single, &sol).unwrap();
        let sol = baselines::multiple_greedy(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        let nod = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
        let sol = single_nod(&nod).unwrap();
        validate(&nod, Policy::Single, &sol).unwrap();
    }

    /// Theorem 6 restricted to Multiple-NoD-Bin: without distance
    /// constraints, `multiple-bin` exactly matches the exact optimum.
    #[test]
    fn multiple_bin_optimal_without_distance(clients in 2usize..8, seed in any::<u64>()) {
        let inst = binary_instance(clients, None, seed);
        let algo = multiple_bin(&inst).unwrap();
        let stats = validate(&inst, Policy::Multiple, &algo).unwrap();
        let opt = rp_exact::optimal_replica_count(&inst, Policy::Multiple).unwrap();
        prop_assert_eq!(stats.replica_count as u64, opt);
    }

    /// Theorems 3 and 4 against the exact optimum on tiny instances.
    #[test]
    fn approximation_ratios_hold(clients in 2usize..7, arity in 2usize..4, seed in any::<u64>()) {
        let inst = kary_instance(clients, arity, Some(0.7), seed);
        let delta = inst.tree().arity() as u64;
        let opt = rp_exact::optimal_replica_count(&inst, Policy::Single).unwrap();
        let gen = single_gen(&inst).unwrap().replica_count() as u64;
        prop_assert!(gen <= (delta + 1) * opt);

        let nod_inst = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
        let nod_opt = rp_exact::optimal_replica_count(&nod_inst, Policy::Single).unwrap();
        let nod = single_nod(&nod_inst).unwrap().replica_count() as u64;
        prop_assert!(nod <= 2 * nod_opt);
    }

    /// Lower bounds never exceed what any algorithm achieves.
    #[test]
    fn lower_bounds_are_sound(
        clients in 2usize..28,
        seed in any::<u64>(),
        dmax_fraction in prop::option::of(0.05f64..1.0),
    ) {
        let inst = binary_instance(clients, dmax_fraction, seed);
        let lb = bounds::combined_lower_bound(&inst);
        let algo = multiple_bin(&inst).unwrap().replica_count() as u64;
        prop_assert!(lb <= algo, "lower bound {lb} exceeds an achievable count {algo}");
    }

    /// The solutions of the two Single-policy algorithms always serve every
    /// client with exactly one server (the defining property of the policy).
    #[test]
    fn single_policy_uses_one_server_per_client(clients in 2usize..25, seed in any::<u64>()) {
        let inst = binary_instance(clients, Some(0.8), seed);
        for sol in [single_gen(&inst).unwrap(), {
            let nod = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
            single_nod(&nod).unwrap()
        }] {
            for &client in inst.tree().clients() {
                if inst.tree().requests(client) > 0 {
                    prop_assert_eq!(sol.servers_of(client).len(), 1);
                }
            }
        }
    }
}
