//! Property-based tests over randomly generated instances (proptest drives
//! the generator parameters and seeds; the instances themselves come from
//! `rp-instances`, exactly like in the experiments).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_placement::algorithms::{baselines, bounds};
use replica_placement::instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use replica_placement::instances::worst_case::{single_gen_tight, single_nod_tight};
use replica_placement::instances::{EdgeDist, RequestDist};
use replica_placement::prelude::*;
use replica_placement::tree::io;

fn binary_instance(clients: usize, dmax: Option<f64>, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 4 },
        &RequestDist::Uniform { lo: 1, hi: 12 },
        &mut rng,
    );
    wrap_instance(tree, 2.5, dmax)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm's output is feasible and respects the volume bound,
    /// on arbitrary binary instances with arbitrary distance constraints.
    #[test]
    fn algorithms_always_produce_feasible_solutions(
        clients in 2usize..40,
        seed in any::<u64>(),
        dmax_fraction in prop::option::of(0.05f64..1.0),
    ) {
        let inst = binary_instance(clients, dmax_fraction, seed);
        let lb = bounds::volume_lower_bound(&inst);

        let sol = single_gen(&inst).unwrap();
        let stats = validate(&inst, Policy::Single, &sol).unwrap();
        prop_assert!(stats.replica_count as u64 >= lb);

        let sol = multiple_bin(&inst).unwrap();
        let stats = validate(&inst, Policy::Multiple, &sol).unwrap();
        prop_assert!(stats.replica_count as u64 >= lb);

        let sol = baselines::multiple_greedy(&inst).unwrap();
        let stats = validate(&inst, Policy::Multiple, &sol).unwrap();
        prop_assert!(stats.replica_count as u64 >= lb);

        // single-nod ignores dmax; validate on the unconstrained twin.
        let nod_inst = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
        let sol = single_nod(&nod_inst).unwrap();
        validate(&nod_inst, Policy::Single, &sol).unwrap();
    }

    /// The Multiple policy never needs more replicas than the Single policy,
    /// and the lower bounds never exceed any feasible solution.
    #[test]
    fn policy_and_bound_ordering(
        clients in 2usize..32,
        seed in any::<u64>(),
        dmax_fraction in prop::option::of(0.05f64..1.0),
    ) {
        let inst = binary_instance(clients, dmax_fraction, seed);
        let multiple = multiple_bin(&inst).unwrap().replica_count() as u64;
        let single = single_gen(&inst).unwrap().replica_count() as u64;
        let trivial = baselines::clients_only(&inst).unwrap().replica_count() as u64;
        let lb = bounds::combined_lower_bound(&inst);
        prop_assert!(multiple <= single);
        prop_assert!(single <= trivial);
        prop_assert!(lb <= multiple);
    }

    /// Instances survive a round trip through the text format with identical
    /// structure and identical solver behaviour.
    #[test]
    fn text_format_roundtrip(
        clients in 2usize..30,
        arity in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_kary_tree(
            clients,
            arity,
            &EdgeDist::Uniform { lo: 1, hi: 5 },
            &RequestDist::Uniform { lo: 0, hi: 10 },
            &mut rng,
        );
        let inst = wrap_instance(tree, 3.0, Some(0.8));
        let parsed = io::parse_instance(&io::write_instance(&inst)).unwrap();
        prop_assert_eq!(parsed.tree().len(), inst.tree().len());
        prop_assert_eq!(parsed.capacity(), inst.capacity());
        prop_assert_eq!(parsed.dmax(), inst.dmax());
        for id in inst.tree().node_ids() {
            prop_assert_eq!(parsed.tree().parent(id), inst.tree().parent(id));
            prop_assert_eq!(parsed.tree().edge(id), inst.tree().edge(id));
            prop_assert_eq!(parsed.tree().requests(id), inst.tree().requests(id));
        }
        let a = single_gen(&inst).unwrap().replica_count();
        let b = single_gen(&parsed).unwrap().replica_count();
        prop_assert_eq!(a, b);
    }

    /// The worst-case families match their closed-form predictions for every
    /// parameter choice, not just the ones hard-coded in unit tests.
    #[test]
    fn tight_families_match_closed_forms(m in 1usize..10, delta in 2usize..6, k in 1usize..24) {
        let t = single_gen_tight(m, delta);
        let sol = single_gen(&t.instance).unwrap();
        prop_assert_eq!(sol.replica_count() as u64, (m as u64) * (delta as u64 + 1));
        let stats = validate(&t.instance, Policy::Single, &t.optimal_witness).unwrap();
        prop_assert_eq!(stats.replica_count as u64, m as u64 + 1);

        let t = single_nod_tight(k);
        let sol = single_nod(&t.instance).unwrap();
        prop_assert_eq!(sol.replica_count() as u64, 2 * k as u64);
    }

    /// Simulating a validated placement at nominal load never drops requests
    /// and never violates the distance bound.
    #[test]
    fn simulation_conserves_requests(clients in 2usize..24, seed in any::<u64>()) {
        let inst = binary_instance(clients, Some(0.7), seed);
        let sol = multiple_bin(&inst).unwrap();
        validate(&inst, Policy::Multiple, &sol).unwrap();
        let report = replica_placement::sim::simulate(&inst, &sol, &replica_placement::sim::SimConfig::new(20));
        prop_assert_eq!(report.dropped, 0);
        prop_assert_eq!(report.served, report.issued);
        prop_assert_eq!(report.qos_violations, 0);
    }
}
