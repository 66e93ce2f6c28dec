//! Cross-crate integration tests: generators → algorithms → validator →
//! exact solvers → text format → simulator, exercised together through the
//! facade crate exactly the way a downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_placement::algorithms::{baselines, bounds, Algorithm};
use replica_placement::instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use replica_placement::instances::worst_case::{single_gen_tight, single_nod_tight};
use replica_placement::instances::{EdgeDist, RequestDist};
use replica_placement::prelude::*;
use replica_placement::sim::{simulate, SimConfig};
use replica_placement::tree::io;

fn binary_instance(clients: usize, dmax: Option<f64>, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    wrap_instance(tree, 2.5, dmax)
}

#[test]
fn every_algorithm_produces_feasible_solutions_on_random_instances() {
    for seed in 0..6u64 {
        let inst = binary_instance(20, Some(0.7), seed);
        for algorithm in Algorithm::all() {
            let solution = replica_placement::algorithms::solve(&inst, algorithm)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algorithm.name()));
            // single-nod ignores the distance constraint, so validate it on
            // the unconstrained twin of the instance.
            let check_inst = if algorithm == Algorithm::SingleNod {
                Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap()
            } else {
                inst.clone()
            };
            let stats = validate(&check_inst, algorithm.policy(), &solution).unwrap_or_else(|e| {
                panic!("{} produced an invalid solution: {e}", algorithm.name())
            });
            assert!(stats.replica_count >= 1);
            assert!(
                stats.replica_count as u64 >= bounds::volume_lower_bound(&check_inst),
                "{} beat the volume lower bound",
                algorithm.name()
            );
        }
    }
}

#[test]
fn policy_hierarchy_multiple_beats_single_beats_trivial() {
    for seed in 0..6u64 {
        let inst = binary_instance(24, Some(0.8), seed + 100);
        let multiple = multiple_bin(&inst).unwrap().replica_count();
        let greedy = baselines::multiple_greedy(&inst).unwrap().replica_count();
        let single = single_gen(&inst).unwrap().replica_count();
        let trivial = baselines::clients_only(&inst).unwrap().replica_count();
        assert!(multiple <= greedy, "seed {seed}: multiple-bin {multiple} > greedy {greedy}");
        assert!(multiple <= single, "seed {seed}: multiple-bin {multiple} > single-gen {single}");
        assert!(single <= trivial, "seed {seed}: single-gen {single} > clients-only {trivial}");
    }
}

#[test]
fn approximation_guarantees_hold_against_exact_on_small_instances() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed + 500);
        let tree = random_kary_tree(
            7,
            3,
            &EdgeDist::Uniform { lo: 1, hi: 2 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let delta = tree.arity();
        let inst = wrap_instance(tree, 2.0, Some(0.7));
        let opt = replica_placement::exact::optimal_replica_count(&inst, Policy::Single).unwrap();

        let gen = single_gen(&inst).unwrap().replica_count() as u64;
        assert!(gen <= (delta as u64 + 1) * opt, "Theorem 3 violated: {gen} > (Δ+1)·{opt}");

        let nod_inst = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
        let nod = single_nod(&nod_inst).unwrap().replica_count() as u64;
        let nod_opt =
            replica_placement::exact::optimal_replica_count(&nod_inst, Policy::Single).unwrap();
        assert!(nod <= 2 * nod_opt, "Theorem 4 violated: {nod} > 2·{nod_opt}");
    }
}

#[test]
fn worst_case_families_reach_their_predicted_counts() {
    let t = single_gen_tight(4, 3);
    let sol = single_gen(&t.instance).unwrap();
    assert_eq!(sol.replica_count() as u64, t.predicted_algorithm_replicas);
    assert_eq!(
        validate(&t.instance, Policy::Single, &t.optimal_witness).unwrap().replica_count as u64,
        t.optimal_replicas
    );

    let t = single_nod_tight(6);
    let sol = single_nod(&t.instance).unwrap();
    assert_eq!(sol.replica_count() as u64, t.predicted_algorithm_replicas);
}

#[test]
fn text_format_roundtrip_preserves_solver_results() {
    let inst = binary_instance(16, Some(0.6), 7);
    let text = io::write_instance(&inst);
    let parsed = io::parse_instance(&text).expect("roundtrip parse");
    let original = multiple_bin(&inst).unwrap();
    let reparsed = multiple_bin(&parsed).unwrap();
    assert_eq!(original.replica_count(), reparsed.replica_count());

    let sol_text = io::write_solution(&original);
    let sol = io::parse_solution(&sol_text).expect("solution parse");
    assert!(validate(&parsed, Policy::Multiple, &sol).is_ok());
    assert_eq!(sol.replica_count(), original.replica_count(), "idle replicas survive the format");
}

#[test]
fn planned_placements_survive_simulation_at_nominal_load() {
    for seed in 0..3u64 {
        let inst = binary_instance(32, Some(0.7), seed + 900);
        for solution in [multiple_bin(&inst).unwrap(), single_gen(&inst).unwrap()] {
            let report = simulate(&inst, &solution, &SimConfig::new(50));
            assert_eq!(report.dropped, 0, "a feasible placement must serve nominal load");
            assert_eq!(report.qos_violations, 0);
            assert!((report.availability() - 1.0).abs() < 1e-12);
            assert!(report.max_latency <= inst.dmax().unwrap());
        }
    }
}

#[test]
fn exact_solvers_agree_with_algorithm_ordering() {
    for seed in 0..4u64 {
        let inst = binary_instance(8, Some(0.8), seed + 42);
        let opt_single =
            replica_placement::exact::optimal_replica_count(&inst, Policy::Single).unwrap();
        let opt_multiple =
            replica_placement::exact::optimal_replica_count(&inst, Policy::Multiple).unwrap();
        assert!(opt_multiple <= opt_single);
        assert!(opt_multiple >= bounds::volume_lower_bound(&inst));
        let algo = multiple_bin(&inst).unwrap().replica_count() as u64;
        assert!(algo >= opt_multiple);
        assert!(algo <= opt_multiple + 1, "multiple-bin stays within one replica of the optimum");
    }
}
