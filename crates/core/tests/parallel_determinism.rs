//! Serial-vs-parallel determinism: the frontier-parallel `multiple-bin`
//! driver of `rp_core::par` must produce **bit-identical** results to the
//! serial sweep — same [`rp_tree::Solution`] and the same
//! [`rp_core::StageStats`] — for every thread count, including thread
//! counts far above the machine's core count. This is the pinned contract
//! of the million-client scaling tier: parallelism must never change a
//! reported replica count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::{
    multiple_bin_par, multiple_bin_with, single_gen_arena, single_gen_with, single_nod_arena,
    single_nod_with, SolverScratch,
};
use rp_instances::families::caterpillar;
use rp_instances::random::{random_binary_tree, wrap_instance};
use rp_instances::{
    binary_tree_len, instance_params_from_arena, stream_binary_tree, EdgeDist, RequestDist,
};
use rp_tree::{validate, Instance, Policy, TreeBuilder};

const THREAD_COUNTS: [usize; 3] = [1, 4, 16];

/// Runs `multiple-bin` serially and through the parallel driver at every
/// thread count, asserting exact solution and stats equality. `instance`
/// must be binary with `r_i ≤ W`.
fn assert_parallel_matches_serial(instance: &Instance, label: &str) {
    let w = instance.capacity();
    let dmax = instance.dmax();
    let mut serial = SolverScratch::new();
    let mb = multiple_bin_with(instance, &mut serial).expect("multiple-bin feasible");
    let mb_stats = *serial.stage_stats();

    let mut par = SolverScratch::new();
    par.load_arena(instance.tree());
    for threads in THREAD_COUNTS {
        let got = multiple_bin_par(&mut par, w, dmax, threads).expect("multiple-bin par feasible");
        assert_eq!(got, mb, "{label}: multiple-bin diverged at {threads} threads");
        assert_eq!(
            *par.stage_stats(),
            mb_stats,
            "{label}: multiple-bin stage counters diverged at {threads} threads"
        );
    }
}

#[test]
fn chain_of_65537_nodes_matches_across_thread_counts() {
    // A deep caterpillar (spine of 32768 internal nodes, one client each):
    // the degenerate shape where the frontier builder can only produce dust
    // chunks and must fall back to the serial sweep — pinned here at the
    // 65536-node scale the ISSUE requires, with a dmax small enough that
    // multiple-bin runs thousands of (tiny) stages along the spine.
    let requests: Vec<u64> = (0..32768u64).map(|i| i % 7 + 1).collect();
    let tree = caterpillar(&requests, 1, 1);
    assert!(tree.len() >= 65536, "tree has {} nodes", tree.len());
    let inst = wrap_instance(tree, 3.0, Some(0.001));
    assert!(inst.all_requests_fit_locally());
    assert_parallel_matches_serial(&inst, "caterpillar-65537");
}

#[test]
fn random_binary_parallel_matches_serial() {
    // Big enough that the frontier genuinely splits (MIN_CHUNK = 1024, so
    // ≥ 2048 nodes are needed; 4096 clients give 8191 nodes) — the real
    // worker/merge/finish-pass path, under distance constraints and without.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for (trial, dmax_fraction) in [(0usize, Some(0.25)), (1, Some(0.6)), (2, None)] {
        let tree = random_binary_tree(
            4096,
            &EdgeDist::Uniform { lo: 1, hi: 4 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let inst = wrap_instance(tree, 2.0, dmax_fraction);
        assert!(inst.all_requests_fit_locally());
        assert_parallel_matches_serial(&inst, &format!("random-binary trial {trial}"));
    }
}

#[test]
fn broom_upper_region_exercises_the_parallel_finish_pass() {
    // A "double broom": two clean 600-node chains hang off the root, each
    // ending in a fork of two complete depth-10 binary brushes (clients at
    // the leaves). The frontier builder turns the four brushes into worker
    // chunks and leaves the ~1200-node branching chain structure as the
    // upper region, which the finish pass sweeps. dmax = 25% of the tree
    // height pins client deadlines mid-chain, so real finish-pass stages
    // commit and re-route volume the chunk workers already committed.
    fn grow_brush(b: &mut TreeBuilder, parent: rp_tree::NodeId, depth: usize, salt: &mut u64) {
        if depth == 0 {
            *salt += 1;
            b.add_client(parent, *salt % 3 + 1, *salt % 9 + 1);
            return;
        }
        let l = b.add_internal(parent, 1);
        let r = b.add_internal(parent, 2);
        grow_brush(b, l, depth - 1, salt);
        grow_brush(b, r, depth - 1, salt);
    }
    let mut b = TreeBuilder::new();
    let root = b.root();
    let mut salt = 0u64;
    for _ in 0..2 {
        let mut spine = b.add_internal(root, 1);
        for _ in 0..600 {
            spine = b.add_internal(spine, 1);
        }
        grow_brush(&mut b, spine, 10, &mut salt);
    }
    let tree = b.freeze().unwrap();
    assert!(tree.len() > 7000, "tree has {} nodes", tree.len());
    let inst = wrap_instance(tree, 2.0, Some(0.25));
    assert!(inst.all_requests_fit_locally());
    assert_parallel_matches_serial(&inst, "double-broom");
}

#[test]
fn parallel_solutions_validate() {
    // The determinism tests compare against serial results; this one
    // re-checks a parallel solution against the instance from scratch.
    let mut rng = StdRng::seed_from_u64(7);
    let tree = random_binary_tree(
        3000,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    let inst = wrap_instance(tree, 2.0, Some(0.4));
    let mut scratch = SolverScratch::new();
    scratch.load_arena(inst.tree());
    let sol = multiple_bin_par(&mut scratch, inst.capacity(), inst.dmax(), 4).unwrap();
    validate(&inst, Policy::Multiple, &sol).expect("parallel multiple-bin must stay feasible");
}

#[test]
fn single_node_and_tiny_trees_through_parallel_entry_points() {
    // A root-only tree has depth 0 (a one-node root path) and no clients;
    // a root-plus-client tree is the smallest solvable input. Both must pass
    // through the parallel entry point (which falls back to the serial
    // sweep) and the single-policy arena entry points without panicking.
    for build_client in [false, true] {
        let mut b = TreeBuilder::new();
        let root = b.root();
        if build_client {
            b.add_client(root, 1, 3);
        }
        let tree = b.freeze().unwrap();
        let mut scratch = SolverScratch::new();
        scratch.load_arena(&tree);
        for threads in [1, 8] {
            let sg = single_gen_arena(&mut scratch, 10, Some(5)).unwrap();
            let sn = single_nod_arena(&mut scratch, 10).unwrap();
            let mb = multiple_bin_par(&mut scratch, 10, Some(5), threads).unwrap();
            let expect = usize::from(build_client);
            assert_eq!(sg.replica_count(), expect);
            assert_eq!(sn.replica_count(), expect);
            assert_eq!(mb.replica_count(), expect);
            let _ = root;
        }
    }
}

#[test]
fn streamed_arena_solves_match_instance_solves() {
    // The streaming generator must reproduce the materialised tree exactly:
    // loading it through `load_arena_from_stream` and solving with the
    // arena entry points must equal the Tree/Instance pipeline.
    let clients = 4096;
    let seed = 0x5EED;
    let tree = random_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 4 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut StdRng::seed_from_u64(seed),
    );
    let inst = wrap_instance(tree, 2.0, Some(0.4));

    let mut scratch = SolverScratch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = stream_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 4 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    scratch.load_arena_from_stream(binary_tree_len(clients), stream).expect("valid stream");
    let (w, dmax) = instance_params_from_arena(scratch.arena(), 2.0, Some(0.4));
    assert_eq!(w, inst.capacity(), "streamed capacity derivation must match wrap_instance");
    assert_eq!(dmax, inst.dmax(), "streamed dmax derivation must match wrap_instance");

    let mut serial = SolverScratch::new();
    let sg = single_gen_with(&inst, &mut serial).unwrap();
    let sn = single_nod_with(&inst, &mut serial).unwrap();
    let mb = multiple_bin_with(&inst, &mut serial).unwrap();
    assert_eq!(single_gen_arena(&mut scratch, w, dmax).unwrap(), sg);
    assert_eq!(single_nod_arena(&mut scratch, w).unwrap(), sn);
    assert_eq!(multiple_bin_par(&mut scratch, w, dmax, 4).unwrap(), mb);
}
