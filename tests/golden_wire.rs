//! Golden wire-format tests: re-solve checked-in instances with
//! `multiple-bin` and compare the written solutions byte for byte with the
//! checked-in files, so any drift in the placement, the fragment order, the
//! `replicas` header or the number formatting fails here.
//!
//! * `shallow-512`: 512 clients under a shallow deadline. Its solution was
//!   written by `rp solve` with the `format!`-per-line writer that the
//!   byte-buffer writer replaced.
//! * `fallback-768`: 768 clients whose stages are dense in stage-DP
//!   fallbacks (53 stages, 15 of them fallbacks). Its solution was written
//!   by `rp solve --stage-stats` before the fallback ran on the stuck
//!   forest filtered out of the scope forest, and the test pins the stage
//!   counters that run printed as well.
//!
//! The files were made with
//!
//! ```text
//! rp gen --kind binary --clients 512 --seed 1 --dmax-fraction 0.1 \
//!     --out tests/golden/shallow-512.instance.txt
//! rp solve --instance tests/golden/shallow-512.instance.txt \
//!     --algorithm multiple-bin --out tests/golden/shallow-512.multiple-bin.solution.txt
//! rp gen --kind binary --clients 768 --seed 5 --dmax-fraction 0.5 \
//!     --out tests/golden/fallback-768.instance.txt
//! rp solve --instance tests/golden/fallback-768.instance.txt --stage-stats \
//!     --algorithm multiple-bin --out tests/golden/fallback-768.multiple-bin.solution.txt
//! ```
//!
//! The generator tests regenerate both instance files in process with the
//! parameters above (`rp gen`'s defaults: edges uniform in `1..=3`, requests
//! uniform in `1..=9`, capacity factor 3) and compare the bytes, so the
//! random generators' draw order and the instance writer are pinned too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_placement::algorithms::{multiple_bin_with, SolverScratch, StageStats};
use replica_placement::instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use replica_placement::instances::{EdgeDist, RequestDist};
use replica_placement::prelude::*;
use replica_placement::tree::io;

const EDGE: EdgeDist = EdgeDist::Uniform { lo: 1, hi: 3 };
const REQUESTS: RequestDist = RequestDist::Uniform { lo: 1, hi: 9 };

/// `rp gen --kind binary --clients <clients> --seed <seed> --dmax-fraction
/// <fraction>`, written as instance text.
fn gen_binary(clients: usize, seed: u64, fraction: f64) -> String {
    let tree = random_binary_tree(clients, &EDGE, &REQUESTS, &mut StdRng::seed_from_u64(seed));
    io::write_instance(&wrap_instance(tree, 3.0, Some(fraction)))
}

#[test]
fn binary_generator_reproduces_the_golden_instances() {
    assert_eq!(gen_binary(512, 1, 0.1), include_str!("golden/shallow-512.instance.txt"));
    assert_eq!(gen_binary(768, 5, 0.5), include_str!("golden/fallback-768.instance.txt"));
}

#[test]
fn kary_generator_output_is_pinned() {
    // rp gen --kind kary --clients 12 --arity 3 --seed 4 --dmax-fraction 0.5
    let expected = "\
# replica-placement instance v1
capacity 17
dmax 4
nodes 20
0 - 0 internal 0
1 0 3 internal 0
2 1 3 client 8
3 1 2 internal 0
4 3 1 client 9
5 3 2 client 7
6 1 1 internal 0
7 6 3 client 4
8 6 1 client 4
9 0 2 internal 0
10 9 3 client 8
11 9 2 internal 0
12 11 3 client 9
13 11 1 client 1
14 0 2 internal 0
15 14 1 client 2
16 14 2 internal 0
17 16 1 client 1
18 16 2 client 7
19 14 3 client 6
";
    let tree = random_kary_tree(12, 3, &EDGE, &REQUESTS, &mut StdRng::seed_from_u64(4));
    assert_eq!(io::write_instance(&wrap_instance(tree, 3.0, Some(0.5))), expected);
}

/// Solves `instance` and compares the written solution with `golden`;
/// returns the solve's stage counters.
fn assert_matches_golden(instance: &str, golden: &str, clients: usize) -> StageStats {
    let inst = io::parse_instance(instance).expect("the golden instance parses");
    assert_eq!(inst.tree().client_count(), clients);
    let mut scratch = SolverScratch::new();
    let solution = multiple_bin_with(&inst, &mut scratch).expect("the golden instance is solvable");
    let written = io::write_solution(&solution);
    if written != golden {
        let line = written.lines().zip(golden.lines()).position(|(a, b)| a != b);
        panic!(
            "written solution differs from the golden file (first differing line: {:?}; \
             {} vs {} bytes)",
            line.map(|l| l + 1),
            written.len(),
            golden.len()
        );
    }
    let parsed = io::parse_solution(golden).expect("the golden solution parses");
    assert_eq!(parsed.replica_count(), solution.replica_count());
    assert!(validate(&inst, Policy::Multiple, &parsed).is_ok());
    *scratch.stage_stats()
}

#[test]
fn multiple_bin_solution_matches_the_golden_file() {
    assert_matches_golden(
        include_str!("golden/shallow-512.instance.txt"),
        include_str!("golden/shallow-512.multiple-bin.solution.txt"),
        512,
    );
}

#[test]
fn fallback_dense_solution_matches_the_golden_file() {
    let stats = assert_matches_golden(
        include_str!("golden/fallback-768.instance.txt"),
        include_str!("golden/fallback-768.multiple-bin.solution.txt"),
        768,
    );
    // The counters `rp solve --stage-stats` printed alongside the file.
    let expected = StageStats {
        stages: 53,
        subsets_enumerated: 33756,
        subsets_routed: 9343,
        subsets_pruned: 24451,
        prefix_routes: 2193,
        dp_sizes_skipped: 2,
        dp_bound_skips: 0,
        dp_fallbacks: 15,
        dp_node_visits: 2985,
        repairs: 0,
        commit_touched: 7846,
        commit_skipped: 849,
        router_carry_merges: 63412,
        router_carried_peak: 16,
        scope_cache_hits: 0,
    };
    assert_eq!(stats, expected);
}
