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

use replica_placement::algorithms::{multiple_bin_with, SolverScratch, StageStats};
use replica_placement::prelude::*;
use replica_placement::tree::io;

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
