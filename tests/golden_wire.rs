//! Golden wire-format test: re-solves a checked-in 512-client
//! shallow-deadline instance with `multiple-bin` and compares the written
//! solution byte for byte with the checked-in file. That file was produced
//! by `rp solve` with the `format!`-per-line writer that the byte-buffer
//! writer replaced, so any drift in the placement, the fragment order, the
//! `replicas` header or the number formatting fails here.
//!
//! The files were made with
//!
//! ```text
//! rp gen --kind binary --clients 512 --seed 1 --dmax-fraction 0.1 \
//!     --out tests/golden/shallow-512.instance.txt
//! rp solve --instance tests/golden/shallow-512.instance.txt \
//!     --algorithm multiple-bin --out tests/golden/shallow-512.multiple-bin.solution.txt
//! ```

use replica_placement::prelude::*;
use replica_placement::tree::io;

const INSTANCE: &str = include_str!("golden/shallow-512.instance.txt");
const SOLUTION: &str = include_str!("golden/shallow-512.multiple-bin.solution.txt");

#[test]
fn multiple_bin_solution_matches_the_golden_file() {
    let inst = io::parse_instance(INSTANCE).expect("the golden instance parses");
    assert_eq!(inst.tree().client_count(), 512);
    let solution = multiple_bin(&inst).expect("the golden instance is solvable");
    let written = io::write_solution(&solution);
    if written != SOLUTION {
        let line = written.lines().zip(SOLUTION.lines()).position(|(a, b)| a != b);
        panic!(
            "written solution differs from the golden file (first differing line: {:?}; \
             {} vs {} bytes)",
            line.map(|l| l + 1),
            written.len(),
            SOLUTION.len()
        );
    }
    let parsed = io::parse_solution(SOLUTION).expect("the golden solution parses");
    assert_eq!(parsed.replica_count(), solution.replica_count());
    assert!(validate(&inst, Policy::Multiple, &parsed).is_ok());
}
