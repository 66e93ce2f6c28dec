//! Property tests of the solution wire format (`rp_tree::io`) and of the
//! replica-set queries behind its header, against the historical
//! implementations kept here as references: the writer that built one
//! `format!` string per line, and the replica count that collected every
//! server and forced replica into a vector, sorted it and deduplicated it.
//!
//! Random solutions draw their ids from one, two or all three of these
//! bands: dense small ids (a one-word bitset in `Solution::replicas`),
//! mid-range ids (a bitset of many words once there are enough entries)
//! and ids next to `u32::MAX` (the sorted-list fallback); with and without
//! idle replicas.

use proptest::prelude::*;
use rp_tree::io::{parse_solution, write_solution};
use rp_tree::{NodeId, Solution};

/// Reference writer: the `format!`-per-line implementation the byte-buffer
/// writer replaced. It has no `idle` lines, so it only matches solutions
/// without idle replicas.
fn reference_write(solution: &Solution, replicas: usize) -> String {
    let mut out = String::new();
    out.push_str("# replica-placement solution v1\n");
    out.push_str(&format!("replicas {replicas}\n"));
    for f in solution.fragments() {
        out.push_str(&format!("{} {} {}\n", f.client.0, f.server.0, f.amount));
    }
    out
}

/// Reference replica set: every server of a non-zero assignment plus every
/// forced node, sorted and deduplicated.
fn reference_replicas(assigns: &[(NodeId, NodeId, u64)], forced: &[NodeId]) -> Vec<NodeId> {
    let mut r: Vec<NodeId> =
        assigns.iter().filter(|&&(_, _, amount)| amount > 0).map(|&(_, s, _)| s).collect();
    r.extend_from_slice(forced);
    r.sort_unstable();
    r.dedup();
    r
}

/// A node id in one of the first `bands` of three ranges, picked by `band`:
/// dense, mid-range or next to `u32::MAX`.
fn id(bands: u8, band: u8, raw: u32) -> NodeId {
    NodeId(match band % bands {
        0 => raw % 64,
        1 => raw % 2_048,
        _ => u32::MAX - raw % 16,
    })
}

/// The solution with the forced mark dropped from every replica that also
/// serves a request: what the wire format keeps (only idle replicas get a
/// line of their own).
fn canonical(solution: &Solution) -> Solution {
    let mut out = solution.clone();
    for f in solution.fragments() {
        out.unforce_replica(f.server);
    }
    out
}

type Recipe = (Vec<(u8, u32, u8, u32, u64)>, Vec<(u8, u32)>);

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec((0u8..3, any::<u32>(), 0u8..3, any::<u32>(), 0u64..1_000), 0..100),
        prop::collection::vec((0u8..3, any::<u32>()), 0..12),
    )
}

/// Which of the recipe's forced nodes [`build`] keeps.
#[derive(Clone, Copy, PartialEq)]
enum Forced {
    All,
    /// Only nodes that also serve a request: no replica is idle.
    Serving,
    /// Only nodes that serve nothing: every forced replica is idle.
    Idle,
}

/// Builds the recipe's solution, returning it with the assignments and
/// forced nodes it was built from.
fn build(
    (assigns, forced): &Recipe,
    bands: u8,
    keep: Forced,
) -> (Solution, Vec<(NodeId, NodeId, u64)>, Vec<NodeId>) {
    let assigns: Vec<(NodeId, NodeId, u64)> = assigns
        .iter()
        .map(|&(cb, c, sb, s, amount)| (id(bands, cb, c), id(bands, sb, s), amount))
        .collect();
    let serves = |n: NodeId| assigns.iter().any(|&(_, s, amount)| s == n && amount > 0);
    let forced: Vec<NodeId> = forced
        .iter()
        .map(|&(b, raw)| id(bands, b, raw))
        .filter(|&n| keep == Forced::All || (keep == Forced::Serving) == serves(n))
        .collect();
    let mut solution = Solution::new();
    for &(c, s, amount) in &assigns {
        solution.assign(c, s, amount);
    }
    for &n in &forced {
        solution.force_replica(n);
    }
    (solution, assigns, forced)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replica_queries_match_the_sorting_reference(r in recipe(), bands in 1u8..=3) {
        let (solution, assigns, forced) = build(&r, bands, Forced::All);
        let expected = reference_replicas(&assigns, &forced);
        prop_assert_eq!(solution.replicas(), expected.clone());
        prop_assert_eq!(solution.replica_count(), expected.len());
        let idle: Vec<NodeId> =
            expected.iter().copied().filter(|&n| solution.load(n) == 0).collect();
        prop_assert_eq!(solution.idle_replicas(), idle);
    }

    #[test]
    fn writer_matches_the_format_reference_without_idle_replicas(
        r in recipe(),
        bands in 1u8..=3,
    ) {
        let (solution, _, _) = build(&r, bands, Forced::Serving);
        prop_assert!(solution.idle_replicas().is_empty());
        prop_assert_eq!(
            write_solution(&solution),
            reference_write(&solution, solution.replica_count())
        );
    }

    #[test]
    fn written_solutions_parse_back(r in recipe(), bands in 1u8..=3) {
        let (solution, _, _) = build(&r, bands, Forced::All);
        let back = parse_solution(&write_solution(&solution))
            .expect("written solutions must parse back");
        prop_assert_eq!(&back, &canonical(&solution));
        prop_assert_eq!(back.replicas(), solution.replicas());

        // When every forced replica is idle, the round trip is exact.
        let (idle, _, _) = build(&r, bands, Forced::Idle);
        prop_assert_eq!(parse_solution(&write_solution(&idle)).unwrap(), idle);
    }
}

#[test]
fn idle_replicas_survive_the_text_format() {
    let mut s = Solution::new();
    s.assign(NodeId(3), NodeId(1), 5);
    s.force_replica(NodeId(1));
    s.force_replica(NodeId(u32::MAX));
    s.force_replica(NodeId(0));
    let text = write_solution(&s);
    assert_eq!(
        text,
        "# replica-placement solution v1\nreplicas 3\nidle 0\nidle 4294967295\n3 1 5\n"
    );
    let back = parse_solution(&text).unwrap();
    assert_eq!(back.replica_count(), 3);
    assert_eq!(back.idle_replicas(), vec![NodeId(0), NodeId(u32::MAX)]);
    assert_eq!(back, canonical(&s));
}

#[test]
fn malformed_solution_lines_are_rejected() {
    for text in ["idle\n", "idle 1 2\n", "idle x\n", "1 2\n", "1 2 3 4\n", "4294967296 0 1\n"] {
        assert!(parse_solution(text).is_err(), "{text:?} must not parse");
    }
}
