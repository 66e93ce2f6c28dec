//! Errors returned by the placement algorithms.

use rp_tree::NodeId;
use std::fmt;

/// Reasons an algorithm cannot produce a solution for an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A client issues more requests than the capacity `W`, so it can never
    /// be served by a single replica. The Single-policy algorithms (and
    /// `multiple-bin`, whose optimality proof needs `r_i ≤ W`) refuse such
    /// instances.
    ClientExceedsCapacity {
        /// The offending client.
        client: NodeId,
        /// Its number of requests.
        requests: u64,
        /// The instance capacity.
        capacity: u64,
    },
    /// `multiple-bin` only handles binary trees (Multiple-Bin); the instance
    /// has a node with more than two children.
    NotBinary {
        /// Arity found in the instance.
        arity: usize,
    },
    /// The instance's *summed* request volume exceeds
    /// [`rp_tree::Tree::MAX_REQUESTS`]. The Multiple-policy hot paths carry
    /// demand volumes in `u64` slabs whose safety argument rests on this
    /// tree-wide bound (see the width-narrowing notes in
    /// `rp_core::scratch`), so `multiple-bin` refuses instances beyond it;
    /// the `single_*` solvers, whose accumulators stay 128-bit, do not.
    TotalRequestsTooLarge {
        /// The instance's total request volume.
        total: u128,
    },
    /// Some node lies further than `u64::MAX` from the root. `multiple-bin`
    /// orders and splits pending requests by root-distance differences,
    /// which must be exact, so it refuses such instances; the `single_*`
    /// solvers, which saturate path sums, do not.
    RootDistanceTooLarge {
        /// The first node (by index) whose root distance overflows.
        node: NodeId,
    },
    /// A client cannot be served even with a replica on every node of its
    /// path (only possible under the Multiple policy when `r_i` exceeds the
    /// combined capacity of the whole path).
    ClientUnservable {
        /// The offending client.
        client: NodeId,
    },
    /// A stage placement failed to route at commit time — a solver
    /// invariant violation. Earlier versions silently repaired this in
    /// release builds (self-serving every stage client, degrading the
    /// solution); it is now surfaced so callers can fall back explicitly.
    /// Never observed in practice; tracked by
    /// [`StageStats::repairs`](crate::stage::StageStats).
    StageRepair {
        /// Root of the stage subtree whose placement failed to route.
        node: NodeId,
    },
    /// The stage DP fallback exhausted its replica budget: even a replica
    /// on every free node of the stage's active forest leaves stuck volume
    /// unserved. The sweep only creates feasible stages, so this is a
    /// modelling bug — earlier versions `assert!`ed here, aborting long
    /// solves; it is now a structured error like [`SolveError::StageRepair`].
    StageDpExhausted {
        /// Root of the stage subtree whose stuck volume stayed unserved.
        node: NodeId,
        /// The replica budget the dynamic program tried: the free-node count
        /// of the stage's stuck forest.
        rmax: u64,
    },
    /// The solve ran past its per-solve deadline budget and was abandoned
    /// mid-sweep (the serving tier's graceful-degradation path: the engine
    /// answers with its last-known-good solution instead — see
    /// `rp_core::serve`). The slab state is unspecified after this error;
    /// the next solve must re-prepare from scratch, which every entry
    /// point does. Checked between nodes and before each stage, so one
    /// in-flight stage always completes — the budget bounds sweep
    /// progress, not a single stage's search.
    DeadlineExceeded {
        /// The budget that was blown, in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::ClientExceedsCapacity { client, requests, capacity } => write!(
                f,
                "client {client} issues {requests} requests, above the capacity {capacity}"
            ),
            SolveError::NotBinary { arity } => {
                write!(f, "multiple-bin requires a binary tree, found arity {arity}")
            }
            SolveError::TotalRequestsTooLarge { total } => {
                write!(
                    f,
                    "instance total of {total} requests exceeds the multiple-bin \
                     volume bound {}",
                    rp_tree::Tree::MAX_REQUESTS
                )
            }
            SolveError::RootDistanceTooLarge { node } => {
                write!(f, "node {node} lies further than {} from the root", u64::MAX)
            }
            SolveError::ClientUnservable { client } => {
                write!(f, "client {client} cannot be served even by its whole root path")
            }
            SolveError::StageRepair { node } => {
                write!(f, "stage placement at {node} failed to route (solver invariant violation)")
            }
            SolveError::StageDpExhausted { node, rmax } => {
                write!(
                    f,
                    "stage DP at {node} exhausted its replica budget (rmax {rmax}) \
                     with stuck volume unserved (solver invariant violation)"
                )
            }
            SolveError::DeadlineExceeded { budget_ms } => {
                write!(f, "solve abandoned after blowing its {budget_ms} ms deadline budget")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    /// One of each variant, so the tests below cannot silently skip a
    /// newly added one (the match in [`all_variants`] fails to compile
    /// until the new variant is listed here).
    fn all_variants() -> Vec<SolveError> {
        let variants = vec![
            SolveError::ClientExceedsCapacity { client: NodeId(4), requests: 12, capacity: 7 },
            SolveError::NotBinary { arity: 5 },
            SolveError::TotalRequestsTooLarge { total: u64::MAX as u128 },
            SolveError::RootDistanceTooLarge { node: NodeId(5) },
            SolveError::ClientUnservable { client: NodeId(1) },
            SolveError::StageRepair { node: NodeId(3) },
            SolveError::StageDpExhausted { node: NodeId(6), rmax: 17 },
            SolveError::DeadlineExceeded { budget_ms: 250 },
        ];
        for v in &variants {
            // Exhaustiveness guard: extend `variants` above when this
            // match gains an arm.
            match v {
                SolveError::ClientExceedsCapacity { .. }
                | SolveError::NotBinary { .. }
                | SolveError::TotalRequestsTooLarge { .. }
                | SolveError::RootDistanceTooLarge { .. }
                | SolveError::ClientUnservable { .. }
                | SolveError::StageRepair { .. }
                | SolveError::StageDpExhausted { .. }
                | SolveError::DeadlineExceeded { .. } => {}
            }
        }
        variants
    }

    #[test]
    fn display_mentions_the_numbers() {
        let e = SolveError::ClientExceedsCapacity { client: NodeId(4), requests: 12, capacity: 7 };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains('7'));
        assert!(SolveError::NotBinary { arity: 5 }.to_string().contains('5'));
        assert!(SolveError::ClientUnservable { client: NodeId(1) }.to_string().contains("n1"));
        let s = SolveError::StageRepair { node: NodeId(3) }.to_string();
        assert!(s.contains("n3") && s.contains("failed to route"));
        let s = SolveError::StageDpExhausted { node: NodeId(6), rmax: 17 }.to_string();
        assert!(s.contains("n6") && s.contains("17") && s.contains("unserved"));
        let s = SolveError::DeadlineExceeded { budget_ms: 250 }.to_string();
        assert!(s.contains("250") && s.contains("deadline"));
    }

    #[test]
    fn every_variant_displays_cli_worthy_text() {
        // The CLI prints these verbatim (`rp solve` maps them through
        // `to_string`), so each variant must render non-empty, single-line
        // prose that stands on its own — no Debug braces, no trailing
        // newline, distinct from every other variant.
        let rendered: Vec<String> = all_variants().iter().map(|e| e.to_string()).collect();
        for (v, s) in all_variants().iter().zip(&rendered) {
            assert!(!s.is_empty(), "{v:?} renders empty");
            assert!(!s.contains('\n'), "{v:?} renders multi-line: {s:?}");
            assert!(!s.contains('{'), "{v:?} leaks Debug formatting: {s:?}");
            assert_eq!(s.trim(), s, "{v:?} has stray whitespace: {s:?}");
        }
        for i in 0..rendered.len() {
            for k in i + 1..rendered.len() {
                assert_ne!(rendered[i], rendered[k], "two variants render identically");
            }
        }
    }

    #[test]
    fn error_source_chains_terminate_immediately() {
        // Every variant is a root cause: `source()` is `None`, so callers
        // walking the chain (anyhow-style reporters, the CLI) stop at the
        // solver. Also exercise the chain through a trait object, the way
        // `Box<dyn Error>` consumers see it.
        for e in all_variants() {
            assert!(e.source().is_none(), "{e:?} should be a root cause");
            let boxed: Box<dyn Error> = Box::new(e.clone());
            assert!(boxed.source().is_none());
            assert_eq!(boxed.to_string(), e.to_string());
        }
    }

    #[test]
    fn variants_compare_and_clone_structurally() {
        // The differential and unit suites match on errors with `==`
        // (e.g. `assert_eq!(err, SolveError::NotBinary { arity: 3 })`);
        // pin that equality is structural and clones are faithful.
        for e in all_variants() {
            assert_eq!(e.clone(), e);
        }
        assert_ne!(
            SolveError::StageRepair { node: NodeId(3) },
            SolveError::StageRepair { node: NodeId(4) },
        );
        assert_ne!(
            SolveError::StageDpExhausted { node: NodeId(6), rmax: 17 },
            SolveError::StageDpExhausted { node: NodeId(6), rmax: 18 },
        );
    }
}
