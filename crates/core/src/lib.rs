//! # rp-core — replica placement algorithms
//!
//! This crate is the primary contribution of the reproduction: the three
//! algorithms of Benoit, Larchevêque and Renaud-Goud (IPDPS 2012), plus the
//! baselines and lower bounds the experiments compare them against.
//!
//! | Function | Paper | Guarantee |
//! |---|---|---|
//! | [`fn@single_gen`] | Algorithm 1 | (Δ+1)-approximation for **Single** (Δ-approximation without distance constraints), `O(Δ·|T|)` |
//! | [`fn@single_nod`] | Algorithm 2 | 2-approximation for **Single-NoD**, `O((Δ log Δ + |C|)·|T|)` |
//! | [`fn@multiple_bin`] | Algorithm 3 | the paper proves it optimal for **Multiple-Bin** when every `r_i ≤ W` on binary trees (Theorem 6); this reconstruction matches the exact optimum on the differential suite and is optimal on stages its enumeration solves, but its reassignment-free DP fallback can open extra replicas (runs on the [`TreeArena`](rp_tree::TreeArena)/[`SolverScratch`] flat layer); per stage a branch-and-bound enumeration, exponential in the candidate count but capped by a cost-model budget, and beyond it the polynomial stage DP |
//!
//! Baselines live in [`baselines`] (trivial clients-only placement, a greedy
//! Multiple heuristic for general trees) and lower bounds in [`bounds`].
//!
//! Every algorithm returns a full [`Solution`] (replica set **and** request
//! assignment); feasibility is always re-checked by `rp_tree::validate` in
//! the tests rather than assumed.
//!
//! ```
//! use rp_tree::{Instance, Policy, TreeBuilder, validate};
//! use rp_core::{single_gen, single_nod, multiple_bin};
//!
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let n = b.add_internal(root, 1);
//! b.add_client(n, 1, 4);
//! b.add_client(n, 2, 5);
//! let inst = Instance::new(b.freeze().unwrap(), 10, Some(4)).unwrap();
//!
//! let s1 = single_gen(&inst).unwrap();
//! assert!(validate(&inst, Policy::Single, &s1).is_ok());
//! let s2 = single_nod(&inst).unwrap(); // ignores dmax: Single-NoD variant
//! assert!(validate(&inst, Policy::Single, &s2).is_ok() || inst.dmax().is_some());
//! let s3 = multiple_bin(&inst).unwrap();
//! assert!(validate(&inst, Policy::Multiple, &s3).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bounds;
pub mod error;
pub mod fault;
mod heap;
pub mod multiple_bin;
pub mod par;
pub mod scratch;
pub mod serve;
pub mod single_gen;
pub mod single_nod;
pub mod stage;

pub use error::SolveError;
pub use multiple_bin::{multiple_bin, multiple_bin_arena, multiple_bin_with};
pub use par::multiple_bin_par;
pub use scratch::SolverScratch;
pub use serve::{DemandDelta, LatencyHistogram, ServeEngine, ServeError, ServeOutcome, ServeStats};
pub use single_gen::{single_gen, single_gen_arena, single_gen_with};
pub use single_nod::{single_nod, single_nod_arena, single_nod_with};
pub use stage::StageStats;

use rp_tree::{Instance, Policy, Solution};

/// Which algorithm to run, for callers that select one dynamically (CLI,
/// experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 1: `single-gen`, the (Δ+1)-approximation for Single.
    SingleGen,
    /// Algorithm 2: `single-nod`, the 2-approximation for Single-NoD
    /// (ignores any distance constraint of the instance).
    SingleNod,
    /// Algorithm 3: `multiple-bin` for Multiple-Bin (`r_i ≤ W`); optimal in
    /// the paper, optimal here on stages the enumeration solves.
    MultipleBin,
    /// Baseline: a replica on every client.
    ClientsOnly,
    /// Baseline: greedy bottom-up Multiple heuristic for general trees.
    MultipleGreedy,
}

impl Algorithm {
    /// Name used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SingleGen => "single-gen",
            Algorithm::SingleNod => "single-nod",
            Algorithm::MultipleBin => "multiple-bin",
            Algorithm::ClientsOnly => "clients-only",
            Algorithm::MultipleGreedy => "multiple-greedy",
        }
    }

    /// The access policy under which this algorithm's solutions are valid.
    pub fn policy(self) -> Policy {
        match self {
            Algorithm::SingleGen | Algorithm::SingleNod | Algorithm::ClientsOnly => Policy::Single,
            Algorithm::MultipleBin | Algorithm::MultipleGreedy => Policy::Multiple,
        }
    }

    /// Parses an algorithm name as used by [`Algorithm::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "single-gen" => Some(Algorithm::SingleGen),
            "single-nod" => Some(Algorithm::SingleNod),
            "multiple-bin" => Some(Algorithm::MultipleBin),
            "clients-only" => Some(Algorithm::ClientsOnly),
            "multiple-greedy" => Some(Algorithm::MultipleGreedy),
            _ => None,
        }
    }

    /// All algorithms, in a stable order.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::SingleGen,
            Algorithm::SingleNod,
            Algorithm::MultipleBin,
            Algorithm::ClientsOnly,
            Algorithm::MultipleGreedy,
        ]
    }
}

/// Runs the selected algorithm on the instance.
pub fn solve(instance: &Instance, algorithm: Algorithm) -> Result<Solution, SolveError> {
    let mut scratch = SolverScratch::new();
    solve_with(instance, algorithm, &mut scratch)
}

/// [`solve`] with caller-provided scratch state: the arena-based algorithms
/// reuse its buffers across solves (the baselines allocate their own), and
/// the solve's stage counters are left in [`SolverScratch::stage_stats`].
pub fn solve_with(
    instance: &Instance,
    algorithm: Algorithm,
    scratch: &mut SolverScratch,
) -> Result<Solution, SolveError> {
    match algorithm {
        Algorithm::SingleGen => single_gen_with(instance, scratch),
        Algorithm::SingleNod => single_nod_with(instance, scratch),
        Algorithm::MultipleBin => multiple_bin_with(instance, scratch),
        Algorithm::ClientsOnly => baselines::clients_only(instance),
        Algorithm::MultipleGreedy => baselines::multiple_greedy(instance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_roundtrip() {
        for alg in Algorithm::all() {
            assert_eq!(Algorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn policies_match_the_paper() {
        assert_eq!(Algorithm::SingleGen.policy(), Policy::Single);
        assert_eq!(Algorithm::SingleNod.policy(), Policy::Single);
        assert_eq!(Algorithm::MultipleBin.policy(), Policy::Multiple);
        assert_eq!(Algorithm::MultipleGreedy.policy(), Policy::Multiple);
    }
}
