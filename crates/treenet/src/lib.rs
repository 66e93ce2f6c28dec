//! # rp-tree — tree-network substrate for replica placement
//!
//! This crate implements the platform model of Benoit, Larchevêque and
//! Renaud-Goud, *"Optimal algorithms and approximation algorithms for replica
//! placement with distance constraints in tree networks"* (INRIA RR-7750 /
//! IPDPS 2012):
//!
//! * a **distribution tree** `T = C ∪ N` where leaves are clients issuing
//!   requests and internal nodes are candidate replica locations
//!   ([`Tree`], [`TreeBuilder`]),
//! * a **problem instance** adding the server capacity `W` and the maximum
//!   client→server distance `dmax` ([`Instance`], [`Policy`]),
//! * **solutions**, i.e. a replica set together with the per-client request
//!   assignment ([`Solution`], [`Fragment`]),
//! * an independent **validator** that re-checks every constraint of the paper
//!   from the raw tree ([`fn@validate`], [`ValidationError`]),
//! * solution **metrics** ([`SolutionStats`]) and a plain-text **I/O format**
//!   ([`io`]),
//! * the **flat arena** every tree is stored in — contiguous subtree slices,
//!   CSR child ranges, O(1) ancestor tests — built from one parents-first
//!   node stream and indexed directly by the solvers ([`TreeArena`]).
//!
//! All quantities (requests, edge lengths, capacities) are integers (`u64`),
//! matching the integral instances and reductions used throughout the paper.
//!
//! ## Example
//!
//! ```
//! use rp_tree::{TreeBuilder, Instance, Policy, Solution, validate};
//!
//! // Root with two internal children, each serving two clients.
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let n1 = b.add_internal(root, 1);
//! let n2 = b.add_internal(root, 1);
//! let c1 = b.add_client(n1, 1, 3); // 3 requests at distance 1 below n1
//! let c2 = b.add_client(n1, 2, 4);
//! let c3 = b.add_client(n2, 1, 5);
//! let c4 = b.add_client(n2, 1, 2);
//! let tree = b.freeze().unwrap();
//! let inst = Instance::new(tree, 10, Some(3)).unwrap();
//!
//! // Place a replica on each internal child, serving its own subtree.
//! let mut sol = Solution::new();
//! sol.assign(c1, n1, 3);
//! sol.assign(c2, n1, 4);
//! sol.assign(c3, n2, 5);
//! sol.assign(c4, n2, 2);
//! let stats = validate(&inst, Policy::Single, &sol).unwrap();
//! assert_eq!(stats.replica_count, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod instance;
pub mod io;
pub mod metrics;
pub mod solution;
pub mod tree;
pub mod validate;

pub use arena::{StreamNode, TreeArena, NO_PARENT};
pub use error::{TreeError, ValidationError};
pub use instance::{Instance, Policy};
pub use metrics::SolutionStats;
pub use solution::{Fragment, Solution};
pub use tree::{NodeId, NodeKind, Tree, TreeBuilder};
pub use validate::validate;

/// Number of requests issued or served (integral, as in the paper).
pub type Requests = u64;
/// Edge length / distance between nodes (integral, as in the paper).
pub type Dist = u64;
