//! # rp-instances — instance generators for replica placement
//!
//! Provides every input used by the experiments of the reproduction:
//!
//! * [`dist`] — request and edge-length distributions (constant, uniform,
//!   Zipf-like), sampled with a deterministic [`rand::Rng`];
//! * [`families`] — deterministic tree families (star, chain/caterpillar,
//!   balanced k-ary);
//! * [`random`] — random binary / k-ary / bounded-arity trees with sampled
//!   requests and edge lengths;
//! * [`stream`] — the parents-first node streams behind the random binary
//!   and k-ary generators: [`random`] freezes them into a [`rp_tree::Tree`],
//!   and million-client instances feed them node by node to
//!   [`rp_tree::TreeArena::rebuild_from_stream`] without building a tree;
//! * [`worst_case`] — the tight instances of the paper: the family `Im`
//!   of Fig. 3 on which `single-gen` reaches its Δ+1 approximation ratio, and
//!   the Fig. 4 family on which `single-nod` reaches ratio 2;
//! * [`gadgets`] — the NP-hardness reduction gadgets: `I2` (3-Partition →
//!   Single-NoD-Bin, Fig. 1), `I4` (2-Partition → Single-NoD-Bin, Fig. 2) and
//!   `I6` (2-Partition-Equal → Multiple-Bin, Fig. 5);
//! * [`partition`] — generators of YES/NO source instances of 3-Partition and
//!   2-Partition-Equal used to exercise the gadgets end-to-end.
//!
//! All generators are deterministic given an RNG seed, so experiment trials
//! are reproducible regardless of the number of worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod families;
pub mod gadgets;
pub mod partition;
pub mod random;
pub mod stream;
pub mod worst_case;

pub use dist::{EdgeDist, RequestDist};
pub use gadgets::{Gadget, GadgetKind};
pub use random::RandomTreeConfig;
pub use stream::{
    binary_tree_len, instance_params_from_arena, stream_binary_tree, stream_kary_tree,
    SplitTreeStream,
};
