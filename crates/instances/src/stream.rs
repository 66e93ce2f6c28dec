//! The parents-first node streams behind the random tree generators.
//!
//! [`stream_binary_tree`] and [`stream_kary_tree`] emit a random tree node
//! by node as [`rp_tree::StreamNode`] records. The materialised generators
//! [`crate::random::random_binary_tree`] and
//! [`crate::random::random_kary_tree`] freeze these streams into a
//! [`rp_tree::Tree`] with [`rp_tree::Tree::from_stream`]; the
//! million-client scaling tier instead feeds them straight to
//! [`rp_tree::TreeArena::rebuild_from_stream`] on a solver arena, so no
//! [`rp_tree::Tree`] is built at all. Both paths run the same arena build
//! on the same records, so a given seed yields the same tree either way.
//!
//! [`instance_params_from_arena`] derives the capacity and `dmax` of an
//! instance from an arena's client statistics; it serves both paths
//! ([`crate::random::wrap_instance`] calls it on the tree's arena).

use crate::dist::{EdgeDist, RequestDist};
use rand::Rng;
use rp_tree::{Dist, StreamNode, TreeArena, NO_PARENT};

/// Exact node count of the tree emitted by [`stream_binary_tree`] for the
/// given client count: the root, `clients` leaves and `clients - 1` further
/// internal nodes (the root is the top split node once `clients >= 2`).
pub fn binary_tree_len(clients: usize) -> usize {
    if clients == 1 {
        2
    } else {
        2 * clients - 1
    }
}

/// Random *full binary* tree with `clients` client leaves as a parents-first
/// [`StreamNode`] sequence (see [`crate::random::random_binary_tree`], which
/// freezes it into a [`rp_tree::Tree`]); [`binary_tree_len`] is its exact
/// length.
pub fn stream_binary_tree<'a, R: Rng + ?Sized>(
    clients: usize,
    edge: &'a EdgeDist,
    requests: &'a RequestDist,
    rng: &'a mut R,
) -> SplitTreeStream<'a, R> {
    assert!(clients >= 1, "need at least one client");
    SplitTreeStream::new(clients, None, edge, requests, rng)
}

/// Random tree with `clients` client leaves whose internal nodes have 2 to
/// `arity` children, as a parents-first [`StreamNode`] sequence (see
/// [`crate::random::random_kary_tree`] and [`stream_binary_tree`]).
pub fn stream_kary_tree<'a, R: Rng + ?Sized>(
    clients: usize,
    arity: usize,
    edge: &'a EdgeDist,
    requests: &'a RequestDist,
    rng: &'a mut R,
) -> SplitTreeStream<'a, R> {
    assert!(arity >= 2, "arity must be at least 2");
    assert!(clients >= 1, "need at least one client");
    SplitTreeStream::new(clients, Some(arity), edge, requests, rng)
}

/// Iterator behind [`stream_binary_tree`] / [`stream_kary_tree`].
///
/// The leaf set is split recursively, with an explicit DFS stack of
/// *(parent, leaves)* jobs pushed in reverse sibling order. Each job's edge
/// is drawn on pop and an internal node's split right after its edge, so an
/// entire left subtree is emitted, and drawn, before its right sibling's
/// edge. Node ids are emission order, a pre-order of the tree. The draw
/// order fixes the trees a seed produces; the golden instance files pin it.
pub struct SplitTreeStream<'a, R: Rng + ?Sized> {
    /// `None` for the binary splitter (always two parts), `Some(Δ)` for the
    /// k-ary splitter (2..=Δ parts).
    arity: Option<usize>,
    edge: &'a EdgeDist,
    requests: &'a RequestDist,
    rng: &'a mut R,
    /// Pending subtrees as `(parent id, leaves)`; the top of the stack is the
    /// next sibling to emit.
    stack: Vec<(u32, usize)>,
    /// Total clients, kept for the pre-root state.
    clients: usize,
    /// Id the next emitted node will get (0 until the root is out).
    next_id: u32,
    /// k-ary split scratch, reused across internal nodes.
    sizes: Vec<usize>,
}

impl<'a, R: Rng + ?Sized> SplitTreeStream<'a, R> {
    fn new(
        clients: usize,
        arity: Option<usize>,
        edge: &'a EdgeDist,
        requests: &'a RequestDist,
        rng: &'a mut R,
    ) -> Self {
        SplitTreeStream {
            arity,
            edge,
            requests,
            rng,
            stack: Vec::new(),
            clients,
            next_id: 0,
            sizes: Vec::new(),
        }
    }

    /// Draws the split of `leaves` under node `v` and pushes the parts in
    /// reverse order, so the first part is expanded first — the recursion's
    /// left-to-right sibling order.
    fn split(&mut self, v: u32, leaves: usize) {
        debug_assert!(leaves >= 2);
        match self.arity {
            None => {
                let left = self.rng.gen_range(1..leaves);
                let right = leaves - left;
                self.stack.push((v, right));
                self.stack.push((v, left));
            }
            Some(arity) => {
                let parts = self.rng.gen_range(2..=arity.min(leaves));
                self.sizes.clear();
                self.sizes.resize(parts, 1usize);
                for _ in 0..(leaves - parts) {
                    let i = self.rng.gen_range(0..parts);
                    self.sizes[i] += 1;
                }
                for i in (0..parts).rev() {
                    self.stack.push((v, self.sizes[i]));
                }
            }
        }
    }
}

impl<R: Rng + ?Sized> Iterator for SplitTreeStream<'_, R> {
    type Item = StreamNode;

    fn next(&mut self) -> Option<StreamNode> {
        if self.next_id == 0 {
            // Emit the root and seed the stack. The root draws no edge; with
            // a single client there is no split, otherwise the top-level
            // split is drawn before the first child's edge.
            self.next_id = 1;
            if self.clients == 1 {
                self.stack.push((0, 1));
            } else {
                self.split(0, self.clients);
            }
            return Some(StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false });
        }
        let (parent, leaves) = self.stack.pop()?;
        let e: Dist = self.edge.sample(self.rng);
        // `v` is this record's implicit id (its position in the stream).
        let v = self.next_id;
        self.next_id += 1;
        if leaves == 1 {
            let r = self.requests.sample(self.rng);
            Some(StreamNode { parent, edge: e, requests: r, is_client: true })
        } else {
            self.split(v, leaves);
            Some(StreamNode { parent, edge: e, requests: 0, is_client: false })
        }
    }
}

/// Derives an instance's `(capacity, dmax)` from the client statistics of
/// an arena: capacity fits `clients_per_server` average clients (and at
/// least the largest client), and `dmax` is `dmax_fraction` of the largest
/// client→root distance. [`crate::random::wrap_instance`] calls it on a
/// tree's arena; the streamed tier calls it on a solver arena.
pub fn instance_params_from_arena(
    arena: &TreeArena,
    clients_per_server: f64,
    dmax_fraction: Option<f64>,
) -> (u64, Option<u64>) {
    let mut clients: usize = 0;
    let mut total: u128 = 0;
    let mut max_client: u64 = 0;
    let mut span: Dist = 0;
    for v in 0..arena.len() as u32 {
        if arena.is_client(v) {
            clients += 1;
            total += arena.requests(v) as u128;
            max_client = max_client.max(arena.requests(v));
            span = span.max(arena.root_dist(v));
        }
    }
    let clients = clients.max(1) as f64;
    let avg = total as f64 / clients;
    let max_client = max_client.max(1);
    let capacity = ((avg * clients_per_server).ceil() as u64).max(max_client).max(1);
    let dmax = dmax_fraction.map(|f| (span as f64 * f).ceil() as u64);
    (capacity, dmax)
}
