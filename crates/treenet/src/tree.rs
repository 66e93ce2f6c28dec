//! Distribution tree.
//!
//! The tree follows the framework of Section 2 of the paper: the set of leaf
//! nodes `C` are *clients*, each issuing `r_i` requests; internal nodes `N`
//! are candidate replica locations; every non-root node `j` is connected to
//! `parent(j)` by an edge of length `δ_j`.
//!
//! A [`Tree`] is a frozen [`TreeArena`] plus its client list. Every tree is
//! built through one path, a parents-first [`StreamNode`] stream:
//! [`TreeBuilder`] records the stream node by node (root first, then
//! children) and [`TreeBuilder::freeze`] hands it to [`Tree::from_stream`],
//! which validates it and precomputes traversal orders, depths and root
//! distances. The result is immutable and can be shared across threads.

use crate::arena::{StreamNode, TreeArena, NO_PARENT};
use crate::error::TreeError;
use crate::{Dist, Requests};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node inside a [`Tree`] (index into the node arena).
///
/// Ids are dense: the root is always `NodeId(0)` and ids `0..tree.len()` are
/// all valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index of this node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a node in the distribution tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A client (leaf) issuing the given number of requests per time unit.
    Client(Requests),
    /// An internal node: a candidate replica location that issues no requests.
    Internal,
}

impl NodeKind {
    /// Requests issued by this node (0 for internal nodes).
    #[inline]
    pub fn requests(&self) -> Requests {
        match self {
            NodeKind::Client(r) => *r,
            NodeKind::Internal => 0,
        }
    }

    /// Whether the node is a client.
    #[inline]
    pub fn is_client(&self) -> bool {
        matches!(self, NodeKind::Client(_))
    }
}

/// Incremental builder for a [`Tree`].
///
/// The builder starts with a single internal root node (id 0). Children are
/// appended with [`TreeBuilder::add_internal`] and [`TreeBuilder::add_client`]
/// by naming their parent and the length of the connecting edge; each call
/// records one [`StreamNode`] of the tree's parents-first stream.
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    nodes: Vec<StreamNode>,
}

impl TreeBuilder {
    /// Creates a builder containing only the root (an internal node).
    pub fn new() -> Self {
        TreeBuilder {
            nodes: vec![StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false }],
        }
    }

    /// Id of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes added so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the builder only contains the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn push(&mut self, parent: NodeId, edge: Dist, requests: Requests, is_client: bool) -> NodeId {
        // Checked conversion: ids and traversal positions are stored as u32
        // throughout the solver arenas (see `Tree::MAX_NODES`), so refusing
        // the node here beats silently truncating its id.
        let id = NodeId(
            u32::try_from(self.nodes.len())
                .ok()
                .filter(|_| self.nodes.len() < Tree::MAX_NODES)
                .expect("TreeBuilder holds at most Tree::MAX_NODES nodes"),
        );
        self.nodes.push(StreamNode { parent: parent.0, edge, requests, is_client });
        id
    }

    /// Adds an internal node below `parent`, connected by an edge of length
    /// `edge`, and returns its id.
    pub fn add_internal(&mut self, parent: NodeId, edge: Dist) -> NodeId {
        self.push(parent, edge, 0, false)
    }

    /// Adds a client (leaf) below `parent`, connected by an edge of length
    /// `edge` and issuing `requests` requests, and returns its id.
    pub fn add_client(&mut self, parent: NodeId, edge: Dist, requests: Requests) -> NodeId {
        self.push(parent, edge, requests, true)
    }

    /// Validates the structure and produces an immutable [`Tree`] (see
    /// [`Tree::from_stream`]).
    ///
    /// # Errors
    ///
    /// * [`TreeError::Empty`] for a [`TreeBuilder::default`] builder,
    /// * [`TreeError::ClientHasChildren`] if a client node was used as a
    ///   parent,
    /// * [`TreeError::UnknownParent`] if a parent id was not added before
    ///   its child,
    /// * [`TreeError::RequestsTooLarge`] if a client issues more than
    ///   `u64::MAX / 4` requests (guards the solvers against overflow).
    pub fn freeze(self) -> Result<Tree, TreeError> {
        Tree::from_stream(self.nodes.len(), self.nodes)
    }
}

/// An immutable distribution tree: a frozen [`TreeArena`] plus its client
/// list.
///
/// Node ids index the arena; the root is always `NodeId(0)`. The arena
/// holds the adjacency, a post-order and a pre-order traversal (children
/// visited in insertion order), and the depth and distance to the root of
/// every node; the tree adds the list of clients and the arity Δ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    arena: TreeArena,
    clients: Vec<NodeId>,
    arity: usize,
}

impl Tree {
    /// Maximum number of requests a single client may issue; bounds the sums
    /// computed by the solvers so that they fit comfortably in `u64`.
    pub const MAX_REQUESTS: Requests = u64::MAX / 4;

    /// Maximum number of nodes a tree may hold: node ids and traversal
    /// positions are stored as `u32` in [`TreeArena`]'s dense arrays,
    /// with `u32::MAX` reserved as the `NO_PARENT` sentinel. Construction
    /// boundaries return [`TreeError::TooManyNodes`] beyond this.
    pub const MAX_NODES: usize = u32::MAX as usize;

    /// Freezes a parents-first stream of [`StreamNode`] records (see that
    /// type for the stream contract) into a tree; record `i` becomes
    /// `NodeId(i)`. `size_hint` pre-sizes the arena (the exact node count
    /// when known, or 0).
    ///
    /// # Errors
    ///
    /// The validation errors of [`TreeArena::rebuild_from_stream`].
    pub fn from_stream<I>(size_hint: usize, nodes: I) -> Result<Tree, TreeError>
    where
        I: IntoIterator<Item = StreamNode>,
    {
        let mut arena = TreeArena::default();
        arena.rebuild_from_stream(size_hint, nodes)?;
        let n = arena.len() as u32;
        let clients = (0..n).filter(|&v| arena.is_client(v)).map(NodeId).collect();
        let arity = (0..n).map(|v| arena.children(v).len()).max().unwrap_or(0);
        Ok(Tree { arena, clients, arity })
    }

    /// The flat arena the tree is stored in; the solvers index it directly.
    #[inline]
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// Total number of nodes `|C ∪ N|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the tree contains only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The root node id (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Iterator over all node ids, in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Role of node `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        if self.is_client(id) {
            NodeKind::Client(self.requests(id))
        } else {
            NodeKind::Internal
        }
    }

    /// Whether `id` is a client (leaf issuing requests).
    #[inline]
    pub fn is_client(&self, id: NodeId) -> bool {
        self.arena.is_client(id.0)
    }

    /// Requests issued by node `id` (`r_i` for clients, 0 for internal nodes).
    #[inline]
    pub fn requests(&self, id: NodeId) -> Requests {
        self.arena.requests(id.0)
    }

    /// Parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.arena.parent(id.0);
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Length `δ_j` of the edge between `id` and its parent (0 for the root;
    /// the paper sets `δ_r = +∞`, which callers model by never letting
    /// requests traverse above the root).
    #[inline]
    pub fn edge(&self, id: NodeId) -> Dist {
        self.arena.edge(id.0)
    }

    /// Children of `id`, in insertion order.
    #[inline]
    pub fn children(
        &self,
        id: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        ids(self.arena.children(id.0))
    }

    /// Depth of `id` in edges (0 for the root).
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.arena.depth(id.0)
    }

    /// Distance from `id` to the root along tree edges.
    #[inline]
    pub fn dist_to_root(&self, id: NodeId) -> Dist {
        self.arena.root_dist(id.0)
    }

    /// Arity Δ of the tree (maximum number of children of any node).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Whether the tree is binary (Δ ≤ 2), the class targeted by
    /// `multiple-bin`.
    #[inline]
    pub fn is_binary(&self) -> bool {
        self.arity <= 2
    }

    /// The client (leaf) nodes, in id order.
    #[inline]
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// The internal nodes, in id order.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |id| !self.is_client(*id))
    }

    /// Post-order traversal (children before parents); the natural order for
    /// the bottom-up algorithms of the paper.
    #[inline]
    pub fn postorder(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        ids(self.arena.postorder())
    }

    /// Pre-order traversal (parents before children).
    #[inline]
    pub fn preorder(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        ids(self.arena.preorder())
    }

    /// Sum of all client requests (`W_tot` in the paper), computed in `u128`
    /// to avoid overflow.
    pub fn total_requests(&self) -> u128 {
        self.clients.iter().map(|c| self.requests(*c) as u128).sum()
    }

    /// Iterator over `id` and its proper ancestors up to the root.
    pub fn ancestors_inclusive(&self, id: NodeId) -> AncestorIter<'_> {
        AncestorIter { tree: self, current: Some(id) }
    }

    /// Distance along tree edges between a node and one of its ancestors.
    ///
    /// Returns `None` if `ancestor` is not on the path from `node` to the
    /// root. The distance from a node to itself is 0.
    pub fn distance_to_ancestor(&self, node: NodeId, ancestor: NodeId) -> Option<Dist> {
        let mut current = node;
        let mut dist: Dist = 0;
        loop {
            if current == ancestor {
                return Some(dist);
            }
            match self.parent(current) {
                Some(p) => {
                    dist = dist.saturating_add(self.edge(current));
                    current = p;
                }
                None => return None,
            }
        }
    }

    /// Whether `ancestor` lies on the path from `node` to the root
    /// (inclusive of `node` itself). O(1) via pre-order intervals.
    #[inline]
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.arena.is_ancestor_or_self(ancestor.0, node.0)
    }

    /// Nodes of `subtree(j)`, `j` first, in pre-order.
    #[inline]
    pub fn subtree(
        &self,
        id: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        ids(self.arena.subtree_pre(id.0))
    }

    /// Sum of requests issued by clients of `subtree(j)`.
    pub fn subtree_requests(&self, id: NodeId) -> u128 {
        self.subtree(id).map(|n| self.requests(n) as u128).sum()
    }

    /// Number of clients in the tree.
    #[inline]
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Maximum distance from any client to the root; a convenient scale for
    /// choosing `dmax` in generators and experiments.
    pub fn max_client_root_distance(&self) -> Dist {
        self.clients.iter().map(|c| self.dist_to_root(*c)).max().unwrap_or(0)
    }
}

/// Raw arena indices as [`NodeId`]s.
fn ids(raw: &[u32]) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
    raw.iter().map(|&v| NodeId(v))
}

/// Iterator over a node and its ancestors; see
/// [`Tree::ancestors_inclusive`].
pub struct AncestorIter<'a> {
    tree: &'a Tree,
    current: Option<NodeId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.current?;
        self.current = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Tree {
        // root
        //  ├─ n1 (edge 2)
        //  │   ├─ c2 (edge 1, 5 req)
        //  │   └─ c3 (edge 3, 7 req)
        //  └─ c4 (edge 4, 2 req)
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 5);
        b.add_client(n1, 3, 7);
        b.add_client(root, 4, 2);
        b.freeze().unwrap()
    }

    #[test]
    fn builder_produces_expected_structure() {
        let t = sample_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.client_count(), 3);
        assert_eq!(t.arity(), 2);
        assert!(t.is_binary());
        assert!(t.children(NodeId(0)).eq([NodeId(1), NodeId(4)]));
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.edge(NodeId(3)), 3);
        assert_eq!(t.requests(NodeId(3)), 7);
        assert_eq!(t.requests(NodeId(1)), 0);
    }

    #[test]
    fn depths_and_distances() {
        let t = sample_tree();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(2)), 2);
        assert_eq!(t.dist_to_root(NodeId(2)), 3);
        assert_eq!(t.dist_to_root(NodeId(3)), 5);
        assert_eq!(t.dist_to_root(NodeId(4)), 4);
        assert_eq!(t.max_client_root_distance(), 5);
    }

    #[test]
    fn distance_to_ancestor_follows_path() {
        let t = sample_tree();
        assert_eq!(t.distance_to_ancestor(NodeId(2), NodeId(1)), Some(1));
        assert_eq!(t.distance_to_ancestor(NodeId(2), NodeId(0)), Some(3));
        assert_eq!(t.distance_to_ancestor(NodeId(2), NodeId(2)), Some(0));
        assert_eq!(t.distance_to_ancestor(NodeId(2), NodeId(4)), None);
        assert!(t.is_ancestor_or_self(NodeId(0), NodeId(3)));
        assert!(!t.is_ancestor_or_self(NodeId(3), NodeId(0)));
    }

    #[test]
    fn traversal_orders_cover_all_nodes() {
        let t = sample_tree();
        assert_eq!(t.postorder().len(), t.len());
        assert_eq!(t.preorder().len(), t.len());
        // post-order: every node appears after all of its children
        let pos: Vec<usize> = {
            let mut v = vec![0; t.len()];
            for (i, id) in t.postorder().enumerate() {
                v[id.index()] = i;
            }
            v
        };
        for id in t.node_ids() {
            for c in t.children(id) {
                assert!(pos[c.index()] < pos[id.index()]);
            }
        }
        // pre-order starts at the root
        assert_eq!(t.preorder().next(), Some(t.root()));
    }

    #[test]
    fn subtree_and_requests() {
        let t = sample_tree();
        assert!(t.subtree(NodeId(1)).eq([NodeId(1), NodeId(2), NodeId(3)]));
        assert!(t.subtree(NodeId(0)).eq(t.preorder()), "pre-order, root first");
        assert_eq!(t.subtree_requests(NodeId(1)), 12);
        assert_eq!(t.subtree_requests(NodeId(0)), 14);
        assert_eq!(t.total_requests(), 14);
    }

    #[test]
    fn ancestors_iterator() {
        let t = sample_tree();
        let anc: Vec<NodeId> = t.ancestors_inclusive(NodeId(2)).collect();
        assert_eq!(anc, vec![NodeId(2), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn client_cannot_have_children() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c = b.add_client(root, 1, 3);
        b.add_client(c, 1, 4);
        assert_eq!(b.freeze().unwrap_err(), TreeError::ClientHasChildren(c));
    }

    #[test]
    fn requests_overflow_guard() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        b.add_client(root, 1, u64::MAX);
        assert!(matches!(b.freeze().unwrap_err(), TreeError::RequestsTooLarge(_)));
    }

    #[test]
    fn single_root_tree_is_valid() {
        let t = TreeBuilder::new().freeze().unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.client_count(), 0);
        assert_eq!(t.total_requests(), 0);
        assert_eq!(t.arity(), 0);
        // Without even the root there is no tree.
        assert_eq!(TreeBuilder::default().freeze().unwrap_err(), TreeError::Empty);
    }

    #[test]
    fn node_kind_helpers() {
        assert_eq!(NodeKind::Client(4).requests(), 4);
        assert_eq!(NodeKind::Internal.requests(), 0);
        assert!(NodeKind::Client(0).is_client());
        assert!(!NodeKind::Internal.is_client());
    }

    #[test]
    fn display_of_node_id() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
