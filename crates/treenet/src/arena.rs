//! Flat, index-addressed tree storage: the representation of every [`Tree`]
//! and of every solver arena.
//!
//! A [`Tree`] is a frozen [`TreeArena`] plus its client list, and the solver
//! hot paths index the same dense arrays directly, addressed by raw node
//! index. The arena precomputes, once per instance, everything the bottom-up
//! sweeps need (they visit overlapping subtrees thousands of times per
//! solve):
//!
//! * the **post-order** sequence and each node's position in it — because a
//!   subtree is contiguous in post-order, `subtree(j)` becomes a slice (in
//!   children-before-parent order, the natural stage order);
//! * the **pre-order** sequence and positions — the same slice trick in
//!   parents-before-children order, and an O(1) ancestor test via interval
//!   containment;
//! * **parent / edge / depth / root-distance** arrays;
//! * the children of every node flattened into one array addressed by a
//!   per-node **child range** (CSR layout);
//! * per-node **request counts** and client flags.
//!
//! The arena is plain data: building it is a handful of O(|T|) passes and it
//! can be rebuilt in place so a solver scratch that is reused across solves
//! does not reallocate. Two construction paths share the same finishing
//! passes:
//!
//! * [`TreeArena::rebuild_from_stream`] — consumes a parents-first stream of
//!   [`StreamNode`] records. [`Tree::from_stream`] (and so
//!   [`crate::TreeBuilder::freeze`]) builds every tree this way, and the
//!   million-client tier streams generator output straight into a solver
//!   arena without materialising a [`Tree`] at all;
//! * [`TreeArena::rebuild_subtree`] — restriction of another arena to one
//!   subtree, used by the frontier-parallel solver sweeps. Local node ids are
//!   assigned by **global-id rank** inside the subtree (the mapping is kept in
//!   [`TreeArena::origin`]), so comparing raw local ids orders exactly like
//!   comparing the global ids they stand for — the solvers break ties on raw
//!   ids, and rank mapping keeps a sub-arena solve bit-identical to the same
//!   scope solved in the full arena. **Depth and root distance keep their
//!   global values**: every solver comparison uses differences or compares
//!   values within one subtree, so the constant offset cancels, and keeping
//!   global values lets per-client deadline *depths* computed on the full
//!   tree be injected into sub-arena scratch unchanged.
//!
//! ## Index-width contract
//!
//! All per-node arrays are indexed by `u32` and traversal *positions* are
//! stored as `u32`, with [`NO_PARENT`] (`u32::MAX`) reserved as the sentinel
//! parent/ancestor. A tree may therefore hold at most [`Tree::MAX_NODES`]
//! (`u32::MAX`) nodes — node ids and positions then top out at
//! `u32::MAX - 1`, which never collides with the sentinel. The boundary is
//! enforced with checked conversions where untrusted sizes enter
//! ([`TreeArena::rebuild_from_stream`], and so [`Tree`] freezing, returns
//! [`TreeError::TooManyNodes`]); `rebuild_subtree`, fed from an
//! already-validated arena, cannot exceed it.
//!
//! Distance budgets (the per-client *deadline* of the Multiple sweep — the
//! highest ancestor allowed to serve a client under `dmax`) depend on the
//! instance, not just the tree, so they are computed by
//! [`TreeArena::compute_deadlines`] on demand.
//!
//! ## Canonical placement order
//!
//! Pre-order positions double as the workspace-wide **canonical placement
//! order**: whenever a solver must pick between otherwise equivalent replica
//! placements (same count, same score), it commits the set whose sorted
//! pre-order positions are lexicographically smallest. Pre-order visits
//! parents before children and siblings in insertion order, so the canonical
//! set is the one preferring nodes encountered earliest in a root-down,
//! left-to-right reading of the tree. `rp-core`'s stage engine implements
//! this rule and its tests pin it.

use crate::error::TreeError;
use crate::tree::{NodeId, Tree};
use crate::{Dist, Requests};
use serde::{Deserialize, Serialize};

/// Sentinel parent index of the root.
pub const NO_PARENT: u32 = u32::MAX;

/// One record of a parents-first tree stream consumed by
/// [`TreeArena::rebuild_from_stream`].
///
/// Records are implicitly numbered `0, 1, 2, …` in emission order; the first
/// record is the root (its `parent` must be [`NO_PARENT`] and its `edge` is
/// ignored — the root has no upward edge) and every later record must name a
/// previously emitted parent (`parent < id`), which makes the stream
/// cycle-free by construction. Children end up ordered by emission, matching
/// the insertion order of [`crate::TreeBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamNode {
    /// Index of the parent record, [`NO_PARENT`] for the root.
    pub parent: u32,
    /// Length of the edge towards the parent.
    pub edge: Dist,
    /// Requests issued (clients only; ignored for internal nodes).
    pub requests: Requests,
    /// Whether the node is a client leaf.
    pub is_client: bool,
}

/// Dense, `Vec`-indexed tree storage (see the module docs).
///
/// All arrays are indexed by `NodeId::index()`; sequences hold raw `u32`
/// node indices to keep them copy-cheap in the solver inner loops.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TreeArena {
    /// Post-order sequence (children before parents).
    post: Vec<u32>,
    /// `post_pos[v]` — position of `v` in [`TreeArena::post`].
    post_pos: Vec<u32>,
    /// Pre-order sequence (parents before children).
    pre: Vec<u32>,
    /// `pre_pos[v]` — position of `v` in [`TreeArena::pre`].
    pre_pos: Vec<u32>,
    /// Number of nodes in `subtree(v)`, including `v`.
    subtree_size: Vec<u32>,
    /// Parent index, [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Length of the edge towards the parent (0 for the root).
    edge: Vec<Dist>,
    /// Depth in edges (0 for the root; for a sub-arena built by
    /// [`TreeArena::rebuild_subtree`], the depth in the *source* tree).
    depth: Vec<u32>,
    /// Distance to the root along tree edges (for a sub-arena, the distance
    /// to the *source* root — solvers only ever use differences).
    root_dist: Vec<Dist>,
    /// Children of every node, flattened; node `v` owns
    /// `child_list[child_start[v] .. child_start[v + 1]]`.
    child_list: Vec<u32>,
    /// Offsets into [`TreeArena::child_list`]; length `n + 1`.
    child_start: Vec<u32>,
    /// Requests issued by each node (0 for internal nodes).
    requests: Vec<Requests>,
    /// Whether each node is a client leaf.
    is_client: Vec<bool>,
    /// For a sub-arena built by [`TreeArena::rebuild_subtree`]: the *global*
    /// id (in the source arena) of every local node, indexed by local id.
    /// Since local ids are global-id ranks, this is simply the subtree's
    /// global ids in ascending order. Empty for a stream-built arena.
    origin: Vec<u32>,
}

impl TreeArena {
    /// Rebuilds the arena from a parents-first stream of [`StreamNode`]
    /// records (see that type for the stream contract). `size_hint`
    /// pre-sizes the arrays (pass the exact node count when known —
    /// generator streams know theirs — or 0).
    ///
    /// # Errors
    ///
    /// These are the errors of [`Tree`] freezing: [`TreeError::Empty`],
    /// [`TreeError::RootNotInternal`], [`TreeError::UnknownParent`] (forward
    /// or self reference, or a non-sentinel root parent),
    /// [`TreeError::ClientHasChildren`], [`TreeError::RequestsTooLarge`] and
    /// [`TreeError::TooManyNodes`] once the stream (or `size_hint`) exceeds
    /// the u32 index budget. On error the arena is left cleared.
    pub fn rebuild_from_stream<I>(&mut self, size_hint: usize, nodes: I) -> Result<(), TreeError>
    where
        I: IntoIterator<Item = StreamNode>,
    {
        match self.try_rebuild_from_stream(size_hint, nodes) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.clear();
                Err(e)
            }
        }
    }

    fn try_rebuild_from_stream<I>(&mut self, size_hint: usize, nodes: I) -> Result<(), TreeError>
    where
        I: IntoIterator<Item = StreamNode>,
    {
        if size_hint > Tree::MAX_NODES {
            return Err(TreeError::TooManyNodes(size_hint));
        }
        self.clear();
        let hint = size_hint.min(Tree::MAX_NODES);
        self.parent.reserve(hint);
        self.edge.reserve(hint);
        self.depth.reserve(hint);
        self.root_dist.reserve(hint);
        self.requests.reserve(hint);
        self.is_client.reserve(hint);

        for node in nodes {
            let id = self.parent.len();
            if id >= Tree::MAX_NODES {
                return Err(TreeError::TooManyNodes(id + 1));
            }
            if id == 0 {
                if node.is_client {
                    return Err(TreeError::RootNotInternal);
                }
                if node.parent != NO_PARENT {
                    return Err(TreeError::UnknownParent(NodeId(0)));
                }
            } else {
                if node.parent as usize >= id {
                    return Err(TreeError::UnknownParent(NodeId(id as u32)));
                }
                if self.is_client[node.parent as usize] {
                    return Err(TreeError::ClientHasChildren(NodeId(node.parent)));
                }
            }
            let requests = if node.is_client { node.requests } else { 0 };
            if requests > Tree::MAX_REQUESTS {
                return Err(TreeError::RequestsTooLarge(NodeId(id as u32)));
            }
            let (edge, depth, root_dist) = if id == 0 {
                (0, 0, 0)
            } else {
                let p = node.parent as usize;
                (node.edge, self.depth[p] + 1, self.root_dist[p].saturating_add(node.edge))
            };
            self.parent.push(if id == 0 { NO_PARENT } else { node.parent });
            self.edge.push(edge);
            self.depth.push(depth);
            self.root_dist.push(root_dist);
            self.requests.push(requests);
            self.is_client.push(node.is_client);
        }
        let n = self.parent.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }

        // Children CSR by counting sort: every child names a smaller parent
        // and ids are scanned in order, so each child range comes out in
        // emission order — the same order `TreeBuilder` records children.
        resize_with(&mut self.child_start, n + 1, 0);
        for v in 1..n {
            self.child_start[self.parent[v] as usize + 1] += 1;
        }
        for v in 0..n {
            self.child_start[v + 1] += self.child_start[v];
        }
        resize_with(&mut self.child_list, n.saturating_sub(1), 0);
        let mut cursor: Vec<u32> = self.child_start[..n].to_vec();
        for v in 1..n {
            let p = self.parent[v] as usize;
            self.child_list[cursor[p] as usize] = v as u32;
            cursor[p] += 1;
        }

        // Traversal orders by iterative DFS over the CSR (emission order is
        // only parents-first, not necessarily a pre-order with contiguous
        // subtrees, so the orders cannot be taken from the stream).
        self.pre.clear();
        self.pre.reserve(n);
        self.post.clear();
        self.post.reserve(n);
        let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
        self.pre.push(0);
        while let Some((v, child_idx)) = stack.pop() {
            let children = {
                let lo = self.child_start[v as usize] as usize;
                let hi = self.child_start[v as usize + 1] as usize;
                &self.child_list[lo..hi]
            };
            if (child_idx as usize) < children.len() {
                let c = children[child_idx as usize];
                stack.push((v, child_idx + 1));
                self.pre.push(c);
                stack.push((c, 0));
            } else {
                self.post.push(v);
            }
        }

        self.index_orders();
        self.build_subtree_sizes();
        Ok(())
    }

    /// Rebuilds this arena as the restriction of `src` to `subtree(f)`.
    ///
    /// Local node ids are assigned by **global-id rank** inside the subtree:
    /// sort the subtree's global ids and let `local(g)` be the rank of `g`.
    /// Raw-id comparisons on local ids then order exactly like the global ids
    /// they stand for — the solvers use raw ids as deterministic tie-breaks,
    /// so rank mapping keeps a sub-arena solve bit-identical to the same
    /// scope solved in the full arena. Ids are handed out parents-first, so
    /// every ancestor's id is smaller than its descendants' and `f` (the
    /// minimum of its subtree) is always local id 0. Mapping back is
    /// [`TreeArena::origin`]. Depth and root distance keep their *global*
    /// values (see the module docs); the local root's parent is [`NO_PARENT`]
    /// and its upward edge is 0, so callers that need to know whether
    /// requests may travel above `f` must consult `src` themselves.
    pub fn rebuild_subtree(&mut self, src: &TreeArena, f: u32) {
        let sub = src.subtree_pre(f);
        let m = sub.len();
        let mut origin = std::mem::take(&mut self.origin);
        origin.clear();
        origin.extend_from_slice(sub);
        origin.sort_unstable();
        debug_assert_eq!(origin[0], f, "ids are parents-first, so f is minimal in its subtree");
        let local = |g: u32| origin.binary_search(&g).expect("node is in subtree(f)") as u32;

        self.pre.clear();
        self.pre.extend(sub.iter().map(|&g| local(g)));
        self.post.clear();
        self.post.extend(src.subtree_post(f).iter().map(|&g| local(g)));

        resize_with(&mut self.parent, m, NO_PARENT);
        resize_with(&mut self.edge, m, 0);
        resize_with(&mut self.depth, m, 0);
        resize_with(&mut self.root_dist, m, 0);
        resize_with(&mut self.requests, m, 0);
        resize_with(&mut self.is_client, m, false);
        self.child_start.clear();
        self.child_start.reserve(m + 1);
        self.child_list.clear();
        self.child_list.reserve(m.saturating_sub(1));
        for (v, &g) in origin.iter().enumerate() {
            let gi = g as usize;
            if g != f {
                self.parent[v] = local(src.parent[gi]);
                self.edge[v] = src.edge[gi];
            }
            self.depth[v] = src.depth[gi];
            self.root_dist[v] = src.root_dist[gi];
            self.requests[v] = src.requests[gi];
            self.is_client[v] = src.is_client[gi];
            self.child_start.push(self.child_list.len() as u32);
            self.child_list.extend(src.children(g).iter().map(|&c| local(c)));
        }
        self.child_start.push(self.child_list.len() as u32);
        self.origin = origin;

        self.index_orders();
        self.build_subtree_sizes();
    }

    /// Drops all nodes, leaving an unbuilt arena (capacities are kept).
    fn clear(&mut self) {
        self.post.clear();
        self.post_pos.clear();
        self.pre.clear();
        self.pre_pos.clear();
        self.subtree_size.clear();
        self.parent.clear();
        self.edge.clear();
        self.depth.clear();
        self.root_dist.clear();
        self.child_list.clear();
        self.child_start.clear();
        self.requests.clear();
        self.is_client.clear();
        self.origin.clear();
    }

    /// Fills `post_pos` / `pre_pos` from the traversal sequences.
    fn index_orders(&mut self) {
        let n = self.post.len();
        resize_with(&mut self.post_pos, n, 0);
        resize_with(&mut self.pre_pos, n, 0);
        for (pos, &v) in self.post.iter().enumerate() {
            self.post_pos[v as usize] = pos as u32;
        }
        for (pos, &v) in self.pre.iter().enumerate() {
            self.pre_pos[v as usize] = pos as u32;
        }
    }

    /// Subtree sizes in one post-order pass: children are final before their
    /// parent is visited.
    fn build_subtree_sizes(&mut self) {
        let n = self.post.len();
        resize_with(&mut self.subtree_size, n, 0);
        for pos in 0..n {
            let v = self.post[pos];
            let mut size = 1u32;
            for &c in self.children(v) {
                size += self.subtree_size[c as usize];
            }
            self.subtree_size[v as usize] = size;
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.post.len()
    }

    /// Whether the arena describes a root-only tree (or was never built).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.post.len() <= 1
    }

    /// The full post-order sequence (children before parents).
    #[inline]
    pub fn postorder(&self) -> &[u32] {
        &self.post
    }

    /// The full pre-order sequence (parents before children).
    #[inline]
    pub fn preorder(&self) -> &[u32] {
        &self.pre
    }

    /// Local→global id mapping of a sub-arena built by
    /// [`TreeArena::rebuild_subtree`]: `origin()[local]` is the id of the
    /// node in the source arena. Local ids are global-id ranks, so this is
    /// the subtree's global ids in ascending order and the inverse mapping
    /// is a binary search. Empty for a stream-built arena.
    #[inline]
    pub fn origin(&self) -> &[u32] {
        &self.origin
    }

    /// `subtree(v)` as a slice in children-before-parent order (`v` last).
    #[inline]
    pub fn subtree_post(&self, v: u32) -> &[u32] {
        let end = self.post_pos[v as usize] as usize + 1;
        let start = end - self.subtree_size[v as usize] as usize;
        &self.post[start..end]
    }

    /// `subtree(v)` as a slice in parent-before-children order (`v` first).
    #[inline]
    pub fn subtree_pre(&self, v: u32) -> &[u32] {
        let start = self.pre_pos[v as usize] as usize;
        &self.pre[start..start + self.subtree_size[v as usize] as usize]
    }

    /// Number of nodes in `subtree(v)`.
    #[inline]
    pub fn subtree_size(&self, v: u32) -> usize {
        self.subtree_size[v as usize] as usize
    }

    /// Position of `v` in the post-order sequence. Together with
    /// [`TreeArena::subtree_size`] this localises `v` inside any enclosing
    /// subtree slice: `post_position(v) - post_position(first(sub))` is its
    /// index in `subtree_post(j)` for every ancestor `j`.
    #[inline]
    pub fn post_position(&self, v: u32) -> usize {
        self.post_pos[v as usize] as usize
    }

    /// Position of `v` in the pre-order sequence — the key of the canonical
    /// placement order (see the module docs).
    #[inline]
    pub fn pre_position(&self, v: u32) -> usize {
        self.pre_pos[v as usize] as usize
    }

    /// Children of `v`, in insertion order.
    #[inline]
    pub fn children(&self, v: u32) -> &[u32] {
        let lo = self.child_start[v as usize] as usize;
        let hi = self.child_start[v as usize + 1] as usize;
        &self.child_list[lo..hi]
    }

    /// Parent index of `v`, or [`NO_PARENT`] for the root.
    #[inline]
    pub fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// Length of the edge from `v` towards its parent.
    #[inline]
    pub fn edge(&self, v: u32) -> Dist {
        self.edge[v as usize]
    }

    /// Depth of `v` in edges.
    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    /// Distance from `v` to the root along tree edges.
    #[inline]
    pub fn root_dist(&self, v: u32) -> Dist {
        self.root_dist[v as usize]
    }

    /// Requests issued by `v` (0 for internal nodes).
    #[inline]
    pub fn requests(&self, v: u32) -> Requests {
        self.requests[v as usize]
    }

    /// Whether `v` is a client leaf.
    #[inline]
    pub fn is_client(&self, v: u32) -> bool {
        self.is_client[v as usize]
    }

    /// Overwrites the requests issued by the client `v` — the mutation
    /// behind the serving tier's demand deltas (`rp_core`'s serve engine):
    /// topology, edges and every derived array are demand-independent, so
    /// no rebuild is needed and all traversal structures stay valid.
    ///
    /// # Panics
    ///
    /// If `v` is not a client leaf, or `requests` exceeds
    /// [`Tree::MAX_REQUESTS`] (the solvers' `u64` summation guard, the same
    /// bound [`TreeArena::rebuild_from_stream`] enforces). Callers are
    /// expected to validate first — the serving engine maps both cases to
    /// structured errors before ever reaching this method.
    pub fn set_requests(&mut self, v: u32, requests: Requests) {
        assert!(self.is_client[v as usize], "set_requests targets a client leaf");
        assert!(requests <= Tree::MAX_REQUESTS, "requests exceed Tree::MAX_REQUESTS");
        self.requests[v as usize] = requests;
    }

    /// Whether `ancestor` lies on the path from `node` to the root
    /// (inclusive of `node` itself). O(1) via pre-order intervals.
    #[inline]
    pub fn is_ancestor_or_self(&self, ancestor: u32, node: u32) -> bool {
        let a = self.pre_pos[ancestor as usize];
        let d = self.pre_pos[node as usize];
        d >= a && d < a + self.subtree_size[ancestor as usize]
    }

    /// Per-node *deadline* under the distance bound `dmax`: the highest
    /// ancestor `a` with `root_dist(v) - root_dist(a) ≤ dmax`, i.e. the last
    /// node allowed to serve requests issued at `v` (requests travelling
    /// upwards get stuck exactly there; the paper's `δ_r = +∞` means nothing
    /// travels above the root, which for a sub-arena is its local root).
    /// With `dmax = None` every deadline is the root.
    ///
    /// One pre-order pass keeps the current root path as a stack of
    /// `(root_dist, node)`. Root distances never decrease down a path, so
    /// the ancestors within `dmax` form a suffix of the stack and the
    /// deadline is its head, found by binary search: O(n log depth) time,
    /// O(depth) transient memory.
    ///
    /// Only client rows are meaningful to the solvers, but the array is
    /// filled for every node so it can be indexed without guards.
    pub fn compute_deadlines(&self, dmax: Option<Dist>, out: &mut Vec<u32>) {
        let n = self.len();
        resize_with(out, n, 0);
        let Some(&root) = self.pre.first() else { return };
        let Some(dmax) = dmax else {
            out.fill(root);
            return;
        };
        let top = self.depth[root as usize];
        let mut path: Vec<(Dist, u32)> = Vec::new();
        for &v in &self.pre {
            let from = self.root_dist[v as usize];
            path.truncate((self.depth[v as usize] - top) as usize);
            path.push((from, v));
            let head = path.partition_point(|&(d, _)| from - d > dmax);
            out[v as usize] = path[head].1;
        }
    }
}

/// `vec.clear(); vec.resize(n, fill)` — keeps capacity, drops stale content.
fn resize_with<T: Clone>(vec: &mut Vec<T>, n: usize, fill: T) {
    vec.clear();
    vec.resize(n, fill);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn sample() -> Tree {
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

    /// The sample tree as the stream `rebuild_from_stream` expects (node ids
    /// are emission order, so this matches the builder's id assignment).
    fn sample_stream() -> Vec<StreamNode> {
        vec![
            StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false },
            StreamNode { parent: 0, edge: 2, requests: 0, is_client: false },
            StreamNode { parent: 1, edge: 1, requests: 5, is_client: true },
            StreamNode { parent: 1, edge: 3, requests: 7, is_client: true },
            StreamNode { parent: 0, edge: 4, requests: 2, is_client: true },
        ]
    }

    fn deadlines(arena: &TreeArena, dmax: Option<Dist>) -> Vec<u32> {
        let mut out = Vec::new();
        arena.compute_deadlines(dmax, &mut out);
        out
    }

    /// Whether `a`'s parent walk from `v` reaches `a` (inclusive).
    fn walk_reaches(arena: &TreeArena, mut v: u32, a: u32) -> bool {
        loop {
            if v == a {
                return true;
            }
            if arena.parent(v) == NO_PARENT {
                return false;
            }
            v = arena.parent(v);
        }
    }

    #[test]
    fn subtree_slices_match_tree_subtrees() {
        let tree = sample();
        let arena = tree.arena();
        let n = arena.len() as u32;
        for j in 0..n {
            let expected: Vec<u32> = (0..n).filter(|&v| walk_reaches(arena, v, j)).collect();
            let mut post: Vec<u32> = arena.subtree_post(j).to_vec();
            post.sort_unstable();
            assert_eq!(post, expected, "post slice of {j}");
            let mut pre: Vec<u32> = arena.subtree_pre(j).to_vec();
            pre.sort_unstable();
            assert_eq!(pre, expected, "pre slice of {j}");
            assert_eq!(arena.subtree_size(j), expected.len());
            // Slice orders respect the child/parent discipline.
            assert_eq!(*arena.subtree_post(j).last().unwrap(), j);
            assert_eq!(arena.subtree_pre(j)[0], j);
        }
    }

    #[test]
    fn ancestor_test_matches_tree_walk() {
        let tree = sample();
        let arena = tree.arena();
        for a in 0..arena.len() as u32 {
            for d in 0..arena.len() as u32 {
                assert_eq!(
                    arena.is_ancestor_or_self(a, d),
                    walk_reaches(arena, d, a),
                    "ancestor({a}, {d})"
                );
            }
        }
    }

    #[test]
    fn deadlines_match_the_walking_definition() {
        let tree = sample();
        let arena = tree.arena();
        let mut out = Vec::new();
        arena.compute_deadlines(None, &mut out);
        assert!(out.iter().all(|&d| d == 0), "unconstrained deadline is the root");
        // dmax = 4: c2 (dist 3 to root) reaches the root; c3 (dist 5) stops
        // at n1 (dist 3 ≤ 4 over its edge of 3... c3->n1 = 3 ≤ 4, n1->root
        // adds 2 → 5 > 4); c4 (edge 4) reaches the root exactly.
        arena.compute_deadlines(Some(4), &mut out);
        assert_eq!(out[2], 0);
        assert_eq!(out[3], 1);
        assert_eq!(out[4], 0);
        // dmax = 2: c3 and c4 cannot even reach their parents.
        arena.compute_deadlines(Some(2), &mut out);
        assert_eq!(out[2], 1);
        assert_eq!(out[3], 3);
        assert_eq!(out[4], 4);
    }

    #[test]
    fn compute_deadlines_matches_parent_walks() {
        let tree = sample();
        let arena = tree.arena();
        for dmax in [0, 2, 3, 4, 5, 100] {
            let out = deadlines(arena, Some(dmax));
            for v in 0..arena.len() as u32 {
                let mut at = v;
                while arena.parent(at) != NO_PARENT
                    && arena.root_dist(v) - arena.root_dist(arena.parent(at)) <= dmax
                {
                    at = arena.parent(at);
                }
                assert_eq!(out[v as usize], at, "deadline({v}, {dmax})");
            }
        }
    }

    #[test]
    fn root_only_tree() {
        let tree = TreeBuilder::new().freeze().unwrap();
        let arena = tree.arena();
        assert!(arena.is_empty());
        assert_eq!(arena.subtree_post(0), &[0]);
        assert_eq!(arena.subtree_pre(0), &[0]);
        assert_eq!(arena.children(0), &[] as &[u32]);
        assert_eq!(deadlines(arena, None), [0]);
        assert_eq!(deadlines(arena, Some(3)), [0]);
    }

    /// The sample tree's arrays, written out by hand.
    fn assert_is_sample(arena: &TreeArena) {
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.preorder(), &[0, 1, 2, 3, 4]);
        assert_eq!(arena.postorder(), &[2, 3, 1, 4, 0]);
        assert_eq!(arena.children(0), &[1, 4]);
        assert_eq!(arena.children(1), &[2, 3]);
        for v in 0..5u32 {
            let expected = [NO_PARENT, 0, 1, 1, 0][v as usize];
            assert_eq!(arena.parent(v), expected, "parent({v})");
            assert_eq!(arena.edge(v), [0, 2, 1, 3, 4][v as usize], "edge({v})");
            assert_eq!(arena.depth(v), [0, 1, 2, 2, 1][v as usize], "depth({v})");
            assert_eq!(arena.root_dist(v), [0, 2, 3, 5, 4][v as usize], "root_dist({v})");
            assert_eq!(arena.requests(v), [0, 0, 5, 7, 2][v as usize], "requests({v})");
            assert_eq!(arena.is_client(v), v >= 2, "is_client({v})");
            assert_eq!(arena.subtree_size(v), [5, 3, 1, 1, 1][v as usize], "subtree_size({v})");
        }
        assert_eq!(deadlines(arena, Some(4)), [0, 0, 0, 1, 0]);
    }

    #[test]
    fn stream_build_matches_tree_build() {
        assert_is_sample(sample().arena());
        let mut streamed = TreeArena::default();
        streamed.rebuild_from_stream(5, sample_stream()).unwrap();
        assert_is_sample(&streamed);
        // size_hint is advisory: 0 works too.
        streamed.rebuild_from_stream(0, sample_stream()).unwrap();
        assert_is_sample(&streamed);
    }

    #[test]
    fn stream_build_of_single_node_tree() {
        let mut arena = TreeArena::default();
        arena
            .rebuild_from_stream(
                1,
                [StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false }],
            )
            .unwrap();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.parent(0), NO_PARENT);
        assert_eq!(arena.subtree_post(0), &[0]);
    }

    #[test]
    fn stream_build_validates_like_tree_freezing() {
        let mut arena = TreeArena::default();
        let empty: [StreamNode; 0] = [];
        assert_eq!(arena.rebuild_from_stream(0, empty), Err(TreeError::Empty));
        assert_eq!(
            arena.rebuild_from_stream(
                1,
                [StreamNode { parent: NO_PARENT, edge: 0, requests: 3, is_client: true }]
            ),
            Err(TreeError::RootNotInternal)
        );
        let root = StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false };
        assert_eq!(
            arena.rebuild_from_stream(
                2,
                [root, StreamNode { parent: 5, edge: 1, requests: 0, is_client: false }]
            ),
            Err(TreeError::UnknownParent(NodeId(1)))
        );
        assert_eq!(
            arena.rebuild_from_stream(
                3,
                [
                    root,
                    StreamNode { parent: 0, edge: 1, requests: 2, is_client: true },
                    StreamNode { parent: 1, edge: 1, requests: 2, is_client: true },
                ]
            ),
            Err(TreeError::ClientHasChildren(NodeId(1)))
        );
        assert_eq!(
            arena.rebuild_from_stream(
                2,
                [root, StreamNode { parent: 0, edge: 1, requests: u64::MAX, is_client: true }]
            ),
            Err(TreeError::RequestsTooLarge(NodeId(1)))
        );
        // The u32 index budget is checked before any allocation happens.
        assert_eq!(
            arena.rebuild_from_stream(Tree::MAX_NODES + 1, empty),
            Err(TreeError::TooManyNodes(Tree::MAX_NODES + 1))
        );
        // A failed rebuild leaves the arena cleared, and it remains usable.
        assert_eq!(arena.len(), 0);
        arena.rebuild_from_stream(5, sample_stream()).unwrap();
        assert_eq!(arena.len(), 5);
    }

    #[test]
    fn stream_build_accepts_non_preorder_emission() {
        // Parents-first but *not* a DFS order: both internal nodes first,
        // then the clients interleaved across subtrees. The arena must
        // compute real traversal orders rather than trusting emission order.
        let mut arena = TreeArena::default();
        arena
            .rebuild_from_stream(
                6,
                [
                    StreamNode { parent: NO_PARENT, edge: 0, requests: 0, is_client: false },
                    StreamNode { parent: 0, edge: 1, requests: 0, is_client: false },
                    StreamNode { parent: 0, edge: 2, requests: 0, is_client: false },
                    StreamNode { parent: 1, edge: 1, requests: 4, is_client: true },
                    StreamNode { parent: 2, edge: 1, requests: 5, is_client: true },
                    StreamNode { parent: 1, edge: 2, requests: 6, is_client: true },
                ],
            )
            .unwrap();
        // Pre-order: root, first subtree (n1, c3, c5), second (n2, c4).
        assert_eq!(arena.preorder(), &[0, 1, 3, 5, 2, 4]);
        assert_eq!(arena.postorder(), &[3, 5, 1, 4, 2, 0]);
        assert_eq!(arena.subtree_size(1), 3);
        assert!(arena.is_ancestor_or_self(1, 5));
        assert!(!arena.is_ancestor_or_self(1, 4));
    }

    #[test]
    fn subtree_rebuild_restricts_and_relabels() {
        let tree = sample();
        let src = tree.arena();
        let mut sub = TreeArena::default();
        // subtree(n1) = {n1, c2, c3} with local ids 0, 1, 2 (pre-order).
        sub.rebuild_subtree(src, 1);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.preorder(), &[0, 1, 2]);
        assert_eq!(sub.postorder(), &[1, 2, 0]);
        assert_eq!(sub.parent(0), NO_PARENT);
        assert_eq!(sub.edge(0), 0, "the local root keeps no upward edge");
        assert_eq!(sub.children(0), &[1, 2]);
        assert_eq!(sub.parent(1), 0);
        assert_eq!(sub.edge(1), 1);
        assert_eq!(sub.requests(2), 7);
        // Depth and root distance stay global.
        assert_eq!(sub.depth(0), src.depth(1));
        assert_eq!(sub.depth(1), src.depth(2));
        assert_eq!(sub.root_dist(2), src.root_dist(3));
        // Deadlines computed locally clamp at the local root even though
        // depths are global; distances are differences of global root
        // distances, so they match the full tree wherever the full tree's
        // deadline lies inside the subtree.
        assert_eq!(deadlines(&sub, Some(4))[2], 0, "c3's global deadline is n1");
        assert_eq!(deadlines(src, Some(4))[3], 1);
        assert_eq!(deadlines(&sub, Some(2))[2], 2, "c3 cannot even reach n1 under dmax=2");
        assert_eq!(deadlines(&sub, Some(2))[1], 0, "c2 reaches n1 under dmax=2");
        assert_eq!(deadlines(&sub, Some(100)), [0, 0, 0], "nothing climbs past the local root");
        // The local→global mapping is the subtree's ids in ascending order.
        assert_eq!(sub.origin(), &[1, 2, 3]);
        assert!(src.origin().is_empty(), "only sub-arenas carry a mapping");
    }

    #[test]
    fn subtree_rebuild_assigns_local_ids_by_global_id_rank() {
        // Ids are assigned breadth-first here, so inside subtree(1) the
        // pre-order [1, 2, 4, 3] differs from the id order [1, 2, 3, 4]:
        //         0
        //         |
        //         1
        //        / \
        //       2   3
        //       |
        //       4 (client)
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_internal(root, 1);
        let l = b.add_internal(a, 2);
        let r = b.add_internal(a, 3);
        let c = b.add_client(l, 4, 9);
        let tree = b.freeze().unwrap();
        let src = tree.arena();
        assert_eq!(src.subtree_pre(a.0), &[1, 2, 4, 3], "pre-order differs from id order");

        let mut sub = TreeArena::default();
        sub.rebuild_subtree(src, a.0);
        // Local ids are ranks of the global ids, not pre-positions.
        assert_eq!(sub.origin(), &[1, 2, 3, 4]);
        assert_eq!(sub.preorder(), &[0, 1, 3, 2]);
        assert_eq!(sub.postorder(), &[3, 1, 2, 0]);
        assert_eq!(sub.parent(3), 1, "local c hangs off local l");
        assert_eq!(sub.children(0), &[1, 2]);
        assert_eq!(sub.edge(3), src.edge(c.0));
        assert!(sub.is_client(3));
        assert_eq!(sub.requests(3), 9);
        assert_eq!(sub.depth(3), src.depth(c.0), "global depth preserved");
        assert_eq!(sub.root_dist(2), src.root_dist(r.0));
        // Raw-id order of local ids matches raw-id order of the globals.
        let mut pairs: Vec<(u32, u32)> =
            sub.origin().iter().copied().enumerate().map(|(l, g)| (l as u32, g)).collect();
        pairs.sort_by_key(|&(l, _)| l);
        assert!(pairs.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn subtree_rebuild_of_a_leaf_child() {
        let tree = sample();
        let src = tree.arena();
        let mut sub = TreeArena::default();
        sub.rebuild_subtree(src, 4);
        assert_eq!(sub.len(), 1);
        assert!(sub.is_client(0));
        assert_eq!(sub.requests(0), 2);
        assert_eq!(sub.parent(0), NO_PARENT);
        assert_eq!(sub.depth(0), 1, "global depth preserved");
    }
}
