//! Seeded inputs. The harness owns its generators (a splitmix64 stream and
//! two tree families built through `rp_tree::TreeBuilder`), so one `--seed`
//! gives the same instances whatever the repository's own generators do.

use rp_tree::{Instance, NodeId, Solution, TreeBuilder};

/// splitmix64: small, fast and fully determined by its seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        let span = u128::from(hi - lo) + 1;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as u64
    }
}

/// One node of a generated tree; `parent` is `None` only for the root.
pub struct Node {
    pub parent: Option<u32>,
    pub edge: u64,
    /// `Some(requests)` for a client leaf.
    pub requests: Option<u64>,
}

/// A generated instance as rows in insertion order (every parent before
/// its children), so row `i` becomes `NodeId(i)` in `TreeBuilder`.
pub struct Spec {
    pub nodes: Vec<Node>,
    pub capacity: u64,
    pub dmax: Option<u64>,
}

impl Spec {
    fn new_root() -> Vec<Node> {
        vec![Node { parent: None, edge: 0, requests: None }]
    }

    fn push(nodes: &mut Vec<Node>, parent: u32, edge: u64, requests: Option<u64>) -> u32 {
        nodes.push(Node { parent: Some(parent), edge, requests });
        (nodes.len() - 1) as u32
    }

    /// Random full binary tree with `clients` leaves in regions of at most
    /// `region` leaves: a backbone splits the leaf set in halves down to
    /// region size, and inside a region each split gives one side a random
    /// quarter to three quarters of the leaves. Edges are 1..=3 and
    /// requests 1..=9; the capacity is `ceil(avg requests ×
    /// clients_per_server)` and `dmax` the given fraction of the deepest
    /// client's distance to its region root. The edge into each region
    /// root is longer than `dmax`, so every region is served from inside
    /// and a solve is the sum of independent regional problems.
    pub fn regional_binary(
        clients: usize,
        region: usize,
        clients_per_server: f64,
        dmax_fraction: f64,
        shape: &mut SplitMix,
        demand: &mut SplitMix,
    ) -> Spec {
        assert!(clients >= 2, "the binary family needs at least two clients");
        let mut nodes = Self::new_root();
        let mut region_roots = Vec::new();
        let mut span = 0;
        // (node, leaves below it, its distance below its region root)
        let mut stack = vec![(0u32, clients as u64, 0u64)];
        while let Some((parent, leaves, depth)) = stack.pop() {
            let backbone = leaves > region as u64;
            let left = if backbone {
                leaves / 2
            } else {
                shape.range((leaves / 4).max(1), (leaves * 3 / 4).clamp(1, leaves - 1))
            };
            for part in [left, leaves - left] {
                let edge = shape.range(1, 3);
                // Below the backbone, distances restart at each region root.
                let child_depth = if backbone { 0 } else { depth + edge };
                let id = if part == 1 {
                    span = span.max(child_depth);
                    Self::push(&mut nodes, parent, edge, Some(demand.range(1, 9)))
                } else {
                    let id = Self::push(&mut nodes, parent, edge, None);
                    stack.push((id, part, child_depth));
                    id
                };
                if backbone && part <= region as u64 {
                    region_roots.push(id);
                }
            }
        }
        let total: u64 = nodes.iter().filter_map(|n| n.requests).sum();
        let largest = nodes.iter().filter_map(|n| n.requests).max().unwrap_or(1);
        let avg = total as f64 / clients as f64;
        let capacity = ((avg * clients_per_server).ceil() as u64).max(largest);
        let dmax = ((span as f64 * dmax_fraction).ceil() as u64).max(1);
        for r in region_roots {
            nodes[r as usize].edge = dmax + 1;
        }
        Spec { nodes, capacity, dmax: Some(dmax) }
    }

    /// Long caterpillar: one spine node per client, each hanging a single
    /// client (all edges 1, requests 1..=9), capacity 12 and no distance
    /// bound — one maximal chain stage at the root.
    pub fn spine(clients: usize, rng: &mut SplitMix) -> Spec {
        let mut nodes = Self::new_root();
        let mut spine = 0;
        for _ in 0..clients {
            spine = Self::push(&mut nodes, spine, 1, None);
            let requests = rng.range(1, 9);
            Self::push(&mut nodes, spine, 1, Some(requests));
        }
        Spec { nodes, capacity: 12, dmax: None }
    }

    /// Node ids of the client leaves, in id order.
    pub fn clients(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].requests.is_some())
            .collect()
    }

    pub fn total_requests(&self) -> u64 {
        self.nodes.iter().filter_map(|n| n.requests).sum()
    }

    pub fn instance(&self) -> Result<Instance, String> {
        let mut b = TreeBuilder::new();
        for n in &self.nodes[1..] {
            let parent = NodeId(n.parent.expect("non-root rows have parents"));
            match n.requests {
                Some(r) => b.add_client(parent, n.edge, r),
                None => b.add_internal(parent, n.edge),
            };
        }
        let tree = b.freeze().map_err(|e| format!("generated tree is invalid: {e}"))?;
        Instance::new(tree, self.capacity, self.dmax).map_err(|e| e.to_string())
    }

    /// Checks a Multiple-policy placement from the rows alone, independently
    /// of the solver's own validator: every fragment goes from a client to
    /// one of its ancestors within `dmax`, no server holds more than the
    /// capacity, every client is served exactly its demand, and the replica
    /// count is no lower than the volume bound allows.
    pub fn check(&self, solution: &Solution) -> Result<(), String> {
        let n = self.nodes.len();
        // Rows list parents first, so one backward pass sizes subtrees and
        // one forward pass numbers nodes in pre-order.
        let mut size = vec![1u32; n];
        for i in (1..n).rev() {
            size[self.parent(i)] += size[i];
        }
        let (mut pre, mut next, mut depth) = (vec![0u32; n], vec![1u32; n], vec![0u64; n]);
        for i in 1..n {
            let p = self.parent(i);
            pre[i] = next[p];
            next[p] += size[i];
            next[i] = pre[i] + 1;
            depth[i] = depth[p] + self.nodes[i].edge;
        }
        let mut load = vec![0u64; n];
        let mut served = vec![0u64; n];
        for f in solution.fragments() {
            let (c, s) = (f.client.index(), f.server.index());
            if c >= n || s >= n || self.nodes[c].requests.is_none() {
                return Err(format!("fragment {c} -> {s} does not start at a client"));
            }
            if pre[c] < pre[s] || pre[c] >= pre[s] + size[s] {
                return Err(format!("server {s} is not an ancestor of client {c}"));
            }
            if self.dmax.is_some_and(|d| depth[c] - depth[s] > d) {
                return Err(format!("client {c} is served beyond dmax by {s}"));
            }
            load[s] += f.amount;
            served[c] += f.amount;
        }
        if let Some(s) = (0..n).find(|&s| load[s] > self.capacity) {
            return Err(format!("server {s} carries {} > capacity {}", load[s], self.capacity));
        }
        if let Some(c) = (0..n).find(|&c| served[c] != self.nodes[c].requests.unwrap_or(0)) {
            return Err(format!("client {c} is served {} of its demand", served[c]));
        }
        let bound = self.total_requests().div_ceil(self.capacity) as usize;
        if solution.replica_count() < bound {
            return Err(format!(
                "{} replicas beat the volume bound {bound}",
                solution.replica_count()
            ));
        }
        Ok(())
    }

    fn parent(&self, i: usize) -> usize {
        self.nodes[i].parent.expect("non-root rows have parents") as usize
    }
}
