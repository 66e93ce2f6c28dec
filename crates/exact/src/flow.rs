//! A small Dinic max-flow implementation.
//!
//! Used as the feasibility oracle of the exact Multiple-policy solver: with a
//! fixed replica set, deciding whether every client's requests can be split
//! over its eligible servers without exceeding any capacity is a bipartite
//! transportation problem, i.e. a max-flow instance.
//!
//! The implementation is deliberately simple (adjacency lists of edge indices,
//! BFS level graph, DFS blocking flow) — networks built by the solver have at
//! most a few hundred edges.

/// Sentinel for an effectively unbounded edge capacity.
pub const INF: u64 = u64::MAX / 4;

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: u64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A flow network under construction / being solved.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    graph: Vec<Vec<Edge>>,
    /// `(from, index in graph[from])` of every forward edge, in insertion order.
    edge_handles: Vec<(usize, usize)>,
}

/// Handle to an edge added with [`FlowNetwork::add_edge`], usable to query
/// the flow pushed through it after [`FlowNetwork::max_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle(usize);

impl FlowNetwork {
    /// Creates a network with `nodes` vertices and no edges.
    pub fn new(nodes: usize) -> Self {
        FlowNetwork { graph: vec![Vec::new(); nodes], edge_handles: Vec::new() }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the network has no vertices.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Adds a directed edge `from → to` with the given capacity and returns a
    /// handle to query its final flow.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> EdgeHandle {
        assert!(from < self.graph.len() && to < self.graph.len(), "edge endpoints out of range");
        assert_ne!(from, to, "self-loops are not supported");
        let from_idx = self.graph[from].len();
        let to_idx = self.graph[to].len();
        self.graph[from].push(Edge { to, cap, rev: to_idx });
        self.graph[to].push(Edge { to: from, cap: 0, rev: from_idx });
        self.edge_handles.push((from, from_idx));
        EdgeHandle(self.edge_handles.len() - 1)
    }

    /// Original capacity minus residual capacity of a forward edge, i.e. the
    /// flow currently pushed through it.
    pub fn flow_on(&self, handle: EdgeHandle) -> u64 {
        let (from, idx) = self.edge_handles[handle.0];
        let edge = &self.graph[from][idx];
        // Flow equals the capacity accumulated on the reverse edge.
        self.graph[edge.to][edge.rev].cap
    }

    /// Computes the maximum flow from `source` to `sink` (Dinic's algorithm).
    pub fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
        assert!(source < self.graph.len() && sink < self.graph.len());
        assert_ne!(source, sink);
        let n = self.graph.len();
        let mut total = 0u64;
        loop {
            // BFS: build level graph.
            let mut level = vec![usize::MAX; n];
            level[source] = 0;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                for e in &self.graph[v] {
                    if e.cap > 0 && level[e.to] == usize::MAX {
                        level[e.to] = level[v] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[sink] == usize::MAX {
                break;
            }
            // DFS blocking flow with iteration pointers.
            let mut iter = vec![0usize; n];
            loop {
                let pushed = self.dfs(source, sink, INF, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total = total.saturating_add(pushed);
            }
        }
        total
    }

    fn dfs(
        &mut self,
        v: usize,
        sink: usize,
        limit: u64,
        level: &[usize],
        iter: &mut [usize],
    ) -> u64 {
        if v == sink {
            return limit;
        }
        while iter[v] < self.graph[v].len() {
            let (to, cap, rev) = {
                let e = &self.graph[v][iter[v]];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && level[v] + 1 == level[to] {
                let pushed = self.dfs(to, sink, limit.min(cap), level, iter);
                if pushed > 0 {
                    self.graph[v][iter[v]].cap -= pushed;
                    self.graph[to][rev].cap += pushed;
                    return pushed;
                }
            }
            iter[v] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow_on(e), 7);
    }

    #[test]
    fn series_edges_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10);
        let e = net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.flow_on(e), 4);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 5);
        net.add_edge(1, 3, 3);
        net.add_edge(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 8);
    }

    #[test]
    fn classic_augmenting_path_crossover() {
        // The classic example that needs a residual (backwards) step.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn bipartite_transportation_instance() {
        // 2 supplies (4 and 6), 3 demands with capacities 5, 3, 2; the first
        // supply can reach only the first two demands.
        // source 0, supplies 1-2, demands 3-5, sink 6
        let mut net = FlowNetwork::new(7);
        net.add_edge(0, 1, 4);
        net.add_edge(0, 2, 6);
        net.add_edge(1, 3, INF);
        net.add_edge(1, 4, INF);
        net.add_edge(2, 3, INF);
        net.add_edge(2, 4, INF);
        net.add_edge(2, 5, INF);
        net.add_edge(3, 6, 5);
        net.add_edge(4, 6, 3);
        net.add_edge(5, 6, 2);
        assert_eq!(net.max_flow(0, 6), 10);
    }

    #[test]
    fn flow_conservation_on_handles() {
        let mut net = FlowNetwork::new(5);
        let a = net.add_edge(0, 1, 9);
        let b = net.add_edge(0, 2, 9);
        let c = net.add_edge(1, 3, 6);
        let d = net.add_edge(2, 3, 2);
        let e = net.add_edge(3, 4, 7);
        let value = net.max_flow(0, 4);
        assert_eq!(value, 7);
        assert_eq!(net.flow_on(e), 7);
        assert_eq!(net.flow_on(a) + net.flow_on(b), 7);
        assert_eq!(net.flow_on(c) + net.flow_on(d), 7);
        assert!(net.flow_on(c) <= 6 && net.flow_on(d) <= 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(1, 1, 1);
    }
}
