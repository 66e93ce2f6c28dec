//! Random tree generators with sampled requests and edge lengths.

use crate::dist::{EdgeDist, RequestDist};
use crate::stream::{
    binary_tree_len, instance_params_from_arena, stream_binary_tree, stream_kary_tree,
};
use rand::Rng;
use rp_tree::{Instance, NodeId, Tree, TreeBuilder};

/// Configuration of the general random-tree generator
/// ([`random_tree`]).
#[derive(Debug, Clone)]
pub struct RandomTreeConfig {
    /// Number of internal nodes to create (the root counts as one).
    pub internal_nodes: usize,
    /// Number of client leaves to attach.
    pub clients: usize,
    /// Maximum number of children of any node (the arity Δ of the instance).
    pub max_children: usize,
    /// Distribution of edge lengths.
    pub edge: EdgeDist,
    /// Distribution of client request counts.
    pub requests: RequestDist,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            internal_nodes: 16,
            clients: 32,
            max_children: 3,
            edge: EdgeDist::Constant(1),
            requests: RequestDist::Uniform { lo: 1, hi: 10 },
        }
    }
}

impl RandomTreeConfig {
    /// Whether the configuration can be realised: there must be enough child
    /// slots for the non-root internal nodes and the clients.
    pub fn is_feasible(&self) -> bool {
        self.internal_nodes >= 1
            && self.max_children >= 1
            && self
                .internal_nodes
                .checked_mul(self.max_children)
                .map(|slots| slots >= self.internal_nodes - 1 + self.clients)
                .unwrap_or(true)
    }
}

/// Generates a random tree with bounded arity.
///
/// Internal nodes are attached one by one, each to a uniformly random
/// already-placed internal node that still has a free child slot; clients are
/// attached the same way once the internal skeleton exists. This yields
/// "random recursive tree"–like shapes whose depth grows logarithmically,
/// which matches the hierarchical CDN topologies motivating the paper.
///
/// # Panics
///
/// Panics if the configuration is infeasible (see
/// [`RandomTreeConfig::is_feasible`]).
pub fn random_tree<R: Rng + ?Sized>(cfg: &RandomTreeConfig, rng: &mut R) -> Tree {
    assert!(cfg.is_feasible(), "infeasible random tree configuration: {cfg:?}");
    let mut b = TreeBuilder::new();
    let mut slots: Vec<(NodeId, usize)> = vec![(b.root(), cfg.max_children)];

    let attach = |b: &mut TreeBuilder,
                  slots: &mut Vec<(NodeId, usize)>,
                  rng: &mut R,
                  client: Option<u64>,
                  edge: u64| {
        let idx = rng.gen_range(0..slots.len());
        let (parent, remaining) = slots[idx];
        let id = match client {
            Some(r) => b.add_client(parent, edge, r),
            None => b.add_internal(parent, edge),
        };
        if remaining == 1 {
            slots.swap_remove(idx);
        } else {
            slots[idx].1 -= 1;
        }
        id
    };

    for _ in 1..cfg.internal_nodes {
        let edge = cfg.edge.sample(rng);
        let id = attach(&mut b, &mut slots, rng, None, edge);
        slots.push((id, cfg.max_children));
    }
    for _ in 0..cfg.clients {
        let edge = cfg.edge.sample(rng);
        let req = cfg.requests.sample(rng);
        attach(&mut b, &mut slots, rng, Some(req), edge);
    }
    b.freeze().expect("random construction is always a valid tree")
}

/// Generates a random *full binary* tree with exactly `clients` client
/// leaves and `clients - 1` internal nodes (plus the root when
/// `clients == 1`), by recursive random splitting of the leaf set: the
/// stream of [`stream_binary_tree`], frozen into a [`Tree`].
///
/// Every internal node has exactly two children, so the result is a valid
/// input for the `multiple-bin` algorithm (Multiple-Bin requires Δ ≤ 2).
pub fn random_binary_tree<R: Rng + ?Sized>(
    clients: usize,
    edge: &EdgeDist,
    requests: &RequestDist,
    rng: &mut R,
) -> Tree {
    let stream = stream_binary_tree(clients, edge, requests, rng);
    Tree::from_stream(binary_tree_len(clients), stream)
        .expect("binary construction is always a valid tree")
}

/// Generates a random tree where every internal node has between 2 and
/// `arity` children, with `clients` client leaves, by recursive random
/// splitting: the stream of [`stream_kary_tree`], frozen into a [`Tree`].
/// With `arity = 2` this is [`random_binary_tree`].
pub fn random_kary_tree<R: Rng + ?Sized>(
    clients: usize,
    arity: usize,
    edge: &EdgeDist,
    requests: &RequestDist,
    rng: &mut R,
) -> Tree {
    let stream = stream_kary_tree(clients, arity, edge, requests, rng);
    Tree::from_stream(0, stream).expect("k-ary construction is always a valid tree")
}

/// Wraps a tree into an [`Instance`], choosing the capacity so that roughly
/// `clients_per_server` average clients fit in one server, and `dmax` as the
/// given fraction of the maximum client→root distance (`None` keeps the
/// instance unconstrained); see [`instance_params_from_arena`].
///
/// The capacity is clamped to at least the largest single client so that the
/// instance always admits a solution under both policies.
pub fn wrap_instance(tree: Tree, clients_per_server: f64, dmax_fraction: Option<f64>) -> Instance {
    let (capacity, dmax) =
        instance_params_from_arena(tree.arena(), clients_per_server, dmax_fraction);
    Instance::new(tree, capacity, dmax).expect("capacity is always positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_respects_config() {
        let cfg = RandomTreeConfig {
            internal_nodes: 10,
            clients: 25,
            max_children: 4,
            edge: EdgeDist::Uniform { lo: 1, hi: 5 },
            requests: RequestDist::Uniform { lo: 1, hi: 9 },
        };
        let mut rng = StdRng::seed_from_u64(7);
        let t = random_tree(&cfg, &mut rng);
        assert_eq!(t.len(), 35);
        assert_eq!(t.client_count(), 25);
        assert!(t.arity() <= 4);
        for &c in t.clients() {
            assert!((1..=9).contains(&t.requests(c)));
        }
        for id in t.node_ids().skip(1) {
            assert!((1..=5).contains(&t.edge(id)));
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let cfg = RandomTreeConfig::default();
        let a = random_tree(&cfg, &mut StdRng::seed_from_u64(11));
        let b = random_tree(&cfg, &mut StdRng::seed_from_u64(11));
        let c = random_tree(&cfg, &mut StdRng::seed_from_u64(12));
        assert_eq!(a.len(), b.len());
        for id in a.node_ids() {
            assert_eq!(a.parent(id), b.parent(id));
            assert_eq!(a.requests(id), b.requests(id));
        }
        // Different seeds almost surely differ somewhere.
        let differs = c.node_ids().any(|id| {
            a.parent(id) != c.parent(id)
                || a.requests(id) != c.requests(id)
                || a.edge(id) != c.edge(id)
        });
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_config_panics() {
        let cfg = RandomTreeConfig {
            internal_nodes: 2,
            clients: 10,
            max_children: 1,
            ..RandomTreeConfig::default()
        };
        random_tree(&cfg, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn random_binary_tree_is_full_binary() {
        let mut rng = StdRng::seed_from_u64(3);
        for clients in [1usize, 2, 3, 5, 17, 64] {
            let t = random_binary_tree(
                clients,
                &EdgeDist::Constant(1),
                &RequestDist::Constant(4),
                &mut rng,
            );
            assert_eq!(t.client_count(), clients);
            assert!(t.is_binary());
            // Every internal node other than a degenerate root has exactly 2 children.
            for id in t.internal_nodes() {
                let deg = t.children(id).len();
                if clients == 1 && id == t.root() {
                    assert_eq!(deg, 1);
                } else {
                    assert_eq!(deg, 2, "internal node {id} has {deg} children");
                }
            }
        }
    }

    #[test]
    fn random_kary_tree_bounds_arity() {
        let mut rng = StdRng::seed_from_u64(9);
        for arity in [2usize, 3, 5] {
            let t = random_kary_tree(
                40,
                arity,
                &EdgeDist::Constant(2),
                &RequestDist::Uniform { lo: 1, hi: 3 },
                &mut rng,
            );
            assert_eq!(t.client_count(), 40);
            assert!(t.arity() <= arity);
            assert!(t.arity() >= 2);
        }
    }

    #[test]
    fn wrap_instance_scales_capacity_and_dmax() {
        let mut rng = StdRng::seed_from_u64(1);
        let t =
            random_binary_tree(16, &EdgeDist::Constant(2), &RequestDist::Constant(10), &mut rng);
        let span = t.max_client_root_distance();
        let inst = wrap_instance(t, 4.0, Some(0.5));
        assert_eq!(inst.capacity(), 40);
        assert_eq!(inst.dmax(), Some((span as f64 * 0.5).ceil() as u64));
        assert!(inst.all_requests_fit_locally());
    }

    #[test]
    fn wrap_instance_never_starves_a_client() {
        // capacity must cover the largest client even for tiny load factors
        let mut rng = StdRng::seed_from_u64(2);
        let t = random_binary_tree(
            8,
            &EdgeDist::Constant(1),
            &RequestDist::Uniform { lo: 1, hi: 100 },
            &mut rng,
        );
        let max_client = t.clients().iter().map(|c| t.requests(*c)).max().unwrap();
        let inst = wrap_instance(t, 0.01, None);
        assert!(inst.capacity() >= max_client);
    }
}
