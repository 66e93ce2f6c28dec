//! Property tests for the hierarchical carried-aggregation router
//! (`rp_core::stage::router_testing`): on random trees and chain-heavy
//! caterpillars, the production router — unsorted carried lists with
//! volume/deadline-depth aggregates, O(1) list moves, small-to-large
//! merges, one unstable sort per replica — must be **bit-identical** to a
//! naive flat-list reference that keeps every carried list sorted by
//! client id and stable-keysorts at replicas (the historical shape):
//!
//! * the same verdict (`None` on a passed deadline, else the unserved
//!   volume at the stage root);
//! * the same per-replica loads and the same staged commit log, entry for
//!   entry in order (the id tie-break equivalence);
//! * counter sanity: the carried peak never exceeds the demand-client
//!   count, and on pure spines the merge counter stays linear in the
//!   client count — the hierarchical claim that re-opened the spine
//!   family.
//!
//! Caterpillar spines come with sparse replica picks and with dense
//! placements (every spine node, or a random half of them): dense
//! replicas serve out of long carried heaps at almost every step, the
//! shape where a per-replica sort of the carried set was quadratic.

use proptest::prelude::*;
use rp_core::stage::router_testing::{route, RouteRun};
use rp_tree::{NodeId, Tree, TreeBuilder};

/// The naive reference outcome (loads indexed like the `replicas` input).
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefRun {
    verdict: Option<u64>,
    loads: Vec<u64>,
    commit: Vec<(u32, u32, u64)>,
}

/// Flat-list EDF reference: sweeps `subtree(j)` in post-order carrying
/// id-sorted client lists, serves at replicas after a **stable** keysort
/// by (must-serve-now, deepest deadline first) — exactly the historical
/// two-sort router. Deadline inputs come from the production run so both
/// implementations route the same instance.
fn reference_route(
    tree: &Tree,
    j: u32,
    cap: u64,
    replicas: &[u32],
    demand: &[(u32, u64)],
    deadline: &[u32],
    deadline_depth: &[u32],
) -> RefRun {
    let n = tree.len();
    let mut is_replica = vec![false; n];
    for &u in replicas {
        is_replica[u as usize] = true;
    }
    let mut rows = vec![0u64; n];
    for &(c, w) in demand {
        rows[c as usize] += w;
    }
    let mut order = Vec::new();
    fn post(tree: &Tree, v: u32, out: &mut Vec<u32>) {
        for c in tree.children(NodeId(v)) {
            post(tree, c.index() as u32, out);
        }
        out.push(v);
    }
    post(tree, j, &mut order);

    let mut pending = vec![0u64; n];
    let mut carried: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut loads = vec![0u64; n];
    let mut commit = Vec::new();
    let collect_loads =
        |loads: &[u64]| replicas.iter().map(|&u| loads[u as usize]).collect::<Vec<u64>>();
    for &u in &order {
        let ui = u as usize;
        let mut here: Vec<u32> = Vec::new();
        for c in tree.children(NodeId(u)) {
            here.append(&mut carried[c.index()]);
        }
        if rows[ui] > 0 {
            pending[ui] = rows[ui];
            here.push(u);
        }
        here.sort_unstable();
        if is_replica[ui] {
            here.sort_by_key(|&c| {
                (deadline[c as usize] != u, std::cmp::Reverse(deadline_depth[c as usize]))
            });
            let mut spare = cap;
            for &c in &here {
                if spare == 0 {
                    break;
                }
                let take = spare.min(pending[c as usize]);
                pending[c as usize] -= take;
                spare -= take;
                if take > 0 {
                    loads[ui] += take;
                    commit.push((u, c, take));
                }
            }
            here.retain(|&c| pending[c as usize] > 0);
        }
        if u == j {
            let unserved = here.iter().map(|&c| pending[c as usize]).sum();
            return RefRun { verdict: Some(unserved), loads: collect_loads(&loads), commit };
        }
        if here.iter().any(|&c| deadline[c as usize] == u) {
            return RefRun { verdict: None, loads: collect_loads(&loads), commit };
        }
        carried[ui] = here;
    }
    unreachable!("the post-order of subtree(j) ends at j");
}

/// A generated routing scenario over a random tree.
#[derive(Debug, Clone)]
struct Scenario {
    tree: Tree,
    j: u32,
    cap: u64,
    dmax: Option<u64>,
    replicas: Vec<u32>,
    demand: Vec<(u32, u64)>,
}

fn assert_router_matches_reference(s: &Scenario) {
    let run: RouteRun = route(&s.tree, s.j, s.cap, s.dmax, &s.replicas, &s.demand);
    let reference = reference_route(
        &s.tree,
        s.j,
        s.cap,
        &s.replicas,
        &s.demand,
        &run.deadline,
        &run.deadline_depth,
    );
    prop_assert_eq!(run.verdict, reference.verdict, "verdict diverged");
    if run.verdict.is_some() {
        prop_assert_eq!(&run.loads, &reference.loads, "replica loads diverged");
        prop_assert_eq!(&run.commit, &reference.commit, "commit logs diverged");
    }
    let clients: std::collections::BTreeSet<u32> = s.demand.iter().map(|&(c, _)| c).collect();
    prop_assert!(
        run.carried_peak <= clients.len() as u64,
        "peak {} exceeds the {} demand clients",
        run.carried_peak,
        clients.len()
    );
}

fn random_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((any::<u16>(), 1u64..4), 1..30), // internal nodes
        prop::collection::vec((any::<u16>(), 1u64..4, 1u64..10), 1..24), // clients
        5u64..25,                                              // capacity
        prop::collection::vec(any::<u16>(), 0..8),             // replica picks
        prop::collection::vec((any::<u16>(), 1u64..12), 0..16), // demand picks
        any::<u16>(),                                          // stage-root pick
        prop::option::of(1u64..40),                            // dmax
    )
        .prop_map(|(internals, clients, cap, replicas, demand, j_pick, dmax)| {
            let mut b = TreeBuilder::new();
            let mut nodes = vec![b.root()];
            for (pick, edge) in internals {
                let parent = nodes[pick as usize % nodes.len()];
                nodes.push(b.add_internal(parent, edge));
            }
            let mut client_ids = Vec::new();
            for (pick, edge, req) in clients {
                let parent = nodes[pick as usize % nodes.len()];
                client_ids.push(b.add_client(parent, edge, req));
            }
            let tree = b.freeze().expect("builder trees are valid");
            let j = nodes[j_pick as usize % nodes.len()].index() as u32;
            let in_subtree = |mut v: u32| loop {
                if v == j {
                    break true;
                }
                match tree.parent(NodeId(v)) {
                    Some(p) => v = p.index() as u32,
                    None => break false,
                }
            };
            let mut rep: Vec<u32> = Vec::new();
            for pick in replicas {
                let u = (pick as usize % tree.len()) as u32;
                if rep.iter().all(|&v| v != u) {
                    rep.push(u);
                }
            }
            let mut dem: Vec<(u32, u64)> = Vec::new();
            for (pick, w) in demand {
                let c = client_ids[pick as usize % client_ids.len()].index() as u32;
                if in_subtree(c) {
                    dem.push((c, w));
                }
            }
            Scenario { tree, j, cap, dmax, replicas: rep, demand: dem }
        })
}

/// Caterpillar: a spine of unit edges with one client hanging off each
/// spine node — the maximal-chain shape the aggregation targets (O(1) list
/// moves plus one small append per join).
fn spine_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..120,                                           // spine length
        5u64..40,                                              // capacity
        prop::collection::vec(any::<u16>(), 0..10),            // replica picks (spine nodes)
        prop::collection::vec((any::<u16>(), 1u64..9), 1..24), // demand picks
        prop::option::of(1u64..60),                            // dmax
    )
        .prop_map(|(len, cap, replicas, demand, dmax)| {
            let mut b = TreeBuilder::new();
            let root = b.root();
            let mut spine_nodes = vec![root];
            let mut client_ids = Vec::new();
            let mut spine = root;
            for i in 0..len {
                spine = b.add_internal(spine, 1);
                spine_nodes.push(spine);
                client_ids.push(b.add_client(spine, 1 + (i as u64 % 2), i as u64 % 7 + 1));
            }
            let tree = b.freeze().expect("builder trees are valid");
            let j = root.index() as u32;
            let mut rep: Vec<u32> = Vec::new();
            for pick in replicas {
                let u = spine_nodes[pick as usize % spine_nodes.len()].index() as u32;
                if rep.iter().all(|&v| v != u) {
                    rep.push(u);
                }
            }
            let dem: Vec<(u32, u64)> = demand
                .into_iter()
                .map(|(pick, w)| (client_ids[pick as usize % client_ids.len()].index() as u32, w))
                .collect();
            Scenario { tree, j, cap, dmax, replicas: rep, demand: dem }
        })
}

/// Caterpillar with a replica on every spine node (`density` 0), on a
/// random subset of them (1) or on a few random picks (2), every client
/// demanding: small capacities keep long carried heaps alive past many
/// replicas, each serving off the top.
fn spine_replica_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..150,                               // spine length
        1u64..20,                                  // capacity
        0u8..3,                                    // replica density
        prop::collection::vec(any::<bool>(), 150), // subset mask
        prop::collection::vec(any::<u16>(), 0..6), // sparse picks
        prop::collection::vec(1u64..9, 150),       // demand per client
        prop::option::of(1u64..80),                // dmax
    )
        .prop_map(|(len, cap, density, mask, picks, demand, dmax)| {
            let mut b = TreeBuilder::new();
            let root = b.root();
            let mut spine_nodes = vec![root];
            let mut client_ids = Vec::new();
            let mut spine = root;
            for i in 0..len {
                spine = b.add_internal(spine, 1);
                spine_nodes.push(spine);
                client_ids.push(b.add_client(spine, 1 + (i as u64 % 3), i as u64 % 5 + 1));
            }
            let tree = b.freeze().expect("builder trees are valid");
            let rep: Vec<u32> = match density {
                0 => spine_nodes.iter().map(|n| n.index() as u32).collect(),
                1 => spine_nodes
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &on)| on)
                    .map(|(n, _)| n.index() as u32)
                    .collect(),
                _ => {
                    let mut rep: Vec<u32> = Vec::new();
                    for pick in picks {
                        let u = spine_nodes[pick as usize % spine_nodes.len()].index() as u32;
                        if !rep.contains(&u) {
                            rep.push(u);
                        }
                    }
                    rep
                }
            };
            let dem: Vec<(u32, u64)> =
                client_ids.iter().zip(&demand).map(|(c, &w)| (c.index() as u32, w)).collect();
            Scenario { tree, j: root.index() as u32, cap, dmax, replicas: rep, demand: dem }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn aggregated_router_matches_flat_reference_on_random_trees(s in random_scenario()) {
        assert_router_matches_reference(&s);
    }

    #[test]
    fn aggregated_router_matches_flat_reference_on_spines(s in spine_scenario()) {
        assert_router_matches_reference(&s);
    }

    #[test]
    fn aggregated_router_matches_flat_reference_on_replica_spines(
        s in spine_replica_scenario()
    ) {
        assert_router_matches_reference(&s);
    }
}

#[test]
fn spine_merges_stay_linear_in_the_client_count() {
    // The hierarchical claim behind re-opening the spine NoD family: on a
    // caterpillar, every spine step is an O(1) list move plus one
    // single-entry append at the join with the hanging client — so the
    // physical merge work is ≤ one append per client, not the Θ(clients²)
    // per-ancestor copying of the flat router. The peak is the full client
    // set materialising at the unserved stage root.
    let clients = 4000u64;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let mut spine = root;
    let mut demand = Vec::new();
    for i in 0..clients {
        spine = b.add_internal(spine, 1);
        let c = b.add_client(spine, 1, 1);
        demand.push((c.index() as u32, i % 5 + 1));
    }
    let tree = b.freeze().unwrap();
    let run = route(&tree, root.index() as u32, 10, None, &[], &demand);
    let total: u64 = demand.iter().map(|&(_, w)| w).sum();
    assert_eq!(run.verdict, Some(total), "no replicas: everything is unserved at the root");
    assert_eq!(run.carried_peak, clients, "the whole client set reaches the stage root");
    assert!(
        run.carry_merges <= 2 * clients,
        "spine merges must stay linear: {} appends for {} clients",
        run.carry_merges,
        clients
    );
}

#[test]
fn replica_spines_serve_off_the_heap_top() {
    // A replica on every spine node, each with room for one request, and
    // two requests per client: every replica serves one unit of the
    // smallest-id client (no dmax, so all deadlines tie), which is the one
    // that just joined — every client stays pending, and the carried set
    // grows along the spine to the whole client set. Serving reads the
    // heap top — O(log n) per step — where sorting the carried set at
    // every replica took Θ(clients²) (tens of seconds at this size).
    // The merges stay one push per join.
    let clients = 20_000u64;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let mut spine = root;
    let mut replicas = vec![root.index() as u32];
    let mut demand = Vec::new();
    for _ in 0..clients {
        spine = b.add_internal(spine, 1);
        replicas.push(spine.index() as u32);
        let c = b.add_client(spine, 1, 2);
        demand.push((c.index() as u32, 2));
    }
    let tree = b.freeze().unwrap();
    let run = route(&tree, root.index() as u32, 1, None, &replicas, &demand);
    let served = replicas.len() as u64;
    assert_eq!(run.verdict, Some(2 * clients - served), "each replica serves exactly one unit");
    assert!(run.loads.iter().all(|&l| l == 1));
    assert_eq!(run.commit.len() as u64, served);
    assert!(run.carry_merges <= 2 * clients, "merges stay linear: {}", run.carry_merges);
    assert_eq!(run.carried_peak, clients, "every client is still pending at the top");
}
