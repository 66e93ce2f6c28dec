//! Property tests for the strict stage DP (`rp_core::stage::dp_testing`, the
//! sparse convex pass behind the oversized-stage fallback and the
//! enumeration's lower bound). On random trees with **partial** demand —
//! so the active forest is a strict sub-forest of the stage subtree — the
//! sparse pass must produce
//!
//! * exactly the table, `rmin` and chosen placement of a plain dense
//!   reference DP over the same active forest ([`dense_dp`] below: one
//!   allocating `Vec` per node, no size caps, the production tie-breaks);
//! * the table of the same dense DP over the **full subtree**, entry for
//!   entry within the forest's horizon and flat beyond it, with a chosen
//!   placement that the full-subtree reference confirms serves the whole
//!   volume.
//!
//! The reference is deliberately **128-bit wide**, so it doubles as the
//! width cross-check for the narrowed 64-bit production slabs.
//!
//! The fallback runs on the stuck forest *filtered out of* the stage's
//! scope forest, which also holds the paths of collected pool clients cut
//! off at their own deadlines. With such extra pool clients the filtered
//! run must match the stuck-only run exactly: table, `rmin` and the
//! chosen placement in emission order.

use proptest::prelude::*;
use rp_core::stage::dp_testing::{filtered_strict_dp, sparse_strict_dp, StrictDpRun};
use rp_tree::{NodeId, Tree, TreeBuilder};

/// A generated stage scenario: tree, stage root, capacity, existing
/// replicas with loads, and stuck demand on a subset of the clients.
#[derive(Debug, Clone)]
struct Scenario {
    tree: Tree,
    j: u32,
    cap: u64,
    replicas: Vec<(u32, u64)>,
    demand: Vec<(u32, u64)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((any::<u16>(), 1u64..4), 1..24), // internal nodes
        prop::collection::vec((any::<u16>(), 1u64..4, 1u64..10), 1..20), // clients
        5u64..25,                                              // capacity
        prop::collection::vec((any::<u16>(), 0u64..25), 0..6), // replica picks
        prop::collection::vec((any::<u16>(), 1u64..10), 0..12), // demand picks
        any::<u16>(),                                          // stage-root pick
    )
        .prop_map(|(internals, clients, cap, replicas, demand, j_pick)| {
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

            // Stage root: any node with a subtree (internal or root); the
            // demand is then restricted to clients inside it.
            let j = nodes[j_pick as usize % nodes.len()].index() as u32;
            let mut rep: Vec<(u32, u64)> = Vec::new();
            for (pick, load) in replicas {
                let u = (pick as usize % tree.len()) as u32;
                if rep.iter().all(|&(v, _)| v != u) {
                    rep.push((u, load.min(cap)));
                }
            }
            let mut dem: Vec<(u32, u64)> = Vec::new();
            for (pick, w) in demand {
                let c = client_ids[pick as usize % client_ids.len()].index() as u32;
                if in_subtree(&tree, j, c) {
                    dem.push((c, w));
                }
            }
            Scenario { tree, j, cap, replicas: rep, demand: dem }
        })
}

/// A scenario plus extra pool clients `(client, deadline)` of `subtree(j)`,
/// each deadline 0–5 steps above its client (possibly above `j`).
fn scenario_with_pool() -> impl Strategy<Value = (Scenario, Vec<(u32, u32)>)> {
    (scenario(), prop::collection::vec((any::<u16>(), 0usize..6), 0..10)).prop_map(|(s, picks)| {
        let inside: Vec<NodeId> =
            s.tree.clients().iter().copied().filter(|c| in_subtree(&s.tree, s.j, c.0)).collect();
        let mut pool = Vec::new();
        if !inside.is_empty() {
            for (pick, up) in picks {
                let c = inside[pick as usize % inside.len()];
                let deadline = s.tree.ancestors_inclusive(c).take(up + 1).last().unwrap_or(c);
                pool.push((c.0, deadline.0));
            }
        }
        (s, pool)
    })
}

/// Whether `v` lies in `subtree(j)`.
fn in_subtree(tree: &Tree, j: u32, mut v: u32) -> bool {
    loop {
        if v == j {
            return true;
        }
        match tree.parent(NodeId(v)) {
            Some(p) => v = p.index() as u32,
            None => return false,
        }
    }
}

/// Result of one [`dense_dp`] run.
struct DenseRun {
    /// The stage root's full `m_j(r)` table.
    m_root: Vec<u128>,
    /// Smallest `r` with `m_j(r) = 0`, if any reaches zero.
    rmin: Option<usize>,
    /// The chosen placement when `rmin` exists, sorted.
    chosen: Vec<u32>,
    /// Number of nodes the pass visited.
    visited: usize,
}

/// Per-node state of [`dense_dp`].
#[derive(Default, Clone)]
struct DenseNode {
    /// `m_v(r)`: minimal volume leaving `v`'s part with `r` new replicas.
    m: Vec<u128>,
    /// Per `r`: the `r` actually used after the monotonicity fix-up, and
    /// whether that cell opens a replica at `v`.
    used: Vec<(usize, bool)>,
    /// Per participating child, in order: the convolution layer's argmin
    /// (replicas given to that child) per `r`.
    splits: Vec<Vec<usize>>,
    /// The participating children.
    kids: Vec<u32>,
}

/// The plain dense stage DP: recursive over the nodes of `subtree(j)` that
/// `in_forest` admits, one `Vec` per node, no size caps. `m_v(r)` is the
/// minimal volume that must leave `v`'s part when `r` new replicas are
/// opened inside it: children combine by min-plus convolution (`rp`
/// ascending, then the child's share ascending, updating on strict
/// improvement — so ties keep the largest child share); an existing
/// replica subtracts its spare; a free node may spend one replica to
/// subtract `cap`, preferring to place on ties; then a monotonicity fix-up
/// redirects each cell to the first cell of its flat run. These are the
/// tie-breaks the sparse pass reproduces in closed form.
fn dense_dp(
    tree: &Tree,
    j: u32,
    cap: u64,
    replicas: &[(u32, u64)],
    demand: &[(u32, u64)],
    in_forest: &dyn Fn(u32) -> bool,
) -> DenseRun {
    let n = tree.len();
    let mut in_r = vec![false; n];
    let mut spare = vec![0u128; n];
    let mut own = vec![0u128; n];
    for &(u, l) in replicas {
        in_r[u as usize] = true;
        spare[u as usize] = (cap - l) as u128;
    }
    for &(c, w) in demand {
        own[c as usize] += w as u128;
    }
    let cap = cap as u128;
    let mut nodes = vec![DenseNode::default(); n];
    let mut visited = 0;

    fn build(
        v: u32,
        tree: &Tree,
        ctx: (&[bool], &[u128], &[u128], u128),
        in_forest: &dyn Fn(u32) -> bool,
        nodes: &mut [DenseNode],
        visited: &mut usize,
    ) {
        let (in_r, spare, own, cap) = ctx;
        *visited += 1;
        let kids: Vec<u32> =
            tree.children(NodeId(v)).map(|c| c.index() as u32).filter(|&c| in_forest(c)).collect();
        let mut base = vec![own[v as usize]];
        let mut splits = Vec::new();
        for &c in &kids {
            build(c, tree, ctx, in_forest, nodes, visited);
            let mc = &nodes[c as usize].m;
            let mut next = vec![u128::MAX; base.len() + mc.len() - 1];
            let mut arg = vec![0usize; next.len()];
            for (rp, &vp) in base.iter().enumerate() {
                for (sc, &vc) in mc.iter().enumerate() {
                    if vp + vc < next[rp + sc] {
                        next[rp + sc] = vp + vc;
                        arg[rp + sc] = sc;
                    }
                }
            }
            base = next;
            splits.push(arg);
        }
        let vi = v as usize;
        let len = base.len() + usize::from(!in_r[vi]);
        let mut m = Vec::with_capacity(len);
        let mut used = Vec::with_capacity(len);
        for r in 0..len {
            if in_r[vi] {
                m.push(base[r].saturating_sub(spare[vi]));
                used.push((r, false));
            } else {
                let keep = base.get(r).copied();
                let place = (r >= 1).then(|| base[r - 1].saturating_sub(cap));
                match (keep, place) {
                    (Some(k), Some(p)) if p > k => {
                        m.push(k);
                        used.push((r, false));
                    }
                    (Some(k), None) => {
                        m.push(k);
                        used.push((r, false));
                    }
                    (_, Some(p)) => {
                        m.push(p);
                        used.push((r, true));
                    }
                    (None, None) => unreachable!("r = 0 always has a keep cell"),
                }
            }
        }
        for r in 1..len {
            if m[r] > m[r - 1] {
                m[r] = m[r - 1];
                used[r] = used[r - 1];
            }
        }
        nodes[vi] = DenseNode { m, used, splits, kids };
    }

    build(j, tree, (&in_r, &spare, &own, cap), in_forest, &mut nodes, &mut visited);
    let m_root = nodes[j as usize].m.clone();
    let rmin = m_root.iter().position(|&m| m == 0);
    let mut chosen = Vec::new();
    if let Some(rmin) = rmin {
        let mut stack = vec![(j, rmin)];
        while let Some((v, r)) = stack.pop() {
            let node = &nodes[v as usize];
            let (r, placed) = node.used[r];
            if placed {
                chosen.push(v);
            }
            let mut rest = r - usize::from(placed);
            for k in (0..node.kids.len()).rev() {
                let sc = node.splits[k][rest];
                stack.push((node.kids[k], sc));
                rest -= sc;
            }
            assert_eq!(rest, 0, "the own-demand layer holds no replicas");
        }
    }
    chosen.sort_unstable();
    DenseRun { m_root, rmin, chosen, visited }
}

/// The stage's active forest: every node on a demanding client's path up
/// to `j`, plus `j` itself.
fn active_forest(s: &Scenario) -> Vec<bool> {
    let mut mark = vec![false; s.tree.len()];
    mark[s.j as usize] = true;
    for &(c, _) in &s.demand {
        let mut v = NodeId(c);
        while v.index() as u32 != s.j {
            mark[v.index()] = true;
            v = s.tree.parent(v).expect("demand lies in subtree(j)");
        }
    }
    mark
}

fn sorted(v: &[u32]) -> Vec<u32> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Pins one sparse run against the dense reference over the same forest.
fn assert_matches_dense(s: &Scenario) {
    assert_run_matches_dense(s, &sparse_strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand));
}

/// Pins `sparse`, a run on `s`, against the dense reference over the
/// stuck forest.
fn assert_run_matches_dense(s: &Scenario, sparse: &StrictDpRun) {
    let mark = active_forest(s);
    let dense = dense_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand, &|v| mark[v as usize]);
    assert_eq!(sparse.active_len, dense.visited, "forests differ: {s:?}");
    let sparse_table: Vec<u128> = sparse.m_root.iter().map(|&m| m as u128).collect();
    assert_eq!(sparse_table, dense.m_root, "tables diverged: {s:?}");
    assert_eq!(sparse.rmin, dense.rmin, "rmin diverged: {s:?}");
    // The engines walk their backtracks in opposite directions, so the
    // emission order differs; the *set* of opened nodes must match.
    assert_eq!(sorted(&sparse.chosen), dense.chosen, "chosen placements differ: {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pooled_forest_dp_matches_naive_full_subtree_dp(s in scenario()) {
        let run = sparse_strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand);
        let full = dense_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand, &|_| true);

        // Entry-for-entry agreement within the forest's horizon…
        prop_assert!(!run.m_root.is_empty());
        prop_assert!(run.m_root.len() <= full.m_root.len());
        for (r, &m) in run.m_root.iter().enumerate() {
            prop_assert_eq!(m as u128, full.m_root[r], "m_j({}) diverged", r);
        }
        // …and flatness beyond it: extra replicas beyond the forest's free
        // nodes (necessarily off-forest in the reference) never reduce the
        // pass-up volume.
        let tail = *run.m_root.last().unwrap() as u128;
        for (r, &value) in full.m_root.iter().enumerate().skip(run.m_root.len()) {
            prop_assert_eq!(value, tail, "the reference tail was not flat at r={}", r);
        }
        prop_assert_eq!(run.rmin, full.rmin);

        // The chosen placement has exactly rmin distinct free nodes and,
        // grafted as empty replicas into the reference, serves the whole
        // volume with zero new replicas.
        if let Some(rmin) = run.rmin {
            let chosen = sorted(&run.chosen);
            prop_assert_eq!(chosen.len(), rmin);
            prop_assert!(chosen.windows(2).all(|w| w[0] < w[1]), "chosen nodes must be distinct");
            let mut grafted = s.replicas.clone();
            for &u in &chosen {
                prop_assert!(grafted.iter().all(|&(v, _)| v != u), "placements target free nodes");
                grafted.push((u, 0));
            }
            let served = dense_dp(&s.tree, s.j, s.cap, &grafted, &s.demand, &|_| true);
            prop_assert_eq!(served.m_root[0], 0, "chosen placement must serve the volume");
        }
    }

    #[test]
    fn stuck_forest_filtered_from_the_scope_forest_matches_the_stuck_only_run(
        (s, pool) in scenario_with_pool()
    ) {
        let plain = sparse_strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand);
        let filtered = filtered_strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand, &pool);
        prop_assert!(filtered.scope_len >= filtered.active_len);
        prop_assert_eq!(filtered.active_len, plain.active_len, "stuck forests differ");
        prop_assert_eq!(&filtered.m_root, &plain.m_root, "tables diverged");
        prop_assert_eq!(filtered.rmin, plain.rmin, "rmin diverged");
        prop_assert_eq!(&filtered.chosen, &plain.chosen, "chosen placements differ");
        assert_run_matches_dense(&s, &filtered);
    }

    #[test]
    fn sparse_chain_dp_matches_dense_exact_table(s in scenario()) {
        // The production sparse pass against the plain dense DP over the
        // same forest: full table, rmin and the chosen placement,
        // tie-breaks included.
        assert_matches_dense(&s);
    }
}

#[test]
fn many_distinct_spares_under_one_root_match_the_dense_dp() {
    // A spine of full existing replicas (zero spare, so they only merge
    // their children's step lists) whose every node hangs a hub replica
    // with a client below it. Each hub's spare is distinct, so each branch
    // contributes a step of its own size, and the root's merged segment
    // list holds one segment per branch — the shape the sparse pass once
    // bailed out of to a dense fallback (past 96 segments). It must now
    // stay exact.
    const BRANCHES: u64 = 130;
    let cap = 1000;
    let mut b = TreeBuilder::new();
    let root = b.root();
    let mut spine = root;
    let mut replicas = Vec::new();
    let mut demand = Vec::new();
    for i in 0..BRANCHES {
        replicas.push((spine.0, cap));
        let hub = b.add_internal(spine, 1);
        let client = b.add_client(hub, 1, 900);
        // spare = 100 + 3i, so the branch's leftover step is 800 - 3i.
        replicas.push((hub.0, 900 - 3 * i));
        demand.push((client.0, 900));
        if i + 1 < BRANCHES {
            spine = b.add_internal(spine, 1);
        }
    }
    let tree = b.freeze().expect("spine construction is always valid");
    let s = Scenario { tree, j: root.0, cap, replicas, demand };

    let run = sparse_strict_dp(&s.tree, s.j, s.cap, &s.replicas, &s.demand);
    let steps: Vec<u64> = run.m_root.windows(2).map(|w| w[0] - w[1]).collect();
    let mut distinct = steps.clone();
    distinct.retain(|&d| d > 0);
    distinct.dedup();
    assert!(distinct.len() >= 128, "the root must carry ≥ 128 distinct steps: {steps:?}");
    assert_eq!(run.rmin, Some(BRANCHES as usize), "every client needs a replica of its own");
    assert_matches_dense(&s);
}

#[test]
fn a_pool_client_path_outside_the_stuck_forest_stays_out_of_the_pass() {
    // j has two legs: the stuck client below `a`, and a pool client below
    // `b` whose deadline is `b` — so the scope forest holds `b` and its
    // client, two free nodes the stuck forest does not.
    let mut b = TreeBuilder::new();
    let root = b.root();
    let a = b.add_internal(root, 1);
    let leg = b.add_internal(root, 1);
    let stuck = b.add_client(a, 1, 7);
    let pooled = b.add_client(leg, 1, 4);
    let tree = b.freeze().expect("two-leg construction is always valid");
    let demand = [(stuck.0, 7)];
    let plain = sparse_strict_dp(&tree, root.0, 10, &[], &demand);
    let filtered = filtered_strict_dp(&tree, root.0, 10, &[], &demand, &[(pooled.0, leg.0)]);
    assert_eq!((plain.active_len, filtered.scope_len), (3, 5));
    assert_eq!(filtered, StrictDpRun { scope_len: 5, ..plain });
}
