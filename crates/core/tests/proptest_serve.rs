//! Property tests for the serving tier (`rp_core::serve`): on random
//! stage-dense binary trees (the same caterpillar / branchy families as
//! `proptest_stage_commit.rs`) and random demand-delta streams, the
//! journaled incremental re-solve must be **bit-identical** to a
//! cold solve after every batch — three ways at once:
//!
//! * against a second [`ServeEngine`] with the naive differential switch
//!   on ([`ServeEngine::set_naive_resolve`]: plain cold solves, no
//!   journal), fed the exact same delta stream;
//! * against a from-scratch [`multiple_bin`] solve over a freshly *built*
//!   tree carrying the current demands (same construction order, so node
//!   ids line up) — no warm state at all;
//! * on `StageStats` too, not just placements: undoing a spine stage must
//!   take out exactly the counters its journal record holds, and a carried
//!   stage must keep exactly the counters the cold solve would earn.
//!
//! Invalid deltas (underflow, over-capacity) must be rejected identically
//! by both engines and leave both solving the same instance afterwards —
//! the stream generator deliberately produces some.
//!
//! The streams are built to reach every path of the spine solve's undo:
//! `dmax` goes down to 0 and 1 (clients that serve themselves next to
//! clients that travel, and `Set(0)` / `Sub` deltas that drain them), and
//! every batch also changes one client on each side of the tree's top
//! split, so spines from both subtrees meet at the top. Deterministic
//! regressions below pin a spine stage that vanishes and a new stage on a
//! spine node with no journal entry, the stamp wrap-around guard and the
//! work bound of a one-client delta.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::serve::{DemandDelta, ServeEngine};
use rp_core::{multiple_bin_with, SolverScratch};
use rp_instances::random::{random_binary_tree, wrap_instance};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::{validate, Instance, Policy, Tree, TreeBuilder};

/// A generated serving scenario: the structural picks of one binary tree
/// (kept, so the cold reference can rebuild it with mutated demands),
/// capacity, distance budget and a batched delta stream.
#[derive(Debug, Clone)]
struct Scenario {
    caterpillar: bool,
    cat_picks: Vec<(u64, u64, u64)>,
    internals: Vec<(u16, u64)>,
    clients: Vec<(u16, u64, u64)>,
    capacity: u64,
    dmax: Option<u64>,
    /// Batches of `(client pick, op pick, amount)`; a solve runs after
    /// each batch on every engine.
    batches: Vec<Vec<(u16, u8, u64)>>,
    /// Per batch, `(left pick, right pick, op pick, amount)`: one more
    /// delta on a client of each side of the top split.
    sides: Vec<(u16, u16, u8, u64)>,
}

impl Scenario {
    /// Builds the scenario's tree with `reqs[i]` requests on the `i`-th
    /// client (creation order); `None` keeps the generated initial
    /// demands. Returns the tree and the client node ids in creation
    /// order. Construction is deterministic, so every rebuild yields the
    /// same node numbering — what lets the cold reference compare
    /// solutions id-for-id.
    fn build(&self, reqs: Option<&[u64]>) -> (Tree, Vec<u32>) {
        let mut b = TreeBuilder::new();
        let mut ids = Vec::new();
        if self.caterpillar {
            let mut spine = b.root();
            for &(spine_edge, client_edge, req) in &self.cat_picks {
                spine = b.add_internal(spine, 1 + spine_edge % 2);
                let r = reqs.map_or(1 + req % 9, |r| r[ids.len()]);
                ids.push(b.add_client(spine, 1 + client_edge % 2, r).0);
            }
        } else {
            let mut open: Vec<(rp_tree::NodeId, usize)> = vec![(b.root(), 2)];
            for &(pick, edge) in &self.internals {
                let i = pick as usize % open.len();
                let (parent, slots) = open[i];
                let node = b.add_internal(parent, 1 + edge % 3);
                if slots == 1 {
                    open.swap_remove(i);
                } else {
                    open[i].1 -= 1;
                }
                open.push((node, 2));
            }
            for &(pick, edge, req) in &self.clients {
                if open.is_empty() {
                    break;
                }
                let i = pick as usize % open.len();
                let (parent, slots) = open[i];
                let r = reqs.map_or(1 + req % 9, |r| r[ids.len()]);
                ids.push(b.add_client(parent, 1 + edge % 3, r).0);
                if slots == 1 {
                    open.swap_remove(i);
                } else {
                    open[i].1 -= 1;
                }
            }
        }
        (b.freeze().expect("generated shapes keep arity at 2"), ids)
    }
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<bool>(),
        prop::collection::vec((0u64..2, 0u64..2, 0u64..9), 6..32),
        prop::collection::vec((any::<u16>(), 0u64..3), 4..14),
        prop::collection::vec((any::<u16>(), 0u64..3, 0u64..9), 4..20),
        9u64..22,
        prop::option::of(0u64..14),
        prop::collection::vec(prop::collection::vec((any::<u16>(), 0u8..3, 0u64..12), 1..6), 1..5),
        prop::collection::vec((any::<u16>(), any::<u16>(), 0u8..3, 0u64..12), 4),
    )
        .prop_map(
            |(caterpillar, cat_picks, internals, clients, capacity, dmax, batches, sides)| {
                Scenario {
                    caterpillar,
                    cat_picks,
                    internals,
                    clients,
                    capacity,
                    dmax,
                    batches,
                    sides,
                }
            },
        )
}

/// The demand delta an op pick stands for.
fn delta_of(op: u8, amount: u64) -> DemandDelta {
    match op % 3 {
        0 => DemandDelta::Add(amount),
        1 => DemandDelta::Sub(amount),
        _ => DemandDelta::Set(amount),
    }
}

/// Positions (in `client_ids`) of the clients on each side of the tree's
/// top split: the first node from the root down with two children.
fn split_sides(tree: &Tree, client_ids: &[u32]) -> [Vec<usize>; 2] {
    let arena = tree.arena();
    let mut top = arena.preorder()[0];
    while arena.children(top).len() == 1 {
        top = arena.children(top)[0];
    }
    let mut sides = [Vec::new(), Vec::new()];
    for (side, &child) in arena.children(top).iter().enumerate() {
        for (i, &c) in client_ids.iter().enumerate() {
            if arena.is_ancestor_or_self(child, c) {
                sides[side].push(i);
            }
        }
    }
    sides
}

/// Cold reference: build a fresh tree carrying `reqs`, solve it through a
/// fresh scratch.
fn cold_solve(
    s: &Scenario,
    reqs: &[u64],
    capacity: u64,
    dmax: Option<u64>,
) -> (rp_tree::Solution, rp_core::StageStats, Instance) {
    let (tree, _) = s.build(Some(reqs));
    let inst = Instance::new(tree, capacity, dmax).expect("positive capacity");
    let mut scratch = SolverScratch::new();
    let sol = multiple_bin_with(&inst, &mut scratch).expect("feasible (r_i ≤ W by construction)");
    (sol, *scratch.stage_stats(), inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_serve_matches_cold_solves_on_delta_streams(s in scenario()) {
        let (tree, client_ids) = s.build(None);
        // Both families always yield clients (the branchy slot list never
        // empties before placing at least its first four).
        prop_assert!(!client_ids.is_empty());
        let sides = split_sides(&tree, &client_ids);
        let inst = Instance::new(tree, s.capacity, s.dmax).expect("positive capacity");

        let mut engine = ServeEngine::new(&inst).expect("binary, r_i ≤ W");
        let mut naive = ServeEngine::new(&inst).expect("binary, r_i ≤ W");
        naive.set_naive_resolve(true);

        // Model of the current demands, in client creation order.
        let mut reqs: Vec<u64> =
            client_ids.iter().map(|&c| engine.requests_of(c).unwrap()).collect();

        // Converged start: both engines solve the initial demands.
        engine.solve().expect("initial solve");
        naive.solve().expect("initial solve");

        for (batch, &(left, right, side_op, side_amount)) in s.batches.iter().zip(&s.sides) {
            let mut deltas: Vec<(usize, DemandDelta)> = batch
                .iter()
                .map(|&(cpick, op, amount)| {
                    (cpick as usize % client_ids.len(), delta_of(op, amount))
                })
                .collect();
            for (side, pick) in sides.iter().zip([left, right]) {
                if !side.is_empty() {
                    deltas.push((side[pick as usize % side.len()], delta_of(side_op, side_amount)));
                }
            }
            for (i, delta) in deltas {
                let node = client_ids[i];
                // Both engines must agree on acceptance and on the
                // resulting demand; rejects must change nothing.
                let a = engine.apply_delta(node, delta);
                let b = naive.apply_delta(node, delta);
                prop_assert_eq!(&a, &b, "engines disagreed on {:?} @ {}", delta, node);
                match a {
                    Ok(new) => reqs[i] = new,
                    Err(_) => prop_assert_eq!(engine.requests_of(node).unwrap(), reqs[i]),
                }
            }
            let outcome = engine.solve().expect("incremental solve");
            naive.solve().expect("naive solve");
            prop_assert!(outcome.incremental, "a valid journal serves every batch size");

            // Three-way equivalence: warm-incremental vs warm-naive vs a
            // from-scratch solve of a freshly built tree.
            let (cold_sol, cold_stats, cold_inst) =
                cold_solve(&s, &reqs, s.capacity, s.dmax);
            let inc_sol = engine.solution();
            prop_assert_eq!(&inc_sol, &naive.solution(), "incremental vs naive: {:?}", s);
            prop_assert_eq!(&inc_sol, &cold_sol, "incremental vs cold rebuild: {:?}", s);
            prop_assert_eq!(engine.stage_stats(), naive.stage_stats());
            prop_assert_eq!(engine.stage_stats(), &cold_stats);
            validate(&cold_inst, Policy::Multiple, &inc_sol).expect("serve solution valid");
        }
    }
}

#[test]
fn journal_replay_engages_on_stage_dense_streams() {
    // The equivalence above must not hold vacuously (every stage
    // searched). On a tight-capacity caterpillar, a demand delta's dirty
    // spine is the changed client's root path, so the spine solve searches
    // only the stages *above* the changed client and carries every stage
    // below it unchanged: deltas near the root carry the bulk of the
    // stages, and reuse shrinks with the delta's depth. The spine grows
    // downward, so small creation indices are shallow.
    let s = Scenario {
        caterpillar: true,
        cat_picks: (0..96).map(|i| (i % 2, (i / 2) % 2, i * 5 % 9)).collect(),
        internals: vec![],
        clients: vec![],
        capacity: 12,
        dmax: Some(9),
        batches: vec![],
        sides: vec![],
    };
    let (tree, client_ids) = s.build(None);
    let inst = Instance::new(tree, s.capacity, s.dmax).expect("positive capacity");
    let mut engine = ServeEngine::new(&inst).expect("binary, r_i ≤ W");
    engine.solve().expect("initial solve");

    let mut total_reused = 0;
    let mut total_recomputed = 0;
    for (k, &node) in client_ids.iter().enumerate().take(24).filter(|(k, _)| k % 7 == 3) {
        engine.apply_delta(node, DemandDelta::Add(1 + (k as u64) % 3)).unwrap();
        let outcome = engine.solve().expect("incremental solve");
        assert!(outcome.incremental, "a valid journal makes every re-solve incremental");
        assert!(
            outcome.stages_reused > 2 * outcome.stages_recomputed,
            "a shallow delta must replay the deep bulk of the stages: {outcome:?}"
        );
        total_reused += outcome.stages_reused;
        total_recomputed += outcome.stages_recomputed;
    }
    assert!(total_reused > 100, "journal reuse must dominate the stream: {total_reused}");
    assert!(total_reused > 4 * total_recomputed, "{total_reused} vs {total_recomputed}");
    let stats = engine.stats();
    assert_eq!(stats.full_solves, 1, "only the initial solve runs cold");
    assert!(stats.incremental_solves >= 3, "k ∈ {{3, 10, 17}} gives three delta solves");

    // A deep delta legitimately re-searches its upstream chain; reuse may
    // be small, but the solve stays incremental and the journal recovers.
    let deep = client_ids[90];
    engine.apply_delta(deep, DemandDelta::Add(2)).unwrap();
    let outcome = engine.solve().expect("incremental solve");
    assert!(outcome.incremental);
    engine.apply_delta(client_ids[3], DemandDelta::Sub(1)).unwrap();
    let outcome = engine.solve().expect("incremental solve");
    assert!(
        outcome.stages_reused > 2 * outcome.stages_recomputed,
        "shallow reuse must survive a deep delta in between: {outcome:?}"
    );
}

#[test]
fn large_batches_stay_incremental_and_match_naive() {
    // A batch dirtying half the clients still re-solves from the journal
    // (more stages are simply searched); results stay identical to the
    // naive reference, and the next small delta reuses the journal that
    // the large batch rebuilt.
    let s = Scenario {
        caterpillar: true,
        cat_picks: (0..40).map(|i| (i % 2, i % 2, i % 9)).collect(),
        internals: vec![],
        clients: vec![],
        capacity: 15,
        dmax: Some(7),
        batches: vec![],
        sides: vec![],
    };
    let (tree, client_ids) = s.build(None);
    let inst = Instance::new(tree, s.capacity, s.dmax).expect("positive capacity");
    let mut engine = ServeEngine::new(&inst).expect("binary, r_i ≤ W");
    let mut naive = ServeEngine::new(&inst).expect("binary, r_i ≤ W");
    naive.set_naive_resolve(true);
    engine.solve().expect("initial solve");
    naive.solve().expect("initial solve");

    // 20 dirty clients of 40.
    for &node in &client_ids[..20] {
        engine.apply_delta(node, DemandDelta::Add(2)).unwrap();
        naive.apply_delta(node, DemandDelta::Add(2)).unwrap();
    }
    let big = engine.solve().expect("incremental solve");
    naive.solve().expect("naive solve");
    assert!(big.incremental, "batch size never forces a full solve");
    assert!(big.stages_recomputed > 0, "{big:?}");
    assert_eq!(engine.solution(), naive.solution());
    assert_eq!(engine.stage_stats(), naive.stage_stats());

    // …and the journal that solve rebuilt serves the next delta.
    engine.apply_delta(client_ids[5], DemandDelta::Sub(1)).unwrap();
    naive.apply_delta(client_ids[5], DemandDelta::Sub(1)).unwrap();
    let small = engine.solve().expect("incremental solve");
    naive.solve().expect("naive solve");
    assert!(small.incremental);
    assert_eq!(engine.solution(), naive.solution());
    assert_eq!(engine.stage_stats(), naive.stage_stats());
    assert_eq!(engine.stats().full_solves, 1, "only the initial solve runs cold");
}

#[test]
fn default_engine_resolves_incrementally() {
    // Two clients, so any one-delta batch is half the instance: with no
    // knob set the engine still re-solves from its journal, and the result
    // equals the naive reference.
    let mut b = TreeBuilder::new();
    let n1 = b.add_internal(b.root(), 2);
    b.add_client(n1, 1, 4);
    let client = b.add_client(n1, 2, 5);
    let inst = Instance::new(b.freeze().unwrap(), 10, Some(4)).unwrap();
    let mut engine = ServeEngine::new(&inst).unwrap();
    let mut naive = ServeEngine::new(&inst).unwrap();
    naive.set_naive_resolve(true);
    engine.solve().unwrap();
    naive.solve().unwrap();
    engine.apply_delta(client.0, DemandDelta::Add(2)).unwrap();
    naive.apply_delta(client.0, DemandDelta::Add(2)).unwrap();
    assert!(engine.solve().unwrap().incremental);
    assert!(!naive.solve().unwrap().incremental);
    assert_eq!(engine.solution(), naive.solution());
    assert_eq!(engine.stage_stats(), naive.stage_stats());
    assert_eq!((engine.stats().full_solves, engine.stats().incremental_solves), (1, 1));
}

/// Applies one delta to both engines, solves both, and checks the engine
/// against the naive reference; returns the engine's outcome.
fn step_both(
    engine: &mut ServeEngine,
    naive: &mut ServeEngine,
    node: u32,
    delta: DemandDelta,
) -> rp_core::ServeOutcome {
    engine.apply_delta(node, delta).unwrap();
    naive.apply_delta(node, delta).unwrap();
    let outcome = engine.solve().expect("engine solve");
    naive.solve().expect("naive solve");
    assert_eq!(engine.solution(), naive.solution(), "after {delta:?} @ {node}");
    assert_eq!(engine.stage_stats(), naive.stage_stats(), "after {delta:?} @ {node}");
    outcome
}

/// Two regions under the root, each a node `n` (edge 5) over two clients
/// (edges 1 and 2). With `dmax = 3` a client reaches its `n` but not the
/// root, so each region's requests get stuck at its `n`: one stage per
/// region with demand, none at the root. Returns the instance and the
/// clients `[a, b, c, d]` (`a`, `b` under the first region).
fn two_regions(reqs: [u64; 4]) -> (Instance, [u32; 4]) {
    let mut b = TreeBuilder::new();
    let root = b.root();
    let mut ids = [0; 4];
    for region in 0..2 {
        let n = b.add_internal(root, 5);
        ids[2 * region] = b.add_client(n, 1, reqs[2 * region]).0;
        ids[2 * region + 1] = b.add_client(n, 2, reqs[2 * region + 1]).0;
    }
    (Instance::new(b.freeze().unwrap(), 10, Some(3)).unwrap(), ids)
}

#[test]
fn a_vanishing_spine_stage_leaves_the_journal() {
    let (inst, [a, b, c, _]) = two_regions([4, 3, 5, 2]);
    let mut engine = ServeEngine::new(&inst).unwrap();
    let mut naive = ServeEngine::new(&inst).unwrap();
    naive.set_naive_resolve(true);
    engine.solve().unwrap();
    naive.solve().unwrap();
    assert_eq!(engine.stage_stats().stages, 2);

    // Draining `a` keeps the first region's stage (b is still stuck).
    let out = step_both(&mut engine, &mut naive, a, DemandDelta::Set(0));
    assert!(out.incremental);
    assert_eq!((out.stages_reused, out.stages_recomputed), (1, 1));
    // Draining `b` empties its stuck set: the stage vanishes, its replica
    // goes, and only the other region's stage is carried.
    let out = step_both(&mut engine, &mut naive, b, DemandDelta::Sub(3));
    assert!(out.incremental);
    assert_eq!((out.stages_reused, out.stages_recomputed), (1, 0));
    assert_eq!(engine.stage_stats().stages, 1);
    assert_eq!(out.replicas, 1);
    // The other region still re-solves incrementally against the journal.
    let out = step_both(&mut engine, &mut naive, c, DemandDelta::Add(1));
    assert_eq!((out.stages_reused, out.stages_recomputed), (0, 1));
}

#[test]
fn a_new_stage_on_a_spine_node_without_a_journal_entry() {
    let (inst, [a, _, c, d]) = two_regions([0, 0, 5, 2]);
    let mut engine = ServeEngine::new(&inst).unwrap();
    let mut naive = ServeEngine::new(&inst).unwrap();
    naive.set_naive_resolve(true);
    engine.solve().unwrap();
    naive.solve().unwrap();
    assert_eq!(engine.stage_stats().stages, 1, "the empty region fires no stage");

    let out = step_both(&mut engine, &mut naive, a, DemandDelta::Set(6));
    assert!(out.incremental);
    assert_eq!((out.stages_reused, out.stages_recomputed), (1, 1));
    assert_eq!(engine.stage_stats().stages, 2);
    assert_eq!(out.replicas, 2);
    // Both regions at once, then back to empty: spines meet at the root.
    step_both(&mut engine, &mut naive, c, DemandDelta::Sub(5));
    step_both(&mut engine, &mut naive, d, DemandDelta::Set(0));
    let out = step_both(&mut engine, &mut naive, a, DemandDelta::Set(0));
    assert!(out.incremental);
    assert_eq!((out.replicas, engine.stage_stats().stages), (0, 0));
}

#[test]
fn stamps_past_half_force_one_full_solve_that_matches_naive() {
    let s = Scenario {
        caterpillar: true,
        cat_picks: (0..24).map(|i| (i % 2, (i / 2) % 2, i * 5 % 9)).collect(),
        internals: vec![],
        clients: vec![],
        capacity: 12,
        dmax: Some(7),
        batches: vec![],
        sides: vec![],
    };
    let (tree, client_ids) = s.build(None);
    let inst = Instance::new(tree, s.capacity, s.dmax).expect("positive capacity");
    let mut engine = ServeEngine::new(&inst).unwrap();
    let mut naive = ServeEngine::new(&inst).unwrap();
    naive.set_naive_resolve(true);
    engine.solve().unwrap();
    naive.solve().unwrap();

    // One below half: the next solve is still incremental and carries
    // every stamp past half; the one after runs full and resets them; then
    // the engine is incremental again.
    engine.advance_stamps((1 << 31) - 1);
    let mut modes = Vec::new();
    for (k, &node) in client_ids.iter().enumerate().take(4) {
        let out = step_both(&mut engine, &mut naive, node, DemandDelta::Add(1 + k as u64 % 2));
        modes.push(out.incremental);
    }
    assert_eq!(modes, [true, false, true, true]);

    // At the very edge the guard runs the next solve full before anything
    // can wrap.
    engine.advance_stamps(u32::MAX - 1);
    let out = step_both(&mut engine, &mut naive, client_ids[5], DemandDelta::Sub(1));
    assert!(!out.incremental);
    let out = step_both(&mut engine, &mut naive, client_ids[6], DemandDelta::Set(3));
    assert!(out.incremental);
    assert_eq!(engine.stats().full_solves, 3);
}

#[test]
fn a_one_client_delta_sweeps_only_its_root_path() {
    for (clients, seed) in [(4096, 0x5EED), (65536, 0xB16)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_binary_tree(
            clients,
            &EdgeDist::Uniform { lo: 1, hi: 3 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let inst = wrap_instance(tree, 3.0, Some(0.3));
        let arena = inst.tree().arena();
        let ids: Vec<u32> = (0..arena.len() as u32).filter(|&v| arena.is_client(v)).collect();
        let mut engine = ServeEngine::new(&inst).unwrap();
        engine.solve().unwrap();
        assert_eq!(engine.stats().last_swept, arena.len() as u64, "a full solve sweeps all");
        for k in [0, ids.len() / 3, ids.len() - 1] {
            let c = ids[k];
            let delta = if engine.requests_of(c) > Some(1) {
                DemandDelta::Sub(1)
            } else {
                DemandDelta::Add(1)
            };
            engine.apply_delta(c, delta).unwrap();
            assert!(engine.solve().unwrap().incremental);
            assert_eq!(
                engine.stats().last_swept,
                u64::from(arena.depth(c)) + 1,
                "{clients} clients: a delta on client {c} sweeps its root path"
            );
        }
        assert!(engine.solve().unwrap().incremental);
        assert_eq!(engine.stats().last_swept, 0, "no delta, nothing to sweep");
    }
}
