//! # rp-bench — shared helpers for the Criterion benchmarks
//!
//! The benchmark binaries in `benches/` time the algorithms, the exact
//! solvers, the reduction gadgets and the simulator; the *tables* of the
//! paper (ratios, optimality rates, policy comparisons) are produced by
//! `rp-harness` / `rp experiment` and recorded in `EXPERIMENTS.md`. One bench
//! target exists per experiment group:
//!
//! | bench target | experiments |
//! |---|---|
//! | `scaling` | E6 (running-time scaling) — writes the machine-readable `BENCH_scaling.json` |
//! | `figures` | E1, E2 (Fig. 3 and Fig. 4 families) |
//! | `exact_and_reductions` | E3, E5, E9 (exact solvers and gadgets) |
//! | `policy_and_sensitivity` | E7, E8 |
//! | `simulator` | simulator throughput |
//!
//! The `scaling` target is the one CI consumes: `bench-smoke` runs it in
//! quick mode (`cargo bench -p rp-bench --bench scaling -- --quick`),
//! uploads `BENCH_scaling.json` and gates the 1024-client `multiple-bin`
//! median against `bench/baseline.json` via `rp bench-gate` (see the
//! [`scaling`] module for the report format).

// `deny`, not `forbid`: `alloc_track` opts back in for its `GlobalAlloc`
// impl, the one place the crate touches raw pointers.
#![deny(unsafe_code)]

pub mod alloc_track;
pub mod scaling;
pub mod serve;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::Instance;

/// Deterministic random binary-tree instance used across benches.
pub fn binary_instance(clients: usize, dmax_fraction: Option<f64>, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_binary_tree(
        clients,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    wrap_instance(tree, 3.0, dmax_fraction)
}

/// Deterministic random k-ary-tree instance used across benches.
pub fn kary_instance(
    clients: usize,
    arity: usize,
    dmax_fraction: Option<f64>,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_kary_tree(
        clients,
        arity,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    wrap_instance(tree, 3.0, dmax_fraction)
}

/// Deterministic `deep_fallback` instance: a **wide binary caterpillar** —
/// a short spine (≤ ~128 nodes) whose every node hangs a wide, *shallow*
/// balanced leg of `max(8, clients/128)` clients — under a tight capacity
/// (~1.8 average clients per server) and a short distance budget. A stuck
/// event then strands one or more *whole legs* at a spine ancestor: the
/// volume bound `r0` on new replicas is large, so `C(candidates, r0)`
/// blows the enumeration cost model and the stage goes straight to the
/// strict stage-DP fallback — the regime the `deep_fallback` rows of the
/// scaling grid exist to watch at every size, not only at 16384 clients.
/// Two shapes deliberately avoided: one-client-per-spine-node caterpillars
/// strand one client at a time (`r0 ≤ 2`, everything enumerates), and long
/// spines make the stage engine's per-stage re-routing quadratic in the
/// spine length, drowning the DP signal this family exists to measure.
pub fn deep_fallback_instance(clients: usize, dmax_active: bool, seed: u64) -> Instance {
    let leg = (clients / 128).max(8);
    let mut rng = StdRng::seed_from_u64(seed);
    let requests: Vec<u64> = (0..clients.max(1)).map(|_| rng.gen_range(1..=9u64)).collect();
    let mut b = rp_tree::TreeBuilder::new();
    let mut spine = b.root();
    for (i, leg_reqs) in requests.chunks(leg).enumerate() {
        if i > 0 {
            spine = b.add_internal(spine, 2);
        }
        // A dedicated leg root keeps the spine binary; the leg splits
        // below it as a balanced binary subtree with the clients at the
        // leaves (wide and shallow — depth log₂ leg).
        let leg_root = b.add_internal(spine, 1);
        add_balanced_leg(&mut b, leg_root, leg_reqs);
    }
    let tree = b.freeze().expect("caterpillar-of-legs construction is always valid");
    wrap_instance(tree, 1.8, if dmax_active { Some(0.3) } else { None })
}

/// Deterministic `long_spine` instance: a **long caterpillar** — one spine
/// node per client, each hanging a single client leaf — under a moderate
/// capacity (W = 12, requests 1..=9) and a *constant* distance budget
/// (`dmax = 24`, deliberately not a fraction of the span): requests get
/// stuck every few spine nodes, so the solve runs Θ(clients) stages whose
/// affected scopes are bounded windows of the spine. This is the family
/// PR 4 had to shelve as quadratic — every stage used to re-collect and
/// re-route the whole subtree below it, Θ(stages × subtree) — and the
/// incremental stage commit exists to make tractable; the
/// `multiple-bin-spine` rows of the scaling grid watch exactly that.
/// Without `dmax` the family degenerates to one maximal root stage on a
/// chain (nothing ever gets stuck below the root) — historically the EDF
/// router's Θ(clients²) carried-merge worst case, which kept the NoD rows
/// out of the scaling grid until PR 8's hierarchical carried aggregation
/// made chain merges linear; the grid now carries both variants.
pub fn long_spine_instance(clients: usize, dmax_active: bool, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let reqs: Vec<u64> = (0..clients.max(1)).map(|_| rng.gen_range(1..=9u64)).collect();
    let tree = rp_instances::families::caterpillar(&reqs, 1, 1);
    Instance::new(tree, 12, if dmax_active { Some(24) } else { None })
        .expect("capacity is positive")
}

/// Hangs a balanced binary subtree below `parent` with `reqs` as its leaf
/// clients (all edges 1).
fn add_balanced_leg(b: &mut rp_tree::TreeBuilder, parent: rp_tree::NodeId, reqs: &[u64]) {
    match reqs {
        [] => {}
        [r] => {
            b.add_client(parent, 1, *r);
        }
        _ => {
            let mid = reqs.len() / 2;
            let left = b.add_internal(parent, 1);
            add_balanced_leg(b, left, &reqs[..mid]);
            let right = b.add_internal(parent, 1);
            add_balanced_leg(b, right, &reqs[mid..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        let a = binary_instance(32, Some(0.7), 9);
        let b = binary_instance(32, Some(0.7), 9);
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.tree().len(), b.tree().len());
        let k = kary_instance(32, 4, None, 9);
        assert!(k.tree().arity() <= 4);
        let d = deep_fallback_instance(24, true, 9);
        let e = deep_fallback_instance(24, true, 9);
        assert_eq!(d.capacity(), e.capacity());
        assert!(d.tree().is_binary(), "multiple-bin must accept the family");
        assert!(d.dmax().is_some() && deep_fallback_instance(24, false, 9).dmax().is_none());
        let s = long_spine_instance(48, true, 9);
        let t = long_spine_instance(48, true, 9);
        assert_eq!(s.tree().len(), t.tree().len());
        assert!(s.tree().is_binary(), "multiple-bin must accept the spine family");
        assert_eq!(s.dmax(), Some(24), "the spine distance budget is constant, not span-scaled");
        assert!(long_spine_instance(48, false, 9).dmax().is_none());
    }

    #[test]
    fn long_spine_text_is_pinned() {
        let text = rp_tree::io::write_instance(&long_spine_instance(48, true, 9));
        assert_eq!(text, include_str!("../tests/golden/long-spine-48.instance.txt"));
    }

    #[test]
    fn long_spine_family_is_stage_dense() {
        // The family exists to run many bounded-scope stages: the dmax
        // variant must trigger a stage count proportional to the spine
        // length, with most of the committed volume *skipped* (left
        // untouched outside the stages' scopes) — the regime the
        // incremental stage commit exists for.
        let inst = long_spine_instance(192, true, 3);
        let mut scratch = rp_core::SolverScratch::new();
        rp_core::multiple_bin_with(&inst, &mut scratch).expect("feasible");
        let stats = *scratch.stage_stats();
        assert!(stats.stages >= 32, "expected a stage-dense solve, got {stats:?}");
        assert!(
            stats.commit_skipped > stats.commit_touched,
            "bounded scopes should skip most committed volume: {stats:?}"
        );
    }
}
