//! Regression suite for [`rp_core::SolverScratch`] reuse: a scratch that is
//! threaded through many consecutive solves must produce *exactly* the same
//! solutions (replica sets and assignments, not just counts) as one-shot
//! fresh-scratch solves. Any divergence means state leaked across solves —
//! a stale buffer row, an eligibility stamp surviving a `prepare`, a carried
//! list not restored by a failed routing call.
//!
//! The mix is deliberately adversarial for buffer reuse:
//!
//! * instances are interleaved **small after large** so oversized stale rows
//!   exist whenever a bug would expose them;
//! * families alternate shape (random binary, caterpillar, balanced k-ary,
//!   chain, the paper's tight worst cases) so post-order layouts differ
//!   wildly between consecutive solves;
//! * `dmax` toggles on/off so deadline arrays are rebuilt both ways;
//! * all three arena-based algorithms share the **same** scratch, the way a
//!   sweep or server would drive them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::{
    multiple_bin, multiple_bin_with, single_gen, single_gen_with, single_nod, single_nod_with,
    SolverScratch,
};
use rp_instances::families::{balanced, caterpillar, chain};
use rp_instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use rp_instances::worst_case::{single_gen_tight, single_nod_tight};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::{validate, Instance, Policy};

/// The instance mix: name (for failure messages) plus the instance.
fn instance_mix() -> Vec<(String, Instance)> {
    let mut rng = StdRng::seed_from_u64(0x5C7A7C8);
    let mut out: Vec<(String, Instance)> = Vec::new();

    // Family 1: random binary trees (the multiple-bin input class), large
    // and small interleaved, dmax alternating.
    for (i, clients) in [96usize, 5, 48, 9].into_iter().enumerate() {
        let tree = random_binary_tree(
            clients,
            &EdgeDist::Uniform { lo: 1, hi: 3 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let dmax = if i % 2 == 0 { Some(0.7) } else { None };
        out.push((format!("random-binary/{clients}"), wrap_instance(tree, 2.5, dmax)));
    }

    // Family 2: caterpillars — long spines stress the carried lists and the
    // deadline walks.
    let requests: Vec<u64> = (0..40).map(|i| 1 + (i * 7) % 9).collect();
    out.push((
        "caterpillar/40".into(),
        wrap_instance(caterpillar(&requests, 2, 1), 3.0, Some(0.5)),
    ));
    out.push(("caterpillar/6".into(), wrap_instance(caterpillar(&requests[..6], 1, 3), 2.0, None)));

    // Family 3: balanced k-ary trees (k = 2 for multiple-bin eligibility,
    // k = 3 for the single algorithms).
    out.push(("balanced/2x5".into(), wrap_instance(balanced(2, 5, 2, 5, 2), 3.0, Some(0.6))));
    out.push(("balanced/3x3".into(), wrap_instance(balanced(3, 3, 3, 4, 1), 2.0, None)));

    // Family 4: chains — maximal depth per node count; also exercises the
    // iterative sweeps where recursion used to sit.
    out.push(("chain/64".into(), wrap_instance(chain(64, 1, 6), 4.0, Some(0.4))));

    // Family 4b: deep-path trees (depth ≫ log n) — the regime where the
    // arena's root-path deadline search and the stage engine's
    // active-forest walks replace O(depth) scans; naive-walk parity is
    // separately pinned by `crates/treenet/tests/proptest_deadlines.rs`.
    out.push(("chain/200".into(), wrap_instance(chain(200, 1, 5), 4.0, Some(0.3))));
    let deep_requests: Vec<u64> = (0..160).map(|i| 1 + (i * 5) % 8).collect();
    out.push((
        "caterpillar/deep160".into(),
        wrap_instance(caterpillar(&deep_requests, 2, 1), 3.0, Some(0.25)),
    ));
    out.push((
        "caterpillar/deep160-nod".into(),
        wrap_instance(caterpillar(&deep_requests, 1, 2), 2.5, None),
    ));

    // Family 5: the paper's tight worst-case gadgets.
    out.push(("fig3/m3d2".into(), single_gen_tight(3, 2).instance));
    out.push(("fig4/k4".into(), single_nod_tight(4).instance));

    // Family 7: wide shallow binary trees with tight W — every stage's
    // candidate space blows the enumeration cost model, so these solves
    // live in the pooled stage-DP fallback (exercised further, with stats
    // assertions, by `heavy_fallback_stages_reuse_scratch` below).
    out.push(("wide-tight/64".into(), wrap_instance(balanced(2, 5, 2, 7, 1), 1.4, Some(0.4))));
    out.push(("wide-tight/128".into(), wrap_instance(balanced(2, 6, 2, 6, 2), 1.5, None)));

    // Family 7b: long spines under a *short constant* distance budget —
    // the stage-dense regime of the incremental stage commit, where every
    // spine node runs a stage whose affected scope is a bounded window
    // (exercised further, with commit-counter assertions, by
    // `stage_dense_commit_counters_reuse_scratch` below).
    let spine_requests: Vec<u64> = (0..120).map(|i| 1 + (i * 3) % 9).collect();
    out.push((
        "long-spine/120".into(),
        Instance::new(caterpillar(&spine_requests, 1, 1), 12, Some(8)).unwrap(),
    ));

    // Family 6: random k-ary (arity 3–4) for the single-policy algorithms.
    for clients in [64usize, 7] {
        let tree = random_kary_tree(
            clients,
            3 + clients % 2,
            &EdgeDist::Uniform { lo: 1, hi: 2 },
            &RequestDist::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        out.push((format!("random-kary/{clients}"), wrap_instance(tree, 2.0, Some(0.8))));
    }

    out
}

#[test]
fn shared_scratch_solves_match_fresh_solves_across_families() {
    let mix = instance_mix();
    assert!(mix.len() >= 10, "the mix should cover many instances");
    let mut shared = SolverScratch::new();
    let mut multiple_checked = 0;
    for (name, inst) in &mix {
        // single-gen: every instance qualifies (r_i ≤ W by construction).
        let reused = single_gen_with(inst, &mut shared).expect("single-gen feasible");
        let fresh = single_gen(inst).expect("single-gen feasible");
        assert_eq!(reused, fresh, "[{name}] single-gen diverged under scratch reuse");
        validate(inst, Policy::Single, &reused).expect("single-gen output valid");

        // single-nod: validated against the distance-free twin (the
        // algorithm ignores dmax by design).
        let reused = single_nod_with(inst, &mut shared).expect("single-nod feasible");
        let fresh = single_nod(inst).expect("single-nod feasible");
        assert_eq!(reused, fresh, "[{name}] single-nod diverged under scratch reuse");
        let nod_twin = Instance::new(inst.tree().clone(), inst.capacity(), None).unwrap();
        validate(&nod_twin, Policy::Single, &reused).expect("single-nod output valid");

        // multiple-bin: binary instances only.
        if inst.tree().is_binary() {
            let reused = multiple_bin_with(inst, &mut shared).expect("multiple-bin feasible");
            let fresh = multiple_bin(inst).expect("multiple-bin feasible");
            assert_eq!(reused, fresh, "[{name}] multiple-bin diverged under scratch reuse");
            validate(inst, Policy::Multiple, &reused).expect("multiple-bin output valid");
            multiple_checked += 1;
        }
    }
    assert!(multiple_checked >= 5, "the mix must exercise multiple-bin broadly");
}

#[test]
fn heavy_fallback_stages_reuse_scratch() {
    // The pooled stage-DP fallback keeps its slabs (and their high-water
    // allocations) across stages AND solves; interleaving fallback-heavy
    // instances of very different sizes through one scratch must still
    // match fresh-scratch solves exactly. Wide shallow trees with tight
    // `W` strand whole subtrees at once, so `C(candidates, r0)` blows the
    // enumeration cost model and every stage runs the DP.
    let mut shared = SolverScratch::new();
    let mix: Vec<(String, Instance)> = [(6usize, 1.4f64), (3, 1.3), (5, 1.5), (2, 1.2), (6, 1.6)]
        .iter()
        .enumerate()
        .map(|(i, &(levels, factor))| {
            let dmax = if i % 2 == 0 { Some(0.45) } else { None };
            let inst = wrap_instance(balanced(2, levels, 2, 5 + i as u64, 1), factor, dmax);
            (format!("wide-tight/levels{levels}"), inst)
        })
        .collect();
    let mut fallback_solves = 0;
    for (name, inst) in &mix {
        let reused = multiple_bin_with(inst, &mut shared).expect("multiple-bin feasible");
        let stats = *shared.stage_stats();
        assert!(stats.stages > 0, "[{name}] tight W must trigger stages");
        if stats.dp_fallbacks > 0 {
            fallback_solves += 1;
            assert!(stats.dp_node_visits > 0, "[{name}] fallbacks must visit DP nodes");
        }
        let fresh = multiple_bin(inst).expect("multiple-bin feasible");
        assert_eq!(reused, fresh, "[{name}] fallback-heavy solve diverged under scratch reuse");
        validate(inst, Policy::Multiple, &reused).expect("output valid");
    }
    assert!(
        fallback_solves >= 3,
        "the family exists to exercise the DP fallback; only {fallback_solves} solves used it"
    );
}

#[test]
fn stage_dense_commit_counters_reuse_scratch() {
    // The incremental commit's touched/skipped volume counters must (a)
    // actually engage on stage-dense instances — bounded scopes skip most
    // of the committed volume — and (b) be a pure function of the
    // instance: re-solving through a dirty shared scratch reproduces them
    // exactly, along with the solution. The mix interleaves long spines
    // of different lengths with a wide fallback-heavy shape so the
    // per-subtree demand row and the scope walks see stale state whenever
    // a bug would expose it.
    let mut shared = SolverScratch::new();
    let mut skipped_heavy = 0;
    let mix: Vec<(String, Instance)> = [120usize, 24, 80, 12, 96]
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let requests: Vec<u64> = (0..len).map(|k| 1 + (k as u64 * 5) % 9).collect();
            let inst = if i == 3 {
                wrap_instance(balanced(2, 5, 2, 5, 1), 1.4, Some(0.45))
            } else {
                Instance::new(caterpillar(&requests, 1, 1), 11, Some(7)).unwrap()
            };
            (format!("stage-dense/{len}"), inst)
        })
        .collect();
    for (name, inst) in &mix {
        let reused = multiple_bin_with(inst, &mut shared).expect("multiple-bin feasible");
        let stats = *shared.stage_stats();
        assert!(stats.stages > 0, "[{name}] the mix must trigger stages");
        assert_eq!(stats.repairs, 0, "[{name}] commits must route first try");
        if stats.commit_skipped > stats.commit_touched {
            skipped_heavy += 1;
        }
        let mut fresh_scratch = SolverScratch::new();
        let fresh = multiple_bin_with(inst, &mut fresh_scratch).expect("multiple-bin feasible");
        assert_eq!(reused, fresh, "[{name}] stage-dense solve diverged under scratch reuse");
        assert_eq!(
            &stats,
            fresh_scratch.stage_stats(),
            "[{name}] commit counters must not depend on scratch reuse"
        );
        validate(inst, Policy::Multiple, &reused).expect("output valid");
    }
    assert!(
        skipped_heavy >= 3,
        "long spines exist to skip most committed volume; only {skipped_heavy} solves did"
    );
}

#[test]
fn repeated_solves_of_one_instance_are_stable() {
    // Determinism under reuse: solving the same instance three times in a
    // row through one scratch returns byte-identical solutions.
    let mut rng = StdRng::seed_from_u64(42);
    let tree = random_binary_tree(
        32,
        &EdgeDist::Uniform { lo: 1, hi: 3 },
        &RequestDist::Uniform { lo: 1, hi: 9 },
        &mut rng,
    );
    let inst = wrap_instance(tree, 2.5, Some(0.7));
    let mut scratch = SolverScratch::new();
    let first = multiple_bin_with(&inst, &mut scratch).unwrap();
    for _ in 0..2 {
        let again = multiple_bin_with(&inst, &mut scratch).unwrap();
        assert_eq!(first, again, "repeated solve drifted");
    }
}
