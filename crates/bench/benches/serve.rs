//! The serve soak behind `BENCH_serve.json`: a warm [`ServeEngine`] driven
//! through a long deterministic delta stream per family, timing every warm
//! solve against cold reference solves of the same demand states.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p rp-bench --bench serve              # full soak (1000 deltas)
//! cargo bench -p rp-bench --bench serve -- --quick   # CI soak (200 deltas)
//! BENCH_OUT=/tmp/serve.json cargo bench -p rp-bench --bench serve
//! ```
//!
//! Three families at 16384 clients, spanning the journal's regimes:
//!
//! * `binary-shallow` (dmax fraction 0.3, quick + full): short deadlines
//!   fire ~1100 small stages low in the tree; a delta re-sweeps only its
//!   root path, and everything off it is carried from the journal. The
//!   re-solve is search-bound: ≈19 re-searched stages per delta, quick
//!   warm p50 ≈27 ms against a ≈0.98 s cold solve (≈63 ms when every
//!   re-solve swept the whole tree; 2-core x86-64 VM, release build).
//! * `binary-dmax` (fraction 0.7, full only): root-level deadlines
//!   concentrate the work in a few giant stages on every delta's root
//!   path, so their searches honestly re-run — the root-coupled regime.
//! * `spine` (full only): Θ(clients) chained bounded-window stages; a
//!   delta recomputes its whole root-ward chain (upstream pools genuinely
//!   absorb the changed volume), so the speedup is proportional to how
//!   shallow the delta lands.
//!
//! Every 64 rounds the warm solution is re-checked against a cold solve of
//! the same demands — the soak is a correctness belt, not just a
//! stopwatch. Timing is done directly with [`Instant`] (one solve per
//! delta round is the thing being measured; the criterion shim's
//! steady-state sampling doesn't fit a stateful stream), but `--quick` and
//! `BENCH_OUT` behave exactly like the other targets.

use criterion::quick_mode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::serve::{ServeBenchCell, ServeReport, SCHEMA};
use rp_bench::{binary_instance, long_spine_instance};
use rp_core::serve::persist::PersistConfig;
use rp_core::{multiple_bin_arena, DemandDelta, LatencyHistogram, ServeEngine, SolverScratch};
use rp_tree::{Instance, StreamNode};
use std::time::Instant;

const CLIENTS: usize = 16384;

/// Ceiling on the cold-start recovery of each family's persisted stream,
/// in milliseconds. Override with `RP_RECOVERY_GATE_MS` (0 disables).
const RECOVERY_GATE_MS: u64 = 2000;

fn families(quick: bool) -> Vec<(&'static str, Instance)> {
    // Seeds mirror the scaling grid's convention.
    let seed = 0xE6 ^ (CLIENTS as u64).rotate_left(17) ^ 1;
    let mut out = vec![("binary-shallow", binary_instance(CLIENTS, Some(0.3), seed))];
    if !quick {
        out.push(("binary-dmax", binary_instance(CLIENTS, Some(0.7), seed)));
        out.push(("spine", long_spine_instance(CLIENTS, true, seed)));
    }
    out
}

/// One deterministic, always-valid delta: tracks current demand so adds
/// never exceed capacity and subs never underflow (mirrors `rp
/// serve-script`).
fn next_delta(rng: &mut StdRng, clients: &[u32], demand: &mut [u64], w: u64) -> (u32, DemandDelta) {
    let i = rng.gen_range(0..clients.len());
    let cur = demand[i];
    let headroom = w - cur;
    let roll: u8 = rng.gen_range(0..10);
    let (delta, new) = if roll < 6 && headroom > 0 {
        let k = rng.gen_range(1..=headroom.min(9));
        (DemandDelta::Add(k), cur + k)
    } else if roll < 9 && cur > 0 {
        let k = rng.gen_range(1..=cur.min(9));
        (DemandDelta::Sub(k), cur - k)
    } else {
        let k = rng.gen_range(0..=w.min(9));
        (DemandDelta::Set(k), k)
    };
    demand[i] = new;
    (clients[i], delta)
}

/// A cold solve of the engine's *current* demand state, on a fresh scratch:
/// the reference the warm solutions are compared against, and the
/// denominator of the speedup ratio. The warm arena is re-streamed into the
/// fresh scratch (builder ids are emission-ordered, so every parent
/// precedes its children); only the solve itself is timed.
fn cold_solve(engine: &ServeEngine) -> (rp_tree::Solution, u64) {
    let arena = engine.arena();
    let mut scratch = SolverScratch::new();
    scratch
        .load_arena_from_stream(
            arena.len(),
            (0..arena.len() as u32).map(|v| StreamNode {
                parent: arena.parent(v),
                edge: arena.edge(v),
                requests: arena.requests(v),
                is_client: arena.is_client(v),
            }),
        )
        .expect("re-streaming a valid arena is valid");
    let start = Instant::now();
    let solution = multiple_bin_arena(&mut scratch, engine.capacity(), engine.dmax())
        .expect("soak instances stay feasible");
    (solution, start.elapsed().as_nanos().min(u64::MAX as u128) as u64)
}

fn main() {
    let quick = quick_mode();
    let rounds: u64 = if quick { 200 } else { 1000 };
    let cold_samples = if quick { 3 } else { 5 };

    let recovery_gate_ms: u64 = std::env::var("RP_RECOVERY_GATE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(RECOVERY_GATE_MS);

    let mut cells = Vec::new();
    for (family, instance) in families(quick) {
        let mut engine = ServeEngine::new(&instance).expect("soak instances are binary");
        // The soak runs with persistence attached — the warm-path gate
        // holds with the WAL on the write path, not just in a dry run.
        let state_dir =
            std::env::temp_dir().join(format!("rp-bench-serve-{family}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        engine
            .attach_persist(&state_dir, PersistConfig::default())
            .expect("fresh state dir attaches cold");
        let tree = instance.tree();
        let clients: Vec<u32> =
            tree.node_ids().filter(|&id| tree.is_client(id)).map(|id| id.0).collect();
        let mut demand: Vec<u64> =
            clients.iter().map(|&c| engine.requests_of(c).expect("client")).collect();
        let w = instance.capacity();
        let mut rng = StdRng::seed_from_u64(0x5E21);

        let mut hist = LatencyHistogram::new();
        let mut cold_ns = Vec::new();
        let session = Instant::now();
        engine.solve().expect("warm-up solve");
        for round in 0..rounds {
            let (node, delta) = next_delta(&mut rng, &clients, &mut demand, w);
            engine.apply_delta(node, delta).expect("generated deltas are valid");
            let start = Instant::now();
            let outcome = engine.solve().expect("soak instances stay feasible");
            hist.record_ns(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            // Correctness belt: periodically (and on the last round) pin the
            // warm solution to a cold solve of the same demand state.
            if round % 64 == 0 || round + 1 == rounds {
                let (reference, ns) = cold_solve(&engine);
                if cold_ns.len() < cold_samples {
                    cold_ns.push(ns);
                }
                assert_eq!(
                    reference,
                    engine.solution(),
                    "{family}: warm solve diverged from cold at round {round} \
                     (outcome {outcome:?})"
                );
            }
        }
        let elapsed = session.elapsed();
        cold_ns.sort_unstable();

        // Recovery cost: a fresh engine replays the persisted stream
        // (snapshot + WAL tail) the soak just wrote. The recovered demand
        // must match the warm engine client for client, and the replay
        // must beat the gate — a restarted daemon is back in business in
        // bounded time.
        let mut revived = ServeEngine::new(&instance).expect("soak instances are binary");
        let recovery_start = Instant::now();
        revived
            .attach_persist(&state_dir, PersistConfig::default())
            .expect("the soak's own state recovers");
        let recovery_ms = recovery_start.elapsed().as_millis().min(u64::MAX as u128) as u64;
        for &c in &clients {
            assert_eq!(
                revived.requests_of(c),
                engine.requests_of(c),
                "{family}: recovered demand diverged at client {c}"
            );
        }
        drop(revived);
        let _ = std::fs::remove_dir_all(&state_dir);
        assert!(
            recovery_gate_ms == 0 || recovery_ms <= recovery_gate_ms,
            "{family}: recovery took {recovery_ms} ms, gate is {recovery_gate_ms} ms"
        );

        let stats = engine.stats();
        let cell = ServeBenchCell {
            family: family.to_string(),
            clients: CLIENTS as u64,
            nodes: tree.len() as u64,
            deltas: stats.deltas_applied,
            solves: stats.solves,
            full_solves: stats.full_solves,
            stages_reused: stats.stages_reused,
            stages_recomputed: stats.stages_recomputed,
            cold_median_ns: cold_ns[cold_ns.len() / 2],
            inc_p50_ns: hist.quantile_ns(0.5),
            inc_p99_ns: hist.quantile_ns(0.99),
            inc_mean_ns: hist.mean_ns(),
            deltas_per_sec: (stats.deltas_applied as u128 * 1_000_000_000
                / elapsed.as_nanos().max(1)) as u64,
            recovery_ms,
            stale_served: stats.stale_served,
        };
        println!(
            "{SCHEMA} {family}: {} deltas, {} solves ({} full), cold median {} us, \
             warm p50 {} us / p99 {} us ({:.1}x median speedup), reuse {}/{}, \
             recovery {} ms, stale {}",
            cell.deltas,
            cell.solves,
            cell.full_solves,
            cell.cold_median_ns / 1_000,
            cell.inc_p50_ns / 1_000,
            cell.inc_p99_ns / 1_000,
            cell.cold_median_ns as f64 / cell.inc_p50_ns.max(1) as f64,
            cell.stages_reused,
            cell.stages_recomputed,
            cell.recovery_ms,
            cell.stale_served,
        );
        cells.push(cell);
    }

    let report = ServeReport { quick, cells };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = match std::env::var("BENCH_OUT") {
        Ok(p) if !p.is_empty() => {
            let p = std::path::PathBuf::from(p);
            if p.is_absolute() {
                p
            } else {
                root.join(p)
            }
        }
        _ => root.join("BENCH_serve.json"),
    };
    std::fs::write(&out, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {} cells to {}", report.cells.len(), out.display());
}
