//! The scaling run behind `BENCH_scaling.json`: every algorithm across the
//! clients × {dmax on/off} grid (256 → 16384 clients; quick mode stops at
//! 4096 except for the gated spine family, which keeps 16384), with
//! median/mean solve times, solve stats and peak heap bytes per cell — plus
//! the million-client tier (65536 → 1048576 clients, quick mode 65536 and
//! 262144), generated by the streaming generator directly into the solver
//! arena and solved through the frontier-parallel entry points.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p rp-bench --bench scaling              # full grid
//! cargo bench -p rp-bench --bench scaling -- --quick   # CI smoke grid
//! BENCH_OUT=/tmp/report.json cargo bench -p rp-bench --bench scaling
//! ```
//!
//! `multiple-bin`, `single-gen` and `single-nod` are timed through a shared
//! [`SolverScratch`], i.e. in their steady allocation-reusing state —
//! matching how a server or sweep would drive them. Timing comes from the
//! criterion shim (honouring `--quick` / `CRITERION_*` overrides); the JSON
//! report is assembled from [`criterion::measurements`] afterwards.

use criterion::{BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_bench::alloc_track::{peak_bytes, reset_peak, CountingAlloc};
use rp_bench::scaling::{family_grid_sizes, huge_grid_sizes, ScalingCell, ScalingReport};
use rp_bench::{binary_instance, deep_fallback_instance, kary_instance, long_spine_instance};
use rp_core::{
    baselines, multiple_bin_par, multiple_bin_with, single_gen_arena, single_gen_with,
    single_nod_arena, single_nod_with, SolverScratch,
};
use rp_instances::{binary_tree_len, instance_params_from_arena, stream_binary_tree};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::{Instance, Solution};
use std::hint::black_box;
use std::time::Duration;

/// Every allocation in this binary goes through the counting allocator, so
/// each cell can report the peak live heap of its reference solve.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The benched algorithms; `multiple-bin` runs on binary trees (its input
/// class), the rest on the arity-4 trees the E6 experiment uses. The
/// `multiple-bin-deep` rows are `multiple-bin` again, but on the
/// tight-capacity caterpillars of the `deep_fallback` family
/// ([`deep_fallback_instance`]) so the grid exercises the strict stage-DP
/// fallback at every size, not only at 16384 clients; the
/// `multiple-bin-spine` rows run it on the long-caterpillar `long_spine`
/// family ([`long_spine_instance`]), whose Θ(clients) bounded-scope stages
/// exercise the incremental stage commit (the family the whole-subtree
/// commit made quadratic and PR 4 had to shelve).
const ALGORITHMS: [&str; 6] = [
    "single-gen",
    "single-nod",
    "multiple-bin",
    "multiple-bin-deep",
    "multiple-bin-spine",
    "multiple-greedy",
];

fn instance_for(algorithm: &str, clients: usize, dmax: bool, seed: u64) -> Instance {
    let fraction = if dmax { Some(0.7) } else { None };
    match algorithm {
        "multiple-bin" => binary_instance(clients, fraction, seed),
        "multiple-bin-deep" => deep_fallback_instance(clients, dmax, seed),
        "multiple-bin-spine" => long_spine_instance(clients, dmax, seed),
        _ => kary_instance(clients, 4, fraction, seed),
    }
}

fn solve(algorithm: &str, inst: &Instance, scratch: &mut SolverScratch) -> Solution {
    match algorithm {
        "single-gen" => single_gen_with(inst, scratch).expect("feasible"),
        "single-nod" => single_nod_with(inst, scratch).expect("feasible"),
        "multiple-bin" | "multiple-bin-deep" | "multiple-bin-spine" => {
            multiple_bin_with(inst, scratch).expect("feasible")
        }
        "multiple-greedy" => baselines::multiple_greedy(inst).expect("feasible"),
        other => unreachable!("unknown algorithm {other}"),
    }
}

/// Whether the stage counters of a solve are meaningful for `algorithm`.
fn is_stage_algorithm(algorithm: &str) -> bool {
    algorithm.starts_with("multiple-bin")
}

/// One solve of the million-client tier: the arena is already loaded in
/// `scratch` (streamed — there is no `Instance`), so the tier goes through
/// the arena entry points; `multiple-bin` uses its frontier-parallel one.
fn solve_huge(
    algorithm: &str,
    scratch: &mut SolverScratch,
    w: u64,
    dmax: Option<u64>,
    threads: usize,
) -> Solution {
    match algorithm {
        "single-gen" => single_gen_arena(scratch, w, dmax).expect("feasible"),
        "single-nod" => single_nod_arena(scratch, w).expect("feasible"),
        "multiple-bin" => multiple_bin_par(scratch, w, dmax, threads).expect("feasible"),
        other => unreachable!("unknown huge-tier algorithm {other}"),
    }
}

fn main() {
    let quick = criterion::quick_mode();
    let mut criterion = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    let mut scratch = SolverScratch::new();

    // (group, id, stats) key for joining the shim's measurements back in.
    let mut stats: Vec<(String, String, ScalingCell)> = Vec::new();
    for algorithm in ALGORITHMS {
        for dmax in [true, false] {
            // The spine NoD rows (one maximal root stage on a chain — the
            // EDF router's former Θ(clients²) carried-merge worst case) were
            // omitted from the grid until PR 8's hierarchical carried
            // aggregation made them linear; they now run everywhere and are
            // gated like the dmax rows.
            let group_name = format!("scaling/{algorithm}/{}", if dmax { "dmax" } else { "nod" });
            let mut group = criterion.benchmark_group(group_name.clone());
            for &clients in family_grid_sizes(algorithm, quick) {
                let seed = 0xE6 ^ (clients as u64).rotate_left(17) ^ u64::from(dmax);
                let inst = instance_for(algorithm, clients, dmax, seed);
                // Release sparse-DP slab capacity retained from the
                // previous cell: peak tracking restarts at the current live
                // count, so capacity a past cell grew (and this one never
                // touches) would otherwise inflate this cell's reading.
                scratch.shrink_to_fit_slabs();
                reset_peak();
                let reference = solve(algorithm, &inst, &mut scratch);
                let peak_alloc_bytes = peak_bytes();
                // Stage counters of the reference solve (deterministic;
                // only the stage-engine algorithm populates them — the
                // scratch may hold another solve's counters otherwise).
                let stage = if is_stage_algorithm(algorithm) {
                    *scratch.stage_stats()
                } else {
                    rp_core::StageStats::default()
                };
                stats.push((
                    group_name.clone(),
                    clients.to_string(),
                    ScalingCell {
                        algorithm: algorithm.to_string(),
                        dmax,
                        clients: clients as u64,
                        nodes: inst.tree().len() as u64,
                        replicas: reference.replica_count() as u64,
                        median_ns: 0,
                        mean_ns: 0,
                        samples: 0,
                        stage,
                        peak_alloc_bytes,
                    },
                ));
                group.bench_with_input(BenchmarkId::from_parameter(clients), &inst, |b, inst| {
                    b.iter(|| solve(algorithm, black_box(inst), &mut scratch))
                });
            }
            group.finish();
        }
    }

    // ---- The million-client tier ----
    //
    // 65536 → 1048576 clients (quick mode: 65536 only), generated by the
    // *streaming* generator straight into the solver arena — no
    // `Tree`/`Instance` is ever materialised, which is what keeps the
    // 2M-node rows memory-lean — and solved through the arena entry points
    // (frontier-parallel for `multiple-bin`). One timed sample and no warm-up: at this size a single
    // extra `multiple-bin` solve costs more wall clock than every smaller
    // cell combined, and the tier exists to watch trends, not nanoseconds.
    let mut huge_criterion = Criterion::default()
        .sample_size(1)
        .warm_up_time(Duration::ZERO)
        .measurement_time(Duration::ZERO);
    // The tier is dropped out of the shared grid scratch: retained
    // capacity would otherwise pollute every later cell's
    // `peak_alloc_bytes` with live-but-idle bytes it never touches. The
    // grid cells fix this with `shrink_to_fit_slabs` — there the
    // pollution *is* the pooled DP slabs — but a parity run showed the
    // shrink is not enough at this tier: the per-node sweep slabs and the
    // arena itself, which the shrink deliberately keeps warm, grow across
    // the ascending sizes and inflated shared-scratch peaks by up to 2×.
    // So PR 8's isolation stands: each huge cell re-streams the
    // (deterministic) arena into a fresh scratch — seconds of generation
    // against minutes of solving — and its peak stays self-contained.
    drop(scratch);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let edges = EdgeDist::Uniform { lo: 1, hi: 3 };
    let requests = RequestDist::Uniform { lo: 1, hi: 9 };
    for &clients in huge_grid_sizes(quick) {
        let seed = 0xE6 ^ (clients as u64).rotate_left(17) ^ 1;
        for (algorithm, with_dmax) in
            [("single-gen", true), ("single-nod", false), ("multiple-bin", true)]
        {
            let mut scratch = SolverScratch::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = stream_binary_tree(clients, &edges, &requests, &mut rng);
            scratch
                .load_arena_from_stream(binary_tree_len(clients), stream)
                .expect("streamed binary tree is structurally valid");
            let nodes = scratch.arena().len() as u64;
            let (w, dmax) = instance_params_from_arena(scratch.arena(), 3.0, Some(0.7));
            let group_name =
                format!("scaling-huge/{algorithm}/{}", if with_dmax { "dmax" } else { "nod" });
            reset_peak();
            let reference = solve_huge(algorithm, &mut scratch, w, dmax, threads);
            let peak_alloc_bytes = peak_bytes();
            let stage = if is_stage_algorithm(algorithm) {
                *scratch.stage_stats()
            } else {
                rp_core::StageStats::default()
            };
            stats.push((
                group_name.clone(),
                clients.to_string(),
                ScalingCell {
                    algorithm: algorithm.to_string(),
                    dmax: with_dmax,
                    clients: clients as u64,
                    nodes,
                    replicas: reference.replica_count() as u64,
                    median_ns: 0,
                    mean_ns: 0,
                    samples: 0,
                    stage,
                    peak_alloc_bytes,
                },
            ));
            let mut group = huge_criterion.benchmark_group(group_name);
            group.bench_function(BenchmarkId::from_parameter(clients), |b| {
                b.iter(|| solve_huge(algorithm, &mut scratch, w, dmax, threads))
            });
            group.finish();
        }
    }

    let measurements = criterion::measurements();
    let mut cells = Vec::with_capacity(stats.len());
    for (group, id, mut cell) in stats {
        let m = measurements
            .iter()
            .find(|m| m.group == group && m.id == id)
            .unwrap_or_else(|| panic!("no measurement for {group}/{id}"));
        cell.median_ns = m.median_ns;
        cell.mean_ns = m.mean_ns;
        cell.samples = m.samples as u64;
        cells.push(cell);
    }
    let report = ScalingReport { quick, cells };

    // `cargo bench` runs with the package directory as cwd; anchor relative
    // BENCH_OUT paths at the workspace root so `BENCH_OUT=bench/baseline.json`
    // does what a caller at the repo root expects.
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
        _ => root.join("BENCH_scaling.json"),
    };
    std::fs::write(&out, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {} cells to {}", report.cells.len(), out.display());
}
