//! Quick wall-clock probe for the stage-heavy bench families, outside the
//! criterion grid: `cargo run --release -p rp-bench --example stage_probe
//! -- [--clients N] [--family deep|spine|huge] [--dmax|--nod] [--threads N]
//! [--repeat N] [--json]` times `multiple-bin` on one cell and dumps the
//! stage counters — handy when iterating on the stage engine without
//! re-running the whole scaling bench. `--threads` routes the solve through
//! the frontier-parallel entry point (chunk workers, then a serial finish
//! pass over the upper region), so one-cell probes can time it against the
//! serial sweep. `--family huge` streams the million-client-tier
//! binary arena (same seed formula and parameters as the scaling bench's
//! huge tier) straight into the scratch, so the 65536+ cells can be probed
//! without a bench run. `--repeat N` reports min/median over N timed solves
//! instead of the fill-2-seconds loop, and `--json` emits one
//! machine-readable line instead of the human summary, with `stage_stats`
//! as an object holding one numeric field per counter.
//! Bare positionals (`<clients> <deep|spine|huge> <dmax|nod>`) still work.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_instances::{
    binary_tree_len, instance_params_from_arena, stream_binary_tree, EdgeDist, RequestDist,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut clients: usize = 16384;
    let mut family = "deep".to_string();
    let mut dmax = true;
    let mut threads: usize = 1;
    let mut repeat: usize = 0;
    let mut json = false;
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value")).clone();
        match arg.as_str() {
            "--clients" => clients = value("--clients").parse().expect("numeric --clients"),
            "--family" => family = value("--family"),
            "--dmax" => dmax = true,
            "--nod" => dmax = false,
            "--threads" => threads = value("--threads").parse().expect("numeric --threads"),
            "--repeat" => repeat = value("--repeat").parse().expect("numeric --repeat"),
            "--json" => json = true,
            bare => {
                match positional {
                    0 => clients = bare.parse().expect("numeric clients"),
                    1 => family = bare.to_string(),
                    2 => dmax = bare == "dmax",
                    _ => panic!("unexpected argument `{bare}`"),
                }
                positional += 1;
            }
        }
    }
    assert!(threads >= 1, "--threads must be at least 1");

    let mut scratch = rp_core::SolverScratch::new();
    let solve: Box<dyn Fn(&mut rp_core::SolverScratch) -> rp_tree::Solution> = if family == "huge" {
        // Mirror the scaling bench's huge tier: streamed binary arena,
        // derived instance params, frontier-parallel entry point.
        let seed = 0xE6u64 ^ (clients as u64).rotate_left(17) ^ 1;
        let edges = EdgeDist::Uniform { lo: 1, hi: 3 };
        let requests = RequestDist::Uniform { lo: 1, hi: 9 };
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = stream_binary_tree(clients, &edges, &requests, &mut rng);
        scratch
            .load_arena_from_stream(binary_tree_len(clients), stream)
            .expect("streamed binary tree is structurally valid");
        let fraction = if dmax { Some(0.7) } else { None };
        let (w, d) = instance_params_from_arena(scratch.arena(), 3.0, fraction);
        Box::new(move |scratch: &mut rp_core::SolverScratch| {
            rp_core::multiple_bin_par(scratch, w, d, threads).unwrap()
        })
    } else {
        let seed = 0xE6u64 ^ (clients as u64).rotate_left(17) ^ u64::from(dmax);
        let inst = match family.as_str() {
            "deep" => rp_bench::deep_fallback_instance(clients, dmax, seed),
            "spine" => rp_bench::long_spine_instance(clients, dmax, seed),
            other => panic!("unknown family `{other}` (use deep, spine or huge)"),
        };
        Box::new(move |scratch: &mut rp_core::SolverScratch| {
            if threads > 1 {
                scratch.load_arena(inst.tree());
                rp_core::multiple_bin_par(scratch, inst.capacity(), inst.dmax(), threads).unwrap()
            } else {
                rp_core::multiple_bin_with(&inst, scratch).unwrap()
            }
        })
    };

    // warm
    let sol = solve(&mut scratch);
    let mut runs_ns: Vec<u128> = Vec::new();
    if repeat > 0 {
        for _ in 0..repeat {
            let t = std::time::Instant::now();
            let _ = solve(&mut scratch);
            runs_ns.push(t.elapsed().as_nanos());
        }
    } else {
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 2000 {
            let t = std::time::Instant::now();
            let _ = solve(&mut scratch);
            runs_ns.push(t.elapsed().as_nanos());
        }
    }
    let n = runs_ns.len();
    let mut sorted = runs_ns.clone();
    sorted.sort_unstable();
    let min_ns = sorted[0];
    let median_ns = sorted[n / 2];
    let stats = scratch.stage_stats();
    if json {
        println!(
            "{{\"family\":\"{family}\",\"clients\":{clients},\"dmax\":{dmax},\
             \"threads\":{threads},\"solves\":{n},\"min_ns\":{min_ns},\
             \"median_ns\":{median_ns},\"replicas\":{},\"stage_stats\":{}}}",
            sol.replica_count(),
            stage_stats_json(stats),
        );
    } else {
        println!(
            "{family} {clients} dmax={dmax} threads={threads}: min {:.1} ms, median {:.1} \
             ms/solve over {n} solves, replicas={}",
            min_ns as f64 / 1e6,
            median_ns as f64 / 1e6,
            sol.replica_count()
        );
        println!("stats: {stats:?}");
    }
}

/// `stats` as a JSON object, one numeric field per counter. The exhaustive
/// destructuring makes a new counter a compile error here until it is
/// emitted.
fn stage_stats_json(stats: &rp_core::StageStats) -> String {
    let rp_core::StageStats {
        stages,
        subsets_enumerated,
        subsets_routed,
        subsets_pruned,
        prefix_routes,
        dp_sizes_skipped,
        dp_bound_skips,
        dp_fallbacks,
        dp_node_visits,
        repairs,
        commit_touched,
        commit_skipped,
        router_carry_merges,
        router_carried_peak,
        scope_cache_hits,
    } = *stats;
    let fields = [
        ("stages", stages),
        ("subsets_enumerated", subsets_enumerated),
        ("subsets_routed", subsets_routed),
        ("subsets_pruned", subsets_pruned),
        ("prefix_routes", prefix_routes),
        ("dp_sizes_skipped", dp_sizes_skipped),
        ("dp_bound_skips", dp_bound_skips),
        ("dp_fallbacks", dp_fallbacks),
        ("dp_node_visits", dp_node_visits),
        ("repairs", repairs),
        ("commit_touched", commit_touched),
        ("commit_skipped", commit_skipped),
        ("router_carry_merges", router_carry_merges),
        ("router_carried_peak", router_carried_peak),
        ("scope_cache_hits", scope_cache_hits),
    ];
    let body: Vec<String> = fields.iter().map(|(name, v)| format!("\"{name}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}
