//! The repository benchmark: what users of the replica-placement solver
//! and of its `rp serve` daemon see end to end, and where the time goes.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! run from the repository root: the launcher builds `rp` and this harness
//! and passes `--rp <path>` on. Inputs come from `--seed` alone. The last
//! line on stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `serve` — a closed-loop client of a journaled `rp serve` daemon; a
//!   request is a one-client `delta` plus the incremental `solve` it
//!   triggers, the traffic of the repository's serve soak.
//! * `cold-binary` — `multiple-bin` solves of fresh binary trees: many
//!   small stages, bound by the placement search, stage DP and routing.
//! * `cold-spine` — `multiple-bin` solves of fresh long caterpillars
//!   without a distance bound: one chain-shaped root stage, bound by the
//!   sweep's pending-list merges and the router.
//!
//! `serve` and `cold-binary` use the same family: 8192 clients in isolated
//! 32-client regions with deadlines at 0.7 of the region depth. The
//! isolation keeps a solve a sum of many similar regional problems; with
//! large regions or root-level deadlines over the whole tree, a few
//! enumeration-heavy stages dominate and the solve time of one instance
//! varies several-fold, which no run of seconds can average out.
//!
//! End-to-end metrics: `latency_p50_ms` (per request, from input in hand
//! to placement received; each request is made in several passes and
//! keeps its median), `requests_per_s` (requests completed by one
//! closed-loop client over the wall-clock time of its request loops, which
//! exclude only the harness's own input generation and output checks) and
//! `setup_s` (median of the run's repeated set-ups, timed from generated
//! input in hand). A 90th percentile was tried and left out: across seeds
//! it spread two to three times as wide as the median.
//!
//! Per-layer metrics: `ingest_ms`, `solver_ms`, `respond_ms` (medians of
//! the spans each workload module documents), per-solve stage counters
//! from the solver's `StageStats` and the serve journal, and
//! `peak_heap_mb`, the heap growth of one solver set-up; each workload
//! module says where it reads them.

mod cold;
mod gen;
mod report;
mod serve;

use gen::{Spec, SplitMix};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: rp_bench::alloc_track::CountingAlloc = rp_bench::alloc_track::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rp: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, rp: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            "--rp" => args.rp = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn binary(rng: &mut SplitMix) -> Spec {
    let mut demand = SplitMix::new(rng.next_u64());
    Spec::regional_binary(8192, 32, 3.0, 0.7, rng, &mut demand)
}

fn spine(rng: &mut SplitMix) -> Spec {
    Spec::spine(2048, rng)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "serve" => {
            let rp = args.rp.as_deref().ok_or("the serve workload needs --rp <path to rp>")?;
            let work = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
            let outcome = serve::run(rp, &work, args.seed, args.seconds, args.trace);
            let _ = std::fs::remove_dir_all(&work);
            let _ = std::fs::remove_dir(".bench_work");
            outcome
        }
        "cold-binary" => cold::run(binary, args.seed, args.seconds, args.trace),
        "cold-spine" => cold::run(spine, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}` (serve, cold-binary, cold-spine)")),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args).map(|out| (args.trace, out)));
    match outcome {
        Ok((trace, out)) => {
            println!("{}", report::result_line(&out, trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
