//! Subcommand implementations. Every command returns the text to print, so
//! the commands are unit-testable without spawning processes.

use crate::args::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::Algorithm;
use rp_harness::Effort;
use rp_instances::random::{random_binary_tree, random_kary_tree, wrap_instance};
use rp_instances::worst_case::{single_gen_tight, single_nod_tight};
use rp_instances::{EdgeDist, RequestDist};
use rp_sim::{Burst, Failure, SimConfig};
use rp_tree::{io, validate, Instance, NodeId, Policy, Solution};

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage: rp <command> [options]

commands:
  gen         generate an instance
              --kind binary|kary|fig3|fig4  --clients N  [--arity K] [--m M] [--delta D]
              [--requests-max R] [--edge-max E] [--capacity-factor F] [--dmax-fraction F]
              [--seed S] [--out FILE]
  solve       run an algorithm on an instance
              --instance FILE  --algorithm single-gen|single-nod|multiple-bin|clients-only|multiple-greedy
              [--out FILE] [--stage-stats] [--threads N]  (multiple-bin only)
  exact       compute the exact optimum (small instances)
              --instance FILE  --policy single|multiple
  validate    check a solution file against an instance
              --instance FILE  --solution FILE  --policy single|multiple
  simulate    replay request traffic over a solution
              --instance FILE  --solution FILE  [--ticks N] [--fail NODE:FROM:TO]... [--burst FROM:TO:FACTOR]
  experiment  run a paper experiment (e1..e9 or all)
              <id>  [--full] [--csv]
  bench-gate  compare a BENCH_scaling.json against a checked-in baseline
              --current FILE  --baseline FILE  [--max-regress F] [--clients N]
              [--algorithm NAME]  or  --manifest FILE with [[gate]] entries
  serve       long-lived placement daemon on stdin/stdout (see README \"Serving\")
              --instance FILE | --stream-binary N [--seed S] [--capacity-factor F]
              [--dmax-fraction F] [--edge-max E] [--requests-max R]
              [--naive] [--assert-p99-us N] [--solve-budget-ms N]
              [--state-dir DIR] [--fsync always|never]
              [--snapshot-every N]
  serve-script  generate a deterministic delta stream for `rp serve`
              --instance FILE  [--deltas N] [--batch K] [--stats-every M]
              [--seed S] [--crash-after N] [--pause-ms M] [--out FILE]
";

/// Dispatches a parsed command line and returns the output to print.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "solve" => cmd_solve(&args),
        "exact" => cmd_exact(&args),
        "validate" => cmd_validate(&args),
        "simulate" => cmd_simulate(&args),
        "experiment" => cmd_experiment(&args),
        "bench-gate" => cmd_bench_gate(&args),
        "serve" => crate::serve::cmd_serve(&args),
        "serve-script" => crate::serve::cmd_serve_script(&args),
        "" | "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load_instance(path: &str) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_solution(path: &str) -> Result<Solution, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::parse_solution(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

pub(crate) fn write_or_return(out: Option<&str>, content: String) -> Result<String, String> {
    match out {
        Some(path) => {
            std::fs::write(path, &content).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("wrote {path}\n"))
        }
        None => Ok(content),
    }
}

fn parse_policy(name: &str) -> Result<Policy, String> {
    match name {
        "single" => Ok(Policy::Single),
        "multiple" => Ok(Policy::Multiple),
        other => Err(format!("unknown policy `{other}` (use single or multiple)")),
    }
}

fn cmd_gen(args: &Args) -> Result<String, String> {
    let kind = args.get("kind").unwrap_or("binary");
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = RequestDist::Uniform { lo: 1, hi: args.get_or("requests-max", 9)? };
    let edge = EdgeDist::Uniform { lo: 1, hi: args.get_or("edge-max", 3)? };
    let capacity_factor: f64 = args.get_or("capacity-factor", 3.0)?;
    let dmax_fraction: Option<f64> = match args.get("dmax-fraction") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("invalid --dmax-fraction `{raw}`"))?),
        None => None,
    };

    let instance = match kind {
        "binary" => {
            let clients: usize = args.get_or("clients", 32)?;
            wrap_instance(
                random_binary_tree(clients, &edge, &requests, &mut rng),
                capacity_factor,
                dmax_fraction,
            )
        }
        "kary" => {
            let clients: usize = args.get_or("clients", 32)?;
            let arity: usize = args.get_or("arity", 3)?;
            wrap_instance(
                random_kary_tree(clients, arity, &edge, &requests, &mut rng),
                capacity_factor,
                dmax_fraction,
            )
        }
        "fig3" => {
            let m: usize = args.get_or("m", 4)?;
            let delta: usize = args.get_or("delta", 3)?;
            single_gen_tight(m, delta).instance
        }
        "fig4" => {
            let k: usize = args.get_or("m", 8)?;
            single_nod_tight(k).instance
        }
        other => return Err(format!("unknown instance kind `{other}`")),
    };
    write_or_return(args.get("out"), io::write_instance(&instance))
}

fn cmd_solve(args: &Args) -> Result<String, String> {
    args.reject_unknown(&["instance", "algorithm", "out", "stage-stats", "threads"])?;
    let instance = load_instance(&args.require::<String>("instance")?)?;
    let name: String = args.require("algorithm")?;
    let algorithm =
        Algorithm::from_name(&name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
    let threads: usize = args.get_or("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let mut scratch = rp_core::SolverScratch::new();
    let solution = if threads > 1 {
        solve_parallel(&instance, algorithm, &mut scratch, threads)?
    } else {
        rp_core::solve_with(&instance, algorithm, &mut scratch).map_err(|e| e.to_string())?
    };
    let stats = validate(&instance, algorithm.policy(), &solution).map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str(&format!(
        "algorithm: {}\npolicy: {}\nreplicas: {}\nmax load: {}\navg utilisation: {:.3}\nmax distance: {}\n",
        algorithm.name(),
        algorithm.policy(),
        stats.replica_count,
        stats.max_load,
        stats.avg_utilisation,
        stats.max_distance,
    ));
    if args.has_flag("stage-stats") {
        out.push_str("stage stats:\n");
        for (name, value) in scratch.stage_stats().counters() {
            out.push_str(&format!("  {name}: {value}\n"));
        }
    }
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, io::write_solution(&solution))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            out.push_str(&format!("solution written to {path}\n"));
        }
        None => out.push_str(&io::write_solution(&solution)),
    }
    Ok(out)
}

/// `solve --threads N`: routes `multiple-bin` through its frontier-parallel
/// entry point. Solutions (and stage counters) are bit-identical to the
/// serial path for every thread count — pinned by `rp-core`'s determinism
/// tests — so `--threads` is purely a wall-clock knob. The other algorithms
/// have no parallel path.
fn solve_parallel(
    instance: &Instance,
    algorithm: Algorithm,
    scratch: &mut rp_core::SolverScratch,
    threads: usize,
) -> Result<Solution, String> {
    if algorithm != Algorithm::MultipleBin {
        return Err(format!("--threads is not supported for `{}`", algorithm.name()));
    }
    scratch.load_arena(instance.tree());
    rp_core::multiple_bin_par(scratch, instance.capacity(), instance.dmax(), threads)
        .map_err(|e| e.to_string())
}

fn cmd_exact(args: &Args) -> Result<String, String> {
    let instance = load_instance(&args.require::<String>("instance")?)?;
    let policy = parse_policy(&args.require::<String>("policy")?)?;
    match rp_exact::optimal_solution(&instance, policy) {
        Some(solution) => {
            let stats = validate(&instance, policy, &solution).map_err(|e| e.to_string())?;
            Ok(format!(
                "policy: {policy}\noptimal replicas: {}\n{}",
                stats.replica_count,
                io::write_solution(&solution)
            ))
        }
        None => Ok(format!("policy: {policy}\ninfeasible\n")),
    }
}

fn cmd_validate(args: &Args) -> Result<String, String> {
    let instance = load_instance(&args.require::<String>("instance")?)?;
    let solution = load_solution(&args.require::<String>("solution")?)?;
    let policy = parse_policy(&args.require::<String>("policy")?)?;
    match validate(&instance, policy, &solution) {
        Ok(stats) => Ok(format!(
            "valid\nreplicas: {}\nmax load: {}\nmax distance: {}\n",
            stats.replica_count, stats.max_load, stats.max_distance
        )),
        Err(e) => Ok(format!("invalid: {e}\n")),
    }
}

fn parse_failure(raw: &str) -> Result<Failure, String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("--fail expects NODE:FROM:TO, got `{raw}`"));
    }
    Ok(Failure {
        server: NodeId(parts[0].parse().map_err(|_| format!("invalid node `{}`", parts[0]))?),
        from_tick: parts[1].parse().map_err(|_| format!("invalid tick `{}`", parts[1]))?,
        to_tick: parts[2].parse().map_err(|_| format!("invalid tick `{}`", parts[2]))?,
    })
}

fn parse_burst(raw: &str) -> Result<Burst, String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("--burst expects FROM:TO:FACTOR, got `{raw}`"));
    }
    Ok(Burst {
        from_tick: parts[0].parse().map_err(|_| format!("invalid tick `{}`", parts[0]))?,
        to_tick: parts[1].parse().map_err(|_| format!("invalid tick `{}`", parts[1]))?,
        factor: parts[2].parse().map_err(|_| format!("invalid factor `{}`", parts[2]))?,
    })
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    let instance = load_instance(&args.require::<String>("instance")?)?;
    let solution = load_solution(&args.require::<String>("solution")?)?;
    let mut config = SimConfig::new(args.get_or("ticks", 1000)?);
    for raw in args.get_all("fail") {
        config = config.with_failure(parse_failure(raw)?);
    }
    if let Some(raw) = args.get("burst") {
        config = config.with_burst(parse_burst(raw)?);
    }
    let report = rp_sim::simulate(&instance, &solution, &config);
    let mut out = String::new();
    out.push_str(&format!(
        "ticks: {}\nissued: {}\nserved: {}\nrerouted: {}\ndropped: {}\navailability: {:.4}\nmean latency: {:.3}\nmax latency: {}\nmean utilisation: {:.3}\n",
        report.ticks,
        report.issued,
        report.served,
        report.rerouted,
        report.dropped,
        report.availability(),
        report.mean_latency(),
        report.max_latency,
        report.mean_utilisation(),
    ));
    out.push_str("replica loads:\n");
    for r in report.replicas() {
        out.push_str(&format!(
            "  {}: served {} peak {} utilisation {:.3}\n",
            r.node, r.total_served, r.peak_load, r.mean_utilisation
        ));
    }
    Ok(out)
}

fn cmd_experiment(args: &Args) -> Result<String, String> {
    let id = args
        .positional
        .first()
        .cloned()
        .or_else(|| args.get("id").map(|s| s.to_string()))
        .unwrap_or_else(|| "all".to_string());
    let effort = if args.has_flag("full") { Effort::Full } else { Effort::Quick };
    let tables = rp_harness::run_by_name(&id, effort)
        .ok_or_else(|| format!("unknown experiment `{id}` (use e1..e9 or all)"))?;
    let mut out = String::new();
    for table in tables {
        if args.has_flag("csv") {
            out.push_str(&table.to_csv());
            out.push('\n');
        } else {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
    }
    Ok(out)
}

/// CI perf gate: compares one algorithm's cells (default `multiple-bin`,
/// override with `--algorithm`) of a fresh `BENCH_scaling.json` against a
/// checked-in baseline and fails (returns
/// `Err`, i.e. a non-zero exit) when any gated cell regressed beyond the
/// allowed fraction. Manifest gates pick their column via `metric` (solve
/// median or peak heap bytes) and their rows via `variant` (dmax, nod or
/// both). Cells missing from either report are skipped — the baseline may
/// have been recorded on a different grid — but at least one cell must be
/// comparable.
/// Which column of a grid cell a gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateMetric {
    /// Median solve time (`median_ns`) — the default.
    Median,
    /// Peak live heap bytes of the reference solve (`peak_alloc_bytes`).
    /// Cells whose peak was never recorded (zero) are skipped, so the gate
    /// degrades gracefully against pre-memory-column baselines.
    PeakAlloc,
}

/// Which dmax variants of the (algorithm, clients) pair a gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateVariant {
    Dmax,
    Nod,
    Both,
}

impl GateVariant {
    fn includes(self, dmax: bool) -> bool {
        match self {
            GateVariant::Dmax => dmax,
            GateVariant::Nod => !dmax,
            GateVariant::Both => true,
        }
    }
}

/// One perf gate: an (algorithm, clients) pair compared across the selected
/// dmax variants, from the command line or a `[[gate]]` manifest entry.
#[derive(Debug)]
struct GateSpec {
    name: String,
    algorithm: String,
    clients: u64,
    max_regress: f64,
    /// Absolute slack added on top of the `max_regress` ratio, in the
    /// metric's unit (ns for medians, bytes for peak-alloc). Lets the
    /// single-sample huge-tier gates absorb fixed scheduling noise that a
    /// pure ratio would turn into flaky failures on millisecond baselines.
    tolerance: u128,
    metric: GateMetric,
    variant: GateVariant,
}

/// Parses the TOML subset used by `bench/gates.toml`: `[[gate]]` section
/// headers, `key = value` pairs (quoted strings or bare numbers), and `#`
/// comments. Unknown keys are an error so typos fail the gate loudly
/// instead of silently weakening it.
fn parse_gate_manifest(text: &str) -> Result<Vec<GateSpec>, String> {
    let mut gates: Vec<GateSpec> = Vec::new();
    let mut open = false;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        // Values are quoted strings or numbers, never containing `#`, so a
        // plain split is enough to strip trailing comments.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[gate]]" {
            if let Some(g) = gates.last() {
                if g.name.is_empty() {
                    return Err(format!("gate before line {lineno} is missing `name`"));
                }
            }
            gates.push(GateSpec {
                name: String::new(),
                algorithm: "multiple-bin".into(),
                clients: 0,
                max_regress: 0.30,
                tolerance: 0,
                metric: GateMetric::Median,
                variant: GateVariant::Both,
            });
            open = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`, got `{line}`"));
        };
        if !open {
            return Err(format!("line {lineno}: `{}` appears before any [[gate]]", key.trim()));
        }
        let gate = gates.last_mut().expect("open implies a gate");
        let key = key.trim();
        let value = value.trim().trim_matches('"');
        match key {
            "name" => gate.name = value.to_string(),
            "algorithm" => gate.algorithm = value.to_string(),
            "clients" => {
                gate.clients =
                    value.parse().map_err(|_| format!("line {lineno}: bad clients `{value}`"))?;
            }
            "max-regress" => {
                gate.max_regress = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad max-regress `{value}`"))?;
            }
            "tolerance" => {
                gate.tolerance =
                    value.parse().map_err(|_| format!("line {lineno}: bad tolerance `{value}`"))?;
            }
            "metric" => {
                gate.metric = match value {
                    "median" => GateMetric::Median,
                    "peak-alloc" => GateMetric::PeakAlloc,
                    other => {
                        return Err(format!(
                            "line {lineno}: unknown metric `{other}` (use median or peak-alloc)"
                        ))
                    }
                };
            }
            "variant" => {
                gate.variant = match value {
                    "dmax" => GateVariant::Dmax,
                    "nod" => GateVariant::Nod,
                    "both" => GateVariant::Both,
                    other => {
                        return Err(format!(
                            "line {lineno}: unknown variant `{other}` (use dmax, nod or both)"
                        ))
                    }
                };
            }
            other => return Err(format!("line {lineno}: unknown gate key `{other}`")),
        }
    }
    for gate in &gates {
        if gate.name.is_empty() {
            return Err("a [[gate]] entry is missing `name`".into());
        }
        if gate.clients == 0 {
            return Err(format!("gate `{}` is missing `clients`", gate.name));
        }
    }
    if gates.is_empty() {
        return Err("manifest defines no [[gate]] entries".into());
    }
    Ok(gates)
}

/// Compares one gate's dmax + nod cells between the two reports, appending
/// human-readable verdicts to `out` and failures to `failures`. Returns how
/// many cells were comparable.
fn run_gate(
    gate: &GateSpec,
    current: &rp_bench::scaling::ScalingReport,
    baseline: &rp_bench::scaling::ScalingReport,
    out: &mut String,
    failures: &mut Vec<String>,
) -> usize {
    let GateSpec { algorithm, clients, max_regress, tolerance, metric, variant, .. } = gate;
    let mut compared = 0;
    for dmax in [true, false] {
        if !variant.includes(dmax) {
            continue;
        }
        let label = if dmax { "dmax" } else { "nod" };
        let lookup = |report: &rp_bench::scaling::ScalingReport| match metric {
            GateMetric::Median => report.median_of(algorithm, dmax, *clients),
            GateMetric::PeakAlloc => {
                report.peak_alloc_of(algorithm, dmax, *clients).map(u128::from)
            }
        };
        let unit = match metric {
            GateMetric::Median => "ns",
            GateMetric::PeakAlloc => "peak bytes",
        };
        let (Some(cur), Some(base)) = (lookup(current), lookup(baseline)) else {
            out.push_str(&format!("{algorithm}/{label}/{clients}: not in both reports, skipped\n"));
            continue;
        };
        compared += 1;
        let limit = (base as f64) * (1.0 + max_regress) + *tolerance as f64;
        let ratio = cur as f64 / (base as f64).max(1.0);
        let verdict = if (cur as f64) <= limit { "ok" } else { "REGRESSED" };
        let slack =
            if *tolerance > 0 { format!(" + {tolerance} {unit} slack") } else { String::new() };
        out.push_str(&format!(
            "{algorithm}/{label}/{clients}: current {cur} {unit} vs baseline {base} {unit} \
             ({ratio:.2}x, limit {:.2}x{slack}) {verdict}\n",
            1.0 + max_regress
        ));
        if (cur as f64) > limit {
            failures.push(format!("{algorithm}/{label}/{clients} at {ratio:.2}x"));
        }
    }
    compared
}

fn cmd_bench_gate(args: &Args) -> Result<String, String> {
    let current_path: String = args.require("current")?;
    let baseline_path: String = args.require("baseline")?;
    let gates = match args.get("manifest") {
        Some(manifest_path) => {
            if args.get("clients").is_some() || args.get("algorithm").is_some() {
                return Err("--manifest replaces --clients/--algorithm; drop them".into());
            }
            let text = std::fs::read_to_string(manifest_path)
                .map_err(|e| format!("cannot read {manifest_path}: {e}"))?;
            parse_gate_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?
        }
        None => vec![GateSpec {
            name: "cli".into(),
            algorithm: args.get("algorithm").unwrap_or("multiple-bin").to_string(),
            clients: args.get_or("clients", 1024)?,
            max_regress: args.get_or("max-regress", 0.30)?,
            tolerance: 0,
            metric: GateMetric::Median,
            variant: GateVariant::Both,
        }],
    };
    let read = |path: &str| -> Result<rp_bench::scaling::ScalingReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        rp_bench::scaling::ScalingReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let current = read(&current_path)?;
    let baseline = read(&baseline_path)?;

    let mut out = String::new();
    if current.quick != baseline.quick {
        out.push_str(
            "warning: comparing reports from different modes (quick vs full sampling); \
             medians are noisier across modes\n",
        );
    }
    let mut failures = Vec::new();
    for gate in &gates {
        if gates.len() > 1 {
            out.push_str(&format!("[{}]\n", gate.name));
        }
        let compared = run_gate(gate, &current, &baseline, &mut out, &mut failures);
        if compared == 0 {
            return Err(format!(
                "{out}no comparable {} cells at {} clients between \
                 {current_path} and {baseline_path}",
                gate.algorithm, gate.clients
            ));
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}perf gate failed: {}", failures.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, String> {
        dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn gate_report(median_dmax: u128, median_nod: u128) -> String {
        use rp_bench::scaling::{ScalingCell, ScalingReport};
        let cell = |dmax: bool, median_ns: u128| ScalingCell {
            algorithm: "multiple-bin".into(),
            dmax,
            clients: 1024,
            nodes: 2047,
            replicas: 343,
            median_ns,
            mean_ns: median_ns,
            samples: 5,
            stage: rp_core::StageStats::default(),
            peak_alloc_bytes: 0,
        };
        ScalingReport { quick: true, cells: vec![cell(true, median_dmax), cell(false, median_nod)] }
            .to_json()
    }

    #[test]
    fn bench_gate_passes_within_budget_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("rp-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&base, gate_report(10_000_000, 2_000_000)).unwrap();
        std::fs::write(&good, gate_report(12_000_000, 2_100_000)).unwrap();
        std::fs::write(&bad, gate_report(14_000_000, 2_100_000)).unwrap();

        let ok = run(&[
            "bench-gate",
            "--current",
            good.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ])
        .unwrap();
        assert!(ok.contains("ok"), "{ok}");
        assert!(!ok.contains("REGRESSED"));

        let err = run(&[
            "bench-gate",
            "--current",
            bad.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("perf gate failed"), "{err}");
        assert!(err.contains("dmax"), "{err}");

        // A looser budget lets the same report through.
        let ok = run(&[
            "bench-gate",
            "--current",
            bad.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
            "--max-regress",
            "0.5",
        ])
        .unwrap();
        assert!(!ok.contains("REGRESSED"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_gate_rejects_incomparable_reports() {
        let dir = std::env::temp_dir().join(format!("rp-gate-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        std::fs::write(&a, gate_report(1, 1)).unwrap();
        let err = run(&[
            "bench-gate",
            "--current",
            a.to_str().unwrap(),
            "--baseline",
            a.to_str().unwrap(),
            "--clients",
            "4096",
        ])
        .unwrap_err();
        assert!(err.contains("no comparable"), "{err}");

        // The gated algorithm is selectable; a family absent from the
        // report is rejected the same way.
        let err = run(&[
            "bench-gate",
            "--current",
            a.to_str().unwrap(),
            "--baseline",
            a.to_str().unwrap(),
            "--algorithm",
            "multiple-bin-deep",
        ])
        .unwrap_err();
        assert!(err.contains("no comparable multiple-bin-deep"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_gate_manifest_drives_multiple_gates() {
        let dir = std::env::temp_dir().join(format!("rp-gate-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let manifest = dir.join("gates.toml");
        std::fs::write(&base, gate_report(10_000_000, 2_000_000)).unwrap();
        std::fs::write(&cur, gate_report(12_000_000, 2_100_000)).unwrap();
        std::fs::write(
            &manifest,
            "# perf gates\n\
             [[gate]]\n\
             name = \"mb-1024\"\n\
             clients = 1024  # trailing comment\n\
             \n\
             [[gate]]\n\
             name = \"mb-1024-tight\"\n\
             algorithm = \"multiple-bin\"\n\
             clients = 1024\n\
             max-regress = 0.05\n\
             \n\
             [[gate]]\n\
             name = \"mb-1024-slack\"\n\
             clients = 1024\n\
             max-regress = 0.05\n\
             tolerance = 5000000\n",
        )
        .unwrap();
        let argv = |m: &std::path::Path| {
            vec![
                "bench-gate".to_string(),
                "--current".into(),
                cur.to_str().unwrap().into(),
                "--baseline".into(),
                base.to_str().unwrap().into(),
                "--manifest".into(),
                m.to_str().unwrap().into(),
            ]
        };
        // The 20% dmax regression passes the default 0.30 gate, fails the
        // tight 0.05 one, and passes it again once a 5 ms absolute
        // tolerance tops up the ratio limit — all verdicts in one
        // invocation.
        let err = dispatch(&argv(&manifest)).unwrap_err();
        assert!(err.contains("[mb-1024]"), "{err}");
        assert!(err.contains("[mb-1024-tight]"), "{err}");
        assert!(err.contains("[mb-1024-slack]"), "{err}");
        assert!(err.contains("5000000 ns slack"), "{err}");
        assert!(err.contains("perf gate failed"), "{err}");
        assert_eq!(err.matches("REGRESSED").count(), 1, "{err}");

        // Mixing manifest and single-gate selectors is ambiguous.
        let mut both = argv(&manifest);
        both.extend(["--clients".to_string(), "1024".into()]);
        let err = dispatch(&both).unwrap_err();
        assert!(err.contains("--manifest replaces"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peak_alloc_gate_compares_memory_and_skips_unrecorded_cells() {
        use rp_bench::scaling::{ScalingCell, ScalingReport};
        // One dmax cell with a recorded peak, one nod cell without (as a
        // report written before the allocator hook would have it).
        let peak_report = |peak: u64| {
            let cell = |dmax: bool, peak_alloc_bytes: u64| ScalingCell {
                algorithm: "multiple-bin".into(),
                dmax,
                clients: 65536,
                nodes: 131071,
                replicas: 2000,
                median_ns: 1_000,
                mean_ns: 1_000,
                samples: 1,
                stage: rp_core::StageStats::default(),
                peak_alloc_bytes,
            };
            ScalingReport { quick: true, cells: vec![cell(true, peak), cell(false, 0)] }.to_json()
        };
        let dir = std::env::temp_dir().join(format!("rp-gate-peak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        let manifest = dir.join("gates.toml");
        std::fs::write(&base, peak_report(6_000_000_000)).unwrap();
        std::fs::write(&good, peak_report(6_500_000_000)).unwrap();
        std::fs::write(&bad, peak_report(9_000_000_000)).unwrap();
        std::fs::write(
            &manifest,
            "[[gate]]\n\
             name = \"mb-peak-65536\"\n\
             clients = 65536\n\
             metric = \"peak-alloc\"\n\
             variant = \"dmax\"\n",
        )
        .unwrap();
        let argv = |cur: &std::path::Path| {
            vec![
                "bench-gate".to_string(),
                "--current".into(),
                cur.to_str().unwrap().into(),
                "--baseline".into(),
                base.to_str().unwrap().into(),
                "--manifest".into(),
                manifest.to_str().unwrap().into(),
            ]
        };
        // +8% memory passes the default 0.30 budget; +50% fails. Only the
        // dmax cell is compared (variant), in bytes (metric) — the
        // unrecorded nod peak never even reaches the comparison.
        let ok = dispatch(&argv(&good)).unwrap();
        assert!(ok.contains("peak bytes"), "{ok}");
        assert!(!ok.contains("nod"), "{ok}");
        let err = dispatch(&argv(&bad)).unwrap_err();
        assert!(err.contains("perf gate failed"), "{err}");
        assert!(err.contains("1.50x"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_manifest_parser_rejects_typos() {
        assert!(parse_gate_manifest("").is_err(), "empty manifest");
        let err = parse_gate_manifest("clients = 5\n").unwrap_err();
        assert!(err.contains("before any [[gate]]"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nname = \"x\"\nclient = 5\n").unwrap_err();
        assert!(err.contains("unknown gate key `client`"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nname = \"x\"\n").unwrap_err();
        assert!(err.contains("missing `clients`"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nclients = 5\n").unwrap_err();
        assert!(err.contains("missing `name`"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nname = \"x\"\nclients = 5\nmetric = \"rss\"\n")
            .unwrap_err();
        assert!(err.contains("unknown metric `rss`"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nname = \"x\"\nclients = 5\nvariant = \"all\"\n")
            .unwrap_err();
        assert!(err.contains("unknown variant `all`"), "{err}");
        let err = parse_gate_manifest("[[gate]]\nname = \"x\"\nclients = 5\ntolerance = \"ten\"\n")
            .unwrap_err();
        assert!(err.contains("bad tolerance `ten`"), "{err}");
        let gates = parse_gate_manifest("[[gate]]\nname = \"a\"\nclients = 256\n").unwrap();
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].algorithm, "multiple-bin");
        assert_eq!(gates[0].max_regress, 0.30);
        assert_eq!(gates[0].tolerance, 0);
        assert_eq!(gates[0].metric, GateMetric::Median);
        assert_eq!(gates[0].variant, GateVariant::Both);
        let gates =
            parse_gate_manifest("[[gate]]\nname = \"a\"\nclients = 256\ntolerance = 2000000000\n")
                .unwrap();
        assert_eq!(gates[0].tolerance, 2_000_000_000);
        let gates = parse_gate_manifest(
            "[[gate]]\nname = \"a\"\nclients = 256\nmetric = \"peak-alloc\"\nvariant = \"nod\"\n",
        )
        .unwrap();
        assert_eq!(gates[0].metric, GateMetric::PeakAlloc);
        assert_eq!(gates[0].variant, GateVariant::Nod);
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&["help"]).unwrap().contains("usage"));
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_solve_exact_validate_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("rp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.txt");
        let sol = dir.join("sol.txt");
        let inst_s = inst.to_str().unwrap();
        let sol_s = sol.to_str().unwrap();

        let out = run(&[
            "gen",
            "--kind",
            "binary",
            "--clients",
            "8",
            "--seed",
            "3",
            "--dmax-fraction",
            "0.8",
            "--out",
            inst_s,
        ])
        .unwrap();
        assert!(out.contains("wrote"));

        let out =
            run(&["solve", "--instance", inst_s, "--algorithm", "multiple-bin", "--out", sol_s])
                .unwrap();
        assert!(out.contains("replicas:"));
        assert!(!out.contains("stage stats"), "counters are opt-in");

        let out = run(&[
            "solve",
            "--instance",
            inst_s,
            "--algorithm",
            "multiple-bin",
            "--stage-stats",
            "--out",
            sol_s,
        ])
        .unwrap();
        assert!(out.contains("stage stats:"), "{out}");
        assert!(out.contains("subsets_routed:"));
        assert!(out.contains("dp_node_visits:"));
        assert!(out.contains("commit_touched:"));
        assert!(out.contains("commit_skipped:"));
        assert!(out.contains("repairs: 0"));

        let out =
            run(&["validate", "--instance", inst_s, "--solution", sol_s, "--policy", "multiple"])
                .unwrap();
        assert!(out.starts_with("valid"));

        let out = run(&["exact", "--instance", inst_s, "--policy", "multiple"]).unwrap();
        assert!(out.contains("optimal replicas:"));

        let out =
            run(&["simulate", "--instance", inst_s, "--solution", sol_s, "--ticks", "10"]).unwrap();
        assert!(out.contains("availability: 1.0000"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_fig3_and_fig4() {
        let out = run(&["gen", "--kind", "fig3", "--m", "2", "--delta", "3"]).unwrap();
        assert!(out.contains("capacity"));
        let out = run(&["gen", "--kind", "fig4", "--m", "4"]).unwrap();
        assert!(out.contains("dmax none"));
    }

    #[test]
    fn experiment_quick_markdown_and_csv() {
        let md = run(&["experiment", "e2"]).unwrap();
        assert!(md.contains("### E2"));
        let csv = run(&["experiment", "e2", "--csv"]).unwrap();
        assert!(csv.lines().next().unwrap().starts_with("K,"));
        assert!(run(&["experiment", "e99"]).is_err());
    }

    #[test]
    fn parse_failure_and_burst_specs() {
        let f = parse_failure("3:10:20").unwrap();
        assert_eq!(f.server, NodeId(3));
        assert_eq!((f.from_tick, f.to_tick), (10, 20));
        assert!(parse_failure("3:10").is_err());
        let b = parse_burst("5:9:2.5").unwrap();
        assert!((b.factor - 2.5).abs() < 1e-9);
        assert!(parse_burst("oops").is_err());
    }

    #[test]
    fn solve_rejects_unknown_algorithm() {
        let err = run(&["solve", "--instance", "/nonexistent", "--algorithm", "magic"]);
        assert!(err.is_err());
    }

    #[test]
    fn solve_rejects_unknown_options_by_name() {
        let err =
            run(&["solve", "--instance", "i.txt", "--algorithm", "multiple-bin", "--thread", "2"])
                .unwrap_err();
        assert!(err.contains("unknown option --thread "), "{err}");
    }

    #[test]
    fn solve_threads_matches_serial_output() {
        let dir = std::env::temp_dir().join(format!("rp-cli-threads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.txt");
        let inst_s = inst.to_str().unwrap();
        run(&[
            "gen",
            "--kind",
            "binary",
            "--clients",
            "64",
            "--seed",
            "11",
            "--dmax-fraction",
            "0.6",
            "--out",
            inst_s,
        ])
        .unwrap();

        let solve = |algorithm: &str, threads: &str| {
            run(&["solve", "--instance", inst_s, "--algorithm", algorithm, "--threads", threads])
        };
        let serial = run(&["solve", "--instance", inst_s, "--algorithm", "multiple-bin"]).unwrap();
        for threads in ["1", "4"] {
            let par = solve("multiple-bin", threads).unwrap();
            assert_eq!(par, serial, "multiple-bin diverged at --threads {threads}");
        }
        for algorithm in ["single-gen", "single-nod"] {
            let serial = run(&["solve", "--instance", inst_s, "--algorithm", algorithm]).unwrap();
            assert_eq!(solve(algorithm, "1").unwrap(), serial, "{algorithm} at --threads 1");
            let err = solve(algorithm, "2").unwrap_err();
            assert!(err.contains("--threads"), "{algorithm} at --threads 2: {err}");
        }

        let err = run(&[
            "solve",
            "--instance",
            inst_s,
            "--algorithm",
            "multiple-greedy",
            "--threads",
            "4",
        ]);
        assert!(err.is_err(), "baselines have no parallel path");
        let err =
            run(&["solve", "--instance", inst_s, "--algorithm", "single-gen", "--threads", "0"]);
        assert!(err.is_err(), "--threads 0 is rejected");
        std::fs::remove_dir_all(&dir).ok();
    }
}
