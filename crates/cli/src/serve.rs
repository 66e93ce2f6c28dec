//! `rp serve` — the long-lived placement daemon — and `rp serve-script`,
//! the deterministic delta-stream generator feeding it (CI's soak job and
//! local experiments).
//!
//! The daemon speaks a compact line protocol on stdin/stdout (one request
//! line in, one response line out — see the `rp --help` text and the
//! README's "Serving" section):
//!
//! ```text
//! delta <node> +K|-K|=K [<node> +K|-K|=K ...]   apply demand deltas
//! leave <node>                                  shorthand for `delta <node> =0`
//! solve                                         re-solve under current demand
//! stats                                         lifetime counters + latency quantiles
//! health                                        instance shape + pending + recovery state
//! solution <path>                               write the last solution to a file
//! pause <ms>                                    sleep, then ack (soak pacing)
//! crash-after <n>                               abort after n further responses
//! quit                                          end the session
//! ```
//!
//! Blank lines and `#` comments are ignored. Every failure is a structured
//! one-line `err <code> <message>` response and the session continues —
//! rejected requests never poison the warm engine (pinned by the tests
//! below and `rp-core`'s serve tests).
//!
//! With `--state-dir DIR` the daemon write-ahead-logs every applied delta
//! and snapshots demand state there (see `rp_core::serve::persist`), and
//! recovers it on startup — `health` reports the provenance. `crash-after`
//! exists so crash/recovery soaks are reproducible from a script file: the
//! abort is deliberately unclean (`std::process::abort`), exactly like a
//! SIGKILL mid-stream.

use crate::args::Args;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::serve::persist::{FsyncPolicy, PersistConfig, Recovery};
use rp_core::serve::{DemandDelta, LatencyHistogram, ServeEngine};
use rp_core::SolverScratch;
use rp_instances::stream::{binary_tree_len, instance_params_from_arena, stream_binary_tree};
use rp_instances::{EdgeDist, RequestDist};
use rp_tree::io as tree_io;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// `rp serve`: builds the engine from the flags, then runs the protocol
/// loop over stdin/stdout. The returned summary (printed after EOF /
/// `quit`) carries the latency quantiles the CI soak job asserts on;
/// `--assert-p99-us` turns a blown budget into a non-zero exit.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    args.reject_unknown(&[
        "instance",
        "stream-binary",
        "seed",
        "capacity-factor",
        "dmax-fraction",
        "edge-max",
        "requests-max",
        "naive",
        "assert-p99-us",
        "solve-budget-ms",
        "state-dir",
        "fsync",
        "snapshot-every",
    ])?;
    let mut engine = build_engine(args)?;
    if args.has_flag("naive") {
        engine.set_naive_resolve(true);
    }
    if let Some(raw) = args.get("solve-budget-ms") {
        let ms: u64 = raw.parse().map_err(|_| format!("invalid --solve-budget-ms `{raw}`"))?;
        if ms == 0 {
            return Err("--solve-budget-ms must be at least 1".into());
        }
        engine.set_solve_budget(Some(Duration::from_millis(ms)));
    }
    if let Some(dir) = args.get("state-dir") {
        let fsync = match args.get("fsync") {
            None => FsyncPolicy::Always,
            Some(raw) => match raw {
                "always" => FsyncPolicy::Always,
                "never" => FsyncPolicy::Never,
                other => return Err(format!("invalid --fsync `{other}` (use always or never)")),
            },
        };
        let snapshot_every: u64 = args.get_or("snapshot-every", 1024)?;
        if snapshot_every == 0 {
            return Err("--snapshot-every must be at least 1".into());
        }
        engine
            .attach_persist(Path::new(&dir), PersistConfig { fsync, snapshot_every })
            .map_err(|e| format!("--state-dir {dir}: {e}"))?;
    } else if args.get("fsync").is_some() || args.get("snapshot-every").is_some() {
        return Err("--fsync / --snapshot-every need --state-dir".into());
    }
    let assert_p99_us: Option<u64> = match args.get("assert-p99-us") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("invalid --assert-p99-us `{raw}`"))?),
        None => None,
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_loop(&mut engine, assert_p99_us, stdin.lock(), stdout.lock())
}

/// Builds the serve engine from `--instance FILE` (parsed tree) or
/// `--stream-binary N` (the million-client tier's streamed path: the
/// random binary family goes straight into the arena, no `Tree` is ever
/// materialised, and capacity / dmax are derived exactly like `rp gen`
/// would).
fn build_engine(args: &Args) -> Result<ServeEngine, String> {
    match (args.get("instance"), args.get("stream-binary")) {
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let instance =
                tree_io::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            ServeEngine::new(&instance).map_err(|e| e.to_string())
        }
        (None, Some(raw)) => {
            let clients: usize =
                raw.parse().map_err(|_| format!("invalid --stream-binary `{raw}`"))?;
            if clients == 0 {
                return Err("--stream-binary needs at least one client".into());
            }
            let seed: u64 = args.get_or("seed", 1)?;
            let requests = RequestDist::Uniform { lo: 1, hi: args.get_or("requests-max", 9)? };
            let edge = EdgeDist::Uniform { lo: 1, hi: args.get_or("edge-max", 3)? };
            let capacity_factor: f64 = args.get_or("capacity-factor", 3.0)?;
            let dmax_fraction: Option<f64> = match args.get("dmax-fraction") {
                Some(raw) => {
                    Some(raw.parse().map_err(|_| format!("invalid --dmax-fraction `{raw}`"))?)
                }
                None => None,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = SolverScratch::new();
            scratch
                .load_arena_from_stream(
                    binary_tree_len(clients),
                    stream_binary_tree(clients, &edge, &requests, &mut rng),
                )
                .map_err(|e| format!("streamed build failed: {e}"))?;
            let (w, dmax) =
                instance_params_from_arena(scratch.arena(), capacity_factor, dmax_fraction);
            ServeEngine::from_scratch(scratch, w, dmax).map_err(|e| e.to_string())
        }
        _ => Err("serve needs exactly one of --instance FILE or --stream-binary N".into()),
    }
}

/// The protocol loop, factored over generic reader/writer so tests drive
/// whole sessions without a process. Responses are flushed per line (the
/// peer pipelines requests against them); the returned summary is printed
/// by `main` after the stream ends.
fn serve_loop<R: BufRead, W: Write>(
    engine: &mut ServeEngine,
    assert_p99_us: Option<u64>,
    reader: R,
    mut writer: W,
) -> Result<String, String> {
    let mut hist = LatencyHistogram::new();
    let mut commands: u64 = 0;
    // `crash-after n` arms this fuse at n + 1 so the uniform end-of-loop
    // decrement (which also covers the directive's own ack) leaves exactly
    // n further responses before the abort.
    let mut crash_fuse: Option<u64> = None;
    let respond = |writer: &mut W, line: &str| -> Result<(), String> {
        writeln!(writer, "{line}").and_then(|()| writer.flush()).map_err(|e| format!("write: {e}"))
    };
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        commands += 1;
        let mut tokens = line.split_whitespace();
        let Some(cmd) = tokens.next() else { continue };
        let reply = match cmd {
            "delta" => apply_deltas(engine, tokens),
            "leave" => match parse_node(tokens.next()) {
                Ok(node) => match engine.apply_delta(node, DemandDelta::Set(0)) {
                    Ok(r) => Ok(format!("ok applied=1 node={node} requests={r}")),
                    Err(e) => Err(format!("err {} {e}", e.code())),
                },
                Err(e) => Err(e),
            },
            "solve" => {
                let start = Instant::now();
                match engine.solve() {
                    Ok(outcome) => {
                        let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        hist.record_ns(elapsed);
                        Ok(format!(
                            "solved replicas={} mode={} dirty={} reused={} recomputed={} elapsed_us={}",
                            outcome.replicas,
                            if outcome.stale {
                                "stale"
                            } else if outcome.incremental {
                                "incremental"
                            } else {
                                "full"
                            },
                            outcome.dirty_clients,
                            outcome.stages_reused,
                            outcome.stages_recomputed,
                            elapsed / 1_000,
                        ))
                    }
                    Err(e) => Err(format!("err {} {e}", e.code())),
                }
            }
            "stats" => Ok(stats_line(engine, &hist)),
            "health" => Ok(health_line(engine)),
            "solution" => match tokens.next() {
                Some(path) => {
                    match std::fs::write(path, tree_io::write_solution(&engine.solution())) {
                        Ok(()) => Ok(format!("wrote {path}")),
                        Err(e) => Err(format!("err io cannot write {path}: {e}")),
                    }
                }
                None => Err("err malformed solution needs a path".to_string()),
            },
            "pause" => match tokens.next().and_then(parse_digits::<u64>) {
                Some(ms) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    Ok(format!("ok paused={ms}"))
                }
                _ => Err("err malformed pause needs a millisecond count".to_string()),
            },
            "crash-after" => match tokens.next().and_then(parse_digits::<u64>) {
                Some(n) => match n.checked_add(1) {
                    Some(fuse) => {
                        crash_fuse = Some(fuse);
                        Ok(format!("ok crash-after={n}"))
                    }
                    None => Err(format!("err malformed crash-after count {n} is too large")),
                },
                _ => Err("err malformed crash-after needs a response count".to_string()),
            },
            "quit" => {
                respond(&mut writer, "bye")?;
                break;
            }
            other => Err(format!("err malformed unknown command `{other}`")),
        };
        match reply {
            Ok(line) => respond(&mut writer, &line)?,
            Err(line) => respond(&mut writer, &line)?,
        }
        if let Some(fuse) = crash_fuse.as_mut() {
            *fuse -= 1;
            if *fuse == 0 {
                // Deliberately unclean — no destructors, no buffer flushing
                // beyond the per-line flush that already happened. This is
                // the scripted stand-in for a SIGKILL mid-stream; recovery
                // must come entirely from the WAL + snapshot on disk.
                std::process::abort();
            }
        }
    }

    let stats = engine.stats();
    let mut summary = format!(
        "serve session: commands={commands} deltas={} rejected={} solves={} full={} incremental={}\n\
         stage reuse: reused={} recomputed={}\n\
         solve latency: {}\n",
        stats.deltas_applied,
        stats.deltas_rejected,
        stats.solves,
        stats.full_solves,
        stats.incremental_solves,
        stats.stages_reused,
        stats.stages_recomputed,
        latency_fields(&hist),
    );
    if let Some(budget_us) = assert_p99_us {
        let p99_us = hist.quantile_ns(0.99) / 1_000;
        if p99_us > budget_us {
            return Err(format!(
                "{summary}p99 latency {p99_us} us exceeds the --assert-p99-us budget {budget_us} us"
            ));
        }
        summary.push_str(&format!("p99 budget: {p99_us} us <= {budget_us} us ok\n"));
    }
    Ok(summary)
}

/// `delta <node> <op> [<node> <op> ...]`: applies pairs left to right,
/// stopping at (and reporting) the first failure. Pairs already applied
/// stay applied — deltas are independent mutations, not a transaction —
/// and the error names the offending pair so scripted streams can keep
/// going.
fn apply_deltas<'a, I: Iterator<Item = &'a str>>(
    engine: &mut ServeEngine,
    mut tokens: I,
) -> Result<String, String> {
    let mut applied: u64 = 0;
    let mut last = None;
    while let Some(node_raw) = tokens.next() {
        let node = parse_node(Some(node_raw))?;
        let op_raw = tokens
            .next()
            .ok_or_else(|| format!("err malformed delta for node {node} is missing its op"))?;
        let delta = parse_op(op_raw)?;
        match engine.apply_delta(node, delta) {
            Ok(r) => {
                applied += 1;
                last = Some((node, r));
            }
            Err(e) => return Err(format!("err {} after {applied} applied: {e}", e.code())),
        }
    }
    match last {
        Some((node, r)) => Ok(format!("ok applied={applied} node={node} requests={r}")),
        None => Err("err malformed delta needs at least one <node> <op> pair".to_string()),
    }
}

/// Parses an unsigned decimal made of ASCII digits only. `from_str` alone
/// would also take a leading `+`, so `delta 2 ++2` would apply `+2`.
fn parse_digits<T: std::str::FromStr>(raw: &str) -> Option<T> {
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    raw.parse().ok()
}

fn parse_node(raw: Option<&str>) -> Result<u32, String> {
    let raw = raw.ok_or_else(|| "err malformed missing node id".to_string())?;
    parse_digits(raw).ok_or_else(|| format!("err malformed invalid node id `{raw}`"))
}

/// `+K` / `-K` / `=K`. The amount must be ASCII digits that fit a `u64`;
/// range violations beyond that (`Tree::MAX_REQUESTS`, capacity) are the
/// engine's structured errors, not parse errors.
fn parse_op(raw: &str) -> Result<DemandDelta, String> {
    // Split after the first char, not byte: a multi-byte op is malformed,
    // not a panic.
    let (kind, amount) = raw.split_at(raw.chars().next().map_or(0, char::len_utf8));
    let Some(k) = parse_digits::<u64>(amount) else {
        return Err(format!("err malformed invalid delta op `{raw}`"));
    };
    match kind {
        "+" => Ok(DemandDelta::Add(k)),
        "-" => Ok(DemandDelta::Sub(k)),
        "=" => Ok(DemandDelta::Set(k)),
        _ => Err(format!("err malformed invalid delta op `{raw}` (use +K, -K or =K)")),
    }
}

fn stats_line(engine: &ServeEngine, hist: &LatencyHistogram) -> String {
    let s = engine.stats();
    format!(
        "stats solves={} full={} incremental={} deltas={} rejected={} reused={} recomputed={} \
         last_dirty={} last_reused={} last_recomputed={} last_swept={} stale_served={} {}",
        s.solves,
        s.full_solves,
        s.incremental_solves,
        s.deltas_applied,
        s.deltas_rejected,
        s.stages_reused,
        s.stages_recomputed,
        s.last_dirty_clients,
        s.last_reused,
        s.last_recomputed,
        s.last_swept,
        s.stale_served,
        latency_fields(hist),
    )
}

/// `health` response: instance shape, pending state, and — when
/// persistence is attached — where the demand state came from on startup
/// plus the current on-disk footprint.
fn health_line(engine: &ServeEngine) -> String {
    let s = engine.stats();
    let mut line = format!(
        "health nodes={} clients={} capacity={} dmax={} pending={} solves={}",
        engine.arena().len(),
        engine.client_count(),
        engine.capacity(),
        engine.dmax().map_or_else(|| "none".to_string(), |d| d.to_string()),
        engine.pending_dirty(),
        s.solves,
    );
    line.push_str(&format!(" recovery={}", recovery_label(engine.recovery())));
    if let Some(counters) = engine.persist_counters() {
        line.push_str(&format!(
            " wal_bytes={} snapshot_bytes={}",
            counters.wal_bytes, counters.snapshot_bytes
        ));
    }
    line
}

/// The recovery-provenance vocabulary `health` speaks: `none` (no
/// `--state-dir`), `cold` (state dir was empty), `wal(<records>)`,
/// `snapshot` or `snapshot+wal(<records>)`.
fn recovery_label(recovery: Option<Recovery>) -> String {
    match recovery {
        None => "none".to_string(),
        Some(Recovery::Cold) => "cold".to_string(),
        Some(Recovery::Replayed { snapshot: false, wal_records }) => format!("wal({wal_records})"),
        Some(Recovery::Replayed { snapshot: true, wal_records: 0 }) => "snapshot".to_string(),
        Some(Recovery::Replayed { snapshot: true, wal_records }) => {
            format!("snapshot+wal({wal_records})")
        }
    }
}

fn latency_fields(hist: &LatencyHistogram) -> String {
    format!(
        "samples={} p50_us={} p99_us={} max_us={} mean_us={}",
        hist.count(),
        hist.quantile_ns(0.5) / 1_000,
        hist.quantile_ns(0.99) / 1_000,
        hist.max_ns() / 1_000,
        hist.mean_ns() / 1_000,
    )
}

/// `rp serve-script`: writes a deterministic, always-valid delta stream
/// for an instance — the CI soak job pipes its output into `rp serve`.
/// Tracks each client's running demand so adds never overflow capacity
/// and subs never underflow; emits a `solve` after every `--batch` deltas,
/// a `stats` probe every `--stats-every` solves, and ends with
/// `stats` + `quit`.
///
/// For crash/recovery soaks, `--crash-after N` emits a `crash-after N`
/// directive right after the warm-up (the daemon aborts after N further
/// responses — re-feed the same script to a restarted daemon with the
/// same `--state-dir`), and `--pause-ms M` paces the stream by emitting
/// a `pause M` after every stats probe.
pub fn cmd_serve_script(args: &Args) -> Result<String, String> {
    let path: String = args.require("instance")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let instance =
        tree_io::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let deltas: u64 = args.get_or("deltas", 1000)?;
    let batch: u64 = args.get_or("batch", 16)?;
    let stats_every: u64 = args.get_or("stats-every", 100)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let crash_after: Option<u64> = match args.get("crash-after") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("invalid --crash-after `{raw}`"))?),
        None => None,
    };
    let pause_ms: Option<u64> = match args.get("pause-ms") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("invalid --pause-ms `{raw}`"))?),
        None => None,
    };
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let tree = instance.tree();
    let w = instance.capacity();
    let mut clients = Vec::new();
    let mut demand = Vec::new();
    for id in tree.node_ids() {
        if tree.is_client(id) {
            clients.push(id.0);
            demand.push(tree.requests(id));
        }
    }
    if clients.is_empty() {
        return Err(format!("{path} has no clients to generate deltas for"));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    out.push_str(&format!(
        "# rp serve-script: instance={path} deltas={deltas} batch={batch} seed={seed}\n"
    ));
    out.push_str("health\nsolve\n");
    if let Some(n) = crash_after {
        out.push_str(&format!("crash-after {n}\n"));
    }
    let mut solves: u64 = 0;
    let mut emitted: u64 = 0;
    while emitted < deltas {
        let run = batch.min(deltas - emitted);
        out.push_str("delta");
        for _ in 0..run {
            let i = rng.gen_range(0..clients.len());
            let cur = demand[i];
            let headroom = w - cur;
            let roll: u8 = rng.gen_range(0..10);
            let (op, new) = if roll < 6 && headroom > 0 {
                let k = rng.gen_range(1..=headroom.min(9));
                (format!("+{k}"), cur + k)
            } else if roll < 9 && cur > 0 {
                let k = rng.gen_range(1..=cur.min(9));
                (format!("-{k}"), cur - k)
            } else {
                let k = rng.gen_range(0..=w.min(9));
                (format!("={k}"), k)
            };
            demand[i] = new;
            out.push_str(&format!(" {} {op}", clients[i]));
        }
        out.push('\n');
        out.push_str("solve\n");
        emitted += run;
        solves += 1;
        if solves.is_multiple_of(stats_every) {
            out.push_str("stats\n");
            if let Some(ms) = pause_ms {
                out.push_str(&format!("pause {ms}\n"));
            }
        }
    }
    out.push_str("stats\nquit\n");
    crate::commands::write_or_return(args.get("out"), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_tree::{Instance, TreeBuilder};
    use std::io::Cursor;

    fn demo_engine() -> ServeEngine {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 4); // node 2
        b.add_client(n1, 2, 5); // node 3
        let inst = Instance::new(b.freeze().unwrap(), 10, Some(4)).unwrap();
        ServeEngine::new(&inst).unwrap()
    }

    fn session(engine: &mut ServeEngine, script: &str) -> (String, Result<String, String>) {
        let mut out = Vec::new();
        let summary = serve_loop(engine, None, Cursor::new(script.as_bytes()), &mut out);
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn example_session_matches_the_documented_protocol() {
        let mut engine = demo_engine();
        let script = "\
# warm-up
health
solve
delta 2 +3 3 -1
solve
leave 3
solve
stats
quit
";
        let (out, summary) = session(&mut engine, script);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("health nodes=4 clients=2 capacity=10 dmax=4"), "{out}");
        assert!(lines[1].starts_with("solved replicas="), "{out}");
        assert!(lines[1].contains("mode=full"), "first solve is cold: {out}");
        assert_eq!(lines[2], "ok applied=2 node=3 requests=4");
        assert!(lines[3].contains("mode=incremental"), "{out}");
        assert_eq!(lines[4], "ok applied=1 node=3 requests=0");
        assert!(lines[5].contains("dirty=1"), "{out}");
        assert!(lines[6].starts_with("stats solves=3 full=1 incremental=2"), "{out}");
        assert!(lines[6].contains("p99_us="), "{out}");
        assert_eq!(lines[7], "bye");
        assert_eq!(lines.len(), 8, "one response per request: {out}");
        let summary = summary.unwrap();
        assert!(summary.contains("solves=3 full=1 incremental=2"), "{summary}");
        assert!(summary.contains("samples=3"), "{summary}");
    }

    #[test]
    fn protocol_errors_are_structured_and_do_not_poison_the_engine() {
        let mut engine = demo_engine();
        let script = "\
nonsense
delta
delta 2
delta 2 *3
delta 3 é5
delta abc +1
delta 2 ++2
delta 2 -+1
delta +2 +1
leave +3
pause +1
delta 99 +1
delta 1 +1
delta 3 -9
delta 3 +7
delta 2 +1 3 -99 2 +1
solve
solution
crash-after 18446744073709551615
quit
";
        let (out, summary) = session(&mut engine, script);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err malformed unknown command"), "{out}");
        assert!(lines[1].starts_with("err malformed delta needs at least one"), "{out}");
        assert!(lines[2].starts_with("err malformed delta for node 2 is missing its op"), "{out}");
        assert!(lines[3].starts_with("err malformed invalid delta op `*3`"), "{out}");
        // A multi-byte op is malformed, not a panic that ends the session.
        assert_eq!(lines[4], "err malformed invalid delta op `é5` (use +K, -K or =K)", "{out}");
        assert!(lines[5].starts_with("err malformed invalid node id `abc`"), "{out}");
        // Node ids and amounts are unsigned: a sign is malformed, never
        // an extra `+`.
        assert!(lines[6].starts_with("err malformed invalid delta op `++2`"), "{out}");
        assert!(lines[7].starts_with("err malformed invalid delta op `-+1`"), "{out}");
        assert!(lines[8].starts_with("err malformed invalid node id `+2`"), "{out}");
        assert!(lines[9].starts_with("err malformed invalid node id `+3`"), "{out}");
        assert!(lines[10].starts_with("err malformed pause needs"), "{out}");
        assert!(lines[11].starts_with("err unknown-node"), "{out}");
        assert!(lines[12].starts_with("err not-a-client"), "{out}");
        assert!(lines[13].starts_with("err underflow"), "{out}");
        assert!(lines[14].starts_with("err capacity"), "{out}");
        // Batch: first pair lands, second fails, third is not attempted.
        assert!(lines[15].starts_with("err underflow after 1 applied"), "{out}");
        // The engine still solves, on exactly the state the errors left:
        // node 2 got +1 (the batch's first pair), nothing else moved.
        assert!(lines[16].starts_with("solved replicas="), "{out}");
        assert!(lines[17].starts_with("err malformed solution needs a path"), "{out}");
        // A count whose fuse would overflow is malformed and arms nothing.
        assert!(lines[18].starts_with("err malformed crash-after count"), "{out}");
        assert_eq!(*lines.last().unwrap(), "bye");
        let summary = summary.unwrap();
        assert!(summary.contains("rejected=5"), "{summary}");
        assert!(summary.contains("deltas=1"), "applied batch pair + nothing else: {summary}");
    }

    #[test]
    fn overflow_deltas_are_rejected_like_the_batch_solvers_would() {
        // The overflow_regressions pattern at the protocol layer: a demand
        // pushed past Tree::MAX_REQUESTS must come back as a structured
        // `err overflow`, a delta pushing the *tree-wide* total past the
        // bound as `err overflow-total`, and the warm engine must keep
        // serving. Client 3 is emptied first so the per-client maximum fits
        // the total exactly — then every further request trips one guard.
        let mut b = TreeBuilder::new();
        let root = b.root();
        let n1 = b.add_internal(root, 2);
        b.add_client(n1, 1, 4);
        b.add_client(n1, 2, 5);
        let inst = Instance::new(b.freeze().unwrap(), u64::MAX, None).unwrap();
        let mut engine = ServeEngine::new(&inst).unwrap();
        let max = rp_tree::Tree::MAX_REQUESTS;
        let script = format!("delta 3 =0\ndelta 2 ={max}\ndelta 2 +1\ndelta 3 +1\nsolve\nquit\n");
        let (out, summary) = session(&mut engine, &script);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok applied=1 node=3 requests=0");
        assert_eq!(lines[1], format!("ok applied=1 node=2 requests={max}"));
        assert!(lines[2].starts_with("err overflow"), "{out}");
        assert!(lines[2].contains("exceeds the solver bound"), "{out}");
        assert!(lines[3].starts_with("err overflow-total"), "{out}");
        assert!(lines[3].contains("tree-wide volume bound"), "{out}");
        assert!(lines[4].starts_with("solved replicas="), "{out}");
        summary.unwrap();
    }

    #[test]
    fn retired_and_misspelt_options_are_rejected_by_name() {
        let serve = |extra: &[&str]| {
            let mut argv = vec!["serve".to_string(), "--instance".into(), "i.txt".into()];
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_serve(&Args::parse(&argv).unwrap()).unwrap_err()
        };
        for (extra, name) in [
            (&["--threads", "2"][..], "--threads"),
            (&["--threshold", "0.5"][..], "--threshold"),
            (&["--threads-typo", "3"][..], "--threads-typo"),
        ] {
            let err = serve(extra);
            assert!(err.contains(&format!("unknown option {name} ")), "{err}");
        }
    }

    #[test]
    fn p99_assertion_gates_the_exit() {
        let mut engine = demo_engine();
        let mut out = Vec::new();
        // A zero-microsecond budget cannot hold once a solve ran.
        let err =
            serve_loop(&mut engine, Some(0), Cursor::new("solve\nquit\n".as_bytes()), &mut out)
                .unwrap_err();
        assert!(err.contains("exceeds the --assert-p99-us budget"), "{err}");
        // A generous budget passes and says so.
        let mut engine = demo_engine();
        let ok = serve_loop(
            &mut engine,
            Some(60_000_000),
            Cursor::new("solve\nquit\n".as_bytes()),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(ok.contains("p99 budget:"), "{ok}");
    }

    #[test]
    fn serve_script_streams_replay_without_errors() {
        // End to end: `gen` an instance, `serve-script` a delta stream for
        // it, replay the stream through the protocol loop. The generator
        // tracks demand, so the session must be error-free, and every
        // batch must come back solved.
        let dir = std::env::temp_dir().join(format!("rp-serve-script-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.txt");
        let inst_s = inst.to_str().unwrap().to_string();
        let run = |argv: &[&str]| {
            crate::commands::dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        run(&[
            "gen",
            "--kind",
            "binary",
            "--clients",
            "24",
            "--seed",
            "5",
            "--dmax-fraction",
            "0.8",
            "--out",
            &inst_s,
        ])
        .unwrap();
        let script = run(&[
            "serve-script",
            "--instance",
            &inst_s,
            "--deltas",
            "64",
            "--batch",
            "8",
            "--stats-every",
            "3",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(script.contains("delta "), "{script}");
        assert!(script.trim_end().ends_with("quit"), "{script}");

        let text = std::fs::read_to_string(&inst).unwrap();
        let instance = tree_io::parse_instance(&text).unwrap();
        let mut engine = ServeEngine::new(&instance).unwrap();
        let (out, summary) = session(&mut engine, &script);
        assert!(!out.contains("\nerr ") && !out.starts_with("err "), "{out}");
        let solves = 1 + 64_u64.div_ceil(8); // warm-up + one per batch
        assert_eq!(out.matches("solved replicas=").count() as u64, solves, "{out}");
        let summary = summary.unwrap();
        assert!(summary.contains("rejected=0"), "{summary}");
        assert!(summary.contains(&format!("solves={solves}")), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pause_and_crash_after_directives_acknowledge() {
        let mut engine = demo_engine();
        // An armed fuse of 100 never fires in this short session — the
        // actual abort is pinned by the crash_recovery integration test
        // (it would take the test harness down with it here).
        let script = "\
pause 1
crash-after 100
pause
crash-after x
health
quit
";
        let (out, summary) = session(&mut engine, script);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok paused=1");
        assert_eq!(lines[1], "ok crash-after=100");
        assert!(lines[2].starts_with("err malformed pause needs"), "{out}");
        assert!(lines[3].starts_with("err malformed crash-after needs"), "{out}");
        assert!(lines[4].contains("recovery=none"), "no --state-dir: {out}");
        assert!(!lines[4].contains("wal_bytes="), "no counters without persistence: {out}");
        assert_eq!(*lines.last().unwrap(), "bye");
        summary.unwrap();
    }

    #[test]
    fn a_blown_solve_budget_reports_mode_stale() {
        let mut engine = demo_engine();
        let (out, _) = session(&mut engine, "solve\n");
        assert!(out.contains("mode=full"), "{out}");
        // A zero budget blows at the sweep's first probe; the last good
        // solution answers, tagged stale on the wire.
        engine.set_solve_budget(Some(std::time::Duration::ZERO));
        let (out, summary) = session(&mut engine, "delta 2 +1\nsolve\nstats\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].contains("mode=stale"), "{out}");
        assert!(lines[2].contains("stale_served=1"), "{out}");
        assert!(lines[2].contains("solves=2 full=2 incremental=0"), "{out}");
        summary.unwrap();
    }

    #[test]
    fn state_dir_sessions_recover_and_report_provenance() {
        let dir = std::env::temp_dir().join(format!("rp-serve-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = demo_engine();
        engine.attach_persist(&dir, PersistConfig::default()).unwrap();
        let (out, _) = session(&mut engine, "health\ndelta 2 +3 3 -1\nsolve\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("recovery=cold wal_bytes=0 snapshot_bytes=0"), "{out}");
        let placed = engine.solution();
        drop(engine);

        // A fresh daemon over the same state dir picks the demand back up
        // and says where it came from.
        let mut revived = demo_engine();
        revived.attach_persist(&dir, PersistConfig::default()).unwrap();
        let (out, summary) = session(&mut revived, "health\nsolve\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("recovery=wal(2)"), "{out}");
        assert!(!lines[0].contains("wal_bytes=0 "), "the WAL is non-empty: {out}");
        assert!(lines[1].starts_with("solved replicas="), "{out}");
        assert_eq!(revived.solution(), placed, "recovered placement is bit-identical");
        summary.unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_script_places_crash_and_pause_directives() {
        let dir = std::env::temp_dir().join(format!("rp-serve-script-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.txt");
        let inst_s = inst.to_str().unwrap().to_string();
        let run = |argv: &[&str]| {
            crate::commands::dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        run(&["gen", "--kind", "binary", "--clients", "8", "--seed", "3", "--out", &inst_s])
            .unwrap();
        let script = run(&[
            "serve-script",
            "--instance",
            &inst_s,
            "--deltas",
            "16",
            "--batch",
            "4",
            "--stats-every",
            "2",
            "--crash-after",
            "7",
            "--pause-ms",
            "5",
        ])
        .unwrap();
        // The crash directive lands right after the warm-up, so a killed
        // and restarted daemon replaying the same script makes progress
        // past the warm-up before the fuse arms again.
        assert!(script.contains("solve\ncrash-after 7\n"), "{script}");
        assert_eq!(script.matches("crash-after ").count(), 1, "{script}");
        // Every stats probe is followed by the pacing pause.
        assert_eq!(
            script.matches("stats\npause 5\n").count() + 1, // final stats has no pause
            script.matches("stats\n").count(),
            "{script}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solution_command_writes_the_current_placement() {
        let dir = std::env::temp_dir().join(format!("rp-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sol = dir.join("sol.txt");
        let mut engine = demo_engine();
        let script = format!("solve\nsolution {}\nquit\n", sol.to_str().unwrap());
        let (out, summary) = session(&mut engine, &script);
        summary.unwrap();
        assert!(out.contains(&format!("wrote {}", sol.to_str().unwrap())), "{out}");
        let text = std::fs::read_to_string(&sol).unwrap();
        // The text format carries fragments only (forced zero-fragment
        // replicas are recomputed by consumers), so compare what it keeps.
        let parsed = tree_io::parse_solution(&text).unwrap();
        let current = engine.solution();
        assert_eq!(parsed.fragments().collect::<Vec<_>>(), current.fragments().collect::<Vec<_>>());
        assert!(text.contains(&format!("replicas {}", current.replica_count())), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
