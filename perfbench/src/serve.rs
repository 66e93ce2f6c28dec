//! The `serve` workload: one closed-loop client drives a journaled
//! `rp serve` daemon (`--state-dir`, `--fsync always`) over its stdin and
//! stdout. Each request is one update cycle, the traffic of the
//! repository's serve soak (`crates/bench/benches/serve.rs`): a `delta`
//! line changing one client's demand, then a `solve`, timed from the first
//! byte sent to the `solved` line received.
//!
//! Spans per request: `ingest` (the `delta` round trip: parse, validate,
//! WAL append and fsync, apply), `solver` (the daemon's own `elapsed_us`
//! for the re-solve) and `respond` (the rest of the `solve` round trip:
//! protocol, pipes, response formatting).
//!
//! A run works through [`DAEMONS`] network slots. A slot's topology is
//! fixed; its demand and delta stream come from the seed. Each slot runs
//! [`SESSIONS`] sessions, each on a fresh daemon and state directory,
//! taking turns with the other slots: the first takes its share of the
//! time and records its deltas, the others replay them, and each
//! request's latency is the median over its sessions. Set-up is spawn to first full solve answered,
//! once per session. Every session ends by writing its placement, which
//! must validate against the final demand and use as many replicas as a
//! reference solve of it.
//!
//! Traced runs replay each slot's recorded deltas through an in-process
//! `ServeEngine` (the daemon's engine, without the WAL) for the counters
//! the protocol does not carry: `stages_run` and `stages_reused` come from
//! the daemon's `solved` lines, the other stage counters from the engine's
//! `StageStats`, which after a journaled solve describe the whole served
//! solution, reused stages included; `peak_heap_mb` is the heap growth of
//! the engine's construction and first full solve.

use crate::cold::reference_replicas;
use crate::gen::{Spec, SplitMix};
use crate::report::{self, ms, Outcome, Request, Timings, STAGE_COUNTS};
use rp_bench::alloc_track;
use rp_core::{DemandDelta, ServeEngine};
use rp_tree::Instance;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const DAEMONS: usize = 3;
/// Sessions per slot. A session's speed varies by up to a quarter from
/// daemon to daemon, so a request's median needs many of them.
const SESSIONS: usize = 24;
const CLIENTS: usize = 8192;
const REGION: usize = 32;
const DMAX_FRACTION: f64 = 0.7;

/// A recorded delta, the acknowledgement it must get, and the replica
/// count the daemon answered its solve with in the first session.
struct Delta {
    node: u32,
    delta: DemandDelta,
    line: String,
    ack: String,
    replicas: u64,
}

/// One network slot: its demand as the deltas left it, its recorded
/// deltas and the timings of each.
struct Slot {
    spec: Spec,
    initial: Instance,
    rng: SplitMix,
    clients: Vec<u32>,
    dir: PathBuf,
    script: Vec<Delta>,
    requests: Vec<Timings>,
    /// Replicas of the reference solve of the final demand, once known.
    reference: Option<u64>,
}

/// Journal counters summed over the first sessions' solves.
#[derive(Default)]
struct Journal {
    reused: u64,
    recomputed: u64,
    solves: u64,
}

pub fn run(
    rp: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut journal = Journal::default();
    let mut slots =
        (0..DAEMONS).map(|d| Slot::new(work, seed, d)).collect::<Result<Vec<_>, _>>()?;
    let share = Duration::from_secs_f64(seconds / (DAEMONS * SESSIONS) as f64);
    // Session-major order spreads each request's timings over the whole
    // run, so its median drops a slow phase shorter than half the run.
    for pass in 0..SESSIONS {
        for slot in &mut slots {
            session(rp, slot, pass, share, &mut out, &mut journal)?;
        }
    }
    let mut totals = [0u64; STAGE_COUNTS.len()];
    for slot in &slots {
        out.record(&slot.requests);
        if trace {
            let heap = replay(&slot.initial, &slot.script, &mut totals)?;
            out.peak_heap_bytes = out.peak_heap_bytes.max(heap);
        }
    }
    if trace {
        // `stages_run`, first in STAGE_COUNTS, is the daemon's recomputed
        // stages: the stages a journaled solve actually ran.
        totals[0] = journal.recomputed;
        out.set_counts(&totals, journal.reused, journal.solves);
    }
    Ok(out)
}

impl Slot {
    /// Slot `d`: a fixed topology, demand from the seed, written out as
    /// the daemon's instance file.
    fn new(work: &Path, seed: u64, d: usize) -> Result<Slot, String> {
        let mut shape = SplitMix::new(d as u64);
        let mut rng = SplitMix::new(seed.wrapping_mul(0x2000_0003).wrapping_add(d as u64));
        let spec = Spec::regional_binary(CLIENTS, REGION, 3.0, DMAX_FRACTION, &mut shape, &mut rng);
        let initial = spec.instance()?;
        let dir = work.join(format!("daemon{d}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let instance_path = dir.join("instance.txt");
        std::fs::write(&instance_path, rp_tree::io::write_instance(&initial))
            .map_err(|e| format!("cannot write {}: {e}", instance_path.display()))?;
        let clients = spec.clients();
        Ok(Slot {
            spec,
            initial,
            rng,
            clients,
            dir,
            script: Vec::new(),
            requests: Vec::new(),
            reference: None,
        })
    }
}

/// Session `pass` of a slot on a fresh daemon and state directory. The
/// first session records deltas for its share of the time; the others
/// replay them.
fn session(
    rp: &Path,
    slot: &mut Slot,
    pass: usize,
    share: Duration,
    out: &mut Outcome,
    journal: &mut Journal,
) -> Result<(), String> {
    let state = slot.dir.join(format!("state{pass}"));
    let t = Instant::now();
    let mut daemon = Daemon::spawn(rp, &slot.dir.join("instance.txt"), &state)?;
    let health = daemon.request("health")?;
    if !health.starts_with("health ") {
        return Err(format!("unexpected health response `{health}`"));
    }
    let mut replicas = Solved::parse(&daemon.request("solve")?)?.replicas;
    out.setup_s.push(t.elapsed().as_secs_f64());

    let start = Instant::now();
    let mut i = 0;
    while if pass == 0 { start.elapsed() < share } else { i < slot.script.len() } {
        if pass == 0 {
            slot.script.push(delta(&mut slot.spec, &slot.clients, &mut slot.rng));
            slot.requests.push(Some(Vec::with_capacity(SESSIONS)));
        }
        let step = &mut slot.script[i];
        let t0 = Instant::now();
        let ack = daemon.request(&step.line)?;
        let t1 = Instant::now();
        let reply = daemon.request("solve")?;
        let t2 = Instant::now();
        let solved = match Solved::parse(&reply) {
            Ok(s) if ack == step.ack && s.mode != "stale" => Some(s),
            _ => {
                eprintln!("perfbench: `{ack}` / `{reply}` after `{}`", step.line);
                None
            }
        };
        let timed = solved.map(|s| {
            replicas = s.replicas;
            if pass == 0 {
                step.replicas = s.replicas;
                journal.reused += s.reused;
                journal.recomputed += s.recomputed;
                journal.solves += 1;
            }
            let solver_ms = s.elapsed_us as f64 / 1e3;
            Request {
                latency_ms: ms(t2 - t0),
                ingest_ms: ms(t1 - t0),
                solver_ms,
                respond_ms: ms(t2 - t1) - solver_ms,
            }
        });
        out.completed += u64::from(timed.is_some());
        report::add_timing(&mut slot.requests[i], timed);
        i += 1;
    }
    out.loop_s += start.elapsed().as_secs_f64();

    let solution_path = slot.dir.join(format!("solution{pass}.txt"));
    let wrote = daemon.request(&format!("solution {}", solution_path.display()))?;
    if !wrote.starts_with("wrote ") {
        return Err(format!("unexpected solution response `{wrote}`"));
    }
    daemon.quit()?;
    if let Err(e) = check(slot, &solution_path, replicas) {
        eprintln!("perfbench: {} session {pass}: {e}", slot.dir.display());
        out.failed += 1;
    }
    Ok(())
}

/// Replays a slot's recorded deltas through an in-process engine, adding
/// each solve's stage counters to `totals` and checking its replica count
/// against the daemon's; returns the heap growth of the engine's
/// construction and first full solve.
fn replay(initial: &Instance, script: &[Delta], totals: &mut [u64]) -> Result<u64, String> {
    let base = alloc_track::current_bytes();
    alloc_track::reset_peak();
    let mut engine = ServeEngine::new(initial).map_err(|e| format!("engine: {e}"))?;
    engine.solve().map_err(|e| format!("engine solve: {e}"))?;
    let heap = alloc_track::peak_bytes().saturating_sub(base);
    for step in script {
        engine.apply_delta(step.node, step.delta).map_err(|e| format!("engine delta: {e}"))?;
        let solved = engine.solve().map_err(|e| format!("engine solve: {e}"))?;
        if solved.replicas != step.replicas {
            return Err(format!(
                "the engine places {} replicas after `{}`, the daemon {}",
                solved.replicas, step.line, step.replicas
            ));
        }
        report::add_stage_counts(totals, engine.stage_stats())?;
    }
    Ok(heap)
}

/// One `delta` request changing one random client, applied to `spec` as
/// the daemon will apply it: the serve soak's mix of adds up to the
/// capacity, subtractions down to zero and, now and then, an absolute set.
fn delta(spec: &mut Spec, clients: &[u32], rng: &mut SplitMix) -> Delta {
    let w = spec.capacity;
    let node = clients[rng.range(0, clients.len() as u64 - 1) as usize];
    let slot = spec.nodes[node as usize].requests.as_mut().expect("clients carry requests");
    let cur = *slot;
    let roll = rng.range(0, 9);
    let (delta, op, new) = if roll < 6 && cur < w {
        let k = rng.range(1, (w - cur).min(9));
        (DemandDelta::Add(k), format!("+{k}"), cur + k)
    } else if roll < 9 && cur > 0 {
        let k = rng.range(1, cur.min(9));
        (DemandDelta::Sub(k), format!("-{k}"), cur - k)
    } else {
        let k = rng.range(0, w.min(9));
        (DemandDelta::Set(k), format!("={k}"), k)
    };
    *slot = new;
    Delta {
        node,
        delta,
        line: format!("delta {node} {op}"),
        ack: format!("ok applied=1 node={node} requests={new}"),
        replicas: 0,
    }
}

/// The daemon's last placement must validate for the final demand and use
/// as many replicas as a reference solve of that demand. Every session of
/// a slot ends on the same demand, so the reference solve runs once.
fn check(slot: &mut Slot, solution_path: &Path, replicas: u64) -> Result<(), String> {
    let text = std::fs::read_to_string(solution_path)
        .map_err(|e| format!("cannot read {}: {e}", solution_path.display()))?;
    let header =
        text.lines().find_map(|l| l.strip_prefix("replicas ")).and_then(|v| v.parse().ok());
    if header != Some(replicas) {
        return Err(format!(
            "solution file says {header:?} replicas, the last solve said {replicas}"
        ));
    }
    let solution = rp_tree::io::parse_solution(&text).map_err(|e| format!("solution file: {e}"))?;
    slot.spec.check(&solution)?;
    let reference = match slot.reference {
        Some(r) => r,
        None => reference_replicas(&slot.spec.instance()?)? as u64,
    };
    slot.reference = Some(reference);
    if reference != replicas {
        return Err(format!("served {replicas} replicas, the reference solve places {reference}"));
    }
    Ok(())
}

/// The fields of a `solved replicas=R mode=M dirty=D reused=U
/// recomputed=C elapsed_us=E` response.
struct Solved {
    replicas: u64,
    mode: String,
    reused: u64,
    recomputed: u64,
    elapsed_us: u64,
}

impl Solved {
    fn parse(line: &str) -> Result<Solved, String> {
        let rest =
            line.strip_prefix("solved ").ok_or_else(|| format!("not a solve answer: `{line}`"))?;
        let field = |key: &str| {
            rest.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        };
        let number = |key: &str| {
            field(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("solve answer without `{key}`: `{line}`"))
        };
        Ok(Solved {
            replicas: number("replicas")?,
            mode: field("mode").unwrap_or_default().to_string(),
            reused: number("reused")?,
            recomputed: number("recomputed")?,
            elapsed_us: number("elapsed_us")?,
        })
    }
}

/// A running `rp serve`; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    input: BufWriter<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(rp: &Path, instance: &Path, state: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(rp)
            .arg("serve")
            .arg("--instance")
            .arg(instance)
            .arg("--state-dir")
            .arg(state)
            .args(["--fsync", "always"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rp.display()))?;
        let input = BufWriter::new(child.stdin.take().expect("stdin is piped"));
        let output = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon { child, input, output })
    }

    /// Sends one request line and returns the response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.input, "{line}")
            .and_then(|()| self.input.flush())
            .map_err(|e| format!("daemon stdin: {e}"))?;
        let mut reply = String::new();
        match self.output.read_line(&mut reply) {
            Ok(0) => Err(format!("daemon exited before answering `{line}`")),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("daemon stdout: {e}")),
        }
    }

    /// Ends the session and waits for a clean exit.
    fn quit(mut self) -> Result<(), String> {
        let bye = self.request("quit")?;
        if bye != "bye" {
            return Err(format!("unexpected quit response `{bye}`"));
        }
        // Drain the session summary so the daemon never blocks on a full pipe.
        std::io::copy(&mut self.output, &mut std::io::sink()).map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `quit` the process has been reaped and both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
