//! What a workload hands back, the statistics over it and the result line.

use rp_core::StageStats;
use std::time::Duration;

/// Per-solve counters read from the solver's `StageStats`: the harness
/// name, then the `StageStats` field it reads.
pub const STAGE_COUNTS: [(&str, &str); 8] = [
    ("stages_run", "stages"),
    ("subsets_enumerated", "subsets_enumerated"),
    ("subsets_routed", "subsets_routed"),
    ("dp_node_visits", "dp_node_visits"),
    ("router_carry_merges", "router_carry_merges"),
    ("router_carried_peak", "router_carried_peak"),
    ("commit_touched", "commit_touched"),
    ("scope_cache_hits", "scope_cache_hits"),
];

/// Stages the serve journal reused instead of re-solving, per solve. Cold
/// solves have no journal and report 0.
pub const STAGES_REUSED: &str = "stages_reused";

/// Times every request is made, at moments seconds apart. Shared virtual
/// machines have slow phases lasting seconds, in CPU time as well as wall
/// time; a request's latency is the median of its timings, which drops a
/// timing caught in such a phase without picking the best case.
pub const PASSES: usize = 6;

/// One request's spans, ms.
#[derive(Clone, Copy)]
pub struct Request {
    pub latency_ms: f64,
    pub ingest_ms: f64,
    pub solver_ms: f64,
    pub respond_ms: f64,
}

/// The timings of one request, one per pass; `None` once any pass failed.
pub type Timings = Option<Vec<Request>>;

/// Adds one pass's timing of a request; a failure in any pass fails the
/// request.
pub fn add_timing(timings: &mut Timings, timed: Option<Request>) {
    match (timings.as_mut(), timed) {
        (Some(all), Some(t)) => all.push(t),
        _ => *timings = None,
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests whose answer failed a check (or never came).
    pub failed: u64,
    /// End-to-end latency of each request (median over its passes), ms.
    pub latency_ms: Vec<f64>,
    /// Timed request executions that completed, over all passes.
    pub completed: u64,
    /// Wall-clock time of the request loops, s: what `completed` took.
    pub loop_s: f64,
    /// One entry per set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Time bringing the request's input into the solver, ms per request.
    pub ingest_ms: Vec<f64>,
    /// Time inside the solver, ms per request.
    pub solver_ms: Vec<f64>,
    /// Time getting the answer back out, ms per request.
    pub respond_ms: Vec<f64>,
    /// Per-layer counts per solve; only filled in traced runs.
    pub counts: Vec<(&'static str, f64)>,
    /// Peak heap growth of one solver set-up, bytes; only in traced runs.
    pub peak_heap_bytes: u64,
}

/// Nearest-rank median of `values`; 0 when empty, which only happens when
/// every request failed and the result is not correct.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

/// Renders the result line. With `trace` the metrics are the per-layer
/// ones, otherwise the end-to-end ones.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        metrics.push(("ingest_ms", median(&out.ingest_ms), "ms"));
        metrics.push(("solver_ms", median(&out.solver_ms), "ms"));
        metrics.push(("respond_ms", median(&out.respond_ms), "ms"));
        for (name, value) in &out.counts {
            metrics.push((name, *value, "count"));
        }
        metrics.push(("peak_heap_mb", out.peak_heap_bytes as f64 / 1e6, "MB"));
    } else {
        let per_s = if out.loop_s > 0.0 { out.completed as f64 / out.loop_s } else { 0.0 };
        metrics.push(("latency_p50_ms", median(&out.latency_ms), "ms"));
        metrics.push(("requests_per_s", per_s, "1/s"));
        metrics.push(("setup_s", median(&out.setup_s), "s"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

impl Outcome {
    /// Adds the requests of a run. Each keeps the spans of its median
    /// pass (the mean of the two middle passes for an even count); a
    /// failed request counts once.
    pub fn record(&mut self, requests: &[Timings]) {
        for r in requests {
            self.attempted += 1;
            let Some(timings) = r else {
                self.failed += 1;
                continue;
            };
            let mut sorted = timings.clone();
            sorted.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
            let (a, b) = (sorted[(sorted.len() - 1) / 2], sorted[sorted.len() / 2]);
            self.latency_ms.push((a.latency_ms + b.latency_ms) / 2.0);
            self.ingest_ms.push((a.ingest_ms + b.ingest_ms) / 2.0);
            self.solver_ms.push((a.solver_ms + b.solver_ms) / 2.0);
            self.respond_ms.push((a.respond_ms + b.respond_ms) / 2.0);
        }
    }

    /// Sets the per-solve counts: `totals` over `solves` solves, in
    /// [`STAGE_COUNTS`] order, plus the journal's reused stages.
    pub fn set_counts(&mut self, totals: &[u64], reused: u64, solves: u64) {
        let per_solve = |total: u64| total as f64 / solves.max(1) as f64;
        self.counts = STAGE_COUNTS
            .iter()
            .map(|(name, _)| *name)
            .zip(totals.iter().map(|&t| per_solve(t)))
            .collect();
        self.counts.push((STAGES_REUSED, per_solve(reused)));
    }
}

/// Adds one solve's [`STAGE_COUNTS`] to `totals`. The counters are read
/// from `StageStats`' `Debug` text (`StageStats { stages: 3, ... }`), so
/// the harness keeps building when the solver's counters change; a
/// counter that is gone fails the traced run instead of reading 0.
pub fn add_stage_counts(totals: &mut [u64], stats: &StageStats) -> Result<(), String> {
    let debug = format!("{stats:?}");
    for (total, (_, field)) in totals.iter_mut().zip(STAGE_COUNTS) {
        *total += debug
            .split(['{', ',', '}'])
            .filter_map(|part| part.split_once(':'))
            .find(|(key, _)| key.trim() == field)
            .and_then(|(_, value)| value.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("StageStats has no counter `{field}`: {debug}"))?;
    }
    Ok(())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
