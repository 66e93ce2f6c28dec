//! The machine-readable serve soak report (`BENCH_serve.json`), written by
//! the `serve` bench target and uploaded by CI's `serve-soak` job.
//!
//! Same hand-rolled JSON dialect as [`crate::scaling`] (the workspace has
//! no JSON dependency): schema tag, `quick` flag, one cell object per line
//! in a fixed field order, parsed back by exactly the code that wrote it.
//! One cell per soaked family: how many deltas and solves the session ran,
//! how often the engine fell back to a full solve, the stage-journal reuse
//! totals, and the latency summary the soak gate reads — the cold-solve
//! median next to the incremental p50/p99, whose ratio is the whole point
//! of `rp serve`.

use crate::scaling::{num_field, str_field, string_field};

/// Schema tag embedded in every serve report.
pub const SCHEMA: &str = "rp-bench-serve-v1";

/// One soaked family: a warm [`rp_core::ServeEngine`] driven through a
/// deterministic delta stream, with cold solves sampled for the ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeBenchCell {
    /// Instance family (`binary-dmax`, `spine`, …).
    pub family: String,
    /// Number of clients of the instance.
    pub clients: u64,
    /// Total tree nodes of the instance.
    pub nodes: u64,
    /// Demand deltas applied over the session.
    pub deltas: u64,
    /// Solves run over the session (one per delta round).
    pub solves: u64,
    /// How many of those fell back to a cold full solve.
    pub full_solves: u64,
    /// Journaled stages carried unchanged across all incremental solves.
    pub stages_reused: u64,
    /// Stages searched across all incremental solves.
    pub stages_recomputed: u64,
    /// Median of the cold reference solves, in nanoseconds.
    pub cold_median_ns: u64,
    /// p50 of the warm per-solve latency, in nanoseconds.
    pub inc_p50_ns: u64,
    /// p99 of the warm per-solve latency, in nanoseconds.
    pub inc_p99_ns: u64,
    /// Mean of the warm per-solve latency, in nanoseconds.
    pub inc_mean_ns: u64,
    /// Session throughput: deltas applied per wall-clock second.
    pub deltas_per_sec: u64,
    /// Wall-clock cost of recovering this family's full delta stream from
    /// its WAL + snapshot on a cold start, in milliseconds (0 when the
    /// bench ran without persistence).
    pub recovery_ms: u64,
    /// Solves answered with the last-known-good solution because the
    /// deadline budget blew (0 when the bench ran without a budget).
    pub stale_served: u64,
}

/// A full serve report: the soaked cells plus the mode they were run in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Whether the run used quick mode (CI soak) stream lengths.
    pub quick: bool,
    /// One entry per soaked family.
    pub cells: Vec<ServeBenchCell>,
}

impl ServeReport {
    /// Serializes the report; one cell per line, fixed field order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"clients\": {}, \"nodes\": {}, \"deltas\": {}, \
                 \"solves\": {}, \"full_solves\": {}, \"stages_reused\": {}, \
                 \"stages_recomputed\": {}, \"cold_median_ns\": {}, \"inc_p50_ns\": {}, \
                 \"inc_p99_ns\": {}, \"inc_mean_ns\": {}, \"deltas_per_sec\": {}, \
                 \"recovery_ms\": {}, \"stale_served\": {}}}{comma}\n",
                c.family,
                c.clients,
                c.nodes,
                c.deltas,
                c.solves,
                c.full_solves,
                c.stages_reused,
                c.stages_recomputed,
                c.cold_median_ns,
                c.inc_p50_ns,
                c.inc_p99_ns,
                c.inc_mean_ns,
                c.deltas_per_sec,
                c.recovery_ms,
                c.stale_served,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by [`ServeReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct (wrong schema
    /// tag, missing field, unparsable number).
    pub fn parse(text: &str) -> Result<ServeReport, String> {
        if !text.contains(SCHEMA) {
            return Err(format!("not a {SCHEMA} report"));
        }
        let quick = str_field(text, "quick")
            .ok_or_else(|| "missing `quick` field".to_string())?
            .starts_with("true");
        let mut cells = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('{') || !line.contains("\"family\"") {
                continue;
            }
            cells.push(ServeBenchCell {
                family: string_field(line, "family")
                    .ok_or_else(|| format!("cell without family: {line}"))?,
                clients: num_field(line, "clients")?,
                nodes: num_field(line, "nodes")?,
                deltas: num_field(line, "deltas")?,
                solves: num_field(line, "solves")?,
                full_solves: num_field(line, "full_solves")?,
                stages_reused: num_field(line, "stages_reused")?,
                stages_recomputed: num_field(line, "stages_recomputed")?,
                cold_median_ns: num_field(line, "cold_median_ns")?,
                inc_p50_ns: num_field(line, "inc_p50_ns")?,
                inc_p99_ns: num_field(line, "inc_p99_ns")?,
                inc_mean_ns: num_field(line, "inc_mean_ns")?,
                deltas_per_sec: num_field(line, "deltas_per_sec")?,
                // Reliability columns arrived after the first recorded
                // baselines; absent fields read as zero so old reports
                // stay comparable.
                recovery_ms: num_field(line, "recovery_ms").unwrap_or(0),
                stale_served: num_field(line, "stale_served").unwrap_or(0),
            });
        }
        if cells.is_empty() {
            return Err("report contains no cells".to_string());
        }
        Ok(ServeReport { quick, cells })
    }

    /// The cell of one soaked family, if present.
    pub fn cell_of(&self, family: &str, clients: u64) -> Option<&ServeBenchCell> {
        self.cells.iter().find(|c| c.family == family && c.clients == clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            quick: true,
            cells: vec![
                ServeBenchCell {
                    family: "binary-dmax".into(),
                    clients: 16384,
                    nodes: 32767,
                    deltas: 200,
                    solves: 201,
                    full_solves: 1,
                    stages_reused: 5400,
                    stages_recomputed: 130,
                    cold_median_ns: 48_000_000,
                    inc_p50_ns: 1_900_000,
                    inc_p99_ns: 6_000_000,
                    inc_mean_ns: 2_400_000,
                    deltas_per_sec: 410,
                    recovery_ms: 850,
                    stale_served: 0,
                },
                ServeBenchCell {
                    family: "spine".into(),
                    clients: 16384,
                    nodes: 32769,
                    deltas: 200,
                    solves: 201,
                    full_solves: 1,
                    stages_reused: 900_000,
                    stages_recomputed: 2_000,
                    cold_median_ns: 90_000_000,
                    inc_p50_ns: 4_000_000,
                    inc_p99_ns: 12_000_000,
                    inc_mean_ns: 5_000_000,
                    deltas_per_sec: 190,
                    recovery_ms: 0,
                    stale_served: 3,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let report = sample();
        let parsed = ServeReport::parse(&report.to_json()).expect("own output parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_tolerates_reformatting_and_rejects_foreign_input() {
        let text = sample().to_json().replace("\": ", "\":   ");
        let parsed = ServeReport::parse(&text).expect("extra whitespace is fine");
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.cell_of("spine", 16384).map(|c| c.cold_median_ns), Some(90_000_000));
        assert_eq!(parsed.cell_of("spine", 4096), None);
        assert!(ServeReport::parse("{}").is_err());
        let broken = sample().to_json().replace("\"deltas\": 200", "\"deltas\": x");
        assert!(ServeReport::parse(&broken).is_err());
    }

    #[test]
    fn parse_tolerates_reports_without_reliability_columns() {
        // A report recorded before recovery_ms / stale_served existed
        // still parses; the missing columns read as zero.
        let mut text = sample().to_json();
        text = text.replace(", \"recovery_ms\": 850, \"stale_served\": 0", "");
        text = text.replace(", \"recovery_ms\": 0, \"stale_served\": 3", "");
        assert!(!text.contains("recovery_ms"), "{text}");
        let parsed = ServeReport::parse(&text).expect("pre-reliability reports parse");
        assert_eq!(parsed.cell_of("binary-dmax", 16384).map(|c| c.recovery_ms), Some(0));
        assert_eq!(parsed.cell_of("spine", 16384).map(|c| c.stale_served), Some(0));
    }
}
