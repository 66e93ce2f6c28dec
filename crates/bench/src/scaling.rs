//! The machine-readable scaling report (`BENCH_scaling.json`) shared by the
//! `scaling` bench target (writer), the `rp bench-gate` CLI command (reader)
//! and the CI `bench-smoke` job (both).
//!
//! The workspace has no JSON dependency (serde is an offline no-op shim),
//! so the report speaks a deliberately small dialect: a fixed schema tag,
//! a `quick` flag, and one object per grid cell, each emitted on its own
//! line with a fixed field order. [`ScalingReport::parse`] reads exactly
//! what [`ScalingReport::to_json`] writes (pinned by the roundtrip tests)
//! while tolerating whitespace changes, so checked-in baselines survive
//! reformatting.

use rp_core::StageStats;

/// One benchmarked grid cell: algorithm × distance-constraint flag ×
/// instance size, with its timing summary and solve stats.
///
/// `stage` holds `rp_core`'s stage-engine counters of one solve (zero for
/// the non-stage algorithms), written under their
/// [`StageStats::counters`] names — the observability handle on the
/// enumeration- and fallback-bound cells this report exists to watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingCell {
    /// Algorithm name as in [`rp_core::Algorithm::name`].
    pub algorithm: String,
    /// Whether the instance carries a distance constraint (`dmax` on/off).
    pub dmax: bool,
    /// Number of clients of the instance.
    pub clients: u64,
    /// Total tree nodes of the instance.
    pub nodes: u64,
    /// Replica count of the (deterministic) solution.
    pub replicas: u64,
    /// Median solve time over the timed samples, in nanoseconds.
    pub median_ns: u128,
    /// Mean solve time over the timed samples, in nanoseconds.
    pub mean_ns: u128,
    /// Number of timed samples.
    pub samples: u64,
    /// Stage-engine counters of the reference solve.
    pub stage: StageStats,
    /// High-water mark of live heap bytes during the reference solve, as
    /// tracked by [`crate::alloc_track`] (zero in reports written before
    /// the million-client tier, and in processes that never registered the
    /// counting allocator). Includes the instance itself: the column exists
    /// to watch the *total* footprint of solving at a given size. Huge-tier
    /// cells are measured in a scratch of their own (arena re-streamed per
    /// cell), so retained slab capacity from other cells never pollutes
    /// the number — which is what the `peak-alloc` CI gate relies on.
    pub peak_alloc_bytes: u64,
}

/// A full scaling report: the grid cells plus the mode they were run in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalingReport {
    /// Whether the run used quick mode (CI smoke) sampling.
    pub quick: bool,
    /// One entry per benchmarked cell.
    pub cells: Vec<ScalingCell>,
}

/// Schema tag embedded in every report.
pub const SCHEMA: &str = "rp-bench-scaling-v1";

/// The client counts of the scaling grid. Quick mode (CI smoke) stops at
/// 4096 clients — included since PR 4 so CI also gates a fallback-heavy
/// `multiple-bin` cell, not just the enumeration-bound ones — while the
/// full grid goes on to 16384.
pub fn grid_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[256, 1024, 4096]
    } else {
        &[256, 1024, 4096, 16384]
    }
}

/// The client counts of the scaling grid for one algorithm family. Almost
/// every family follows [`grid_sizes`]; the long-spine family keeps its
/// 16384-client rows even in quick mode, because the spine-16384 NoD cell
/// is the chain-DP gate target (`spine-16384-nod` in `bench/gates.toml`)
/// and became cheap enough for CI smoke once the sparse chain DP replaced
/// the dense `O(n · rmax)` slabs there.
pub fn family_grid_sizes(algorithm: &str, quick: bool) -> &'static [usize] {
    if quick && algorithm == "multiple-bin-spine" {
        grid_sizes(false)
    } else {
        grid_sizes(quick)
    }
}

/// The client counts of the million-client tier: instances generated by the
/// streaming generator straight into the solver arena (no materialised
/// [`rp_tree::Tree`]) and solved once per cell through the frontier-parallel
/// entry points. Quick mode (CI smoke) runs the 65536- and 262144-client
/// rows — the 262144 `multiple-bin` dmax cell joined the smoke grid (and
/// gained its own gate) once the stage engine stopped re-collecting whole
/// subtrees per stage and it came down from ~53 s to a couple of seconds
/// — while the full
/// grid goes on to 2²⁰ clients (~2.1 M tree nodes).
pub fn huge_grid_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[65536, 262144]
    } else {
        &[65536, 262144, 1048576]
    }
}

impl ScalingReport {
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
                "    {{\"algorithm\": \"{}\", \"dmax\": {}, \"clients\": {}, \"nodes\": {}, \
                 \"replicas\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}, ",
                c.algorithm,
                c.dmax,
                c.clients,
                c.nodes,
                c.replicas,
                c.median_ns,
                c.mean_ns,
                c.samples,
            ));
            for (name, v) in c.stage.counters() {
                out.push_str(&format!("\"{name}\": {v}, "));
            }
            out.push_str(&format!("\"peak_alloc_bytes\": {}}}{comma}\n", c.peak_alloc_bytes));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by [`ScalingReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct (wrong schema
    /// tag, missing field, unparsable number).
    pub fn parse(text: &str) -> Result<ScalingReport, String> {
        if !text.contains(SCHEMA) {
            return Err(format!("not a {SCHEMA} report"));
        }
        let quick = str_field(text, "quick")
            .ok_or_else(|| "missing `quick` field".to_string())?
            .starts_with("true");
        let mut cells = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('{') || !line.contains("\"algorithm\"") {
                continue;
            }
            // Stage counters joined the schema after the first baselines
            // were recorded; missing means zero so old reports stay
            // comparable. Keys the schema no longer has (the retired
            // `scope_cache_hits` / `warm_seeds_used`, and the pre-table
            // `stage_subsets` / `stage_routed` / `stage_pruned`) are
            // ignored, since lookups are by key.
            let mut stage = StageStats::default();
            for (name, v) in stage.counters_mut() {
                *v = num_field_or(line, name, 0)?;
            }
            cells.push(ScalingCell {
                algorithm: string_field(line, "algorithm")
                    .ok_or_else(|| format!("cell without algorithm: {line}"))?,
                dmax: str_field(line, "dmax")
                    .ok_or_else(|| format!("cell without dmax: {line}"))?
                    .starts_with("true"),
                clients: num_field(line, "clients")?,
                nodes: num_field(line, "nodes")?,
                replicas: num_field(line, "replicas")?,
                median_ns: num_field(line, "median_ns")? as u128,
                mean_ns: num_field(line, "mean_ns")? as u128,
                samples: num_field(line, "samples")?,
                stage,
                // Reports older than the memory column carry no peak.
                peak_alloc_bytes: num_field_or(line, "peak_alloc_bytes", 0)?,
            });
        }
        if cells.is_empty() {
            return Err("report contains no cells".to_string());
        }
        Ok(ScalingReport { quick, cells })
    }

    /// The median solve time of one grid cell, if present.
    pub fn median_of(&self, algorithm: &str, dmax: bool, clients: u64) -> Option<u128> {
        self.cells
            .iter()
            .find(|c| c.algorithm == algorithm && c.dmax == dmax && c.clients == clients)
            .map(|c| c.median_ns)
    }

    /// The peak live heap bytes of one grid cell, if present and recorded
    /// (zero means the report predates the memory column or the process
    /// never registered the counting allocator — not comparable, so `None`).
    pub fn peak_alloc_of(&self, algorithm: &str, dmax: bool, clients: u64) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.algorithm == algorithm && c.dmax == dmax && c.clients == clients)
            .map(|c| c.peak_alloc_bytes)
            .filter(|&b| b > 0)
    }
}

/// The raw text following `"name":` (trimmed), if the key exists. Shared
/// with the serve report, which speaks the same JSON dialect.
pub(crate) fn str_field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    Some(text[at..].trim_start())
}

/// A `"name": "value"` string field.
pub(crate) fn string_field(text: &str, name: &str) -> Option<String> {
    let rest = str_field(text, name)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// A `"name": 123` unsigned number field.
pub(crate) fn num_field(text: &str, name: &str) -> Result<u64, String> {
    let rest = str_field(text, name).ok_or_else(|| format!("missing `{name}` field"))?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().map_err(|_| format!("unparsable `{name}` near: {rest:.40}"))
}

/// [`num_field`] tolerating absence (newer schema fields in old reports).
fn num_field_or(text: &str, name: &str, default: u64) -> Result<u64, String> {
    if str_field(text, name).is_none() {
        return Ok(default);
    }
    num_field(text, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScalingReport {
        ScalingReport {
            quick: true,
            cells: vec![
                ScalingCell {
                    algorithm: "multiple-bin".into(),
                    dmax: true,
                    clients: 1024,
                    nodes: 2047,
                    replicas: 343,
                    median_ns: 6_500_000,
                    mean_ns: 6_700_000,
                    samples: 10,
                    stage: StageStats {
                        stages: 40,
                        subsets_enumerated: 12000,
                        subsets_routed: 4000,
                        subsets_pruned: 8000,
                        dp_node_visits: 5200,
                        dp_fallbacks: 3,
                        commit_touched: 900,
                        commit_skipped: 4100,
                        router_carry_merges: 7000,
                        router_carried_peak: 512,
                        ..StageStats::default()
                    },
                    peak_alloc_bytes: 1_500_000,
                },
                ScalingCell {
                    algorithm: "single-gen".into(),
                    dmax: false,
                    clients: 256,
                    nodes: 511,
                    replicas: 90,
                    median_ns: 40_000,
                    mean_ns: 41_000,
                    samples: 10,
                    stage: StageStats::default(),
                    peak_alloc_bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let report = sample();
        let text = report.to_json();
        let parsed = ScalingReport::parse(&text).expect("own output parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_tolerates_reformatting() {
        let text = sample().to_json().replace("\": ", "\":   ");
        let parsed = ScalingReport::parse(&text).expect("extra whitespace is fine");
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.median_of("multiple-bin", true, 1024), Some(6_500_000));
        assert_eq!(parsed.median_of("multiple-bin", false, 1024), None);
        // The memory accessor treats an unrecorded (zero) peak as absent.
        assert_eq!(parsed.peak_alloc_of("multiple-bin", true, 1024), Some(1_500_000));
        assert_eq!(parsed.peak_alloc_of("single-gen", false, 256), None);
    }

    #[test]
    fn parse_rejects_foreign_and_broken_input() {
        assert!(ScalingReport::parse("{}").is_err());
        let broken = sample().to_json().replace("\"clients\": 1024", "\"clients\": x");
        assert!(ScalingReport::parse(&broken).is_err());
    }

    #[test]
    fn parse_defaults_missing_stage_counters_to_zero() {
        // Reports written before the stage counters (and before the memory
        // column) must still parse: the bench gate compares against
        // checked-in baselines.
        let report = sample();
        let mut old = report.to_json();
        for cell in &report.cells {
            for (name, v) in cell.stage.counters() {
                old = old.replace(&format!("\"{name}\": {v}, "), "");
            }
        }
        let old = old
            .replace(", \"peak_alloc_bytes\": 1500000", "")
            .replace(", \"peak_alloc_bytes\": 0", "");
        assert!(
            !old.contains("subsets_enumerated")
                && !old.contains("dp_node_visits")
                && !old.contains("commit_touched")
                && !old.contains("router_carry_merges")
                && !old.contains("peak_alloc_bytes")
        );
        let parsed = ScalingReport::parse(&old).expect("old schema parses");
        assert!(parsed
            .cells
            .iter()
            .all(|c| c.stage == StageStats::default() && c.peak_alloc_bytes == 0));
        assert_eq!(parsed.median_of("multiple-bin", true, 1024), Some(6_500_000));
    }

    #[test]
    fn parse_ignores_retired_stage_counters() {
        // Reports written while the stage engine still had its scope cache
        // and warm start (the checked-in baseline among them) carry two
        // counters the schema no longer has, and the enumeration counters
        // under their pre-table names; they must parse to the same cells,
        // the retired keys ignored.
        let report = sample();
        let old = report.to_json().replace(
            ", \"peak_alloc_bytes\": 1500000",
            ", \"stage_subsets\": 1, \"stage_routed\": 2, \"stage_pruned\": 3, \
             \"scope_cache_hits\": 34, \"warm_seeds_used\": 2, \"peak_alloc_bytes\": 1500000",
        );
        assert!(old.contains("\"scope_cache_hits\": 34"));
        let parsed = ScalingReport::parse(&old).expect("retired keys are ignored");
        assert_eq!(parsed, report);
    }

    #[test]
    fn grid_sizes_match_modes() {
        assert_eq!(grid_sizes(true), &[256, 1024, 4096]);
        assert_eq!(grid_sizes(false).last(), Some(&16384));
        assert_eq!(huge_grid_sizes(true), &[65536, 262144]);
        assert_eq!(huge_grid_sizes(false).last(), Some(&(1 << 20)));
        // The spine family is the only one whose quick grid reaches 16384
        // (its NoD cell is the chain-DP gate target); everyone else
        // follows the mode-selected grid.
        assert_eq!(family_grid_sizes("multiple-bin-spine", true), grid_sizes(false));
        assert_eq!(family_grid_sizes("multiple-bin-spine", false), grid_sizes(false));
        assert_eq!(family_grid_sizes("multiple-bin", true), grid_sizes(true));
        assert_eq!(family_grid_sizes("single-gen", false), grid_sizes(false));
    }
}
