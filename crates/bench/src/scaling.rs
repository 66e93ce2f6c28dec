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

/// One benchmarked grid cell: algorithm × distance-constraint flag ×
/// instance size, with its timing summary and solve stats.
///
/// The three `stage_*` counters mirror `rp_core`'s stage-engine stats for
/// one solve (zero for the non-stage algorithms): candidate subsets
/// generated by the placement enumeration, subsets actually routed, and
/// subsets skipped by the engine's bounds — the observability handle on the
/// enumeration-bound cells this report exists to watch. The two `dp_*`
/// counters (PR 4) do the same for the stage-DP side: nodes processed by
/// the DP passes and stages that fell into the reassignment-free fallback —
/// the handle on the fallback-dominated cells.
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
    /// Candidate subsets enumerated by the stage engine in one solve.
    pub stage_subsets: u64,
    /// Subsets routed (full or incremental) by the stage engine.
    pub stage_routed: u64,
    /// Subsets pruned by the stage engine's bounds before routing.
    pub stage_pruned: u64,
    /// Nodes processed by the stage DP (lower-bound and fallback passes).
    pub dp_node_visits: u64,
    /// Stages solved by the reassignment-free DP fallback.
    pub dp_fallbacks: u64,
    /// Previously-assigned volume collected into stage scopes and
    /// re-routed by the commits (PR 5's incremental stage commit).
    pub commit_touched: u64,
    /// Assigned volume inside stage subtrees that the scoped collection
    /// left untouched — what the historical whole-subtree commit would
    /// have re-routed. The handle on the stage-dense cells
    /// (`multiple-bin-spine`, `multiple-bin-deep`).
    pub commit_skipped: u64,
    /// Carried-list entries physically moved by the EDF router's
    /// small-to-large merges (PR 8's hierarchical carried aggregation;
    /// O(1) list moves and aggregate fast paths are not counted). The
    /// handle on the spine NoD rows this column's PR re-opened: linear in
    /// the client count on chains, was Θ(clients²) before.
    pub router_carry_merges: u64,
    /// Largest carried list the router ever materialised in one stage —
    /// the live-set bound behind the merge argument.
    pub router_carried_peak: u64,
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
                 \"replicas\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}, \
                 \"stage_subsets\": {}, \"stage_routed\": {}, \"stage_pruned\": {}, \
                 \"dp_node_visits\": {}, \"dp_fallbacks\": {}, \
                 \"commit_touched\": {}, \"commit_skipped\": {}, \
                 \"router_carry_merges\": {}, \"router_carried_peak\": {}, \
                 \"peak_alloc_bytes\": {}}}{comma}\n",
                c.algorithm,
                c.dmax,
                c.clients,
                c.nodes,
                c.replicas,
                c.median_ns,
                c.mean_ns,
                c.samples,
                c.stage_subsets,
                c.stage_routed,
                c.stage_pruned,
                c.dp_node_visits,
                c.dp_fallbacks,
                c.commit_touched,
                c.commit_skipped,
                c.router_carry_merges,
                c.router_carried_peak,
                c.peak_alloc_bytes
            ));
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
                // Stage counters joined the schema after the first
                // baselines were recorded; missing means zero so old
                // reports stay comparable.
                stage_subsets: num_field_or(line, "stage_subsets", 0)?,
                stage_routed: num_field_or(line, "stage_routed", 0)?,
                stage_pruned: num_field_or(line, "stage_pruned", 0)?,
                // Same deal for the PR 4 DP counters…
                dp_node_visits: num_field_or(line, "dp_node_visits", 0)?,
                dp_fallbacks: num_field_or(line, "dp_fallbacks", 0)?,
                // …and the PR 5 incremental-commit volume counters.
                commit_touched: num_field_or(line, "commit_touched", 0)?,
                commit_skipped: num_field_or(line, "commit_skipped", 0)?,
                // …and the PR 8 router-aggregation counters.
                router_carry_merges: num_field_or(line, "router_carry_merges", 0)?,
                router_carried_peak: num_field_or(line, "router_carried_peak", 0)?,
                // …and the million-client tier's memory column. (Reports
                // written before the stage engine lost its scope cache and
                // warm start also carry `scope_cache_hits` /
                // `warm_seeds_used`; lookups are by key, so those are
                // simply ignored.)
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
                    stage_subsets: 12000,
                    stage_routed: 4000,
                    stage_pruned: 8000,
                    dp_node_visits: 5200,
                    dp_fallbacks: 3,
                    commit_touched: 900,
                    commit_skipped: 4100,
                    router_carry_merges: 7000,
                    router_carried_peak: 512,
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
                    stage_subsets: 0,
                    stage_routed: 0,
                    stage_pruned: 0,
                    dp_node_visits: 0,
                    dp_fallbacks: 0,
                    commit_touched: 0,
                    commit_skipped: 0,
                    router_carry_merges: 0,
                    router_carried_peak: 0,
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
        // Pre-refactor reports carry no stage counters (PR 3) and no DP
        // counters (PR 4); they must still parse (the bench gate compares
        // against checked-in baselines).
        let old = sample()
            .to_json()
            .replace(
                ", \"stage_subsets\": 12000, \"stage_routed\": 4000, \"stage_pruned\": 8000",
                "",
            )
            .replace(", \"stage_subsets\": 0, \"stage_routed\": 0, \"stage_pruned\": 0", "")
            .replace(", \"dp_node_visits\": 5200, \"dp_fallbacks\": 3", "")
            .replace(", \"dp_node_visits\": 0, \"dp_fallbacks\": 0", "")
            .replace(", \"commit_touched\": 900, \"commit_skipped\": 4100", "")
            .replace(", \"commit_touched\": 0, \"commit_skipped\": 0", "")
            .replace(", \"router_carry_merges\": 7000, \"router_carried_peak\": 512", "")
            .replace(", \"router_carry_merges\": 0, \"router_carried_peak\": 0", "")
            .replace(", \"peak_alloc_bytes\": 1500000", "")
            .replace(", \"peak_alloc_bytes\": 0", "");
        assert!(
            !old.contains("stage_subsets")
                && !old.contains("dp_node_visits")
                && !old.contains("commit_touched")
                && !old.contains("router_carry_merges")
                && !old.contains("peak_alloc_bytes")
        );
        let parsed = ScalingReport::parse(&old).expect("old schema parses");
        assert!(parsed.cells.iter().all(|c| {
            c.stage_subsets == 0
                && c.stage_pruned == 0
                && c.dp_node_visits == 0
                && c.commit_touched == 0
                && c.commit_skipped == 0
                && c.router_carry_merges == 0
                && c.router_carried_peak == 0
                && c.peak_alloc_bytes == 0
        }));
        assert_eq!(parsed.median_of("multiple-bin", true, 1024), Some(6_500_000));
    }

    #[test]
    fn parse_ignores_retired_stage_counters() {
        // Reports written while the stage engine still had its scope cache
        // and warm start (the checked-in baseline among them) carry two
        // counters the schema no longer has; they must parse to the same
        // cells, the retired keys ignored.
        let report = sample();
        let old = report.to_json().replace(
            ", \"peak_alloc_bytes\": 1500000",
            ", \"scope_cache_hits\": 34, \"warm_seeds_used\": 2, \"peak_alloc_bytes\": 1500000",
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
