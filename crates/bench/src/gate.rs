//! The CI perf-regression gate over the `BENCH_*.json` trajectory.
//!
//! CI records six perf artifacts per run — serving throughput, ingest
//! throughput, the parallel-simulation speedup, online serving,
//! multi-chip scale-out and the tiered feature cache — and this module
//! turns them from *recorded* numbers into *gated* ones. Each gated
//! experiment declares its **headline metrics** (all higher-is-better)
//! in its `run()`; `bench --only <id> --json <path>` writes them through
//! [`render_artifact`] in one schema:
//!
//! ```text
//! {"experiment": "<id>",
//!  "headline": [{"name": ..., "value": ..., "wall_clock": ...}, ...],
//!  "lines": ["<the printed table, line by line>", ...]}
//! ```
//!
//! `bench_check` reads the headline block back ([`parse_artifact`]),
//! compares it against the checked-in `bench/baselines/<id>.json`, and
//! a drop of more than the tolerance (10% by default) fails the job with
//! a per-metric delta table.
//!
//! Two kinds of headline metric coexist deliberately, told apart by
//! [`Metric::wall_clock`]:
//!
//! * **deterministic** metrics (simulated-cycle ratios, bit-identity
//!   flags) — exact run to run, so their baselines are tight;
//! * **wall-clock** metrics (build/run speedups measured on the host) —
//!   noisy on shared CI boxes, so their committed baselines are set
//!   conservatively and only large regressions trip the gate. The
//!   `--write-baselines` refresh freezes them, and a single-core runner
//!   reports their regressions informationally.
//!
//! Baselines are refreshed by re-running the benches and passing
//! `--write-baselines` (see the README's bench-gate workflow).

use crate::json::{quote, Json};
use crate::{ExperimentResult, Metric};

/// Relative drop that fails the gate (10%).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// The checked-in baseline value (`None` = metric missing from the
    /// baseline file, reported but not gated).
    pub baseline: Option<f64>,
    /// The freshly measured value (`None` = metric vanished from the
    /// artifact, which is itself a regression).
    pub current: Option<f64>,
    /// Whether the artifact marks the metric as wall clock.
    pub wall_clock: bool,
    /// Whether this row fails the gate.
    pub regressed: bool,
}

impl Delta {
    /// `current / baseline - 1`, when both sides exist and the baseline
    /// is nonzero.
    pub fn relative_change(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some(c / b - 1.0),
            _ => None,
        }
    }
}

/// What `bench_check` reads from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The experiment id (`bench --only` id) that wrote it.
    pub experiment: String,
    /// Its headline metrics (never empty).
    pub headline: Vec<Metric>,
}

/// The baseline file name for an experiment id (`foo` → `foo.json`).
///
/// # Errors
///
/// Ids that are not a plain `[A-Za-z0-9_]+` name, so an artifact cannot
/// point the gate outside the baseline directory.
pub fn baseline_file_for(experiment: &str) -> Result<String, String> {
    if experiment.is_empty()
        || !experiment.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(format!("`{experiment}` is not an experiment id"));
    }
    Ok(format!("{experiment}.json"))
}

/// Writes an experiment's artifact: its id, headline metrics, and
/// printed lines.
pub fn render_artifact(experiment: &str, result: &ExperimentResult) -> String {
    let headline: Vec<String> = result
        .headline
        .iter()
        .map(|m| {
            // Display prints the shortest text that parses back to the
            // same f64; JSON has no spelling for NaN or infinities.
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!(
                "    {{\"name\": {}, \"value\": {value}, \"wall_clock\": {}}}",
                quote(&m.name),
                m.wall_clock
            )
        })
        .collect();
    let lines: Vec<String> = result.lines.iter().map(|l| format!("    {}", quote(l))).collect();
    let array = |items: Vec<String>| {
        if items.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", items.join(",\n"))
        }
    };
    format!(
        "{{\n  \"experiment\": {},\n  \"headline\": {},\n  \"lines\": {}\n}}\n",
        quote(experiment),
        array(headline),
        array(lines),
    )
}

/// Reads an artifact's experiment id and headline block.
///
/// # Errors
///
/// Malformed JSON, a missing or invalid experiment id, a malformed
/// headline entry, or a headline block that is missing or empty — an
/// artifact with nothing to gate must not pass silently.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let doc = Json::parse(text)?;
    let entries = match doc.get("headline").and_then(Json::as_arr) {
        Some(entries) if !entries.is_empty() => entries,
        _ => {
            return Err("no headline block: nothing to gate (an ungated experiment, or an \
                        artifact in the retired per-row schema)"
                .into())
        }
    };
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("missing string `experiment`")?
        .to_string();
    baseline_file_for(&experiment)?;
    let headline = entries
        .iter()
        .map(|e| {
            let name =
                e.get("name").and_then(Json::as_str).ok_or("headline entry without `name`")?;
            let value = e
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("headline metric `{name}` is not a number"))?;
            let wall_clock = e.get("wall_clock").and_then(Json::as_bool).ok_or_else(|| {
                format!("headline metric `{name}` has no boolean `wall_clock`")
            })?;
            Ok(Metric { name: name.to_string(), value, wall_clock })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Artifact { experiment, headline })
}

/// Reads the `{"artifact": ..., "metrics": {...}}` baseline document.
///
/// # Errors
///
/// Malformed documents, or a non-numeric metric value.
pub fn parse_baseline(text: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(text)?;
    let members = match doc.get("metrics") {
        Some(Json::Obj(members)) => members,
        _ => return Err("baseline: expected a `metrics` object".into()),
    };
    members
        .iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|value| Metric::new(name, value))
                .ok_or_else(|| format!("baseline metric `{name}` is not a number"))
        })
        .collect()
}

/// Renders a baseline document for `--write-baselines`.
pub fn render_baseline(artifact: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{{\n  \"artifact\": \"{artifact}\",\n  \"metrics\": {{\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.4}{}\n",
            m.name,
            m.value,
            if i + 1 == metrics.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One line per metric describing how a `--write-baselines` refresh
/// changed the committed baseline — `old -> new (+x.x%)`, `new`,
/// `removed`, or `unchanged` — so a refresh says what it did instead of
/// rewriting silently. `prev` is the previously committed baseline
/// (empty when the file did not exist); `next` is what is about to be
/// written, *after* wall-clock freezing, so a frozen metric correctly
/// reads `unchanged`. Values are compared at the 4-decimal precision
/// the baseline file stores, so re-parsing noise never shows as drift.
pub fn render_refresh_summary(prev: &[Metric], next: &[Metric]) -> Vec<String> {
    let rounded = |v: f64| format!("{v:.4}");
    let mut lines = Vec::new();
    for n in next {
        match prev.iter().find(|p| p.name == n.name) {
            None => lines.push(format!(
                "  {:<34} {:>10} -> {:>10}  new",
                n.name,
                "--",
                rounded(n.value)
            )),
            Some(p) if rounded(p.value) == rounded(n.value) => lines.push(format!(
                "  {:<34} {:>10} -> {:>10}  unchanged",
                n.name,
                rounded(p.value),
                rounded(n.value)
            )),
            Some(p) => {
                let change = if p.value != 0.0 {
                    format!("  ({:+.1}%)", (n.value / p.value - 1.0) * 100.0)
                } else {
                    String::new()
                };
                lines.push(format!(
                    "  {:<34} {:>10} -> {:>10}{change}",
                    n.name,
                    rounded(p.value),
                    rounded(n.value)
                ));
            }
        }
    }
    for p in prev {
        if !next.iter().any(|n| n.name == p.name) {
            lines.push(format!(
                "  {:<34} {:>10} -> {:>10}  removed",
                p.name,
                rounded(p.value),
                "--"
            ));
        }
    }
    lines
}

/// Compares fresh metrics against the baseline: a metric regresses when
/// it drops more than `tolerance` below its baseline (all gate metrics
/// are higher-is-better), or when it disappears from the artifact.
/// Metrics present only in the artifact are informational. Each row
/// carries the artifact's wall-clock flag (a vanished metric has none,
/// so it stays a regression even on a single-core runner).
pub fn compare(baseline: &[Metric], current: &[Metric], tolerance: f64) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for b in baseline {
        let c = current.iter().find(|m| m.name == b.name);
        let regressed = match c {
            None => true,
            Some(m) => m.value < b.value * (1.0 - tolerance),
        };
        deltas.push(Delta {
            name: b.name.clone(),
            baseline: Some(b.value),
            current: c.map(|m| m.value),
            wall_clock: c.is_some_and(|m| m.wall_clock),
            regressed,
        });
    }
    for m in current {
        if !baseline.iter().any(|b| b.name == m.name) {
            deltas.push(Delta {
                name: m.name.clone(),
                baseline: None,
                current: Some(m.value),
                wall_clock: m.wall_clock,
                regressed: false,
            });
        }
    }
    deltas
}

/// Downgrades regressed **wall-clock** deltas to informational, returning
/// the names downgraded. `bench_check` applies this when the runner
/// reports a single core: multi-thread / multi-shard wall-clock speedups
/// are physically unreachable there (forced workers only add overhead),
/// so those rows must not fail the gate — the deterministic
/// simulated-cycle metrics still do.
pub fn demote_wall_clock_regressions(deltas: &mut [Delta]) -> Vec<String> {
    let mut demoted = Vec::new();
    for d in deltas.iter_mut() {
        if d.regressed && d.wall_clock {
            d.regressed = false;
            demoted.push(d.name.clone());
        }
    }
    demoted
}

/// Renders the per-metric delta table for one artifact.
pub fn render_deltas(artifact: &str, deltas: &[Delta], tolerance: f64) -> Vec<String> {
    let mut lines =
        vec![format!("{artifact} (fail below {:.0}% of baseline):", (1.0 - tolerance) * 100.0)];
    for d in deltas {
        let fmt = |v: Option<f64>| v.map_or_else(|| "--".to_string(), |x| format!("{x:.4}"));
        let change =
            d.relative_change().map_or_else(String::new, |r| format!("  ({:+.1}%)", r * 100.0));
        let status = if d.regressed {
            "REGRESSED"
        } else if d.baseline.is_none() {
            "new (ungated)"
        } else {
            "ok"
        };
        lines.push(format!(
            "  {:<34} baseline {:>10}  current {:>10}{change}  {status}",
            d.name,
            fmt(d.baseline),
            fmt(d.current),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> Vec<Metric> {
        pairs.iter().map(|&(n, v)| Metric::new(n, v)).collect()
    }

    #[test]
    fn baseline_names_map_and_unknown_artifacts_fail() {
        assert_eq!(baseline_file_for("serving_throughput").unwrap(), "serving_throughput.json");
        assert_eq!(baseline_file_for("parallel_speedup").unwrap(), "parallel_speedup.json");
        for bad in ["", "../secrets", "a/b", "BENCH_x.json"] {
            assert!(baseline_file_for(bad).is_err(), "`{bad}` must be rejected");
        }
        // Artifacts with nothing to gate fail loudly: an old per-row
        // array, an ungated experiment, and a missing experiment id.
        assert!(parse_artifact("[]").unwrap_err().contains("no headline block"));
        let ungated = r#"{"experiment": "fig10", "headline": [], "lines": []}"#;
        assert!(parse_artifact(ungated).unwrap_err().contains("no headline block"));
        let no_headline = r#"{"experiment": "fig10", "lines": []}"#;
        assert!(parse_artifact(no_headline).unwrap_err().contains("no headline block"));
        assert!(parse_artifact(
            r#"{"headline": [{"name": "x", "value": 1, "wall_clock": false}]}"#
        )
        .is_err());
    }

    #[test]
    fn artifacts_round_trip_through_render_and_parse() {
        let mut result = ExperimentResult::new(
            "Parallel",
            "t",
            vec!["a \"quoted\" line — 1.50×".into(), String::new()],
        );
        result.headline = vec![
            Metric::flag("bit_identical", true),
            Metric::wall_clock("max_speedup_vs_serial", 1.234_567_890_123),
            Metric::new("sustained_rps_at_p99", 136_359.5),
        ];
        let text = render_artifact("parallel_speedup", &result);
        let back = parse_artifact(&text).unwrap();
        assert_eq!(back.experiment, "parallel_speedup");
        assert_eq!(back.headline, result.headline, "values round-trip exactly:\n{text}");
        let doc = Json::parse(&text).unwrap();
        let lines = doc.get("lines").and_then(Json::as_arr).unwrap();
        assert_eq!(lines[0].as_str(), Some(result.lines[0].as_str()));
        assert_eq!(lines.len(), 2);
        // A value JSON cannot spell is written as null and rejected on
        // read rather than passing as a number.
        result.headline = vec![Metric::new("nan", f64::NAN)];
        let err = parse_artifact(&render_artifact("x", &result)).unwrap_err();
        assert!(err.contains("`nan` is not a number"), "{err}");
    }

    #[test]
    fn single_core_demotion_spares_wall_clock_rows_only() {
        let base = metrics(&[
            ("max_speedup_vs_serial", 2.0),
            ("bit_identical", 1.0),
            ("max_build_speedup_vs_serial", 1.8),
            ("vanished_speedup", 1.0),
        ]);
        let cur = vec![
            Metric::wall_clock("max_speedup_vs_serial", 0.9), // unreachable on one core
            Metric::new("bit_identical", 0.0),                // real regression, must survive
            Metric::wall_clock("max_build_speedup_vs_serial", 0.8),
        ];
        let mut deltas = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(deltas.iter().filter(|d| d.regressed).count(), 4);
        let demoted = demote_wall_clock_regressions(&mut deltas);
        assert_eq!(
            demoted,
            vec![
                "max_speedup_vs_serial".to_string(),
                "max_build_speedup_vs_serial".to_string()
            ]
        );
        let still: Vec<&str> =
            deltas.iter().filter(|d| d.regressed).map(|d| d.name.as_str()).collect();
        assert_eq!(
            still,
            vec!["bit_identical", "vanished_speedup"],
            "deterministic and vanished metrics still gate"
        );
    }

    #[test]
    fn compare_flags_drops_beyond_tolerance_and_missing_metrics() {
        let base = metrics(&[("a", 1.0), ("b", 100.0), ("gone", 5.0)]);
        let cur = metrics(&[("a", 0.91), ("b", 85.0), ("extra", 7.0)]);
        let deltas = compare(&base, &cur, DEFAULT_TOLERANCE);
        let by_name = |n: &str| deltas.iter().find(|d| d.name == n).unwrap();
        assert!(!by_name("a").regressed, "9% down is within the 10% gate");
        assert!(by_name("b").regressed, "15% down fails");
        assert!(by_name("gone").regressed, "vanished metric fails");
        assert!(!by_name("extra").regressed, "new metric is informational");
        let rendered = render_deltas("BENCH_x.json", &deltas, DEFAULT_TOLERANCE).join("\n");
        assert!(rendered.contains("REGRESSED") && rendered.contains("ok"), "{rendered}");
    }

    #[test]
    fn refresh_summary_names_changed_added_removed_and_unchanged() {
        let prev = metrics(&[("kept", 2.0), ("moved", 100.0), ("dropped", 5.0)]);
        let next = metrics(&[("kept", 2.0), ("moved", 120.0), ("added", 7.0)]);
        let lines = render_refresh_summary(&prev, &next).join("\n");
        assert!(lines.contains("kept") && lines.contains("unchanged"), "{lines}");
        assert!(
            lines.contains("100.0000 ->   120.0000  (+20.0%)"),
            "change shows old, new, and percent: {lines}"
        );
        assert!(lines.contains("added") && lines.contains("new"), "{lines}");
        assert!(lines.contains("dropped") && lines.contains("removed"), "{lines}");
        // Values that only differ past the stored 4-decimal precision do
        // not read as drift.
        let noisy =
            render_refresh_summary(&metrics(&[("x", 1.23456789)]), &metrics(&[("x", 1.23459)]))
                .join("\n");
        assert!(noisy.contains("unchanged"), "{noisy}");
        // A first-ever refresh (no committed baseline) lists every
        // metric as new.
        let first = render_refresh_summary(&[], &metrics(&[("a", 1.0)])).join("\n");
        assert!(first.contains("a") && first.contains("new"), "{first}");
    }

    #[test]
    fn baselines_roundtrip_through_render_and_parse() {
        let m = metrics(&[("min_speedup_vs_serial", 1.8251), ("bit_identical", 1.0)]);
        let text = render_baseline("BENCH_serving_throughput.json", &m);
        let back = parse_baseline(&text).unwrap();
        assert_eq!(back, metrics(&[("min_speedup_vs_serial", 1.8251), ("bit_identical", 1.0)]));
        assert!(parse_baseline("{\"metrics\": 3}").is_err());
    }
}
