//! End-to-end tests for the `bench_check` CI gate binary on synthetic
//! `BENCH_*.json` fixtures in the artifact schema `bench --json` writes:
//! pass, regression with a delta table, missing metrics, artifacts with
//! no headline, the `--write-baselines` freeze rules for wall-clock
//! metrics, and the single-core demotion of wall-clock regressions.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_bench_check");

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gnnie-bench-check-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Runs `bench_check` with a baseline dir and artifact paths.
fn run_check(baseline_dir: &Path, extra: &[&str], artifacts: &[&PathBuf]) -> Output {
    check_command(Command::new(BIN), baseline_dir, extra, artifacts)
}

fn check_command(
    mut cmd: Command,
    baseline_dir: &Path,
    extra: &[&str],
    artifacts: &[&PathBuf],
) -> Output {
    cmd.arg("--baseline-dir").arg(baseline_dir);
    cmd.args(extra);
    for a in artifacts {
        cmd.arg(a);
    }
    cmd.output().expect("spawn bench_check")
}

/// Writes `BENCH_<experiment>.json` with the given headline
/// `(name, value, wall_clock)` entries.
fn write_artifact(dir: &Path, experiment: &str, headline: &[(&str, f64, bool)]) -> PathBuf {
    let path = dir.join(format!("BENCH_{experiment}.json"));
    let entries = headline
        .iter()
        .map(|(n, v, w)| format!(r#"    {{"name": "{n}", "value": {v}, "wall_clock": {w}}}"#))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(
        &path,
        format!(
            "{{\n  \"experiment\": \"{experiment}\",\n  \"headline\": [\n{entries}\n  ],\n  \
             \"lines\": [\"table row\"]\n}}\n"
        ),
    )
    .expect("write artifact");
    path
}

/// A serving artifact whose headline is the given worst-row
/// speedup/throughput (both deterministic).
fn serving_artifact(dir: &Path, speedup: f64, throughput: f64) -> PathBuf {
    write_artifact(
        dir,
        "serving_throughput",
        &[
            ("min_speedup_vs_serial", speedup, false),
            ("min_throughput_inferences_per_s", throughput, false),
        ],
    )
}

/// A parallel-speedup artifact (mixes a deterministic flag with the
/// wall-clock `max_speedup_vs_serial`).
fn parallel_artifact(dir: &Path, identical: bool, speedup: f64) -> PathBuf {
    write_artifact(
        dir,
        "parallel_speedup",
        &[
            ("bit_identical", f64::from(u8::from(identical)), false),
            ("max_speedup_vs_serial", speedup, true),
        ],
    )
}

fn write_baseline(dir: &Path, file: &str, metrics: &[(&str, f64)]) {
    let body = metrics
        .iter()
        .map(|(n, v)| format!("    \"{n}\": {v:.4}"))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(
        dir.join(file),
        format!("{{\n  \"artifact\": \"x\",\n  \"metrics\": {{\n{body}\n  }}\n}}\n"),
    )
    .expect("write baseline");
}

fn read_baseline_metric(dir: &Path, file: &str, name: &str) -> f64 {
    let text = std::fs::read_to_string(dir.join(file)).expect("read baseline back");
    let needle = format!("\"{name}\": ");
    let at = text.find(&needle).unwrap_or_else(|| panic!("`{name}` missing in:\n{text}"));
    text[at + needle.len()..]
        .split([',', '\n', '}'])
        .next()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("unparsable `{name}` in:\n{text}"))
}

#[test]
fn matching_artifact_passes_the_gate() {
    let dir = tmpdir("pass");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.5), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench gate OK"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_drop_beyond_tolerance_fails_with_a_delta_table() {
    let dir = tmpdir("regress");
    // Baseline says 2.0; the artifact's headline measures 1.5 — a 25%
    // drop, well past the 10% default tolerance.
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 2.0), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("min_speedup_vs_serial"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "delta table row expected:\n{stdout}");
    assert!(stdout.contains("(-25.0%)"), "relative change expected:\n{stdout}");
    assert!(stdout.contains("ok"), "the healthy metric still renders:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bench gate FAILED"), "{stderr}");
    // A 9% drop stays within the default tolerance…
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.64), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // …but fails a tightened gate.
    let out = run_check(&dir, &["--tolerance", "0.05"], &[&artifact]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_metric_missing_from_the_artifact_fails() {
    let dir = tmpdir("missing");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    // The baseline gates a metric the artifact no longer carries.
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.5), ("vanished_metric", 3.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert_eq!(out.status.code(), Some(1), "a vanished metric is a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vanished_metric"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_artifacts_and_empty_invocations_fail_loudly() {
    let dir = tmpdir("unknown");
    // An artifact in the retired per-row shape, an ungated experiment
    // (empty headline), and one with no headline block at all: each is
    // rejected by file name.
    let old_shape = dir.join("BENCH_made_up.json");
    std::fs::write(&old_shape, "[]").unwrap();
    let empty = dir.join("BENCH_fig10.json");
    std::fs::write(&empty, r#"{"experiment": "fig10", "headline": [], "lines": ["x"]}"#)
        .unwrap();
    let missing = dir.join("BENCH_table3.json");
    std::fs::write(&missing, r#"{"experiment": "table3", "lines": ["x"]}"#).unwrap();
    for bad in [&old_shape, &empty, &missing] {
        let out = run_check(&dir, &[], &[bad]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {}", bad.display())),
            "the file is named: {stderr}"
        );
    }
    for headless in [&old_shape, &empty, &missing] {
        let out = run_check(&dir, &[], &[headless]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no headline block"), "{stderr}");
    }
    let out = Command::new(BIN).output().expect("spawn bench_check");
    assert_eq!(out.status.code(), Some(2), "no artifacts is a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_baselines_creates_the_file_and_then_passes() {
    let dir = tmpdir("write");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    let out = run_check(&dir, &["--write-baselines"], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "serving_throughput.json", "min_speedup_vs_serial"),
        1.5
    );
    // The baseline names the canonical artifact, whatever path the
    // artifact was read from.
    let written = std::fs::read_to_string(dir.join("serving_throughput.json")).unwrap();
    assert!(written.contains(r#""artifact": "BENCH_serving_throughput.json""#), "{written}");
    // The freshly written baseline gates its own artifact cleanly.
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_baselines_freezes_wall_clock_metrics_in_both_directions() {
    let dir = tmpdir("freeze");
    write_baseline(
        &dir,
        "parallel_speedup.json",
        &[("bit_identical", 1.0), ("max_speedup_vs_serial", 2.0)],
    );
    // A faster box must not raise the committed wall-clock baseline…
    let fast = parallel_artifact(&dir, true, 3.0);
    let out = run_check(&dir, &["--write-baselines"], &[&fast]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("frozen"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // …and a slower box must not erode it either.
    let slow = parallel_artifact(&dir, true, 1.2);
    let out = run_check(&dir, &["--write-baselines"], &[&slow]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    // Deterministic metrics refresh verbatim alongside the frozen one.
    let broken = parallel_artifact(&dir, false, 1.2);
    let out = run_check(&dir, &["--write-baselines"], &[&broken]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(read_baseline_metric(&dir, "parallel_speedup.json", "bit_identical"), 0.0);
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn online_serving_artifact_is_gated_end_to_end() {
    let dir = tmpdir("online");
    let online = |sustained: f64| {
        write_artifact(
            &dir,
            "online_serving",
            &[
                ("sustained_rps_at_p99", sustained, false),
                ("daemon_vs_static_cycle_ratio", 1.05, false),
            ],
        )
    };
    let path = online(1000.0);
    let out = run_check(&dir, &["--write-baselines"], &[&path]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run_check(&dir, &[], &[&path]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // Losing 20% of the sustained rate trips the gate.
    let path = online(800.0);
    let out = run_check(&dir, &[], &[&path]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("sustained_rps_at_p99"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `bench_check` command that sees a single core: directly when this
/// machine has one, else pinned to CPU 0 with `taskset` (whose affinity
/// mask `available_parallelism` honors). `None` when neither works.
fn single_core_command() -> Option<Command> {
    if std::thread::available_parallelism().map_or(true, |n| n.get() == 1) {
        return Some(Command::new(BIN));
    }
    let pinned = Command::new("taskset").args(["-c", "0", "nproc"]).output().ok()?;
    if !pinned.status.success() || String::from_utf8_lossy(&pinned.stdout).trim() != "1" {
        return None;
    }
    let mut cmd = Command::new("taskset");
    cmd.args(["-c", "0", BIN]);
    Some(cmd)
}

#[test]
fn a_single_core_runner_demotes_only_wall_clock_regressions() {
    let Some(single_core) = single_core_command() else {
        eprintln!("skipped: cannot restrict bench_check to one core here (no taskset)");
        return;
    };
    let dir = tmpdir("single-core");
    write_baseline(
        &dir,
        "parallel_speedup.json",
        &[("bit_identical", 1.0), ("max_speedup_vs_serial", 2.0)],
    );
    // The wall-clock speedup halves — unreachable on one core — and is
    // reported, not gated.
    let slow = parallel_artifact(&dir, true, 1.0);
    let out = check_command(single_core, &dir, &[], &[&slow]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("single-core runner"), "{stdout}");
    // The same drop on a metric the artifact marks deterministic still
    // fails: the flag, not the name, decides.
    let deterministic = write_artifact(
        &dir,
        "parallel_speedup",
        &[("bit_identical", 1.0, false), ("max_speedup_vs_serial", 1.0, false)],
    );
    let out = check_command(single_core_command().unwrap(), &dir, &[], &[&deterministic]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED"));
    // A real deterministic regression fails next to a demoted row.
    let broken = parallel_artifact(&dir, false, 1.0);
    let out = check_command(single_core_command().unwrap(), &dir, &[], &[&broken]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}
