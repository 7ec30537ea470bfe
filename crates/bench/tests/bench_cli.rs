//! End-to-end tests for the `bench` binary's command line: experiment
//! selection, usage errors, and the artifact it writes.

use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const BENCH_CHECK: &str = env!("CARGO_BIN_EXE_bench_check");

#[test]
fn an_unknown_id_exits_2_and_lists_the_known_ids() {
    let out = Command::new(BENCH).args(["--only", "nope"]).output().expect("spawn bench");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `nope`"), "{stderr}");
    for (id, _) in gnnie_bench::all_experiments() {
        assert!(stderr.contains(id), "`{id}` missing from the id list: {stderr}");
    }
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn usage_errors_exit_2() {
    for args in [&["--json", "x.json"][..], &["--only"], &["--frobnicate"], &["fig10"]] {
        let out = Command::new(BENCH).args(args).output().expect("spawn bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench"), "{args:?}");
    }
}

#[test]
fn one_experiment_prints_its_table_and_writes_its_artifact() {
    let dir = std::env::temp_dir().join(format!("gnnie-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_table3.json");
    let out = Command::new(BENCH)
        .args(["--only", "table3", "--json"])
        .arg(&path)
        .output()
        .expect("spawn bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("==== Table III"), "{stdout}");

    // The artifact carries the printed lines verbatim.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = gnnie_bench::json::Json::parse(&text).unwrap();
    assert_eq!(doc.get("experiment").and_then(|e| e.as_str()), Some("table3"));
    let lines: Vec<&str> = doc
        .get("lines")
        .and_then(|l| l.as_arr())
        .unwrap()
        .iter()
        .map(|l| l.as_str().unwrap())
        .collect();
    let printed: Vec<&str> = stdout.lines().skip(1).take(lines.len()).collect();
    assert_eq!(lines, printed);

    // Table III is not gated: the gate rejects its artifact by name.
    let out = Command::new(BENCH_CHECK)
        .arg("--baseline-dir")
        .arg(&dir)
        .arg(&path)
        .output()
        .expect("spawn bench_check");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&path.display().to_string()), "{stderr}");
    assert!(stderr.contains("no headline block"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
