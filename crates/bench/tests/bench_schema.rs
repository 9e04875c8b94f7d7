//! Schema + gate validation for the repo-root `BENCH_sim.json` perf
//! trajectory, through the library read path (`reno_bench::report`) and
//! the `bench_report` binary's `--record` write path.
//!
//! A malformed append fails CI here instead of silently corrupting the
//! trajectory that later changes compare against; the frozen archive must
//! stay byte-for-byte; and the noise-aware regression gate must pass on
//! the committed windows.

use reno_bench::report::{benchmark_metrics, check, record, validate, Metric, MIN_RUNS};
use reno_trace::parse_json;
use std::io::Write as _;
use std::process::{Command, Stdio};

fn committed_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::read_to_string(path).expect("BENCH_sim.json exists")
}

fn metrics() -> Vec<Metric> {
    benchmark_metrics().expect("BENCHMARK.json lists the end-to-end metrics")
}

/// A `perfbench --trace 0` stdout with every end-to-end metric at `value`
/// except `wall_s`.
fn perfbench_stdout(workload: &str, wall_s: f64, value: f64) -> String {
    let table: Vec<String> = metrics()
        .iter()
        .map(|m| {
            let v = if m.name == "wall_s" { wall_s } else { value };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"x\"}}", m.name)
        })
        .collect();
    format!(
        "# meta {{\"workload\": \"{workload}\", \"trace\": \"0\", \"workers\": \"2\", \
         \"host_cores\": \"2\", \"rustc\": \"rustc 1.95.0\"}}\n\
         {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}\n",
        table.join(", ")
    )
}

/// FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn bench_sim_json_is_well_formed() {
    let text = committed_text();
    parse_json(&text).expect("BENCH_sim.json is one JSON document");
    let t = validate(&text, &metrics()).expect("BENCH_sim.json validates");
    // The archive is the earlier benchmark's 13 entries, frozen
    // byte-for-byte: lines 3..=15 of the file.
    assert_eq!(t.archive.len(), 13);
    assert_eq!(
        t.archive.first().map(String::as_str),
        Some("pre-event-driven-pr2")
    );
    let archive: Vec<&str> = text.lines().skip(2).take(13).collect();
    assert_eq!(
        fnv1a64(archive.join("\n").as_bytes()),
        0x4144_7599_7963_570c,
        "the archive lines changed"
    );
    for r in &t.runs {
        assert!(!r.workload.is_empty() && r.timestamp_unix > 0, "{r:?}");
    }
}

#[test]
fn committed_trajectory_passes_the_regression_gate() {
    let t = validate(&committed_text(), &metrics()).unwrap();
    let windows = check(&t);
    assert!(!windows.is_empty(), "the committed runs form windows");
    for w in &windows {
        assert!(w.pre_runs >= MIN_RUNS && w.post_runs >= MIN_RUNS, "{w:?}");
        assert!(
            w.pass(),
            "window {} / {} fails: {:?}",
            w.label,
            w.workload,
            w.metrics
        );
    }
}

#[test]
fn appending_a_regressed_window_fails_the_gate() {
    // Synthesize a later append: a pre/post window whose post wall time
    // grew 30%. The gate must refuse it; this is the unit-level proof
    // behind the CI `bench_report --check`.
    let m = metrics();
    let mut text = committed_text();
    let t0 = 4_000_000_000;
    for i in 0..2 * MIN_RUNS as u64 {
        let (label, wall) = if i % 2 == 0 {
            ("pre-slow", 4.0)
        } else {
            ("slow", 5.2)
        };
        let out = perfbench_stdout("detail_default", wall + i as f64 * 1e-3, 50.0);
        text = record(Some(&text), label, &out, t0 + 60 * i, &m).unwrap();
    }
    let windows = check(&validate(&text, &m).expect("the append is well-formed"));
    let bad = windows
        .iter()
        .find(|w| w.label == "slow")
        .expect("the synthetic window pairs up");
    assert!(!bad.pass(), "a 30% slower wall_s must trip the gate");
    assert!(bad.metrics.iter().all(|v| v.worse == (v.name == "wall_s")));
    // And the committed windows still pass alongside it.
    assert!(windows
        .iter()
        .filter(|w| w.label != "slow")
        .all(|w| w.pass()));
}

/// Runs `bench_report --record <label>` on `stdin` against `path`.
fn record_with_binary(path: &std::path::Path, label: &str, stdin: &str) -> bool {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(["--record", label])
        .env("RENO_BENCH_PATH", path)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("bench_report runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait().unwrap().success()
}

#[test]
fn record_creates_a_missing_file_and_only_appends() {
    let dir = std::env::temp_dir().join(format!("reno-bench-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trajectory.json");

    assert!(record_with_binary(
        &path,
        "pre-x",
        &perfbench_stdout("dse_sweep", 4.0, 1.0)
    ));
    let first = std::fs::read_to_string(&path).expect("--record created the file");
    assert_eq!(validate(&first, &metrics()).unwrap().runs.len(), 1);

    // A refused run leaves the file as it was.
    let traced =
        perfbench_stdout("dse_sweep", 4.0, 1.0).replace("\"trace\": \"0\"", "\"trace\": \"1\"");
    assert!(!record_with_binary(&path, "x", &traced));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), first);

    assert!(record_with_binary(
        &path,
        "x",
        &perfbench_stdout("dse_sweep", 4.1, 1.0)
    ));
    let second = std::fs::read_to_string(&path).unwrap();
    let kept = first.strip_suffix("]}\n").unwrap();
    assert!(second.starts_with(kept), "no existing line is rewritten");
    assert_eq!(second.lines().count(), first.lines().count() + 1);
    assert_eq!(validate(&second, &metrics()).unwrap().runs.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
