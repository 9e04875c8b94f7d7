//! Records `perfbench` runs into the `BENCH_sim.json` perf trajectory,
//! renders it, and gates on honest regressions.
//!
//! ```text
//! cargo run --release -p reno-bench --bin bench_report                  # render
//! cargo run --release -p reno-bench --bin bench_report -- --check       # gate (CI)
//! <perfbench run> | cargo run --release -p reno-bench --bin bench_report -- --record <label>
//! ```
//!
//! `--record` appends the untraced run on stdin, stamped with the current
//! Unix time, and creates the file if it is missing. Exits nonzero on a
//! malformed file or a refused run, and with `--check` on a failing
//! window (rules in `reno_bench::report`). `RENO_BENCH_PATH` overrides the
//! trajectory file location.

use reno_bench::report::{bench_path, benchmark_metrics, check, record, render, validate};
use std::io::Read as _;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_report: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (check_mode, label) = match argv.as_slice() {
        [] => (false, None),
        [flag] if flag == "--check" => (true, None),
        [flag, label] if flag == "--record" => (false, Some(label.as_str())),
        _ => {
            eprintln!("usage: bench_report [--check | --record <label>]");
            return ExitCode::from(2);
        }
    };
    let metrics = match benchmark_metrics() {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    let path = bench_path();
    let shown = path.display();
    let existing = match std::fs::read_to_string(&path) {
        Ok(t) => Some(t),
        Err(e) if label.is_some() && e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return fail(&format!("cannot read {shown}: {e}")),
    };

    if let Some(label) = label {
        let mut stdin = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut stdin) {
            return fail(&format!("cannot read stdin: {e}"));
        }
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let text = match record(existing.as_deref(), label, &stdin, now, &metrics) {
            Ok(t) => t,
            Err(e) => return fail(&format!("not recorded in {shown}: {e}")),
        };
        // Write beside the file and rename over it, so an interrupted
        // append leaves the old file whole.
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        if let Err(e) = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path)) {
            return fail(&format!("cannot write {shown}: {e}"));
        }
        println!("bench_report: recorded a {label} run in {shown}");
        return ExitCode::SUCCESS;
    }

    let trajectory = match validate(existing.as_deref().unwrap_or_default(), &metrics) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{shown} is malformed: {e}")),
    };
    let windows = check(&trajectory);
    print!("{}", render(&trajectory, &windows));
    let failures: Vec<String> = windows
        .iter()
        .filter(|w| !w.pass())
        .map(|w| format!("{} / {}", w.label, w.workload))
        .collect();
    if check_mode && !failures.is_empty() {
        return fail(&format!("regression gate FAILED for: {failures:?}"));
    }
    if check_mode {
        println!(
            "bench_report: gate passed ({} window(s), {} runs)",
            windows.len(),
            trajectory.runs.len()
        );
    }
    ExitCode::SUCCESS
}
