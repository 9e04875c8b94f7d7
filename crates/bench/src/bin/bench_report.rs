//! Renders the `BENCH_sim.json` perf trajectory and gates on honest
//! regressions.
//!
//! ```text
//! cargo run --release -p reno-bench --bin bench_report            # render only
//! cargo run --release -p reno-bench --bin bench_report -- --check # gate (CI)
//! ```
//!
//! Always exits nonzero on a malformed trajectory file. With `--check`,
//! additionally exits nonzero when any paired `pre-X`/`X` measurement
//! window shows a median drop beyond its own recorded noise plus the 2%
//! floor (see `reno_bench::report` for the pairing and noise rules).
//! `RENO_BENCH_PATH` overrides the trajectory file location.

use reno_bench::report::{bench_path, check, render, validate};

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let path = bench_path();
    let shown = path.display();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_report: cannot read {shown}: {e}");
            std::process::exit(1);
        }
    };
    let entries = match validate(&text) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("bench_report: {shown} is malformed: {e}");
            std::process::exit(1);
        }
    };
    let verdicts = check(&entries);
    print!("{}", render(&entries, &verdicts));
    let failures: Vec<&str> = verdicts
        .iter()
        .filter(|v| !v.pass())
        .map(|v| v.label.as_str())
        .collect();
    if check_mode && !failures.is_empty() {
        eprintln!("bench_report: regression gate FAILED for: {failures:?}");
        std::process::exit(1);
    }
    if check_mode {
        println!(
            "bench_report: gate passed ({} window(s), {} entries)",
            verdicts.len(),
            entries.len()
        );
    }
}
