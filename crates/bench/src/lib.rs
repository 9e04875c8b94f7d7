//! # reno-bench — the experiment harness
//!
//! One binary per table/figure in the paper's evaluation:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig8` | Fig 8 — elimination rates + speedups, 4- and 6-wide |
//! | `fig9` | Fig 9 — critical-path breakdowns |
//! | `fig10` | Fig 10 — RENO_CF / RENO_CSE+RA division of labor |
//! | `fig11prf` | Fig 11 top — physical register file sweep |
//! | `fig11width` | Fig 11 bottom — issue width sweep |
//! | `fig12` | Fig 12 — 2-cycle scheduling loop |
//! | `table_mix` | §1/§4.2 — dynamic instruction mix |
//! | `table_it` | §2.4/§4.4 — IT size/bandwidth division of labor |
//! | `table_fusion` | §3.3 — fusion-latency sensitivity |
//! | `table_e1` | §3.2 — dependent-elimination rule ablation |
//! | `table_sample` | sampled-vs-full validation of the `reno-sample` subsystem |
//! | `bench_report` | perf trajectory — records `perfbench` runs in `BENCH_sim.json`, renders and gates them |
//!
//! Each binary prints a plain-text table whose rows correspond to the
//! paper's bars/series. `RENO_SCALE=tiny|small|default` selects workload
//! size (default: `default`).
//!
//! ## The parallel sweep runner
//!
//! Every (workload × configuration) simulation in a figure is independent,
//! so the binaries build their full job list up front and fan it across
//! cores with [`par_map`] (re-exported from `reno-par`, the order-preserving
//! atomic-cursor pool this harness shares with `reno-sample`'s segment
//! fan-out). Results come back in job order, so **output is byte-identical
//! regardless of thread count or scheduling**; `RENO_THREADS` overrides the
//! worker count (`RENO_THREADS=1` forces the sequential path).

use reno_core::RenoConfig;
use reno_par::Knob;
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_workloads::{Scale, Workload};

pub mod figures;
pub mod report;
pub mod sampling;
pub mod trace_demo;
pub mod trace_stats;

pub use reno_par::{par_map, thread_count};

/// Dynamic-instruction cap per simulation (bounds harness runtime while
/// leaving every kernel's steady state well represented).
pub const FUEL: u64 = 400_000;

/// Cycle cap per simulation (safety net only).
pub const MAX_CYCLES: u64 = 1 << 28;

/// Reads the workload scale from `RENO_SCALE` (unset: `default`).
///
/// # Panics
///
/// Panics, naming the valid values, when `RENO_SCALE` is set to anything
/// else: a typo must not silently run the big, slow default scale.
pub fn scale_from_env() -> Scale {
    SCALE.read().unwrap_or(Scale::Default)
}

/// `RENO_SCALE`: the workload scale.
const SCALE: Knob<Scale> = Knob {
    name: "RENO_SCALE",
    valid: "tiny, small, default, large (unset means default)",
    accept: |s| match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "default" => Some(Scale::Default),
        "large" => Some(Scale::Large),
        _ => None,
    },
};

/// Runs one workload under one machine configuration.
pub fn run(w: &Workload, cfg: MachineConfig) -> SimResult {
    Simulator::with_fuel(&w.program, cfg, FUEL).run(MAX_CYCLES)
}

/// Runs every `(workload, machine)` job across cores; results in job order.
pub fn run_jobs(jobs: &[(Workload, MachineConfig)]) -> Vec<SimResult> {
    par_map(jobs, |(w, m)| run(w, m.clone()))
}

/// The three-config sweep (BASE, CF+ME, full RENO) shared by the Fig 9,
/// 11, and 12 panels.
pub fn cfg_trio() -> [RenoConfig; 3] {
    [
        RenoConfig::baseline(),
        RenoConfig::cf_me(),
        RenoConfig::reno(),
    ]
}

/// The standard config ladder used by most figures:
/// baseline, ME-only, CF+ME, full RENO.
pub fn ladder() -> [(&'static str, RenoConfig); 4] {
    [
        ("BASE", RenoConfig::baseline()),
        ("ME", RenoConfig::me_only()),
        ("CF+ME", RenoConfig::cf_me()),
        ("RENO", RenoConfig::reno()),
    ]
}

/// Formats a table header row (see [`header`]).
pub fn header_str(first: &str, cols: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{first:<10}");
    for c in cols {
        let _ = write!(out, " {c:>10}");
    }
    out.push('\n');
    let _ = writeln!(out, "{}", "-".repeat(10 + 11 * cols.len()));
    out
}

/// Formats one data row with `prec` decimal places — the general form of
/// [`row_str`] shared with `reno-dse`'s sweep reports (IPC wants 3 decimals
/// where the figure tables want 1).
pub fn row_prec_str(name: &str, vals: &[f64], prec: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{name:<10}");
    for v in vals {
        let _ = write!(out, " {v:>10.prec$}");
    }
    out.push('\n');
    out
}

/// Formats one data row of percentages (see [`row`]).
pub fn row_str(name: &str, vals: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{name:<10}");
    for v in vals {
        let _ = write!(out, " {v:>10.1}");
    }
    out.push('\n');
    out
}

/// Prints a table header row.
pub fn header(first: &str, cols: &[&str]) {
    print!("{}", header_str(first, cols));
}

/// Prints one data row of percentages.
pub fn row(name: &str, vals: &[f64]) {
    print!("{}", row_str(name, vals));
}

/// Arithmetic mean.
pub fn amean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_is_cumulative() {
        let l = ladder();
        assert_eq!(l[0].0, "BASE");
        assert!(!l[0].1.any_enabled());
        assert!(l[3].1.const_fold && l[3].1.move_elim);
    }

    #[test]
    fn amean_basics() {
        assert_eq!(amean(&[]), 0.0);
        assert!((amean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn par_map_preserves_order_and_results() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = par_map(&items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn malformed_scales_are_rejected_loudly() {
        assert_eq!(SCALE.parse(None), Ok(None), "unset means default");
        assert_eq!(SCALE.parse(Some("default")), Ok(Some(Scale::Default)));
        assert_eq!(SCALE.parse(Some("tiny")), Ok(Some(Scale::Tiny)));
        assert_eq!(SCALE.parse(Some("small")), Ok(Some(Scale::Small)));
        assert_eq!(SCALE.parse(Some("large")), Ok(Some(Scale::Large)));
        for bad in ["smal", "Tiny", "defualt"] {
            let e = SCALE.parse(Some(bad)).unwrap_err();
            assert!(
                e.contains(&format!("{bad:?}"))
                    && ["tiny", "small", "default", "large"]
                        .iter()
                        .all(|ok| e.contains(ok)),
                "{e}"
            );
        }
    }

    #[test]
    fn thread_count_env_override() {
        // Runs in-process: only assert the parsing contract on the default.
        assert!(thread_count() >= 1);
    }
}
