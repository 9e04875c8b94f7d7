//! Sampled-vs-full validation harness: the `table_sample` report.
//!
//! For every workload and machine configuration, runs the full detailed
//! simulation and the `reno-sample` auto ladder
//! ([`reno_sample::run_sampled_auto`]) over the *same* dynamic instruction
//! stream, then tabulates the sampled CPI estimate against the full-run
//! truth: relative error, the sampler's own 95% dispersion bound, the
//! shadow-model fit, interval count, and the fraction of the program that
//! was simulated in detail (100% = the ladder fell back to full detail for
//! that workload).
//!
//! The report string is deterministic (goldens pin it byte-for-byte at tiny
//! and small scale); wall-clock numbers are returned separately so the
//! binary can print the speedup without poisoning the golden.

use crate::{amean, par_map, MAX_CYCLES};
use reno_core::RenoConfig;
use reno_sample::{run_sampled_auto, SampledResult};
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_workloads::{all_workloads, Scale, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// One workload × configuration comparison row.
#[derive(Clone, Debug)]
pub struct SampleComparison {
    /// Workload name.
    pub workload: &'static str,
    /// Full detailed run CPI (ground truth).
    pub full_cpi: f64,
    /// Sampled CPI estimate.
    pub est_cpi: f64,
    /// `|est - full| / full` in percent.
    pub err_pct: f64,
    /// The sampler's own 95% dispersion bound, in percent.
    pub ci95_pct: f64,
    /// Shadow-model R² on the measured windows (`-` when no fit ran).
    pub model_r2: Option<f64>,
    /// Measured steady-state intervals.
    pub intervals: usize,
    /// Percent of the instruction stream simulated in detail.
    pub detailed_pct: f64,
}

impl SampleComparison {
    /// Compares one workload's full and sampled runs.
    ///
    /// # Panics
    ///
    /// Panics if the sampled run's architectural results (checksum, retired
    /// count) diverge from the full run's — sampling must never change
    /// results.
    pub fn new(
        workload: &'static str,
        full: &SimResult,
        sampled: &SampledResult,
    ) -> SampleComparison {
        assert_eq!(
            sampled.checksum, full.checksum,
            "{workload}: sampled run changed architectural results"
        );
        assert_eq!(
            sampled.total_insts, full.retired,
            "{workload}: sampled and full runs covered different streams"
        );
        let full_cpi = full.cycles as f64 / full.retired as f64;
        let est_cpi = sampled.est_cpi();
        SampleComparison {
            workload,
            full_cpi,
            est_cpi,
            err_pct: (est_cpi - full_cpi).abs() / full_cpi * 100.0,
            ci95_pct: sampled.cpi_ci95_rel_pct(),
            model_r2: sampled.model_r2,
            intervals: sampled.intervals.len(),
            detailed_pct: sampled.detailed_fraction() * 100.0,
        }
    }
}

/// Wall-clock cost of the two harness phases (full runs vs sampled runs),
/// reported by the `table_sample` binary alongside the deterministic table.
#[derive(Clone, Copy, Debug)]
pub struct SampleTiming {
    /// Seconds spent in full detailed simulations.
    pub full_secs: f64,
    /// Seconds spent in sampled simulations.
    pub sampled_secs: f64,
}

impl SampleTiming {
    /// Wall-clock speedup of the sampled harness over the full one.
    pub fn speedup(&self) -> f64 {
        if self.sampled_secs == 0.0 {
            0.0
        } else {
            self.full_secs / self.sampled_secs
        }
    }
}

const CONFIGS: [(&str, fn() -> RenoConfig); 2] =
    [("BASE", RenoConfig::baseline), ("RENO", RenoConfig::reno)];

fn panel_str(title: &str, rows: &[SampleComparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== table_sample [{title}]: sampled vs full detailed =="
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "bench", "full_cpi", "est_cpi", "err%", "ci95%", "r2", "ivals", "det%"
    );
    let _ = writeln!(out, "{}", "-".repeat(67));
    for r in rows {
        let r2 = r.model_r2.map_or("-".to_string(), |v| format!("{v:.3}"));
        let _ = writeln!(
            out,
            "{:<10} {:>9.4} {:>9.4} {:>7.2} {:>7.2} {:>6} {:>6} {:>6.1}",
            r.workload,
            r.full_cpi,
            r.est_cpi,
            r.err_pct,
            r.ci95_pct,
            r2,
            r.intervals,
            r.detailed_pct
        );
    }
    let errs: Vec<f64> = rows.iter().map(|r| r.err_pct).collect();
    let max_err = errs.iter().cloned().fold(0.0f64, f64::max);
    let _ = writeln!(out, "{:<10} {:>19} {:>7.2}", "amean", "", amean(&errs));
    let _ = writeln!(out, "{:<10} {:>19} {:>7.2}", "max", "", max_err);
    out
}

/// Builds the deterministic `table_sample` report for `scale`, timing the
/// full-run and sampled-run phases separately. Both phases fan their
/// (workload × configuration) jobs across cores with [`par_map`].
pub fn table_sample(scale: Scale) -> (String, SampleTiming) {
    let workloads = all_workloads(scale);

    let jobs: Vec<(Workload, MachineConfig)> = CONFIGS
        .iter()
        .flat_map(|(_, reno)| {
            workloads
                .iter()
                .map(|w| (w.clone(), MachineConfig::four_wide(reno())))
        })
        .collect();
    let t0 = Instant::now();
    let fulls = par_map(&jobs, |(w, m)| {
        Simulator::new(&w.program, m.clone()).run(MAX_CYCLES)
    });
    let full_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let sampleds = par_map(&jobs, |(w, m)| {
        run_sampled_auto(&w.program, m.clone(), u64::MAX)
    });
    let sampled_secs = t1.elapsed().as_secs_f64();

    let mut out = String::new();
    for (c, (cname, _)) in CONFIGS.iter().enumerate() {
        let rows: Vec<SampleComparison> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let k = c * workloads.len() + i;
                SampleComparison::new(w.name, &fulls[k], &sampleds[k])
            })
            .collect();
        out.push_str(&panel_str(&format!("{cname}, {scale:?}"), &rows));
    }
    (
        out,
        SampleTiming {
            full_secs,
            sampled_secs,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed golden (tiny scale) pins the sampled estimates, the
    /// full-run CPIs, the error columns and the table formatting at once;
    /// CI re-checks the same bytes against the `table_sample` binary (and a
    /// small-scale golden, too slow for an unoptimized unit test).
    #[test]
    fn table_sample_tiny_matches_golden() {
        let (got, _) = table_sample(Scale::Tiny);
        let want = include_str!("../golden/table_sample_tiny.txt");
        assert!(
            got == want,
            "table_sample tiny output drifted from golden/table_sample_tiny.txt;\n\
             regenerate with: RENO_SCALE=tiny cargo run --release -p reno-bench --bin table_sample\n\
             --- got ---\n{got}"
        );
    }
}
