//! The metric tables and the result line.
//!
//! The names, units and directions here are the benchmark's contract with
//! `BENCHMARK.json`; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One reported metric: name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what an architect running the workload sees. They
/// come from untraced runs only.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("sim_minst_per_s", "Minst/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    // CPI accuracy is reported as 100 minus the relative CPI error in
    // percent, so that exact full-detail rows read 100 rather than 0.
    m("cpi_acc_min_pct", "%", Higher),
    m("cpi_acc_mean_pct", "%", Higher),
];

/// Per-layer metrics: derived from the span file of a traced run. A layer
/// that a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.build_s", "s", Lower),
    m("func.run_s", "s", Lower),
    m("func.minst_per_s", "Minst/s", Higher),
    m("sim.run_s", "s", Lower),
    m("sim.ns_per_inst", "ns", Lower),
    m("sim.cycles", "count", Lower),
    m("sim.ipc", "inst/cycle", Higher),
    m("sim.reno_speedup_pct", "%", Higher),
    m("sim.squashed", "count", Lower),
    m("core.elim_pct", "%", Higher),
    m("mem.l1d_misses", "count", Lower),
    m("mem.l2_misses", "count", Lower),
    m("mem.mshr_merges", "count", Higher),
    m("uarch.mispredicts", "count", Lower),
    m("par.workers", "count", Higher),
    m("par.efficiency", "ratio", Higher),
    m("par.scaling", "ratio", Higher),
    m("sample.ladder_s", "s", Lower),
    m("sample.pass_s", "s", Lower),
    m("sample.pass_mb", "MB", Lower),
    m("sample.phase2_s", "s", Lower),
    m("sample.warm_s", "s", Lower),
    m("sample.windows_s", "s", Lower),
    m("sample.fallback_full_s", "s", Lower),
    m("sample.rework_s", "s", Lower),
    m("sample.fallback_ratio_max", "ratio", Lower),
    m("sample.rows_sparse", "count", Higher),
    m("sample.rows_dense", "count", Lower),
    m("sample.rows_full", "count", Lower),
    m("sample.detail_pct", "%", Lower),
    m("sample.windows", "count", Lower),
    m("sample.segment_faults", "count", Lower),
    m("sample.cpi_err_max_pct", "%", Lower),
    m("sample.cpi_err_mean_pct", "%", Lower),
    m("dse.sweep1_s", "s", Lower),
    m("dse.sweep2_s", "s", Lower),
    m("dse.rerun_s", "s", Lower),
    m("dse.store_put_s", "s", Lower),
    m("dse.store_get_s", "s", Lower),
    m("dse.cells", "count", Higher),
    m("dse.computed", "count", Lower),
    m("dse.cached", "count", Higher),
    m("dse.passes_computed", "count", Lower),
    m("dse.passes_cached", "count", Higher),
    m("dse.store_mb", "MB", Lower),
    m("dse.lock_waits", "count", Lower),
    m("dse.failed", "count", Lower),
    m("dse.timeouts", "count", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// Formats a JSON number with every digit Rust's shortest round-trip
/// formatting gives. Non-finite values have no JSON form and are a bug in
/// the caller.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    // An empty f64 sum is -0.0; print it as 0.
    format!("{}", v + 0.0)
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in table order.
///
/// # Panics
///
/// Panics if `values` does not hold exactly one value per metric of `table`
/// (in table order), or a value is not finite.
pub fn result_line(
    table: &[MetricDef],
    values: &[(&'static str, f64)],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    assert_eq!(table.len(), values.len(), "one value per metric");
    let metrics: Vec<String> = table
        .iter()
        .zip(values)
        .map(|(def, (name, v))| {
            assert_eq!(def.name, *name, "values in table order");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_num(*v),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The median of `v` (mean of the middle pair for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_unique_across_both_tables() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }

    #[test]
    fn result_line_shape() {
        let vals = [("setup_s", 0.5), ("wall_s", 1.25)];
        let line = result_line(&END_TO_END[..2], &vals, true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
