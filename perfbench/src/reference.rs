//! The committed reference: per-row `retired`, `checksum` and simulated
//! `cycles` of full detailed runs, and the checks against it.
//!
//! `reference.tsv` is compiled into the binary, so a run can never read a
//! reference from another checkout. Regenerate it with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-reference perfbench/reference.tsv`.

use reno_sample::SampledResult;
use reno_sim::SimResult;

/// The committed reference file.
pub const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// One full-detail reference row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefRow {
    /// Workload scale (`default`).
    pub scale: String,
    /// Machine configuration label (`BASE` or `RENO`, both four-wide).
    pub config: String,
    /// Kernel name.
    pub workload: String,
    /// Retired instructions.
    pub retired: u64,
    /// Architectural output checksum.
    pub checksum: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

impl RefRow {
    /// Cycles per instruction of the full detailed run.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.retired as f64
    }

    /// The row as one TSV line (no newline).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:016x}\t{}",
            self.scale, self.config, self.workload, self.retired, self.checksum, self.cycles
        )
    }
}

/// The parsed reference.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    /// Rows in file order.
    pub rows: Vec<RefRow>,
}

impl Reference {
    /// Parses the TSV format: `#` comment lines, then one row per line:
    /// `scale config workload retired checksum(hex) cycles`.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [scale, config, workload, retired, checksum, cycles] = f.as_slice() else {
                return Err(format!("reference line {}: expected 6 fields", i + 1));
            };
            let num = |s: &str, radix: u32| {
                u64::from_str_radix(s, radix)
                    .map_err(|_| format!("reference line {}: bad number `{s}`", i + 1))
            };
            rows.push(RefRow {
                scale: scale.to_string(),
                config: config.to_string(),
                workload: workload.to_string(),
                retired: num(retired, 10)?,
                checksum: num(checksum, 16)?,
                cycles: num(cycles, 10)?,
            });
        }
        Ok(Reference { rows })
    }

    /// The row for `(scale, config, workload)`.
    pub fn get(&self, scale: &str, config: &str, workload: &str) -> Option<&RefRow> {
        self.rows
            .iter()
            .find(|r| r.scale == scale && r.config == config && r.workload == workload)
    }

    /// Renders the file, header comment included.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Full detailed runs (four-wide machine, run to halt) of the Default\n\
             # kernels x {BASE, RENO}. Regenerate with:\n\
             #   cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-reference perfbench/reference.tsv\n\
             # scale\tconfig\tworkload\tretired\tchecksum\tcycles\n",
        );
        for r in &self.rows {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }
}

/// A full detailed run must match its reference row exactly.
pub fn check_detail(row: &RefRow, r: &SimResult) -> Result<(), String> {
    if !r.halted || r.retired != row.retired || r.checksum != row.checksum || r.cycles != row.cycles
    {
        return Err(format!(
            "{}/{}: got halted={} retired={} checksum={:016x} cycles={}, reference {}",
            row.workload,
            row.config,
            r.halted,
            r.retired,
            r.checksum,
            r.cycles,
            row.to_line()
        ));
    }
    Ok(())
}

/// A sampled run must match its reference row's `checksum` and `retired`
/// and report no fault; returns its CPI error against the row, in percent.
pub fn check_sampled(row: &RefRow, r: &SampledResult) -> Result<f64, String> {
    if !r.halted
        || r.error.is_some()
        || !r.segment_faults.is_empty()
        || r.total_insts != row.retired
        || r.checksum != row.checksum
    {
        return Err(format!(
            "{}/{}: got halted={} error={:?} segment_faults={} insts={} checksum={:016x}, reference {}",
            row.workload,
            row.config,
            r.halted,
            r.error,
            r.segment_faults.len(),
            r.total_insts,
            r.checksum,
            row.to_line()
        ));
    }
    Ok(cpi_err_pct(r.est_cpi(), row.cpi()))
}

/// Relative CPI error in percent.
pub fn cpi_err_pct(est_cpi: f64, ref_cpi: f64) -> f64 {
    (est_cpi - ref_cpi).abs() / ref_cpi * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_reference_parses_and_covers_every_row() {
        let r = Reference::parse(REFERENCE_TSV).expect("committed reference parses");
        let names = reno_workloads::all_workloads(reno_workloads::Scale::Tiny);
        for w in &names {
            for (scale, cfg) in [("default", "BASE"), ("default", "RENO")] {
                assert!(
                    r.get(scale, cfg, w.name).is_some(),
                    "{scale}/{cfg}/{}",
                    w.name
                );
            }
        }
        assert_eq!(r.rows.len(), 2 * names.len());
    }

    #[test]
    fn render_round_trips() {
        let r = Reference::parse(REFERENCE_TSV).unwrap();
        assert_eq!(Reference::parse(&r.render()).unwrap().rows, r.rows);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(Reference::parse("default\tBASE\tmcf\t1\t2\n").is_err());
        assert!(Reference::parse("default\tBASE\tmcf\tx\t2\t3\n").is_err());
    }
}
