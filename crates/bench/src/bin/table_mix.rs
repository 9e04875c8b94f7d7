//! §1 / §4.2 text numbers: the dynamic instruction mix.
//!
//! Paper shape: register-immediate additions average ~12% of dynamic
//! instructions in SPECint and ~17% in MediaBench (>=10% in nearly every
//! program); register moves average ~4% and exceed 8% only in outliers
//! (mcf, mesa); loads are a large fraction of SPECint.

use reno_bench::{amean, header, par_map, row, scale_from_env};
use reno_func::{Cpu, DecodedProgram};
use reno_workloads::{media_suite, spec_suite, Workload};

fn panel(suite_name: &str, workloads: &[Workload]) {
    let mixes = par_map(workloads, |w| {
        let mut cpu = Cpu::new(&w.program);
        let dp = DecodedProgram::new(&w.program);
        cpu.run_decoded(&dp, 100_000_000).expect("kernel runs").mix
    });

    println!("\n== Mix [{suite_name}]: % of dynamic instructions ==");
    header(
        "bench",
        &["moves", "reg+imm", "loads", "stores", "branches"],
    );
    let mut cols: [Vec<f64>; 5] = Default::default();
    for (w, m) in workloads.iter().zip(&mixes) {
        let vals = [
            m.move_pct(),
            m.reg_imm_add_pct(),
            m.load_pct(),
            m.pct(m.stores),
            m.pct(m.cond_branches),
        ];
        for (i, v) in vals.iter().enumerate() {
            cols[i].push(*v);
        }
        row(w.name, &vals);
    }
    row(
        "amean",
        &[
            amean(&cols[0]),
            amean(&cols[1]),
            amean(&cols[2]),
            amean(&cols[3]),
            amean(&cols[4]),
        ],
    );
}

fn main() {
    let scale = scale_from_env();
    panel("SPECint", &spec_suite(scale));
    panel("MediaBench", &media_suite(scale));
    println!("\npaper reference: moves ~4% avg; reg-imm adds 12% (SPEC) / 17% (media)");
}
