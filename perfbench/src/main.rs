//! The benchmark command.
//!
//! ```text
//! perfbench --workload <detail_default|ladder_default|dse_sweep> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen-reference <path>
//! ```
//!
//! Run from the checkout root. The last line of standard output is the
//! result object; the line before it (`# meta ...`) records the host and
//! build facts of the run.

use reno_par::par_map;
use reno_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use reno_perfbench::reference::{RefRow, Reference};
use reno_perfbench::run::{run, Args, Kind, DETAIL_CONFIGS, WORKERS};
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::{all_workloads, Scale};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <detail_default|ladder_default|dse_sweep> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --regen-reference <path>"
    );
    ExitCode::from(2)
}

/// Recomputes the committed reference: full detailed runs of the Default
/// kernels x {BASE, RENO}.
fn regen_reference(path: &str) -> ExitCode {
    std::env::set_var("RENO_THREADS", WORKERS.to_string());
    let programs = all_workloads(Scale::Default);
    let jobs: Vec<_> = DETAIL_CONFIGS
        .iter()
        .flat_map(|&(label, reno)| {
            programs
                .iter()
                .map(move |w| (label, w, MachineConfig::four_wide(reno())))
        })
        .collect();
    let rows = par_map(&jobs, |(label, w, cfg)| {
        let r = Simulator::new(&w.program, cfg.clone()).run(1 << 40);
        assert!(r.halted, "{}/{label} did not halt", w.name);
        RefRow {
            scale: "default".to_string(),
            config: label.to_string(),
            workload: w.name.to_string(),
            retired: r.retired,
            checksum: r.checksum,
            cycles: r.cycles,
        }
    });
    match std::fs::write(path, Reference { rows }.render()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => usage(&format!("write {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == "--regen-reference" {
            return regen_reference(path);
        }
    }
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Kind::parse(value) {
                Some(k) => kind = Some(k),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("--trace takes 0 or 1, got `{value}`")),
            },
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return usage(&format!("current directory: {e}")),
    };
    let out = run(&Args {
        kind,
        seed,
        seconds,
        trace,
        root,
    });
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {f}");
    }
    let meta: Vec<String> = out
        .meta
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    println!("# meta {{{}}}", meta.join(", "));
    let table = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(
            table,
            &out.values,
            out.correct(),
            out.attempted,
            out.failures.len() as u64
        )
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
