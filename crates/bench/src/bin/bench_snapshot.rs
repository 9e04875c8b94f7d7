//! Records a simulator-throughput snapshot into `BENCH_sim.json`.
//!
//! Measures *simulated cycles per host second* for the baseline, CF+ME and
//! full-RENO configurations over one SPEC-like and one media-like kernel,
//! and appends one labelled entry to the repo-root `BENCH_sim.json` (or to
//! the file `RENO_BENCH_PATH` names, the one `bench_report` then reads) so
//! the perf trajectory across PRs is recorded in-tree. Each entry also records
//! its run metadata — workload scale, worker-thread setting, the host's
//! core count, whether the measurement ran the full detailed simulator or
//! the `reno-sample` sampled pipeline, the rustc version, the git revision,
//! and a unix timestamp — plus the plain functional engine's
//! instructions-per-second (`func_insts_per_sec`, the predecoded-block
//! interpreter that floors every fast-forward), so trajectories stay
//! comparable across PRs and hosts.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p reno-bench --bin bench_snapshot -- <label> [full|sampled]
//! ```
//!
//! In `sampled` mode the throughput numerator is the sampled run's
//! *estimated* whole-run cycles (its denominator is the wall clock of the
//! whole sampled pipeline: fast-forward, checkpoints, and detailed
//! windows), so full and sampled entries share a unit.
//!
//! ## Noise hardening
//!
//! The shared hosts these snapshots run on swing ~2x between measurement
//! windows, which historically made cross-PR comparisons of single
//! measurements meaningless (the `pre-parallel-pr4` vs `parallel-pr4`
//! "full" rows differ ~1.8x on identical simulator code). Two defenses:
//!
//! * repetitions are **interleaved across configurations** (round-robin:
//!   functional, baseline, cf_me, reno, repeat), so a slow host window
//!   degrades every configuration of an entry about equally instead of
//!   falling entirely on whichever config ran during it;
//! * each recorded number is the **median of 5** repetitions (robust to a
//!   single stalled rep in either direction); the per-config **best** rep
//!   is recorded alongside (`*_cycles_per_sec_best`) as the quiet-window
//!   estimate.
//!
//! The label defaults to `snapshot`. Entries are stored one per line so that
//! appends never need a JSON parser; the file as a whole stays valid JSON.

use reno_bench::report::bench_path;
use reno_bench::{run, thread_count, FUEL};
use reno_core::RenoConfig;
use reno_func::{Cpu, DecodedProgram};
use reno_sample::run_sampled_auto;
use reno_sim::MachineConfig;
use reno_workloads::{media_suite, spec_suite, Scale, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Timed repetitions per configuration, interleaved round-robin; the
/// recorded value is the median, with the best kept as the quiet-window
/// estimate.
const REPS: usize = 5;

fn workloads() -> Vec<Workload> {
    // One pointer-chasing SPEC-like kernel and one MAC-loop media-like
    // kernel: together they exercise the load/store queues, the branch
    // machinery and the RENO renamer without making the snapshot slow.
    let spec = spec_suite(Scale::Default).swap_remove(0); // gzip.c
    let media = media_suite(Scale::Default).swap_remove(2); // gsm.en
    vec![spec, media]
}

/// One timed repetition of the plain functional engine (predecoded basic
/// blocks, no warming, no oracle records): instructions per host second —
/// the speed floor under every fast-forward in a sampled run.
fn functional_rep(ws: &[Workload]) -> f64 {
    let start = Instant::now();
    let mut insts = 0u64;
    for w in ws {
        let mut cpu = Cpu::new(&w.program);
        let mut dp = DecodedProgram::new(&w.program);
        let r = cpu.run_decoded(&mut dp, FUEL);
        insts += match r {
            Ok(r) => r.executed,
            Err(_) => cpu.executed(),
        };
    }
    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        insts as f64 / secs
    } else {
        0.0
    }
}

/// One timed repetition of `cfg`: (simulated cycles, cycles per host second).
fn throughput_rep(ws: &[Workload], cfg: RenoConfig, sampled: bool) -> (u64, f64) {
    let start = Instant::now();
    let mut total_cycles = 0u64;
    for w in ws {
        total_cycles += if sampled {
            run_sampled_auto(&w.program, MachineConfig::four_wide(cfg), FUEL).est_cycles()
        } else {
            run(w, MachineConfig::four_wide(cfg)).cycles
        };
    }
    let secs = start.elapsed().as_secs_f64();
    let cps = if secs > 0.0 {
        total_cycles as f64 / secs
    } else {
        0.0
    };
    (total_cycles, cps)
}

/// Median of a small sample (sorts a copy).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// First line of a command's stdout, or `unknown` (keeps the snapshot
/// usable on hosts without the tool on PATH).
fn probe_cmd(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let label: String = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "snapshot".to_string())
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        .collect();
    let label = if label.is_empty() {
        "snapshot".to_string()
    } else {
        label
    };
    let sampled = match std::env::args().nth(2).as_deref() {
        None | Some("full") => false,
        Some("sampled") => true,
        Some(other) => {
            eprintln!("unknown mode '{other}' (expected 'full' or 'sampled')");
            std::process::exit(2);
        }
    };
    let mode = if sampled { "sampled" } else { "full" };
    let ws = workloads();
    let configs = [
        ("baseline", RenoConfig::baseline()),
        ("cf_me", RenoConfig::cf_me()),
        ("reno", RenoConfig::reno()),
    ];
    println!(
        "bench_snapshot: {} workloads, fuel {FUEL}, mode {mode}, {REPS} interleaved reps (median kept)",
        ws.len()
    );

    // Interleave the repetitions round-robin across every measured target so
    // a noisy host window hits all configurations roughly equally.
    let mut func_reps = Vec::with_capacity(REPS);
    let mut cfg_reps: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut cycles = [0u64; 3];
    for rep in 0..REPS {
        func_reps.push(functional_rep(&ws));
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let (c, cps) = throughput_rep(&ws, *cfg, sampled);
            cycles[i] = c;
            cfg_reps[i].push(cps);
        }
        println!(
            "  rep {}/{REPS}: func {:>13.0} inst/s, reno {:>12.0} cyc/s",
            rep + 1,
            func_reps[rep],
            cfg_reps[2][rep]
        );
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = probe_cmd("rustc", &["--version"]);
    let git_rev = probe_cmd("git", &["rev-parse", "--short", "HEAD"]);
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let func_ips = median(&func_reps);
    println!("  functional {func_ips:>14.0} inst/s median (predecoded-block engine)");
    let mut entry = format!(
        "{{\"label\":\"{label}\",\"scale\":\"default\",\"threads\":{},\"host_cores\":{host_cores},\"mode\":\"{mode}\",\"rustc\":\"{rustc}\",\"git_rev\":\"{git_rev}\",\"timestamp_unix\":{timestamp},\"reps\":{REPS},\"func_insts_per_sec\":{func_ips:.0}",
        thread_count()
    );
    for (i, (name, _)) in configs.iter().enumerate() {
        let med = median(&cfg_reps[i]);
        let top = best(&cfg_reps[i]);
        println!(
            "  {name:<10} {:>12} sim cycles  {med:>14.0} sim cycles/s median  {top:>14.0} best",
            cycles[i]
        );
        let _ = write!(
            entry,
            ",\"{name}_cycles_per_sec\":{med:.0},\"{name}_cycles_per_sec_best\":{top:.0}"
        );
    }
    entry.push('}');

    // `BENCH_sim.json` keeps one entry object per line between the header
    // and footer lines, so appending is a text operation.
    let path = bench_path();
    let mut entries: Vec<String> = Vec::new();
    if let Ok(old) = std::fs::read_to_string(&path) {
        entries.extend(
            old.lines()
                .map(str::trim_end)
                .filter(|l| l.starts_with("{\"label\""))
                .map(|l| l.trim_end_matches(',').to_string()),
        );
    }
    entries.push(entry);
    let mut out = String::from(
        "{\"schema\":\"reno-bench-snapshot-v1\",\n\"unit\":\"simulated_cycles_per_host_second\",\n\"entries\":[\n",
    );
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "{e}{sep}");
    }
    out.push_str("]}\n");
    let shown = path.display();
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("write {shown}: {e}"));
    println!("recorded entry '{label}' in {shown}");
}
