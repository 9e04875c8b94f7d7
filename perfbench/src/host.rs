//! What a run records about its host and build, so that two sets of runs
//! that disagree can be traced to the host or to the program.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Peak resident memory of this process so far (`VmHWM`), in MB (2^20
/// bytes); 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words in each probe thread's table: 1 MB, more than the first-level
/// cache and about half of the second.
const PROBE_TABLE_WORDS: usize = (1 << 20) / 8;

/// Steps of one probe loop: 50–70 ms on the 2-vCPU VM of the baseline.
const PROBE_STEPS: u64 = 2_500_000;

/// A probe thread's table of pseudo-random words (xorshift from `seed`).
fn probe_table(seed: u64) -> Vec<u64> {
    let mut x = 0x243f_6a88_85a3_08d3u64 ^ seed;
    (0..PROBE_TABLE_WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Milliseconds for a fixed loop that calls no repository code and is
/// shaped like an interpreter: each step loads a word at a data-dependent
/// index and dispatches on its low bits. A simulator's hot loop has that
/// shape, so contention for the core's caches and branch predictors slows
/// this loop much as it slows the simulator; a plain arithmetic chain
/// barely notices it.
fn probe_loop_ms(table: &[u64]) -> f64 {
    let mask = table.len() - 1;
    let t = Instant::now();
    let mut idx = black_box(0usize);
    let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
    for i in 0..black_box(PROBE_STEPS) {
        let v = table[idx & mask];
        match v & 7 {
            0 => a = a.wrapping_add(v),
            1 => b ^= v.rotate_left(13),
            2 => c = c.wrapping_mul(v | 1),
            3 => a = a.wrapping_sub(b),
            4 => b = b.wrapping_add(c >> 3),
            5 => c ^= a,
            6 => a = a.rotate_right(5) ^ v,
            _ => b = b.wrapping_add(i),
        }
        idx = (idx ^ (v >> 17) as usize).wrapping_add((a ^ b ^ c) as usize & 0xff);
    }
    black_box(a ^ b ^ c);
    t.elapsed().as_secs_f64() * 1e3
}

/// Host-speed probe: the probe loop on `threads` threads at once, each over
/// its own table, median of three. A slower or busier host reads higher.
/// It runs on as many threads as the workloads do, so that contention on
/// any core they use shows in it, and combines the threads' times as their
/// harmonic mean (the time per loop of their summed throughput): a pool
/// that hands out work dynamically loses to one slow core only that core's
/// share. The tables are freed on return, so the probe holds its 1 MB per
/// thread only between passes, when the workload's own memory is freed.
pub fn host_probe_ms(threads: usize) -> f64 {
    let tables: Vec<Vec<u64>> = (0..threads.max(1) as u64).map(probe_table).collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = tables
                    .iter()
                    .map(|t| s.spawn(move || probe_loop_ms(t)))
                    .collect();
                let rate: f64 = handles
                    .into_iter()
                    .map(|h| 1.0 / h.join().expect("the probe loop cannot panic"))
                    .sum();
                tables.len() as f64 / rate
            })
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// `git rev-parse HEAD` in `root`, or `None` where `root` is not the top of
/// a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the sources the benchmark builds from (every `.rs`,
/// `.toml`, `.lock` and `.tsv` file under `crates/`, `src/`, `vendor/` and
/// `perfbench/`, plus the root manifests), visited in sorted path order.
/// Identifies the program where no git revision exists.
pub fn src_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock" || x == "tsv")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src", "vendor", "perfbench"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&[0u8]).chain(&body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The compiler that built this binary (`rustc -V`, captured at build time).
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// The cargo profile this binary was built with, plus the profile settings
/// `perfbench/Cargo.toml` declares.
pub const PROFILE: &str = concat!(env!("PERFBENCH_PROFILE"), " lto=fat codegen-units=1");

/// Logical cores the host exposes.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
