//! The `reno-fuzz` binary: runs one surface of [`reno_fuzz::SURFACES`].
//!
//! ```text
//! RENO_FUZZ_SEED=1 RENO_FUZZ_ITERS=100000 cargo run --release -p reno-fuzz -- <surface>
//! ```
//!
//! Prints one summary line and exits 1 if any input broke the surface's
//! contract. A missing or unknown surface exits 2 and lists the valid
//! names. See the `reno-fuzz` crate docs for each surface's contract.

use reno_fuzz::{iters_from_env, seed_from_env, SURFACES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let surface = match args.as_slice() {
        [name] => SURFACES.iter().find(|(n, _)| n == name),
        _ => None,
    };
    let Some(&(name, run)) = surface else {
        let names: Vec<&str> = SURFACES.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: reno-fuzz <surface>, where <surface> is one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let seed = seed_from_env();
    let iters = iters_from_env();
    // Keep expected panics (if the contract is broken) from spamming the
    // log: the report prints one reproduction line per violation instead.
    std::panic::set_hook(Box::new(|_| {}));
    let report = run(seed, iters);
    let _ = std::panic::take_hook();
    println!(
        "fuzz_{name}: seed={seed} iters={iters} accepted={} rejected={} violations={}",
        report.accepted, report.rejected, report.failure_count
    );
    for f in &report.failures {
        eprintln!("VIOLATION: {f}");
    }
    if !report.clean() {
        std::process::exit(1);
    }
}
