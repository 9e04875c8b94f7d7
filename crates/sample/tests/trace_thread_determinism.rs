//! The sampled-run trace export's determinism contract: with tracing on,
//! the merged per-window trace — and therefore its exported Chrome JSON —
//! must be byte-identical whether the segment jobs run on one worker or
//! many. The merge rebases each window's trace onto the end of the previous
//! one in segment order, which `par_map` preserves, so `RENO_THREADS` may
//! change wall-clock but never a byte of the export.
//!
//! This file holds exactly one test: it mutates the process-wide
//! `RENO_THREADS` variable, so it must not share a process with tests that
//! read it concurrently (integration-test files run as their own process).

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sample::{run_sampled, SampleConfig};
use reno_sim::MachineConfig;
use reno_trace::{chrome_trace_json, parse_json};

fn kernel(iters: i64, mask: i16) -> Program {
    let mut a = Asm::named("tracedet");
    let buf = a.zeros("buf", 8 * (mask as usize + 1));
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, iters);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.andi(Reg::T1, Reg::T0, mask);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.st(Reg::V0, Reg::T1, 0);
    a.xor(Reg::V0, Reg::V0, Reg::T0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn sampled_trace_export_is_byte_identical_across_thread_counts() {
    let cfg = MachineConfig::four_wide(RenoConfig::reno()).with_trace();
    // Same shape as the result-determinism test: ~1.2M insts over 64k
    // periods = multiple parallel segment jobs, several traced windows.
    let p = kernel(100_000, 255);
    let sc = SampleConfig::new(256, 512, 65536).with_head(2048);

    let mut exports: Vec<String> = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RENO_THREADS", threads);
        let r = run_sampled(&p, cfg.clone(), &sc);
        assert!(!r.intervals.is_empty(), "the run must genuinely sample");
        let t = r.trace.as_ref().expect("tracing was on");
        assert!(t.retire_count() > 0, "windows recorded pipeline events");
        assert!(!t.sys.is_empty(), "windows recorded system-track events");
        exports.push(chrome_trace_json(t));
    }
    std::env::remove_var("RENO_THREADS");

    parse_json(&exports[0]).expect("merged export is valid JSON");
    for (k, e) in exports.iter().enumerate().skip(1) {
        assert_eq!(
            &exports[0], e,
            "sampled trace diverged between RENO_THREADS=1 and setting #{k}"
        );
    }
}
