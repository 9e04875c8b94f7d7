//! Fault injection around the helper thread. At `RENO_THREADS=2` the
//! sampling ladder borrows a helper to simulate the head window while the
//! length probe runs, and the first rung takes that head where it would
//! have simulated it, after the same `sample:measure-window` failpoint; at
//! `RENO_THREADS=1` everything runs on the caller's thread. Faults at the
//! per-window sites must fire at the same ordinals either way, retry or
//! fall back exactly as they do inline, and produce the same bytes, segment
//! faults and recoveries included. The explicit (single-rung) run is
//! checked too: it must not depend on the thread count at all.
//!
//! The chaos arming state and `RENO_THREADS` are process-global, so this
//! file holds a single test.

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sample::{
    run_sampled, run_sampled_auto, SampleConfig, SampledResult, FP_MEASURE_WINDOW, FP_WARM_REPLAY,
};
use reno_sim::MachineConfig;

fn kernel(iters: i64, mask: i16) -> Program {
    let mut a = Asm::named("helper-faults");
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
    a.assemble().expect("kernel assembles")
}

#[test]
fn faults_with_a_head_simulated_ahead_give_the_inline_bytes() {
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    // ~270k instructions: one 32-period segment at a 16k period, and
    // single-segment rungs on the ladder, so no rung runs in a pool.
    let program = kernel(30_000, 255);
    let sc = SampleConfig::new(256, 512, 16384).with_head(2048);
    let specs = [
        None,
        Some(format!("{FP_WARM_REPLAY}:3:panic")),
        Some(format!("{FP_WARM_REPLAY}:3+:panic")),
        Some(format!("{FP_MEASURE_WINDOW}:1:panic")),
        Some(format!("{FP_MEASURE_WINDOW}:5+:panic")),
    ];
    let before = std::env::var_os("RENO_THREADS");
    for spec in &specs {
        let mut runs: Vec<(SampledResult, SampledResult)> = Vec::new();
        for threads in ["1", "2"] {
            std::env::set_var("RENO_THREADS", threads);
            let run = |f: &dyn Fn() -> SampledResult| {
                if let Some(spec) = spec {
                    reno_chaos::arm(spec).expect("valid spec");
                }
                let r = f();
                reno_chaos::disarm();
                r
            };
            let explicit = run(&|| run_sampled(&program, cfg.clone(), &sc));
            let ladder = run(&|| run_sampled_auto(&program, cfg.clone(), u64::MAX));
            runs.push((explicit, ladder));
        }
        let (inline, helped) = (&runs[0], &runs[1]);
        match spec {
            None => assert!(!inline.0.intervals.is_empty(), "the healthy run samples"),
            Some(_) => assert!(!inline.0.segment_faults.is_empty(), "{spec:?} fired"),
        }
        assert_eq!(
            format!("{:?}", inline.0),
            format!("{:?}", helped.0),
            "{spec:?}"
        );
        assert_eq!(
            format!("{:?}", inline.1),
            format!("{:?}", helped.1),
            "{spec:?}"
        );
    }
    match before {
        Some(v) => std::env::set_var("RENO_THREADS", v),
        None => std::env::remove_var("RENO_THREADS"),
    }
}
