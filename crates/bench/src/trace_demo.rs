//! The built-in demo kernel behind the `trace_dump` binary, and its
//! deterministic Chrome-trace export.
//!
//! The kernel is tiny (a few hundred dynamic instructions) but crosses
//! every event class the pipeline trace records: RENO move elimination,
//! constant folding, load/ALU CSE, partial-width store-to-load forwarding,
//! data-dependent mispredicted branches, an aliased pointer store that
//! provokes memory-order squashes, and misintegration re-execution. The
//! JSON export is byte-deterministic, so `golden/trace_dump_tiny.json`
//! pins it exactly; drift means the trace semantics changed and the golden
//! must be regenerated deliberately (`cargo run -p reno-bench --bin
//! trace_dump > crates/bench/golden/trace_dump_tiny.json`).

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sample::{run_sampled, SampleConfig, SampledResult};
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_trace::chrome_trace_json;

/// Assembles the demo kernel with a caller-chosen trip count. Six trips
/// is the `trace_dump` demo; the sampled demo runs the same kernel long
/// enough for several detailed windows.
pub fn demo_kernel(trips: i64) -> Program {
    let mut a = Asm::named("trace-demo");
    let buf = a.zeros("buf", 512);
    let ptr = a.words("ptr", &[buf + 64]);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, ptr as i64);
    a.li(Reg::T0, trips);
    a.li(Reg::T1, 0x1234_5678);
    a.li(Reg::T2, 7);
    a.li(Reg::T3, 3);
    a.label("loop");
    // Constant folds + move elimination fodder.
    a.addi(Reg::T2, Reg::T2, 5);
    a.mov(Reg::T4, Reg::T1);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.mov(Reg::T5, Reg::T2);
    // Load CSE: back-to-back loads of the same address.
    a.ld(Reg::T6, Reg::S0, 8);
    a.ld(Reg::A0, Reg::S0, 8);
    a.add(Reg::T1, Reg::T1, Reg::A0);
    // Partial-width store then full-width load: forwarding + misintegration.
    a.sth(Reg::T2, Reg::S0, 18);
    a.ld(Reg::A1, Reg::S0, 16);
    a.add(Reg::T1, Reg::T1, Reg::A1);
    // Aliased pointer store: the store address arrives late, younger loads
    // speculate past it -> memory-order squash.
    a.ld(Reg::A2, Reg::S1, 0);
    a.st(Reg::T2, Reg::A2, 0);
    a.ld(Reg::A3, Reg::S0, 64);
    a.add(Reg::T3, Reg::T3, Reg::A3);
    // Data-dependent branch: mispredicts on the LCG-ish parity of T1.
    a.andi(Reg::A4, Reg::T1, 1);
    a.beqz(Reg::A4, "even");
    a.addi(Reg::T3, Reg::T3, 13);
    a.mul(Reg::T3, Reg::T3, Reg::T2);
    a.label("even");
    // ALU CSE: recompute an expression just computed.
    a.add(Reg::A5, Reg::T1, Reg::T2);
    a.add(Reg::T6, Reg::T1, Reg::T2);
    a.xor(Reg::T1, Reg::T1, Reg::A5);
    a.st(Reg::T1, Reg::S0, 32);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::T1);
    a.out(Reg::T3);
    a.halt();
    a.assemble().expect("demo kernel assembles")
}

/// Assembles the six-trip demo kernel behind the `trace_dump` golden.
pub fn demo_program() -> Program {
    demo_kernel(6)
}

/// Runs the demo kernel on the 4-wide full-RENO machine with tracing on.
pub fn demo_run() -> SimResult {
    let cfg = MachineConfig::four_wide(RenoConfig::reno()).with_trace();
    Simulator::new(&demo_program(), cfg).run(1 << 20)
}

/// The deterministic Chrome trace-event JSON for the demo run.
pub fn demo_json() -> String {
    let r = demo_run();
    chrome_trace_json(r.trace.as_ref().expect("tracing was enabled"))
}

/// Runs a longer demo kernel under the sampled engine with tracing on:
/// a detailed head stratum plus a few periodic detailed windows, each
/// captured and merged (rebased end to end, segment order) into one trace.
/// `golden/trace_sampled_tiny.json` pins the export, and CI regenerates it
/// under `RENO_THREADS=2` as well — the committed bytes double as the
/// thread-invariance check for the sampled-trace merge path.
pub fn sampled_demo_run() -> SampledResult {
    let cfg = MachineConfig::four_wide(RenoConfig::reno()).with_trace();
    // ~1.6k dynamic instructions; head 64, then a (16 warmup + 32 measured)
    // window every 256 instructions, capped at 3 periodic windows so the
    // golden stays reviewably small.
    let sc = SampleConfig::new(16, 32, 256)
        .with_head(64)
        .with_max_intervals(3);
    run_sampled(&demo_kernel(64), cfg, &sc)
}

/// The deterministic Chrome trace-event JSON for the sampled demo run.
pub fn sampled_demo_json() -> String {
    let r = sampled_demo_run();
    chrome_trace_json(r.trace.as_ref().expect("tracing was enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_trace::parse_json;

    /// The committed golden pins the whole observability path end to end:
    /// kernel semantics, pipeline timing, trace hook placement, and the
    /// JSON writer. CI diffs the `trace_dump` output against the same file.
    #[test]
    fn trace_dump_matches_golden() {
        let got = demo_json();
        let want = include_str!("../golden/trace_dump_tiny.json");
        assert!(
            got == want,
            "trace_dump output drifted from golden/trace_dump_tiny.json;\n\
             if the change is intentional, regenerate with\n\
             cargo run -p reno-bench --bin trace_dump > crates/bench/golden/trace_dump_tiny.json"
        );
    }

    /// Pins the sampled-run trace export: window capture, segment-ordered
    /// merge, cycle rebase, and the JSON writer. CI regenerates this dump
    /// at the default worker count *and* under `RENO_THREADS=2` and diffs
    /// both against the same file, so the committed bytes also certify the
    /// merge's thread invariance.
    #[test]
    fn sampled_trace_dump_matches_golden() {
        let got = sampled_demo_json();
        let want = include_str!("../golden/trace_sampled_tiny.json");
        assert!(
            got == want,
            "sampled trace_dump output drifted from golden/trace_sampled_tiny.json;\n\
             if the change is intentional, regenerate with\n\
             cargo run -p reno-bench --bin trace_dump -- --sampled \
             > crates/bench/golden/trace_sampled_tiny.json"
        );
    }

    #[test]
    fn sampled_demo_merges_several_windows() {
        let r = sampled_demo_run();
        assert!(
            r.intervals.len() >= 3,
            "head + periodic windows expected, got {}",
            r.intervals.len()
        );
        let t = r.trace.as_ref().expect("tracing was enabled");
        assert!(t.retire_count() > 100, "windows recorded pipeline events");
        assert!(!t.sys.is_empty(), "windows recorded system-track events");
        let json = sampled_demo_json();
        parse_json(&json).expect("valid Chrome trace JSON");
        let report = crate::trace_stats::analyze(&json).expect("analyzable");
        assert!(report.contains("## per-window table"));
    }

    #[test]
    fn demo_run_crosses_every_event_class() {
        let r = demo_run();
        let json = demo_json();
        parse_json(&json).expect("valid Chrome trace JSON");
        assert!(r.retired > 100, "demo retires a few hundred instructions");
        assert!(r.reno.moves > 0, "move elimination exercised");
        assert!(r.reno.const_folds > 0, "constant folding exercised");
        assert!(r.stats.squashed > 0, "squashes exercised");
        assert_eq!(
            json.matches("\"end\":\"retire\"").count() as u64,
            r.retired,
            "one retired span per retired instruction"
        );
        assert!(json.contains("\"name\":\"IPC\""));
        assert!(json.contains("\"name\":\"ROB occupancy\""));
        // The memory and predictor tracks added for the full-stack trace.
        assert!(json.contains("\"name\":\"L1D miss\""), "memory instants");
        assert!(json.contains("\"name\":\"MSHR alloc\""), "MSHR lifecycle");
        assert!(json.contains("\"name\":\"MSHR occupancy\""), "MSHR counter");
        assert!(
            json.contains("\"name\":\"L1I activity\""),
            "activity counters"
        );
        assert!(
            json.contains("\"name\":\"mispredict:cond\""),
            "predictor instants"
        );
    }
}
