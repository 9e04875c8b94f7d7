//! Verifies that the sampling subsystem preserves the simulator's
//! zero-allocation steady state *inside measure intervals* and in the
//! warming fast-forward *between* them.
//!
//! Method: pairs of sampled runs over the same program with the same window
//! count, differing in one length only — the measure interval (4x), or the
//! functional gap between windows (4x). Per-run setup (engine structures,
//! per-window simulator construction, checkpoint buffers) is identical
//! within a pair; if the detailed measure loop or the fast-forward
//! allocated per cycle or per instruction, the longer run would show
//! thousands of extra allocations.

use reno_alloctrack::{allocations, CountingAlloc};
use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sample::{run_sampled, SampleConfig, SampledResult};
use reno_sim::MachineConfig;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The steady-state instruction diet: ALU chains, loads, stores,
/// forwarding, branches.
fn kernel(iters: i64) -> Program {
    let mut a = Asm::named("sampled-steady");
    let buf = a.zeros("buf", 1024);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, iters);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.andi(Reg::T1, Reg::T0, 127);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.st(Reg::V0, Reg::T1, 0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

fn sampled_allocs(p: &Program, sc: &SampleConfig) -> (u64, SampledResult) {
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    let before = allocations();
    let r = run_sampled(p, cfg, sc);
    let after = allocations();
    (after - before, r)
}

fn allocs_during(p: &Program, sc: &SampleConfig) -> u64 {
    let (n, r) = sampled_allocs(p, sc);
    assert!(r.halted);
    assert!(!r.intervals.is_empty(), "the runs must actually measure");
    n
}

#[test]
fn measure_intervals_do_not_allocate() {
    let _turn = serial();
    // ~440k dynamic instructions; same period and window count, intervals
    // 4x longer in the second run. Both interval lengths exceed the
    // per-window warm-up horizon (every freshly-built scheduler structure —
    // wakeup-wheel buckets, waiter lists — reaches its high-water capacity
    // within the first ~512 cycles of a window), so the 4x of extra
    // *measured* execution must add no allocations.
    let p = kernel(40_000);
    let short = SampleConfig::new(512, 2048, 32768).with_head(4096);
    let long = SampleConfig::new(512, 8192, 32768).with_head(4096);
    let a_short = allocs_during(&p, &short);
    let a_long = allocs_during(&p, &long);
    // The long run measures ~80k more instructions (~50k more cycles) in
    // detail. A hot loop that allocated per instruction or per cycle would
    // add tens of thousands of allocations; the only acceptable growth is a
    // handful of amortized capacity doublings for per-window structures
    // whose high-water marks sit just past the short window's horizon.
    assert!(
        a_long.saturating_sub(a_short) <= 512,
        "allocations grew with measure-interval length: \
         short-interval run {a_short}, long-interval run {a_long}"
    );
}

#[test]
fn fast_forward_gaps_do_not_allocate() {
    let _turn = serial();
    // The same 16 windows in both runs — same count and lengths, and the
    // same place in the 8-instruction loop body (jitter off, periods a
    // multiple of the loop) — with the functional gaps between them 4x
    // longer in the second run. The instruction cap fixes the stratum grid
    // at 16 strata, and both periods give the same segmentation (two
    // 8-stratum segments). A fast-forward that allocated per instruction
    // or per block would grow with the ~3M extra instructions it covers;
    // the runs must allocate exactly the same amount. One worker,
    // so that which thread runs which segment (and so which thread-local
    // state each one initializes) cannot differ between the runs.
    std::env::set_var("RENO_THREADS", "1");
    let p = kernel(1 << 40);
    let run = |period: u64| {
        let sc = SampleConfig::new(512, 2048, period)
            .with_head(4096)
            .without_jitter()
            .with_max_insts(4096 + 16 * period);
        let (n, r) = sampled_allocs(&p, &sc);
        assert!(r.error.is_none() && r.segment_faults.is_empty());
        assert_eq!(r.intervals.len(), 16, "every stratum measures one window");
        n
    };
    // A first run pays one-time lazy initialization; measure after it.
    run(1 << 16);
    let short_gaps = run(1 << 16);
    let long_gaps = run(1 << 18);
    std::env::remove_var("RENO_THREADS");
    assert_eq!(
        short_gaps, long_gaps,
        "allocations grew with the fast-forward gap: {short_gaps} vs {long_gaps}"
    );
}
