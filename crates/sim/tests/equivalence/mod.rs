//! Shared harness of the differential suites for the simulator's host-side
//! optimizations (`sched_equivalence.rs`, `feed_equivalence.rs`).
//!
//! The default pipeline schedules through event-driven structures (exec
//! calendar wheel, wakeup wheel, ready list, per-register waiter lists) and
//! is fed a decoded block at a time by `Oracle::refill`.
//! [`Simulator::with_reference_paths`] swaps both for the implementations
//! they replaced: whole-ROB polling select/execute and one `Oracle::next`
//! call per fetched instruction. Every observable of a run must match
//! exactly, so a divergence in either suite can come from either half.
//!
//! A run stopped at its end mark reads `digest`, `checksum` and `halted`
//! from an oracle that the batched feed has run ahead of retirement (see
//! `Simulator::with_measure_window`), so those runs compare counters and
//! marks only ([`assert_counters_equal`]); drained runs compare everything
//! ([`assert_equal`]).

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sim::{MachineConfig, SimResult, Simulator};

/// Builds a random-but-terminating program from a byte recipe. Every byte
/// appends one loop-body instruction chosen from a pool that covers the
/// scheduler's and the feed's interesting paths (ALU chains, multiplies,
/// loads, stores, partial-width overlaps, an aliased pointer store, and
/// skip branches).
pub fn gen_program(body: &[u8], iters: u8) -> Program {
    let mut a = Asm::named("equiv");
    let buf = a.zeros("buf", 512);
    // `ptr` holds the address of buf[64..], creating a name-invisible alias.
    let ptr = a.words("ptr", &[buf + 64]);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, ptr as i64);
    a.li(Reg::T0, i64::from(iters % 24) + 2);
    a.li(Reg::T1, 0x1234_5678);
    a.li(Reg::T2, 7);
    a.li(Reg::T3, 3);
    a.label("loop");
    for (i, &b) in body.iter().enumerate() {
        let disp = i16::from(b >> 4) * 8; // 0..=120, 8-aligned inside buf
        match b % 13 {
            0 => {
                a.add(Reg::T1, Reg::T1, Reg::T2);
            }
            1 => {
                a.addi(Reg::T2, Reg::T2, i16::from(b) - 128);
            }
            2 => {
                a.mul(Reg::T3, Reg::T3, Reg::T2);
            }
            3 => {
                a.slli(Reg::T2, Reg::T1, i16::from(b % 5));
            }
            4 => {
                a.mov(Reg::T4, Reg::T1);
            }
            5 => {
                a.ld(Reg::T5, Reg::S0, disp);
                a.add(Reg::T1, Reg::T1, Reg::T5);
            }
            6 => {
                a.st(Reg::T1, Reg::S0, disp);
            }
            7 => {
                // Partial-width overlap: a narrow store under a wide load.
                a.sth(Reg::T2, Reg::S0, disp + 2);
                a.ld(Reg::T6, Reg::S0, disp);
                a.add(Reg::T1, Reg::T1, Reg::T6);
            }
            8 => {
                // Aliased store through a loaded pointer (IT cannot see it),
                // then a reload: provokes misintegrations and violations —
                // squash replays that re-read the prefilled rings.
                a.ld(Reg::T4, Reg::S1, 0);
                a.st(Reg::T2, Reg::T4, 0);
                a.ld(Reg::T5, Reg::S0, 64);
                a.add(Reg::T1, Reg::T1, Reg::T5);
            }
            9 => {
                // Data-dependent skip branch (LCG parity: mispredicts).
                let skip = format!("sk{i}");
                a.andi(Reg::T6, Reg::T1, 1);
                a.beqz(Reg::T6, &skip);
                a.addi(Reg::T1, Reg::T1, 13);
                a.label(&skip);
            }
            10 => {
                a.ldbu(Reg::T5, Reg::S0, disp + 1);
                a.add(Reg::T3, Reg::T3, Reg::T5);
            }
            11 => {
                a.stb(Reg::T3, Reg::S0, disp + 5);
            }
            _ => {
                a.xor(Reg::T1, Reg::T1, Reg::T3);
            }
        }
    }
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::T1);
    a.out(Reg::T3);
    a.halt();
    a.assemble().expect("generated program assembles")
}

/// The byte recipe of the directed program: one byte of every residue, so
/// the program hits every instruction class of [`gen_program`].
pub fn all_classes_body() -> Vec<u8> {
    (0u8..=255).step_by(3).collect()
}

/// Runs `sim` on the default pipeline and on the reference paths.
pub fn both<'p>(sim: impl Fn() -> Simulator<'p>, max_cycles: u64) -> (SimResult, SimResult) {
    let fast = sim().run(max_cycles);
    let reference = sim().with_reference_paths().run(max_cycles);
    (fast, reference)
}

/// Every counter and mark agrees.
pub fn assert_counters_equal(fast: &SimResult, reference: &SimResult, what: &str) {
    assert_eq!(fast.cycles, reference.cycles, "cycles [{what}]");
    assert_eq!(fast.retired, reference.retired, "retired [{what}]");
    assert_eq!(fast.stats, reference.stats, "SimStats [{what}]");
    assert_eq!(fast.reno, reference.reno, "RenoStats [{what}]");
    assert_eq!(fast.it, reference.it, "ItStats [{what}]");
    assert_eq!(fast.frontend, reference.frontend, "FrontEndStats [{what}]");
    assert_eq!(fast.caches, reference.caches, "CacheStats [{what}]");
    assert_eq!(fast.hier, reference.hier, "HierarchyStats [{what}]");
    assert_eq!(fast.mark_start, reference.mark_start, "mark_start [{what}]");
    assert_eq!(fast.mark_end, reference.mark_end, "mark_end [{what}]");
}

/// A drained run (halt or fuel exhausted) also agrees on the program's
/// final state.
pub fn assert_equal(fast: &SimResult, reference: &SimResult, what: &str) {
    assert_counters_equal(fast, reference, what);
    assert_eq!(fast.checksum, reference.checksum, "checksum [{what}]");
    assert_eq!(fast.digest, reference.digest, "digest [{what}]");
    assert_eq!(fast.halted, reference.halted, "halted [{what}]");
}

/// The four machine shapes every random and directed program runs under.
pub fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("4w-base", MachineConfig::four_wide(RenoConfig::baseline())),
        ("4w-reno", MachineConfig::four_wide(RenoConfig::reno())),
        (
            "6w-reno-fi",
            MachineConfig::six_wide(RenoConfig::reno_full_integration()),
        ),
        (
            "4w-reno-2c-p64",
            MachineConfig::four_wide(RenoConfig::reno())
                .with_sched_loop(2)
                .with_pregs(64),
        ),
    ]
}

/// The two four-wide machines every Tiny workload runs under.
pub fn base_and_reno() -> [(&'static str, MachineConfig); 2] {
    [
        ("BASE", MachineConfig::four_wide(RenoConfig::baseline())),
        ("RENO", MachineConfig::four_wide(RenoConfig::reno())),
    ]
}
