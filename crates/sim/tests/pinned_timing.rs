//! Pinned cycle counts for representative kernels.
//!
//! The event-driven scheduler work (and any future host-side optimization)
//! must not move timing by even one cycle: "RENO changes timing, never
//! results" extends to "host optimization changes nothing at all". These
//! tests pin exact `(cycles, retired)` pairs for four kernels under the
//! baseline and full-RENO configurations, on the default pipeline and on
//! the reference scheduler and feed; any accidental timing drift fails
//! loudly and prints the full observed table for comparison.
//!
//! If a *deliberate* timing-model change lands (a new latency, a different
//! structural hazard), re-pin by running with `RENO_PRINT_PINS=1`:
//!
//! ```text
//! RENO_PRINT_PINS=1 cargo test -p reno-sim --test pinned_timing -- --nocapture
//! ```

use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sim::{MachineConfig, Simulator};

/// Fold-heavy dependent loop: RENO_CF's bread and butter.
fn fold_loop() -> Program {
    let mut a = Asm::named("fold");
    a.li(Reg::T0, 3000);
    a.li(Reg::T1, 0);
    a.label("loop");
    a.add(Reg::T1, Reg::T1, Reg::T0);
    a.addi(Reg::T1, Reg::T1, 5);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::T1);
    a.halt();
    a.assemble().unwrap()
}

/// Store-forwarding kernel: full-width forwards plus a partial-width
/// (store-smaller-than-load) replay every iteration.
fn forward_kernel() -> Program {
    let mut a = Asm::named("fwd");
    let buf = a.zeros("buf", 256);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 1500);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.st(Reg::T0, Reg::S0, 0);
    a.ld(Reg::T1, Reg::S0, 0); // full forward
    a.sth(Reg::T0, Reg::S0, 10); // narrow store...
    a.ld(Reg::T2, Reg::S0, 8); // ...partially under a wide load: replay
    a.add(Reg::V0, Reg::V0, Reg::T1);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

/// The mispredict storm from `tests/recovery.rs`: LCG-driven branches the
/// predictor cannot learn, interleaved with memory traffic.
fn storm_kernel() -> Program {
    let mut a = Asm::named("storm");
    let buf = a.zeros("buf", 64 * 8);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 400);
    a.li(Reg::T1, 88172645);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.li(Reg::T2, 25214903 % 30000);
    a.mul(Reg::T1, Reg::T1, Reg::T2);
    a.addi(Reg::T1, Reg::T1, 11);
    a.srli(Reg::T3, Reg::T1, 19);
    a.andi(Reg::T3, Reg::T3, 1);
    a.beqz(Reg::T3, "even");
    a.addi(Reg::V0, Reg::V0, 3);
    a.st(Reg::V0, Reg::S0, 8);
    a.br("join");
    a.label("even");
    a.addi(Reg::V0, Reg::V0, 7);
    a.ld(Reg::T4, Reg::S0, 8);
    a.add(Reg::V0, Reg::V0, Reg::T4);
    a.label("join");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

/// Pointer-chasing loads with an L2-and-beyond working set: exercises the
/// memory hierarchy's miss timing, MSHR merging, and the far-wakeup path.
fn chase_kernel() -> Program {
    let mut a = Asm::named("chase");
    // A 64KB ring of pointers, each pointing 4099*8 bytes ahead (mod size).
    let n = 8192usize;
    let mut ws = vec![0u64; n];
    let base = 0x0001_0000u64; // data segment base (see reno-isa docs)
    for i in 0..n {
        ws[i] = base + (((i + 4099) % n) as u64) * 8;
    }
    let buf = a.words("ring", &ws);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 4000);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.ld(Reg::S0, Reg::S0, 0);
    a.add(Reg::V0, Reg::V0, Reg::S0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

/// (kernel, config, cycles, retired) — the pinned table.
const PINS: &[(&str, &str, u64, u64)] = &[
    ("fold", "base", 6159, 12004),
    ("fold", "reno", 6157, 12004),
    ("fwd", "base", 10766, 12005),
    ("fwd", "reno", 19751, 12005),
    ("storm", "base", 4777, 4407),
    ("storm", "reno", 4776, 4407),
    ("chase", "base", 12518, 16005),
    ("chase", "reno", 12518, 16005),
];

#[test]
fn pinned_cycle_counts() {
    check_pins(false);
}

/// The reference scheduler and feed (see
/// `Simulator::with_reference_paths`) reproduce every pin.
#[test]
fn pinned_cycle_counts_on_reference_paths() {
    check_pins(true);
}

fn check_pins(reference: bool) {
    let kernels: [(&str, Program); 4] = [
        ("fold", fold_loop()),
        ("fwd", forward_kernel()),
        ("storm", storm_kernel()),
        ("chase", chase_kernel()),
    ];
    let mut observed = Vec::new();
    for (kname, p) in &kernels {
        for (cname, cfg) in [
            ("base", RenoConfig::baseline()),
            ("reno", RenoConfig::reno()),
        ] {
            let mut sim = Simulator::new(p, MachineConfig::four_wide(cfg));
            if reference {
                sim = sim.with_reference_paths();
            }
            let r = sim.run(1 << 26);
            assert!(r.halted, "{kname}/{cname} halts");
            observed.push((*kname, cname, r.cycles, r.retired));
        }
    }
    if std::env::var("RENO_PRINT_PINS").is_ok() {
        for (k, c, cy, re) in &observed {
            println!("    (\"{k}\", \"{c}\", {cy}, {re}),");
        }
        return;
    }
    let table: Vec<String> = observed
        .iter()
        .map(|(k, c, cy, re)| format!("    (\"{k}\", \"{c}\", {cy}, {re}),"))
        .collect();
    for ((k, c, cy, re), pin) in observed.iter().zip(PINS) {
        assert_eq!(
            (*k, *c, *cy, *re),
            *pin,
            "timing drift detected (reference paths: {reference}); observed table:\n{}",
            table.join("\n")
        );
    }
}
