//! Tracing must be *invisible* and *truthful*.
//!
//! Invisible: enabling `MachineConfig::trace` may not move any observable of
//! a run — cycles, retired count, every counter, digests — by even one bit.
//! (The complementary direction, that a build with tracing compiled in but
//! *off* matches the historical goldens, is pinned by `pinned_timing` and
//! the alloctrack steady-state suite.)
//!
//! Truthful: the recorded event stream must agree exactly with the
//! simulator's own counters — one retire event per retired instruction at a
//! cycle the run actually reached, one issue event per `SimStats::issued`,
//! one squash event per `SimStats::squashed`, and rename outcomes that add
//! up to the RENO elimination statistics.

use proptest::prelude::*;
use reno_core::RenoConfig;
use reno_isa::{Asm, Program, Reg};
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_trace::{
    chrome_trace_json, parse_json, BranchClass, CacheLevel, EventKind, RenameOutcome, SquashCause,
};

/// Same recipe as the equivalence suites: a random-but-terminating loop
/// over an instruction pool that exercises folds, multiplies,
/// partial-width forwarding, aliased pointer stores (misintegrations +
/// violations) and data-dependent branches.
fn gen_program(body: &[u8], iters: u8) -> Program {
    let mut a = Asm::named("tracegen");
    let buf = a.zeros("buf", 512);
    let ptr = a.words("ptr", &[buf + 64]);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, ptr as i64);
    a.li(Reg::T0, i64::from(iters % 24) + 2);
    a.li(Reg::T1, 0x1234_5678);
    a.li(Reg::T2, 7);
    a.li(Reg::T3, 3);
    a.label("loop");
    for (i, &b) in body.iter().enumerate() {
        let disp = i16::from(b >> 4) * 8;
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
                a.sth(Reg::T2, Reg::S0, disp + 2);
                a.ld(Reg::T6, Reg::S0, disp);
                a.add(Reg::T1, Reg::T1, Reg::T6);
            }
            8 => {
                a.ld(Reg::T4, Reg::S1, 0);
                a.st(Reg::T2, Reg::T4, 0);
                a.ld(Reg::T5, Reg::S0, 64);
                a.add(Reg::T1, Reg::T1, Reg::T5);
            }
            9 => {
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

fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("4w-base", MachineConfig::four_wide(RenoConfig::baseline())),
        ("4w-reno", MachineConfig::four_wide(RenoConfig::reno())),
        (
            "6w-reno-fi",
            MachineConfig::six_wide(RenoConfig::reno_full_integration()),
        ),
    ]
}

/// Every observable of the run must be independent of tracing.
fn assert_invisible(off: &SimResult, on: &SimResult, what: &str) {
    assert_eq!(off.cycles, on.cycles, "cycles [{what}]");
    assert_eq!(off.retired, on.retired, "retired [{what}]");
    assert_eq!(off.stats, on.stats, "SimStats [{what}]");
    assert_eq!(off.reno, on.reno, "RenoStats [{what}]");
    assert_eq!(off.it, on.it, "ItStats [{what}]");
    assert_eq!(off.frontend, on.frontend, "FrontEndStats [{what}]");
    assert_eq!(off.caches, on.caches, "CacheStats [{what}]");
    assert_eq!(off.hier, on.hier, "HierarchyStats [{what}]");
    assert_eq!(off.checksum, on.checksum, "checksum [{what}]");
    assert_eq!(off.digest, on.digest, "digest [{what}]");
    assert_eq!(off.halted, on.halted, "halted [{what}]");
    assert!(off.trace.is_none(), "no trace recorded when off [{what}]");
    assert!(on.trace.is_some(), "trace recorded when on [{what}]");
}

/// The event stream must agree with the simulator's own counters.
fn assert_truthful(r: &SimResult, what: &str) {
    let t = r.trace.as_ref().expect("traced run");
    assert_eq!(t.retire_count(), r.retired, "retire events [{what}]");
    assert_eq!(t.issue_count(), r.stats.issued, "issue events [{what}]");
    assert_eq!(t.squash_count(), r.stats.squashed, "squash events [{what}]");

    // Retire cycles are in nondecreasing order and within the run.
    let mut last = 0u64;
    for e in t.retires() {
        assert!(e.cycle >= last, "retirement is in program order [{what}]");
        // The final halt retires at `cycle == cycles`: the run loop stops
        // before that cycle's increment, so `<=`, not `<`.
        assert!(e.cycle <= r.cycles, "retire cycle within the run [{what}]");
        last = e.cycle;
    }

    // One occupancy sample per simulated cycle, in order.
    assert_eq!(t.counters.len() as u64, r.cycles, "samples [{what}]");
    for (i, s) in t.counters.iter().enumerate() {
        assert_eq!(s.cycle, i as u64, "sample cycles are dense [{what}]");
    }

    // Rename outcomes add up to the RENO elimination statistics. Squashed
    // instructions are renamed again after refetch, so rename events count
    // every attempt — exactly like the cumulative RenoStats counters.
    let mut elim = 0u64;
    for e in &t.events {
        if let EventKind::Rename { outcome } = e.kind {
            if outcome != RenameOutcome::Issued {
                elim += 1;
            }
        }
    }
    assert_eq!(elim, r.reno.eliminated(), "elimination events [{what}]");

    // Memory track: per-level access/hit/writeback events reconcile with
    // the caches' own counters, probe for probe.
    let (l1i, l1d, l2) = r.caches;
    for (level, s) in [
        (CacheLevel::L1I, l1i),
        (CacheLevel::L1D, l1d),
        (CacheLevel::L2, l2),
    ] {
        assert_eq!(
            t.cache_accesses(level),
            s.accesses,
            "{level:?} access events [{what}]"
        );
        assert_eq!(t.cache_hits(level), s.hits, "{level:?} hit events [{what}]");
        assert_eq!(
            t.cache_writebacks(level),
            s.writebacks,
            "{level:?} writeback events [{what}]"
        );
    }

    // MSHR lifecycle: one alloc per memory access, one merge per recorded
    // merge, and — after the end-of-run flush — a retire for every alloc.
    // Stall and bus-queue events carry durations that exactly partition
    // the hierarchy's queue-cycle counter.
    assert_eq!(
        t.mshr_alloc_count(),
        r.hier.mem_accesses,
        "MSHR alloc events [{what}]"
    );
    assert_eq!(
        t.mshr_merge_count(),
        r.hier.merges,
        "MSHR merge events [{what}]"
    );
    assert_eq!(
        t.mshr_retire_count(),
        t.mshr_alloc_count(),
        "every MSHR alloc retires [{what}]"
    );
    assert_eq!(
        t.mshr_stall_cycles() + t.bus_queue_cycles(),
        r.hier.queue_cycles,
        "stall + bus cycles partition queue_cycles [{what}]"
    );

    // Predictor track: one predict event per fetched branch of each class,
    // wrong exactly as often as the front end says, and every resolution
    // event belongs to a genuinely mispredicted branch (a mispredict whose
    // squash wins the race never executes, so resolve <= wrong).
    let f = r.frontend;
    for (class, fetched, wrong) in [
        (BranchClass::Cond, f.cond, f.cond_wrong),
        (BranchClass::Return, f.returns, f.returns_wrong),
        (BranchClass::Indirect, f.indirect, f.indirect_wrong),
    ] {
        assert_eq!(
            t.predict_count(class),
            fetched,
            "{class:?} predict events [{what}]"
        );
        assert_eq!(
            t.mispredict_count(class),
            wrong,
            "{class:?} mispredict events [{what}]"
        );
    }
    assert!(
        t.resolve_count() <= f.total_wrong(),
        "resolves ({}) within mispredicts ({}) [{what}]",
        t.resolve_count(),
        f.total_wrong()
    );
}

#[test]
fn directed_all_classes_trace_differential() {
    let body: Vec<u8> = (0u8..=255).step_by(3).collect();
    let p = gen_program(&body, 17);
    let mut squashes = (0u64, 0u64);
    for (name, m) in machines() {
        let off = Simulator::new(&p, m.clone()).run(1 << 24);
        let on = Simulator::new(&p, m.with_trace()).run(1 << 24);
        assert_invisible(&off, &on, name);
        assert_truthful(&on, name);
        let t = on.trace.as_ref().unwrap();
        for e in &t.events {
            if let EventKind::Squash { cause } = e.kind {
                match cause {
                    SquashCause::MemOrder => squashes.0 += 1,
                    SquashCause::Misintegration => squashes.1 += 1,
                }
            }
        }
    }
    // The aliased-pointer recipe provokes both squash causes somewhere
    // across the machine sweep; the cause labels must reach the trace.
    assert!(squashes.0 > 0, "mem-order squashes traced: {squashes:?}");
    assert!(
        squashes.1 > 0,
        "misintegration squashes traced: {squashes:?}"
    );
}

#[test]
fn traced_run_exports_valid_chrome_json() {
    let body: Vec<u8> = (0u8..=120).step_by(5).collect();
    let p = gen_program(&body, 5);
    let r = Simulator::new(
        &p,
        MachineConfig::four_wide(RenoConfig::reno()).with_trace(),
    )
    .run(1 << 24);
    let t = r.trace.as_ref().expect("traced");
    let json = chrome_trace_json(t);
    parse_json(&json).expect("export is syntactically valid JSON");
    assert!(json.contains("\"name\":\"IPC\""));
    assert!(json.contains("\"outcome\":\"const-fold\""));
    // The memory/predictor tracks ride along: named threads, cold-start
    // misses as instants, MSHR lifecycle, and per-level activity counters.
    assert!(!t.sys.is_empty(), "system-track events recorded");
    assert!(json.contains("\"args\":{\"name\":\"memory\"}"));
    assert!(json.contains("\"args\":{\"name\":\"predictor\"}"));
    assert!(json.contains("\"name\":\"L1I miss\""));
    assert!(json.contains("\"name\":\"MSHR alloc\""));
    assert!(json.contains("\"name\":\"L1I activity\""));
    assert_eq!(
        json.matches("\"end\":\"retire\"").count() as u64,
        r.retired,
        "one retired span per retired instruction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tracing_is_invisible_and_truthful(
        body in prop::collection::vec(any::<u8>(), 1..32),
        iters in any::<u8>(),
    ) {
        let p = gen_program(&body, iters);
        for (name, m) in machines() {
            let off = Simulator::new(&p, m.clone()).run(1 << 22);
            let on = Simulator::new(&p, m.with_trace()).run(1 << 22);
            assert_invisible(&off, &on, name);
            assert_truthful(&on, name);
        }
    }
}
