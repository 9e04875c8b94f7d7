//! Differential property suite for the predecoded instruction-table
//! engine: the block executor (`Cpu::run_decoded` / `Cpu::advance_decoded`),
//! the observed walk (`Cpu::advance_observed`), the decoded stepper
//! (`Cpu::step_decoded`) and the batched feed (`Oracle::refill`) must be
//! **bit-identical** to the `Cpu::step` reference semantics — same executed
//! counts, digests, checksums, instruction mixes, and (for the stepper, the
//! observer and the feed) the same `DynInst` record stream — including in
//! programs that store into their own text address range, which changes
//! data memory only.

use proptest::prelude::*;
use reno_func::{Cpu, DecodedProgram, DynInst, ExecError, ExecObserver, Oracle};
use reno_isa::{Asm, Inst, Opcode, Program, Reg, RenameClass, TEXT_BASE};

/// A random-but-terminating program from a byte recipe: ALU chains, folds,
/// loads/stores with partial-width overlaps, data-dependent branches, calls
/// — and, when `smc` is set, stores aimed into the text address range,
/// which must change data memory and nothing else.
fn gen_program(body: &[u8], iters: u8, smc: bool) -> Program {
    gen_program_ending(body, iters, smc, false)
}

/// [`gen_program`], optionally without its closing `halt`, so the pc walks
/// off the end of the program and execution ends in
/// [`ExecError::PcOutOfRange`].
fn gen_program_ending(body: &[u8], iters: u8, smc: bool, walk_off: bool) -> Program {
    let mut a = Asm::named("decoded");
    let buf = a.zeros("buf", 512);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, TEXT_BASE as i64);
    a.li(Reg::T0, i64::from(iters % 20) + 2);
    a.li(Reg::T1, 0x00c0_ffee);
    a.li(Reg::T2, 5);
    a.label("loop");
    for (i, &b) in body.iter().enumerate() {
        let disp = i16::from(b >> 4) * 8;
        match b % 11 {
            0 => {
                a.add(Reg::T1, Reg::T1, Reg::T2);
            }
            1 => {
                a.addi(Reg::T2, Reg::T2, i16::from(b) - 128);
            }
            2 => {
                a.mul(Reg::T2, Reg::T2, Reg::T1);
            }
            3 => {
                a.ld(Reg::T3, Reg::S0, disp);
                a.add(Reg::T1, Reg::T1, Reg::T3);
            }
            4 => {
                a.st(Reg::T1, Reg::S0, disp);
            }
            5 => {
                a.sth(Reg::T2, Reg::S0, disp + 2);
                a.ld(Reg::T4, Reg::S0, disp);
                a.xor(Reg::T1, Reg::T1, Reg::T4);
            }
            6 => {
                let skip = format!("sk{i}");
                a.andi(Reg::T5, Reg::T1, 1);
                a.beqz(Reg::T5, &skip);
                a.addi(Reg::T1, Reg::T1, 7);
                a.label(&skip);
            }
            7 => {
                a.stb(Reg::T2, Reg::S0, disp + 5);
            }
            8 => {
                a.out(Reg::T1);
            }
            9 if smc => {
                // A store that lands inside the text segment's address
                // range (every generated program is > 4 instructions, so a
                // sub-16-byte displacement always hits): architecturally it
                // only writes data memory (fetch reads the immutable
                // instruction array), and every engine must agree.
                a.st(Reg::T1, Reg::S1, i16::from(b >> 4));
            }
            _ => {
                a.slli(Reg::T2, Reg::T1, i16::from(b % 5));
            }
        }
    }
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::T1);
    if !walk_off {
        a.halt();
    }
    a.assemble().expect("generated program assembles")
}

/// One executed instruction as an [`ExecObserver`] sees it: a pc inside a
/// straight-line run, or a full record for a load, store or control
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seen {
    Plain(usize),
    Full(DynInst),
}

impl Seen {
    /// How a reference record must appear in the observer's stream.
    fn of(d: DynInst) -> Seen {
        let op = d.inst.op;
        if op.is_load() || op.is_store() || op.is_control() {
            Seen::Full(d)
        } else {
            Seen::Plain(d.pc)
        }
    }
}

/// Expands the observer's runs and records into one [`Seen`] per
/// instruction.
#[derive(Default)]
struct Recorder {
    seen: Vec<Seen>,
    empty_runs: usize,
}

impl ExecObserver for Recorder {
    fn run(&mut self, first_pc: usize, n: u64) {
        self.empty_runs += usize::from(n == 0);
        self.seen
            .extend((first_pc..first_pc + n as usize).map(Seen::Plain));
    }

    fn inst(&mut self, d: &DynInst) {
        self.seen.push(Seen::Full(*d));
    }
}

fn assert_same_state(a: &Cpu, b: &Cpu, what: &str) {
    assert_eq!(a.executed(), b.executed(), "executed [{what}]");
    assert_eq!(a.pc(), b.pc(), "pc [{what}]");
    assert_eq!(a.halted(), b.halted(), "halted [{what}]");
    assert_eq!(a.checksum(), b.checksum(), "checksum [{what}]");
    assert_eq!(a.state_digest(), b.state_digest(), "digest [{what}]");
    assert_eq!(a.mix(), b.mix(), "mix [{what}]");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole-run equivalence: `run_decoded` == a `run_program` reference.
    #[test]
    fn block_execution_matches_reference(
        body in prop::collection::vec(any::<u8>(), 1..24),
        iters in any::<u8>(),
        smc in any::<bool>(),
    ) {
        let p = gen_program(&body, iters, smc);
        let mut reference = Cpu::new(&p);
        let rr = reference.run_program(&p, 1 << 20).unwrap();
        let mut decoded = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let rd = decoded.run_decoded(&dp, 1 << 20).unwrap();
        prop_assert_eq!(rr, rd);
        assert_same_state(&reference, &decoded, "run_decoded");
    }

    /// Per-record equivalence: `step_decoded` yields the same `DynInst`
    /// stream as `step`, text-range stores included.
    #[test]
    fn decoded_stepper_streams_identical_records(
        body in prop::collection::vec(any::<u8>(), 1..20),
        iters in any::<u8>(),
        smc in any::<bool>(),
    ) {
        let p = gen_program(&body, iters, smc);
        let mut reference = Cpu::new(&p);
        let mut decoded = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        loop {
            let da = reference.step(&p).unwrap();
            let db = decoded.step_decoded(&dp).unwrap();
            prop_assert_eq!(da, db, "DynInst streams must match record-for-record");
            if da.is_none() {
                break;
            }
        }
        assert_same_state(&reference, &decoded, "step_decoded");
    }

    /// Cut-point equivalence: advancing to an arbitrary dynamic-instruction
    /// boundary (as the sampling engine's checkpoint pass does) lands on
    /// exactly the state the per-instruction engine reaches, and both
    /// resume to identical completion.
    #[test]
    fn advance_decoded_cuts_anywhere(
        body in prop::collection::vec(any::<u8>(), 1..16),
        iters in any::<u8>(),
        cut in any::<u16>(),
        smc in any::<bool>(),
    ) {
        let p = gen_program(&body, iters, smc);
        let cut = u64::from(cut % 700);
        let mut reference = Cpu::new(&p);
        while !reference.halted() && reference.executed() < cut {
            reference.step(&p).unwrap();
        }
        let mut decoded = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        decoded.advance_decoded(&dp, cut).unwrap();
        assert_same_state(&reference, &decoded, "at the cut");
        reference.run_program(&p, 1 << 20).unwrap();
        decoded.run_decoded(&dp, 1 << 20).unwrap();
        assert_same_state(&reference, &decoded, "after resume");
    }

    /// Observed-advance equivalence: advancing through `advance_observed` in
    /// pieces (arbitrary cut points, each call resuming where the last one
    /// stopped) reports a stream that, expanded, is exactly the
    /// `step_decoded` record stream — up to the same error when the pc
    /// walks off the program — and ends in the same machine as
    /// `advance_decoded`.
    #[test]
    fn observed_advance_expands_to_the_stepper_stream(
        body in prop::collection::vec(any::<u8>(), 1..20),
        iters in any::<u8>(),
        smc in any::<bool>(),
        walk_off in any::<bool>(),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let p = gen_program_ending(&body, iters, smc, walk_off);
        let mut reference = Cpu::new(&p);
        let dp_ref = DecodedProgram::new(&p);
        let mut want = Vec::new();
        let want_err: Option<ExecError> = loop {
            match reference.step_decoded(&dp_ref) {
                Ok(Some(d)) => want.push(Seen::of(d)),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };

        let mut cut_points: Vec<u64> = cuts.iter().map(|&c| u64::from(c % 700)).collect();
        cut_points.sort_unstable();
        cut_points.push(1 << 20);
        let mut observed = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let mut rec = Recorder::default();
        let mut err = None;
        for &c in &cut_points {
            if let Err(e) = observed.advance_observed(&dp, c, &mut rec) {
                err = Some(e);
                break;
            }
            prop_assert!(
                observed.halted() || observed.executed() == c,
                "the cut lands exactly on {}", c
            );
        }
        prop_assert_eq!(rec.empty_runs, 0, "runs are never empty");
        prop_assert_eq!(&rec.seen, &want, "expanded stream equals step_decoded's");
        prop_assert_eq!(&err, &want_err, "same error at the same point");
        assert_same_state(&reference, &observed, "advance_observed vs step_decoded");

        let mut block = Cpu::new(&p);
        let dp_block = DecodedProgram::new(&p);
        let block_err = block.advance_decoded(&dp_block, 1 << 20).err();
        prop_assert_eq!(&block_err, &err);
        assert_same_state(&block, &observed, "advance_observed vs advance_decoded");
    }

    /// Batched-feed equivalence: draining `Oracle::refill` into
    /// sequence-indexed rings yields exactly the record stream of the
    /// per-instruction iterator — same `DynInst`s bit-for-bit, same rename
    /// classes, same stopping point — for any fuel, ring size, and
    /// per-call room (including room 1, which forces single-instruction
    /// partial-block batches).
    #[test]
    fn oracle_refill_streams_identical_records(
        body in prop::collection::vec(any::<u8>(), 1..20),
        iters in any::<u8>(),
        smc in any::<bool>(),
        fuel in any::<u16>(),
        ring_pow in 4u32..9,
    ) {
        let p = gen_program(&body, iters, smc);
        let fuel = u64::from(fuel);
        let mut per = Oracle::new(&p, fuel);
        let mut bat = Oracle::new(&p, fuel);
        let size = 1usize << ring_pow;
        let mask = size as u64 - 1;
        let dummy = Inst::alu_ri(Opcode::Addi, Reg::ZERO, Reg::ZERO, 0);
        let mut ring = vec![
            DynInst {
                seq: u64::MAX,
                pc: 0,
                inst: dummy,
                next_pc: 0,
                taken: false,
                dst_val: 0,
                mem_addr: 0,
            };
            size
        ];
        let mut classes = vec![RenameClass::of(&dummy); size];
        let rooms = [1u64, 2, 3, size as u64, 5, size as u64];
        let mut call = 0usize;
        loop {
            let room = rooms[call % rooms.len()];
            call += 1;
            let n = bat.refill(&mut ring, &mut classes, mask, room);
            prop_assert!(n as u64 <= room, "refill respects room");
            if n == 0 {
                prop_assert_eq!(per.next(), None, "streams end together");
                break;
            }
            for k in 0..n {
                let expect = per.next();
                let got = ring[((bat.cpu().executed() - (n - k) as u64) & mask) as usize];
                prop_assert_eq!(expect, Some(got), "record-for-record");
                prop_assert_eq!(
                    classes[(got.seq & mask) as usize],
                    RenameClass::of(&got.inst),
                    "class matches its instruction"
                );
            }
        }
        prop_assert_eq!(per.halted(), bat.halted(), "halt state");
        prop_assert_eq!(per.error(), bat.error(), "error state");
        prop_assert_eq!(
            per.cpu().state_digest(),
            bat.cpu().state_digest(),
            "architectural state"
        );
    }
}
