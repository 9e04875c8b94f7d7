//! Predecoded instruction-table execution engine.
//!
//! [`crate::Cpu::step`] pays per-instruction overhead that a functional
//! fast-forward does not need: an `Option`-checked fetch, immediate
//! sign/zero extension, branch-target arithmetic, a [`crate::DynInst`]
//! record, and per-instruction `executed`/mix bookkeeping. A
//! [`DecodedProgram`] decodes a program once, eagerly, into one template
//! per pc and records each pc's **basic block** (the straight-line run from
//! that pc to the next control transfer, `halt`, or the end of the
//! program) with that block's instruction mix:
//!
//! * immediates arrive pre-extended (`andi`'s zero-extension, `lui`'s
//!   shift, shift amounts pre-masked) and branch targets pre-resolved;
//! * a block's instruction-mix delta is precomputed, so `executed` and
//!   the [`MixStats`] advance once per block instead of once per
//!   instruction;
//! * the interpreter loop never consults the program image or the halt
//!   flag mid-block.
//!
//! The table is immutable. Instruction fetch in this ISA reads the
//! immutable `Program::insts` array, so a store to the text address range
//! changes data memory only, never what executes; a machine's place in its
//! block is just its pc.
//!
//! Five entry points on [`Cpu`]:
//!
//! * [`Cpu::run_decoded`] — fueled run to `halt`, mirroring
//!   [`Cpu::run_program`];
//! * [`Cpu::advance_decoded`] — run to an exact dynamic-instruction
//!   boundary, whole blocks at a time until the final partial block, which
//!   runs template by template so the cut lands exactly;
//! * [`Cpu::advance_observed`] — run to an exact boundary while reporting
//!   to an [`ExecObserver`]: straight-line runs as `(first_pc, n)`, loads,
//!   stores and control instructions as [`crate::DynInst`] records (the
//!   sampling engine's warming fast-forward);
//! * [`Cpu::step_decoded`] — one instruction, yielding the same
//!   [`crate::DynInst`] record as [`Cpu::step`];
//! * [`Cpu::refill_decoded`] — up to a cap of instructions, writing each
//!   record into the caller's sequence-indexed rings (the
//!   [`crate::Oracle`] feeds the timing simulator through this path).
//!
//! All five are bit-identical to the [`Cpu::step`] reference semantics; a
//! differential property suite (`tests/decoded_differential.rs`) pins
//! digests, checksums, mixes, and per-record `DynInst` streams against the
//! per-instruction engine, including programs that store into their own
//! text address range.

use crate::{Cpu, DynInst, ExecError, MixStats, RunResult};
use reno_isa::{Inst, Opcode, Program, Reg, RenameClass};

const NO_DST: u8 = u8::MAX;

/// One predecoded instruction template: operands as register-file indices,
/// immediates pre-extended, branch targets pre-resolved, and the rename
/// stage's static pre-classification attached.
#[derive(Clone, Copy, Debug)]
struct DInst {
    op: Opcode,
    /// Destination register-file slot, or [`NO_DST`] (includes writes to
    /// the hardwired zero register, which are discarded at decode).
    rd: u8,
    rs1: u8,
    rs2: u8,
    /// Memory access width in bytes (0 for non-memory ops).
    width: u8,
    /// Pre-extended immediate: sign-extended for `addi`/`slti`/loads/
    /// stores, zero-extended for `andi`/`ori`/`xori`, pre-masked for
    /// immediate shifts, pre-shifted for `lui`.
    simm: i64,
    /// Taken-path target pc for direct control (`pc + 1 + imm`).
    target: usize,
    /// Decode-time rename pre-classification: the batched oracle feed hands
    /// this to the timing simulator's rename stage alongside the
    /// [`DynInst`], so rename switches on a precomputed class instead of
    /// re-deriving the instruction's shape per dynamic instance.
    rclass: RenameClass,
    /// Load, store or control: reported to an [`ExecObserver`] as its own
    /// [`DynInst`] record rather than folded into a straight-line run.
    observed: bool,
}

fn decode_one(inst: Inst, pc: usize) -> DInst {
    let op = inst.op;
    use Opcode::*;
    let simm = match op {
        Andi | Ori | Xori => i64::from(inst.imm as u16),
        Slli | Srli | Srai => i64::from(inst.imm as u32 & 63),
        Lui => i64::from(inst.imm) << 16,
        _ => i64::from(inst.imm),
    };
    let target = (pc as i64 + 1 + i64::from(inst.imm)) as usize;
    DInst {
        op,
        rd: inst.dst().map_or(NO_DST, |r| r.index() as u8),
        rs1: inst.rs1.index() as u8,
        rs2: inst.rs2.index() as u8,
        width: op.mem_width().map_or(0, |w| w.bytes()) as u8,
        simm,
        target,
        rclass: RenameClass::of(&inst),
        observed: op.is_load() || op.is_store() || op.is_control(),
    }
}

/// The basic block entered at one pc: the straight-line run from it to the
/// block's control transfer, `halt`, or the end of the program.
#[derive(Debug)]
struct Block {
    /// One past the block's last instruction.
    end: usize,
    /// Instruction-mix delta of one full execution of the block.
    mix: MixStats,
}

/// A program decoded once into an immutable instruction table (see the
/// module docs).
#[derive(Debug)]
pub struct DecodedProgram<'p> {
    /// The program's instructions, which each [`DynInst::inst`] reports.
    insts: &'p [Inst],
    /// `templates[pc]` is the instruction at `pc`, predecoded.
    templates: Box<[DInst]>,
    /// `blocks[pc]` is the block entered at `pc`.
    blocks: Box<[Block]>,
}

impl<'p> DecodedProgram<'p> {
    /// Decodes every instruction of `program` and finds each pc's block.
    pub fn new(program: &'p Program) -> DecodedProgram<'p> {
        let insts = &program.insts[..];
        let templates = insts
            .iter()
            .enumerate()
            .map(|(pc, &inst)| decode_one(inst, pc))
            .collect();
        let mut blocks = Vec::with_capacity(insts.len());
        let mut end = insts.len();
        let mut mix = MixStats::default();
        for (pc, inst) in insts.iter().enumerate().rev() {
            if inst.op.is_control() || inst.op == Opcode::Halt {
                end = pc + 1;
                mix = MixStats::default();
            }
            mix.record(inst);
            blocks.push(Block {
                end,
                mix: mix.clone(),
            });
        }
        blocks.reverse();
        DecodedProgram {
            insts,
            templates,
            blocks: blocks.into_boxed_slice(),
        }
    }

    #[inline]
    fn block(&self, pc: usize) -> Result<&Block, ExecError> {
        self.blocks.get(pc).ok_or(ExecError::PcOutOfRange { pc })
    }
}

/// Receives a block-granular account of what [`Cpu::advance_observed`]
/// executes, in program order: every instruction is reported exactly once,
/// either inside a straight-line run or as its own record.
pub trait ExecObserver {
    /// `n >= 1` consecutive instructions at pcs `first_pc..first_pc + n`,
    /// none of which is a load, store or control instruction.
    fn run(&mut self, first_pc: usize, n: u64);
    /// One load, store or control instruction, with the same record
    /// [`Cpu::step`] would have produced for it.
    fn inst(&mut self, d: &DynInst);
}

impl Cpu {
    #[inline]
    fn wreg(&mut self, rd: u8, v: i64) {
        if rd != NO_DST {
            self.regs[(rd & 31) as usize] = v;
        }
    }

    /// Executes `blk`, the templates of the whole block entered at the
    /// current pc, and merges the block's precomputed `mix`. The caller
    /// guarantees that the whole block fits its instruction budget.
    fn execute_block(&mut self, blk: &[DInst], mix: &MixStats) {
        debug_assert_eq!(self.regs[Reg::ZERO.index()], 0, "zero-reg invariant");
        let n = blk.len();
        // Fallthrough exit (== terminator pc + 1; past the program end when
        // the block was cut by it).
        let fallthrough = self.pc + n;
        let mut exit_pc = fallthrough;
        use Opcode::*;
        for d in blk {
            let a = self.regs[(d.rs1 & 31) as usize];
            let b = self.regs[(d.rs2 & 31) as usize];
            match d.op {
                Add => self.wreg(d.rd, a.wrapping_add(b)),
                Sub => self.wreg(d.rd, a.wrapping_sub(b)),
                And => self.wreg(d.rd, a & b),
                Or => self.wreg(d.rd, a | b),
                Xor => self.wreg(d.rd, a ^ b),
                Sll => self.wreg(d.rd, a.wrapping_shl(b as u32 & 63)),
                Srl => self.wreg(d.rd, ((a as u64) >> (b as u32 & 63)) as i64),
                Sra => self.wreg(d.rd, a >> (b as u32 & 63)),
                Slt => self.wreg(d.rd, i64::from(a < b)),
                Sltu => self.wreg(d.rd, i64::from((a as u64) < (b as u64))),
                Seq => self.wreg(d.rd, i64::from(a == b)),
                Mul => self.wreg(d.rd, a.wrapping_mul(b)),
                Addi => self.wreg(d.rd, a.wrapping_add(d.simm)),
                Andi => self.wreg(d.rd, a & d.simm),
                Ori => self.wreg(d.rd, a | d.simm),
                Xori => self.wreg(d.rd, a ^ d.simm),
                Slli => self.wreg(d.rd, a.wrapping_shl(d.simm as u32)),
                Srli => self.wreg(d.rd, ((a as u64) >> (d.simm as u32)) as i64),
                Srai => self.wreg(d.rd, a >> (d.simm as u32)),
                Slti => self.wreg(d.rd, i64::from(a < d.simm)),
                Lui => self.wreg(d.rd, d.simm),
                Ld => {
                    let addr = a.wrapping_add(d.simm) as u64;
                    self.wreg(d.rd, self.mem.read_le(addr, 8) as i64);
                }
                Ldl => {
                    let addr = a.wrapping_add(d.simm) as u64;
                    self.wreg(d.rd, i64::from(self.mem.read_le(addr, 4) as u32 as i32));
                }
                Ldh => {
                    let addr = a.wrapping_add(d.simm) as u64;
                    self.wreg(d.rd, i64::from(self.mem.read_le(addr, 2) as u16 as i16));
                }
                Ldbu => {
                    let addr = a.wrapping_add(d.simm) as u64;
                    self.wreg(d.rd, i64::from(self.mem.read_le(addr, 1) as u8));
                }
                St | Stl | Sth | Stb => {
                    let addr = a.wrapping_add(d.simm) as u64;
                    self.mem.write_le(addr, u64::from(d.width), b as u64);
                }
                Beqz => {
                    if a == 0 {
                        exit_pc = d.target;
                    }
                }
                Bnez => {
                    if a != 0 {
                        exit_pc = d.target;
                    }
                }
                Bltz => {
                    if a < 0 {
                        exit_pc = d.target;
                    }
                }
                Bgez => {
                    if a >= 0 {
                        exit_pc = d.target;
                    }
                }
                Blez => {
                    if a <= 0 {
                        exit_pc = d.target;
                    }
                }
                Bgtz => {
                    if a > 0 {
                        exit_pc = d.target;
                    }
                }
                Br => exit_pc = d.target,
                Jal => {
                    // The terminator is the block's last instruction, so
                    // its return address is the fallthrough pc.
                    self.wreg(d.rd, fallthrough as i64);
                    exit_pc = d.target;
                }
                Jr => exit_pc = a as usize,
                Jalr => {
                    self.wreg(d.rd, fallthrough as i64);
                    exit_pc = a as usize;
                }
                Halt => {
                    self.halted = true;
                    exit_pc = fallthrough - 1;
                }
                Out => {
                    self.checksum = self.checksum.rotate_left(13) ^ (a as u64);
                }
            }
        }
        self.pc = exit_pc;
        self.executed += n as u64;
        self.mix.merge(mix);
    }

    /// Executes templates from the current pc to dynamic-instruction
    /// boundary `until` (or `halt`), handing each template and its record
    /// to `sink` in program order. A run that reaches its block's end
    /// advances the mix by the block's precomputed mix; a cut one records
    /// per instruction.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program; every
    /// instruction executed before that has been handed to `sink`.
    #[inline]
    fn walk(
        &mut self,
        dp: &DecodedProgram<'_>,
        until: u64,
        mut sink: impl FnMut(&DInst, &DynInst),
    ) -> Result<(), ExecError> {
        while !self.halted && self.executed < until {
            let pc = self.pc;
            let blk = dp.block(pc)?;
            let left = usize::try_from(until - self.executed).unwrap_or(usize::MAX);
            let end = pc + (blk.end - pc).min(left);
            let insts = &dp.insts[pc..end];
            for (d, &inst) in dp.templates[pc..end].iter().zip(insts) {
                let rec = self.exec_dinst(d, inst);
                sink(d, &rec);
            }
            if end == blk.end {
                self.mix.merge(&blk.mix);
            } else {
                insts.iter().for_each(|inst| self.mix.record(inst));
            }
        }
        Ok(())
    }

    /// Functionally advances to dynamic-instruction boundary `until` (or
    /// `halt`), a whole predecoded block at a time; the final partial block
    /// runs template by template so the cut lands exactly. Bit-identical to
    /// an equivalent [`Cpu::step`] loop.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program.
    pub fn advance_decoded(
        &mut self,
        dp: &DecodedProgram<'_>,
        until: u64,
    ) -> Result<(), ExecError> {
        while !self.halted && self.executed < until {
            let blk = dp.block(self.pc)?;
            if self.executed + (blk.end - self.pc) as u64 > until {
                return self.walk(dp, until, |_, _| {});
            }
            self.execute_block(&dp.templates[self.pc..blk.end], &blk.mix);
        }
        Ok(())
    }

    /// Functionally advances to dynamic-instruction boundary `until` (or
    /// `halt`) like [`Cpu::advance_decoded`], while reporting every
    /// executed instruction to `obs` (see [`ExecObserver`]). The cut is
    /// exact: a block that straddles `until` runs only its prefix, and the
    /// next call resumes from the pc it stopped at. Machine state, and the
    /// records expanded from the reported runs, are bit-identical to a
    /// [`Cpu::step_decoded`] loop.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program; every
    /// instruction executed before that has been reported.
    pub fn advance_observed<O: ExecObserver>(
        &mut self,
        dp: &DecodedProgram<'_>,
        until: u64,
        obs: &mut O,
    ) -> Result<(), ExecError> {
        // The straight-line run not yet reported.
        let (mut run_pc, mut run_n) = (self.pc, 0u64);
        let done = self.walk(dp, until, |d, rec| {
            if !d.observed {
                if run_n == 0 {
                    run_pc = rec.pc;
                }
                run_n += 1;
                return;
            }
            if run_n > 0 {
                obs.run(run_pc, run_n);
                run_n = 0;
            }
            obs.inst(rec);
        });
        if run_n > 0 {
            obs.run(run_pc, run_n);
        }
        done
    }

    /// Runs to `halt` (or `fuel` instructions) over predecoded blocks.
    /// Semantically identical to [`Cpu::run_program`], several times
    /// faster.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_decoded(
        &mut self,
        dp: &DecodedProgram<'_>,
        fuel: u64,
    ) -> Result<RunResult, ExecError> {
        let start = self.executed;
        let limit = start.saturating_add(fuel);
        self.advance_decoded(dp, limit)?;
        if !self.halted {
            return Err(ExecError::OutOfFuel {
                executed: self.executed - start,
            });
        }
        Ok(RunResult {
            executed: self.executed,
            halted: self.halted,
            checksum: self.checksum,
            mix: self.mix.clone(),
        })
    }

    /// Executes one predecoded template of `inst` against the machine
    /// state, producing the same [`DynInst`] record (and the same
    /// architectural effects) as [`Cpu::step`] would. Does **not** advance
    /// the instruction mix: `walk` owns it, at block granularity.
    #[inline]
    fn exec_dinst(&mut self, d: &DInst, inst: Inst) -> DynInst {
        let pc = self.pc;
        let seq = self.executed;

        let mut next_pc = pc + 1;
        let mut taken = false;
        let mut dst_val = 0i64;
        let mut mem_addr = 0u64;
        let a = self.regs[(d.rs1 & 31) as usize];
        let b = self.regs[(d.rs2 & 31) as usize];

        use Opcode::*;
        match d.op {
            Add => dst_val = a.wrapping_add(b),
            Sub => dst_val = a.wrapping_sub(b),
            And => dst_val = a & b,
            Or => dst_val = a | b,
            Xor => dst_val = a ^ b,
            Sll => dst_val = a.wrapping_shl(b as u32 & 63),
            Srl => dst_val = ((a as u64) >> (b as u32 & 63)) as i64,
            Sra => dst_val = a >> (b as u32 & 63),
            Slt => dst_val = i64::from(a < b),
            Sltu => dst_val = i64::from((a as u64) < (b as u64)),
            Seq => dst_val = i64::from(a == b),
            Mul => dst_val = a.wrapping_mul(b),
            Addi => dst_val = a.wrapping_add(d.simm),
            Andi => dst_val = a & d.simm,
            Ori => dst_val = a | d.simm,
            Xori => dst_val = a ^ d.simm,
            Slli => dst_val = a.wrapping_shl(d.simm as u32),
            Srli => dst_val = ((a as u64) >> (d.simm as u32)) as i64,
            Srai => dst_val = a >> (d.simm as u32),
            Slti => dst_val = i64::from(a < d.simm),
            Lui => dst_val = d.simm,
            Ld => {
                mem_addr = a.wrapping_add(d.simm) as u64;
                dst_val = self.mem.read_le(mem_addr, 8) as i64;
            }
            Ldl => {
                mem_addr = a.wrapping_add(d.simm) as u64;
                dst_val = i64::from(self.mem.read_le(mem_addr, 4) as u32 as i32);
            }
            Ldh => {
                mem_addr = a.wrapping_add(d.simm) as u64;
                dst_val = i64::from(self.mem.read_le(mem_addr, 2) as u16 as i16);
            }
            Ldbu => {
                mem_addr = a.wrapping_add(d.simm) as u64;
                dst_val = i64::from(self.mem.read_le(mem_addr, 1) as u8);
            }
            St | Stl | Sth | Stb => {
                mem_addr = a.wrapping_add(d.simm) as u64;
                self.mem.write_le(mem_addr, u64::from(d.width), b as u64);
            }
            Beqz => taken = a == 0,
            Bnez => taken = a != 0,
            Bltz => taken = a < 0,
            Bgez => taken = a >= 0,
            Blez => taken = a <= 0,
            Bgtz => taken = a > 0,
            Br => taken = true,
            Jal => {
                taken = true;
                dst_val = (pc + 1) as i64;
            }
            Jr => {
                taken = true;
                next_pc = a as usize;
            }
            Jalr => {
                taken = true;
                dst_val = (pc + 1) as i64;
                next_pc = a as usize;
            }
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Out => {
                self.checksum = self.checksum.rotate_left(13) ^ (a as u64);
            }
        }

        if d.op.is_cond_branch() {
            if taken {
                next_pc = d.target;
            }
        } else if matches!(d.op, Br | Jal) {
            next_pc = d.target;
        }
        self.wreg(d.rd, dst_val);

        self.pc = next_pc;
        self.executed += 1;

        DynInst {
            seq,
            pc,
            inst,
            next_pc,
            taken,
            dst_val,
            mem_addr,
        }
    }

    /// Executes one instruction over predecoded templates, producing the
    /// same [`DynInst`] record (and the same machine state) as
    /// [`Cpu::step`].
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program.
    pub fn step_decoded(&mut self, dp: &DecodedProgram<'_>) -> Result<Option<DynInst>, ExecError> {
        let mut out = None;
        self.walk(dp, self.executed + 1, |_, rec| out = Some(*rec))?;
        Ok(out)
    }

    /// Batch counterpart of [`Cpu::step_decoded`]: executes up to `cap`
    /// instructions in one call, writing each [`DynInst`] record and its
    /// [`RenameClass`] into the caller's sequence-indexed rings at
    /// `seq & mask`. Returns how many were executed (0 only when the
    /// machine is halted or `cap` is 0). The record stream and machine
    /// state are bit-identical to a [`Cpu::step_decoded`] loop.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program with no
    /// records produced yet; once records were produced, the batch ends
    /// instead and the next call reports the error (matching where the
    /// per-instruction stream would first fail).
    pub fn refill_decoded(
        &mut self,
        dp: &DecodedProgram<'_>,
        ring: &mut [DynInst],
        classes: &mut [RenameClass],
        mask: u64,
        cap: u64,
    ) -> Result<usize, ExecError> {
        let start = self.executed;
        let done = self.walk(dp, start.saturating_add(cap), |d, rec| {
            let slot = (rec.seq & mask) as usize;
            ring[slot] = *rec;
            classes[slot] = d.rclass;
        });
        let n = (self.executed - start) as usize;
        match done {
            Err(e) if n == 0 => Err(e),
            _ => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::{Asm, TEXT_BASE};

    fn loop_kernel(iters: i64) -> Program {
        let mut a = Asm::new();
        let buf = a.zeros("buf", 64);
        a.li(Reg::S0, buf as i64);
        a.li(Reg::T0, iters);
        a.li(Reg::V0, 0);
        a.label("loop");
        a.andi(Reg::T1, Reg::T0, 7);
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

    #[test]
    fn run_decoded_matches_run_program() {
        let p = loop_kernel(500);
        let mut a = Cpu::new(&p);
        let ra = a.run_program(&p, 1 << 20).unwrap();
        let mut b = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let rb = b.run_decoded(&dp, 1 << 20).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.pc(), b.pc());
    }

    #[test]
    fn advance_decoded_cuts_exactly() {
        let p = loop_kernel(100);
        for cut in [0u64, 1, 2, 5, 13, 100, 101, 217] {
            let mut a = Cpu::new(&p);
            while !a.halted() && a.executed() < cut {
                a.step(&p).unwrap();
            }
            let mut b = Cpu::new(&p);
            let dp = DecodedProgram::new(&p);
            b.advance_decoded(&dp, cut).unwrap();
            assert_eq!(a.executed(), b.executed(), "cut {cut}");
            assert_eq!(a.pc(), b.pc(), "cut {cut}");
            assert_eq!(a.state_digest(), b.state_digest(), "cut {cut}");
            assert_eq!(a.mix(), b.mix(), "cut {cut}");
        }
    }

    #[test]
    fn step_decoded_streams_identical_dyninsts() {
        let p = loop_kernel(40);
        let mut a = Cpu::new(&p);
        let mut b = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        loop {
            let da = a.step(&p).unwrap();
            let db = b.step_decoded(&dp).unwrap();
            assert_eq!(da, db);
            if da.is_none() {
                break;
            }
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn fuel_semantics_match() {
        let mut a = Asm::new();
        a.label("spin");
        a.br("spin");
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let err = cpu.run_decoded(&dp, 10).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { executed: 10 });
        assert_eq!(cpu.executed(), 10);
    }

    #[test]
    fn pc_out_of_range_matches() {
        let mut a = Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 1); // falls off the end
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let err = cpu.run_decoded(&dp, 10).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    /// Expands [`Cpu::advance_observed`]'s report into one entry per
    /// instruction: its pc, and its record when it was reported as one.
    #[derive(Default)]
    struct Seen(Vec<(usize, Option<DynInst>)>);

    impl ExecObserver for Seen {
        fn run(&mut self, first_pc: usize, n: u64) {
            self.0
                .extend((first_pc..first_pc + n as usize).map(|pc| (pc, None)));
        }

        fn inst(&mut self, d: &DynInst) {
            self.0.push((d.pc, Some(*d)));
        }
    }

    #[test]
    fn text_store_changes_only_data() {
        // A store into the text address range writes data memory only: the
        // load reads the stored value back, and execution carries on over
        // the program's unchanged instructions.
        let mut a = Asm::new();
        a.li(Reg::T0, TEXT_BASE as i64);
        a.li(Reg::T1, 3);
        a.li(Reg::V0, 0);
        a.label("loop");
        a.st(Reg::T1, Reg::T0, 8); // over the words of pcs 2 and 3
        a.ld(Reg::T2, Reg::T0, 8);
        a.add(Reg::V0, Reg::V0, Reg::T2);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.out(Reg::V0);
        a.halt();
        let p = a.assemble().unwrap();

        let mut reference = Cpu::new(&p);
        let mut want = Vec::new();
        while let Some(d) = reference.step(&p).unwrap() {
            assert_eq!(d.inst, p.insts[d.pc], "fetch reads the program");
            want.push(d);
        }
        let loaded: Vec<i64> = want
            .iter()
            .filter(|d| d.inst.op == Opcode::Ld)
            .map(|d| d.dst_val)
            .collect();
        assert_eq!(loaded, [3, 2, 1], "each load reads the value just stored");
        assert_eq!(reference.reg(Reg::V0), 6);
        let same = |cpu: &Cpu, what: &str| {
            assert_eq!(cpu.executed(), reference.executed(), "executed [{what}]");
            assert_eq!(cpu.pc(), reference.pc(), "pc [{what}]");
            assert_eq!(
                cpu.state_digest(),
                reference.state_digest(),
                "digest [{what}]"
            );
            assert_eq!(cpu.mix(), reference.mix(), "mix [{what}]");
        };

        let dp = DecodedProgram::new(&p);
        let mut run = Cpu::new(&p);
        run.run_decoded(&dp, 1 << 12).unwrap();
        same(&run, "run_decoded");

        let mut step = Cpu::new(&p);
        let mut stepped = Vec::new();
        while let Some(d) = step.step_decoded(&dp).unwrap() {
            stepped.push(d);
        }
        assert_eq!(stepped, want, "step_decoded");
        same(&step, "step_decoded");

        // Refills of at most three records into an eight-slot ring, drained
        // after every call.
        let mut refill = Cpu::new(&p);
        let mut ring = [want[0]; 8];
        let mut classes = [RenameClass::of(&want[0].inst); 8];
        let mut refilled = Vec::new();
        loop {
            let n = refill
                .refill_decoded(&dp, &mut ring, &mut classes, 7, 3)
                .unwrap();
            if n == 0 {
                break;
            }
            for seq in refill.executed() - n as u64..refill.executed() {
                let d = ring[(seq & 7) as usize];
                assert_eq!(classes[(seq & 7) as usize], RenameClass::of(&d.inst));
                refilled.push(d);
            }
        }
        assert_eq!(refilled, want, "refill_decoded");
        same(&refill, "refill_decoded");

        // Advances of four instructions at a time.
        let mut observed = Cpu::new(&p);
        let mut seen = Seen::default();
        while !observed.halted() {
            let until = observed.executed() + 4;
            observed.advance_observed(&dp, until, &mut seen).unwrap();
        }
        let expanded: Vec<_> = want
            .iter()
            .map(|d| {
                let op = d.inst.op;
                let full = op.is_load() || op.is_store() || op.is_control();
                (d.pc, full.then_some(*d))
            })
            .collect();
        assert_eq!(seen.0, expanded, "advance_observed");
        same(&observed, "advance_observed");
    }
}
