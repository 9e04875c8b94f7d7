//! Predecoded basic-block execution engine.
//!
//! [`crate::Cpu::step`] pays per-instruction overhead that a functional
//! fast-forward does not need: an `Option`-checked fetch, immediate
//! sign/zero extension, branch-target arithmetic, a [`crate::DynInst`]
//! record, and per-instruction `executed`/mix bookkeeping. This module
//! decodes each **basic block** (a straight-line run of instructions ending
//! at a control transfer or `halt`) once into an array of pre-extracted
//! templates and executes the common case block-at-a-time:
//!
//! * immediates arrive pre-extended (`andi`'s zero-extension, `lui`'s
//!   shift, shift amounts pre-masked) and branch targets pre-resolved;
//! * the block's instruction-mix delta is precomputed, so `executed` and
//!   the [`MixStats`] advance once per block instead of once per
//!   instruction;
//! * the interpreter loop never consults the program image or the halt
//!   flag mid-block.
//!
//! Blocks are cached in a [`DecodedProgram`], keyed by entry pc and built
//! lazily on first entry. Although instruction fetch in this ISA reads the
//! immutable `Program::insts` array (stores to the text address range
//! change only data memory, never what fetch sees), the cache stays honest
//! about such stores anyway: a store that lands inside the text segment's
//! address range invalidates every cached block overlapping the written
//! page(s), exactly as dirty-page tracking reports them, and the blocks are
//! rebuilt on next entry. [`DecodedProgram::invalidations`] counts these
//! events for tests.
//!
//! Four entry points on [`Cpu`]:
//!
//! * [`Cpu::run_decoded`] — fueled run to `halt`, mirroring
//!   [`Cpu::run_program`];
//! * [`Cpu::advance_decoded`] — run to an exact dynamic-instruction
//!   boundary (block-at-a-time until the final partial block, which steps
//!   per-instruction so the cut lands exactly);
//! * [`Cpu::advance_observed`] — run to an exact boundary block-at-a-time
//!   while reporting to an [`ExecObserver`]: straight-line runs as
//!   `(first_pc, n)`, loads, stores and control instructions as
//!   [`crate::DynInst`] records (the sampling engine's warming
//!   fast-forward);
//! * [`Cpu::step_decoded`] — per-instruction stepping over predecoded
//!   templates, yielding the same [`crate::DynInst`] records as
//!   [`Cpu::step`] (the [`crate::Oracle`] feeds the timing simulator
//!   through this path).
//!
//! All four are bit-identical to the [`Cpu::step`] reference semantics; a
//! differential property suite (`tests/decoded_differential.rs`) pins
//! digests, checksums, mixes, and per-record `DynInst` streams against the
//! per-instruction engine, across self-modifying-write invalidations.

use crate::{Cpu, DynInst, ExecError, MixStats, RunResult};
use reno_isa::{Inst, Opcode, Program, Reg, RenameClass, TEXT_BASE};

const NO_BLOCK: u32 = u32::MAX;
const NO_DST: u8 = u8::MAX;
const PAGE_SHIFT: u64 = 12;

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
    /// The original instruction (what [`DynInst::inst`] reports).
    inst: Inst,
    /// Decode-time rename pre-classification: the batched oracle feed hands
    /// this to the timing simulator's rename stage alongside the
    /// [`DynInst`], so rename switches on a precomputed class instead of
    /// re-deriving the instruction's shape per dynamic instance.
    rclass: RenameClass,
    /// Load, store or control: reported to an [`ExecObserver`] as its own
    /// [`DynInst`] record rather than folded into a straight-line run.
    observed: bool,
}

/// A straight-line run of predecoded instructions ending at a control
/// transfer, a `halt`, or the end of the program.
#[derive(Clone, Debug)]
struct DecodedBlock {
    entry: u32,
    insts: Box<[DInst]>,
    /// Instruction-mix delta of one full execution of the block.
    mix: MixStats,
}

fn decode_one(program: &Program, pc: usize) -> DInst {
    let inst = program.insts[pc];
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
        inst,
        rclass: RenameClass::of(&inst),
        observed: op.is_load() || op.is_store() || op.is_control(),
    }
}

fn build_block(program: &Program, entry: usize) -> DecodedBlock {
    let mut insts = Vec::new();
    let mut mix = MixStats::default();
    for pc in entry..program.insts.len() {
        let inst = program.insts[pc];
        mix.record(&inst);
        insts.push(decode_one(program, pc));
        if inst.op.is_control() || inst.op == Opcode::Halt {
            break;
        }
    }
    DecodedBlock {
        entry: entry as u32,
        insts: insts.into_boxed_slice(),
        mix,
    }
}

/// Lazily-built cache of predecoded basic blocks for one program, keyed by
/// entry pc (see the module docs).
#[derive(Debug)]
pub struct DecodedProgram<'p> {
    program: &'p Program,
    /// `pc -> block index` for blocks entered at `pc` ([`NO_BLOCK`] = not
    /// built). Distinct entry points into the same straight-line run get
    /// distinct (suffix) blocks — entries are what execution actually
    /// jumps to, so the map stays small and exact.
    block_of: Vec<u32>,
    /// Tombstoned on invalidation; tombstones are recycled through
    /// `free_slots`, so the vector's length is bounded by the number of
    /// distinct entry pcs even for a program that stores into its own
    /// text range every loop iteration.
    blocks: Vec<Option<DecodedBlock>>,
    /// Indices of tombstoned `blocks` slots, reused before growing.
    free_slots: Vec<u32>,
    /// Text segment's byte-address range, for self-modifying-write checks.
    text_lo: u64,
    text_hi: u64,
    invalidations: u64,
}

impl<'p> DecodedProgram<'p> {
    /// Creates an empty block cache over `program` (no blocks are built
    /// until first entry).
    pub fn new(program: &'p Program) -> DecodedProgram<'p> {
        DecodedProgram {
            program,
            block_of: vec![NO_BLOCK; program.insts.len()],
            blocks: Vec::new(),
            free_slots: Vec::new(),
            text_lo: TEXT_BASE,
            text_hi: TEXT_BASE + 4 * program.insts.len() as u64,
            invalidations: 0,
        }
    }

    /// The program this cache decodes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// How many times a self-modifying write has flushed cached blocks.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of live cached blocks.
    pub fn blocks_built(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    fn block_index(&mut self, pc: usize) -> Result<u32, ExecError> {
        if pc >= self.block_of.len() {
            return Err(ExecError::PcOutOfRange { pc });
        }
        let bi = self.block_of[pc];
        if bi != NO_BLOCK {
            return Ok(bi);
        }
        let blk = build_block(self.program, pc);
        let bi = match self.free_slots.pop() {
            Some(slot) => {
                self.blocks[slot as usize] = Some(blk);
                slot
            }
            None => {
                self.blocks.push(Some(blk));
                self.blocks.len() as u32 - 1
            }
        };
        self.block_of[pc] = bi;
        Ok(bi)
    }

    #[inline]
    fn block(&self, bi: u32) -> &DecodedBlock {
        self.blocks[bi as usize].as_ref().expect("live block index")
    }

    /// Invalidates every cached block overlapping the text page(s) a store
    /// to `[addr, addr + width)` touches. Call only when the store actually
    /// intersects `[text_lo, text_hi)`.
    fn invalidate_store(&mut self, addr: u64, width: u64) {
        let lo = addr.max(self.text_lo);
        let hi = addr.saturating_add(width.max(1)).min(self.text_hi);
        if lo >= hi {
            return;
        }
        self.invalidations += 1;
        // Widen to whole dirty pages, then to the pc span they cover.
        let page_lo = (lo >> PAGE_SHIFT) << PAGE_SHIFT;
        let page_hi = (((hi - 1) >> PAGE_SHIFT) + 1) << PAGE_SHIFT;
        let pc_lo = (page_lo.max(self.text_lo) - TEXT_BASE) / 4;
        let pc_hi = ((page_hi.min(self.text_hi) - TEXT_BASE).div_ceil(4)).max(pc_lo);
        for (i, slot) in self.blocks.iter_mut().enumerate() {
            let Some(b) = slot else { continue };
            let b_lo = u64::from(b.entry);
            let b_hi = b_lo + b.insts.len() as u64;
            if b_lo < pc_hi && b_hi > pc_lo {
                self.block_of[b.entry as usize] = NO_BLOCK;
                self.free_slots.push(i as u32);
                *slot = None;
            }
        }
    }

    /// Whether a store to `[addr, addr + width)` lands in the text range.
    #[inline]
    fn store_hits_text(&self, addr: u64, width: u64) -> bool {
        addr < self.text_hi && addr.saturating_add(width.max(1)) > self.text_lo
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

/// Cursor for [`Cpu::step_decoded`] and [`Cpu::advance_observed`]:
/// remembers the position inside the current block so consecutive steps
/// skip the block lookup.
#[derive(Clone, Copy, Debug)]
pub struct BlockCursor {
    bi: u32,
    idx: u32,
    epoch: u64,
}

impl BlockCursor {
    /// A cursor with no cached position (revalidates on first use).
    pub fn new() -> BlockCursor {
        BlockCursor {
            bi: NO_BLOCK,
            idx: 0,
            epoch: 0,
        }
    }
}

impl Default for BlockCursor {
    fn default() -> BlockCursor {
        BlockCursor::new()
    }
}

impl Cpu {
    #[inline]
    fn wreg(&mut self, rd: u8, v: i64) {
        if rd != NO_DST {
            self.regs[(rd & 31) as usize] = v;
        }
    }

    /// Executes one whole decoded block. The caller guarantees
    /// `self.pc == blk.entry` and that the whole block fits its
    /// instruction budget. Stores landing in the text range are recorded
    /// in `smc` (page-invalidation is the caller's job — the block borrow
    /// is live here).
    fn execute_block(&mut self, blk: &DecodedBlock, text_lo: u64, text_hi: u64, smc: &mut bool) {
        debug_assert_eq!(self.pc, blk.entry as usize);
        debug_assert_eq!(self.regs[Reg::ZERO.index()], 0, "zero-reg invariant");
        let n = blk.insts.len();
        // Fallthrough exit (== terminator pc + 1; past the program end when
        // the block was cut by it).
        let mut exit_pc = blk.entry as usize + n;
        use Opcode::*;
        for d in blk.insts.iter() {
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
                    let w = u64::from(d.width);
                    if addr < text_hi && addr.saturating_add(w) > text_lo {
                        *smc = true;
                    }
                    self.mem.write_le(addr, w, b as u64);
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
                    self.wreg(d.rd, (blk.entry as usize + n) as i64);
                    exit_pc = d.target;
                }
                Jr => exit_pc = a as usize,
                Jalr => {
                    self.wreg(d.rd, (blk.entry as usize + n) as i64);
                    exit_pc = a as usize;
                }
                Halt => {
                    self.halted = true;
                    exit_pc = blk.entry as usize + n - 1;
                }
                Out => {
                    self.checksum = self.checksum.rotate_left(13) ^ (a as u64);
                }
            }
        }
        self.pc = exit_pc;
        self.executed += n as u64;
        self.mix.merge(&blk.mix);
    }

    /// Functionally advances to dynamic-instruction boundary `until` (or
    /// `halt`), block-at-a-time through `dp`'s predecoded cache; the final
    /// partial block steps per-instruction so the cut lands exactly.
    /// Bit-identical to an equivalent [`Cpu::step`] loop.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program.
    pub fn advance_decoded(
        &mut self,
        dp: &mut DecodedProgram<'_>,
        until: u64,
    ) -> Result<(), ExecError> {
        let (text_lo, text_hi) = (dp.text_lo, dp.text_hi);
        while !self.halted && self.executed < until {
            let bi = dp.block_index(self.pc)?;
            let blk = dp.block(bi);
            let n = blk.insts.len() as u64;
            if self.executed + n <= until {
                let mut smc = false;
                self.execute_block(blk, text_lo, text_hi, &mut smc);
                if smc {
                    // Rare: the block already ran, so conservatively flush
                    // the whole text range (the per-instruction paths
                    // invalidate at store-page precision instead).
                    dp.invalidate_store(text_lo, text_hi - text_lo);
                }
            } else {
                // Partial block: fall back to the per-instruction reference
                // engine for an exact cut.
                while !self.halted && self.executed < until {
                    let Some(d) = self.step(dp.program)? else {
                        break;
                    };
                    if d.inst.op.is_store() {
                        let w = d.inst.op.mem_width().map_or(1, |w| w.bytes());
                        if dp.store_hits_text(d.mem_addr, w) {
                            dp.invalidate_store(d.mem_addr, w);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Functionally advances to dynamic-instruction boundary `until` (or
    /// `halt`) block-at-a-time, like [`Cpu::advance_decoded`], while
    /// reporting every executed instruction to `obs` (see
    /// [`ExecObserver`]). The cut is exact: a block that straddles `until`
    /// runs only its prefix, and `cur` remembers the position so the next
    /// call resumes mid-block without building a suffix block. Machine
    /// state, and the records expanded from the reported runs, are
    /// bit-identical to a [`Cpu::step_decoded`] loop.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program; every
    /// instruction executed before that has been reported.
    pub fn advance_observed<O: ExecObserver>(
        &mut self,
        dp: &mut DecodedProgram<'_>,
        cur: &mut BlockCursor,
        until: u64,
        obs: &mut O,
    ) -> Result<(), ExecError> {
        while !self.halted && self.executed < until {
            if cur.bi == NO_BLOCK || cur.epoch != dp.invalidations {
                cur.bi = dp.block_index(self.pc)?;
                cur.idx = 0;
                cur.epoch = dp.invalidations;
            }
            let start = cur.idx as usize;
            let blk = dp.block(cur.bi);
            debug_assert_eq!(self.pc, blk.entry as usize + start);
            let len = blk.insts.len();
            let n = (len - start).min(usize::try_from(until - self.executed).unwrap_or(usize::MAX));
            let mut smc: Option<(u64, u64)> = None;
            let mut run_pc = self.pc;
            let mut run_n = 0u64;
            let mut done = 0usize;
            for d in &blk.insts[start..start + n] {
                let rec = self.exec_dinst(d);
                done += 1;
                if !d.observed {
                    run_n += 1;
                    continue;
                }
                if run_n > 0 {
                    obs.run(run_pc, run_n);
                    run_n = 0;
                }
                obs.inst(&rec);
                run_pc = self.pc;
                if d.op.is_store() && dp.store_hits_text(rec.mem_addr, u64::from(d.width)) {
                    // Cut after the offending store, exactly where the
                    // per-instruction path would invalidate.
                    smc = Some((rec.mem_addr, u64::from(d.width)));
                    break;
                }
            }
            if run_n > 0 {
                obs.run(run_pc, run_n);
            }
            if start == 0 && done == len {
                self.mix.merge(&blk.mix);
            } else {
                for d in &blk.insts[start..start + done] {
                    self.mix.record(&d.inst);
                }
            }
            if let Some((addr, w)) = smc {
                dp.invalidate_store(addr, w);
                cur.bi = NO_BLOCK;
            } else if start + done == len {
                // The terminator (taken or not) always ends the block.
                cur.bi = NO_BLOCK;
            } else {
                cur.idx += done as u32;
            }
        }
        Ok(())
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
        dp: &mut DecodedProgram<'_>,
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

    /// Executes one predecoded template against the machine state,
    /// producing the same [`DynInst`] record (and the same architectural
    /// effects) as [`Cpu::step`] would for the instruction it was decoded
    /// from. Shared by [`Cpu::step_decoded`] and the batched
    /// [`Cpu::refill_decoded`] so the two feeds cannot diverge.
    ///
    /// Does **not** advance the instruction mix or perform self-modifying-
    /// write invalidation — the callers own both (the batch path amortizes
    /// the mix at block granularity).
    #[inline]
    fn exec_dinst(&mut self, d: &DInst) -> DynInst {
        let pc = self.pc;
        let seq = self.executed;
        let inst = d.inst;

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
    /// [`Cpu::step`]. `cur` caches the intra-block position between calls.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program.
    pub fn step_decoded(
        &mut self,
        dp: &mut DecodedProgram<'_>,
        cur: &mut BlockCursor,
    ) -> Result<Option<DynInst>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        if cur.bi == NO_BLOCK || cur.epoch != dp.invalidations {
            cur.bi = dp.block_index(self.pc)?;
            cur.idx = 0;
            cur.epoch = dp.invalidations;
        }
        let blk = dp.block(cur.bi);
        debug_assert_eq!(self.pc, blk.entry as usize + cur.idx as usize);
        let d = blk.insts[cur.idx as usize];
        let last = cur.idx as usize + 1 == blk.insts.len();

        let rec = self.exec_dinst(&d);
        self.mix.record(&d.inst);

        if d.op.is_store() {
            let w = u64::from(d.width);
            if dp.store_hits_text(rec.mem_addr, w) {
                dp.invalidate_store(rec.mem_addr, w);
                cur.bi = NO_BLOCK; // the current block may be gone
            }
        }
        if cur.bi != NO_BLOCK {
            if last || rec.taken {
                cur.bi = NO_BLOCK;
            } else {
                cur.idx += 1;
            }
        }

        Ok(Some(rec))
    }

    /// Batch counterpart of [`Cpu::step_decoded`]: executes up to `cap`
    /// instructions — as many whole decoded blocks as fit — in one call,
    /// writing each [`DynInst`] record and its [`RenameClass`] into the
    /// caller's sequence-indexed rings at `seq & mask`. Returns how many
    /// were executed (0 only when the machine is halted or `cap` is 0).
    ///
    /// The per-instruction bounds checks, block-cache revalidation, and mix
    /// bookkeeping are hoisted to block granularity; the record stream and
    /// machine state are bit-identical to a [`Cpu::step_decoded`] loop
    /// (including self-modifying-write invalidation, which cuts a block
    /// exactly where the per-instruction path would reset its cursor).
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program with no
    /// records produced yet; once records were produced, the batch ends
    /// instead and the next call reports the error (matching where the
    /// per-instruction stream would first fail).
    pub fn refill_decoded(
        &mut self,
        dp: &mut DecodedProgram<'_>,
        cur: &mut BlockCursor,
        ring: &mut [DynInst],
        classes: &mut [RenameClass],
        mask: u64,
        cap: u64,
    ) -> Result<usize, ExecError> {
        let mut total = 0usize;
        while total < cap as usize && !self.halted {
            if cur.bi == NO_BLOCK || cur.epoch != dp.invalidations {
                cur.bi = match dp.block_index(self.pc) {
                    Ok(bi) => bi,
                    Err(e) if total == 0 => return Err(e),
                    // Records already produced: hand them over; the next
                    // call re-encounters the error at the same pc.
                    Err(_) => break,
                };
                cur.idx = 0;
                cur.epoch = dp.invalidations;
            }
            let start = cur.idx as usize;
            let mut wrote = 0usize;
            let mut smc: Option<(u64, u64)> = None;
            let ended;
            {
                let blk = dp.block(cur.bi);
                debug_assert_eq!(self.pc, blk.entry as usize + start);
                let len = blk.insts.len();
                let n = (len - start).min(cap as usize - total);
                // A whole-block batch advances the mix with one precomputed
                // merge; a capped partial batch records per instruction, and
                // the rare text-store cut un-records the unexecuted suffix.
                let whole = start == 0 && n == len;
                if whole {
                    self.mix.merge(&blk.mix);
                }
                for d in &blk.insts[start..start + n] {
                    let rec = self.exec_dinst(d);
                    let slot = (rec.seq & mask) as usize;
                    ring[slot] = rec;
                    classes[slot] = d.rclass;
                    wrote += 1;
                    if !whole {
                        self.mix.record(&d.inst);
                    }
                    if d.op.is_store() {
                        let w = u64::from(d.width);
                        if dp.store_hits_text(rec.mem_addr, w) {
                            // Cut the batch after the offending store,
                            // exactly where the per-instruction path would
                            // invalidate.
                            smc = Some((rec.mem_addr, w));
                            break;
                        }
                    }
                }
                if whole && wrote < len {
                    for d in &blk.insts[wrote..] {
                        self.mix.unrecord(&d.inst);
                    }
                }
                ended = start + wrote == len;
            }
            total += wrote;
            if let Some((addr, w)) = smc {
                dp.invalidate_store(addr, w);
                cur.bi = NO_BLOCK;
            } else if ended {
                // The terminator (taken or not) always ends the block.
                cur.bi = NO_BLOCK;
            } else {
                cur.idx += wrote as u32;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::Asm;

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
        let mut dp = DecodedProgram::new(&p);
        let rb = b.run_decoded(&mut dp, 1 << 20).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.pc(), b.pc());
        assert!(dp.blocks_built() >= 2);
        assert_eq!(dp.invalidations(), 0);
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
            let mut dp = DecodedProgram::new(&p);
            b.advance_decoded(&mut dp, cut).unwrap();
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
        let mut dp = DecodedProgram::new(&p);
        let mut cur = BlockCursor::new();
        loop {
            let da = a.step(&p).unwrap();
            let db = b.step_decoded(&mut dp, &mut cur).unwrap();
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
        let mut dp = DecodedProgram::new(&p);
        let err = cpu.run_decoded(&mut dp, 10).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { executed: 10 });
        assert_eq!(cpu.executed(), 10);
    }

    #[test]
    fn pc_out_of_range_matches() {
        let mut a = Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 1); // falls off the end
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let mut dp = DecodedProgram::new(&p);
        let err = cpu.run_decoded(&mut dp, 10).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn text_store_invalidates_overlapping_blocks() {
        // A store aimed into the text address range must flush cached
        // blocks (and execution must proceed identically afterwards).
        let mut a = Asm::new();
        a.li(Reg::T0, TEXT_BASE as i64);
        a.li(Reg::T1, 3);
        a.li(Reg::V0, 0);
        a.label("loop");
        a.st(Reg::T1, Reg::T0, 8); // lands inside the text range
        a.addi(Reg::V0, Reg::V0, 1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.out(Reg::V0);
        a.halt();
        let p = a.assemble().unwrap();

        let mut reference = Cpu::new(&p);
        let rr = reference.run_program(&p, 1 << 12).unwrap();
        let mut cpu = Cpu::new(&p);
        let mut dp = DecodedProgram::new(&p);
        let rd = cpu.run_decoded(&mut dp, 1 << 12).unwrap();
        assert_eq!(rr, rd);
        assert_eq!(reference.state_digest(), cpu.state_digest());
        assert!(dp.invalidations() > 0, "the SMC store must be noticed");
    }
}
