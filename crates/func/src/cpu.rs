use crate::{DynInst, Memory, MixStats};
use reno_isa::{MemWidth, Opcode, Program, Reg, STACK_TOP};
use std::fmt;

/// Error raised by architectural execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the text segment without halting.
    PcOutOfRange { pc: usize },
    /// The run exhausted its fuel before halting.
    OutOfFuel { executed: u64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            ExecError::OutOfFuel { executed } => {
                write!(f, "out of fuel after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Summary of a completed [`Cpu::run_program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Dynamic instructions executed.
    pub executed: u64,
    /// Whether a `halt` was reached (as opposed to running out of fuel).
    pub halted: bool,
    /// Output checksum accumulated by `out` instructions.
    pub checksum: u64,
    /// Dynamic instruction mix.
    pub mix: MixStats,
}

/// The architectural machine: 32 registers, sparse memory, a pc.
///
/// `r31` reads as zero and ignores writes. `sp` is initialized to
/// [`STACK_TOP`]. See the crate docs for a usage example.
#[derive(Clone, Debug)]
pub struct Cpu {
    pub(crate) regs: [i64; Reg::COUNT],
    pub(crate) pc: usize,
    pub(crate) halted: bool,
    pub(crate) checksum: u64,
    pub(crate) executed: u64,
    pub(crate) mem: Memory,
    pub(crate) mix: MixStats,
}

impl Cpu {
    /// Creates a machine with `program`'s data segments loaded and
    /// `pc` at the entry point.
    pub fn new(program: &Program) -> Cpu {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        // Dirty tracking measures writes *since the initial image*: loading
        // the program's own data segments does not count.
        mem.clear_dirty();
        let mut regs = [0i64; Reg::COUNT];
        regs[Reg::SP.index()] = STACK_TOP as i64;
        Cpu {
            regs,
            pc: program.entry,
            halted: false,
            checksum: 0,
            executed: 0,
            mem,
            mix: MixStats::default(),
        }
    }

    /// Current value of a register (`zero` always reads 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Sets a register (writes to `zero` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether a `halt` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Output checksum accumulated so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Dynamic instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The memory (e.g. for test assertions).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Instruction-mix statistics accumulated so far.
    pub fn mix(&self) -> &MixStats {
        &self.mix
    }

    /// Architectural checksum over registers + checksum, for state comparison
    /// between functional and timing runs.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for r in Reg::all() {
            h ^= self.reg(r) as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ self.checksum
    }

    fn load_value(&self, op: Opcode, addr: u64) -> i64 {
        let w = op.mem_width().expect("load has a width");
        let raw = self.mem.read_le(addr, w.bytes());
        match w {
            MemWidth::B1 => raw as u8 as i64,
            MemWidth::B2 => raw as u16 as i16 as i64,
            MemWidth::B4 => raw as u32 as i32 as i64,
            MemWidth::B8 => raw as i64,
        }
    }

    /// Executes one instruction, returning its [`DynInst`] oracle record,
    /// or `None` if the machine has already halted.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if the pc walks off the program.
    pub fn step(&mut self, program: &Program) -> Result<Option<DynInst>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *program.fetch(pc).ok_or(ExecError::PcOutOfRange { pc })?;
        let seq = self.executed;

        let mut next_pc = pc + 1;
        let mut taken = false;
        let mut dst_val = 0i64;
        let mut mem_addr = 0u64;

        let a = self.reg(inst.rs1);
        let b = self.reg(inst.rs2);
        let simm = inst.imm as i64;
        let zimm = inst.imm as u16 as i64;

        use Opcode::*;
        match inst.op {
            Add => dst_val = a.wrapping_add(b),
            Sub => dst_val = a.wrapping_sub(b),
            And => dst_val = a & b,
            Or => dst_val = a | b,
            Xor => dst_val = a ^ b,
            Sll => dst_val = a.wrapping_shl(b as u32 & 63),
            Srl => dst_val = ((a as u64) >> (b as u32 & 63)) as i64,
            Sra => dst_val = a >> (b as u32 & 63),
            Slt => dst_val = (a < b) as i64,
            Sltu => dst_val = ((a as u64) < (b as u64)) as i64,
            Seq => dst_val = (a == b) as i64,
            Mul => dst_val = a.wrapping_mul(b),
            Addi => dst_val = a.wrapping_add(simm),
            Andi => dst_val = a & zimm,
            Ori => dst_val = a | zimm,
            Xori => dst_val = a ^ zimm,
            Slli => dst_val = a.wrapping_shl(inst.imm as u32 & 63),
            Srli => dst_val = ((a as u64) >> (inst.imm as u32 & 63)) as i64,
            Srai => dst_val = a >> (inst.imm as u32 & 63),
            Slti => dst_val = (a < simm) as i64,
            Lui => dst_val = simm << 16,
            Ld | Ldl | Ldh | Ldbu => {
                mem_addr = a.wrapping_add(simm) as u64;
                dst_val = self.load_value(inst.op, mem_addr);
            }
            St | Stl | Sth | Stb => {
                mem_addr = a.wrapping_add(simm) as u64;
                let w = inst.op.mem_width().expect("store has a width");
                self.mem.write_le(mem_addr, w.bytes(), b as u64);
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

        if inst.op.is_cond_branch() {
            if taken {
                next_pc = (pc as i64 + 1 + simm) as usize;
            }
        } else if matches!(inst.op, Br | Jal) {
            next_pc = (pc as i64 + 1 + simm) as usize;
        }

        if let Some(rd) = inst.dst() {
            self.set_reg(rd, dst_val);
        }

        self.pc = next_pc;
        self.executed += 1;
        self.mix.record(&inst);

        Ok(Some(DynInst {
            seq,
            pc,
            inst,
            next_pc,
            taken,
            dst_val,
            mem_addr,
        }))
    }

    /// Runs `program` until `halt` or until `fuel` instructions execute.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_program(&mut self, program: &Program, fuel: u64) -> Result<RunResult, ExecError> {
        let start = self.executed;
        while !self.halted {
            if self.executed - start >= fuel {
                return Err(ExecError::OutOfFuel {
                    executed: self.executed - start,
                });
            }
            self.step(program)?;
        }
        Ok(RunResult {
            executed: self.executed,
            halted: self.halted,
            checksum: self.checksum,
            mix: self.mix.clone(),
        })
    }
}

/// Convenience: run `program` to completion on a fresh machine.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_to_completion(program: &Program, fuel: u64) -> Result<(Cpu, RunResult), ExecError> {
    let mut cpu = Cpu::new(program);
    let result = cpu.run_program(program, fuel)?;
    Ok((cpu, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::Asm;

    fn asm() -> Asm {
        Asm::new()
    }

    #[test]
    fn arithmetic_and_shifts() {
        let mut a = asm();
        a.li(Reg::T0, 10);
        a.li(Reg::T1, 3);
        a.sub(Reg::T2, Reg::T0, Reg::T1); // 7
        a.sll(Reg::T3, Reg::T2, Reg::T1); // 56
        a.srai(Reg::T4, Reg::T3, 2); // 14
        a.mul(Reg::T5, Reg::T4, Reg::T1); // 42
        a.halt();
        let p = a.assemble().unwrap();
        let (cpu, r) = run_to_completion(&p, 100).unwrap();
        assert!(r.halted);
        assert_eq!(cpu.reg(Reg::T5), 42);
    }

    #[test]
    fn memory_widths_sign_extension() {
        let mut a = asm();
        let buf = a.zeros("buf", 16);
        a.li(Reg::A0, buf as i64);
        a.li(Reg::T0, -2);
        a.sth(Reg::T0, Reg::A0, 0);
        a.ldh(Reg::T1, Reg::A0, 0); // -2 sign-extended
        a.ldbu(Reg::T2, Reg::A0, 0); // 0xfe zero-extended
        a.halt();
        let p = a.assemble().unwrap();
        let (cpu, _) = run_to_completion(&p, 100).unwrap();
        assert_eq!(cpu.reg(Reg::T1), -2);
        assert_eq!(cpu.reg(Reg::T2), 0xfe);
    }

    #[test]
    fn call_and_return() {
        let mut a = asm();
        a.li(Reg::A0, 5);
        a.call("double");
        a.out(Reg::V0);
        a.halt();
        a.label("double");
        a.add(Reg::V0, Reg::A0, Reg::A0);
        a.ret();
        let p = a.assemble().unwrap();
        let (cpu, r) = run_to_completion(&p, 100).unwrap();
        assert_eq!(cpu.reg(Reg::V0), 10);
        assert!(r.halted);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn recursion_with_stack_frames() {
        // fib(10) via naive recursion, exercising enter/leave.
        let mut a = asm();
        a.li(Reg::A0, 10);
        a.call("fib");
        a.out(Reg::V0);
        a.halt();
        a.label("fib");
        a.enter(&[Reg::S0, Reg::S1]);
        a.mov(Reg::S0, Reg::A0);
        a.li(Reg::V0, 1);
        a.slti(Reg::T0, Reg::S0, 2);
        a.bnez(Reg::T0, "base");
        a.addi(Reg::A0, Reg::S0, -1);
        a.call("fib");
        a.mov(Reg::S1, Reg::V0);
        a.addi(Reg::A0, Reg::S0, -2);
        a.call("fib");
        a.add(Reg::V0, Reg::V0, Reg::S1);
        a.label("base");
        a.leave(&[Reg::S0, Reg::S1]);
        let p = a.assemble().unwrap();
        let (cpu, _) = run_to_completion(&p, 100_000).unwrap();
        assert_eq!(cpu.reg(Reg::V0), 89); // fib(10) with fib(1)=fib(0)=1
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut a = asm();
        a.li(Reg::ZERO, 99);
        a.addi(Reg::T0, Reg::ZERO, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let (cpu, _) = run_to_completion(&p, 100).unwrap();
        assert_eq!(cpu.reg(Reg::ZERO), 0);
        assert_eq!(cpu.reg(Reg::T0), 1);
    }

    #[test]
    fn out_of_fuel_reported() {
        let mut a = asm();
        a.label("spin");
        a.br("spin");
        let p = a.assemble().unwrap();
        let err = run_to_completion(&p, 10).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { executed: 10 });
    }

    #[test]
    fn pc_out_of_range_reported() {
        let mut a = asm();
        a.addi(Reg::T0, Reg::ZERO, 1); // no halt: falls off the end
        let p = a.assemble().unwrap();
        let err = run_to_completion(&p, 10).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn dyninst_records_are_faithful() {
        let mut a = asm();
        let buf = a.words("buf", &[7]);
        a.li(Reg::A0, buf as i64);
        a.ld(Reg::T0, Reg::A0, 0);
        a.beqz(Reg::T0, "skip");
        a.addi(Reg::T1, Reg::T0, 1);
        a.label("skip");
        a.halt();
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let mut recs = Vec::new();
        while let Some(d) = cpu.step(&p).unwrap() {
            recs.push(d);
        }
        let ld = recs.iter().find(|d| d.inst.op == Opcode::Ld).unwrap();
        assert_eq!(ld.mem_addr, buf);
        assert_eq!(ld.dst_val, 7);
        let br = recs.iter().find(|d| d.inst.op == Opcode::Beqz).unwrap();
        assert!(!br.taken);
        assert_eq!(br.next_pc, br.pc + 1);
    }

    #[test]
    fn state_digest_changes_with_state() {
        let mut a = asm();
        a.li(Reg::T0, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let (c1, _) = run_to_completion(&p, 10).unwrap();
        let mut a2 = asm();
        a2.li(Reg::T0, 2);
        a2.halt();
        let p2 = a2.assemble().unwrap();
        let (c2, _) = run_to_completion(&p2, 10).unwrap();
        assert_ne!(c1.state_digest(), c2.state_digest());
    }
}
