//! A small two-pass assembler with labels, data sections and the pseudo-ops
//! (`mov`, `li`, `la_code`, `call`, `ret`, prologue/epilogue helpers) the
//! workload kernels are written in.

use crate::program::{DataSeg, DATA_BASE};
use crate::{Inst, Opcode, Program, Reg};
use std::collections::HashMap;
use std::fmt;

/// Errors produced by [`Asm::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is out of the 16-bit offset range.
    BranchOutOfRange { label: String, offset: i64 },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { label, offset } => {
                write!(f, "branch to `{label}` out of range (offset {offset})")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Clone, Debug)]
enum Fixup {
    /// `imm <- label_pc - (site_pc + 1)` (conditional branches, `br`, `jal`).
    Rel(String),
    /// `imm <- high 16 bits of label_pc` (paired with [`Fixup::Lo`] by `la_code`).
    Hi(String),
    /// `imm <- low 16 bits of label_pc`.
    Lo(String),
}

/// The assembler / program builder.
///
/// Emission methods append one instruction each; pseudo-instruction helpers
/// (`li`, `la_code`, `enter`/`leave`) may emit several. Data-section methods
/// allocate immediately and return the byte address, so data may be declared
/// at any point before or after the code that uses it — but [`Asm::addr_of`]
/// only works after the declaration.
///
/// ```
/// use reno_isa::{Asm, Reg};
/// let mut a = Asm::new();
/// let buf = a.zeros("buf", 64);
/// a.li(Reg::A0, buf as i64);
/// a.ld(Reg::T0, Reg::A0, 0);
/// a.halt();
/// let p = a.assemble()?;
/// assert_eq!(p.insts.len(), 3); // li fit in one addi
/// # Ok::<(), reno_isa::AsmError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Asm {
    name: String,
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, Fixup)>,
    data: Vec<DataSeg>,
    data_cursor: u64,
    data_labels: HashMap<String, u64>,
    dup_label: Option<String>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm {
            data_cursor: DATA_BASE,
            ..Asm::default()
        }
    }

    /// Creates an empty assembler for a named program.
    pub fn named(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            ..Asm::new()
        }
    }

    /// Current instruction index (the pc the next emitted instruction gets).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Asm {
        self.insts.push(inst);
        self
    }

    // ---------------------------------------------------------------- labels

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: &str) -> &mut Asm {
        if self.labels.insert(name.to_string(), self.here()).is_some() {
            self.dup_label.get_or_insert_with(|| name.to_string());
        }
        self
    }

    // ------------------------------------------------------------------ data

    /// Allocates an initialized data segment holding a copy of `bytes`;
    /// returns its byte address.
    pub fn data(&mut self, name: &str, bytes: &[u8]) -> u64 {
        self.data_owned(name, bytes.to_vec())
    }

    /// Like [`Asm::data`], but stores the given buffer itself as the
    /// segment's contents, without copying it.
    pub fn data_owned(&mut self, name: &str, bytes: Vec<u8>) -> u64 {
        let addr = self.data_cursor;
        self.data_cursor += (bytes.len() as u64 + 7) & !7;
        self.data.push(DataSeg { addr, bytes });
        self.data_labels.insert(name.to_string(), addr);
        addr
    }

    /// Allocates `len` zero bytes; returns the byte address.
    pub fn zeros(&mut self, name: &str, len: usize) -> u64 {
        self.data_owned(name, vec![0u8; len])
    }

    /// Allocates an array of 64-bit little-endian words; returns the address.
    pub fn words(&mut self, name: &str, ws: &[u64]) -> u64 {
        let mut bytes = Vec::with_capacity(ws.len() * 8);
        for w in ws {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data_owned(name, bytes)
    }

    /// Byte address of a previously declared data segment.
    ///
    /// # Panics
    ///
    /// Panics if `name` has not been declared.
    pub fn addr_of(&self, name: &str) -> u64 {
        *self
            .data_labels
            .get(name)
            .unwrap_or_else(|| panic!("unknown data label `{name}`"))
    }

    // ----------------------------------------------------------- ALU reg-reg

    /// `rd <- rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Add, rd, rs1, rs2))
    }
    /// `rd <- rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Sub, rd, rs1, rs2))
    }
    /// `rd <- rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::And, rd, rs1, rs2))
    }
    /// `rd <- rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Or, rd, rs1, rs2))
    }
    /// `rd <- rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Xor, rd, rs1, rs2))
    }
    /// `rd <- rs1 << (rs2 & 63)`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Sll, rd, rs1, rs2))
    }
    /// `rd <- rs1 >> (rs2 & 63)` (logical)
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Srl, rd, rs1, rs2))
    }
    /// `rd <- rs1 >> (rs2 & 63)` (arithmetic)
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Sra, rd, rs1, rs2))
    }
    /// `rd <- (rs1 < rs2) as i64` (signed)
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Slt, rd, rs1, rs2))
    }
    /// `rd <- (rs1 < rs2) as u64` (unsigned)
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Sltu, rd, rs1, rs2))
    }
    /// `rd <- (rs1 == rs2) as i64`
    pub fn seq(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Seq, rd, rs1, rs2))
    }
    /// `rd <- rs1 * rs2` (low 64 bits)
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::alu_rr(Opcode::Mul, rd, rs1, rs2))
    }

    // ----------------------------------------------------------- ALU reg-imm

    /// `rd <- rs1 + sext(imm)` — the instruction RENO_CF folds.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Addi, rd, rs1, imm))
    }
    /// `rd <- rs1 & zext(imm)`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Andi, rd, rs1, imm))
    }
    /// `rd <- rs1 | zext(imm)`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Ori, rd, rs1, imm))
    }
    /// `rd <- rs1 ^ zext(imm)`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Xori, rd, rs1, imm))
    }
    /// `rd <- rs1 << (imm & 63)`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Slli, rd, rs1, imm))
    }
    /// `rd <- rs1 >> (imm & 63)` (logical)
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Srli, rd, rs1, imm))
    }
    /// `rd <- rs1 >> (imm & 63)` (arithmetic)
    pub fn srai(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Srai, rd, rs1, imm))
    }
    /// `rd <- (rs1 < sext(imm)) as i64`
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Slti, rd, rs1, imm))
    }
    /// `rd <- sext(imm) << 16`
    pub fn lui(&mut self, rd: Reg, imm: i16) -> &mut Asm {
        self.emit(Inst::alu_ri(Opcode::Lui, rd, Reg::ZERO, imm))
    }

    // --------------------------------------------------------------- pseudos

    /// Register move: `addi rd, rs, 0` — the idiom RENO_ME eliminates.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.addi(rd, rs, 0)
    }

    /// Loads an arbitrary 64-bit constant with the shortest sequence
    /// (1 instruction for i16, 2 for i32, up to 7 in general).
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Asm {
        if let Ok(v) = i16::try_from(value) {
            return self.addi(rd, Reg::ZERO, v);
        }
        if let Ok(v) = i32::try_from(value) {
            let hi = (v >> 16) as i16;
            let lo = (v & 0xffff) as u16 as i16;
            self.lui(rd, hi);
            if lo != 0 {
                self.ori(rd, rd, lo);
            }
            return self;
        }
        // General 64-bit: materialize 16 bits at a time from the top.
        let v = value as u64;
        self.addi(rd, Reg::ZERO, (v >> 48) as u16 as i16);
        for shift in [32, 16, 0] {
            self.slli(rd, rd, 16);
            let chunk = ((v >> shift) & 0xffff) as u16 as i16;
            if chunk != 0 {
                self.ori(rd, rd, chunk);
            }
        }
        self
    }

    // ---------------------------------------------------------------- memory

    /// 8-byte load `rd <- mem[base + disp]`.
    pub fn ld(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::load(Opcode::Ld, rd, base, disp))
    }
    /// 4-byte sign-extending load.
    pub fn ldl(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::load(Opcode::Ldl, rd, base, disp))
    }
    /// 2-byte sign-extending load.
    pub fn ldh(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::load(Opcode::Ldh, rd, base, disp))
    }
    /// 1-byte zero-extending load.
    pub fn ldbu(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::load(Opcode::Ldbu, rd, base, disp))
    }
    /// 8-byte store `mem[base + disp] <- src`.
    pub fn st(&mut self, src: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::store(Opcode::St, src, base, disp))
    }
    /// 4-byte store.
    pub fn stl(&mut self, src: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::store(Opcode::Stl, src, base, disp))
    }
    /// 2-byte store.
    pub fn sth(&mut self, src: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::store(Opcode::Sth, src, base, disp))
    }
    /// 1-byte store.
    pub fn stb(&mut self, src: Reg, base: Reg, disp: i16) -> &mut Asm {
        self.emit(Inst::store(Opcode::Stb, src, base, disp))
    }

    // --------------------------------------------------------------- control

    fn branch_to(&mut self, op: Opcode, rs1: Reg, target: &str) -> &mut Asm {
        let site = self.here();
        self.fixups.push((site, Fixup::Rel(target.to_string())));
        self.emit(Inst {
            op,
            rd: Reg::ZERO,
            rs1,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }

    /// Branch to `target` if `rs1 == 0`.
    pub fn beqz(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Beqz, rs1, target)
    }
    /// Branch to `target` if `rs1 != 0`.
    pub fn bnez(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Bnez, rs1, target)
    }
    /// Branch to `target` if `rs1 < 0`.
    pub fn bltz(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Bltz, rs1, target)
    }
    /// Branch to `target` if `rs1 >= 0`.
    pub fn bgez(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Bgez, rs1, target)
    }
    /// Branch to `target` if `rs1 <= 0`.
    pub fn blez(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Blez, rs1, target)
    }
    /// Branch to `target` if `rs1 > 0`.
    pub fn bgtz(&mut self, rs1: Reg, target: &str) -> &mut Asm {
        self.branch_to(Opcode::Bgtz, rs1, target)
    }
    /// Unconditional jump to `target`.
    pub fn br(&mut self, target: &str) -> &mut Asm {
        let site = self.here();
        self.fixups.push((site, Fixup::Rel(target.to_string())));
        self.emit(Inst {
            op: Opcode::Br,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Call `target`: `ra <- pc + 1; pc <- target`.
    pub fn call(&mut self, target: &str) -> &mut Asm {
        let site = self.here();
        self.fixups.push((site, Fixup::Rel(target.to_string())));
        self.emit(Inst {
            op: Opcode::Jal,
            rd: Reg::RA,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Return: `pc <- ra`.
    pub fn ret(&mut self) -> &mut Asm {
        self.emit(Inst {
            op: Opcode::Jr,
            rd: Reg::ZERO,
            rs1: Reg::RA,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Indirect jump: `pc <- rs1`.
    pub fn jr(&mut self, rs1: Reg) -> &mut Asm {
        self.emit(Inst {
            op: Opcode::Jr,
            rd: Reg::ZERO,
            rs1,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Indirect call: `ra <- pc + 1; pc <- rs1`.
    pub fn callr(&mut self, rs1: Reg) -> &mut Asm {
        self.emit(Inst {
            op: Opcode::Jalr,
            rd: Reg::RA,
            rs1,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Loads the instruction index of a code label (always 2 instructions),
    /// for indirect jumps/calls through registers.
    pub fn la_code(&mut self, rd: Reg, target: &str) -> &mut Asm {
        let site = self.here();
        self.fixups.push((site, Fixup::Hi(target.to_string())));
        self.lui(rd, 0);
        let site = self.here();
        self.fixups.push((site, Fixup::Lo(target.to_string())));
        self.ori(rd, rd, 0)
    }

    // ------------------------------------------------------------------ misc

    /// Stops the machine.
    pub fn halt(&mut self) -> &mut Asm {
        self.emit(Inst {
            op: Opcode::Halt,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }
    /// Folds `rs1` into the output checksum.
    pub fn out(&mut self, rs1: Reg) -> &mut Asm {
        self.emit(Inst {
            op: Opcode::Out,
            rd: Reg::ZERO,
            rs1,
            rs2: Reg::ZERO,
            imm: 0,
        })
    }

    // ------------------------------------------------------------- ABI sugar

    /// Function prologue: pushes a frame holding `ra` plus `saved`, in order.
    ///
    /// Together with [`Asm::leave`] this generates exactly the stack-frame
    /// store/load pairs that RENO_RA (speculative memory bypassing) targets.
    pub fn enter(&mut self, saved: &[Reg]) -> &mut Asm {
        let frame = (1 + saved.len()) as i16 * 8;
        self.addi(Reg::SP, Reg::SP, -frame);
        self.st(Reg::RA, Reg::SP, 0);
        for (i, r) in saved.iter().enumerate() {
            self.st(*r, Reg::SP, (i as i16 + 1) * 8);
        }
        self
    }

    /// Function epilogue matching [`Asm::enter`]: pops the frame and returns.
    pub fn leave(&mut self, saved: &[Reg]) -> &mut Asm {
        let frame = (1 + saved.len()) as i16 * 8;
        self.ld(Reg::RA, Reg::SP, 0);
        for (i, r) in saved.iter().enumerate() {
            self.ld(*r, Reg::SP, (i as i16 + 1) * 8);
        }
        self.addi(Reg::SP, Reg::SP, frame);
        self.ret()
    }

    // -------------------------------------------------------------- assemble

    /// Resolves labels and produces the final [`Program`].
    ///
    /// The assembler is consumed: its instructions and data segments move
    /// into the program without a copy (a kernel's data can run to
    /// megabytes). To keep using an assembler afterwards, assemble a clone.
    ///
    /// # Errors
    ///
    /// Returns an error for undefined or duplicate labels, or branch offsets
    /// that do not fit in 16 bits.
    pub fn assemble(self) -> Result<Program, AsmError> {
        if let Some(l) = self.dup_label {
            return Err(AsmError::DuplicateLabel(l));
        }
        let mut insts = self.insts;
        for (site, fixup) in &self.fixups {
            let (label, value) = match fixup {
                Fixup::Rel(l) | Fixup::Hi(l) | Fixup::Lo(l) => {
                    let target = *self
                        .labels
                        .get(l)
                        .ok_or_else(|| AsmError::UndefinedLabel(l.clone()))?;
                    (l, target as i64)
                }
            };
            let imm = match fixup {
                Fixup::Rel(_) => {
                    let off = value - (*site as i64 + 1);
                    i16::try_from(off).map_err(|_| AsmError::BranchOutOfRange {
                        label: label.clone(),
                        offset: off,
                    })?
                }
                Fixup::Hi(_) => (value >> 16) as i16,
                Fixup::Lo(_) => (value & 0xffff) as u16 as i16,
            };
            insts[*site].imm = imm;
        }
        Ok(Program {
            name: self.name,
            insts,
            entry: 0,
            data: self.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        a.li(Reg::T0, 3);
        a.label("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "top");
        a.beqz(Reg::T0, "end");
        a.halt();
        a.label("end");
        a.halt();
        let p = a.assemble().unwrap();
        // bnez at index 2 targets index 1 -> imm = 1 - 3 = -2
        assert_eq!(p.insts[2].imm, -2);
        // beqz at index 3 targets index 5 -> imm = 5 - 4 = 1
        assert_eq!(p.insts[3].imm, 1);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new();
        a.br("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Asm::new();
        a.label("x");
        a.halt();
        a.label("x");
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn li_lengths() {
        let mut a = Asm::new();
        a.li(Reg::T0, 7);
        assert_eq!(a.here(), 1);
        a.li(Reg::T0, 0x12345);
        assert_eq!(a.here(), 3);
        a.li(Reg::T0, -5_000_000);
        assert_eq!(a.here(), 5);
        a.li(Reg::T0, 0x1234_5678_9abc_def0);
        assert_eq!(a.here(), 12);
    }

    #[test]
    fn data_allocation_is_aligned_and_addressable() {
        let mut a = Asm::new();
        let x = a.data("x", &[1, 2, 3]);
        let y = a.words("y", &[42]);
        assert_eq!(x, DATA_BASE);
        assert_eq!(y, DATA_BASE + 8, "3 bytes round up to 8");
        assert_eq!(a.addr_of("x"), x);
        assert_eq!(a.addr_of("y"), y);
    }

    #[test]
    fn la_code_emits_hi_lo_pair() {
        let mut a = Asm::new();
        a.la_code(Reg::T12, "f");
        a.callr(Reg::T12);
        a.halt();
        a.label("f");
        a.ret();
        let p = a.assemble().unwrap();
        assert_eq!(p.insts[0].imm, 0, "hi16 of index 4");
        assert_eq!(p.insts[1].imm, 4, "lo16 of index 4");
    }

    #[test]
    fn enter_leave_are_symmetric() {
        let mut a = Asm::new();
        a.label("f");
        a.enter(&[Reg::S0, Reg::S1]);
        a.mov(Reg::S0, Reg::A0);
        a.leave(&[Reg::S0, Reg::S1]);
        let p = a.assemble().unwrap();
        // enter: addi sp,-24; st ra; st s0; st s1 => 4 insts
        assert_eq!(p.insts[0].imm, -24);
        assert!(p.insts[1].op.is_store());
        // leave: ld ra; ld s0; ld s1; addi sp,+24; jr ra => 5 insts
        let n = p.insts.len();
        assert_eq!(p.insts[n - 2].imm, 24);
        assert_eq!(p.insts[n - 1].op, Opcode::Jr);
    }
}
