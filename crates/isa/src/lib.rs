//! # reno-isa — the target instruction set of the RENO reproduction
//!
//! A 64-bit, Alpha-flavoured RISC instruction set. It exists to exercise the
//! idioms that the RENO paper's optimizations key on:
//!
//! * register **moves** are pseudo-instructions that expand to
//!   register-immediate additions with an immediate of zero (`addi rd, rs, 0`),
//! * **register-immediate additions** with 16-bit immediates are the workhorse
//!   of address arithmetic, loop control and stack-frame management,
//! * loads and stores use base + 16-bit displacement addressing,
//! * calls push/pop stack frames by decrementing/incrementing `sp`.
//!
//! The crate provides the instruction model ([`Inst`], [`Opcode`], [`Reg`]),
//! a 32-bit binary [`encode`]/[`decode`] pair, an [`Asm`] assembler with labels
//! and data sections, and a [`Program`] container consumed by the functional
//! and timing simulators. [`Asm::assemble`] consumes the assembler and moves
//! its instructions and data into the [`Program`]; [`Asm::data_owned`] takes
//! a segment's bytes by value, so a kernel's data is built once and never
//! copied on its way into the program.
//!
//! ```
//! use reno_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.li(Reg::A0, 10);
//! a.label("loop");
//! a.addi(Reg::A0, Reg::A0, -1);
//! a.bnez(Reg::A0, "loop");
//! a.halt();
//! let prog = a.assemble().expect("label resolution succeeds");
//! assert_eq!(prog.insts.len(), 4);
//! ```

mod asm;
mod encode;
mod inst;
mod op;
mod program;
mod rclass;
mod reg;

pub use asm::{Asm, AsmError};
pub use encode::{decode, encode, DecodeError};
pub use inst::Inst;
pub use op::{MemWidth, OpClass, Opcode};
pub use program::{Program, DATA_BASE, HEAP_BASE, STACK_TOP, TEXT_BASE};
pub use rclass::RenameClass;
pub use reg::Reg;
