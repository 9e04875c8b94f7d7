//! # reno-func — architectural (functional) simulator and oracle trace
//!
//! Executes [`reno_isa::Program`]s at architectural level: a register file, a
//! sparse byte-addressed memory, and precise sequential semantics. It serves
//! two roles:
//!
//! 1. **Reference semantics.** Workload kernels are validated against golden
//!    checksums produced here, and the timing simulator's retired state is
//!    cross-checked against it.
//! 2. **Oracle trace feed.** The cycle-level simulator in `reno-sim` is
//!    trace-driven: [`Oracle`] streams [`DynInst`] records (one per dynamic
//!    instruction on the correct path, with resolved values, effective
//!    addresses and branch outcomes) that the timing model consumes.
//!
//! ```
//! use reno_isa::{Asm, Reg};
//! use reno_func::Cpu;
//!
//! let mut a = Asm::new();
//! a.li(Reg::T0, 5);
//! a.li(Reg::V0, 0);
//! a.label("loop");
//! a.add(Reg::V0, Reg::V0, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, "loop");
//! a.out(Reg::V0);
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let mut cpu = Cpu::new(&prog);
//! let result = cpu.run_program(&prog, 1_000_000)?;
//! assert!(result.halted);
//! assert_eq!(cpu.reg(Reg::V0), 15); // 5+4+3+2+1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Checkpoint`] snapshots the architectural machine at any
//! dynamic-instruction boundary — registers, a memory-image delta against
//! the program's initial data segments, and all digest/counter state — and
//! restores it bit-identically. `reno-sample` builds its checkpointed
//! fast-forward on top of it, and [`Oracle::from_cpu`] turns any restored
//! machine into a trace feed so the timing simulator can resume mid-program.
//!
//! [`Oracle`] is the same machine exposed as an iterator: each step yields a
//! [`DynInst`] carrying the resolved destination value, effective address,
//! and taken/not-taken outcome, so the timing model never re-executes
//! anything — it only charges cycles. [`Cpu::state_digest`] and
//! [`Cpu::checksum`] summarize architectural state; the cross-simulator
//! equivalence tests compare them between this machine and the pipeline.
//!
//! ```
//! use reno_func::Oracle;
//! use reno_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.li(Reg::T0, 2);
//! a.addi(Reg::T0, Reg::T0, 3);
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let trace: Vec<_> = Oracle::new(&prog, 1 << 10).collect();
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace[1].dst_val, 5); // addi's resolved result rides the trace
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod cpu;
mod decode;
mod memory;
mod mix;
mod trace;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use cpu::{run_to_completion, Cpu, ExecError, RunResult};
pub use decode::{DecodedProgram, ExecObserver};
pub use memory::{Memory, PAGE_BYTES};
pub use mix::MixStats;
pub use trace::{DynInst, Oracle};
