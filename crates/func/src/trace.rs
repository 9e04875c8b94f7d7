use crate::{Cpu, DecodedProgram, ExecError};
use reno_isa::{Inst, Program, RenameClass};

/// One dynamic instruction on the architecturally correct path, as observed
/// by the functional oracle.
///
/// The timing simulator consumes these records: it derives all *timing* from
/// its own pipeline model, and uses the recorded values only where hardware
/// would have produced the same value (branch outcomes once the branch
/// executes, load values once the load accesses the cache, etc.).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// Architecturally correct next pc.
    pub next_pc: usize,
    /// For control instructions: whether the branch/jump was taken.
    pub taken: bool,
    /// Value written to the destination register (0 if none).
    pub dst_val: i64,
    /// Effective address for loads/stores (0 otherwise).
    pub mem_addr: u64,
}

impl DynInst {
    /// Whether this dynamic instruction redirected fetch (taken control).
    pub fn redirects(&self) -> bool {
        self.inst.op.is_control() && self.taken
    }
}

/// Streams the dynamic instruction trace of a program, lazily.
///
/// ```
/// use reno_isa::{Asm, Reg};
/// use reno_func::Oracle;
///
/// let mut a = Asm::new();
/// a.li(Reg::T0, 2);
/// a.label("l");
/// a.addi(Reg::T0, Reg::T0, -1);
/// a.bnez(Reg::T0, "l");
/// a.halt();
/// let p = a.assemble()?;
/// let trace: Vec<_> = Oracle::new(&p, 100).collect();
/// assert_eq!(trace.len(), 6); // li, (addi, bnez) x2, halt
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Oracle<'p> {
    cpu: Cpu,
    /// The program's instruction table, decoded once when the oracle is
    /// built: both feeds execute its templates ([`Cpu::refill_decoded`] for
    /// [`Oracle::refill`], [`Cpu::step_decoded`] for [`Iterator::next`])
    /// instead of re-decoding from the program image, shaving the oracle
    /// tax off every detailed simulation cycle. The [`DynInst`] stream is
    /// bit-identical to the [`Cpu::step`] reference path.
    dec: DecodedProgram<'p>,
    /// Instructions the stream may still yield.
    fuel: u64,
    /// The execution error that ended the stream, if any.
    error: Option<ExecError>,
}

impl<'p> Oracle<'p> {
    /// Creates an oracle over `program` with an instruction budget.
    pub fn new(program: &'p Program, fuel: u64) -> Oracle<'p> {
        Oracle::from_cpu(Cpu::new(program), program, fuel)
    }

    /// Creates an oracle resuming from an existing machine state (e.g. a
    /// restored [`crate::Checkpoint`]): the stream continues from `cpu`'s
    /// current pc with `fuel` more instructions of budget.
    pub fn from_cpu(cpu: Cpu, program: &'p Program, fuel: u64) -> Oracle<'p> {
        Oracle {
            cpu,
            dec: DecodedProgram::new(program),
            fuel,
            error: None,
        }
    }

    /// The underlying architectural machine (for state inspection).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// An execution error, if one stopped the stream.
    pub fn error(&self) -> Option<&ExecError> {
        self.error.as_ref()
    }

    /// Whether the program ran to its `halt`.
    pub fn halted(&self) -> bool {
        self.cpu.halted()
    }

    /// Block-batched feed: executes up to `room` instructions (bounded by
    /// the remaining fuel) in one call, writing each [`DynInst`] and its
    /// decode-time [`RenameClass`] into the caller's sequence-indexed rings
    /// at `seq & mask`. Returns how many records were produced; 0 means the
    /// stream is over (fuel exhausted, `halt` executed, or an execution
    /// error — see [`Oracle::error`]), matching the point where
    /// [`Iterator::next`] would first return `None`.
    ///
    /// The record stream is bit-identical to the per-instruction iterator;
    /// a caller draining either interface observes the same sequence. The
    /// per-call dispatch and fuel check are paid once per batch, and the
    /// block lookup once per block, instead of once per instruction.
    pub fn refill(
        &mut self,
        ring: &mut [DynInst],
        classes: &mut [RenameClass],
        mask: u64,
        room: u64,
    ) -> usize {
        if self.error.is_some() || self.fuel == 0 {
            return 0;
        }
        let cap = room.min(self.fuel);
        match self.cpu.refill_decoded(&self.dec, ring, classes, mask, cap) {
            Ok(n) => {
                self.fuel -= n as u64;
                n
            }
            Err(e) => {
                self.error = Some(e);
                0
            }
        }
    }
}

impl Iterator for Oracle<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.error.is_some() || self.fuel == 0 {
            return None;
        }
        self.fuel -= 1;
        match self.cpu.step_decoded(&self.dec) {
            Ok(d) => d,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::{Asm, Opcode, Reg};

    #[test]
    fn oracle_stops_at_halt() {
        let mut a = Asm::new();
        a.li(Reg::T0, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut o = Oracle::new(&p, 100);
        assert_eq!(o.by_ref().count(), 2);
        assert!(o.halted());
        assert!(o.error().is_none());
    }

    #[test]
    fn oracle_reports_errors() {
        let mut a = Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 1); // falls off the end
        let p = a.assemble().unwrap();
        let mut o = Oracle::new(&p, 100);
        assert_eq!(o.by_ref().count(), 1);
        assert!(matches!(o.error(), Some(ExecError::PcOutOfRange { .. })));
    }

    #[test]
    fn oracle_respects_fuel() {
        let mut a = Asm::new();
        a.label("spin");
        a.br("spin");
        let p = a.assemble().unwrap();
        let o = Oracle::new(&p, 5);
        assert_eq!(o.count(), 5);
    }

    #[test]
    fn redirects_flag() {
        let mut a = Asm::new();
        a.li(Reg::T0, 0);
        a.beqz(Reg::T0, "t"); // taken
        a.halt();
        a.label("t");
        a.bnez(Reg::T0, "t"); // not taken
        a.halt();
        let p = a.assemble().unwrap();
        let ds: Vec<_> = Oracle::new(&p, 100).collect();
        let taken = ds.iter().find(|d| d.inst.op == Opcode::Beqz).unwrap();
        assert!(taken.redirects());
        let not = ds.iter().find(|d| d.inst.op == Opcode::Bnez).unwrap();
        assert!(!not.redirects());
    }
}
