use reno_isa::{Inst, OpClass};

/// Dynamic instruction-mix statistics.
///
/// The RENO paper motivates RENO_CF with the observation that
/// register-immediate additions account for ~12% (SPECint) and ~17%
/// (MediaBench) of dynamic instructions, and register moves for ~4% on
/// average; this type measures exactly those populations (`table_mix`
/// regenerates the paper's mix numbers from it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixStats {
    /// Total dynamic instructions.
    pub total: u64,
    /// Register moves (`addi rd, rs, 0`) — RENO_ME's targets.
    pub moves: u64,
    /// Register-immediate additions with non-zero immediate — RENO_CF's
    /// targets beyond moves.
    pub reg_imm_adds: u64,
    /// Other register-immediate ALU operations.
    pub other_alu_ri: u64,
    /// Register-register ALU operations.
    pub alu_rr: u64,
    /// Multiplies.
    pub muls: u64,
    /// Loads — RENO_CSE+RA's primary targets.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Unconditional jumps, calls and returns.
    pub jumps: u64,
    /// Halt/out and anything else.
    pub other: u64,
}

impl MixStats {
    /// Records one dynamic instruction.
    pub fn record(&mut self, inst: &Inst) {
        self.total += 1;
        if inst.is_move() {
            self.moves += 1;
            return;
        }
        match inst.op.class() {
            OpClass::AluRI => {
                if inst.op.is_reg_imm_add() {
                    self.reg_imm_adds += 1;
                } else {
                    self.other_alu_ri += 1;
                }
            }
            OpClass::AluRR => self.alu_rr += 1,
            OpClass::Mul => self.muls += 1,
            OpClass::Load => self.loads += 1,
            OpClass::Store => self.stores += 1,
            OpClass::CondBranch => self.cond_branches += 1,
            OpClass::Jump | OpClass::JumpReg => self.jumps += 1,
            OpClass::Misc => self.other += 1,
        }
    }

    /// Percentage helper: `part / total * 100`.
    pub fn pct(&self, part: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            part as f64 * 100.0 / self.total as f64
        }
    }

    /// Percentage of dynamic instructions that are register moves.
    pub fn move_pct(&self) -> f64 {
        self.pct(self.moves)
    }

    /// Percentage that are register-immediate additions (moves excluded),
    /// the paper's headline "12% / 17%" population.
    pub fn reg_imm_add_pct(&self) -> f64 {
        self.pct(self.reg_imm_adds)
    }

    /// Percentage that are loads.
    pub fn load_pct(&self) -> f64 {
        self.pct(self.loads)
    }

    /// Merges another sample into this one.
    pub fn merge(&mut self, other: &MixStats) {
        self.total += other.total;
        self.moves += other.moves;
        self.reg_imm_adds += other.reg_imm_adds;
        self.other_alu_ri += other.other_alu_ri;
        self.alu_rr += other.alu_rr;
        self.muls += other.muls;
        self.loads += other.loads;
        self.stores += other.stores;
        self.cond_branches += other.cond_branches;
        self.jumps += other.jumps;
        self.other += other.other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::{Opcode, Reg};

    #[test]
    fn classification() {
        let mut m = MixStats::default();
        m.record(&Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T1, 0)); // move
        m.record(&Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T1, 8)); // reg-imm add
        m.record(&Inst::alu_ri(Opcode::Ori, Reg::T0, Reg::T1, 8)); // other RI
        m.record(&Inst::alu_rr(Opcode::Add, Reg::T0, Reg::T1, Reg::T2));
        m.record(&Inst::load(Opcode::Ld, Reg::T0, Reg::SP, 0));
        m.record(&Inst::store(Opcode::St, Reg::T0, Reg::SP, 0));
        m.record(&Inst::branch(Opcode::Bnez, Reg::T0, 1));
        assert_eq!(m.total, 7);
        assert_eq!(m.moves, 1);
        assert_eq!(m.reg_imm_adds, 1);
        assert_eq!(m.other_alu_ri, 1);
        assert_eq!(m.alu_rr, 1);
        assert_eq!(m.loads, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.cond_branches, 1);
    }

    #[test]
    fn percentages() {
        let mut m = MixStats::default();
        for _ in 0..3 {
            m.record(&Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T1, 4));
        }
        m.record(&Inst::load(Opcode::Ld, Reg::T0, Reg::SP, 0));
        assert!((m.reg_imm_add_pct() - 75.0).abs() < 1e-9);
        assert!((m.load_pct() - 25.0).abs() < 1e-9);
        assert_eq!(MixStats::default().move_pct(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MixStats::default();
        a.record(&Inst::load(Opcode::Ld, Reg::T0, Reg::SP, 0));
        let mut b = MixStats::default();
        b.record(&Inst::load(Opcode::Ld, Reg::T0, Reg::SP, 8));
        a.merge(&b);
        assert_eq!(a.loads, 2);
        assert_eq!(a.total, 2);
    }
}
