use reno_core::RenoConfig;
use reno_mem::HierarchyConfig;
use reno_uarch::{BpredConfig, BtbConfig, StoreSetConfig};

/// Full machine configuration.
///
/// [`MachineConfig::four_wide`] is the paper's baseline; the builder-style
/// `with_*` methods produce the evaluation's variants (register file sweeps,
/// issue-width reductions, 2-cycle scheduling loop, fusion-cost ablation).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub rename_width: usize,
    /// Total instructions issued per cycle.
    pub issue_width: usize,
    /// Integer ALU ports (multiplies share them).
    pub alu_ports: usize,
    /// Load issue ports.
    pub load_ports: usize,
    /// Store (AGU) issue ports; also the retirement D$ write ports shared
    /// with integrated-load re-execution.
    pub store_ports: usize,
    /// Instructions retired per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Issue queue entries.
    pub iq_size: usize,
    /// Load queue entries.
    pub lq_size: usize,
    /// Store queue entries.
    pub sq_size: usize,
    /// Wakeup-select loop latency in cycles (1 = back-to-back dependent
    /// single-cycle ops; 2 = the "loose loop" of Fig 12).
    pub sched_loop: u64,
    /// Ablation: charge one extra cycle for *every* fused operation
    /// (paper §3.3: RENO_CF loses only 20–25% of its advantage).
    pub fused_extra_cycle: bool,
    /// The RENO renamer configuration (includes the physical register count).
    pub reno: RenoConfig,
    /// Memory hierarchy configuration.
    pub hier: HierarchyConfig,
    /// Branch direction predictor.
    pub bpred: BpredConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Store-sets memory dependence predictor.
    pub storesets: StoreSetConfig,
    /// Collect per-instruction records for critical-path analysis.
    pub collect_cpa: bool,
    /// Record a structured pipeline event trace (fetch/rename/issue/
    /// complete/retire/squash per dynamic instruction, plus per-cycle
    /// occupancy samples) for export as Chrome trace-event JSON via
    /// `reno-trace`. Zero-cost when off: the sink is `None` and the hot
    /// loop only ever checks the option. Timing and counters are identical
    /// either way (enforced by the `trace_differential` tests).
    pub trace: bool,
}

impl MachineConfig {
    /// The paper's 4-wide baseline: fetch/rename/commit 4, issue up to 4
    /// (3 integer + 1 load + 1 store ports), 128 ROB / 50 IQ / 48 LQ / 24 SQ,
    /// 160 physical registers, 1-cycle scheduling loop.
    pub fn four_wide(reno: RenoConfig) -> MachineConfig {
        MachineConfig {
            fetch_width: 4,
            rename_width: 4,
            issue_width: 4,
            alu_ports: 3,
            load_ports: 1,
            store_ports: 1,
            commit_width: 4,
            rob_size: 128,
            iq_size: 50,
            lq_size: 48,
            sq_size: 24,
            sched_loop: 1,
            fused_extra_cycle: false,
            reno,
            hier: HierarchyConfig::default(),
            bpred: BpredConfig::default(),
            btb: BtbConfig::default(),
            ras_entries: 32,
            storesets: StoreSetConfig::default(),
            collect_cpa: false,
            trace: false,
        }
    }

    /// The paper's 6-wide configuration: issue up to 6 (4 integer + 2 loads
    /// + 1 store).
    pub fn six_wide(reno: RenoConfig) -> MachineConfig {
        MachineConfig {
            fetch_width: 6,
            rename_width: 6,
            issue_width: 6,
            alu_ports: 4,
            load_ports: 2,
            store_ports: 1,
            commit_width: 6,
            ..MachineConfig::four_wide(reno)
        }
    }

    /// Fig 11 (bottom): 2 integer ALUs, total issue width 3 ("i2t3").
    pub fn with_issue_i2t3(mut self) -> MachineConfig {
        self.alu_ports = 2;
        self.issue_width = 3;
        self
    }

    /// Fig 11 (bottom): 2 integer ALUs, total issue width 2 ("i2t2").
    pub fn with_issue_i2t2(mut self) -> MachineConfig {
        self.alu_ports = 2;
        self.issue_width = 2;
        self
    }

    /// Fig 11 (top): shrink the physical register file.
    pub fn with_pregs(mut self, n: usize) -> MachineConfig {
        self.reno.total_pregs = n;
        self
    }

    /// Fig 12: a 2-cycle wakeup-select loop.
    pub fn with_sched_loop(mut self, cycles: u64) -> MachineConfig {
        self.sched_loop = cycles;
        self
    }

    /// §3.3 ablation: every fused operation pays one extra cycle.
    pub fn with_fused_extra_cycle(mut self) -> MachineConfig {
        self.fused_extra_cycle = true;
        self
    }

    /// Enable critical-path record collection (Fig 9).
    pub fn with_cpa(mut self) -> MachineConfig {
        self.collect_cpa = true;
        self
    }

    /// Record a structured pipeline event trace for Chrome/Perfetto export
    /// (see [`MachineConfig::trace`]).
    pub fn with_trace(mut self) -> MachineConfig {
        self.trace = true;
        self
    }

    /// Swap in a different RENO configuration, keeping the machine identical.
    pub fn with_reno(mut self, reno: RenoConfig) -> MachineConfig {
        let pregs = self.reno.total_pregs;
        self.reno = reno;
        self.reno.total_pregs = pregs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_wide_matches_paper() {
        let c = MachineConfig::four_wide(RenoConfig::baseline());
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.iq_size, 50);
        assert_eq!(c.lq_size, 48);
        assert_eq!(c.sq_size, 24);
        assert_eq!(c.reno.total_pregs, 160);
        assert_eq!((c.alu_ports, c.load_ports, c.store_ports), (3, 1, 1));
    }

    #[test]
    fn six_wide_ports() {
        let c = MachineConfig::six_wide(RenoConfig::reno());
        assert_eq!((c.issue_width, c.alu_ports, c.load_ports), (6, 4, 2));
        assert_eq!(c.rob_size, 128, "window sizes unchanged");
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::four_wide(RenoConfig::reno())
            .with_issue_i2t2()
            .with_pregs(96)
            .with_sched_loop(2);
        assert_eq!((c.alu_ports, c.issue_width), (2, 2));
        assert_eq!(c.reno.total_pregs, 96);
        assert_eq!(c.sched_loop, 2);
    }

    #[test]
    fn with_reno_preserves_pregs() {
        let c = MachineConfig::four_wide(RenoConfig::baseline())
            .with_pregs(112)
            .with_reno(RenoConfig::reno());
        assert_eq!(c.reno.total_pregs, 112);
        assert!(c.reno.const_fold);
    }
}
