use reno_core::{ItStats, RenoStats};
use reno_cpa::InstRecord;
use reno_mem::{CacheStats, HierarchyStats};
use reno_trace::PipelineTrace;
use reno_uarch::FrontEndStats;

/// Event counters accumulated during a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Scheduler replays caused by load-hit misspeculation.
    pub replays: u64,
    /// Memory-ordering violation squashes.
    pub violations: u64,
    /// Integrated loads whose retirement re-execution failed (squash).
    pub misintegrations: u64,
    /// Integrated loads re-executed successfully at retirement.
    pub reexec_loads: u64,
    /// Instructions squashed (all causes).
    pub squashed: u64,
    /// Cycles rename stalled for a free physical register.
    pub preg_stall_cycles: u64,
    /// Cycles rename stalled for ROB/IQ/LQ/SQ space.
    pub queue_stall_cycles: u64,
    /// Store-to-load forwards in the LSQ.
    pub store_forwards: u64,
    /// Instructions renamed from the squash-replay path (refetched after a
    /// violation or misintegration squash).
    pub replay_renamed: u64,
    /// Instructions selected for issue (includes replayed re-issues).
    pub issued: u64,
    /// Sum over cycles of issue-queue occupancy (for average occupancy).
    pub iq_occ_sum: u64,
    /// Sum over cycles of ROB occupancy.
    pub rob_occ_sum: u64,
}

/// A counter snapshot taken mid-run at a retired-instruction boundary
/// (see [`crate::Simulator::with_measure_window`]). The sampling subsystem
/// subtracts two marks to obtain the cycles and event counts of a detailed
/// measurement interval with the pipeline in full flight at both edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleMark {
    /// Cycle the mark was taken (the boundary instruction has retired).
    pub cycles: u64,
    /// Instructions retired so far.
    pub retired: u64,
    /// Event counters so far.
    pub stats: SimStats,
    /// RENO elimination counters so far.
    pub reno: RenoStats,
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions retired (equals the functional dynamic count).
    pub retired: u64,
    /// Event counters.
    pub stats: SimStats,
    /// RENO elimination statistics.
    pub reno: RenoStats,
    /// Integration table statistics.
    pub it: ItStats,
    /// Front-end prediction statistics.
    pub frontend: FrontEndStats,
    /// Cache statistics: (I$, D$, L2).
    pub caches: (CacheStats, CacheStats, CacheStats),
    /// Hierarchy-wide memory statistics (MSHR allocations, merges, queueing).
    pub hier: HierarchyStats,
    /// Architectural state digest of the completed program (for
    /// functional-vs-timing equivalence checks).
    ///
    /// This field, [`SimResult::checksum`] and [`SimResult::halted`] are
    /// read from the oracle when the run ends. After a drained run (halt
    /// or fuel exhausted) that is the program's state at its last retired
    /// instruction. A run stopped at its measure-window end mark (see
    /// [`crate::Simulator::with_measure_window`]) or at `max_cycles`
    /// reports wherever the oracle had executed ahead to, which depends on
    /// the feed.
    pub digest: u64,
    /// Output checksum of the program (oracle state; see
    /// [`SimResult::digest`]).
    pub checksum: u64,
    /// Whether the program ran to its `halt` (oracle state; see
    /// [`SimResult::digest`]).
    pub halted: bool,
    /// Per-instruction records for critical-path analysis (empty unless
    /// enabled in the configuration).
    pub cpa: Vec<InstRecord>,
    /// Snapshot at the measure-window start boundary, if one was requested
    /// with [`crate::Simulator::with_measure_window`] and reached.
    pub mark_start: Option<SampleMark>,
    /// Snapshot at the measure-window end boundary, if reached before the
    /// program (or the fuel) ran out.
    pub mark_end: Option<SampleMark>,
    /// Snapshot requested with [`crate::Simulator::with_extra_mark`], if
    /// reached before the run stopped.
    pub mark_extra: Option<SampleMark>,
    /// Structured pipeline event trace (present only when
    /// `MachineConfig::trace` was set; see `reno-trace` for the export).
    pub trace: Option<Box<PipelineTrace>>,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Percent of dynamic instructions eliminated or folded by RENO.
    pub fn elimination_pct(&self) -> f64 {
        self.reno.elimination_pct()
    }

    /// The measured window as a `(start, end)` mark pair, if a measure
    /// window was requested and its start boundary was reached. When the run
    /// ended (halt or fuel exhaustion) before the end boundary, the final
    /// totals stand in for the end mark — the window is then clipped and
    /// includes the pipeline drain.
    pub fn measured(&self) -> Option<(SampleMark, SampleMark)> {
        let start = self.mark_start?;
        let end = self.mark_end.unwrap_or(SampleMark {
            cycles: self.cycles,
            retired: self.retired,
            stats: self.stats,
            reno: self.reno,
        });
        Some((start, end))
    }

    /// Speedup of this run relative to `baseline`, in percent
    /// (positive = faster).
    pub fn speedup_pct_vs(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.retired, baseline.retired,
            "speedup requires identical work"
        );
        (baseline.cycles as f64 / self.cycles as f64 - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(cycles: u64, retired: u64) -> SimResult {
        SimResult {
            cycles,
            retired,
            stats: SimStats::default(),
            reno: RenoStats::default(),
            it: ItStats::default(),
            frontend: FrontEndStats::default(),
            caches: Default::default(),
            hier: HierarchyStats::default(),
            digest: 0,
            checksum: 0,
            halted: true,
            cpa: Vec::new(),
            mark_start: None,
            mark_end: None,
            mark_extra: None,
            trace: None,
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = blank(2000, 1000);
        let fast = blank(1600, 1000);
        assert!((base.ipc() - 0.5).abs() < 1e-12);
        assert!((fast.speedup_pct_vs(&base) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn measured_clips_to_final_totals_without_end_mark() {
        let mut r = blank(5000, 4000);
        assert!(r.measured().is_none(), "no window requested");
        r.mark_start = Some(SampleMark {
            cycles: 1000,
            retired: 900,
            ..Default::default()
        });
        let (s, e) = r.measured().expect("start mark present");
        assert_eq!((s.cycles, s.retired), (1000, 900));
        assert_eq!((e.cycles, e.retired), (5000, 4000), "clipped to totals");
        r.mark_end = Some(SampleMark {
            cycles: 3000,
            retired: 2900,
            ..Default::default()
        });
        let (_, e) = r.measured().expect("both marks present");
        assert_eq!((e.cycles, e.retired), (3000, 2900));
    }

    #[test]
    #[should_panic(expected = "identical work")]
    fn speedup_rejects_mismatched_runs() {
        let a = blank(100, 10);
        let b = blank(100, 20);
        let _ = a.speedup_pct_vs(&b);
    }
}
