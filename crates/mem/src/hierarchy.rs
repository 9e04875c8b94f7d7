use crate::{Cache, CacheConfig, CacheStats};
use reno_trace::{CacheLevel, SysEvent, SysEventKind};

/// Which level of the hierarchy served an access (used by the critical-path
/// analyzer to split "load exec" from "load mem" criticality).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// First-level cache.
    L1,
    /// Unified second-level cache.
    L2,
    /// Main memory.
    Mem,
}

/// Configuration of the full hierarchy. Defaults mirror the paper's §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Instruction cache (16KB, 2-way, 32B, 1 cycle).
    pub l1i: CacheConfig,
    /// Data cache (32KB, 2-way, 32B, 2 cycles).
    pub l1d: CacheConfig,
    /// Unified L2 (512KB, 4-way, 64B, 10 cycles).
    pub l2: CacheConfig,
    /// Main memory access latency in core cycles.
    pub mem_latency: u64,
    /// Bus beat duration in core cycles (16B bus at quarter core clock = 4).
    pub bus_beat_cycles: u64,
    /// Bytes transferred per bus beat.
    pub bus_bytes_per_beat: u64,
    /// Maximum outstanding misses to memory.
    pub max_outstanding: usize,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 16 << 10,
                assoc: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 2,
                line_bytes: 32,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 << 10,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 10,
            },
            mem_latency: 100,
            bus_beat_cycles: 4,
            bus_bytes_per_beat: 16,
            max_outstanding: 16,
        }
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Accesses that went to main memory.
    pub mem_accesses: u64,
    /// Cycles an access spent queued for an outstanding-miss slot or the bus.
    pub queue_cycles: u64,
    /// Accesses that merged into an already-inflight miss to the same line.
    pub merges: u64,
}

/// The timing model for the I$/D$/L2/memory hierarchy.
///
/// ```
/// use reno_mem::{HierarchyConfig, MemHierarchy, ServedBy};
/// let mut m = MemHierarchy::new(HierarchyConfig::default());
/// let (ready, level) = m.access_data(0x1_0000, 10, false);
/// assert_eq!(level, ServedBy::Mem); // cold miss
/// assert!(ready > 110);
/// let (ready, level) = m.access_data(0x1_0000, ready, false);
/// assert_eq!(level, ServedBy::L1); // now resident
/// assert_eq!(ready, m.l1d_latency() + ready - m.l1d_latency());
/// ```
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// Completion times of in-flight memory misses (line address, done).
    inflight: Vec<(u64, u64)>,
    /// Cycle at which the memory bus frees up.
    bus_free: u64,
    stats: HierarchyStats,
    /// Event sink for the trace's memory track. `None` (the default) keeps
    /// every hot path to a single `Option` check; the simulator arms it via
    /// [`MemHierarchy::enable_trace`] when `MachineConfig::trace` is on and
    /// drains it into the [`reno_trace::PipelineTrace`] once per cycle.
    trace_buf: Option<Box<Vec<SysEvent>>>,
}

impl MemHierarchy {
    /// Builds an empty (cold) hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            inflight: Vec::new(),
            bus_free: 0,
            stats: HierarchyStats::default(),
            trace_buf: None,
        }
    }

    /// Arms event recording for the trace's memory track. Idempotent: an
    /// already-armed hierarchy keeps its buffered events.
    pub fn enable_trace(&mut self) {
        if self.trace_buf.is_none() {
            self.trace_buf = Some(Box::default());
        }
    }

    /// Moves all buffered memory-track events into `out` (no-op when
    /// recording is off).
    pub fn drain_trace(&mut self, out: &mut Vec<SysEvent>) {
        if let Some(buf) = &mut self.trace_buf {
            out.append(buf);
        }
    }

    /// Final drain at end of run: records an [`SysEventKind::MshrRetire`]
    /// for every still-inflight miss at its completion cycle (so retire
    /// events balance allocations), then drains everything into `out`.
    /// Timing state itself is untouched — a warm hierarchy handed to the
    /// next measurement window behaves exactly as without tracing.
    pub fn finish_trace(&mut self, out: &mut Vec<SysEvent>) {
        if self.trace_buf.is_some() {
            let mut dones: Vec<u64> = self.inflight.iter().map(|&(_, d)| d).collect();
            dones.sort_unstable();
            if let Some(buf) = &mut self.trace_buf {
                for done in dones {
                    buf.push(SysEvent {
                        cycle: done,
                        kind: SysEventKind::MshrRetire,
                    });
                }
            }
            self.drain_trace(out);
        }
    }

    /// Records one memory-track event (single branch when recording is off).
    #[inline]
    fn push_trace(&mut self, cycle: u64, kind: SysEventKind) {
        if let Some(buf) = &mut self.trace_buf {
            buf.push(SysEvent { cycle, kind });
        }
    }

    /// Drops completed misses from `inflight`, recording one MSHR retire per
    /// dropped entry at its completion cycle. Uses `retain` so the surviving
    /// order — and therefore all downstream timing — is byte-identical with
    /// recording on or off. Takes disjoint field borrows so callers can hold
    /// other parts of `self`.
    fn retire_completed(
        inflight: &mut Vec<(u64, u64)>,
        trace_buf: &mut Option<Box<Vec<SysEvent>>>,
        now: u64,
    ) {
        inflight.retain(|&(_, done)| {
            let keep = done > now;
            if !keep {
                if let Some(buf) = trace_buf {
                    buf.push(SysEvent {
                        cycle: done,
                        kind: SysEventKind::MshrRetire,
                    });
                }
            }
            keep
        });
    }

    /// D$ hit latency (the load-to-use pipeline assumes this on a hit).
    pub fn l1d_latency(&self) -> u64 {
        self.cfg.l1d.hit_latency
    }

    /// Per-cache statistics: (I$, D$, L2).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (*self.l1i.stats(), *self.l1d.stats(), *self.l2.stats())
    }

    /// Hierarchy-wide statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.l2.line_bytes as u64 - 1)
    }

    /// Models a main-memory access starting no earlier than `earliest`,
    /// merging with an in-flight miss to the same line if one exists.
    fn memory_access(&mut self, addr: u64, earliest: u64) -> u64 {
        let line = self.line_addr(addr);
        // Retire completed misses.
        Self::retire_completed(&mut self.inflight, &mut self.trace_buf, earliest);

        if let Some(&(_, done)) = self.inflight.iter().find(|&&(l, _)| l == line) {
            // MSHR merge: piggyback on the in-flight fill.
            self.stats.merges += 1;
            self.push_trace(earliest, SysEventKind::MshrMerge);
            return done;
        }

        // Wait for an outstanding-miss slot.
        let mut start = earliest;
        if self.inflight.len() >= self.cfg.max_outstanding {
            let mut dones: Vec<u64> = self.inflight.iter().map(|&(_, d)| d).collect();
            dones.sort_unstable();
            let freed = dones[self.inflight.len() - self.cfg.max_outstanding];
            start = start.max(freed);
            Self::retire_completed(&mut self.inflight, &mut self.trace_buf, start);
            // `freed > earliest` always (retained dones are `> earliest`).
            self.push_trace(
                earliest,
                SysEventKind::MshrFullStall {
                    cycles: start - earliest,
                },
            );
        }

        // The line transfer occupies the bus after the DRAM access.
        let beats = (self.cfg.l2.line_bytes as u64).div_ceil(self.cfg.bus_bytes_per_beat);
        let transfer = beats * self.cfg.bus_beat_cycles;
        let data_ready_unqueued = start + self.cfg.mem_latency;
        let transfer_start = data_ready_unqueued.max(self.bus_free);
        let done = transfer_start + transfer;
        self.bus_free = done;

        self.stats.mem_accesses += 1;
        self.stats.queue_cycles += (start - earliest) + (transfer_start - data_ready_unqueued);
        self.push_trace(start, SysEventKind::MshrAlloc);
        if transfer_start > data_ready_unqueued {
            self.push_trace(
                data_ready_unqueued,
                SysEventKind::BusQueue {
                    cycles: transfer_start - data_ready_unqueued,
                },
            );
        }
        self.inflight.push((line, done));
        done
    }

    /// If `addr`'s line is still being fetched from memory, returns the
    /// merge completion time (the access piggybacks on the in-flight fill).
    fn inflight_merge(&mut self, addr: u64, now: u64) -> Option<u64> {
        let line = self.line_addr(addr);
        Self::retire_completed(&mut self.inflight, &mut self.trace_buf, now);
        let done = self
            .inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done);
        if done.is_some() {
            self.stats.merges += 1;
            self.push_trace(now, SysEventKind::MshrMerge);
        }
        done
    }

    /// Probes one level with recording: the access outcome, and a writeback
    /// event when the fill evicted a dirty victim. The off path costs one
    /// `Option` check beyond the probe itself.
    #[inline]
    fn probe_recorded(&mut self, level: CacheLevel, addr: u64, now: u64, write: bool) -> bool {
        let cache = match level {
            CacheLevel::L1I => &mut self.l1i,
            CacheLevel::L1D => &mut self.l1d,
            CacheLevel::L2 => &mut self.l2,
        };
        let hit = cache.probe_and_fill(addr, write);
        if let Some(buf) = &mut self.trace_buf {
            buf.push(SysEvent {
                cycle: now,
                kind: SysEventKind::CacheAccess { level, hit, write },
            });
            let cache = match level {
                CacheLevel::L1I => &self.l1i,
                CacheLevel::L1D => &self.l1d,
                CacheLevel::L2 => &self.l2,
            };
            if !hit && cache.last_fill_writeback() {
                buf.push(SysEvent {
                    cycle: now,
                    kind: SysEventKind::CacheWriteback { level },
                });
            }
        }
        hit
    }

    /// Data access at cycle `now`. Returns `(ready_cycle, served_by)`:
    /// the cycle the data (or store acknowledgment) is available and which
    /// level provided it.
    pub fn access_data(&mut self, addr: u64, now: u64, write: bool) -> (u64, ServedBy) {
        if let Some(done) = self.inflight_merge(addr, now) {
            // Keep the directories warm for the eventual fill.
            self.probe_recorded(CacheLevel::L1D, addr, now, write);
            self.probe_recorded(CacheLevel::L2, addr, now, write);
            return (done, ServedBy::Mem);
        }
        if self.probe_recorded(CacheLevel::L1D, addr, now, write) {
            return (now + self.cfg.l1d.hit_latency, ServedBy::L1);
        }
        let after_l1 = now + self.cfg.l1d.hit_latency;
        if self.probe_recorded(CacheLevel::L2, addr, after_l1, write) {
            return (after_l1 + self.cfg.l2.hit_latency, ServedBy::L2);
        }
        let done = self.memory_access(addr, after_l1 + self.cfg.l2.hit_latency);
        (done, ServedBy::Mem)
    }

    /// Functionally warms the data-side directories for `addr` without
    /// advancing any timing state: the same lines [`MemHierarchy::access_data`]
    /// would fill are filled (L1 probe-and-fill, then L2 on an L1 miss), but
    /// no in-flight miss, bus-occupancy, or queue accounting happens.
    ///
    /// This is the fast-forward warming hook of the sampling subsystem:
    /// long-lived cache state stays realistic across skipped program regions
    /// at functional-simulation cost. Returns which level served the access,
    /// so the caller can also use the probe as a miss-profile feature source.
    pub fn warm_data(&mut self, addr: u64, write: bool) -> ServedBy {
        if self.l1d.probe_and_fill(addr, write) {
            ServedBy::L1
        } else if self.l2.probe_and_fill(addr, write) {
            ServedBy::L2
        } else {
            ServedBy::Mem
        }
    }

    /// Instruction-side counterpart of [`MemHierarchy::warm_data`].
    pub fn warm_inst(&mut self, addr: u64) -> ServedBy {
        if self.l1i.probe_and_fill(addr, false) {
            ServedBy::L1
        } else if self.l2.probe_and_fill(addr, false) {
            ServedBy::L2
        } else {
            ServedBy::Mem
        }
    }

    /// Zeroes every hit/miss and queue counter (directory contents are
    /// kept), so a warmed hierarchy reports only the measurement interval's
    /// own accesses.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// Clears transient timing state (in-flight misses, bus occupancy) so a
    /// warmed hierarchy can serve a new run that starts at cycle 0. Without
    /// this, completion times from a previous measurement interval would
    /// leak into the next one as phantom bus backpressure.
    pub fn reset_timing(&mut self) {
        self.inflight.clear();
        self.bus_free = 0;
    }

    /// Instruction fetch access at cycle `now`; same contract as
    /// [`MemHierarchy::access_data`].
    pub fn access_inst(&mut self, addr: u64, now: u64) -> (u64, ServedBy) {
        if let Some(done) = self.inflight_merge(addr, now) {
            self.probe_recorded(CacheLevel::L1I, addr, now, false);
            self.probe_recorded(CacheLevel::L2, addr, now, false);
            return (done, ServedBy::Mem);
        }
        if self.probe_recorded(CacheLevel::L1I, addr, now, false) {
            return (now + self.cfg.l1i.hit_latency, ServedBy::L1);
        }
        let after_l1 = now + self.cfg.l1i.hit_latency;
        if self.probe_recorded(CacheLevel::L2, addr, after_l1, false) {
            return (after_l1 + self.cfg.l2.hit_latency, ServedBy::L2);
        }
        let done = self.memory_access(addr, after_l1 + self.cfg.l2.hit_latency);
        (done, ServedBy::Mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn l1_hit_latency() {
        let mut m = hier();
        m.access_data(64, 0, false); // warm the line
        let (ready, by) = m.access_data(64, 1000, false);
        assert_eq!(by, ServedBy::L1);
        assert_eq!(ready, 1002);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = hier();
        m.access_data(0, 0, false);
        // Evict line 0 from the 2-way 32KB L1 by touching two more lines in
        // its set (stride = sets * 32B = 16KB), but keep it in the 512KB L2.
        m.access_data(16 << 10, 200, false);
        m.access_data(32 << 10, 400, false);
        let (ready, by) = m.access_data(0, 1000, false);
        assert_eq!(by, ServedBy::L2);
        assert_eq!(ready, 1000 + 2 + 10);
    }

    #[test]
    fn memory_latency_includes_bus_transfer() {
        let mut m = hier();
        let (ready, by) = m.access_data(0, 0, false);
        assert_eq!(by, ServedBy::Mem);
        // 2 (L1) + 10 (L2) + 100 (mem) + 16 (4 beats x 4 cycles) = 128.
        assert_eq!(ready, 128);
    }

    #[test]
    fn mshr_merging_same_line() {
        let mut m = hier();
        let (r1, _) = m.access_data(0, 0, false);
        // Another miss to the same 64B line while in flight completes together
        // and allocates no second memory access.
        let (r2, by) = m.access_data(32, 1, false);
        assert_eq!(by, ServedBy::Mem);
        assert_eq!(r2, r1);
        assert_eq!(m.stats().mem_accesses, 1);
    }

    #[test]
    fn bus_serializes_back_to_back_misses() {
        let mut m = hier();
        let (r1, _) = m.access_data(0, 0, false);
        let (r2, _) = m.access_data(4096, 0, false);
        assert_eq!(r2, r1 + 16, "second transfer waits for the bus");
    }

    #[test]
    fn outstanding_miss_limit_backpressures() {
        let cfg = HierarchyConfig {
            max_outstanding: 2,
            ..HierarchyConfig::default()
        };
        let mut m = MemHierarchy::new(cfg);
        let (r1, _) = m.access_data(0, 0, false);
        let (_r2, _) = m.access_data(4096, 0, false);
        let (r3, _) = m.access_data(8192, 0, false);
        assert!(r3 > r1, "third miss waits for a slot");
        assert!(m.stats().queue_cycles > 0);
    }

    #[test]
    fn inst_and_data_share_l2() {
        let mut m = hier();
        m.access_data(0x4000, 0, false); // fills L2 line
        let (_, by) = m.access_inst(0x4000, 500);
        assert_eq!(by, ServedBy::L2, "I-side miss hits in unified L2");
    }

    #[test]
    fn warming_fills_directories_without_timing_state() {
        let mut m = hier();
        m.warm_data(0x4000, false);
        m.warm_inst(0x8000);
        // Warmed lines now hit at L1 latency from cycle 0: no bus or
        // in-flight state was created by the warming accesses.
        let (ready, by) = m.access_data(0x4000, 0, false);
        assert_eq!(by, ServedBy::L1);
        assert_eq!(ready, m.l1d_latency());
        let (_, by) = m.access_inst(0x8000, 0);
        assert_eq!(by, ServedBy::L1);
        assert_eq!(
            m.stats().mem_accesses,
            0,
            "warming never touches memory timing"
        );
    }

    #[test]
    fn reset_stats_keeps_contents_reset_timing_clears_bus() {
        let mut m = hier();
        m.access_data(0, 0, false); // real miss: stats + bus state
        assert!(m.cache_stats().1.accesses > 0);
        m.reset_stats();
        m.reset_timing();
        assert_eq!(m.cache_stats().1.accesses, 0);
        assert_eq!(m.stats().mem_accesses, 0);
        let (ready, by) = m.access_data(0, 0, false);
        assert_eq!(by, ServedBy::L1, "directory contents survive the resets");
        assert_eq!(ready, m.l1d_latency(), "no stale bus backpressure");
    }

    #[test]
    fn store_allocates_and_hits() {
        let mut m = hier();
        let (_, by) = m.access_data(0x9000, 0, true);
        assert_eq!(by, ServedBy::Mem);
        let (_, by) = m.access_data(0x9000, 500, true);
        assert_eq!(by, ServedBy::L1);
    }

    /// A pseudo-random access stream whose recorded events must reconcile
    /// exactly with the stats counters, and whose timing must be identical
    /// with recording on and off.
    fn drive(m: &mut MemHierarchy) -> Vec<(u64, ServedBy)> {
        let mut outs = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut now = 0u64;
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (1 << 20);
            let write = x & 3 == 0;
            now += x % 5;
            outs.push(if i % 3 == 0 {
                m.access_inst(addr, now)
            } else {
                m.access_data(addr, now, write)
            });
        }
        outs
    }

    #[test]
    fn recording_is_invisible_to_timing_and_stats() {
        let mut off = hier();
        let mut on = hier();
        on.enable_trace();
        let a = drive(&mut off);
        let b = drive(&mut on);
        assert_eq!(a, b, "completion times and serving levels identical");
        assert_eq!(off.stats(), on.stats());
        assert_eq!(off.cache_stats(), on.cache_stats());
    }

    #[test]
    fn recorded_events_reconcile_with_stats() {
        use reno_trace::PipelineTrace;
        let mut m = hier();
        m.enable_trace();
        drive(&mut m);
        let mut t = PipelineTrace::default();
        m.finish_trace(&mut t.sys);
        let (l1i, l1d, l2) = m.cache_stats();
        for (level, s) in [
            (CacheLevel::L1I, l1i),
            (CacheLevel::L1D, l1d),
            (CacheLevel::L2, l2),
        ] {
            assert_eq!(t.cache_accesses(level), s.accesses, "{level:?} accesses");
            assert_eq!(t.cache_hits(level), s.hits, "{level:?} hits");
            assert_eq!(
                t.cache_writebacks(level),
                s.writebacks,
                "{level:?} writebacks"
            );
        }
        assert_eq!(t.mshr_alloc_count(), m.stats().mem_accesses);
        assert_eq!(t.mshr_merge_count(), m.stats().merges);
        assert_eq!(
            t.mshr_retire_count(),
            t.mshr_alloc_count(),
            "every allocation retires after the final flush"
        );
        assert_eq!(
            t.mshr_stall_cycles() + t.bus_queue_cycles(),
            m.stats().queue_cycles,
            "stall + bus-queue events account for every queued cycle"
        );
        assert!(m.stats().merges > 0, "stream provokes MSHR merges");
        assert!(t.bus_queue_cycles() > 0, "stream provokes bus queueing");
    }
}
