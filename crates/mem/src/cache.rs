/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Set associativity (ways).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `assoc`-way sets of `line_bytes` lines, or non-power-of-two sizes).
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines * self.line_bytes,
            self.size_bytes,
            "capacity must be whole lines"
        );
        let sets = lines / self.assoc;
        assert_eq!(sets * self.assoc, lines, "capacity must be whole sets");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty victims evicted by fills (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in [0, 1]; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

/// Sentinel for "no memoized MRU line" (see [`Cache::probe_and_fill`]).
const NO_MRU: u32 = u32::MAX;

/// A set-associative, true-LRU, write-back write-allocate cache directory.
///
/// Tracks tags only (data contents live in the functional simulator).
///
/// Probes memoize the most-recently-touched line (`mru_*`): consecutive
/// accesses to the same line — the common case in loop kernels, and for
/// instruction fetch, which touches the same I$ line for several cycles —
/// skip the set scan entirely while updating hit counters, the LRU stamp,
/// and the dirty bit exactly as the full probe would.
///
/// ```
/// use reno_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 128, assoc: 2, line_bytes: 32, hit_latency: 1 });
/// assert!(!c.probe_and_fill(0, false)); // cold miss
/// assert!(c.probe_and_fill(0, false));  // now a hit
/// assert!(c.probe_and_fill(31, false)); // same line (MRU fast path)
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * assoc, set-major
    sets: usize,
    /// `log2(line_bytes)`: address -> line number.
    line_shift: u32,
    /// `log2(sets)`: line number -> tag (both are powers of two, so the
    /// hot probe shifts instead of dividing).
    set_shift: u32,
    stamp: u64,
    /// Line number of the most recently touched (hit or filled) line.
    /// Coherent by construction: every mutation of the directory goes
    /// through `probe_scan` (which re-points the memo at the line it
    /// touched or filled — including the fill that evicts the memoized
    /// line itself) or `flush` (which clears it), so a memo match is
    /// always a genuine hit on a valid line.
    mru_line: u64,
    /// Index into `lines` of the memoized line ([`NO_MRU`] = none).
    mru_idx: u32,
    stats: CacheStats,
    /// Whether the most recent *missing* probe evicted a dirty victim.
    /// Only `probe_scan` writes it (the MRU fast path is hit-only and
    /// stays store-free), so it is meaningful right after a probe that
    /// returned `false`; see [`Cache::last_fill_writeback`].
    evicted_dirty: bool,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            lines: vec![Line::default(); sets * cfg.assoc],
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            stamp: 0,
            mru_line: 0,
            mru_idx: NO_MRU,
            stats: CacheStats::default(),
            evicted_dirty: false,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_shift
    }

    /// Probes for `addr`; on miss, fills the line (evicting LRU). Returns
    /// whether the access hit. `write` marks the line dirty.
    ///
    /// Same-line accesses as the previous probe take the MRU fast path:
    /// counters, LRU stamp, and dirty bit update exactly as the full scan
    /// would, so statistics and replacement behavior are bit-identical.
    pub fn probe_and_fill(&mut self, addr: u64, write: bool) -> bool {
        let lnum = addr >> self.line_shift;
        if self.mru_idx != NO_MRU && self.mru_line == lnum {
            self.stats.accesses += 1;
            self.stamp += 1;
            let line = &mut self.lines[self.mru_idx as usize];
            debug_assert!(line.valid && line.tag == lnum >> self.set_shift);
            line.lru = self.stamp;
            line.dirty |= write;
            self.stats.hits += 1;
            return true;
        }
        self.probe_scan(addr, write)
    }

    /// The full set-scan probe, without the MRU shortcut (the memo is still
    /// re-pointed at the touched line). Public only as the reference that
    /// `mru_fast_path_matches_full_probe` holds the MRU shortcut to;
    /// simulation code should call [`Cache::probe_and_fill`].
    pub fn probe_and_fill_unmemoized(&mut self, addr: u64, write: bool) -> bool {
        self.probe_scan(addr, write)
    }

    fn probe_scan(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        self.stamp += 1;
        let lnum = addr >> self.line_shift;
        let set = (lnum as usize) & (self.sets - 1);
        let tag = lnum >> self.set_shift;
        let base = set * self.cfg.assoc;
        let ways = &mut self.lines[base..base + self.cfg.assoc];

        if let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut ways[way];
            line.lru = self.stamp;
            line.dirty |= write;
            self.mru_line = lnum;
            self.mru_idx = (base + way) as u32;
            self.stats.hits += 1;
            return true;
        }
        // Miss: victim = invalid way if any, else LRU. Re-pointing the memo
        // at the filled line also invalidates it if the victim *was* the
        // memoized line.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("associativity >= 1");
        self.evicted_dirty = ways[victim].valid && ways[victim].dirty;
        if self.evicted_dirty {
            self.stats.writebacks += 1;
        }
        ways[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.stamp,
        };
        self.mru_line = lnum;
        self.mru_idx = (base + victim) as u32;
        false
    }

    /// Whether the most recent probe that *missed* evicted a dirty victim
    /// (i.e. the fill generated a writeback). Only meaningful immediately
    /// after a [`Cache::probe_and_fill`] that returned `false`; hits through
    /// the MRU fast path do not update it (a hit never writes back).
    #[inline]
    pub fn last_fill_writeback(&self) -> bool {
        self.evicted_dirty
    }

    /// Probes without filling or updating LRU/stats (for tests and warmup
    /// inspection).
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = set * self.cfg.assoc;
        self.lines[base..base + self.cfg.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Zeroes the hit/miss counters (keeps directory contents) — used when a
    /// functionally warmed directory is handed to a measurement run whose
    /// statistics must not include the warming accesses.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
        self.mru_idx = NO_MRU;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B lines.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    fn hit_after_fill_same_line() {
        let mut c = tiny();
        assert!(!c.probe_and_fill(100, false));
        assert!(c.probe_and_fill(100, false));
        assert!(c.probe_and_fill(96, false), "same 32B line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Addresses mapping to set 0: line numbers 0, 2, 4 (even line indices).
        let a = 0u64; // line 0 -> set 0
        let b = 64u64; // line 2 -> set 0
        let d = 128u64; // line 4 -> set 0
        c.probe_and_fill(a, false);
        c.probe_and_fill(b, false);
        c.probe_and_fill(a, false); // touch a; b becomes LRU
        c.probe_and_fill(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.probe_and_fill(0, false); // set 0
        c.probe_and_fill(32, false); // set 1
        assert!(c.contains(0));
        assert!(c.contains(32));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.probe_and_fill(0, true);
        c.flush();
        assert!(!c.contains(0));
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.probe_and_fill(0, false);
        c.probe_and_fill(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    /// The MRU fast path must be invisible: a probe stream driven through
    /// `probe_and_fill` and the same stream through the unmemoized full
    /// scan agree on every outcome, every counter, and the resulting
    /// directory contents (i.e. replacement decisions are unchanged).
    #[test]
    fn mru_fast_path_matches_full_probe() {
        let mut fast = tiny();
        let mut slow = tiny();
        // Same-line runs, set conflicts, evictions (incl. evicting the MRU
        // line in a 1-line-set corner via repeated conflict), and writes.
        let addrs: &[u64] = &[
            0, 4, 8, 100, 100, 96, 0, 64, 128, 128, 0, 32, 33, 32, 192, 0, 64, 64, 64, 128, 0,
        ];
        for (i, &a) in addrs.iter().enumerate() {
            let w = i % 3 == 0;
            assert_eq!(
                fast.probe_and_fill(a, w),
                slow.probe_and_fill_unmemoized(a, w),
                "probe {i} addr {a}"
            );
            assert_eq!(fast.stats(), slow.stats(), "probe {i} addr {a}");
        }
        for &a in addrs {
            assert_eq!(fast.contains(a), slow.contains(a), "directory at {a}");
        }
    }

    #[test]
    fn writebacks_count_dirty_victims_only() {
        let mut c = tiny();
        // Set 0 lines: 0 (dirty), 64 (clean).
        c.probe_and_fill(0, true);
        c.probe_and_fill(64, false);
        assert_eq!(c.stats().writebacks, 0, "cold fills evict nothing");
        // Evict line 0 (LRU, dirty): one writeback, flagged on the probe.
        assert!(!c.probe_and_fill(128, false));
        assert!(c.last_fill_writeback());
        assert_eq!(c.stats().writebacks, 1);
        // Evict line 64 (clean): no writeback.
        assert!(!c.probe_and_fill(192, false));
        assert!(!c.last_fill_writeback());
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mru_memo_survives_flush_correctly() {
        let mut c = tiny();
        c.probe_and_fill(0, false);
        assert!(c.probe_and_fill(0, false), "MRU hit");
        c.flush();
        assert!(!c.probe_and_fill(0, false), "flush cleared the memo too");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 1,
            line_bytes: 33,
            hit_latency: 1,
        });
    }
}
