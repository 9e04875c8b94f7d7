use crate::{ExactSegment, FaultRecovery, IntervalStat, SampleError, SampledResult, SegmentFault};
use reno_func::{Checkpoint, Cpu, DecodedProgram, DynInst, ExecError, ExecObserver, Memory};
use reno_isa::Program;
use reno_mem::MemHierarchy;
use reno_par::{run_caught, try_par_map, JobPanic};
use reno_sim::{classify_control, MachineConfig, SampleMark, SimResult, Simulator, WarmState};
use reno_trace::PipelineTrace;
use reno_uarch::FrontEnd;

/// `reno-chaos` site: phase-1 checkpoint serialization, context = the
/// 1-based checkpoint ordinal. `corrupt` poisons the stored bytes (caught
/// later by pass validation or segment restore); `panic` kills the serial
/// pass itself.
pub const FP_PASS_CHECKPOINT: &str = "sample:pass-checkpoint";
/// `reno-chaos` site: checkpoint deserialization at a segment worker's
/// restore, context = segment index.
pub const FP_SEGMENT_RESTORE: &str = "sample:segment-restore";
/// `reno-chaos` site: the warm functional replay before each detailed
/// window, context = segment index.
pub const FP_WARM_REPLAY: &str = "sample:warm-replay";
/// `reno-chaos` site: each detailed measure window (the head stratum
/// included), context = segment index.
pub const FP_MEASURE_WINDOW: &str = "sample:measure-window";

/// Every registered `reno-chaos` failpoint site in this crate. The
/// `crash_sample` suite enumerates this list and proves a fault injected at
/// each site still yields a deterministic, valid [`SampledResult`].
pub const FAILPOINT_SITES: &[&str] = &[
    FP_PASS_CHECKPOINT,
    FP_SEGMENT_RESTORE,
    FP_WARM_REPLAY,
    FP_MEASURE_WINDOW,
];

/// Extra fuel past the measure-window end so the end-boundary instruction
/// retires with the pipeline still in full flight (covers the ROB plus the
/// fetch buffer of any supported machine shape).
const DRAIN_PAD: u64 = 256;

/// Cycle safety net per detailed interval (the deadlock guard inside the
/// simulator fires long before this).
const INTERVAL_MAX_CYCLES: u64 = 1 << 26;

/// Minimum sampling periods per parallel segment: the serial functional
/// pass takes one checkpoint per segment, and each checkpoint-delimited
/// segment becomes one independent job for the worker pool.
const SEG_PERIODS: u64 = 8;

/// Minimum warm-margin periods: a segment's checkpoint is taken this many
/// periods *before* its first stratum, and the worker functionally replays
/// the margin (warming caches, predictors, and the shadow profile) before
/// any window is measured, so windows near a segment head are not measured
/// against cold structures.
const WARM_PERIODS: u64 = 2;

/// Minimum warm-margin *instructions*: enough functional warming to
/// rebuild beyond-L1 state (an L2 directory refill horizon). Without this
/// floor, dense sampling (small periods) would produce short segments
/// whose first windows run against half-cold caches — measured as a
/// +3..8% CPI bias on large-footprint workloads (mcf, mpg2).
const MIN_WARM_INSTS: u64 = 1 << 17;

/// The segmentation shape for a given sampling period: `(periods per
/// segment, warm-margin periods)`. The margin covers at least
/// [`MIN_WARM_INSTS`], and a segment is at least four margins long so the
/// replay overhead stays ≤ 25%. Derived from the config alone — never from
/// the host — so the merged result is byte-identical at any
/// `RENO_THREADS`: thread count changes wall-clock, not bytes.
fn segment_shape(period: u64) -> (u64, u64) {
    let m = WARM_PERIODS.max(MIN_WARM_INSTS.div_ceil(period.max(1)));
    let k = SEG_PERIODS.max(4 * m);
    (k, m)
}

/// Shape of a sampled run: how much is simulated in detail, and how often.
///
/// Instruction counts are dynamic instructions. Every `period` instructions,
/// the engine runs one detailed window of `warmup + interval` instructions:
/// the first `warmup` refill the pipeline and are discarded, the next
/// `interval` are measured. Everything else runs functionally with
/// microarchitectural warming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Detailed instructions before each measure window whose statistics
    /// are discarded (pipeline refill after the functional gap).
    pub warmup: u64,
    /// Measured instructions per interval.
    pub interval: u64,
    /// One detailed window begins every `period` instructions.
    pub period: u64,
    /// Detailed **head stratum**: the first `head` instructions are measured
    /// as one window, cold start included, before periodic sampling begins.
    /// Program startup (data-structure initialization, cold caches) is a
    /// one-time phase whose CPI can be several times the steady state;
    /// sparse windows either hit or miss it, swinging the whole-run estimate.
    /// Measuring it exactly and extrapolating only the steady remainder
    /// removes that failure mode (stratified sampling).
    pub head: u64,
    /// Hard cap on dynamic instructions (the fast-forward stops here as if
    /// the program had halted); `u64::MAX` = run to `halt`.
    pub max_insts: u64,
    /// Hard cap on measured intervals; `None` = one per period boundary.
    /// The cap is applied when the run is planned (the first `n` strata are
    /// measured), so a window that happens to measure nothing does not free
    /// a slot for a later stratum.
    pub max_intervals: Option<usize>,
    /// Place each detailed window at a deterministic pseudo-random offset
    /// inside its period (default), instead of always at the period start.
    /// Strictly systematic placement aliases with loop phase structure —
    /// when the period is near-commensurate with a program phase, every
    /// window lands on the same phase point and the estimate inherits its
    /// bias; the jitter breaks the resonance. Offsets come from a fixed
    /// SplitMix64 hash of the period index, so runs stay bit-reproducible.
    pub jitter: bool,
}

impl SampleConfig {
    /// Builds a configuration measuring `interval` instructions after
    /// `warmup` detailed-warmup instructions, once every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `warmup + interval > period`.
    pub fn new(warmup: u64, interval: u64, period: u64) -> SampleConfig {
        let sc = SampleConfig {
            warmup,
            interval,
            period,
            head: 0,
            max_insts: u64::MAX,
            max_intervals: None,
            jitter: true,
        };
        sc.validate();
        sc
    }

    /// Disables window-offset jitter (windows then start exactly at period
    /// boundaries — useful for tiling tests and debugging).
    #[must_use]
    pub fn without_jitter(mut self) -> SampleConfig {
        self.jitter = false;
        self
    }

    /// Measures the first `head` instructions in detail as a dedicated
    /// stratum (see [`SampleConfig::head`]).
    #[must_use]
    pub fn with_head(mut self, head: u64) -> SampleConfig {
        self.head = head;
        self
    }

    /// Caps the dynamic instruction count (for comparisons against fueled
    /// full runs).
    #[must_use]
    pub fn with_max_insts(mut self, max_insts: u64) -> SampleConfig {
        self.max_insts = max_insts;
        self
    }

    /// Caps the number of measured intervals.
    #[must_use]
    pub fn with_max_intervals(mut self, n: usize) -> SampleConfig {
        self.max_intervals = Some(n);
        self
    }

    /// Detailed instructions per period (warmup + measure, before drain
    /// padding).
    pub fn detailed_per_period(&self) -> u64 {
        self.warmup + self.interval
    }

    fn validate(&self) {
        assert!(self.interval > 0, "a measure interval needs instructions");
        assert!(
            self.detailed_per_period() <= self.period,
            "warmup + interval must fit inside the sampling period"
        );
    }
}

impl Default for SampleConfig {
    /// The tuning used by the validation harness at default workload scale:
    /// 1/8 of the program in detail, intervals of 1.5k instructions.
    fn default() -> SampleConfig {
        SampleConfig::new(500, 1500, 16_000)
    }
}

/// Feeds functional instructions to the warming hooks, mirroring what the
/// detailed front end and memory pipeline would have touched on the
/// correct path.
struct Warmer {
    /// `log2` of the I-cache line size (a power of two).
    line_shift: u32,
    last_line: u64,
}

impl Warmer {
    fn new(cfg: &MachineConfig) -> Warmer {
        Warmer {
            line_shift: cfg.hier.l1i.line_bytes.trailing_zeros(),
            last_line: u64::MAX,
        }
    }

    fn observe(&mut self, d: &DynInst, warm: &mut WarmState) {
        let addr = Program::inst_addr(d.pc);
        let line = addr >> self.line_shift;
        if line != self.last_line {
            warm.mem.warm_inst(addr);
            self.last_line = line;
        }
        let op = d.inst.op;
        if op.is_load() {
            warm.mem.warm_data(d.mem_addr, false);
        } else if op.is_store() {
            warm.mem.warm_data(d.mem_addr, true);
        }
        if op.is_control() {
            let _ =
                warm.frontend
                    .process(d.pc as u64, classify_control(d), d.taken, d.next_pc as u64);
        }
    }

    /// Touches the I-lines of the `n` consecutive instructions from
    /// `first_pc` (none of them a load, store or control instruction)
    /// exactly as `n` calls of [`Warmer::observe`] would: once per line
    /// change, at the first instruction in the new line.
    fn observe_run(&mut self, first_pc: usize, n: u64, warm: &mut WarmState) {
        let mut addr = Program::inst_addr(first_pc);
        let end = addr + 4 * n;
        while addr < end {
            let line = addr >> self.line_shift;
            if line != self.last_line {
                warm.mem.warm_inst(addr);
                self.last_line = line;
            }
            addr += (((line + 1) << self.line_shift) - addr).div_ceil(4) * 4;
        }
    }
}

/// SplitMix64 finalizer: hashes the period index into that period's window
/// offset. Fixed constants, no state — sampled runs are bit-reproducible.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Cumulative cost features over a dynamic-instruction range, collected by
/// the shadow profile: the drivers of cycle cost a functional pass can see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Features {
    insts: u64,
    /// Data accesses served by the L2 (L1 misses).
    l2: u64,
    /// Data accesses served by memory (L2 misses).
    mem: u64,
    /// Mispredicted control instructions.
    mispred: u64,
}

impl Features {
    fn minus(&self, o: &Features) -> Features {
        Features {
            insts: self.insts - o.insts,
            l2: self.l2 - o.l2,
            mem: self.mem - o.mem,
            mispred: self.mispred - o.mispred,
        }
    }

    fn add(&mut self, o: &Features) {
        self.insts += o.insts;
        self.l2 += o.l2;
        self.mem += o.mem;
        self.mispred += o.mispred;
    }

    fn vec(&self) -> [f64; 4] {
        [
            self.insts as f64,
            self.l2 as f64,
            self.mem as f64,
            self.mispred as f64,
        ]
    }
}

/// Shadow microarchitectural structures observing every dynamic instruction
/// a segment executes, uniformly. They are never handed to the simulator
/// and never reset, so the feature counts of any two instruction ranges
/// inside one segment are directly comparable — unlike the warming
/// structures, which detailed intervals train more precisely over the
/// regions they cover.
struct Shadow {
    mem: MemHierarchy,
    frontend: FrontEnd,
    cum: Features,
}

impl Shadow {
    fn new(cfg: &MachineConfig) -> Shadow {
        Shadow {
            mem: MemHierarchy::new(cfg.hier),
            frontend: FrontEnd::new(cfg.bpred, cfg.btb, cfg.ras_entries),
            cum: Features::default(),
        }
    }

    #[inline]
    fn observe(&mut self, d: &DynInst) {
        self.cum.insts += 1;
        let op = d.inst.op;
        if op.is_load() || op.is_store() {
            match self.mem.warm_data(d.mem_addr, op.is_store()) {
                reno_mem::ServedBy::L1 => {}
                reno_mem::ServedBy::L2 => self.cum.l2 += 1,
                reno_mem::ServedBy::Mem => self.cum.mem += 1,
            }
        }
        if op.is_control() {
            let ok =
                self.frontend
                    .process(d.pc as u64, classify_control(d), d.taken, d.next_pc as u64);
            self.cum.mispred += u64::from(!ok);
        }
    }
}

impl ExecObserver for Shadow {
    fn run(&mut self, _first_pc: usize, n: u64) {
        self.cum.insts += n;
    }

    fn inst(&mut self, d: &DynInst) {
        self.observe(d);
    }
}

/// What the fast-forward feeds from `warm_from` on: the shadow profile and
/// the warming hooks, in program order (the warming hierarchy's L2 is
/// shared by its I- and D-side, so the order of touches matters).
struct Warming<'a> {
    shadow: &'a mut Shadow,
    warmer: &'a mut Warmer,
    warm: &'a mut WarmState,
}

impl ExecObserver for Warming<'_> {
    fn run(&mut self, first_pc: usize, n: u64) {
        self.shadow.cum.insts += n;
        self.warmer.observe_run(first_pc, n, self.warm);
    }

    fn inst(&mut self, d: &DynInst) {
        self.shadow.observe(d);
        self.warmer.observe(d, self.warm);
    }
}

/// Snapshot points of the shadow feature counters: every stratum boundary
/// (periodic) plus explicitly registered instants (measure-window edges).
struct Boundaries {
    explicit: std::collections::VecDeque<u64>,
    next_periodic: u64,
    period: u64,
    snaps: Vec<(u64, Features)>,
}

impl Boundaries {
    fn new(grid_start: u64, period: u64) -> Boundaries {
        Boundaries {
            explicit: std::collections::VecDeque::new(),
            next_periodic: grid_start,
            period: period.max(1),
            snaps: Vec::new(),
        }
    }

    /// Registers a future snapshot instant (must not lie in the past).
    fn insert(&mut self, inst: u64) {
        let pos = self.explicit.partition_point(|&x| x < inst);
        if self.explicit.get(pos) != Some(&inst) {
            self.explicit.insert(pos, inst);
        }
    }

    /// The earliest instant not yet snapped ([`Boundaries::cross`] has
    /// taken every earlier one).
    fn next_instant(&self) -> u64 {
        self.explicit
            .front()
            .map_or(self.next_periodic, |&e| e.min(self.next_periodic))
    }

    /// Takes any snapshots whose instant has been reached.
    fn cross(&mut self, executed: u64, cum: &Features) {
        while self.explicit.front().is_some_and(|&b| b <= executed)
            || self.next_periodic <= executed
        {
            let e = self.explicit.front().copied().unwrap_or(u64::MAX);
            let b = e.min(self.next_periodic);
            if b == self.next_periodic {
                self.next_periodic += self.period;
            }
            if b == e {
                self.explicit.pop_front();
            }
            if self.snaps.last().map(|&(i, _)| i) != Some(b) {
                self.snaps.push((b, *cum));
            }
        }
    }

    /// The cumulative features at `inst`, if it was snapped (or the final
    /// totals when `inst` is at/past the end of the run).
    fn at(&self, inst: u64, total: u64, final_cum: &Features) -> Option<Features> {
        if inst >= total {
            return Some(*final_cum);
        }
        self.snaps
            .binary_search_by_key(&inst, |&(i, _)| i)
            .ok()
            .map(|k| self.snaps[k].1)
    }
}

/// The jittered checkpoint position for stratum `s` of width `period`
/// starting at `grid_start`: a deterministic offset within the stratum's
/// slack (so the whole window fits inside the stratum).
fn stratum_position(sc: &SampleConfig, grid_start: u64, period: u64, s: u64) -> u64 {
    let slack = period.saturating_sub(sc.detailed_per_period() + DRAIN_PAD);
    let offset = if sc.jitter && slack > 0 {
        // Salt with the period so refinement rounds draw fresh offsets.
        mix64(s ^ period) % (slack + 1)
    } else {
        0
    };
    grid_start
        .saturating_add(s.saturating_mul(period))
        .saturating_add(offset)
}

/// Where the serial pass checkpoints segment `j` (`j >= 1`) for a
/// segmentation of `k` periods with an `m`-period warm margin: its first
/// stratum's start minus the margin.
fn segment_checkpoint_position(grid_start: u64, period: u64, k: u64, m: u64, j: u64) -> u64 {
    grid_start + (j * k - m) * period
}

/// Errors raised when reusing a serialized [`CheckpointPass`]: either the
/// bytes are not a valid pass image, or the pass does not match the
/// (program, config) it is being replayed against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PassError {
    /// The byte stream does not start with the pass magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u32),
    /// The byte stream ended early, carries trailing garbage, or declares
    /// lengths its bytes cannot back.
    Truncated,
    /// A field holds a value [`CheckpointPass::to_bytes`] can never produce.
    BadField(&'static str),
    /// An embedded checkpoint failed [`Checkpoint::from_bytes`] validation.
    Checkpoint(reno_func::CheckpointError),
    /// The pass's checkpoints do not line up with the segmentation the
    /// sampling config derives — it was taken for a different program,
    /// scale, or sampling shape.
    Mismatch {
        /// Segment index whose checkpoint is wrong or missing.
        segment: u64,
        /// Dynamic-instruction position the segmentation expects.
        expected: u64,
        /// Position the checkpoint actually carries (`None` = missing).
        got: Option<u64>,
    },
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::BadMagic => write!(f, "not a reno checkpoint pass (bad magic)"),
            PassError::BadVersion(v) => write!(f, "unsupported checkpoint-pass version {v}"),
            PassError::Truncated => write!(f, "checkpoint-pass bytes truncated or oversized"),
            PassError::BadField(which) => {
                write!(
                    f,
                    "checkpoint-pass field `{which}` holds a non-canonical value"
                )
            }
            PassError::Checkpoint(e) => write!(f, "embedded checkpoint invalid: {e}"),
            PassError::Mismatch {
                segment,
                expected,
                got,
            } => write!(
                f,
                "checkpoint pass does not fit this run: segment {segment} expects a \
                 checkpoint at instruction {expected}, pass carries {got:?}"
            ),
        }
    }
}

impl std::error::Error for PassError {}

const PASS_MAGIC: &[u8; 8] = b"RENOPASS";
const PASS_VERSION: u32 = 1;

/// Phase 1 of a sampled run — the serial functional pass over the whole
/// program: exact architectural totals, plus one dirty-page checkpoint per
/// future segment. Runs on the predecoded-block engine with no warming or
/// shadow cost, so it is the cheap serial fraction of a sampled run.
///
/// The pass is **machine-config-independent**: checkpoints are purely
/// architectural and their positions derive from the sampling shape alone
/// (head, period), never from ROB sizes, cache shapes, or RENO settings.
/// One pass per (program, sampling shape) therefore serves an *arbitrary
/// sweep of machine configs* via [`run_sampled_with_pass`] — the
/// amortization the `reno-dse` checkpoint store is built on. The
/// serialization ([`CheckpointPass::to_bytes`] / `from_bytes`) is strict:
/// `from_bytes` accepts exactly the image of `to_bytes` (every embedded
/// checkpoint re-validated through the hardened
/// [`Checkpoint::from_bytes`]), so a corrupted store entry is rejected as a
/// structured error, never trusted and never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPass {
    /// Serialized checkpoints for segments `1..`, in segment order
    /// (`checkpoints[j - 1]` belongs to segment `j`).
    pub checkpoints: Vec<Vec<u8>>,
    /// Exact dynamic-instruction count of the (possibly capped) run.
    pub total_insts: u64,
    /// Whether the program ran to its `halt`.
    pub halted: bool,
    /// Output checksum of the functional run.
    pub checksum: u64,
    /// Architectural state digest at the end of the functional run.
    pub digest: u64,
    /// Functional execution error, if the program misbehaved (never set on
    /// a pass that [`CheckpointPass::to_bytes`] will serialize).
    pub error: Option<ExecError>,
}

impl CheckpointPass {
    /// Runs the serial functional pass for `program` under sampling shape
    /// `sc`. See the type docs.
    pub fn compute(program: &Program, sc: &SampleConfig) -> CheckpointPass {
        functional_pass(program, sc, None)
    }

    /// Serializes to a self-describing little-endian byte stream.
    ///
    /// # Panics
    ///
    /// Panics if the pass recorded a functional [`ExecError`] — an errored
    /// pass describes a broken run and must not enter a persistent store.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.error.is_none(),
            "refusing to serialize a checkpoint pass that recorded an exec error"
        );
        let payload: usize = self.checkpoints.iter().map(|c| 4 + c.len()).sum();
        let mut out = Vec::with_capacity(8 + 4 + 8 * 4 + 4 + payload);
        out.extend_from_slice(PASS_MAGIC);
        out.extend_from_slice(&PASS_VERSION.to_le_bytes());
        out.extend_from_slice(&self.total_insts.to_le_bytes());
        out.extend_from_slice(&u64::from(self.halted).to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&(self.checkpoints.len() as u32).to_le_bytes());
        for ck in &self.checkpoints {
            out.extend_from_slice(&(ck.len() as u32).to_le_bytes());
            out.extend_from_slice(ck);
        }
        out
    }

    /// Deserializes a pass previously produced by
    /// [`CheckpointPass::to_bytes`].
    ///
    /// The parser is strict: declared counts and lengths are validated
    /// against the remaining bytes *before* any allocation (a length lie
    /// cannot trigger a huge reserve), every embedded checkpoint must pass
    /// [`Checkpoint::from_bytes`], and the checkpoints must be in strictly
    /// increasing `executed` order. Accepted images re-serialize to exactly
    /// the input bytes.
    ///
    /// # Errors
    ///
    /// See [`PassError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointPass, PassError> {
        struct R<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl<'a> R<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], PassError> {
                let end = self.pos.checked_add(n).ok_or(PassError::Truncated)?;
                if end > self.bytes.len() {
                    return Err(PassError::Truncated);
                }
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            fn u64(&mut self) -> Result<u64, PassError> {
                Ok(u64::from_le_bytes(
                    self.take(8)?.try_into().expect("8 bytes"),
                ))
            }
            fn u32(&mut self) -> Result<u32, PassError> {
                Ok(u32::from_le_bytes(
                    self.take(4)?.try_into().expect("4 bytes"),
                ))
            }
        }
        let mut r = R { bytes, pos: 0 };
        if r.take(8)? != PASS_MAGIC {
            return Err(PassError::BadMagic);
        }
        let version = r.u32()?;
        if version != PASS_VERSION {
            return Err(PassError::BadVersion(version));
        }
        let total_insts = r.u64()?;
        let halted = match r.u64()? {
            0 => false,
            1 => true,
            _ => return Err(PassError::BadField("halted")),
        };
        let checksum = r.u64()?;
        let digest = r.u64()?;
        let n = r.u32()? as usize;
        // Each record carries at least its 4-byte length prefix: a claimed
        // count the remaining bytes cannot back is rejected before the
        // count sizes any allocation.
        if n.saturating_mul(4) > bytes.len() - r.pos {
            return Err(PassError::Truncated);
        }
        let mut checkpoints = Vec::with_capacity(n);
        let mut prev_exec = None;
        for _ in 0..n {
            let len = r.u32()? as usize;
            let ck = r.take(len)?;
            let parsed = Checkpoint::from_bytes(ck).map_err(PassError::Checkpoint)?;
            if prev_exec.is_some_and(|p| p >= parsed.executed()) {
                return Err(PassError::BadField("checkpoint order"));
            }
            prev_exec = Some(parsed.executed());
            checkpoints.push(ck.to_vec());
        }
        if r.pos != bytes.len() {
            return Err(PassError::Truncated);
        }
        Ok(CheckpointPass {
            checkpoints,
            total_insts,
            halted,
            checksum,
            digest,
            error: None,
        })
    }
}

/// The phase-1 pass for shape `sc`: one checkpoint per segment boundary,
/// then the run's totals. Without a length probe it is one functional run
/// from the program's start to `sc.max_insts`. With one, a segment
/// checkpoint is taken after restoring the probe's latest grid point at or
/// below it (or continuing from the previous segment's, when that is
/// nearer), and the totals are the probe's. A restored machine reports the
/// same dirty pages as the uninterrupted run, so the bytes never depend on
/// the grid.
fn functional_pass(
    program: &Program,
    sc: &SampleConfig,
    probe: Option<&LengthProbe>,
) -> CheckpointPass {
    let (k, m) = segment_shape(sc.period);
    let dp = DecodedProgram::new(program);
    let mut cpu: Option<Cpu> = None;
    let mut checkpoints = Vec::new();
    let mut error = None;
    for j in 1.. {
        let pos = segment_checkpoint_position(sc.head, sc.period, k, m, j);
        // A probe knows where the program stops; a direct pass runs to the
        // cap.
        if pos >= probe.map_or(sc.max_insts, |p| p.total) {
            break;
        }
        let at = cpu.as_ref().map_or(0, Cpu::executed);
        if let Some(restored) = probe.and_then(|p| p.restore_past(at, pos)) {
            cpu = Some(restored);
        }
        let cpu = cpu.get_or_insert_with(|| Cpu::new(program));
        if let Err(e) = cpu.advance_decoded(&dp, pos) {
            error = Some(e);
            break;
        }
        if cpu.halted() {
            break;
        }
        let mut bytes =
            Checkpoint::take_with_dirty_pages(cpu, &cpu.mem().dirty_pages_sorted()).to_bytes();
        // `panic` here kills the serial pass (retried, then the full-detail
        // fallback); `corrupt` poisons this checkpoint's stored bytes, which
        // pass validation or the owning segment's restore must catch.
        reno_chaos::failpoint_bytes!(FP_PASS_CHECKPOINT, j, &mut bytes);
        checkpoints.push(bytes);
    }
    if let Some(p) = probe {
        return CheckpointPass {
            checkpoints,
            total_insts: p.total,
            halted: p.halted,
            checksum: p.checksum,
            digest: p.digest,
            error,
        };
    }
    let mut cpu = cpu.unwrap_or_else(|| Cpu::new(program));
    if error.is_none() {
        if let Err(e) = cpu.advance_decoded(&dp, sc.max_insts) {
            error = Some(e);
        }
    }
    CheckpointPass {
        checkpoints,
        total_insts: cpu.executed(),
        halted: cpu.halted(),
        checksum: cpu.checksum(),
        digest: cpu.state_digest(),
        error,
    }
}

/// One checkpoint-delimited segment of a sampled run — an independent,
/// deterministic job for the worker pool.
struct SegmentJob {
    index: u64,
    /// Serialized checkpoint to resume from (`None` = fresh machine,
    /// segment 0 only). Workers deserialize and restore, so every segment
    /// exercises the full checkpoint save/restore path.
    ck: Option<Vec<u8>>,
    /// Dynamic-instruction position the worker starts at.
    start: u64,
    measure_head: bool,
    /// `(stratum, window checkpoint position)` pairs to measure, ascending.
    windows: Vec<(u64, u64)>,
    /// Strata whose shadow features this segment reports: `[first, last)`.
    strata: (u64, u64),
    /// Functional end of the segment (exclusive).
    seg_end: u64,
}

/// What one segment worker hands back to the merge.
struct SegmentOut {
    head: Option<IntervalStat>,
    /// Shadow features over `[0, grid_start)` (segment 0, when snapped).
    head_feat: Option<Features>,
    /// `(stratum, window, window features)`, in program order.
    windows: Vec<(u64, IntervalStat, Option<Features>)>,
    /// Per-stratum shadow features for every stratum the segment owns.
    strata_feats: Vec<(u64, Option<Features>)>,
    /// Per-window pipeline traces in program order (head window first),
    /// captured only when `MachineConfig::trace` is on. The merge rebases
    /// and concatenates them segment by segment.
    traces: Vec<Box<PipelineTrace>>,
    /// The head window segment 0 simulated (not one it reused).
    head_run: Option<HeadRun>,
    detailed_insts: u64,
    error: Option<ExecError>,
}

/// The head stratum's detailed window as segment 0 measured it. It is the
/// same cold-start run for any sampling period, so the ladder measures it
/// once per row and hands it to the next rung.
#[derive(Clone)]
struct HeadRun {
    stat: Option<IntervalStat>,
    /// The structures the head trained (timing state reset).
    warm: WarmState,
    trace: Option<Box<PipelineTrace>>,
    /// Instructions the head simulated in detail (drain pad included).
    retired: u64,
    /// `(squashes, insts)` over the head's second half.
    anchor: RareEventAnchor,
}

/// Runs the head stratum: one detailed window over the program start, cold
/// structures and pipeline fill included — exactly what the full run
/// experiences there — with an extra mark halfway in for the rare-event
/// anchor.
fn simulate_head(program: &Program, cfg: &MachineConfig, sc: &SampleConfig) -> HeadRun {
    let budget = (sc.head + DRAIN_PAD).min(sc.max_insts);
    let end = sc.head.min(budget);
    let cold = WarmState::cold(cfg);
    let sim = Simulator::from_cpu_warm(program, cfg.clone(), Cpu::new(program), budget, cold)
        .with_measure_window(0, end)
        .with_extra_mark(sc.head / 2);
    let (r, mut warm) = sim.run_with_state(INTERVAL_MAX_CYCLES);
    warm.mem.reset_timing();
    let stat = r
        .measured()
        .filter(|(s, e)| e.retired > s.retired)
        .map(|(s, e)| IntervalStat::from_marks(0, 0, &s, &e));
    HeadRun {
        stat,
        warm,
        anchor: rare_events_after(r.mark_extra, &r),
        retired: r.retired,
        trace: r.trace,
    }
}

/// Functionally advances `cpu` to dynamic instruction `until` (or `halt`)
/// block-at-a-time, feeding the shadow profile every instruction and the
/// warming hooks every instruction at or past `warm_from`. Each block-engine
/// advance stops at the next snapshot instant, at `warm_from` and at
/// `until`, so every snapshot sees exactly the instructions before it.
#[allow(clippy::too_many_arguments)]
fn fast_forward(
    cpu: &mut Cpu,
    dp: &DecodedProgram<'_>,
    warm: &mut WarmState,
    warmer: &mut Warmer,
    shadow: &mut Shadow,
    bounds: &mut Boundaries,
    until: u64,
    warm_from: u64,
) -> Result<(), ExecError> {
    while !cpu.halted() && cpu.executed() < until {
        let at = cpu.executed();
        bounds.cross(at, &shadow.cum);
        let stop = until.min(bounds.next_instant());
        if at < warm_from {
            cpu.advance_observed(dp, stop.min(warm_from), &mut *shadow)?;
        } else {
            let mut obs = Warming {
                shadow: &mut *shadow,
                warmer: &mut *warmer,
                warm: &mut *warm,
            };
            cpu.advance_observed(dp, stop, &mut obs)?;
        }
    }
    Ok(())
}

/// Runs one segment: restore (or start fresh), measure the head stratum if
/// assigned, then alternate warming fast-forward and detailed windows over
/// the segment's strata, closing with a functional run to the segment end
/// so every owned stratum's shadow features are snapped.
///
/// `reuse` is a head window already measured for this program and config
/// (by another rung), taken instead of simulating the head again.
///
/// # Errors
///
/// [`SampleError::BadCheckpoint`] when the segment's serialized phase-1
/// checkpoint fails to deserialize — the caller retries once, then takes
/// the exact-replay fallback for just this segment.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    program: &Program,
    cfg: &MachineConfig,
    sc: &SampleConfig,
    period: u64,
    base_mem: &Memory,
    total: u64,
    job: &SegmentJob,
    reuse: Option<&HeadRun>,
) -> Result<SegmentOut, SampleError> {
    let grid_start = sc.head;
    let mut cpu = match &job.ck {
        Some(bytes) => {
            // The chaos copy exists only while a spec is armed or recording
            // is on; the production path deserializes the shared bytes
            // directly.
            let parsed = if reno_chaos::enabled() {
                let mut poisoned = bytes.clone();
                reno_chaos::failpoint_bytes!(FP_SEGMENT_RESTORE, job.index, &mut poisoned);
                Checkpoint::from_bytes(&poisoned)
            } else {
                Checkpoint::from_bytes(bytes)
            };
            parsed
                .map_err(|e| SampleError::BadCheckpoint(format!("segment {}: {e}", job.index)))?
                .restore_with_base(base_mem)
        }
        None => Cpu::new(program),
    };
    debug_assert_eq!(cpu.executed(), job.start);
    let dp = DecodedProgram::new(program);
    let mut warmer = Warmer::new(cfg);
    let mut shadow = Shadow::new(cfg);
    let mut bounds = Boundaries::new(grid_start + job.strata.0 * period, period);
    let mut out = SegmentOut {
        head: None,
        head_feat: None,
        windows: Vec::with_capacity(job.windows.len()),
        strata_feats: Vec::new(),
        traces: Vec::new(),
        head_run: None,
        detailed_insts: 0,
        error: None,
    };
    // Instructions below this index were already warmed by a detailed
    // interval (which trains the same structures more precisely).
    let mut warmed_until = job.start;

    // Head stratum (see `simulate_head`); the segment carries on from the
    // structures it trained.
    let mut warm = if job.measure_head {
        let mut simulated = None;
        let head = match reuse {
            Some(h) => h,
            None => {
                reno_chaos::failpoint!(FP_MEASURE_WINDOW, job.index);
                simulated.insert(simulate_head(program, cfg, sc))
            }
        };
        out.head = head.stat;
        out.traces.extend(head.trace.clone());
        out.detailed_insts += head.retired;
        warmed_until = head.retired;
        let warm = head.warm.clone();
        out.head_run = simulated;
        warm
    } else {
        WarmState::cold(cfg)
    };

    for &(s, pos) in &job.windows {
        reno_chaos::failpoint!(FP_WARM_REPLAY, job.index);
        if let Err(e) = fast_forward(
            &mut cpu,
            &dp,
            &mut warm,
            &mut warmer,
            &mut shadow,
            &mut bounds,
            pos,
            warmed_until,
        ) {
            out.error = Some(e);
            return Ok(out);
        }
        debug_assert_eq!(cpu.executed(), pos, "planner guarantees pos < total");

        // Detailed window: warmup + measure + drain pad, clipped to the
        // instruction cap, run from a clone of the live machine.
        reno_chaos::failpoint!(FP_MEASURE_WINDOW, job.index);
        let budget = (sc.detailed_per_period() + DRAIN_PAD).min(sc.max_insts - pos);
        let end = sc.detailed_per_period().min(budget);
        let start = sc.warmup.min(end);
        warm.mem.reset_timing();
        warm.mem.reset_stats();
        warm.frontend.reset_stats();
        let sim = Simulator::from_cpu_warm(program, cfg.clone(), cpu.clone(), budget, warm)
            .with_measure_window(start, end);
        let (r, trained) = sim.run_with_state(INTERVAL_MAX_CYCLES);
        warm = trained;
        warm.mem.reset_timing();
        if let Some((ms, me)) = r.measured() {
            if me.retired > ms.retired {
                // Snapshot the shadow counters at the window's exact edges
                // when the functional pass reaches them.
                bounds.insert(pos + ms.retired);
                bounds.insert(pos + me.retired);
                out.windows.push((
                    s,
                    IntervalStat::from_marks(pos + ms.retired, s, &ms, &me),
                    None,
                ));
            }
        }
        if let Some(t) = r.trace {
            out.traces.push(t);
        }
        out.detailed_insts += r.retired;
        warmed_until = pos + r.retired;
    }

    // Close the segment functionally (no warming needed: nothing detailed
    // runs past this point in this segment) and take the final boundary
    // snapshot.
    if let Err(e) = fast_forward(
        &mut cpu,
        &dp,
        &mut warm,
        &mut warmer,
        &mut shadow,
        &mut bounds,
        job.seg_end,
        u64::MAX,
    ) {
        out.error = Some(e);
        return Ok(out);
    }
    bounds.cross(cpu.executed(), &shadow.cum);

    // Extract per-range shadow features. Cumulative counts are relative to
    // the segment head, so only within-segment deltas are taken.
    let final_cum = shadow.cum;
    let feat = |a: u64, b: u64| -> Option<Features> {
        let fa = bounds.at(a, total, &final_cum)?;
        let fb = bounds.at(b, total, &final_cum)?;
        Some(fb.minus(&fa))
    };
    for (s, iv, f) in &mut out.windows {
        let _ = s;
        *f = feat(iv.start_inst, iv.start_inst + iv.insts);
    }
    out.strata_feats = (job.strata.0..job.strata.1)
        .map(|s| {
            let s0 = grid_start + s * period;
            let s1 = (s0 + period).min(total);
            (s, feat(s0, s1))
        })
        .collect();
    if job.index == 0 && grid_start > 0 {
        out.head_feat = feat(0, grid_start.min(total));
    }
    Ok(out)
}

/// Deterministic exact-replay fallback for one failed segment: re-simulate
/// the segment's covered instruction range `[cover0, cover1)` in **full
/// detail** from the latest phase-1 checkpoint that still deserializes
/// (walking back past corrupt ones, down to a fresh machine), and charge
/// those cycles exactly instead of extrapolating. Runs serially on the
/// caller's thread and touches no failpoint, so a sticky injected fault
/// cannot chase it — the same failure pattern yields the same bytes at any
/// `RENO_THREADS`.
fn exact_segment_fallback(
    program: &Program,
    cfg: &MachineConfig,
    sc: &SampleConfig,
    period: u64,
    base_mem: &Memory,
    pass: &CheckpointPass,
    job: &SegmentJob,
) -> (SegmentOut, ExactSegment) {
    let grid_start = sc.head;
    let cover0 = if job.index == 0 {
        0
    } else {
        grid_start + job.strata.0 * period
    };
    let cover1 = job.seg_end;

    // Latest restorable checkpoint at or before the segment head. The
    // segment's own checkpoint is pass.checkpoints[job.index - 1]; walk
    // back from there until one parses cleanly.
    let mut cpu = Cpu::new(program);
    if job.index > 0 {
        for i in (0..job.index as usize).rev() {
            if let Ok(ck) = Checkpoint::from_bytes(&pass.checkpoints[i]) {
                cpu = ck.restore_with_base(base_mem);
                break;
            }
        }
    }
    let start = cpu.executed();
    debug_assert!(start <= cover0);

    let budget = (cover1 - start + DRAIN_PAD).min(sc.max_insts.saturating_sub(start));
    let r = Simulator::from_cpu(program, cfg.clone(), cpu, budget)
        .with_measure_window(cover0 - start, cover1 - start)
        .run(u64::MAX);
    let (insts, cycles) = match r.measured() {
        Some((s, e)) => (e.retired - s.retired, e.cycles - s.cycles),
        // The start mark cannot fire past the budget; an empty window only
        // means the program ended inside the drain pad — charge nothing.
        None => (0, 0),
    };
    let out = SegmentOut {
        head: None,
        head_feat: None,
        windows: Vec::new(),
        strata_feats: Vec::new(),
        traces: Vec::new(),
        head_run: None,
        detailed_insts: r.retired,
        error: None,
    };
    (
        out,
        ExactSegment {
            segment: job.index,
            // The window clips at halt/fuel, so the range truly covered is
            // exactly the instructions that retired inside it.
            range: (cover0, cover0 + insts),
            insts,
            cycles,
        },
    )
}

#[inline]
fn dot4(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
}

/// Least-squares fit of `y ≈ β · x` via ridge-stabilized normal equations
/// (4×4 Gaussian elimination with partial pivoting).
fn ls_fit(xs: &[[f64; 4]], ys: &[f64]) -> Option<[f64; 4]> {
    let mut a = [[0.0f64; 4]; 4];
    let mut b = [0.0f64; 4];
    for (x, &y) in xs.iter().zip(ys) {
        for i in 0..4 {
            for j in 0..4 {
                a[i][j] += x[i] * x[j];
            }
            b[i] += x[i] * y;
        }
    }
    let ridge = 1e-9 * (a[0][0] + a[1][1] + a[2][2] + a[3][3]).max(1.0);
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += ridge;
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..4 {
        let piv = (col..4).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[piv][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in col + 1..4 {
            let f = a[row][col] / a[col][col];
            for k in col..4 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut beta = [0.0f64; 4];
    for col in (0..4).rev() {
        let mut v = b[col];
        for k in col + 1..4 {
            v -= a[col][k] * beta[k];
        }
        beta[col] = v / a[col][col];
    }
    Some(beta)
}

/// Minimum R² on the measured windows for the cycle model to be trusted
/// with extrapolating unmeasured strata.
const MODEL_MIN_R2: f64 = 0.85;
/// Minimum measured windows before fitting a 4-parameter model.
const MODEL_MIN_WINDOWS: usize = 8;

/// The merged per-stratum / per-window shadow features of one sampled run.
struct FeatureTable {
    /// Features of each measured window, index-aligned with
    /// `SampledResult::intervals`.
    windows: Vec<Option<Features>>,
    /// Features of every stratum `0..strata_total`, indexed by stratum.
    strata: Vec<Option<Features>>,
    /// Features over `[0, grid_start)`.
    head: Option<Features>,
}

/// Model-assisted estimation: fit `cycles ≈ β · (insts, L2-served,
/// mem-served, mispredicts)` on the measured windows against the shadow
/// profile's exact per-range features, then estimate every stratum from its
/// own features — measured strata keep their measurement as a local
/// multiplicative correction, unmeasured strata use the model outright.
/// The per-segment profiles jointly cover every instruction, so phase
/// structure that never lined up with a window still lands in the estimate
/// through its features.
fn model_assist(
    sc: &SampleConfig,
    period: u64,
    result: &mut SampledResult,
    ft: &FeatureTable,
) -> Result<(), SampleError> {
    if result.intervals.len() < MODEL_MIN_WINDOWS || result.total_insts == 0 || period == 0 {
        return Ok(());
    }
    let total = result.total_insts;
    let mut xs: Vec<[f64; 4]> = Vec::with_capacity(result.intervals.len());
    let mut ys: Vec<f64> = Vec::with_capacity(result.intervals.len());
    for (iv, f) in result.intervals.iter().zip(&ft.windows) {
        let Some(f) = f else { return Ok(()) };
        xs.push(f.vec());
        ys.push(iv.cycles as f64);
    }
    let Some(beta) = ls_fit(&xs, &ys) else {
        return Ok(());
    };
    if !beta.iter().all(|b| b.is_finite()) {
        return Err(SampleError::ModelDegenerate("non-finite model fit"));
    }
    // Strata (and a missing head) already covered exactly by the replay
    // fallback are charged their measured cycles at the end instead of a
    // model extrapolation.
    let exact_covers = |a: u64, b: u64| {
        result
            .exact_segments
            .iter()
            .any(|e| e.range.0 <= a && b <= e.range.1)
    };

    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let sst: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let ssr: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            let e = y - dot4(&beta, x);
            e * e
        })
        .sum();
    let r2 = if sst <= f64::EPSILON {
        1.0
    } else {
        1.0 - ssr / sst
    };
    result.model_r2 = Some(r2);
    if r2 < MODEL_MIN_R2 {
        return Ok(());
    }

    let steady = result.steady_cpi();
    let by_stratum: std::collections::HashMap<u64, usize> = result
        .intervals
        .iter()
        .enumerate()
        .map(|(k, iv)| (iv.stratum, k))
        .collect();
    let mut cycles = 0.0f64;
    // The head window covers [0, grid_start) exactly; without one, the
    // region is extrapolated through the model like any other.
    let grid_start = sc.head.min(total);
    match &result.head {
        Some(h) => cycles += h.cycles as f64,
        None if grid_start > 0 && exact_covers(0, grid_start) => {}
        None => {
            if grid_start > 0 {
                let Some(f) = ft.head else { return Ok(()) };
                let pred = dot4(&beta, &f.vec());
                cycles += if pred > 0.0 {
                    pred
                } else {
                    steady * f.insts as f64
                };
            }
        }
    }
    let strata = total.saturating_sub(grid_start).div_ceil(period.max(1));
    for s in 0..strata {
        let s0 = grid_start + s * period;
        let s1 = (s0 + period).min(total);
        if exact_covers(s0, s1) {
            continue;
        }
        let Some(Some(f)) = ft.strata.get(s as usize) else {
            return Ok(());
        };
        let pred = dot4(&beta, &f.vec());
        let est = match by_stratum.get(&s) {
            Some(&k) => {
                let iv = &result.intervals[k];
                let Some(fw) = ft.windows[k] else {
                    return Ok(());
                };
                let predw = dot4(&beta, &fw.vec());
                if pred > 0.0 && predw > 1e-6 {
                    // Local multiplicative correction: how the measured
                    // window actually performed vs. what the model said.
                    pred * (iv.cycles as f64 / predw).clamp(0.5, 2.0)
                } else {
                    iv.cpi() * (s1 - s0) as f64
                }
            }
            None if pred > 0.0 => pred,
            None => steady * (s1 - s0) as f64,
        };
        cycles += est;
    }
    cycles += result
        .exact_segments
        .iter()
        .map(|e| e.cycles as f64)
        .sum::<f64>();
    if !cycles.is_finite() {
        return Err(SampleError::ModelDegenerate("non-finite model estimate"));
    }
    result.model_cycles = Some(cycles);
    Ok(())
}

/// Relative shift in the beyond-L1 service mix (L2- and memory-served
/// access rates) between the strata the model was fitted on (measured) and
/// the strata it extrapolates (unmeasured). A large shift means the
/// unmeasured part of the program behaves unlike anything a window saw —
/// exactly the regime where functional warming biases can hide — so the
/// auto ladder treats it as a reason to densify or fall back.
fn feature_drift(result: &SampledResult, ft: &FeatureTable) -> Option<f64> {
    let measured: std::collections::HashSet<u64> =
        result.intervals.iter().map(|iv| iv.stratum).collect();
    let mut m = Features::default();
    let mut u = Features::default();
    let mut unmeasured_any = false;
    for (s, f) in ft.strata.iter().enumerate() {
        let f = (*f)?;
        if measured.contains(&(s as u64)) {
            m.add(&f);
        } else {
            unmeasured_any = true;
            u.add(&f);
        }
    }
    if !unmeasured_any || m.insts == 0 || u.insts == 0 {
        return None;
    }
    let rate = |f: &Features, k: u64| k as f64 / f.insts as f64;
    let mut drift = 0.0f64;
    for (rm, ru) in [
        (rate(&m, m.l2), rate(&u, u.l2)),
        (rate(&m, m.mem), rate(&u, u.mem)),
    ] {
        // Normalize by the larger rate, floored so near-zero traffic on
        // both sides (e.g. an L1-resident program) cannot manufacture a
        // huge relative drift out of noise.
        let denom = rm.max(ru).max(2e-3);
        drift = drift.max((ru - rm).abs() / denom);
    }
    Some(drift)
}

/// Runs `program` under `cfg` with checkpointed fast-forward and sampled
/// detailed measurement (see the crate docs for the phase structure and the
/// estimation methodology).
///
/// The run is **time-parallel**: a cheap serial functional pass (predecoded
/// blocks, no warming) takes one dirty-page checkpoint per segment (a fixed
/// number of sampling periods derived from the config), then the
/// checkpoint-delimited segments fan across the [`reno_par::par_map`]
/// worker pool. Each worker restores its checkpoint, rebuilds warm state
/// (functional warming from the segment head, with a warm margin of at
/// least an L2-refill horizon before its first stratum, plus the usual
/// per-window detailed warmup), measures its windows, and profiles its
/// strata; the
/// merged window set feeds one least-squares model fit. Segmentation never
/// depends on the worker count, so the result is **byte-identical at any
/// `RENO_THREADS`**.
///
/// Architectural results ([`SampledResult::checksum`],
/// [`SampledResult::digest`], [`SampledResult::total_insts`]) are exact —
/// the whole program executes functionally. Timing statistics are estimates
/// extrapolated from the measured intervals.
///
/// # Panics
///
/// Panics if `sc` is inconsistent (see [`SampleConfig::new`]).
pub fn run_sampled(program: &Program, cfg: MachineConfig, sc: &SampleConfig) -> SampledResult {
    sc.validate();
    sample_isolated(
        program,
        cfg,
        sc,
        || CheckpointPass::compute(program, sc),
        None,
    )
    .0
}

/// [`run_sampled`] with the phase-1 pass supplied by `pass` (the direct
/// functional pass, or one derived from the ladder's checkpoint grid) and
/// an optional already-measured head window to reuse, also handing back
/// the head window it simulated (`None` when it reused one, or lost it to
/// a fault).
fn sample_isolated(
    program: &Program,
    cfg: MachineConfig,
    sc: &SampleConfig,
    pass: impl Fn() -> CheckpointPass,
    reuse: Option<&HeadRun>,
) -> (SampledResult, Option<HeadRun>) {
    // Phase 1 runs under the same isolation discipline as the segment
    // workers: a panic is caught, retried once, and a persistent failure
    // degrades the whole run to the deterministic full-detail fallback —
    // this function never panics on a fault, only on a misused config.
    let (pass, healed) = match run_caught(&pass) {
        Ok(p) => (Ok(p), None),
        Err(p0) => (
            run_caught(&pass).map_err(|_| p0),
            Some(FaultRecovery::Retried),
        ),
    };
    let (error, pass) = match pass {
        Ok(pass) => {
            match sample_with_pass(program, cfg.clone(), sc, &pass, reuse) {
                Ok((mut r, head)) => {
                    if let Some(recovery) = healed {
                        r.segment_faults.insert(
                            0,
                            SegmentFault {
                                segment: u64::MAX,
                                error: SampleError::SegmentPanic(
                                    "phase-1 pass panicked; retry succeeded".to_string(),
                                ),
                                recovery,
                            },
                        );
                    }
                    return (r, head);
                }
                // A self-computed pass only misfits its own shape when its
                // serialized checkpoints were corrupted (e.g. an injected
                // fault at `sample:pass-checkpoint`).
                Err(e) => (SampleError::BadCheckpoint(e.to_string()), Some(pass)),
            }
        }
        Err(p) => (SampleError::SegmentPanic(p.message), None),
    };
    eprintln!("reno-sample: phase-1 pass failed ({error}); exact full-detail fallback");
    let max = pass.as_ref().map_or(sc.max_insts, |p| p.total_insts);
    let mut r = full_detail(program, cfg, max.min(sc.max_insts));
    r.segment_faults.push(SegmentFault {
        segment: u64::MAX,
        error,
        recovery: FaultRecovery::ExactReplay,
    });
    (r, None)
}

/// Like [`run_sampled`], but reusing a precomputed (possibly
/// store-cached) phase-1 [`CheckpointPass`] instead of re-executing the
/// serial functional pass — the amortization path for design-space sweeps,
/// where one architectural pass per (program, sampling shape) serves every
/// machine config in the grid.
///
/// The pass is validated before any worker runs: every segment the
/// segmentation derives must have a checkpoint at exactly the expected
/// dynamic-instruction position (checked via the cheap
/// [`Checkpoint::peek_executed`] header probe; full validation still
/// happens when each worker deserializes its checkpoint). A pass taken for
/// a different program, scale, or sampling shape is rejected as
/// [`PassError::Mismatch`], never silently mis-sampled.
///
/// # Errors
///
/// See [`PassError`].
///
/// # Panics
///
/// Panics if `sc` is inconsistent (see [`SampleConfig::new`]).
pub fn run_sampled_with_pass(
    program: &Program,
    cfg: MachineConfig,
    sc: &SampleConfig,
    pass: &CheckpointPass,
) -> Result<SampledResult, PassError> {
    sample_with_pass(program, cfg, sc, pass, None).map(|(r, _)| r)
}

/// [`run_sampled_with_pass`] with an optional head window to reuse (see
/// [`run_segment`]), also handing back the head window it simulated.
fn sample_with_pass(
    program: &Program,
    cfg: MachineConfig,
    sc: &SampleConfig,
    pass: &CheckpointPass,
    reuse: Option<&HeadRun>,
) -> Result<(SampledResult, Option<HeadRun>), PassError> {
    sc.validate();
    let period = sc.period;
    let total = pass.total_insts;
    let grid_start = sc.head;
    let measure_head = sc.head > 0 && sc.max_insts > 0;

    // Plan the measured strata (deterministic: positions come from the
    // jitter hash, the cap from the config).
    let strata_total = if total > grid_start {
        (total - grid_start).div_ceil(period.max(1))
    } else {
        0
    };
    let mut planned: Vec<(u64, u64)> = Vec::new();
    for s in 0..strata_total {
        if sc.max_intervals.is_some_and(|m| planned.len() >= m) {
            break;
        }
        let pos = stratum_position(sc, grid_start, period, s).min(sc.max_insts);
        if pos >= total {
            break;
        }
        planned.push((s, pos));
    }

    // Carve segments: `seg_k` strata each, the last one absorbing the
    // tail fragment. Every segment runs (features are needed for all
    // strata), whether or not it measures a window.
    let (seg_k, seg_m) = segment_shape(period);
    let seg_count = strata_total.div_ceil(seg_k).max(u64::from(measure_head));
    let mut jobs: Vec<SegmentJob> = Vec::with_capacity(seg_count as usize);
    for j in 0..seg_count {
        let s_first = j * seg_k;
        let s_last = ((j + 1) * seg_k).min(strata_total);
        let seg_end = if s_last >= strata_total {
            total
        } else {
            grid_start + s_last * period
        };
        let (ck, start) = if j == 0 {
            (None, 0)
        } else {
            let expected = segment_checkpoint_position(grid_start, period, seg_k, seg_m, j);
            let bytes = pass
                .checkpoints
                .get(j as usize - 1)
                .ok_or(PassError::Mismatch {
                    segment: j,
                    expected,
                    got: None,
                })?;
            let got = Checkpoint::peek_executed(bytes);
            if got != Some(expected) {
                return Err(PassError::Mismatch {
                    segment: j,
                    expected,
                    got,
                });
            }
            (Some(bytes.clone()), expected)
        };
        jobs.push(SegmentJob {
            index: j,
            ck,
            start,
            measure_head: measure_head && j == 0,
            windows: planned
                .iter()
                .filter(|&&(s, _)| s >= s_first && s < s_last)
                .copied()
                .collect(),
            strata: (s_first, s_last),
            seg_end,
        });
    }

    let base_mem = Cpu::new(program).mem().clone();
    // Self-healing fan-out: panics are caught per job; a failed segment is
    // retried once serially (in job order, on this thread — a transient
    // fault reproduces the healthy bytes exactly), and a segment that fails
    // its retry too is replaced by the exact-replay fallback. Every path is
    // schedule-independent, so the result stays byte-identical at any
    // `RENO_THREADS` for the same failure pattern.
    let flatten = |r: Result<Result<SegmentOut, SampleError>, JobPanic>| match r {
        Ok(inner) => inner,
        Err(p) => Err(SampleError::SegmentPanic(p.message)),
    };
    let first = try_par_map(&jobs, |job| {
        run_segment(program, &cfg, sc, period, &base_mem, total, job, reuse)
    });
    let mut segment_faults: Vec<SegmentFault> = Vec::new();
    let mut exact_segments: Vec<ExactSegment> = Vec::new();
    let mut outs: Vec<SegmentOut> = Vec::with_capacity(jobs.len());
    for (job, r) in jobs.iter().zip(first) {
        match flatten(r) {
            Ok(out) => outs.push(out),
            Err(error) => {
                let retried = flatten(run_caught(|| {
                    run_segment(program, &cfg, sc, period, &base_mem, total, job, reuse)
                }));
                match retried {
                    Ok(out) => {
                        segment_faults.push(SegmentFault {
                            segment: job.index,
                            error,
                            recovery: FaultRecovery::Retried,
                        });
                        outs.push(out);
                    }
                    Err(_persistent) => {
                        let (out, exact) =
                            exact_segment_fallback(program, &cfg, sc, period, &base_mem, pass, job);
                        segment_faults.push(SegmentFault {
                            segment: job.index,
                            error,
                            recovery: FaultRecovery::ExactReplay,
                        });
                        exact_segments.push(exact);
                        outs.push(out);
                    }
                }
            }
        }
    }

    // Merge, in segment order (== program order).
    let mut head = None;
    let mut head_run = None;
    let mut ft = FeatureTable {
        windows: Vec::new(),
        strata: vec![None; strata_total as usize],
        head: None,
    };
    let mut intervals: Vec<IntervalStat> = Vec::new();
    let mut detailed_insts = 0u64;
    let mut error = pass.error.clone();
    // Merged trace: segment order == program order (par_map preserves job
    // order), each window rebased onto the end of the previous one, so the
    // bytes are identical at any RENO_THREADS.
    let mut trace: Option<Box<PipelineTrace>> = cfg.trace.then(Box::default);
    for out in outs {
        if out.head.is_some() {
            head = out.head;
        }
        if out.head_run.is_some() {
            head_run = out.head_run;
        }
        if out.head_feat.is_some() {
            ft.head = out.head_feat;
        }
        for (_, iv, f) in out.windows {
            intervals.push(iv);
            ft.windows.push(f);
        }
        for (s, f) in out.strata_feats {
            ft.strata[s as usize] = f;
        }
        if let Some(t) = &mut trace {
            for seg_trace in &out.traces {
                t.append_rebased(seg_trace);
            }
        }
        detailed_insts += out.detailed_insts;
        if error.is_none() {
            error = out.error;
        }
    }
    debug_assert!(intervals
        .windows(2)
        .all(|w| w[0].start_inst < w[1].start_inst));

    let mut result = SampledResult {
        head,
        intervals,
        grid_start: sc.head,
        period,
        total_insts: total,
        halted: pass.halted,
        checksum: pass.checksum,
        digest: pass.digest,
        detailed_insts,
        error,
        model_cycles: None,
        model_r2: None,
        feature_drift: None,
        trace,
        segment_faults,
        exact_segments,
    };
    if let Err(error) = model_assist(sc, period, &mut result, &ft) {
        result.model_cycles = None;
        result.segment_faults.push(SegmentFault {
            segment: u64::MAX,
            error,
            recovery: FaultRecovery::Disabled,
        });
    }
    result.feature_drift = feature_drift(&result, &ft);
    Ok((result, head_run))
}

/// Runs `program` fully detailed and reports it as a degenerate
/// [`SampledResult`]: one "head" window covering the entire run, estimate
/// == measurement. The honest escape hatch of [`run_sampled_auto`] for
/// programs sampling cannot serve.
fn full_detail(program: &Program, cfg: MachineConfig, max_insts: u64) -> SampledResult {
    let r = Simulator::with_fuel(program, cfg, max_insts)
        .with_measure_window(0, u64::MAX)
        .run(u64::MAX);
    // The start mark fires at cycle 0, so a missing window is a simulator
    // contract violation — record it as a fault on an estimate-less result
    // instead of panicking.
    let (head, fault) = match r.measured() {
        Some((s, e)) => (Some(IntervalStat::from_marks(0, 0, &s, &e)), None),
        None => (
            None,
            Some(SegmentFault {
                segment: u64::MAX,
                error: SampleError::WindowInvalid("full-detail run produced no start mark"),
                recovery: FaultRecovery::Disabled,
            }),
        ),
    };
    SampledResult {
        head,
        intervals: Vec::new(),
        grid_start: r.retired,
        period: 1,
        total_insts: r.retired,
        halted: r.halted,
        checksum: r.checksum,
        digest: r.digest,
        detailed_insts: r.retired,
        error: None,
        model_cycles: None,
        model_r2: None,
        feature_drift: None,
        trace: r.trace,
        segment_faults: fault.into_iter().collect(),
        exact_segments: Vec::new(),
    }
}

/// Maximum tolerated [`SampledResult::feature_drift`] before a rung's
/// estimate is considered out-of-distribution and the ladder escalates.
const DRIFT_LIMIT: f64 = 0.5;

/// Ground truth for rare expensive pipeline events, from the second half
/// of the head region measured exactly from cold: `(squashes, insts)`.
/// The *first* half is startup (gzip/parser/vpr squash dozens of times
/// while initializing, then never again — those costs are already charged
/// exactly through the head stratum); rates that persist into the second
/// half belong to the steady state the windows claim to represent.
type RareEventAnchor = Option<(u64, u64)>;

/// `(squashes, insts)` from mark `from` to the end of run `r`.
fn rare_events_after(from: Option<SampleMark>, r: &SimResult) -> RareEventAnchor {
    let s = from?;
    let (_, e) = r.measured()?;
    (e.retired > s.retired).then(|| (e.stats.squashed - s.stats.squashed, e.retired - s.retired))
}

/// The anchor from a standalone cold run of the head — the same detailed
/// run segment 0's head window makes, so only needed when that window was
/// lost to a fault.
fn rare_event_anchor(program: &Program, cfg: &MachineConfig, head: u64) -> RareEventAnchor {
    let r = Simulator::with_fuel(program, cfg.clone(), head + DRAIN_PAD)
        .with_measure_window(head / 2, head)
        .run(INTERVAL_MAX_CYCLES);
    rare_events_after(r.mark_start, &r)
}

/// Rare-event blindness: squashes (memory-ordering violations and
/// misintegrations) cost tens of cycles each, and the shadow profile
/// cannot see them. vortex at `Scale::Large` loses ~6% of its cycles to
/// squashes whose rate a 768-instruction window almost never samples —
/// every window measures a clean, uniformly optimistic CPI, and the
/// dispersion/model gates are all green. The head's second half
/// establishes the steady squash rate exactly; if the windows should have
/// seen a statistically meaningful number of squashes at that rate but saw
/// almost none, the window population is blind to that cost. Escalate.
fn windows_blind_to_rare_events(r: &SampledResult, anchor: RareEventAnchor) -> bool {
    let Some((a_squash, a_insts)) = anchor else {
        return false;
    };
    if a_insts == 0 || a_squash == 0 {
        return false;
    }
    let win_insts: u64 = r.intervals.iter().map(|i| i.insts).sum();
    let win_squash: u64 = r.intervals.iter().map(|i| i.stats.squashed).sum();
    let expected = a_squash as f64 / a_insts as f64 * win_insts as f64;
    // Poisson-style rule: expecting >= 5 events, observing under a quarter
    // of them, is blindness, not luck (P[N <= E/4 | E >= 5] < ~2%).
    expected >= 5.0 && (win_squash as f64) < expected / 4.0
}

/// The ladder's detailed head stratum (shared by both rungs).
const LADDER_HEAD: u64 = 16384;
/// Fewest measured windows a rung must field to be run at all, and to be
/// accepted.
const LADDER_MIN_WINDOWS: u64 = 12;
/// Detailed warmup per ladder window: deep enough to rebuild the long-range
/// state a restart loses (RENO's integration table above all).
const LADDER_WARMUP: u64 = 2048;
/// Measured instructions per ladder window.
const LADDER_INTERVAL: u64 = 768;
/// The dense rung's sampling period.
const LADDER_DENSE_PERIOD: u64 = 12288;

/// The ladder's sparse rung period for a program of `total` instructions
/// (about 48 windows on long programs).
fn ladder_sparse_period(total: u64) -> u64 {
    (total / 48).max(32768)
}

/// The sampling shape of a ladder rung with sampling period `period`.
fn ladder_config(period: u64, max_insts: u64) -> SampleConfig {
    SampleConfig::new(LADDER_WARMUP, LADDER_INTERVAL, period)
        .with_head(LADDER_HEAD)
        .with_max_insts(max_insts)
}

/// Spacing of the ladder's length-probe checkpoint grid, in instructions,
/// until the grid fills.
const GRID_SPACING: u64 = 1 << 17;
/// Most checkpoints the grid holds: when full, every other one is dropped
/// and the spacing doubles, so memory stays bounded on any program length.
const GRID_MAX: usize = 64;

/// The ladder's one functional run: the program's exact length and
/// architectural totals, plus a checkpoint grid from which every rung's
/// [`CheckpointPass`] is derived instead of re-running the program.
struct LengthProbe {
    max_insts: u64,
    total: u64,
    halted: bool,
    checksum: u64,
    digest: u64,
    error: Option<ExecError>,
    /// The program's initial memory image, restored onto by grid restores.
    base: Memory,
    spacing: u64,
    /// `grid[i]` is the machine at instruction `(i + 1) * spacing`.
    grid: Vec<Checkpoint>,
}

impl LengthProbe {
    /// Runs `program` functionally to `halt` or `max_insts`, checkpointing
    /// every [`GRID_SPACING`] instructions until the grid fills.
    fn run(program: &Program, max_insts: u64) -> LengthProbe {
        let mut cpu = Cpu::new(program);
        let base = cpu.mem().clone();
        let dp = DecodedProgram::new(program);
        let mut spacing = GRID_SPACING;
        let mut grid: Vec<Checkpoint> = Vec::new();
        let mut error = None;
        loop {
            if grid.len() == GRID_MAX {
                grid = grid.into_iter().skip(1).step_by(2).collect();
                spacing = spacing.saturating_mul(2);
            }
            let next = (grid.len() as u64 + 1).saturating_mul(spacing);
            if next >= max_insts {
                break;
            }
            if let Err(e) = cpu.advance_decoded(&dp, next) {
                error = Some(e);
                break;
            }
            if cpu.halted() {
                break;
            }
            grid.push(Checkpoint::take_with_dirty_pages(
                &cpu,
                &cpu.mem().dirty_pages_sorted(),
            ));
        }
        if error.is_none() {
            if let Err(e) = cpu.advance_decoded(&dp, max_insts) {
                error = Some(e);
            }
        }
        LengthProbe {
            max_insts,
            total: cpu.executed(),
            halted: cpu.halted(),
            checksum: cpu.checksum(),
            digest: cpu.state_digest(),
            error,
            base,
            spacing,
            grid,
        }
    }

    /// The phase-1 pass for shape `sc`, byte-identical to
    /// [`CheckpointPass::compute`] but derived from the grid. A probe that
    /// hit an execution error falls back to the direct pass, which meets
    /// the error itself.
    fn pass_for(&self, program: &Program, sc: &SampleConfig) -> CheckpointPass {
        debug_assert_eq!(sc.max_insts, self.max_insts, "probe and rung share the cap");
        functional_pass(program, sc, self.error.is_none().then_some(self))
    }

    /// The machine at the latest grid point at or below `pos`, when that
    /// point lies past `at`; a machine already at `at` gets to `pos` sooner
    /// by running on.
    fn restore_past(&self, at: u64, pos: u64) -> Option<Cpu> {
        let g = (pos / self.spacing).min(self.grid.len() as u64);
        (at < g * self.spacing).then(|| self.grid[g as usize - 1].restore_with_base(&self.base))
    }
}

/// The production entry point: sampled simulation with an accuracy
/// escalation ladder.
///
/// * **Round 0** — sparse sampling (32k-instruction periods, 1k detailed
///   warmup per window). Accepted when enough windows were measured, the
///   shadow-profile cycle model fit them well, their dispersion
///   (95% bound) is moderate, and the shadow profile shows no large drift
///   in the beyond-L1 service mix between the fitted and unmeasured strata
///   — the common case for phase-stable programs, at a few percent detailed
///   cost.
/// * **Round 1** — dense sampling (12k periods) with a 2k warmup. The long
///   warmup matters: window restarts lose long-range microarchitectural
///   state (RENO's integration table most of all), and bursty programs
///   need both the density and the deeper refill. Accepted under the same
///   window-count/model/drift gates with a tightened R² requirement.
/// * **Fallback** — full detailed simulation. Programs too short or too
///   irregular to sample (every window gate failed) are simply measured;
///   sampling is a bargain for long programs, not a mandate for short ones.
///
/// Each row pays for its shared work once. One functional length probe
/// runs the program, checkpointing on a grid, and every rung derives its
/// phase-1 pass from that grid instead of re-running the program. The
/// first rung's head window is reused by the next rung and supplies the
/// rare-event anchor; a standalone run of the head happens only when that
/// window was lost to a fault.
///
/// The gates only ever consult the length probe and the runs' own
/// diagnostics (window count, model R², window dispersion, feature drift,
/// the anchor), so the choice is deterministic.
pub fn run_sampled_auto(program: &Program, cfg: MachineConfig, max_insts: u64) -> SampledResult {
    // Length probe: rungs that cannot field enough windows are skipped
    // instead of run and discarded.
    let probe = LengthProbe::run(program, max_insts);
    let total = probe.total;
    let fields_windows =
        |period: u64| total.saturating_sub(LADDER_HEAD) / period >= LADDER_MIN_WINDOWS;

    // Every rung measures the same cold head window: the first rung to
    // run simulates it, the next reuses it.
    let mut head: Option<HeadRun> = None;
    let mut rung = |period: u64| {
        let sc = ladder_config(period, max_insts);
        let (r, measured) = sample_isolated(
            program,
            cfg.clone(),
            &sc,
            || probe.pass_for(program, &sc),
            head.as_ref(),
        );
        if head.is_none() {
            head = measured;
        }
        (r, head.as_ref().map(|h| h.anchor))
    };

    // Ground-truth rare-event rates from the head's second half, shared by
    // both rungs' gates (a standalone run only when the head was lost).
    let mut anchor: Option<RareEventAnchor> = None;
    let mut diag = |r: &SampledResult, head_anchor: Option<RareEventAnchor>| {
        let anchor = *anchor.get_or_insert_with(|| {
            head_anchor.unwrap_or_else(|| rare_event_anchor(program, &cfg, LADDER_HEAD))
        });
        (
            r.intervals.len() as u64,
            r.model_r2
                .filter(|_| r.model_cycles.is_some())
                .unwrap_or(-1.0),
            r.cpi_ci95_rel_pct(),
            r.feature_drift.map_or(true, |d| d <= DRIFT_LIMIT)
                && !windows_blind_to_rare_events(r, anchor),
        )
    };

    // Round 0: sparse (~48 windows on long programs). Accept on a tight
    // dispersion bound alone, or on a trusted model with moderate
    // dispersion — the better the model fits, the more window dispersion it
    // has already explained away. Either way, the unmeasured strata must
    // look like the measured ones (the drift gate) and the windows must
    // reproduce the anchored rare-event rates (the blindness gate).
    let p0 = ladder_sparse_period(total);
    if fields_windows(p0) {
        let (r0, head_anchor) = rung(p0);
        let (iv, r2, ci, profile_ok) = diag(&r0, head_anchor);
        if iv >= LADDER_MIN_WINDOWS
            && profile_ok
            && (ci <= 1.0
                || (r2 >= 0.90 && ci <= 4.5)
                || (r2 >= 0.95 && ci <= 6.5)
                || (r2 >= 0.99 && ci <= 8.0))
        {
            return r0;
        }
    }

    // Round 1: dense. A trusted model is mandatory here — programs that
    // reach this rung have dispersion only a model can tame.
    if fields_windows(LADDER_DENSE_PERIOD) {
        let (r1, head_anchor) = rung(LADDER_DENSE_PERIOD);
        let (iv, r2, ci, profile_ok) = diag(&r1, head_anchor);
        if iv >= LADDER_MIN_WINDOWS
            && profile_ok
            && ((r2 >= 0.93 && ci <= 8.0) || (r2 >= 0.99 && ci <= 12.0))
        {
            return r1;
        }
    }

    // The full-detail run needs no checkpoint or head: free them first.
    drop((probe, head));
    full_detail(program, cfg, max_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_core::RenoConfig;
    use reno_isa::{Asm, Reg};

    /// A mixed kernel (loads, stores, folds, a data-dependent walk) whose
    /// working set is `8 * (mask + 1)` bytes, so tests can dial the cold-start
    /// cost independently of the run length.
    fn kernel_with(iters: i64, mask: i16) -> Program {
        let mut a = Asm::new();
        let buf = a.zeros("buf", 8 * (mask as usize + 1));
        a.li(Reg::S0, buf as i64);
        a.li(Reg::T0, iters);
        a.li(Reg::V0, 0);
        a.label("outer");
        a.andi(Reg::T1, Reg::T0, mask);
        a.slli(Reg::T1, Reg::T1, 3);
        a.add(Reg::T1, Reg::T1, Reg::S0);
        a.ld(Reg::T2, Reg::T1, 0);
        a.add(Reg::V0, Reg::V0, Reg::T2);
        a.st(Reg::V0, Reg::T1, 0);
        a.addi(Reg::V0, Reg::V0, 5);
        a.addi(Reg::V0, Reg::V0, -3);
        a.xor(Reg::V0, Reg::V0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "outer");
        a.out(Reg::V0);
        a.halt();
        a.assemble().unwrap()
    }

    fn kernel(iters: i64) -> Program {
        kernel_with(iters, 255)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::four_wide(RenoConfig::reno())
    }

    #[test]
    fn architectural_results_are_exact() {
        let p = kernel(900);
        let (ref_cpu, ref_run) = reno_func::run_to_completion(&p, 1 << 22).unwrap();
        let s = run_sampled(&p, cfg(), &SampleConfig::new(64, 128, 1024));
        assert!(s.halted);
        assert!(s.error.is_none());
        assert_eq!(s.total_insts, ref_run.executed);
        assert_eq!(s.checksum, ref_cpu.checksum());
        assert_eq!(s.digest, ref_cpu.state_digest());
        assert!(!s.intervals.is_empty());
    }

    #[test]
    fn continuous_sampling_tracks_full_run_closely() {
        // period == warmup + interval: detailed windows tile the program, so
        // the estimate must land very close to the full detailed run. The
        // small working set (256B) keeps the one-time cold-start cost — which
        // sampling deliberately leaves out of the measured windows — in the
        // noise of this short run.
        let p = kernel_with(3000, 31);
        let full = Simulator::new(&p, cfg()).run(1 << 24);
        let s = run_sampled(&p, cfg(), &SampleConfig::new(256, 768, 1024));
        let full_cpi = full.cycles as f64 / full.retired as f64;
        let err = (s.est_cpi() - full_cpi).abs() / full_cpi;
        assert!(
            err < 0.05,
            "continuous sampling drifted {:.2}% from full CPI {:.4} (est {:.4})",
            err * 100.0,
            full_cpi,
            s.est_cpi()
        );
        assert!(s.detailed_fraction() > 0.9, "windows tile the whole run");
    }

    #[test]
    fn interval_bookkeeping_is_consistent() {
        let p = kernel(1500);
        let sc = SampleConfig::new(100, 300, 2048);
        let s = run_sampled(&p, cfg(), &sc);
        for (k, i) in s.intervals.iter().enumerate() {
            // Boundaries land on retire-bundle edges, so a window may run a
            // few instructions long.
            assert!(i.insts > 0 && i.insts <= sc.interval + 8);
            assert!(i.cycles >= i.insts / 8, "4-wide bounds the IPC");
            // Interval k starts inside period k, after its warmup.
            let period_base = k as u64 * sc.period;
            assert!(
                i.start_inst >= period_base + sc.warmup && i.start_inst < period_base + sc.period,
                "interval {k} starts at {} (period base {period_base})",
                i.start_inst
            );
            assert_eq!(i.stratum, k as u64);
        }
        assert_eq!(
            s.measured_insts(),
            s.intervals.iter().map(|i| i.insts).sum()
        );
        assert!(s.detailed_insts >= s.measured_insts());
        assert!(s.detailed_fraction() < 0.5, "most of the run fast-forwards");
    }

    #[test]
    fn max_intervals_and_max_insts_cap_the_run() {
        let p = kernel(2000);
        let s = run_sampled(
            &p,
            cfg(),
            &SampleConfig::new(32, 64, 512).with_max_intervals(3),
        );
        assert_eq!(s.intervals.len(), 3);
        assert!(s.halted, "functional pass still finishes the program");

        let s = run_sampled(
            &p,
            cfg(),
            &SampleConfig::new(32, 64, 512).with_max_insts(1000),
        );
        assert!(!s.halted);
        assert_eq!(s.total_insts, 1000);
    }

    #[test]
    fn program_shorter_than_warmup_measures_nothing() {
        let mut a = Asm::new();
        a.li(Reg::T0, 1);
        a.out(Reg::T0);
        a.halt();
        let p = a.assemble().unwrap();
        let s = run_sampled(&p, cfg(), &SampleConfig::new(64, 64, 1024));
        assert!(s.halted);
        assert_eq!(s.est_cpi(), 0.0);
        assert!(s.intervals.is_empty());
        assert_eq!(s.total_insts, 3);
    }

    #[test]
    fn long_runs_span_multiple_segments() {
        // ~1.2M insts / 64k periods = 18 strata over 8-period segments =
        // 3 segments: the result must still be self-consistent (exact
        // totals, windows in every stratum, one per stratum, in order).
        let p = kernel(100_000);
        let sc = SampleConfig::new(100, 300, 65536);
        let (seg_k, _) = segment_shape(sc.period);
        let s = run_sampled(&p, cfg(), &sc);
        assert!(s.halted);
        let strata: Vec<u64> = s.intervals.iter().map(|i| i.stratum).collect();
        let want: Vec<u64> = (0..strata.len() as u64).collect();
        assert_eq!(strata, want, "one window per stratum, in order");
        assert!(
            strata.len() as u64 > 2 * seg_k,
            "the run must actually span >2 segments (got {} strata over \
             {seg_k}-period segments)",
            strata.len()
        );
    }

    #[test]
    #[should_panic(expected = "must fit inside the sampling period")]
    fn oversized_window_rejected() {
        let _ = SampleConfig::new(600, 600, 1000);
    }

    /// Two `SampledResult`s are "the same run" when every estimate-bearing
    /// field matches bit-for-bit.
    fn assert_same_run(a: &SampledResult, b: &SampledResult) {
        assert_eq!(a.total_insts, b.total_insts);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.detailed_insts, b.detailed_insts);
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (x, y) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(
                (x.start_inst, x.stratum, x.insts, x.cycles),
                (y.start_inst, y.stratum, y.insts, y.cycles)
            );
        }
        assert_eq!(a.est_cpi().to_bits(), b.est_cpi().to_bits());
        assert_eq!(
            a.model_cycles.map(f64::to_bits),
            b.model_cycles.map(f64::to_bits)
        );
    }

    #[test]
    fn pass_round_trips_and_reuses_across_configs() {
        let p = kernel(100_000);
        let sc = SampleConfig::new(100, 300, 65536);
        let pass = CheckpointPass::compute(&p, &sc);
        assert!(pass.error.is_none());
        assert!(!pass.checkpoints.is_empty(), "long run spans segments");

        // Strict serialization bijection.
        let bytes = pass.to_bytes();
        let again = CheckpointPass::from_bytes(&bytes).unwrap();
        assert_eq!(pass, again);
        assert_eq!(again.to_bytes(), bytes);

        // One pass (round-tripped through bytes, as the store would hand it
        // back) serves arbitrary machine configs bit-identically to each
        // config's own self-computed pass.
        for mc in [
            MachineConfig::four_wide(RenoConfig::reno()),
            MachineConfig::four_wide(RenoConfig::baseline()).with_pregs(96),
        ] {
            let direct = run_sampled(&p, mc.clone(), &sc);
            let reused = run_sampled_with_pass(&p, mc, &sc, &again).unwrap();
            assert_same_run(&direct, &reused);
        }
    }

    #[test]
    fn foreign_pass_is_rejected_not_missampled() {
        let p = kernel(100_000);
        let sc = SampleConfig::new(100, 300, 65536);
        // A pass missing a segment's checkpoint (e.g. taken for a shorter
        // cap or a different sampling shape) must be rejected up front.
        let mut short = CheckpointPass::compute(&p, &sc);
        short.checkpoints.pop();
        let err = run_sampled_with_pass(&p, cfg(), &sc, &short).unwrap_err();
        assert!(
            matches!(err, PassError::Mismatch { got: None, .. }),
            "got {err:?}"
        );
        // A pass whose checkpoints sit at the wrong positions (here: the
        // segment order swapped) must be rejected, never mis-restored.
        let mut swapped = CheckpointPass::compute(&p, &sc);
        assert!(swapped.checkpoints.len() >= 2, "test needs two segments");
        swapped.checkpoints.swap(0, 1);
        let err = run_sampled_with_pass(&p, cfg(), &sc, &swapped).unwrap_err();
        assert!(
            matches!(err, PassError::Mismatch { got: Some(_), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn run_line_touches_match_per_instruction_warming() {
        // A straight-line run must touch the I-side exactly as the same
        // instructions observed one by one: same lines, same order, and the
        // same last line carried into whatever comes next.
        let cfg = cfg();
        let plain = |pc: usize| DynInst {
            seq: 0,
            pc,
            inst: reno_isa::Inst::alu_ri(reno_isa::Opcode::Addi, Reg::T0, Reg::T0, 1),
            next_pc: pc + 1,
            taken: false,
            dst_val: 0,
            mem_addr: 0,
        };
        let (mut by_run, mut by_inst) = (Warmer::new(&cfg), Warmer::new(&cfg));
        let (mut warm_run, mut warm_inst) = (WarmState::cold(&cfg), WarmState::cold(&cfg));
        for (first_pc, n) in [
            (0, 1),
            (1, 6),
            (7, 9),
            (16, 1),
            (40, 1000),
            (3, 2),
            (5000, 17),
        ] {
            by_run.observe_run(first_pc, n, &mut warm_run);
            for pc in first_pc..first_pc + n as usize {
                by_inst.observe(&plain(pc), &mut warm_inst);
            }
            assert_eq!(by_run.last_line, by_inst.last_line, "run at {first_pc}");
            assert_eq!(
                warm_run.mem.cache_stats(),
                warm_inst.mem.cache_stats(),
                "run at {first_pc}"
            );
        }
    }

    /// The ladder's derived pass for both rung shapes, against the direct
    /// pass, byte for byte.
    fn assert_derived_passes_match(p: &Program, max_insts: u64, what: &str) {
        let probe = LengthProbe::run(p, max_insts);
        assert!(probe.error.is_none(), "{what}: probe ran clean");
        let p0 = ladder_sparse_period(probe.total);
        for period in [p0, LADDER_DENSE_PERIOD] {
            let sc = ladder_config(period, max_insts);
            let direct = CheckpointPass::compute(p, &sc);
            let derived = probe.pass_for(p, &sc);
            assert_eq!(
                derived.to_bytes(),
                direct.to_bytes(),
                "{what}, period {period}: derived pass differs from the direct pass"
            );
        }
    }

    #[test]
    fn derived_passes_equal_direct_passes_on_every_default_kernel() {
        for w in reno_workloads::all_workloads(reno_workloads::Scale::Default) {
            assert_derived_passes_match(&w.program, u64::MAX, w.name);
        }
    }

    #[test]
    fn derived_passes_equal_direct_passes_on_short_and_capped_runs() {
        // Shorter than one grid step: no grid checkpoint, every segment
        // checkpoint is derived from the fresh machine.
        let short = kernel(10_000);
        let probe = LengthProbe::run(&short, u64::MAX);
        assert!(probe.total < GRID_SPACING && probe.grid.is_empty());
        assert_derived_passes_match(&short, u64::MAX, "short");
        // A cap inside the program, off the grid, and a grid spacing that
        // doubled (more than GRID_MAX steps long).
        let long = kernel(1_000_000);
        assert_derived_passes_match(&long, 700_001, "capped");
        let probe = LengthProbe::run(&long, u64::MAX);
        assert!(probe.spacing > GRID_SPACING && probe.grid.len() <= GRID_MAX);
        assert_derived_passes_match(&long, u64::MAX, "doubled grid");
    }

    #[test]
    fn restored_machine_reports_the_uninterrupted_dirty_pages() {
        let p = kernel_with(200_000, 4095);
        let probe = LengthProbe::run(&p, u64::MAX);
        let ck = probe.grid.last().expect("run spans the grid");
        let mut resumed = ck.restore_with_base(&probe.base);
        let mut straight = Cpu::new(&p);
        let dp = DecodedProgram::new(&p);
        let at = resumed.executed() + 12_345;
        straight.advance_decoded(&dp, at).unwrap();
        resumed.advance_decoded(&dp, at).unwrap();
        assert_eq!(
            resumed.mem().dirty_pages_sorted(),
            straight.mem().dirty_pages_sorted()
        );
    }

    #[test]
    fn head_window_anchor_equals_the_standalone_anchor_run() {
        // vortex: the kernel the rare-event blindness gate exists for.
        let w = reno_workloads::all_workloads(reno_workloads::Scale::Default)
            .into_iter()
            .find(|w| w.name == "vortex")
            .expect("vortex is a Default kernel");
        let sc = ladder_config(LADDER_DENSE_PERIOD, u64::MAX).with_max_intervals(1);
        let (r, head) = sample_isolated(
            &w.program,
            cfg(),
            &sc,
            || CheckpointPass::compute(&w.program, &sc),
            None,
        );
        assert!(r.head.is_some() && r.segment_faults.is_empty());
        let standalone = rare_event_anchor(&w.program, &cfg(), LADDER_HEAD);
        assert!(
            standalone.is_some_and(|(squashes, _)| squashes > 0),
            "vortex squashes in its head's second half: {standalone:?}"
        );
        assert_eq!(head.map(|h| h.anchor), Some(standalone));
    }

    #[test]
    fn a_reused_head_window_changes_nothing() {
        // The dense rung takes the sparse rung's head window instead of
        // simulating it again: the run must be byte-identical either way,
        // trace included. Without jitter the first window starts right at
        // the head's end, so it runs on exactly the structures the head
        // trained.
        let p = kernel(60_000);
        let run = |mc: &MachineConfig, sc: &SampleConfig, reuse: Option<&HeadRun>| {
            sample_isolated(
                &p,
                mc.clone(),
                sc,
                || CheckpointPass::compute(&p, sc),
                reuse,
            )
        };
        let mut traced = cfg();
        traced.trace = true;
        for mc in [cfg(), traced] {
            let sc0 = SampleConfig::new(256, 512, 32768)
                .with_head(4096)
                .without_jitter();
            let sc1 = SampleConfig::new(256, 512, 12288)
                .with_head(4096)
                .without_jitter();
            let head = run(&mc, &sc0, None).1.expect("segment 0 measured the head");
            let (fresh, fresh_head) = run(&mc, &sc1, None);
            let (reused, reused_head) = run(&mc, &sc1, Some(&head));
            assert!(fresh.head.is_some() && fresh.intervals.len() > 12);
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
            // A rung hands back the head it simulated for the next rung to
            // reuse; a reused one is not handed on again.
            assert!(fresh_head.is_some() && reused_head.is_none());
        }
    }

    #[test]
    fn corrupt_pass_bytes_are_rejected() {
        let p = kernel(100_000);
        let sc = SampleConfig::new(100, 300, 65536);
        let bytes = CheckpointPass::compute(&p, &sc).to_bytes();

        assert_eq!(
            CheckpointPass::from_bytes(b"garbage!").unwrap_err(),
            PassError::BadMagic
        );
        assert_eq!(
            CheckpointPass::from_bytes(b"short").unwrap_err(),
            PassError::Truncated
        );
        let mut t = bytes.clone();
        t.truncate(t.len() - 3);
        assert_eq!(
            CheckpointPass::from_bytes(&t).unwrap_err(),
            PassError::Truncated
        );
        let mut lie = bytes.clone();
        // Claim u32::MAX checkpoints: must reject before any allocation.
        lie[8 + 4 + 8 * 4..8 + 4 + 8 * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            CheckpointPass::from_bytes(&lie).unwrap_err(),
            PassError::Truncated
        );
        let mut flip = bytes.clone();
        let first_ck = 8 + 4 + 8 * 4 + 4 + 4; // first embedded checkpoint's magic
        flip[first_ck] ^= 0x40;
        assert!(matches!(
            CheckpointPass::from_bytes(&flip).unwrap_err(),
            PassError::Checkpoint(_)
        ));
    }
}
