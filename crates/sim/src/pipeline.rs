use crate::ring::SeqRing;
use crate::stats::SampleMark;
use crate::{MachineConfig, SimResult, SimStats};
use reno_core::Reno;
use reno_cpa::{Bucket, InstRecord};
use reno_func::{Cpu, DynInst, Oracle};
use reno_isa::{OpClass, Opcode, Program, Reg, RenameClass, STACK_TOP};
use reno_mem::{MemHierarchy, ServedBy};
use reno_trace::{BranchClass, EventKind, PipelineTrace, RenameOutcome, SquashCause, SysEventKind};
use reno_uarch::{ControlKind, FrontEnd, StoreSets};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Select-to-execute latency: 1 schedule + 2 register read.
const EXE_OFFSET: u64 = 3;
/// Rename1 to dispatch (into the issue queue): rename2 + dispatch.
const RENAME_TO_DISPATCH: u64 = 2;
/// Earliest select after rename: dispatch + 1.
const RENAME_TO_SELECT: u64 = 3;
/// Completion to retirement: complete stage + retire stage.
const COMPLETE_TO_RETIRE: u64 = 2;
/// I$ data to rename: 1 more I$ stage + decode + rename entry.
const ICACHE_TO_RENAME: u64 = 3;

/// Slots of the execution event wheel. Execution events are scheduled
/// exactly [`EXE_OFFSET`] cycles ahead at select, so a tiny power-of-two
/// ring suffices.
const EXEC_WHEEL: usize = 4;

/// Slots of the select wakeup wheel. Wakeup promises are almost always
/// near-term (dispatch delay, ALU/L1 latencies, L2 and memory fills);
/// anything beyond the horizon (deep memory-queue backpressure, or the
/// "never" promise of a replayed producer) overflows into a tiny heap.
const SEL_WHEEL: usize = 512;

/// Absent register sentinel in the packed [`Slot`] fields.
const NONE32: u32 = u32::MAX;

// `Slot::flags` state bits.
const F_IN_IQ: u32 = 1 << 0;
const F_ISSUED: u32 = 1 << 1;
const F_EXEC_DONE: u32 = 1 << 2;
const F_COMPLETED: u32 = 1 << 3;
const F_ADDR_KNOWN: u32 = 1 << 4;
const F_MISPRED: u32 = 1 << 5;
const F_REEXEC_DONE: u32 = 1 << 6;
const F_NEEDS_REEXEC: u32 = 1 << 7;
const F_IN_LQ: u32 = 1 << 8;
const F_IN_SQ: u32 = 1 << 9;
const F_ELIMINATED: u32 = 1 << 10;

// `Slot::flags` facts fixed at rename, so select, issue and execute never
// re-derive them from the opcode.
/// Bits 11–12: the issue port class, an index into select's port budgets.
const PORT_SHIFT: u32 = 11;
const PORT_ALU: usize = 0;
const PORT_LOAD: usize = 1;
const PORT_STORE: usize = 2;
/// Address generation pays the §3.3 fused cycle (a displaced base under
/// [`MachineConfig::fused_extra_cycle`]).
const F_AGEN_EXTRA: u32 = 1 << 13;
/// Bits 16 and up: the execution latency of a non-load, including the
/// §3.3 fusion cost.
const LAT_SHIFT: u32 = 16;

#[derive(Clone, Copy, Debug)]
struct Fetched {
    seq: u64,
    rename_ready: u64,
    mispredicted: bool,
    /// Instruction re-entered fetch from the squash-replay queue (counted
    /// in [`SimStats::replay_renamed`] when it reaches rename).
    from_replay: bool,
}

/// A packed renamed source: physical register index (or [`NONE32`]) and
/// RENO displacement.
#[derive(Clone, Copy, Debug)]
struct SrcP {
    preg: u32,
    disp: i32,
}

const NO_SRC: SrcP = SrcP {
    preg: NONE32,
    disp: 0,
};

/// The *hot* per-ROB-entry state: everything the per-cycle scheduler loops
/// (retire's completion peek, select's eligibility exam, execute's guards
/// and latency model) need, packed into a compact 80-byte record (the full
/// slot used to be ~200 bytes). The ROB ring addresses it by sequence
/// number, so the record does not carry its own. The cold destination
/// bookkeeping lives in the parallel `dsts` array and is touched only at
/// stage boundaries (rename, retire, squash, re-execution), and the
/// critical-path facts in [`CpaFacts`] only when CPA is on.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct Slot {
    complete: u64,
    exec_start: u64,
    min_select: u64,
    /// Store sequence this load must wait for (store-sets prediction);
    /// `u64::MAX` = none.
    ss_dep: u64,
    mem_addr: u64,
    /// Position of this load's LQ entry or this store's SQ entry (see
    /// [`F_IN_LQ`] / [`F_IN_SQ`]), recorded at rename.
    lsq_pos: u64,
    srcs: [SrcP; 2],
    /// Wakeup target: the physical destination of an *issued* instruction
    /// ([`NONE32`] for eliminated instructions and for no destination).
    dst_preg: u32,
    /// The register the destination mapping replaced ([`NONE32`] if the
    /// instruction has no destination): dereferenced at retirement without
    /// touching the cold payload.
    old_preg: u32,
    flags: u32,
    op: Opcode,
}

impl Slot {
    #[inline]
    fn has(&self, f: u32) -> bool {
        self.flags & f != 0
    }

    #[inline]
    fn set(&mut self, f: u32) {
        self.flags |= f;
    }

    #[inline]
    fn clear(&mut self, f: u32) {
        self.flags &= !f;
    }

    /// The issue port class ([`PORT_ALU`], [`PORT_LOAD`], [`PORT_STORE`]).
    #[inline]
    fn port(&self) -> usize {
        ((self.flags >> PORT_SHIFT) & 3) as usize
    }

    /// Execution latency of a non-load (see [`exec_latency`]).
    #[inline]
    fn latency(&self) -> u64 {
        u64::from(self.flags >> LAT_SHIFT)
    }

    /// Extra address-generation latency of a load or store: normally zero
    /// (3-input AGU adders / sum-addressed caches); the §3.3 ablation
    /// charges one cycle for every fused operation.
    #[inline]
    fn agen_penalty(&self) -> u64 {
        u64::from(self.has(F_AGEN_EXTRA))
    }

    /// The memory range `[addr, addr+width)` this load/store touches.
    #[inline]
    fn mem_range(&self) -> (u64, u64) {
        let w = self.op.mem_width().map_or(0, |w| w.bytes());
        (self.mem_addr, w)
    }
}

/// Per-physical-register scheduler state, packed so the rename/wakeup/
/// execute paths touch one cache line per register instead of four arrays.
#[derive(Clone, Copy, Debug)]
struct PregState {
    /// Cycle from which consumers may be selected (`u64::MAX` = no promise).
    ready_sel: u64,
    /// Cycle the value completes (`u64::MAX` = unknown).
    complete: u64,
    /// The architectural value the producer writes (from the oracle).
    val: i64,
    /// Producing instruction's sequence number (for critical-path records).
    producer: u64,
}

/// What critical-path analysis needs of a ROB entry beyond its [`Slot`],
/// kept (parallel to the ROB) only when [`MachineConfig::collect_cpa`] is
/// set.
#[derive(Clone, Copy, Debug)]
struct CpaFacts {
    rename_cycle: u64,
    served: Option<ServedBy>,
    /// Producer of the last-arriving source.
    dep_seq: Option<u64>,
}

fn port_class(op: Opcode) -> usize {
    match op.class() {
        OpClass::Load => PORT_LOAD,
        OpClass::Store => PORT_STORE,
        _ => PORT_ALU,
    }
}

/// Execution latency of a non-load instruction, including the §3.3 fusion
/// cost model for displaced inputs (`d0`, `d1`).
fn exec_latency(op: Opcode, d0: i32, d1: i32, fused_extra_cycle: bool) -> u64 {
    let base = match op.class() {
        OpClass::Mul => 3,
        _ => 1,
    };
    let fused = d0 != 0 || d1 != 0;
    if !fused {
        return base;
    }
    if fused_extra_cycle {
        return base + 1;
    }
    // Zero-cycle fusion via 3-input adders for additions, address
    // generation, branch compares and store data. Fusions into general
    // shifts and multiplies, and register-register operations with BOTH
    // inputs displaced, pay one cycle (paper §3.3).
    let shifty = matches!(
        op,
        Opcode::Sll | Opcode::Srl | Opcode::Sra | Opcode::Slli | Opcode::Srli | Opcode::Srai
    );
    let mul = op.class() == OpClass::Mul;
    let both = d0 != 0 && d1 != 0 && op.class() == OpClass::AluRR;
    if shifty || mul || both {
        base + 1
    } else {
        base
    }
}

fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// Covering: does store range `s` fully cover load range `l`?
fn covers(s: (u64, u64), l: (u64, u64)) -> bool {
    s.0 <= l.0 && l.0 + l.1 <= s.0 + s.1
}

/// One entry of the (program-ordered) load or store queue. `addr`/`width`
/// are fixed at dispatch (the oracle resolves addresses up front); `done`
/// means "address generated" for stores and "execution completed" for
/// loads — exactly the conditions the forwarding and violation scans test.
#[derive(Clone, Copy, Debug)]
struct LsqEntry {
    seq: u64,
    addr: u64,
    width: u64,
    done: bool,
}

const EMPTY_LSQ: LsqEntry = LsqEntry {
    seq: u64::MAX,
    addr: 0,
    width: 0,
    done: false,
};

/// Binary search over a program-ordered load or store queue: position of
/// the first entry with `seq >= bound`.
fn lsq_lower_bound(q: &SeqRing<LsqEntry>, bound: u64) -> u64 {
    q.partition_point(|e| e.seq < bound)
}

/// A small sorted set of sequence numbers (allocation-free in steady state;
/// replaces a `HashSet<u64>` whose per-lookup hashing dominated rename).
#[derive(Debug, Default)]
struct SeqSet {
    v: Vec<u64>,
}

impl SeqSet {
    fn insert(&mut self, seq: u64) {
        if let Err(i) = self.v.binary_search(&seq) {
            self.v.insert(i, seq);
        }
    }

    fn remove(&mut self, seq: u64) -> bool {
        if self.v.is_empty() {
            return false;
        }
        match self.v.binary_search(&seq) {
            Ok(i) => {
                self.v.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

/// Long-lived microarchitectural state that outlives one [`Simulator`] run:
/// cache directories, branch-prediction structures, and the store-sets
/// memory dependence predictor.
///
/// The sampling subsystem threads one `WarmState` through a whole sampled
/// run: functional fast-forward warms it cheaply between measurement
/// intervals ([`reno_mem::MemHierarchy::warm_data`],
/// [`reno_uarch::FrontEnd::process`]), each detailed interval is built
/// around it by [`Simulator::from_cpu_warm`] and returns the further-trained
/// state from [`Simulator::run_with_state`].
#[derive(Clone, Debug)]
pub struct WarmState {
    /// Cache directory state (I$/D$/L2).
    pub mem: MemHierarchy,
    /// Direction predictor, BTB and RAS.
    pub frontend: FrontEnd,
    /// Store-sets memory dependence predictor.
    pub storesets: StoreSets,
}

impl WarmState {
    /// Cold structures for `cfg`'s machine (what [`Simulator::new`] builds
    /// internally).
    pub fn cold(cfg: &MachineConfig) -> WarmState {
        WarmState {
            mem: MemHierarchy::new(cfg.hier),
            frontend: FrontEnd::new(cfg.bpred, cfg.btb, cfg.ras_entries),
            storesets: StoreSets::new(cfg.storesets),
        }
    }
}

/// Decodes a dynamic control instruction into the front end's
/// [`ControlKind`] taxonomy — shared between the fetch stage and the
/// sampling subsystem's functional warming (which must train the predictors
/// exactly as fetch would).
pub fn classify_control(d: &DynInst) -> ControlKind {
    classify_control_op(d.inst.op, d.inst.rs1)
}

#[inline]
fn classify_control_op(op: Opcode, rs1: Reg) -> ControlKind {
    match op {
        Opcode::Br => ControlKind::DirectJump,
        Opcode::Jal => ControlKind::Call,
        Opcode::Jr => {
            if rs1 == Reg::RA {
                ControlKind::Return
            } else {
                ControlKind::IndirectJump
            }
        }
        Opcode::Jalr => ControlKind::IndirectCall,
        _ => ControlKind::Cond,
    }
}

/// The cycle-level out-of-order core. See the crate docs for the model, the
/// event-driven scheduler, and an end-to-end example.
pub struct Simulator<'p> {
    cfg: MachineConfig,
    /// Run the reference paths: the whole-ROB polling scheduler and the
    /// per-instruction `Oracle::next` feed (see
    /// [`Simulator::with_reference_paths`]).
    reference: bool,
    oracle: Oracle<'p>,
    oracle_done: bool,
    /// The dynamic instruction stream's in-flight window, indexed by
    /// `seq & dyn_mask`: each [`DynInst`] is written once (at first fetch)
    /// and read by every later stage, including squash replays — the ring
    /// outlives fetch/ROB residency because the live window (ROB + fetch
    /// buffer) is strictly smaller than the ring.
    dyn_ring: Vec<DynInst>,
    /// Decode-time rename pre-classification of each ring entry,
    /// index-aligned with `dyn_ring`: written by the same feed that writes
    /// the [`DynInst`], consumed by the rename stage instead of re-deriving
    /// the instruction's shape per dynamic instance.
    class_ring: Vec<RenameClass>,
    dyn_mask: u64,
    /// The sequence number fetch takes next. Sequence numbers move through
    /// the pipeline as one contiguous run: the ROB holds
    /// `[rob.head(), rob.tail())`, the fetch buffer continues it up to
    /// `fetch_next`, and a squash moves `fetch_next` back to the first
    /// squashed instruction.
    fetch_next: u64,
    /// The first sequence number never fetched: `[fetch_next, fresh)` is
    /// the squash-replay queue.
    fresh: u64,
    /// End of the block-batched feed's prefill: `[fresh, feed_tail)` are
    /// already in the rings (written by `Oracle::refill`) but not yet
    /// fetched. Equal to `fresh` on the reference feed.
    feed_tail: u64,

    frontend: FrontEnd,
    fetch_buf: SeqRing<Fetched>,
    fetch_stalled_until: u64,
    waiting_branch: Option<u64>,
    halt_seen: bool,

    reno: Reno,
    /// Hot scheduling state, one compact entry per ROB slot, addressed by
    /// sequence number: the ROB always holds a contiguous run of them, so
    /// `rob.head()` is the oldest in-flight instruction.
    rob: SeqRing<Slot>,
    /// The cold half of each ROB entry, parallel to `rob` (indexed by
    /// `rob.slot(seq)`): of the whole [`reno_core::Renamed`] record only the
    /// destination bookkeeping is live after dispatch (rollback at squash,
    /// shared-mapping lookup at re-execution, CPA). The [`DynInst`] itself
    /// lives in `dyn_ring`.
    dsts: Vec<Option<reno_core::DstInfo>>,
    /// Critical-path facts, parallel to `rob`; empty unless
    /// [`MachineConfig::collect_cpa`] is set.
    cpa_facts: Vec<CpaFacts>,
    iq_count: usize,

    /// Program-ordered load queue (ROB-resident, non-eliminated loads).
    lq: SeqRing<LsqEntry>,
    /// Program-ordered store queue (ROB-resident stores; the committed half
    /// lives in `store_drain`, and the two together hold the `sq_size`
    /// entries).
    sq: SeqRing<LsqEntry>,
    /// Integrated loads awaiting pre-retirement re-execution, in program
    /// order (replaces a whole-ROB scan per cycle).
    reexec_queue: VecDeque<u64>,

    pregs: Vec<PregState>,

    // --- Event-driven scheduler state (unused on the reference paths) ---
    /// Execution calendar: `exec_wheel[c % EXEC_WHEEL]` holds the sequence
    /// numbers selected to begin execution at cycle `c`, in program order.
    exec_wheel: [Vec<u64>; EXEC_WHEEL],
    /// IQ entries whose wakeup promises have matured; examined (in program
    /// order) by select every cycle. Sorted by sequence number.
    iq_ready: Vec<u64>,
    /// Near-term sleepers: `sel_wheel[c % SEL_WHEEL]` holds IQ entries whose
    /// wakeup promise matures at cycle `c`.
    sel_wheel: Vec<Vec<u64>>,
    /// Sleepers beyond the wheel horizon: `(wake_at, seq)`. Almost always
    /// empty; also parks never-selectable entries (`wake_at == u64::MAX`).
    sel_far: BinaryHeap<Reverse<(u64, u64)>>,
    /// IQ entries blocked on a register with no completion promise yet
    /// (producer not selected): woken explicitly when it is.
    preg_waiters: Vec<Vec<u64>>,
    /// Scratch: consumers woken by this cycle's issues, filed after select.
    woken: Vec<u64>,
    /// Scratch for draining the wakeup structures on a reschedule.
    resched_scratch: Vec<u64>,
    /// A load completed *earlier* than its optimistic wakeup promised (MSHR
    /// merge with an in-flight fill): sleeping promises may be stale, so
    /// re-examine every pending entry this cycle.
    resched_all: bool,

    mem: MemHierarchy,
    storesets: StoreSets,
    suppress_integration: SeqSet,
    /// Retired stores awaiting their D$ write (the store queue's committed
    /// half). Drained at `store_ports` per cycle; integrated-load
    /// re-execution shares the same port (paper §2.2).
    store_drain: VecDeque<u64>,
    port_budget: usize,

    cycle: u64,
    retired: u64,
    halt_retired: bool,
    stats: SimStats,
    cpa: Vec<InstRecord>,
    /// Structured event sink (present only when `cfg.trace`): every stage
    /// guards its hook with one `Option` check, so a disabled trace costs
    /// nothing and changes nothing (`trace_differential` tests pin both).
    trace: Option<Box<PipelineTrace>>,

    /// Retired-instruction boundaries of the requested measure window
    /// (`u64::MAX` = no window): snapshots are taken when `retired` first
    /// reaches each boundary.
    mark_at: (u64, u64),
    mark_start: Option<SampleMark>,
    mark_end: Option<SampleMark>,
    /// Retired-instruction count of the extra snapshot (`u64::MAX` = none
    /// requested).
    extra_at: u64,
    mark_extra: Option<SampleMark>,
    /// The earliest boundary whose snapshot is still to be taken
    /// (`u64::MAX` = none): the hot loop compares only against this.
    next_mark: u64,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over `program` with the given machine.
    pub fn new(program: &'p Program, cfg: MachineConfig) -> Simulator<'p> {
        Simulator::with_fuel(program, cfg, u64::MAX)
    }

    /// Like [`Simulator::new`] but caps the number of dynamic instructions
    /// simulated (the oracle stops feeding after `fuel` instructions).
    pub fn with_fuel(program: &'p Program, cfg: MachineConfig, fuel: u64) -> Simulator<'p> {
        Simulator::from_cpu(program, cfg, Cpu::new(program), fuel)
    }

    /// Builds a simulator that *resumes* from an existing architectural
    /// state (e.g. a restored [`reno_func::Checkpoint`]): the oracle
    /// continues from `cpu`'s current pc, and the initial physical-register
    /// values mirror `cpu`'s architectural register file (the reset map
    /// table maps logical register `r` to physical register `r`).
    ///
    /// Microarchitectural structures start cold; use
    /// [`Simulator::from_cpu_warm`] to start from functionally warmed
    /// state instead. `fuel` caps the dynamic instructions fed from this
    /// point on.
    pub fn from_cpu(
        program: &'p Program,
        cfg: MachineConfig,
        cpu: Cpu,
        fuel: u64,
    ) -> Simulator<'p> {
        Simulator::build(program, cfg, cpu, fuel, None)
    }

    /// Like [`Simulator::from_cpu`], but built around pre-warmed cache
    /// directories, predictors and store-sets (see [`WarmState`]) instead
    /// of cold ones — no cold structure is built only to be replaced.
    pub fn from_cpu_warm(
        program: &'p Program,
        cfg: MachineConfig,
        cpu: Cpu,
        fuel: u64,
        warm: WarmState,
    ) -> Simulator<'p> {
        Simulator::build(program, cfg, cpu, fuel, Some(warm))
    }

    fn build(
        program: &'p Program,
        cfg: MachineConfig,
        cpu: Cpu,
        fuel: u64,
        warm: Option<WarmState>,
    ) -> Simulator<'p> {
        let total = cfg.reno.total_pregs;
        let mut pregs = vec![
            PregState {
                ready_sel: 0,
                complete: 0,
                val: 0,
                producer: u64::MAX,
            };
            total
        ];
        debug_assert_eq!(Cpu::new(program).reg(Reg::SP), STACK_TOP as i64);
        for r in Reg::all() {
            pregs[r.index()].val = cpu.reg(r);
        }
        // The live seq window spans the ROB plus the fetch buffer; fetch_stage
        // gates on `len >= fetch_width * 4` *before* fetching up to another
        // `fetch_width`, so the buffer legally peaks at `5 * fetch_width - 1`.
        // `next_power_of_two` rounds up past the peak, and the batched feed's
        // room computation keeps prefilled-but-unfetched entries within
        // whatever slack that leaves.
        let dyn_ring_size = (cfg.rob_size + cfg.fetch_width * 5).next_power_of_two();
        let start_seq = cpu.executed();
        let nop_class = RenameClass::of(&reno_isa::Inst::alu_ri(
            Opcode::Addi,
            Reg::ZERO,
            Reg::ZERO,
            0,
        ));
        // The ROB's positions are sequence numbers, starting at the first
        // instruction this simulator fetches.
        let rob = SeqRing::new(
            cfg.rob_size,
            Slot {
                complete: 0,
                exec_start: u64::MAX,
                min_select: 0,
                ss_dep: u64::MAX,
                mem_addr: 0,
                lsq_pos: 0,
                srcs: [NO_SRC; 2],
                dst_preg: NONE32,
                old_preg: NONE32,
                flags: 0,
                op: Opcode::Halt,
            },
            start_seq,
        );
        // A cold machine builds these at their fields, interleaved with its
        // other allocations.
        let (frontend, mem, storesets) = match warm {
            Some(w) => (Some(w.frontend), Some(w.mem), Some(w.storesets)),
            None => (None, None, None),
        };
        Simulator {
            frontend: frontend
                .unwrap_or_else(|| FrontEnd::new(cfg.bpred, cfg.btb, cfg.ras_entries)),
            reno: Reno::new(cfg.reno),
            mem: mem.unwrap_or_else(|| MemHierarchy::new(cfg.hier)),
            storesets: storesets.unwrap_or_else(|| StoreSets::new(cfg.storesets)),
            oracle: Oracle::from_cpu(cpu, program, fuel),
            oracle_done: false,
            dyn_ring: vec![
                DynInst {
                    seq: u64::MAX,
                    pc: 0,
                    inst: reno_isa::Inst::alu_ri(Opcode::Addi, Reg::ZERO, Reg::ZERO, 0),
                    next_pc: 0,
                    taken: false,
                    dst_val: 0,
                    mem_addr: 0,
                };
                dyn_ring_size
            ],
            class_ring: vec![nop_class; dyn_ring_size],
            dyn_mask: dyn_ring_size as u64 - 1,
            fetch_next: start_seq,
            fresh: start_seq,
            feed_tail: start_seq,
            fetch_buf: SeqRing::new(
                cfg.fetch_width * 5,
                Fetched {
                    seq: u64::MAX,
                    rename_ready: 0,
                    mispredicted: false,
                    from_replay: false,
                },
                0,
            ),
            fetch_stalled_until: 0,
            waiting_branch: None,
            halt_seen: false,
            dsts: vec![None; rob.capacity()],
            cpa_facts: if cfg.collect_cpa {
                vec![
                    CpaFacts {
                        rename_cycle: 0,
                        served: None,
                        dep_seq: None,
                    };
                    rob.capacity()
                ]
            } else {
                Vec::new()
            },
            rob,
            iq_count: 0,
            lq: SeqRing::new(cfg.lq_size, EMPTY_LSQ, 0),
            sq: SeqRing::new(cfg.sq_size, EMPTY_LSQ, 0),
            reexec_queue: VecDeque::new(),
            pregs,
            exec_wheel: std::array::from_fn(|_| Vec::with_capacity(cfg.issue_width)),
            iq_ready: Vec::with_capacity(cfg.iq_size),
            sel_wheel: vec![Vec::new(); SEL_WHEEL],
            sel_far: BinaryHeap::with_capacity(cfg.iq_size),
            preg_waiters: vec![Vec::new(); total],
            woken: Vec::with_capacity(cfg.iq_size),
            resched_scratch: Vec::with_capacity(2 * cfg.iq_size),
            resched_all: false,
            suppress_integration: SeqSet::default(),
            store_drain: VecDeque::new(),
            port_budget: 0,
            cycle: 0,
            retired: 0,
            halt_retired: false,
            stats: SimStats::default(),
            cpa: Vec::new(),
            trace: cfg.trace.then(Box::default),
            mark_at: (u64::MAX, u64::MAX),
            mark_start: None,
            mark_end: None,
            extra_at: u64::MAX,
            mark_extra: None,
            next_mark: u64::MAX,
            reference: false,
            cfg,
        }
    }

    /// Runs the reference implementations instead of the host-side
    /// optimizations: the whole-ROB polling scheduler instead of the
    /// event-driven one, and one `Oracle::next` call per fetched
    /// instruction instead of the block-batched `Oracle::refill` feed.
    ///
    /// Simulated timing and every counter are identical either way; the
    /// `sched_equivalence`, `feed_equivalence` and `pinned_timing` tests
    /// compare the two.
    /// The reference paths are slower and exist only as that baseline.
    #[must_use]
    pub fn with_reference_paths(mut self) -> Simulator<'p> {
        self.reference = true;
        self
    }

    /// Requests counter snapshots when `start` and `end` instructions (from
    /// this simulator's own starting point) have retired; the pair is
    /// reported in [`SimResult::mark_start`] / [`SimResult::mark_end`] and
    /// combined by [`SimResult::measured`]. With both boundaries inside the
    /// fueled region, the pipeline is in full flight at both snapshots, so
    /// the delta measures steady-state cycles without fill or drain edges.
    /// The run stops as soon as the end mark is taken — in-flight younger
    /// instructions are the caller's padding, not worth detailed cycles.
    ///
    /// Such a stopped run still reports exact counters and marks, but
    /// [`SimResult::digest`], [`SimResult::checksum`] and
    /// [`SimResult::halted`] come from the oracle, which has executed
    /// ahead of retirement: as far as fetch got on the reference feed, and
    /// as far as the last block refill on the default batched feed. They
    /// describe neither the end boundary nor what the other feed reports.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    #[must_use]
    pub fn with_measure_window(mut self, start: u64, end: u64) -> Simulator<'p> {
        assert!(start <= end, "measure window boundaries out of order");
        self.mark_at = (start, end);
        self.next_mark = self.next_mark.min(start);
        self
    }

    /// Requests one more counter snapshot, reported in
    /// [`SimResult::mark_extra`], when `at` instructions (from this
    /// simulator's own starting point) have retired — e.g. so one detailed
    /// run over a window also yields the counters of a sub-range of it.
    /// The snapshot never changes the simulation; `at` past the end mark is
    /// never reached.
    #[must_use]
    pub fn with_extra_mark(mut self, at: u64) -> Simulator<'p> {
        self.extra_at = at;
        self.next_mark = self.next_mark.min(at);
        self
    }

    /// Runs to completion (program halt / oracle exhaustion + pipeline
    /// drain), or at most `max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant violation).
    pub fn run(self, max_cycles: u64) -> SimResult {
        self.run_with_state(max_cycles).0
    }

    /// Like [`Simulator::run`], but also hands back the trained
    /// microarchitectural structures so a sampling engine can carry cache,
    /// predictor, and store-sets state forward into the next interval.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant violation).
    pub fn run_with_state(mut self, max_cycles: u64) -> (SimResult, WarmState) {
        if self.trace.is_some() {
            // Arm the hierarchy's memory-track sink here rather than at
            // construction, so a warmed hierarchy handed to
            // `from_cpu_warm` is armed the same way as a cold one.
            self.mem.enable_trace();
        }
        let naive = self.reference;
        let mut last_progress = (0u64, 0u64);
        while !self.finished() && self.cycle < max_cycles {
            self.port_budget = self.cfg.store_ports;
            self.retire_stage();
            if self.retired >= self.next_mark && self.take_due_marks() {
                // The measurement is complete: everything younger than the
                // end boundary is the sampling engine's padding, which the
                // functional fast-forward re-executes anyway. Stop here
                // instead of paying detailed cost for the drain.
                break;
            }
            self.reexec_stage();
            self.drain_stores();
            if self.finished() {
                break;
            }
            if naive {
                self.naive_execute_stage();
                self.naive_select_stage();
            } else {
                self.execute_stage();
                self.select_stage();
            }
            self.rename_stage();
            self.fetch_stage();
            self.stats.iq_occ_sum += self.iq_count as u64;
            self.stats.rob_occ_sum += self.rob.len() as u64;
            if let Some(t) = &mut self.trace {
                t.sample(self.cycle, self.rob.len(), self.iq_count);
                self.mem.drain_trace(&mut t.sys);
            }
            self.cycle += 1;

            // Deadlock guard: something must retire every so often.
            if self.cycle - last_progress.0 > 100_000 {
                assert!(
                    self.retired > last_progress.1,
                    "pipeline deadlock at cycle {} (retired {}, rob {}, iq {})",
                    self.cycle,
                    self.retired,
                    self.rob.len(),
                    self.iq_count
                );
                last_progress = (self.cycle, self.retired);
            }
        }
        self.finish()
    }

    /// Takes every snapshot whose boundary `retired` has reached (start,
    /// extra, end, in that order) and re-arms [`Simulator::next_mark`];
    /// returns whether the end mark was taken.
    fn take_due_marks(&mut self) -> bool {
        if self.mark_start.is_none() && self.retired >= self.mark_at.0 {
            self.mark_start = Some(self.mark_now());
        }
        if self.mark_extra.is_none() && self.retired >= self.extra_at {
            self.mark_extra = Some(self.mark_now());
        }
        if self.mark_end.is_none() && self.retired >= self.mark_at.1 {
            self.mark_end = Some(self.mark_now());
            return true;
        }
        let pending = |at: u64, taken: bool| if taken { u64::MAX } else { at };
        self.next_mark = pending(self.mark_at.0, self.mark_start.is_some())
            .min(pending(self.extra_at, self.mark_extra.is_some()))
            .min(pending(self.mark_at.1, self.mark_end.is_some()));
        false
    }

    fn mark_now(&self) -> SampleMark {
        SampleMark {
            cycles: self.cycle,
            retired: self.retired,
            stats: self.stats,
            reno: *self.reno.stats(),
        }
    }

    fn finished(&self) -> bool {
        self.halt_retired
            || (self.oracle_done
                && self.rob.is_empty()
                && self.fetch_buf.is_empty()
                && self.fetch_next == self.fresh)
    }

    /// Pre-retirement re-execution of integrated loads (paper §2.2): each
    /// uses a spare slot on the D$ store retirement port, any time between
    /// integration and retirement. Verification failure squashes from the
    /// load and re-renames it with integration suppressed.
    fn reexec_stage(&mut self) {
        while self.port_budget > 0 {
            // Integrated loads are complete at rename, so the oldest pending
            // candidate is simply the queue front (kept in program order;
            // squashes trim it from the back).
            let Some(&seq) = self.reexec_queue.front() else {
                break;
            };
            debug_assert!(
                self.rob.contains(seq),
                "re-exec candidates are ROB-resident"
            );
            // The shared register's value must have been produced already.
            let m = self.dsts[self.rob.slot(seq)]
                .expect("integrated load has a mapping")
                .new;
            if self.pregs[m.preg.index()].complete > self.cycle {
                break; // oldest pending re-exec still waits for its producer
            }
            self.port_budget -= 1;
            let mem_addr = self.rob[seq].mem_addr;
            let expected = self.pregs[m.preg.index()].val.wrapping_add(m.disp as i64);
            if expected != self.dyn_of(seq).dst_val {
                self.stats.misintegrations += 1;
                self.suppress_integration.insert(seq);
                self.squash_from(seq, self.cycle + 1, SquashCause::Misintegration);
                continue;
            }
            self.stats.reexec_loads += 1;
            self.rob[seq].set(F_REEXEC_DONE);
            self.reexec_queue.pop_front();
            // The re-execution touches the cache like a normal access.
            self.mem.access_data(mem_addr, self.cycle, false);
        }
    }

    /// Writes committed stores to the D$ with whatever port bandwidth
    /// retirement left over this cycle.
    fn drain_stores(&mut self) {
        while self.port_budget > 0 {
            let Some(addr) = self.store_drain.pop_front() else {
                break;
            };
            self.mem.access_data(addr, self.cycle, true);
            self.port_budget -= 1;
        }
    }

    fn finish(mut self) -> (SimResult, WarmState) {
        if let Some(t) = &mut self.trace {
            // Flush buffered memory events and balance MSHR allocations with
            // retires for misses still in flight at the end of the run.
            self.mem.finish_trace(&mut t.sys);
        }
        let result = SimResult {
            cycles: self.cycle,
            retired: self.retired,
            stats: self.stats,
            reno: *self.reno.stats(),
            it: *self.reno.it_stats(),
            frontend: *self.frontend.stats(),
            caches: self.mem.cache_stats(),
            hier: *self.mem.stats(),
            digest: self.oracle.cpu().state_digest(),
            checksum: self.oracle.cpu().checksum(),
            halted: self.oracle.halted(),
            cpa: self.cpa,
            mark_start: self.mark_start,
            mark_end: self.mark_end,
            mark_extra: self.mark_extra,
            trace: self.trace,
        };
        let warm = WarmState {
            mem: self.mem,
            frontend: self.frontend,
            storesets: self.storesets,
        };
        (result, warm)
    }

    // ------------------------------------------------------------- helpers

    #[inline]
    fn dyn_of(&self, seq: u64) -> &DynInst {
        &self.dyn_ring[(seq & self.dyn_mask) as usize]
    }

    fn consumer_ready_from_complete(&self, complete: u64) -> u64 {
        complete + 1 - EXE_OFFSET + (self.cfg.sched_loop - 1)
    }

    /// Occupied store-queue entries: the ROB-resident stores plus the
    /// committed ones still draining to the D$.
    fn sq_occupancy(&self) -> usize {
        self.sq.len() + self.store_drain.len()
    }

    /// Squashes the ROB-resident instruction `first_seq` and everything
    /// younger.
    fn squash_from(&mut self, first_seq: u64, refetch_at: u64, cause: SquashCause) {
        // Everything from `first_seq` on re-enters fetch as a replay: the
        // squashed ROB slots, then the fetch buffer, then any older replays.
        self.fetch_buf.clear();
        self.fetch_next = first_seq;
        while matches!(self.reexec_queue.back(), Some(&s) if s >= first_seq) {
            self.reexec_queue.pop_back();
        }
        while self.rob.tail() > first_seq {
            let seq = self.rob.tail() - 1;
            let slot = self.rob.pop_back().expect("tail above first_seq");
            self.reno
                .rollback_dst(self.dsts[self.rob.slot(seq)].as_ref());
            if slot.has(F_IN_IQ) {
                self.iq_count -= 1;
            }
            if slot.has(F_IN_LQ) {
                self.lq.pop_back();
            }
            if slot.has(F_IN_SQ) {
                self.sq.pop_back();
            }
            // Kill stale wakeup state for the squashed destination.
            if slot.dst_preg != NONE32 {
                let pr = &mut self.pregs[slot.dst_preg as usize];
                pr.ready_sel = u64::MAX;
                pr.complete = u64::MAX;
            }
            self.stats.squashed += 1;
            if let Some(t) = &mut self.trace {
                t.push(self.cycle, seq, EventKind::Squash { cause });
            }
        }
        self.storesets.squash_from(first_seq);
        if matches!(self.waiting_branch, Some(wb) if wb >= first_seq) {
            self.waiting_branch = None;
        }
        self.fetch_stalled_until = self.fetch_stalled_until.max(refetch_at);
        self.halt_seen = false;
    }

    // ------------------------------------------------------------- retire

    fn retire_stage(&mut self) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.has(F_COMPLETED) || head.complete + COMPLETE_TO_RETIRE > self.cycle {
                break;
            }
            let is_store = head.port() == PORT_STORE;

            if head.has(F_NEEDS_REEXEC) {
                // Integrated loads retire only after their pre-retirement
                // re-execution has verified the shared value (reexec_stage).
                if !head.has(F_REEXEC_DONE) {
                    break;
                }
            } else if is_store {
                // The store retires into the committed half of the store
                // queue and drains to the D$ in the background; its SQ entry
                // is released at drain time.
                self.store_drain.push_back(head.mem_addr);
            }

            let seq = self.rob.head();
            let head = self.rob.pop_front().expect("nonempty");
            if let Some(t) = &mut self.trace {
                t.push(self.cycle, seq, EventKind::Retire);
            }
            if head.old_preg != NONE32 {
                self.reno
                    .retire_old(reno_core::PhysReg(head.old_preg as u16));
            }
            if head.has(F_IN_LQ) {
                self.lq.pop_front();
            }
            if head.has(F_IN_SQ) {
                // The scan-side SQ entry leaves with the ROB slot; its
                // occupancy moves to `store_drain` until the D$ write.
                self.sq.pop_front();
            }

            if self.cfg.collect_cpa {
                self.record_cpa(seq, &head);
            }

            self.retired += 1;
            n += 1;
            if head.op == Opcode::Halt {
                self.halt_retired = true;
                break;
            }
        }
    }

    fn record_cpa(&mut self, seq: u64, s: &Slot) {
        let i = self.rob.slot(seq);
        let facts = self.cpa_facts[i];
        let dispatch = facts.rename_cycle + RENAME_TO_DISPATCH;
        let (complete, dep, bucket) = if s.has(F_ELIMINATED) {
            let m = self.dsts[i]
                .expect("eliminated instructions have mappings")
                .new;
            let pc = self.pregs[m.preg.index()].complete;
            let complete = if pc == u64::MAX {
                dispatch
            } else {
                pc.max(dispatch)
            };
            (
                complete,
                Some(self.pregs[m.preg.index()].producer),
                Bucket::AluExec,
            )
        } else {
            let bucket = match facts.served {
                Some(ServedBy::Mem) => Bucket::LoadMem,
                Some(_) => Bucket::LoadExec,
                None => Bucket::AluExec,
            };
            (s.complete.max(dispatch), facts.dep_seq, bucket)
        };
        self.cpa.push(InstRecord {
            seq,
            dispatch,
            complete,
            commit: self.cycle,
            dep: dep.filter(|&d| d != u64::MAX),
            bucket,
            redirect: s.has(F_MISPRED),
        });
    }

    // ------------------------------------------------------------- execute

    /// Event-driven execute: drain this cycle's calendar slot. Events were
    /// pushed in program order at select, [`EXE_OFFSET`] cycles ago; stale
    /// events (squashed or replayed instructions) fail the guards and fall
    /// through, exactly like the naive scan's re-validation.
    fn execute_stage(&mut self) {
        let b = (self.cycle % EXEC_WHEEL as u64) as usize;
        if self.exec_wheel[b].is_empty() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.exec_wheel[b]);
        for &seq in &bucket {
            let Some(s) = self.rob.get(seq) else {
                continue; // squashed since selection
            };
            if !s.has(F_ISSUED) || s.has(F_EXEC_DONE) || s.exec_start != self.cycle {
                continue; // replayed, or a stale event for a re-renamed seq
            }
            self.execute_one(seq);
        }
        bucket.clear();
        self.exec_wheel[b] = bucket;
    }

    /// Reference implementation: whole-ROB polling, kept (behind
    /// [`Simulator::with_reference_paths`]) as the differential-testing
    /// baseline for the event-driven scheduler.
    fn naive_execute_stage(&mut self) {
        // Gather this cycle's executers in program order; check each again
        // before executing it because a violation squash may remove it.
        let seqs: Vec<u64> = (self.rob.head()..self.rob.tail())
            .filter(|&seq| {
                let s = &self.rob[seq];
                s.has(F_ISSUED) && !s.has(F_EXEC_DONE) && s.exec_start == self.cycle
            })
            .collect();
        for seq in seqs {
            let Some(s) = self.rob.get(seq) else {
                continue;
            };
            if !s.has(F_ISSUED) || s.has(F_EXEC_DONE) {
                continue; // replayed or squashed meanwhile
            }
            self.execute_one(seq);
        }
    }

    /// Puts the issued instruction `seq` back into the issue queue (a
    /// scheduler replay), selectable no earlier than `min_select`.
    fn replay_issue(&mut self, seq: u64, min_select: u64) {
        self.stats.replays += 1;
        let slot = &mut self.rob[seq];
        slot.clear(F_ISSUED);
        slot.set(F_IN_IQ);
        slot.min_select = min_select;
        let dst = slot.dst_preg;
        self.iq_count += 1;
        if dst != NONE32 {
            let pr = &mut self.pregs[dst as usize];
            pr.ready_sel = u64::MAX;
            pr.complete = u64::MAX;
        }
        if !self.reference {
            self.file_iq(seq);
        }
    }

    fn execute_one(&mut self, seq: u64) {
        let (exec_start, srcs, port) = {
            let s = &self.rob[seq];
            (s.exec_start, s.srcs, s.port())
        };

        // Verify operand availability (load-hit speculation check): any
        // source whose value is not actually ready forces a scheduler replay.
        let mut worst_ready = 0u64;
        let mut not_ready = false;
        for src in &srcs {
            if src.preg == NONE32 {
                continue;
            }
            let pr = &self.pregs[src.preg as usize];
            if pr.complete > exec_start {
                not_ready = true;
            }
            worst_ready = worst_ready.max(pr.ready_sel);
        }
        if not_ready {
            self.replay_issue(seq, worst_ready.max(self.cycle + 1));
            return;
        }

        // Record the last-arriving input's producer for CPA.
        if self.cfg.collect_cpa {
            let dep_seq = srcs
                .iter()
                .filter(|src| src.preg != NONE32)
                .max_by_key(|src| self.pregs[src.preg as usize].complete)
                .map(|src| self.pregs[src.preg as usize].producer);
            self.cpa_facts[self.rob.slot(seq)].dep_seq = dep_seq;
        }

        match port {
            PORT_LOAD => self.execute_load(seq),
            PORT_STORE => self.execute_store(seq),
            _ => {
                let slot = &mut self.rob[seq];
                let complete = exec_start + slot.latency() - 1;
                slot.complete = complete;
                slot.set(F_COMPLETED | F_EXEC_DONE);
                let mispred = slot.has(F_MISPRED);
                if mispred {
                    // Branch resolves: fetch restarts down the correct path.
                    self.fetch_stalled_until = self.fetch_stalled_until.max(complete + 1);
                    self.waiting_branch = None;
                }
                if let Some(t) = &mut self.trace {
                    t.push(complete, seq, EventKind::Complete);
                    if mispred {
                        t.push_sys(complete, SysEventKind::Resolve);
                    }
                }
            }
        }
    }

    /// Store-to-load forwarding candidate for the load `lseq`: the youngest
    /// older store with a known, overlapping address. Returns the store's
    /// sequence number and whether it fully covers the load.
    fn find_forward(&self, lseq: u64, lrange: (u64, u64)) -> Option<(u64, bool)> {
        if self.reference {
            for j in (self.rob.head()..lseq).rev() {
                let st = &self.rob[j];
                if st.op.is_store() && st.has(F_ADDR_KNOWN) {
                    let srange = st.mem_range();
                    if ranges_overlap(srange, lrange) {
                        return Some((j, covers(srange, lrange)));
                    }
                }
            }
            return None;
        }
        // Indexed path: walk only the (program-ordered) store queue.
        let end = lsq_lower_bound(&self.sq, lseq);
        for k in (self.sq.head()..end).rev() {
            let e = self.sq[k];
            if e.done && ranges_overlap((e.addr, e.width), lrange) {
                debug_assert!(self.rob.contains(e.seq), "SQ entries are ROB-resident");
                return Some((e.seq, covers((e.addr, e.width), lrange)));
            }
        }
        None
    }

    /// Memory-ordering violation candidate for the store `sseq`: the oldest
    /// younger load that already executed with an overlapping address and
    /// was not satisfied by an intervening store.
    fn find_violation(&self, sseq: u64, srange: (u64, u64)) -> Option<u64> {
        if self.reference {
            'outer: for j in sseq + 1..self.rob.tail() {
                let ld = &self.rob[j];
                if !ld.op.is_load() || !ld.has(F_EXEC_DONE) || ld.has(F_ELIMINATED) {
                    continue;
                }
                let lrange = ld.mem_range();
                if !ranges_overlap(srange, lrange) {
                    continue;
                }
                // Did an even younger (but still older-than-load) store
                // satisfy it?
                for k in (sseq + 1..j).rev() {
                    let mid = &self.rob[k];
                    if mid.op.is_store()
                        && mid.has(F_ADDR_KNOWN)
                        && ranges_overlap(mid.mem_range(), lrange)
                    {
                        continue 'outer;
                    }
                }
                return Some(j);
            }
            return None;
        }
        // Indexed path: younger executed loads from the LQ, intervening
        // stores from the SQ.
        let lstart = lsq_lower_bound(&self.lq, sseq + 1);
        'outer2: for k in lstart..self.lq.tail() {
            let le = self.lq[k];
            if !le.done || !ranges_overlap(srange, (le.addr, le.width)) {
                continue;
            }
            let lrange = (le.addr, le.width);
            let sq_lo = lsq_lower_bound(&self.sq, sseq + 1);
            let sq_hi = lsq_lower_bound(&self.sq, le.seq);
            for m in (sq_lo..sq_hi).rev() {
                let me = self.sq[m];
                if me.done && ranges_overlap((me.addr, me.width), lrange) {
                    continue 'outer2;
                }
            }
            debug_assert!(self.rob.contains(le.seq), "LQ entries are ROB-resident");
            return Some(le.seq);
        }
        None
    }

    fn execute_load(&mut self, seq: u64) {
        let (exec_start, mem_addr, lrange, agen_pen, lq_pos) = {
            let s = &self.rob[seq];
            (
                s.exec_start,
                s.mem_addr,
                s.mem_range(),
                s.agen_penalty(),
                s.lsq_pos,
            )
        };

        // Store-to-load forwarding: youngest older store with a known,
        // overlapping address.
        let forward = self.find_forward(seq, lrange);

        let hit_complete = exec_start + agen_pen + self.cfg.hier.l1d.hit_latency;
        let (complete, served) = match forward {
            Some((_, true)) => {
                self.stats.store_forwards += 1;
                (hit_complete, ServedBy::L1)
            }
            Some((j, false)) => {
                // Partial overlap: wait for the store to leave the window,
                // modelled as a retry after the store's expected retirement.
                let st_complete = if self.rob[j].has(F_COMPLETED) {
                    self.rob[j].complete
                } else {
                    self.cycle + 8
                };
                let retry = st_complete + COMPLETE_TO_RETIRE + 1;
                self.replay_issue(seq, retry.max(self.cycle + 1));
                return;
            }
            None => {
                let (done, served) = self.mem.access_data(mem_addr, exec_start + agen_pen, false);
                (done, served)
            }
        };

        let slot = &mut self.rob[seq];
        slot.complete = complete;
        slot.set(F_COMPLETED | F_EXEC_DONE | F_ADDR_KNOWN);
        let dst = slot.dst_preg;
        if let Some(t) = &mut self.trace {
            t.push(complete, seq, EventKind::Complete);
        }
        if self.cfg.collect_cpa {
            self.cpa_facts[self.rob.slot(seq)].served = Some(served);
        }
        if dst != NONE32 {
            let ready = self.consumer_ready_from_complete(complete);
            let pr = &mut self.pregs[dst as usize];
            if !self.reference && ready < pr.ready_sel {
                // The load beat its optimistic hit wakeup (MSHR merge with
                // an in-flight fill): sleeping consumers hold stale promises.
                self.resched_all = true;
            }
            pr.complete = complete;
            pr.ready_sel = ready;
        }
        debug_assert_eq!(self.lq[lq_pos].seq, seq, "rename recorded the LQ entry");
        self.lq[lq_pos].done = true;
    }

    fn execute_store(&mut self, seq: u64) {
        let (srange, complete, sq_pos) = {
            let slot = &mut self.rob[seq];
            let complete = slot.exec_start + slot.agen_penalty();
            slot.complete = complete;
            slot.set(F_COMPLETED | F_EXEC_DONE | F_ADDR_KNOWN);
            (slot.mem_range(), complete, slot.lsq_pos)
        };
        if let Some(t) = &mut self.trace {
            t.push(complete, seq, EventKind::Complete);
        }
        let pc = self.dyn_of(seq).pc;
        debug_assert_eq!(self.sq[sq_pos].seq, seq, "rename recorded the SQ entry");
        self.sq[sq_pos].done = true;
        self.storesets.store_executed(pc as u64, seq);

        // Memory-ordering violation check: a younger load already executed
        // with an overlapping address, whose youngest older known store is
        // this one, read stale data.
        if let Some(j) = self.find_violation(seq, srange) {
            self.stats.violations += 1;
            self.storesets
                .train_violation(self.dyn_of(j).pc as u64, pc as u64);
            self.squash_from(j, self.cycle + 1, SquashCause::MemOrder);
        }
    }

    // ------------------------------------------------------------- select

    /// Files the IQ entry `seq` into the scheduler's wakeup structures
    /// according to its current readiness:
    ///
    /// * a source register with no completion promise (`u64::MAX`) parks it
    ///   in that register's waiter list until the producer issues;
    /// * a known future wakeup time parks it in the wakeup wheel (or the
    ///   far heap beyond the horizon);
    /// * otherwise it joins the ready list, examined by select this cycle.
    fn file_iq(&mut self, seq: u64) {
        let Some(s) = self.rob.get(seq) else {
            return;
        };
        if !s.has(F_IN_IQ) || s.has(F_ISSUED) {
            return;
        }
        self.file_waiting(seq, s.min_select, s.srcs);
    }

    /// [`Simulator::file_iq`] for an entry known to be waiting in the IQ,
    /// given its earliest select cycle and renamed sources.
    fn file_waiting(&mut self, seq: u64, min_select: u64, srcs: [SrcP; 2]) {
        let mut wake = min_select;
        for src in srcs {
            if src.preg == NONE32 {
                continue;
            }
            let p = src.preg as usize;
            let r = self.pregs[p].ready_sel;
            if r == u64::MAX {
                if !self.preg_waiters[p].contains(&seq) {
                    self.preg_waiters[p].push(seq);
                }
                return;
            }
            wake = wake.max(r);
        }
        if wake > self.cycle {
            self.park(wake, seq);
        } else {
            self.promote(seq);
        }
    }

    /// Parks a sleeping IQ entry until cycle `wake` (> the current cycle):
    /// near-term promises go to the wakeup wheel, the rest to the far heap.
    fn park(&mut self, wake: u64, seq: u64) {
        if wake - self.cycle < SEL_WHEEL as u64 {
            self.sel_wheel[(wake % SEL_WHEEL as u64) as usize].push(seq);
        } else {
            self.sel_far.push(Reverse((wake, seq)));
        }
    }

    /// Moves a matured sleeper straight into the ready list; the select exam
    /// performs the authoritative eligibility check (and re-parks or drops
    /// entries whose state moved since they were scheduled), so no slot
    /// access is needed here. Entries usually mature in program order, so
    /// the common case appends.
    fn promote(&mut self, seq: u64) {
        match self.iq_ready.last() {
            Some(&last) if last >= seq => {
                if let Err(pos) = self.iq_ready.binary_search(&seq) {
                    self.iq_ready.insert(pos, seq);
                }
            }
            _ => self.iq_ready.push(seq),
        }
    }

    /// Event-driven select: examine only IQ entries whose wakeup promises
    /// have matured, in program order, applying exactly the eligibility
    /// rules of [`Simulator::naive_select_stage`].
    fn select_stage(&mut self) {
        // Promote matured sleepers into the ready list. On a reschedule
        // event (a load completing earlier than promised), re-file every
        // sleeper from its current state.
        if self.resched_all {
            self.resched_all = false;
            for b in 0..SEL_WHEEL {
                self.resched_scratch.append(&mut self.sel_wheel[b]);
            }
            while let Some(Reverse((_, seq))) = self.sel_far.pop() {
                self.resched_scratch.push(seq);
            }
            while let Some(seq) = self.resched_scratch.pop() {
                self.file_iq(seq);
            }
        }
        let b = (self.cycle % SEL_WHEEL as u64) as usize;
        if !self.sel_wheel[b].is_empty() {
            let mut bucket = std::mem::take(&mut self.sel_wheel[b]);
            for &seq in &bucket {
                self.promote(seq);
            }
            bucket.clear();
            self.sel_wheel[b] = bucket;
        }
        while let Some(&Reverse((at, seq))) = self.sel_far.peek() {
            if at > self.cycle {
                break;
            }
            self.sel_far.pop();
            self.promote(seq);
        }

        if self.iq_ready.is_empty() {
            return;
        }
        let mut total = self.cfg.issue_width;
        let mut ports = self.port_budgets();

        // Examine ready entries oldest-first. Entries stay in the list only
        // while they remain selectable-but-blocked (port or store-set
        // contention, or issue width exhausted); everything else is dropped
        // or re-filed where it now belongs.
        let mut ready = std::mem::take(&mut self.iq_ready);
        let mut kept = 0;
        for i in 0..ready.len() {
            let seq = ready[i];
            let mut keep = false;
            'exam: {
                let Some(s) = self.rob.get(seq) else {
                    break 'exam; // squashed
                };
                if !s.has(F_IN_IQ) || s.has(F_ISSUED) {
                    break 'exam;
                }
                // Re-derive the wakeup time: a producer replay since filing
                // may have withdrawn or postponed a completion promise.
                let mut wake = s.min_select;
                let mut blocked = None;
                for src in s.srcs {
                    if src.preg == NONE32 {
                        continue;
                    }
                    let p = src.preg as usize;
                    let r = self.pregs[p].ready_sel;
                    if r == u64::MAX {
                        blocked = Some(p);
                        break;
                    }
                    wake = wake.max(r);
                }
                if let Some(p) = blocked {
                    if !self.preg_waiters[p].contains(&seq) {
                        self.preg_waiters[p].push(seq);
                    }
                    break 'exam;
                }
                if wake > self.cycle {
                    self.park(wake, seq);
                    break 'exam;
                }
                // Selectable this cycle, modulo structural constraints.
                keep = true;
                if total == 0 {
                    break 'exam;
                }
                let port = s.port();
                if ports[port] == 0 || self.ss_blocked(s) {
                    break 'exam;
                }
                total -= 1;
                ports[port] -= 1;
                self.issue_at(seq);
                keep = false;
            }
            if keep {
                ready[kept] = seq;
                kept += 1;
            }
        }
        ready.truncate(kept);
        self.iq_ready = ready;

        // Consumers woken by this cycle's issues become selectable at the
        // earliest next cycle: file them into the wakeup structures.
        if !self.woken.is_empty() {
            let mut woken = std::mem::take(&mut self.woken);
            for &seq in &woken {
                self.file_iq(seq);
            }
            woken.clear();
            self.woken = woken;
        }
    }

    /// Per-cycle issue ports, indexed by port class.
    fn port_budgets(&self) -> [usize; 3] {
        let mut ports = [0; 3];
        ports[PORT_ALU] = self.cfg.alu_ports;
        ports[PORT_LOAD] = self.cfg.load_ports;
        ports[PORT_STORE] = self.cfg.store_ports;
        ports
    }

    /// Store-sets: a load predicted to conflict waits until the offending
    /// store's address is known.
    fn ss_blocked(&self, s: &Slot) -> bool {
        s.ss_dep != u64::MAX
            && self
                .rob
                .get(s.ss_dep)
                .is_some_and(|st| !st.has(F_ADDR_KNOWN))
    }

    /// Reference implementation of select: scan the whole ROB oldest-first.
    /// Kept (behind [`Simulator::with_reference_paths`]) as the
    /// differential-testing baseline for the event-driven scheduler.
    fn naive_select_stage(&mut self) {
        let mut total = self.cfg.issue_width;
        let mut ports = self.port_budgets();

        for seq in self.rob.head()..self.rob.tail() {
            if total == 0 {
                break;
            }
            let s = &self.rob[seq];
            if !s.has(F_IN_IQ) || s.has(F_ISSUED) || s.min_select > self.cycle {
                continue;
            }
            let port = s.port();
            if ports[port] == 0 {
                continue;
            }
            // All register sources must have been woken.
            let ready = s
                .srcs
                .iter()
                .filter(|src| src.preg != NONE32)
                .all(|src| self.pregs[src.preg as usize].ready_sel <= self.cycle);
            if !ready || self.ss_blocked(s) {
                continue;
            }
            total -= 1;
            ports[port] -= 1;
            self.issue_at(seq);
        }
    }

    /// Issues the IQ entry `seq`: shared by both scheduler implementations
    /// so the slot updates, the wakeup broadcast, and the speculative
    /// load-hit promise stay identical between them.
    fn issue_at(&mut self, seq: u64) {
        self.stats.issued += 1;
        if let Some(t) = &mut self.trace {
            t.push(self.cycle, seq, EventKind::Issue);
        }
        let exec_start = self.cycle + EXE_OFFSET;
        let hit_latency = self.cfg.hier.l1d.hit_latency;
        let slot = &mut self.rob[seq];
        let lat = if slot.port() == PORT_LOAD {
            // Load: speculative hit wakeup.
            slot.agen_penalty() + hit_latency + 1
        } else {
            slot.latency()
        };
        slot.set(F_ISSUED);
        slot.clear(F_IN_IQ);
        slot.exec_start = exec_start;
        let dst = slot.dst_preg;
        let complete = exec_start + lat - 1;
        self.iq_count -= 1;

        if dst != NONE32 {
            let p = dst as usize;
            let ready = self.consumer_ready_from_complete(complete);
            let pr = &mut self.pregs[p];
            pr.complete = complete;
            pr.ready_sel = ready;
            if !self.reference {
                // The register's promise went from "unknown" to a concrete
                // cycle: wake consumers parked on it.
                let waiters = &mut self.preg_waiters[p];
                if !waiters.is_empty() {
                    self.woken.append(waiters);
                }
            }
        }
        if !self.reference {
            self.exec_wheel[(exec_start % EXEC_WHEEL as u64) as usize].push(seq);
        }
    }

    // ------------------------------------------------------------- rename

    fn rename_stage(&mut self) {
        if self.fetch_buf.is_empty() {
            return;
        }
        self.reno.begin_group();
        let mut n = 0;
        while n < self.cfg.rename_width {
            let Some(front) = self.fetch_buf.front() else {
                break;
            };
            if front.rename_ready > self.cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.queue_stall_cycles += u64::from(n == 0);
                break;
            }
            let f = *front;
            let slot = (f.seq & self.dyn_mask) as usize;
            let d = self.dyn_ring[slot];
            let cls = self.class_ring[slot];
            let suppressed = self.suppress_integration.remove(f.seq);
            let renamed = match self
                .reno
                .rename_classified(d.pc as u64, d.inst, &cls, !suppressed)
            {
                Ok(r) => r,
                Err(_) => {
                    if suppressed {
                        self.suppress_integration.insert(f.seq);
                    }
                    self.stats.preg_stall_cycles += u64::from(n == 0);
                    break; // out of physical registers: stall
                }
            };

            let is_load = cls.is_load();
            let is_store = cls.is_store();
            let needs_iq = !renamed.is_eliminated();
            let needs_lq = needs_iq && is_load;
            let needs_sq = is_store;
            if (needs_iq && self.iq_count >= self.cfg.iq_size)
                || (needs_lq && self.lq.len() >= self.cfg.lq_size)
                || (needs_sq && self.sq_occupancy() >= self.cfg.sq_size)
            {
                // Structural hazard discovered post-rename: undo and retry
                // next cycle.
                self.reno.rollback(&renamed);
                self.reno.undo_rename_stats(&renamed);
                if suppressed {
                    self.suppress_integration.insert(f.seq);
                }
                self.stats.queue_stall_cycles += u64::from(n == 0);
                break;
            }
            self.fetch_buf.pop_front();
            self.stats.replay_renamed += u64::from(f.from_replay);

            // Register bookkeeping for issued destinations.
            let mut dst_preg = NONE32;
            if let (reno_core::RenamedKind::Issued, Some(dm)) = (renamed.kind, renamed.dst) {
                let p = dm.new.preg.index();
                self.pregs[p] = PregState {
                    ready_sel: u64::MAX,
                    complete: u64::MAX,
                    val: d.dst_val,
                    producer: f.seq,
                };
                dst_preg = p as u32;
            }

            // Memory dependence prediction.
            let ss_dep = if needs_lq {
                self.storesets.load_dependence(d.pc as u64)
            } else {
                if is_store {
                    self.storesets.rename_store(d.pc as u64, f.seq);
                }
                None
            };

            let eliminated = renamed.is_eliminated();
            if needs_iq {
                self.iq_count += 1;
            }
            let lsq_entry = LsqEntry {
                seq: f.seq,
                addr: d.mem_addr,
                width: u64::from(cls.width),
                done: false,
            };
            let lsq_pos = if needs_lq {
                self.lq.push_back(lsq_entry)
            } else if needs_sq {
                self.sq.push_back(lsq_entry)
            } else {
                0
            };

            let mut srcs = [NO_SRC; 2];
            for (i, m) in renamed.srcs.iter().flatten().enumerate() {
                srcs[i] = SrcP {
                    preg: m.preg.index() as u32,
                    disp: m.disp,
                };
            }
            let op = d.inst.op;
            let port = port_class(op);
            let fused = srcs[0].disp != 0 || srcs[1].disp != 0;
            let mut flags = (port as u32) << PORT_SHIFT;
            if port != PORT_LOAD {
                let lat = exec_latency(op, srcs[0].disp, srcs[1].disp, self.cfg.fused_extra_cycle);
                flags |= (lat as u32) << LAT_SHIFT;
            }
            if fused && self.cfg.fused_extra_cycle {
                flags |= F_AGEN_EXTRA;
            }
            if needs_iq {
                flags |= F_IN_IQ;
            }
            if needs_lq {
                flags |= F_IN_LQ;
            }
            if needs_sq {
                flags |= F_IN_SQ;
            }
            if eliminated {
                flags |= F_ELIMINATED | F_COMPLETED;
            }
            if f.mispredicted {
                flags |= F_MISPRED;
            }
            if renamed.needs_load_reexec() {
                flags |= F_NEEDS_REEXEC;
            }

            let old_preg = renamed.dst.map_or(NONE32, |d| d.old.preg.index() as u32);
            let pos = self.rob.push_back(Slot {
                complete: self.cycle + 1, // eliminated: done at rename2
                exec_start: u64::MAX,
                min_select: self.cycle + RENAME_TO_SELECT,
                ss_dep: ss_dep.unwrap_or(u64::MAX),
                mem_addr: d.mem_addr,
                lsq_pos,
                srcs,
                dst_preg,
                old_preg,
                flags,
                op,
            });
            debug_assert_eq!(pos, f.seq, "the ROB holds a contiguous run of seqs");
            let i = self.rob.slot(f.seq);
            self.dsts[i] = renamed.dst;
            if self.cfg.collect_cpa {
                self.cpa_facts[i] = CpaFacts {
                    rename_cycle: self.cycle,
                    served: None,
                    dep_seq: None,
                };
            }
            if let Some(t) = &mut self.trace {
                let outcome = match renamed.kind {
                    reno_core::RenamedKind::Issued => RenameOutcome::Issued,
                    reno_core::RenamedKind::Eliminated(c) => match c {
                        reno_core::ElimClass::Move => RenameOutcome::MoveElim,
                        reno_core::ElimClass::ConstFold => RenameOutcome::ConstFold,
                        reno_core::ElimClass::LoadCse => RenameOutcome::LoadCse,
                        reno_core::ElimClass::AluCse => RenameOutcome::AluCse,
                    },
                };
                t.push(self.cycle, f.seq, EventKind::Rename { outcome });
                if eliminated {
                    // Eliminated instructions complete at rename2 (the
                    // `complete` field the slot was just built with).
                    t.push(self.cycle + 1, f.seq, EventKind::Complete);
                }
            }
            if needs_iq && !self.reference {
                self.file_waiting(f.seq, self.cycle + RENAME_TO_SELECT, srcs);
            }
            if flags & F_NEEDS_REEXEC != 0 {
                self.reexec_queue.push_back(f.seq);
            }
            n += 1;
        }
    }

    // ------------------------------------------------------------- fetch

    /// Next instruction to fetch, as a sequence number into `dyn_ring`
    /// (writing the ring on first fetch from the oracle).
    ///
    /// On the batched path the oracle prefills the rings a decoded block at
    /// a time (`Oracle::refill`), so the per-instruction cost here is a
    /// cursor increment; the per-instruction path is kept as the
    /// differential baseline (see [`Simulator::with_reference_paths`]).
    fn next_feed(&mut self) -> Option<(u64, bool)> {
        let seq = self.fetch_next;
        if seq < self.fresh {
            self.fetch_next += 1;
            return Some((seq, true));
        }
        if self.oracle_done || self.halt_seen {
            return None;
        }
        if !self.reference {
            if seq == self.feed_tail {
                // Ring room: everything from the oldest live in-flight seq
                // (the ROB's head position, which is the next to rename when
                // the ROB is empty) through the prefill tail must stay
                // addressable without aliasing.
                let room = (self.dyn_mask + 1) - (self.feed_tail - self.rob.head());
                debug_assert!(room > 0, "dyn_ring too small for the live window");
                let n = self.oracle.refill(
                    &mut self.dyn_ring,
                    &mut self.class_ring,
                    self.dyn_mask,
                    room,
                );
                if n == 0 {
                    self.oracle_done = true;
                    return None;
                }
                self.feed_tail += n as u64;
            }
        } else {
            let Some(d) = self.oracle.next() else {
                self.oracle_done = true;
                return None;
            };
            debug_assert_eq!(d.seq, seq, "the oracle feeds consecutive seqs");
            debug_assert!(
                seq - self.rob.head() <= self.dyn_mask,
                "dyn_ring too small for the live window"
            );
            let slot = (seq & self.dyn_mask) as usize;
            self.class_ring[slot] = RenameClass::of(&d.inst);
            self.dyn_ring[slot] = d;
            self.feed_tail = seq + 1;
        }
        self.fetch_next = seq + 1;
        self.fresh = seq + 1;
        Some((seq, false))
    }

    fn fetch_stage(&mut self) {
        if self.waiting_branch.is_some() || self.cycle < self.fetch_stalled_until {
            return;
        }
        if self.fetch_buf.len() >= self.cfg.fetch_width * 4 {
            return;
        }
        // The I$ geometry is a power of two (the hierarchy checked it).
        let line_shift = self.cfg.hier.l1i.line_bytes.trailing_zeros();
        let mut cur_line: Option<u64> = None;
        let mut ic_done = self.cycle;
        let mut taken = 0;
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width {
            let Some((seq, from_replay)) = self.next_feed() else {
                break;
            };
            // Copy only the fields fetch consumes, not the whole ring record.
            let (pc, op, rs1, d_taken, next_pc) = {
                let d = &self.dyn_ring[(seq & self.dyn_mask) as usize];
                (d.pc, d.inst.op, d.inst.rs1, d.taken, d.next_pc)
            };
            let addr = Program::inst_addr(pc);
            let line = addr >> line_shift;
            if cur_line != Some(line) {
                cur_line = Some(line);
                let (done, _) = self.mem.access_inst(addr, self.cycle);
                ic_done = ic_done.max(done);
            }
            let mut mispredicted = false;
            if op.is_control() && !from_replay {
                let kind = classify_control_op(op, rs1);
                let ok = self
                    .frontend
                    .process(pc as u64, kind, d_taken, next_pc as u64);
                mispredicted = !ok;
                if let Some(t) = &mut self.trace {
                    // Mirror the FrontEndStats accounting: direct jumps and
                    // calls are always right and are not counted there, so
                    // they get no Predict event either.
                    let class = match kind {
                        ControlKind::Cond => Some(BranchClass::Cond),
                        ControlKind::Return => Some(BranchClass::Return),
                        ControlKind::IndirectJump | ControlKind::IndirectCall => {
                            Some(BranchClass::Indirect)
                        }
                        ControlKind::DirectJump | ControlKind::Call => None,
                    };
                    if let Some(class) = class {
                        t.push_sys(self.cycle, SysEventKind::Predict { class, correct: ok });
                    }
                }
            }
            let rename_ready = ic_done + ICACHE_TO_RENAME;
            self.fetch_buf.push_back(Fetched {
                seq,
                rename_ready,
                mispredicted,
                from_replay,
            });
            if let Some(t) = &mut self.trace {
                t.push(
                    self.cycle,
                    seq,
                    EventKind::Fetch {
                        pc: pc as u32,
                        op,
                        replay: from_replay,
                    },
                );
            }
            fetched += 1;

            if op == Opcode::Halt {
                self.halt_seen = true;
                break;
            }
            if mispredicted {
                self.waiting_branch = Some(seq);
                break;
            }
            if op.is_control() && d_taken {
                taken += 1;
                if taken >= 2 {
                    break; // fetch past at most one taken branch per cycle
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use reno_core::RenoConfig;
    use reno_func::run_to_completion;
    use reno_isa::Asm;

    fn loop_program(iters: i64) -> Program {
        let mut a = Asm::named("loop");
        a.li(Reg::T0, iters);
        a.li(Reg::T1, 0);
        a.label("loop");
        a.add(Reg::T1, Reg::T1, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.out(Reg::T1);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn hot_slot_stays_compact() {
        assert!(
            std::mem::size_of::<Slot>() <= 80,
            "hot slot stays compact: {} bytes",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    fn straight_line_retires_everything() {
        let mut a = Asm::new();
        for i in 0..20 {
            a.addi(Reg::T0, Reg::T0, i as i16);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let r = Simulator::new(&p, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 20);
        assert!(r.halted);
        assert_eq!(r.retired, 21);
        assert!(r.cycles > 10, "pipeline depth is visible");
    }

    #[test]
    fn timing_sim_matches_functional_results() {
        let p = loop_program(500);
        let (cpu, fr) = run_to_completion(&p, 1 << 20).unwrap();
        for cfg in [
            RenoConfig::baseline(),
            RenoConfig::me_only(),
            RenoConfig::cf_me(),
            RenoConfig::reno(),
            RenoConfig::reno_full_integration(),
            RenoConfig::full_integration_only(),
        ] {
            let r = Simulator::new(&p, MachineConfig::four_wide(cfg)).run(1 << 22);
            assert!(r.halted, "{cfg:?}");
            assert_eq!(r.retired, fr.executed, "{cfg:?}");
            assert_eq!(r.digest, cpu.state_digest(), "{cfg:?}");
            assert_eq!(r.checksum, fr.checksum, "{cfg:?}");
        }
    }

    #[test]
    fn reno_eliminates_and_speeds_up_dependent_loop() {
        let p = loop_program(2000);
        let base =
            Simulator::new(&p, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 22);
        let reno = Simulator::new(&p, MachineConfig::four_wide(RenoConfig::reno())).run(1 << 22);
        assert!(
            reno.reno.eliminated() > 1500,
            "loop addi folds: {:?}",
            reno.reno
        );
        assert!(
            reno.cycles < base.cycles,
            "RENO collapses the addi off the critical path: {} vs {}",
            reno.cycles,
            base.cycles
        );
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        // A data-dependent unpredictable branch pattern (LCG parity).
        let mut a = Asm::new();
        a.li(Reg::T0, 200); // iterations
        a.li(Reg::T1, 12345); // lcg state
        a.li(Reg::T3, 0);
        a.label("loop");
        a.li(Reg::T2, 1103515245 % 30000);
        a.mul(Reg::T1, Reg::T1, Reg::T2);
        a.addi(Reg::T1, Reg::T1, 12345);
        a.srli(Reg::T2, Reg::T1, 17); // high bits: no short period
        a.andi(Reg::T2, Reg::T2, 1);
        a.beqz(Reg::T2, "skip");
        a.addi(Reg::T3, Reg::T3, 1);
        a.label("skip");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.out(Reg::T3);
        a.halt();
        let p = a.assemble().unwrap();
        let r = Simulator::new(&p, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 22);
        assert!(r.halted);
        assert!(
            r.frontend.cond_wrong > 20,
            "LCG parity defeats the predictor: {:?}",
            r.frontend
        );
    }

    #[test]
    fn memory_violation_squash_and_storeset_training() {
        // The store's address depends on a cold-miss load; the younger load
        // to the same address issues first and must be squashed.
        let mut a = Asm::new();
        let slot = a.words("slot", &[0x0001_0000 + 64]); // holds a pointer
        let _tgt = a.zeros("tgt", 16);
        a.li(Reg::T5, 99);
        a.li(Reg::A0, slot as i64);
        a.li(Reg::T4, 0);
        a.li(Reg::T6, 20);
        a.label("loop");
        a.ld(Reg::T0, Reg::A0, 0); // pointer load (cold miss first time)
        a.st(Reg::T5, Reg::T0, 0); // store through pointer
        a.li(Reg::T1, 0x0001_0000 + 64);
        a.ld(Reg::T2, Reg::T1, 0); // same address, no name dependence
        a.add(Reg::T4, Reg::T4, Reg::T2);
        a.addi(Reg::T6, Reg::T6, -1);
        a.bnez(Reg::T6, "loop");
        a.out(Reg::T4);
        a.halt();
        let p = a.assemble().unwrap();
        let (cpu, _) = run_to_completion(&p, 1 << 20).unwrap();
        let r = Simulator::new(&p, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 22);
        assert!(r.stats.violations >= 1, "violation detected: {:?}", r.stats);
        assert_eq!(r.digest, cpu.state_digest(), "squash preserves correctness");
        assert!(
            r.stats.violations < 18,
            "store sets learn to serialize the pair: {:?}",
            r.stats
        );
    }

    #[test]
    fn misintegration_squashes_and_recovers() {
        // store r1 -> 0(sp); alias store r2 -> the same byte address through
        // a *computed* register (a different physical name, so the IT cannot
        // see the aliasing); reload 0(sp) integrates with the first store's
        // reverse entry and must fail verification.
        let mut a = Asm::new();
        a.li(Reg::T1, 111);
        a.li(Reg::T2, 222);
        a.li(Reg::T4, 8);
        a.add(Reg::T0, Reg::SP, Reg::T4); // t0 = sp + 8 (fresh physical name)
        a.st(Reg::T1, Reg::SP, 0);
        a.st(Reg::T2, Reg::T0, -8); // same address, different name
        a.ld(Reg::T3, Reg::SP, 0); // truth: 222; IT says p(T1) = 111
        a.out(Reg::T3);
        a.halt();
        let p = a.assemble().unwrap();
        let (cpu, _) = run_to_completion(&p, 1 << 20).unwrap();
        let r = Simulator::new(&p, MachineConfig::four_wide(RenoConfig::reno())).run(1 << 22);
        assert!(r.stats.misintegrations >= 1, "{:?}", r.stats);
        assert_eq!(
            r.digest,
            cpu.state_digest(),
            "re-execution preserves correctness"
        );
    }

    #[test]
    fn two_cycle_scheduler_slows_dependent_code() {
        let p = loop_program(1000);
        let tight =
            Simulator::new(&p, MachineConfig::four_wide(RenoConfig::baseline())).run(1 << 22);
        let loose = Simulator::new(
            &p,
            MachineConfig::four_wide(RenoConfig::baseline()).with_sched_loop(2),
        )
        .run(1 << 22);
        assert!(
            loose.cycles > tight.cycles,
            "{} vs {}",
            loose.cycles,
            tight.cycles
        );
    }

    #[test]
    fn small_register_file_stalls_baseline_more_than_reno() {
        let p = loop_program(1500);
        let base_small = Simulator::new(
            &p,
            MachineConfig::four_wide(RenoConfig::baseline()).with_pregs(48),
        )
        .run(1 << 22);
        let reno_small = Simulator::new(
            &p,
            MachineConfig::four_wide(RenoConfig::reno()).with_pregs(48),
        )
        .run(1 << 22);
        assert!(base_small.stats.preg_stall_cycles > 0);
        assert!(
            reno_small.stats.preg_stall_cycles < base_small.stats.preg_stall_cycles,
            "eliminated instructions allocate no registers"
        );
    }

    #[test]
    fn cpa_records_cover_retired_stream() {
        let p = loop_program(100);
        let r = Simulator::new(
            &p,
            MachineConfig::four_wide(RenoConfig::baseline()).with_cpa(),
        )
        .run(1 << 22);
        assert_eq!(r.cpa.len() as u64, r.retired);
        let b = reno_cpa::analyze(&r.cpa, 128);
        assert!(b.total() > 0);
    }

    #[test]
    fn fuel_limited_run_drains_cleanly() {
        let p = loop_program(100_000);
        let r = Simulator::with_fuel(&p, MachineConfig::four_wide(RenoConfig::reno()), 5_000)
            .run(1 << 22);
        assert!(!r.halted);
        assert_eq!(r.retired, 5_000);
    }
}
