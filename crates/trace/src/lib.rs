//! # reno-trace — structured pipeline event traces and Chrome JSON export
//!
//! The cycle-level simulator (`reno-sim`) can record a structured event
//! stream while it runs: one [`TraceEvent`] per pipeline milestone (fetch,
//! rename with its RENO elimination outcome, issue, complete, retire, or a
//! squash with its cause) plus per-cycle occupancy samples. Recording is
//! gated behind `MachineConfig::trace` and costs nothing when off — the
//! sink is an `Option` the hot loop never touches unless it is `Some`, and
//! the `pinned_timing` / `alloctrack` suites pin that a build with tracing
//! compiled in but disabled is cycle- and allocation-identical.
//!
//! [`chrome_trace_json`] renders a recorded [`PipelineTrace`] as Chrome
//! trace-event JSON (the `{"traceEvents":[...]}` flavor): one async track
//! per dynamic sequence number spanning fetch→retire (or fetch→squash, with
//! the cause), async instants for the rename/issue/complete milestones, and
//! counter tracks for ROB/IQ occupancy and windowed IPC. The output opens
//! directly in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`,
//! turning a single simulation into a browsable pipeline visualization; the
//! `trace_dump` binary in `reno-bench` is the command-line entry point.
//! [`parse_json`] reads the export back, and with it every other JSON
//! document the repository writes.

use reno_isa::Opcode;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// What the RENO renamer decided for an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenameOutcome {
    /// Entered the issue queue and executes normally.
    Issued,
    /// RENO_ME: move eliminated at rename.
    MoveElim,
    /// RENO_CF: register-immediate addition folded into a displacement.
    ConstFold,
    /// RENO_CSE+RA: load integrated (re-executes before retirement).
    LoadCse,
    /// RENO_CSE: ALU operation integrated an existing register.
    AluCse,
}

impl RenameOutcome {
    /// Short label used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            RenameOutcome::Issued => "issued",
            RenameOutcome::MoveElim => "move-elim",
            RenameOutcome::ConstFold => "const-fold",
            RenameOutcome::LoadCse => "load-cse",
            RenameOutcome::AluCse => "alu-cse",
        }
    }
}

/// Why a window of instructions was squashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquashCause {
    /// Memory-ordering violation (a load ran ahead of a conflicting store).
    MemOrder,
    /// An integrated load failed its pre-retirement re-execution.
    Misintegration,
}

impl SquashCause {
    /// Short label used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            SquashCause::MemOrder => "squash:mem-order",
            SquashCause::Misintegration => "squash:misintegration",
        }
    }
}

/// One pipeline milestone for one dynamic instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The instruction entered the fetch buffer (`replay` = refetched from
    /// the squash-replay queue).
    Fetch {
        /// Static instruction index.
        pc: u32,
        /// The opcode (for track labels).
        op: Opcode,
        /// Whether this fetch came from the squash-replay queue.
        replay: bool,
    },
    /// The instruction was renamed, with RENO's verdict.
    Rename {
        /// Issued or eliminated (and how).
        outcome: RenameOutcome,
    },
    /// Selected for execution (replays may issue an instruction again).
    Issue,
    /// Result available; `cycle` is the (possibly future) completion cycle.
    Complete,
    /// Retired in program order.
    Retire,
    /// Squashed out of the window.
    Squash {
        /// What caused the squash.
        cause: SquashCause,
    },
}

/// Which cache a memory event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLevel {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2.
    L2,
}

impl CacheLevel {
    /// Short label used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1I => "L1I",
            CacheLevel::L1D => "L1D",
            CacheLevel::L2 => "L2",
        }
    }
}

/// Which predictor structure a branch event refers to. Matches the
/// `FrontEndStats` accounting: direct jumps and calls are always correctly
/// predicted and are not recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchClass {
    /// Conditional branch (gshare).
    Cond,
    /// Return (return-address stack).
    Return,
    /// Indirect jump or call (indirect target table).
    Indirect,
}

impl BranchClass {
    /// Short label used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::Cond => "cond",
            BranchClass::Return => "return",
            BranchClass::Indirect => "indirect",
        }
    }
}

/// One event on the system tracks: memory hierarchy or branch predictor.
/// These are not tied to a sequence number — they describe shared structures
/// the pipeline interacts with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysEventKind {
    /// One probe of a cache level, with its outcome.
    CacheAccess {
        /// Which cache.
        level: CacheLevel,
        /// Whether the probe hit.
        hit: bool,
        /// Whether the probe was for a store.
        write: bool,
    },
    /// A dirty victim was evicted on fill at this level.
    CacheWriteback {
        /// Which cache.
        level: CacheLevel,
    },
    /// An MSHR slot was allocated for a memory request (cycle = start of
    /// the bus transfer slot, i.e. after any full-stall wait).
    MshrAlloc,
    /// A request merged into an already-inflight line miss.
    MshrMerge,
    /// An inflight miss completed and released its slot (cycle = the cycle
    /// the data arrived).
    MshrRetire,
    /// A request waited for a free MSHR slot.
    MshrFullStall {
        /// How many cycles it waited.
        cycles: u64,
    },
    /// A request waited for the memory bus after its data was ready to
    /// transfer.
    BusQueue {
        /// How many cycles it queued.
        cycles: u64,
    },
    /// The front end consulted a predictor structure.
    Predict {
        /// Which structure.
        class: BranchClass,
        /// Whether the prediction turned out correct.
        correct: bool,
    },
    /// A mispredicted branch resolved in the back end and redirected fetch.
    Resolve,
}

/// One recorded system-track event at `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SysEvent {
    /// Cycle the event is attributed to.
    pub cycle: u64,
    /// What happened.
    pub kind: SysEventKind,
}

/// One recorded event: a milestone for sequence number `seq` at `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the milestone is attributed to.
    pub cycle: u64,
    /// Dynamic sequence number.
    pub seq: u64,
    /// The milestone.
    pub kind: EventKind,
}

/// A per-cycle structure occupancy sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccSample {
    /// Sampled cycle.
    pub cycle: u64,
    /// Reorder-buffer occupancy.
    pub rob: u32,
    /// Issue-queue occupancy.
    pub iq: u32,
}

/// The full recorded trace of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// Milestones in recording order (per seq, recording order is pipeline
    /// order; `Complete` events may carry a future cycle).
    pub events: Vec<TraceEvent>,
    /// Occupancy samples, one per simulated cycle.
    pub counters: Vec<OccSample>,
    /// Memory-hierarchy and predictor events. Recorded in pipeline order but
    /// *attributed* cycles are not monotone: an MSHR retire carries the cycle
    /// the data arrived, which the hierarchy only learns about later.
    pub sys: Vec<SysEvent>,
}

impl PipelineTrace {
    /// Records one milestone.
    #[inline]
    pub fn push(&mut self, cycle: u64, seq: u64, kind: EventKind) {
        self.events.push(TraceEvent { cycle, seq, kind });
    }

    /// Records one occupancy sample.
    #[inline]
    pub fn sample(&mut self, cycle: u64, rob: usize, iq: usize) {
        self.counters.push(OccSample {
            cycle,
            rob: rob as u32,
            iq: iq as u32,
        });
    }

    /// All retire events, in retirement (= program) order.
    pub fn retires(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retire))
    }

    /// Number of retire events recorded.
    pub fn retire_count(&self) -> u64 {
        self.retires().count() as u64
    }

    /// Number of issue events recorded (includes replay re-issues).
    pub fn issue_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Issue))
            .count() as u64
    }

    /// Number of squash events recorded (one per squashed ROB slot).
    pub fn squash_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Squash { .. }))
            .count() as u64
    }

    /// Records one system-track event.
    #[inline]
    pub fn push_sys(&mut self, cycle: u64, kind: SysEventKind) {
        self.sys.push(SysEvent { cycle, kind });
    }

    /// Number of probes recorded for one cache level.
    pub fn cache_accesses(&self, level: CacheLevel) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::CacheAccess { level: l, .. } if l == level))
            .count() as u64
    }

    /// Number of hits recorded for one cache level.
    pub fn cache_hits(&self, level: CacheLevel) -> u64 {
        self.sys
            .iter()
            .filter(
                |e| matches!(e.kind, SysEventKind::CacheAccess { level: l, hit, .. } if l == level && hit),
            )
            .count() as u64
    }

    /// Number of dirty-victim writebacks recorded for one cache level.
    pub fn cache_writebacks(&self, level: CacheLevel) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::CacheWriteback { level: l } if l == level))
            .count() as u64
    }

    /// Number of MSHR allocations recorded.
    pub fn mshr_alloc_count(&self) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::MshrAlloc))
            .count() as u64
    }

    /// Number of MSHR merges recorded.
    pub fn mshr_merge_count(&self) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::MshrMerge))
            .count() as u64
    }

    /// Number of MSHR retires recorded.
    pub fn mshr_retire_count(&self) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::MshrRetire))
            .count() as u64
    }

    /// Total cycles spent waiting for a free MSHR slot.
    pub fn mshr_stall_cycles(&self) -> u64 {
        self.sys
            .iter()
            .filter_map(|e| match e.kind {
                SysEventKind::MshrFullStall { cycles } => Some(cycles),
                _ => None,
            })
            .sum()
    }

    /// Total cycles spent queued for the memory bus.
    pub fn bus_queue_cycles(&self) -> u64 {
        self.sys
            .iter()
            .filter_map(|e| match e.kind {
                SysEventKind::BusQueue { cycles } => Some(cycles),
                _ => None,
            })
            .sum()
    }

    /// Number of predictions recorded for one branch class.
    pub fn predict_count(&self, class: BranchClass) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::Predict { class: c, .. } if c == class))
            .count() as u64
    }

    /// Number of mispredictions recorded for one branch class.
    pub fn mispredict_count(&self, class: BranchClass) -> u64 {
        self.sys
            .iter()
            .filter(
                |e| matches!(e.kind, SysEventKind::Predict { class: c, correct } if c == class && !correct),
            )
            .count() as u64
    }

    /// Number of mispredict resolutions recorded.
    pub fn resolve_count(&self) -> u64 {
        self.sys
            .iter()
            .filter(|e| matches!(e.kind, SysEventKind::Resolve))
            .count() as u64
    }

    /// One past the last cycle any record in this trace refers to (0 for an
    /// empty trace). Used as the rebase offset when traces are concatenated.
    pub fn end_cycle(&self) -> u64 {
        let mut end = 0u64;
        for e in &self.events {
            end = end.max(e.cycle + 1);
        }
        for s in &self.counters {
            end = end.max(s.cycle + 1);
        }
        for s in &self.sys {
            end = end.max(s.cycle + 1);
        }
        end
    }

    /// One past the largest sequence number in this trace (0 if empty).
    pub fn next_seq(&self) -> u64 {
        self.events.iter().map(|e| e.seq + 1).max().unwrap_or(0)
    }

    /// Appends `other` shifted to start where this trace ends: every cycle
    /// is offset by [`end_cycle`](Self::end_cycle) and every sequence number
    /// by [`next_seq`](Self::next_seq), so concatenated segment traces stay
    /// one consistent timeline with globally unique seqs. Deterministic:
    /// depends only on the two traces' contents.
    pub fn append_rebased(&mut self, other: &PipelineTrace) {
        let dc = self.end_cycle();
        let ds = self.next_seq();
        self.events.extend(other.events.iter().map(|e| TraceEvent {
            cycle: e.cycle + dc,
            seq: e.seq + ds,
            kind: e.kind,
        }));
        self.counters
            .extend(other.counters.iter().map(|s| OccSample {
                cycle: s.cycle + dc,
                rob: s.rob,
                iq: s.iq,
            }));
        self.sys.extend(other.sys.iter().map(|s| SysEvent {
            cycle: s.cycle + dc,
            kind: s.kind,
        }));
    }
}

/// One fetch→(retire|squash|requeue) residency of a sequence number in the
/// pipeline. A squashed instruction is refetched, so one seq can have
/// several attempts; the Chrome export draws each as its own async span.
struct Attempt {
    seq: u64,
    pc: u32,
    op: Opcode,
    replay: bool,
    fetch: u64,
    outcome: Option<RenameOutcome>,
    /// `(cycle, instant-name)` milestones inside the span.
    marks: Vec<(u64, &'static str)>,
    /// `(cycle, reason)` closing the span; `None` = still in flight.
    end: Option<(u64, &'static str)>,
}

/// IPC counter window width (cycles) in the exported trace.
const IPC_WINDOW: u64 = 64;
/// Cache-activity counter window width (cycles) in the exported trace.
const SYS_WINDOW: u64 = 64;
/// Occupancy counters are emitted at this cycle granularity.
const OCC_STRIDE: u64 = 8;

fn json_escape(s: &str) -> String {
    // Labels here are opcode names and fixed strings; quotes/backslashes
    // cannot occur, but escape defensively so the writer stays total.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a recorded trace as Chrome trace-event JSON (see the crate docs).
/// Cycle numbers are written as microsecond timestamps, so one displayed
/// microsecond = one simulated cycle. The output is deterministic: equal
/// traces serialize to equal bytes.
pub fn chrome_trace_json(trace: &PipelineTrace) -> String {
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut open: HashMap<u64, usize> = HashMap::new();
    let mut last_cycle = 0u64;
    for ev in &trace.events {
        last_cycle = last_cycle.max(ev.cycle);
        match ev.kind {
            EventKind::Fetch { pc, op, replay } => {
                if let Some(&i) = open.get(&ev.seq) {
                    // A refetch while the previous residency never closed:
                    // the earlier copy was discarded from the fetch buffer
                    // by a squash (only ROB slots get Squash events).
                    if attempts[i].end.is_none() {
                        attempts[i].end = Some((ev.cycle, "requeue"));
                    }
                }
                open.insert(ev.seq, attempts.len());
                attempts.push(Attempt {
                    seq: ev.seq,
                    pc,
                    op,
                    replay,
                    fetch: ev.cycle,
                    outcome: None,
                    marks: Vec::new(),
                    end: None,
                });
            }
            _ => {
                let Some(&i) = open.get(&ev.seq) else {
                    continue;
                };
                let a = &mut attempts[i];
                if a.end.is_some() {
                    continue;
                }
                match ev.kind {
                    EventKind::Rename { outcome } => {
                        a.outcome = Some(outcome);
                        a.marks.push((ev.cycle, "rename"));
                    }
                    EventKind::Issue => a.marks.push((ev.cycle, "issue")),
                    EventKind::Complete => a.marks.push((ev.cycle, "complete")),
                    EventKind::Retire => a.end = Some((ev.cycle, "retire")),
                    EventKind::Squash { cause } => a.end = Some((ev.cycle, cause.label())),
                    EventKind::Fetch { .. } => unreachable!("handled above"),
                }
            }
        }
    }
    for s in &trace.counters {
        last_cycle = last_cycle.max(s.cycle);
    }
    for s in &trace.sys {
        last_cycle = last_cycle.max(s.cycle);
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"reno-sim\"}},\n",
    );
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"pipeline\"}},\n",
    );
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"memory\"}},\n",
    );
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"predictor\"}}",
    );

    for a in &attempts {
        let name = json_escape(&format!("{:?}@{}", a.op, a.pc));
        let (end_cycle, end_reason) = a.end.unwrap_or((last_cycle, "inflight"));
        let outcome = a.outcome.map_or("none", RenameOutcome::label);
        let _ = write!(
            out,
            ",\n{{\"ph\":\"b\",\"cat\":\"pipe\",\"id\":{},\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{},\
             \"args\":{{\"seq\":{},\"pc\":{},\"outcome\":\"{}\",\"replay\":{}}}}}",
            a.seq, name, a.fetch, a.seq, a.pc, outcome, a.replay
        );
        let mut marks: Vec<(u64, &'static str)> = a
            .marks
            .iter()
            .copied()
            .filter(|&(c, _)| c <= end_cycle)
            .collect();
        marks.sort_by_key(|&(c, _)| c);
        for (c, m) in marks {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"n\",\"cat\":\"pipe\",\"id\":{},\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{}}}",
                a.seq, m, c
            );
        }
        let _ = write!(
            out,
            ",\n{{\"ph\":\"e\",\"cat\":\"pipe\",\"id\":{},\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{},\
             \"args\":{{\"end\":\"{}\"}}}}",
            a.seq, name, end_cycle, end_reason
        );
    }

    // Occupancy counter tracks, emitted on change at OCC_STRIDE granularity.
    let mut last_emitted: Option<(u32, u32)> = None;
    for s in &trace.counters {
        if s.cycle % OCC_STRIDE != 0 {
            continue;
        }
        if last_emitted == Some((s.rob, s.iq)) {
            continue;
        }
        last_emitted = Some((s.rob, s.iq));
        let _ = write!(
            out,
            ",\n{{\"ph\":\"C\",\"pid\":1,\"name\":\"ROB occupancy\",\"ts\":{},\"args\":{{\"slots\":{}}}}}",
            s.cycle, s.rob
        );
        let _ = write!(
            out,
            ",\n{{\"ph\":\"C\",\"pid\":1,\"name\":\"IQ occupancy\",\"ts\":{},\"args\":{{\"slots\":{}}}}}",
            s.cycle, s.iq
        );
    }

    // Windowed IPC from the retire stream.
    let mut window_start = 0u64;
    let mut in_window = 0u64;
    let emit_ipc = |out: &mut String, start: u64, retired: u64| {
        let ipc = retired as f64 / IPC_WINDOW as f64;
        let _ = write!(
            out,
            ",\n{{\"ph\":\"C\",\"pid\":1,\"name\":\"IPC\",\"ts\":{},\"args\":{{\"ipc\":{:.3}}}}}",
            start, ipc
        );
    };
    for e in trace.retires() {
        while e.cycle >= window_start + IPC_WINDOW {
            emit_ipc(&mut out, window_start, in_window);
            window_start += IPC_WINDOW;
            in_window = 0;
        }
        in_window += 1;
    }
    if in_window > 0 {
        emit_ipc(&mut out, window_start, in_window);
    }

    // System-track instants: cache misses and writebacks, MSHR lifecycle and
    // stalls on the "memory" thread (tid 2); mispredictions and resolutions
    // on the "predictor" thread (tid 3). Cache *hits* are deliberately not
    // rendered as instants — at one per probe they would dominate the JSON —
    // but they are recorded, counted by the truthfulness tests, and visible
    // through the per-level activity counters below.
    let instant = |out: &mut String, tid: u32, cat: &str, name: &str, ts: u64, args: &str| {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"i\",\"cat\":\"{cat}\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{ts},\"s\":\"t\"{args}}}"
        );
    };
    for e in &trace.sys {
        match e.kind {
            SysEventKind::CacheAccess { level, hit, write } => {
                if !hit {
                    let name = format!("{} miss", level.label());
                    let args = format!(",\"args\":{{\"write\":{write}}}");
                    instant(&mut out, 2, "mem", &name, e.cycle, &args);
                }
            }
            SysEventKind::CacheWriteback { level } => {
                let name = format!("{} writeback", level.label());
                instant(&mut out, 2, "mem", &name, e.cycle, "");
            }
            SysEventKind::MshrAlloc => instant(&mut out, 2, "mem", "MSHR alloc", e.cycle, ""),
            SysEventKind::MshrMerge => instant(&mut out, 2, "mem", "MSHR merge", e.cycle, ""),
            SysEventKind::MshrRetire => instant(&mut out, 2, "mem", "MSHR retire", e.cycle, ""),
            SysEventKind::MshrFullStall { cycles } => {
                let args = format!(",\"args\":{{\"cycles\":{cycles}}}");
                instant(&mut out, 2, "mem", "MSHR full-stall", e.cycle, &args);
            }
            SysEventKind::BusQueue { cycles } => {
                let args = format!(",\"args\":{{\"cycles\":{cycles}}}");
                instant(&mut out, 2, "mem", "bus queue", e.cycle, &args);
            }
            SysEventKind::Predict { class, correct } => {
                if !correct {
                    let name = format!("mispredict:{}", class.label());
                    instant(&mut out, 3, "bpred", &name, e.cycle, "");
                }
            }
            SysEventKind::Resolve => instant(&mut out, 3, "bpred", "resolve", e.cycle, ""),
        }
    }

    // MSHR occupancy counter from the alloc/retire deltas. Retires sort
    // before allocs at the same cycle (a freed slot is reusable that cycle),
    // and one sample is emitted per cycle whose net occupancy changed.
    let mut deltas: Vec<(u64, i64)> = trace
        .sys
        .iter()
        .filter_map(|e| match e.kind {
            SysEventKind::MshrAlloc => Some((e.cycle, 1i64)),
            SysEventKind::MshrRetire => Some((e.cycle, -1i64)),
            _ => None,
        })
        .collect();
    deltas.sort_by_key(|&(c, d)| (c, d));
    let mut occ = 0i64;
    let mut last_occ = 0i64;
    let mut i = 0usize;
    while i < deltas.len() {
        let cycle = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == cycle {
            occ += deltas[i].1;
            i += 1;
        }
        if occ != last_occ {
            last_occ = occ;
            let _ = write!(
                out,
                ",\n{{\"ph\":\"C\",\"pid\":1,\"name\":\"MSHR occupancy\",\"ts\":{cycle},\"args\":{{\"slots\":{occ}}}}}"
            );
        }
    }

    // Per-level cache activity counters: hits and misses per SYS_WINDOW
    // cycles, one counter track per level, only windows with any probe.
    for level in [CacheLevel::L1I, CacheLevel::L1D, CacheLevel::L2] {
        let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in &trace.sys {
            if let SysEventKind::CacheAccess { level: l, hit, .. } = e.kind {
                if l == level {
                    let w = windows.entry(e.cycle / SYS_WINDOW).or_insert((0, 0));
                    if hit {
                        w.0 += 1;
                    } else {
                        w.1 += 1;
                    }
                }
            }
        }
        for (w, (hits, misses)) in windows {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"C\",\"pid\":1,\"name\":\"{} activity\",\"ts\":{},\"args\":{{\"hits\":{},\"misses\":{}}}}}",
                level.label(),
                w * SYS_WINDOW,
                hits,
                misses
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

/// A parsed JSON value. Object keys keep insertion order (the writer is
/// deterministic, so lookups never depend on it).
#[derive(Debug)]
pub enum Value {
    /// `{...}` — key/value pairs in document order.
    Obj(Vec<(String, Value)>),
    /// `[...]`
    Arr(Vec<Value>),
    /// `"..."`
    Str(String),
    /// Any number (the export only writes integers and short decimals,
    /// all exactly representable).
    Num(f64),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

impl Value {
    /// Object field lookup; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (cycle counts, ids).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.b.len() && self.b[self.pos] == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        while self.pos < self.b.len() {
            match self.b[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .b
                        .get(self.pos)
                        .ok_or_else(|| self.err("open escape"))?;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        _ => return Err(self.err("unsupported escape")),
                    });
                    self.pos += 1;
                }
                c => {
                    s.push(c as char);
                    self.pos += 1;
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses one JSON document: the repository's one JSON reader, for the
/// Chrome trace export above, `reno-dse`'s `stats.json`, `BENCH_sim.json`
/// and `BENCHMARK.json`. Not a full RFC 8259 parser (no `\u` escapes), but
/// strict about structure: unbalanced brackets, bad separators, bare
/// tokens and trailing garbage are all errors.
///
/// # Errors
///
/// A description and byte offset of the first syntax problem.
pub fn parse_json(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> PipelineTrace {
        let mut t = PipelineTrace::default();
        // seq 0: full life.
        t.push(
            0,
            0,
            EventKind::Fetch {
                pc: 0,
                op: Opcode::Addi,
                replay: false,
            },
        );
        t.push(
            2,
            0,
            EventKind::Rename {
                outcome: RenameOutcome::ConstFold,
            },
        );
        t.push(3, 0, EventKind::Complete);
        t.push(9, 0, EventKind::Retire);
        // seq 1: squashed, refetched, retired.
        t.push(
            0,
            1,
            EventKind::Fetch {
                pc: 1,
                op: Opcode::Ld,
                replay: false,
            },
        );
        t.push(
            2,
            1,
            EventKind::Rename {
                outcome: RenameOutcome::Issued,
            },
        );
        t.push(4, 1, EventKind::Issue);
        t.push(
            6,
            1,
            EventKind::Squash {
                cause: SquashCause::MemOrder,
            },
        );
        t.push(
            7,
            1,
            EventKind::Fetch {
                pc: 1,
                op: Opcode::Ld,
                replay: true,
            },
        );
        t.push(
            9,
            1,
            EventKind::Rename {
                outcome: RenameOutcome::Issued,
            },
        );
        t.push(10, 1, EventKind::Issue);
        t.push(14, 1, EventKind::Complete);
        t.push(16, 1, EventKind::Retire);
        for c in 0..=16 {
            t.sample(c, 2, 1);
        }
        // System tracks: an L1D miss that allocates an MSHR slot, merges a
        // second request, writes back a dirty victim and retires; plus one
        // predictor round trip (wrong, then resolved).
        t.push_sys(
            4,
            SysEventKind::CacheAccess {
                level: CacheLevel::L1D,
                hit: false,
                write: false,
            },
        );
        t.push_sys(
            4,
            SysEventKind::CacheAccess {
                level: CacheLevel::L2,
                hit: true,
                write: false,
            },
        );
        t.push_sys(
            4,
            SysEventKind::CacheWriteback {
                level: CacheLevel::L1D,
            },
        );
        t.push_sys(4, SysEventKind::MshrAlloc);
        t.push_sys(5, SysEventKind::MshrMerge);
        t.push_sys(6, SysEventKind::MshrFullStall { cycles: 2 });
        t.push_sys(8, SysEventKind::BusQueue { cycles: 3 });
        t.push_sys(14, SysEventKind::MshrRetire);
        t.push_sys(
            5,
            SysEventKind::Predict {
                class: BranchClass::Cond,
                correct: false,
            },
        );
        t.push_sys(6, SysEventKind::Resolve);
        t
    }

    #[test]
    fn counts_match_events() {
        let t = demo_trace();
        assert_eq!(t.retire_count(), 2);
        assert_eq!(t.issue_count(), 2);
        assert_eq!(t.squash_count(), 1);
    }

    #[test]
    fn sys_counts_match_events() {
        let t = demo_trace();
        assert_eq!(t.cache_accesses(CacheLevel::L1D), 1);
        assert_eq!(t.cache_hits(CacheLevel::L1D), 0);
        assert_eq!(t.cache_accesses(CacheLevel::L2), 1);
        assert_eq!(t.cache_hits(CacheLevel::L2), 1);
        assert_eq!(t.cache_accesses(CacheLevel::L1I), 0);
        assert_eq!(t.cache_writebacks(CacheLevel::L1D), 1);
        assert_eq!(t.cache_writebacks(CacheLevel::L2), 0);
        assert_eq!(t.mshr_alloc_count(), 1);
        assert_eq!(t.mshr_merge_count(), 1);
        assert_eq!(t.mshr_retire_count(), 1);
        assert_eq!(t.mshr_stall_cycles(), 2);
        assert_eq!(t.bus_queue_cycles(), 3);
        assert_eq!(t.predict_count(BranchClass::Cond), 1);
        assert_eq!(t.mispredict_count(BranchClass::Cond), 1);
        assert_eq!(t.predict_count(BranchClass::Return), 0);
        assert_eq!(t.resolve_count(), 1);
    }

    #[test]
    fn sys_tracks_render_as_instants_and_counters() {
        let j = chrome_trace_json(&demo_trace());
        parse_json(&j).expect("writer emits syntactically valid JSON");
        assert!(j.contains("\"name\":\"memory\""));
        assert!(j.contains("\"name\":\"predictor\""));
        assert!(j.contains("\"name\":\"L1D miss\""));
        assert!(j.contains("\"name\":\"L1D writeback\""));
        assert!(j.contains("\"name\":\"MSHR alloc\""));
        assert!(j.contains("\"name\":\"MSHR merge\""));
        assert!(j.contains("\"name\":\"MSHR retire\""));
        assert!(j.contains("\"name\":\"MSHR full-stall\""));
        assert!(j.contains("\"name\":\"bus queue\""));
        assert!(j.contains("\"name\":\"mispredict:cond\""));
        assert!(j.contains("\"name\":\"resolve\""));
        assert!(j.contains("\"name\":\"MSHR occupancy\""));
        assert!(j.contains("\"name\":\"L1D activity\""));
        // L2 hits are counted in the activity track, never as instants.
        assert!(!j.contains("\"name\":\"L2 miss\""));
        assert!(j.contains("\"name\":\"L2 activity\""));
    }

    #[test]
    fn append_rebased_shifts_cycles_and_seqs() {
        let t = demo_trace();
        let mut merged = t.clone();
        merged.append_rebased(&t);
        // end_cycle of the demo trace: max attributed cycle is 16 -> 17.
        assert_eq!(t.end_cycle(), 17);
        assert_eq!(t.next_seq(), 2);
        assert_eq!(merged.events.len(), t.events.len() * 2);
        assert_eq!(merged.counters.len(), t.counters.len() * 2);
        assert_eq!(merged.sys.len(), t.sys.len() * 2);
        // Shifted copies: second half events are first half + (17, 2).
        let n = t.events.len();
        for (a, b) in merged.events[..n].iter().zip(&merged.events[n..]) {
            assert_eq!(b.cycle, a.cycle + 17);
            assert_eq!(b.seq, a.seq + 2);
            assert_eq!(b.kind, a.kind);
        }
        // Counts double, and the writer stays valid on merged traces.
        assert_eq!(merged.retire_count(), 2 * t.retire_count());
        assert_eq!(merged.mshr_alloc_count(), 2 * t.mshr_alloc_count());
        parse_json(&chrome_trace_json(&merged)).unwrap();
        // Deterministic: merging equal inputs yields equal bytes.
        let mut again = t.clone();
        again.append_rebased(&t);
        assert_eq!(chrome_trace_json(&merged), chrome_trace_json(&again));
    }

    #[test]
    fn chrome_json_is_valid_and_structured() {
        let j = chrome_trace_json(&demo_trace());
        parse_json(&j).expect("writer emits syntactically valid JSON");
        assert!(j.starts_with("{\"displayTimeUnit\""));
        // One async span per attempt: 3 fetches -> 3 b/e pairs.
        assert_eq!(j.matches("\"ph\":\"b\"").count(), 3);
        assert_eq!(j.matches("\"ph\":\"e\"").count(), 3);
        assert!(j.contains("\"end\":\"retire\""));
        assert!(j.contains("squash:mem-order"));
        assert!(j.contains("\"outcome\":\"const-fold\""));
        assert!(j.contains("\"name\":\"IPC\""));
        assert!(j.contains("\"name\":\"ROB occupancy\""));
    }

    #[test]
    fn writer_is_deterministic() {
        let t = demo_trace();
        assert_eq!(chrome_trace_json(&t), chrome_trace_json(&t));
    }

    #[test]
    fn open_attempts_close_at_trace_end() {
        let mut t = PipelineTrace::default();
        t.push(
            5,
            7,
            EventKind::Fetch {
                pc: 3,
                op: Opcode::Add,
                replay: false,
            },
        );
        t.sample(12, 1, 0);
        let j = chrome_trace_json(&t);
        parse_json(&j).unwrap();
        assert!(j.contains("\"end\":\"inflight\""));
        assert!(j.contains("\"ts\":12"), "closes at the last sampled cycle");
    }

    #[test]
    fn json_validator_rejects_garbage() {
        assert!(parse_json("{\"a\":1}").is_ok());
        assert!(parse_json("[1,2,{\"x\":[true,null]}]").is_ok());
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }
}
