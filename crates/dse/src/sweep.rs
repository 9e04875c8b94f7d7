//! The sweep driver: plans the cell grid, resumes from the journal, reuses
//! checkpoint passes across configs, fans cells over `reno-par` under a
//! watchdog deadline with panic isolation, and renders a deterministic
//! report.
//!
//! ## Determinism contract
//!
//! The returned report is **byte-identical** across: cold runs, fully-cached
//! re-runs, resumed runs after a kill at any point, any `RENO_THREADS`, runs
//! whose store entries were corrupted (they are quarantined and recomputed),
//! concurrent runs sharing one store, and lease-degraded read-only runs.
//! Everything observable in the report derives from cell *content* in plan
//! order; cache hit/miss traffic, timings and store diagnostics go to stderr
//! and [`SweepStats`] only — including the cross-sweep sharing census
//! (`shared_objects`), which depends on what other sweeps pinned in the
//! same store and so never reaches the report.
//!
//! ## Failure handling
//!
//! A panicking cell is caught by [`reno_par::try_par_map_deadline`], retried
//! once, and — if it panics again — recorded in the journal and reported in
//! the `failed cells` section while every other cell completes. A cell that
//! exceeds its watchdog deadline (fuel-derived unless
//! [`SweepOptions::deadline_ms`] overrides it) is abandoned on a detached
//! thread and treated the same way: one retry, then a journaled `timeout`
//! record and a deterministic failure line — sweeps always terminate. A
//! cell that failed or timed out in a *previous* (killed) run stays failed
//! with its recorded outcome, without re-running, so the resumed report
//! matches the uninterrupted one.
//!
//! ## Concurrency
//!
//! The journal is opened under its heartbeat lease
//! ([`Journal::open_leased`]); when a live owner holds it past the wait
//! budget this run degrades to **read-only**: no journal appends, no store
//! writes, every uncovered cell computed in memory — and the identical
//! report. Two processes racing the same cell (different sweeps whose
//! grids overlap) both compute it and both commit it: each store write is
//! an atomic rename of the same content-addressed bytes, and each journals
//! its own `done`. Results are committed from the **caller's** thread as
//! each cell finishes (via the pool's `on_result` hook), which is what
//! makes the timeout path race-free: a `done` record can only be written
//! for a cell the pool did not abandon.

use crate::journal::{Journal, JournalEvent};
use crate::lock::LeaseConfig;
use crate::spec::{Mode, SweepSpec};
use crate::store::{fnv1a64, EntryKind, Store, StoreError};
use reno_par::{try_par_map_deadline, CancelToken, JobError};
use reno_sample::{run_sampled_with_pass, CheckpointPass, SampleConfig};
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::{all_workloads, Workload};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies the simulator revision in every cache key: bump whenever a
/// change alters simulated timing or architectural results, so stale store
/// entries become unreachable instead of wrong.
pub const SIM_REV: &str = concat!("reno-sim-", env!("CARGO_PKG_VERSION"), "+dse1");

/// Cycle cap per detailed simulation (safety net, same as `reno-bench`).
const MAX_CYCLES: u64 = 1 << 28;

/// The deterministic failure message for a cell that exceeded its watchdog
/// deadline on both attempts. Deliberately carries no timing numbers: the
/// report must be byte-identical between the run that timed out and the
/// resumed run that replays the journaled `timeout` record.
pub const TIMEOUT_MESSAGE: &str = "exceeded cell deadline (watchdog timeout)";

/// The numeric result of one cell, as cached and reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Simulated (full) or estimated (sampled) cycles.
    pub cycles: u64,
    /// Retired (full) or total executed (sampled) instructions.
    pub retired: u64,
    /// Architectural output checksum — must agree across configs.
    pub checksum: u64,
    /// Whether the program ran to `halt` (full mode stops at `fuel`).
    pub halted: bool,
}

impl CellResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Fixed 32-byte little-endian encoding (the store-entry payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&self.cycles.to_le_bytes());
        out.extend_from_slice(&self.retired.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&u64::from(self.halted).to_le_bytes());
        out
    }

    /// Strict inverse of [`CellResult::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CellResult, StoreError> {
        if bytes.len() != 32 {
            return Err(StoreError::BadPayload("cell result is not 32 bytes"));
        }
        let u = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let halted = match u(3) {
            0 => false,
            1 => true,
            _ => return Err(StoreError::BadPayload("halted flag is not 0/1")),
        };
        Ok(CellResult {
            cycles: u(0),
            retired: u(1),
            checksum: u(2),
            halted,
        })
    }
}

/// Tuning overrides. Fault injection goes through the `dse:cell`
/// failpoint site ([`crate::FP_CELL`]) instead: `dse:cell@<i>:1+:panic`
/// panics cell `i` on every attempt, `dse:cell@<i>:1:delay` stalls its
/// first attempt past a short deadline.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Per-cell watchdog deadline override in milliseconds. `None` uses
    /// the fuel-derived default.
    pub deadline_ms: Option<u64>,
    /// Journal lease tuning override. `None` uses
    /// [`LeaseConfig::default`].
    pub lease: Option<LeaseConfig>,
}

/// Counters describing what one `run_sweep` call actually did. Never part
/// of the report (which must be byte-identical regardless).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total cells in the grid.
    pub cells: u64,
    /// Cells simulated in this call.
    pub computed: u64,
    /// Cells served from the store/journal.
    pub cached: u64,
    /// Cells in the failed section (this call or replayed).
    pub failed: u64,
    /// Checkpoint passes computed in this call (sampled mode).
    pub passes_computed: u64,
    /// Checkpoint passes served from the store (sampled mode).
    pub passes_cached: u64,
    /// Store validation failures observed (entries quarantined).
    pub store_corrupt: u64,
    /// Lease contention: backoff sleeps spent waiting for another live
    /// process's lease on this sweep's journal.
    pub lock_waits: u64,
    /// 1 when this run broke a stale (crashed/expired-owner) lease to
    /// take over its journal.
    pub lease_takeovers: u64,
    /// Cell attempts abandoned by the watchdog in this call.
    pub timeouts: u64,
    /// Objects evicted by GC in this invocation (filled by the `dse`
    /// binary when `--store-budget` triggers a sweep-side GC; 0 from
    /// `run_sweep` itself).
    pub gc_evicted_objects: u64,
    /// Bytes reclaimed by that GC.
    pub gc_reclaimed_bytes: u64,
    /// Committed bytes under `objects/` when this invocation finished.
    pub store_bytes: u64,
    /// Distinct committed objects pinned by more than one sweep journal on
    /// this store (the cross-sweep sharing census).
    pub shared_objects: u64,
}

impl SweepStats {
    /// Renders the counters as one deterministic JSON object (the
    /// `stats.json` the `dse` binary writes next to `--out`). Same payload
    /// as the stderr diagnostic line, but machine-readable, so a driver
    /// can assert cache behavior — `computed == 0` on a warm resume, say —
    /// without scraping stderr.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"reno-dse-stats-v3\",\"cells\":{},\"computed\":{},\"cached\":{},\
             \"failed\":{},\"passes_computed\":{},\"passes_cached\":{},\"store_corrupt\":{},\
             \"lock_waits\":{},\"lease_takeovers\":{},\"timeouts\":{},\
             \"gc_evicted_objects\":{},\"gc_reclaimed_bytes\":{},\"store_bytes\":{},\
             \"shared_objects\":{}}}\n",
            self.cells,
            self.computed,
            self.cached,
            self.failed,
            self.passes_computed,
            self.passes_cached,
            self.store_corrupt,
            self.lock_waits,
            self.lease_takeovers,
            self.timeouts,
            self.gc_evicted_objects,
            self.gc_reclaimed_bytes,
            self.store_bytes,
            self.shared_objects
        )
    }
}

/// A finished sweep: the deterministic report plus this run's traffic.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The deterministic plain-text report.
    pub report: String,
    /// What this call computed vs. served from cache.
    pub stats: SweepStats,
}

struct Cell<'a> {
    wl_idx: usize,
    cfg: &'a MachineConfig,
    key: u64,
    /// `"<workload>/<label>"`, for diagnostics and failure reports.
    id: String,
}

/// The owned, `'static` unit of work the watchdog pool fans out. Everything
/// a cell needs travels with it (Arc-shared where heavy) because a
/// timed-out job's thread may outlive the `run_sweep` call that spawned it.
struct CellJob {
    spec: Arc<SweepSpec>,
    workload: Arc<Workload>,
    cfg: MachineConfig,
    sc: Option<SampleConfig>,
    pass: Option<Arc<CheckpointPass>>,
    id: String,
    /// The cell's index in the plan: the `dse:cell` failpoint context.
    index: usize,
}

fn cell_key(spec: &SweepSpec, wl: &str, cfg: &MachineConfig) -> u64 {
    let mode = match &spec.mode {
        Mode::Full => format!("full:{}", spec.fuel),
        Mode::Sampled {
            warmup,
            interval,
            period,
        } => format!("sampled:{warmup}:{interval}:{period}"),
    };
    fnv1a64(
        format!(
            "cell|{SIM_REV}|wl={wl}|scale={:?}|mode={mode}|cfg={cfg:?}",
            spec.scale
        )
        .as_bytes(),
    )
}

fn pass_key(spec: &SweepSpec, wl: &str, sc: &SampleConfig) -> u64 {
    fnv1a64(format!("pass|{SIM_REV}|wl={wl}|scale={:?}|sc={sc:?}", spec.scale).as_bytes())
}

/// Cross-sweep sharing census: scans every sweep journal under `journal/`
/// and counts the distinct committed objects pinned — via `done` or `pass`
/// records — by **more than one** sweep.
///
/// The count derives from durable journal state, not from this run's cache
/// traffic. An unreadable journal contributes nothing, exactly like GC's
/// live set. It goes to [`SweepStats`] only: the report holds nothing that
/// another process's sweep can change.
fn shared_objects_census(store: &Store) -> u64 {
    let Ok(entries) = std::fs::read_dir(store.journal_dir()) else {
        return 0;
    };
    // Number of sweep journals pinning each key.
    let mut owners: HashMap<u64, u64> = HashMap::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        // Sweep journals are exactly `<16-hex>.log`; skips gc.log, leases.
        let Some(hex) = name.strip_suffix(".log") else {
            continue;
        };
        let Ok(hash) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        if hex.len() != 16 {
            continue;
        }
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let Ok(replay) = crate::journal::replay_journal(&bytes, hash) else {
            continue;
        };
        let keys: HashSet<u64> = replay
            .events
            .into_iter()
            .filter_map(|ev| match ev {
                JournalEvent::Done { key } | JournalEvent::PassUsed { key } => Some(key),
                JournalEvent::Fail { .. } | JournalEvent::Timeout { .. } => None,
            })
            .collect();
        for k in keys {
            *owners.entry(k).or_insert(0) += 1;
        }
    }
    owners.values().filter(|&&n| n > 1).count() as u64
}

fn sample_config(mode: &Mode) -> Option<SampleConfig> {
    match mode {
        Mode::Full => None,
        Mode::Sampled {
            warmup,
            interval,
            period,
        } => Some(SampleConfig::new(*warmup, *interval, *period)),
    }
}

/// The per-cell watchdog deadline: the explicit override, else the
/// fuel-derived default (full mode budgets generously against the slowest
/// plausible host; sampled mode has no fuel, so a flat generous cap).
fn cell_deadline(spec: &SweepSpec, opts: &SweepOptions) -> Duration {
    if let Some(ms) = opts.deadline_ms {
        return Duration::from_millis(ms);
    }
    Duration::from_secs(match &spec.mode {
        // Assume a pathologically slow host still retires 100k inst/s of
        // detailed simulation; floor of 30s for tiny fuels.
        Mode::Full => (spec.fuel / 100_000).max(30),
        Mode::Sampled { .. } => 600,
    })
}

/// Computes one cell (no caching, no catching) — the unit of work the pool
/// fans out. Sampled cells take the shared pass for their workload.
fn simulate_cell(job: &CellJob) -> CellResult {
    match (&job.sc, &job.pass) {
        (Some(sc), Some(pass)) => {
            let r = match run_sampled_with_pass(&job.workload.program, job.cfg.clone(), sc, pass) {
                Ok(r) => r,
                Err(e) => {
                    // A mismatched pass should be impossible (the key pins
                    // workload, scale and sampling shape); recompute from
                    // scratch rather than fail the cell — correctness over
                    // speed.
                    eprintln!(
                        "dse: pass for {} rejected ({e}); recomputing inline",
                        job.id
                    );
                    let own = CheckpointPass::compute(&job.workload.program, sc);
                    run_sampled_with_pass(&job.workload.program, job.cfg.clone(), sc, &own)
                        .expect("a freshly-computed pass fits its own shape")
                }
            };
            CellResult {
                cycles: r.est_cycles(),
                retired: r.total_insts,
                checksum: r.checksum,
                halted: r.halted,
            }
        }
        _ => {
            let r = Simulator::with_fuel(&job.workload.program, job.cfg.clone(), job.spec.fuel)
                .run(MAX_CYCLES);
            CellResult {
                cycles: r.cycles,
                retired: r.retired,
                checksum: r.checksum,
                halted: r.halted,
            }
        }
    }
}

/// Loads the per-workload checkpoint passes (sampled mode), store-first.
/// `persist: false` (read-only mode) skips the write-back.
fn load_passes(
    spec: &SweepSpec,
    sc: &SampleConfig,
    workloads: &[&Workload],
    store: &Store,
    persist: bool,
    stats_computed: &AtomicU64,
    stats_cached: &AtomicU64,
) -> Vec<CheckpointPass> {
    let jobs: Vec<&Workload> = workloads.to_vec();
    reno_par::par_map(&jobs, |wl| {
        let key = pass_key(spec, wl.name, sc);
        if let Some(bytes) = store.get(EntryKind::Pass, key) {
            match CheckpointPass::from_bytes(&bytes) {
                Ok(pass) => {
                    stats_cached.fetch_add(1, Ordering::Relaxed);
                    return pass;
                }
                Err(e) => {
                    // The frame checksum was valid but the payload is not a
                    // pass (format drift): recompute and overwrite.
                    eprintln!(
                        "dse: pass payload for {} invalid ({e}); recomputing",
                        wl.name
                    );
                }
            }
        }
        let pass = CheckpointPass::compute(&wl.program, sc);
        if persist && pass.error.is_none() {
            store.put(EntryKind::Pass, key, &pass.to_bytes());
        }
        stats_computed.fetch_add(1, Ordering::Relaxed);
        pass
    })
}

/// Runs (or resumes) the sweep described by `spec` against `store`.
///
/// See the module docs for the determinism and failure-handling contracts.
pub fn run_sweep(spec: &SweepSpec, store: &Store, opts: &SweepOptions) -> io::Result<SweepOutcome> {
    let sweep_hash = fnv1a64(spec.canonical().as_bytes());
    let lease_cfg = opts.lease.clone().unwrap_or_default();
    let opened = Journal::open_leased(store, sweep_hash, &lease_cfg)?;
    let journal: Option<Journal> = opened.journal;
    let read_only = journal.is_none();
    if read_only {
        eprintln!(
            "dse: sweep {sweep_hash:016x} lease is held by a live process; \
             degrading to read-only (no store writes, no resume records)"
        );
    }
    let mut journaled: HashMap<u64, JournalEvent> = HashMap::new();
    let mut journaled_passes: HashSet<u64> = HashSet::new();
    for ev in opened.events {
        match ev {
            JournalEvent::PassUsed { key } => {
                journaled_passes.insert(key);
            }
            ev => {
                journaled.insert(ev.key(), ev); // later records win
            }
        }
    }

    let workloads = all_workloads(spec.scale);
    let selected: Vec<&Workload> = spec
        .workloads
        .iter()
        .map(|name| {
            workloads
                .iter()
                .find(|w| w.name == *name)
                .expect("spec parser validated workload names")
        })
        .collect();

    let cells: Vec<Cell<'_>> = selected
        .iter()
        .enumerate()
        .flat_map(|(wl_idx, wl)| {
            spec.configs.iter().map(move |(label, cfg)| Cell {
                wl_idx,
                cfg,
                key: cell_key(spec, wl.name, cfg),
                id: format!("{}/{label}", wl.name),
            })
        })
        .collect();

    let passes_computed = AtomicU64::new(0);
    let passes_cached = AtomicU64::new(0);
    let sc = sample_config(&spec.mode);

    // Resolve each cell: journaled outcome, cached result, or to-run.
    // `done` journal records whose store entry has gone missing or corrupt
    // fall through to recompute — the journal is an index, the store's
    // validation is the authority. `fail`/`timeout` records stick: the
    // resumed report must match the uninterrupted one.
    let mut cached = 0u64;
    let mut outcomes: Vec<Option<Result<CellResult, String>>> = Vec::with_capacity(cells.len());
    for cell in &cells {
        match journaled.get(&cell.key) {
            Some(JournalEvent::Fail { message, .. }) => {
                outcomes.push(Some(Err(message.clone())));
            }
            Some(JournalEvent::Timeout { .. }) => {
                outcomes.push(Some(Err(TIMEOUT_MESSAGE.to_string())));
            }
            _ => match store.get(EntryKind::Cell, cell.key) {
                Some(bytes) => match CellResult::from_bytes(&bytes) {
                    Ok(r) => {
                        cached += 1;
                        // Pin a cell served from *another* sweep's object in
                        // this journal too (mirrors the `pass` records): GC
                        // must not evict it from under a resumable sweep,
                        // and the cross-sweep census sees the sharing. Own
                        // `done` records (a resume) are already journaled.
                        if !matches!(journaled.get(&cell.key), Some(JournalEvent::Done { .. })) {
                            if let Some(j) = &journal {
                                let _ =
                                    j.append(&JournalEvent::Done { key: cell.key })
                                        .map_err(|e| {
                                            eprintln!(
                                                "dse: journal append failed ({e}); \
                                             GC may evict this cell"
                                            )
                                        });
                            }
                        }
                        outcomes.push(Some(Ok(r)));
                    }
                    Err(e) => {
                        eprintln!(
                            "dse: cell payload for {} invalid ({e}); recomputing",
                            cell.id
                        );
                        outcomes.push(None);
                    }
                },
                None => outcomes.push(None),
            },
        }
    }

    // Sampled mode: one functional checkpointing pass per workload, shared
    // by every config's cell (the pass is machine-config-independent).
    // Only loaded when something actually needs simulating — a fully
    // cached re-run touches no pass at all. Each pass key is journaled as
    // a `pass` record so GC knows a resumable sweep still needs it.
    let any_pending = outcomes.iter().any(|o| o.is_none());
    let passes: Vec<CheckpointPass> = match &sc {
        Some(sc) if any_pending => {
            let passes = load_passes(
                spec,
                sc,
                &selected,
                store,
                !read_only,
                &passes_computed,
                &passes_cached,
            );
            if let Some(j) = &journal {
                for wl in &selected {
                    let key = pass_key(spec, wl.name, sc);
                    if journaled_passes.insert(key) {
                        let _ = j.append(&JournalEvent::PassUsed { key }).map_err(|e| {
                            eprintln!("dse: journal append failed ({e}); GC may evict this pass")
                        });
                    }
                }
            }
            passes
        }
        _ => Vec::new(),
    };

    // Owned job state for the watchdog pool: a timed-out job's thread may
    // outlive this call, so everything it touches is Arc-shared or cloned.
    let spec_arc = Arc::new(spec.clone());
    let wl_arcs: Vec<Arc<Workload>> = selected.iter().map(|w| Arc::new((*w).clone())).collect();
    let pass_arcs: Vec<Option<Arc<CheckpointPass>>> = if passes.is_empty() {
        vec![None; selected.len()]
    } else {
        passes.into_iter().map(|p| Some(Arc::new(p))).collect()
    };
    let deadline = cell_deadline(spec, opts);
    let make_job = |i: usize| -> CellJob {
        let cell = &cells[i];
        CellJob {
            spec: Arc::clone(&spec_arc),
            workload: Arc::clone(&wl_arcs[cell.wl_idx]),
            cfg: cell.cfg.clone(),
            sc,
            pass: pass_arcs[cell.wl_idx].clone(),
            id: cell.id.clone(),
            index: i,
        }
    };
    let job_fn = |job: CellJob, _: &CancelToken| -> CellResult {
        reno_chaos::failpoint!(crate::FP_CELL, job.index);
        simulate_cell(&job)
    };

    let mut computed = 0u64;
    let mut timeouts = 0u64;

    // One watchdog round over the cells at `idxs`. Commits happen in the
    // `on_result` hook — i.e. on THIS thread, only for cells the pool did
    // not abandon — so a timed-out cell can never race a `done` record
    // against its own `timeout` record. A put that didn't commit (a write
    // error) journals nothing: resume recomputes, which is always safe.
    let mut run_round = |idxs: &[usize]| -> Vec<Result<CellResult, JobError>> {
        let jobs: Vec<CellJob> = idxs.iter().map(|&i| make_job(i)).collect();
        try_par_map_deadline(jobs, Some(deadline), job_fn, |k, res| match res {
            Ok(r) => {
                computed += 1;
                if let Some(j) = &journal {
                    let key = cells[idxs[k]].key;
                    if store.put(EntryKind::Cell, key, &r.to_bytes()) {
                        let _ = j.append(&JournalEvent::Done { key }).map_err(|e| {
                            eprintln!("dse: journal append failed ({e}); resume will recompute")
                        });
                    }
                }
            }
            Err(JobError::Timeout { .. }) => timeouts += 1,
            Err(JobError::Panic(_)) => {}
        })
    };

    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    let first = run_round(&pending);

    // Retry pass: each first-attempt panic or timeout gets exactly one
    // more try; a second failure quarantines the cell into the failed
    // section.
    let failed_first: Vec<usize> = pending
        .iter()
        .zip(&first)
        .filter_map(|(&i, r)| r.is_err().then_some(i))
        .collect();
    let second = run_round(&failed_first);
    if let Some(j) = &journal {
        for (&i, r) in failed_first.iter().zip(&second) {
            let record = match r {
                Ok(_) => None,
                Err(JobError::Panic(p)) => Some(JournalEvent::Fail {
                    key: cells[i].key,
                    message: p.message.clone(),
                }),
                Err(JobError::Timeout { .. }) => Some(JournalEvent::Timeout { key: cells[i].key }),
            };
            if let Some(record) = record {
                let _ = j
                    .append(&record)
                    .map_err(|e| eprintln!("dse: journal append failed ({e})"));
            }
        }
    }

    // Fold the run results back into the outcome table, in plan order.
    for (&i, r) in pending.iter().zip(&first) {
        if let Ok(v) = r {
            outcomes[i] = Some(Ok(*v));
        }
    }
    for (&i, r) in failed_first.iter().zip(&second) {
        outcomes[i] = Some(match r {
            Ok(v) => Ok(*v),
            Err(JobError::Panic(p)) => Err(p.message.clone()),
            Err(JobError::Timeout { .. }) => Err(TIMEOUT_MESSAGE.to_string()),
        });
    }

    let resolved: Vec<(String, Result<CellResult, String>)> = cells
        .iter()
        .zip(outcomes)
        .map(|(c, o)| (c.id.clone(), o.expect("every cell resolved")))
        .collect();
    let report = crate::report::render(spec, &resolved);
    // Counted after this run's final journal append.
    let shared_objects = shared_objects_census(store);

    let failed = resolved.iter().filter(|(_, r)| r.is_err()).count() as u64;
    Ok(SweepOutcome {
        report,
        stats: SweepStats {
            cells: cells.len() as u64,
            computed,
            cached,
            failed,
            passes_computed: passes_computed.load(Ordering::Relaxed),
            passes_cached: passes_cached.load(Ordering::Relaxed),
            store_corrupt: store.stats.corrupt.load(Ordering::Relaxed),
            lock_waits: opened.lock_waits,
            lease_takeovers: u64::from(opened.lease_takeover),
            timeouts,
            gc_evicted_objects: 0,
            gc_reclaimed_bytes: 0,
            store_bytes: store.objects_bytes(),
            shared_objects,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `stats.json` schema the `dse` binary writes next to
    /// `--out`: syntactically valid JSON carrying every counter under its
    /// documented key, in a fixed order.
    #[test]
    fn stats_json_is_valid_and_carries_every_counter() {
        let s = SweepStats {
            cells: 12,
            computed: 3,
            cached: 9,
            failed: 1,
            passes_computed: 2,
            passes_cached: 4,
            store_corrupt: 5,
            lock_waits: 6,
            lease_takeovers: 1,
            timeouts: 7,
            gc_evicted_objects: 8,
            gc_reclaimed_bytes: 4096,
            store_bytes: 65536,
            shared_objects: 2,
        };
        let json = s.to_json();
        assert!(json.ends_with('\n'), "one newline-terminated line");
        reno_trace::parse_json(json.trim_end()).expect("valid JSON");
        assert!(json.starts_with("{\"schema\":\"reno-dse-stats-v3\","));
        for (key, value) in [
            ("cells", 12u64),
            ("computed", 3),
            ("cached", 9),
            ("failed", 1),
            ("passes_computed", 2),
            ("passes_cached", 4),
            ("store_corrupt", 5),
            ("lock_waits", 6),
            ("lease_takeovers", 1),
            ("timeouts", 7),
            ("gc_evicted_objects", 8),
            ("gc_reclaimed_bytes", 4096),
            ("store_bytes", 65536),
            ("shared_objects", 2),
        ] {
            assert!(
                json.contains(&format!("\"{key}\":{value}")),
                "missing {key}: {json}"
            );
        }
        // Defaults serialize too (a sweep that did nothing still reports).
        reno_trace::parse_json(SweepStats::default().to_json().trim_end()).expect("valid JSON");
    }
}
