//! # reno-dse — crash-safe design-space exploration service
//!
//! Turns the one-shot figure/table binaries into a batch sweep driver: a
//! declarative spec describes a (workload × scale × machine-config) grid,
//! and the service simulates every cell, reusing work across runs through a
//! persistent store — engineered from the start so that **no failure mode
//! produces a wrong report**:
//!
//! | failure | handling |
//! |---------|----------|
//! | corrupt store entry | checksum validation rejects it: quarantined, logged, recomputed — never trusted, never a panic |
//! | process killed (any point, incl. mid-write) | atomic writes + append-only journal: resume serves completed cells from cache, recomputes the rest; the resumed report is **byte-identical** to an uninterrupted run |
//! | panicking cell | caught per-job ([`reno_par::try_par_map_deadline`]), retried once, then quarantined into the report's failed-cells section while the rest of the sweep completes |
//! | wedged cell | the watchdog deadline abandons it on a detached thread, retries once, then journals `timeout` and reports it as failed — sweeps always terminate |
//! | disk full / write error | logged; the sweep degrades to cache-less operation for that entry and still completes |
//! | concurrent writer, same cell | both commit: each write is an atomic rename of identical content-addressed bytes, and each journals its `done` |
//! | concurrent writer, same sweep | journal heartbeat lease: wait with capped backoff, take over if stale, or degrade to read-only — never corrupt, same report bytes |
//! | killed mid-GC | two-phase eviction (journaled intent → tombstone → unlink → completion): recovery finishes recorded evictions and never touches a live object |
//!
//! The store is content-addressed: entries are keyed by an FNV-1a hash of
//! everything that determines their content (workload, scale, mode,
//! machine config, simulator revision [`SIM_REV`]), so a config tweak or a
//! simulator change can never serve a stale result — the key simply never
//! matches again. In sampled mode the expensive functional checkpointing
//! pass is keyed per (workload, scale, sampling shape) — *not* per machine
//! config — so one pass is computed once and reused across every config in
//! the grid (and across runs), which is the service's main computational
//! win ([`reno_sample::run_sampled_with_pass`] validates the fit and
//! rejects a mismatched pass rather than mis-sampling).
//!
//! Disk growth is bounded by [`gc::run_gc`] (mark-sweep by journal
//! liveness, LRU eviction to a byte budget, quarantine retention), exposed
//! as the `dse gc` subcommand and the `--store-budget` auto-trigger.
//!
//! The `dse` binary drives it: `dse <spec> --store <dir> [--out <file>]`.
//! Cache/traffic statistics go to stderr only; stdout (and `--out`) carry
//! exactly the deterministic report bytes.

pub mod gc;
pub mod journal;
pub mod lock;
pub mod report;
pub mod spec;
pub mod store;
pub mod sweep;

/// `reno-chaos` site: the content-addressed object write in [`Store::put`].
pub const FP_STORE_OBJECT: &str = "dse:store-object";
/// `reno-chaos` site: journal header + event appends ([`Journal`]).
pub const FP_JOURNAL_APPEND: &str = "dse:journal-append";
/// `reno-chaos` site: two-phase GC eviction log records ([`gc::run_gc`]).
pub const FP_GC_LOG: &str = "dse:gc-log";
/// `reno-chaos` site: sweep-lease heartbeat writes ([`lock::acquire_lease`]).
pub const FP_LEASE_WRITE: &str = "dse:lease-write";
/// `reno-chaos` site: the top of every cell attempt, before the cell is
/// simulated ([`run_sweep`]). Its context is the cell's index in the plan
/// (workloads in spec order, each with its configs in spec order).
pub const FP_CELL: &str = "dse:cell";

/// Every registered `reno-chaos` failpoint site in this crate. The
/// crash-resume suite kills the `dse` binary at every hit of each listed
/// site (sweep runs and `dse gc` runs) and fails when a listed site never
/// fires in either.
pub const FAILPOINT_SITES: &[&str] = &[
    FP_STORE_OBJECT,
    FP_JOURNAL_APPEND,
    FP_GC_LOG,
    FP_LEASE_WRITE,
    FP_CELL,
];

pub use gc::{run_gc, GcConfig, GcStats};
pub use journal::{
    header_line, replay_journal, sealed_line, ForeignSweep, Journal, JournalEvent, JournalOpen,
    JournalReplay,
};
pub use lock::{Lease, LeaseConfig};
pub use spec::{parse_spec, Mode, SpecError, SweepSpec};
pub use store::{
    decode_entry, encode_entry, fnv1a64, EntryKind, Store, StoreError, DEFAULT_QUARANTINE_KEEP,
    HEADER_LEN,
};
pub use sweep::{
    run_sweep, CellResult, SweepOptions, SweepOutcome, SweepStats, SIM_REV, TIMEOUT_MESSAGE,
};
