//! Crash-safe garbage collection for the content-addressed store.
//!
//! The store only ever grows: every computed cell and checkpoint pass adds
//! an object, every corruption event adds a quarantine file. [`run_gc`]
//! bounds it:
//!
//! * **Mark** — an object is *live* iff some sweep journal records it: a
//!   `done` record (a committed cell result a resume would serve) or a
//!   `pass` record (a checkpoint pass that sweep still loads). Everything
//!   else is *dead*: evictable, because the worst consequence of evicting
//!   it is a recompute.
//! * **Sweep** — when `objects/` exceeds the byte budget, dead objects are
//!   evicted in LRU order (the store bumps each object's mtime on every
//!   validated read, so mtime is an atime-style last-use stamp; ties break
//!   by key for determinism) until under budget. **Live objects are never
//!   evicted**, even if the store stays over budget — GC then reports the
//!   overshoot instead of breaking a resumable sweep. Without a budget,
//!   eviction is skipped entirely: dead objects are still useful cache.
//! * **Housekeeping** — quarantined entries beyond the retention count are
//!   removed.
//!
//! # Crash safety (two-phase eviction)
//!
//! GC journals its own progress to `journal/gc.log` (same sealed-line
//! framing as sweep journals) and destroys each object in two phases:
//!
//! ```text
//! evict <key> <ck>      # durable intent, appended BEFORE touching the object
//!   <key>.bin  →  <key>.bin.tomb     # rename: object leaves the read path
//!   unlink <key>.bin.tomb
//! gone <key> <ck>       # eviction complete
//! ```
//!
//! A kill at any point leaves either an untouched object (intent recorded,
//! nothing destroyed — the next GC simply re-decides) or a tombstone whose
//! destruction was already durably decided (the next GC finishes the
//! unlink). A tombstone can therefore never belong to a live object, and
//! recovery never consults anything but the log and the tombstones — a
//! mid-GC crash cannot delete an object it didn't first journal. Every log
//! append goes through the `dse:gc-log` failpoint site, so the crash-resume
//! suite kills GC at every IO point.

use crate::journal::{sealed_line, unseal};
use crate::store::{prune_quarantine, Store};
use crate::JournalEvent;
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::PathBuf;
use std::time::SystemTime;

/// Tuning for one [`run_gc`] call.
#[derive(Clone, Debug)]
pub struct GcConfig {
    /// Evict dead objects (LRU) until `objects/` is at most this many
    /// bytes. `None` disables eviction (housekeeping still runs).
    pub budget_bytes: Option<u64>,
    /// Quarantine entries to retain (newest first).
    pub quarantine_keep: usize,
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            budget_bytes: None,
            quarantine_keep: crate::store::DEFAULT_QUARANTINE_KEEP,
        }
    }
}

/// What one [`run_gc`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Objects pinned by some journal's `done`/`pass` records.
    pub live_objects: u64,
    /// Dead objects evicted this call.
    pub evicted_objects: u64,
    /// Bytes those evictions reclaimed.
    pub reclaimed_bytes: u64,
    /// Quarantine files removed beyond the retention count.
    pub quarantine_pruned: u64,
    /// Tombstones cleaned up (from this or an earlier interrupted run).
    pub wreckage_removed: u64,
    /// `objects/` size after the sweep. Over-budget here means the live
    /// set alone exceeds the budget.
    pub store_bytes_after: u64,
}

/// One dead object, with its LRU rank.
struct Candidate {
    key: u64,
    bytes: u64,
    mtime: SystemTime,
    path: PathBuf,
}

fn gc_log_path(store: &Store) -> PathBuf {
    store.journal_dir().join("gc.log")
}

/// Replays the intact prefix of `gc.log`: sealed `evict <key>` / `gone
/// <key>` lines. Returns the keys with a recorded intent but no completion.
fn replay_gc_log(bytes: &[u8]) -> HashSet<u64> {
    let mut pending = HashSet::new();
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        if raw.last() != Some(&b'\n') {
            break;
        }
        let Ok(line) = std::str::from_utf8(&raw[..raw.len() - 1]) else {
            break;
        };
        let Some(body) = unseal(line) else {
            break;
        };
        let mut parts = body.split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("evict"), Some(k), None) => match u64::from_str_radix(k, 16) {
                Ok(key) => {
                    pending.insert(key);
                }
                Err(_) => break,
            },
            (Some("gone"), Some(k), None) => match u64::from_str_radix(k, 16) {
                Ok(key) => {
                    pending.remove(&key);
                }
                Err(_) => break,
            },
            _ => break,
        }
    }
    pending
}

/// Finishes any eviction an earlier GC was killed in the middle of, then
/// resets `gc.log` for this run. Tombstones are destruction that was
/// already durably decided (an `evict` record strictly precedes every
/// rename), so unlinking them — wherever they are found — completes, never
/// initiates, an eviction.
fn recover(store: &Store, stats: &mut GcStats) -> io::Result<()> {
    let log_path = gc_log_path(store);
    let mut bytes = Vec::new();
    match File::open(&log_path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let _pending = replay_gc_log(&bytes);
    // Complete interrupted evictions: every tombstone goes (see above).
    for entry in objects_entries(store)? {
        if entry.extension().is_some_and(|e| e == "tomb") && fs::remove_file(&entry).is_ok() {
            stats.wreckage_removed += 1;
        }
    }
    // Fresh log for this run.
    let f = OpenOptions::new()
        .create(true)
        .write(true)
        .open(&log_path)?;
    f.set_len(0)?;
    Ok(())
}

/// Every file directly under an `objects/` shard directory.
fn objects_entries(store: &Store) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let dir = store.root().join("objects");
    let Ok(shards) = fs::read_dir(&dir) else {
        return Ok(out);
    };
    for shard in shards.flatten() {
        if let Ok(entries) = fs::read_dir(shard.path()) {
            for entry in entries.flatten() {
                out.push(entry.path());
            }
        }
    }
    Ok(out)
}

/// The live set: every key pinned by a `done` or `pass` record in any
/// sweep journal. A journal that fails to replay contributes nothing —
/// which is conservative in the right direction: its objects look dead and
/// may be evicted, costing that sweep a recompute, never a wrong result.
fn live_set(store: &Store) -> io::Result<HashSet<u64>> {
    let mut live = HashSet::new();
    for entry in fs::read_dir(store.journal_dir())?.flatten() {
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
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        if let Ok(replay) = crate::journal::replay_journal(&bytes, hash) {
            for ev in replay.events {
                match ev {
                    JournalEvent::Done { key } | JournalEvent::PassUsed { key } => {
                        live.insert(key);
                    }
                    JournalEvent::Fail { .. } | JournalEvent::Timeout { .. } => {}
                }
            }
        }
    }
    Ok(live)
}

/// Runs one mark-sweep pass over the store. See module docs for the exact
/// semantics and crash-safety argument.
pub fn run_gc(store: &Store, cfg: &GcConfig) -> io::Result<GcStats> {
    let mut stats = GcStats::default();
    recover(store, &mut stats)?;

    let live = live_set(store)?;

    // Inventory objects/: committed entries only.
    let mut total = 0u64;
    let mut candidates: Vec<Candidate> = Vec::new();
    for path in objects_entries(store)? {
        if !path.extension().is_some_and(|e| e == "bin") {
            continue;
        }
        let Some(key) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let Ok(meta) = fs::metadata(&path) else {
            continue;
        };
        total += meta.len();
        if live.contains(&key) {
            stats.live_objects += 1;
        } else {
            candidates.push(Candidate {
                key,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                path,
            });
        }
    }

    if let Some(budget) = cfg.budget_bytes {
        // Oldest last-use first; key tie-break keeps the order
        // deterministic when a coarse filesystem clock groups mtimes.
        candidates.sort_by(|a, b| a.mtime.cmp(&b.mtime).then(a.key.cmp(&b.key)));
        let mut log = OpenOptions::new().append(true).open(gc_log_path(store))?;
        for c in candidates {
            if total <= budget {
                break;
            }
            // Phase 1: durable intent.
            reno_chaos::write_all(
                crate::FP_GC_LOG,
                &mut log,
                sealed_line(&format!("evict {:016x}", c.key)).as_bytes(),
            )?;
            // Phase 2: tombstone, unlink, completion record.
            let tomb = c.path.with_extension("bin.tomb");
            if fs::rename(&c.path, &tomb).is_err() {
                // Object vanished (concurrent GC?) — record completion so
                // recovery has nothing pending, and move on.
                reno_chaos::write_all(
                    crate::FP_GC_LOG,
                    &mut log,
                    sealed_line(&format!("gone {:016x}", c.key)).as_bytes(),
                )?;
                continue;
            }
            let _ = fs::remove_file(&tomb);
            reno_chaos::write_all(
                crate::FP_GC_LOG,
                &mut log,
                sealed_line(&format!("gone {:016x}", c.key)).as_bytes(),
            )?;
            total = total.saturating_sub(c.bytes);
            stats.evicted_objects += 1;
            stats.reclaimed_bytes += c.bytes;
        }
        if total > budget {
            eprintln!(
                "dse-gc: live set ({total} bytes) exceeds budget ({budget}); nothing more to evict"
            );
        }
    }

    stats.quarantine_pruned =
        prune_quarantine(&store.root().join("quarantine"), cfg.quarantine_keep)?;
    stats.store_bytes_after = store.objects_bytes();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EntryKind;
    use crate::Journal;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("reno-dse-gc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn gc_evicts_dead_lru_and_never_live() {
        let (dir, store) = tmp_store("mark");
        // Live sweep: journal pins keys 1 (done) and 2 (pass).
        let (j, _) = Journal::open(&store, 0xaa).unwrap();
        j.append(&JournalEvent::Done { key: 1 }).unwrap();
        j.append(&JournalEvent::PassUsed { key: 2 }).unwrap();
        drop(j);
        store.put(EntryKind::Cell, 1, b"live-cell");
        store.put(EntryKind::Pass, 2, b"live-pass");
        // Dead objects: no journal mentions them.
        store.put(EntryKind::Cell, 3, b"dead-aaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        store.put(EntryKind::Cell, 4, b"dead-bbbbbbbbbbbbbbbbbbbbbbbbbbbb");

        // Budget below total but above the live set: both dead objects go.
        let live_bytes = store.objects_bytes()
            - fs::metadata(store.object_path(3)).unwrap().len()
            - fs::metadata(store.object_path(4)).unwrap().len();
        let stats = run_gc(
            &store,
            &GcConfig {
                budget_bytes: Some(live_bytes),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.live_objects, 2);
        assert_eq!(stats.evicted_objects, 2);
        assert_eq!(stats.store_bytes_after, live_bytes);
        assert!(store.object_path(1).exists());
        assert!(store.object_path(2).exists());
        assert!(!store.object_path(3).exists());
        assert!(!store.object_path(4).exists());

        // Budget below the live set: GC refuses to evict live objects.
        let stats = run_gc(
            &store,
            &GcConfig {
                budget_bytes: Some(1),
                ..GcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.evicted_objects, 0);
        assert!(store.object_path(1).exists());
        assert!(store.object_path(2).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_finishes_interrupted_eviction() {
        let (dir, store) = tmp_store("recover");
        store.put(EntryKind::Cell, 9, b"doomed");
        // Simulate a crash between rename and unlink: intent journaled,
        // tombstone present.
        let log = gc_log_path(&store);
        fs::write(&log, sealed_line(&format!("evict {:016x}", 9u64))).unwrap();
        let obj = store.object_path(9);
        let tomb = obj.with_extension("bin.tomb");
        fs::rename(&obj, &tomb).unwrap();

        let stats = run_gc(&store, &GcConfig::default()).unwrap();
        assert!(!tomb.exists(), "recovery completes the unlink");
        assert!(!obj.exists());
        assert!(stats.wreckage_removed >= 1);
        assert_eq!(
            fs::metadata(&log).unwrap().len(),
            0,
            "log reset after recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_without_budget_keeps_dead_objects() {
        let (dir, store) = tmp_store("nobudget");
        store.put(EntryKind::Cell, 5, b"dead-but-cached");
        let stats = run_gc(&store, &GcConfig::default()).unwrap();
        assert_eq!(stats.evicted_objects, 0);
        assert!(store.object_path(5).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
