//! Append-only sweep journal: the crash-recovery log that lets a killed
//! sweep resume exactly where it left off.
//!
//! One journal file per (spec, simulator-rev) lives under the store's
//! `journal/` directory, named by the sweep hash. Each line is a
//! self-validating record:
//!
//! ```text
//! sweep <sweep-hash-hex> <line-checksum-hex>        # header, written once
//! done <cell-key-hex> <line-checksum-hex>           # cell result committed
//! fail <cell-key-hex> <message-hex> <line-checksum-hex>
//! timeout <cell-key-hex> <line-checksum-hex>        # cell exceeded its deadline
//! pass <pass-key-hex> <line-checksum-hex>           # checkpoint pass this sweep uses
//! ```
//!
//! The checksum is FNV-1a over everything before the final space. Replay
//! stops at the first malformed line: because the file is append-only and
//! writes go through a single mutex, only the **tail** can ever be torn
//! (a `kill -9` mid-append), and everything before it is intact. A `done`
//! record is appended only *after* the cell's result is committed to the
//! store, so replay can trust it — and if the store entry has since been
//! corrupted, the store's own validation turns that cell into a recompute,
//! not a wrong report. `pass` records exist for the garbage collector: they
//! pin the checkpoint-pass objects a resumable sweep still needs, which are
//! otherwise invisible to per-cell records.
//!
//! Replay itself is the pure function [`replay_journal`] (no filesystem),
//! which is what `reno-fuzz`'s `journal` surface and the journal corpus
//! tests drive directly.
//!
//! Failure messages are hex-encoded so arbitrary panic text (spaces,
//! newlines) cannot break the line framing.
//!
//! # Leases
//!
//! A journal opened via [`Journal::open_leased`] is owned through a
//! heartbeat lease file (`journal/<hash>.lease`, see [`crate::lock`]): a
//! second process resuming the *same* sweep waits with capped exponential
//! backoff, takes over a stale lease, or — if a live owner persists past
//! the wait budget — degrades to **read-only** mode: it replays the intact
//! journal prefix but gets no writable handle, computes whatever the
//! journal doesn't cover in memory only, and still prints the identical
//! report. The lease is refreshed opportunistically on appends and
//! released on drop.

use crate::lock::{self, LeaseConfig, LeaseGuard, LeaseOutcome};
use crate::store::{fnv1a64, Store};
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::Mutex;

/// One replayed journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEvent {
    /// The cell's result is committed in the store.
    Done { key: u64 },
    /// The cell failed (after its retry); `message` is the panic/error text.
    Fail { key: u64, message: String },
    /// The cell exceeded its watchdog deadline (after its retry).
    Timeout { key: u64 },
    /// A checkpoint pass this sweep depends on (GC liveness pin; not a
    /// cell outcome).
    PassUsed { key: u64 },
}

impl JournalEvent {
    /// The store key this record is about.
    pub fn key(&self) -> u64 {
        match self {
            JournalEvent::Done { key }
            | JournalEvent::Fail { key, .. }
            | JournalEvent::Timeout { key }
            | JournalEvent::PassUsed { key } => *key,
        }
    }

    /// The record's canonical sealed line (with trailing newline), exactly
    /// as [`Journal::append`] writes it. Public so the fuzz harness and
    /// corpus tests can build byte-exact journals without a `Journal`.
    pub fn to_line(&self) -> String {
        let body = match self {
            JournalEvent::Done { key } => format!("done {key:016x}"),
            JournalEvent::Fail { key, message } => {
                format!("fail {key:016x} {}", hex_encode(message.as_bytes()))
            }
            JournalEvent::Timeout { key } => format!("timeout {key:016x}"),
            JournalEvent::PassUsed { key } => format!("pass {key:016x}"),
        };
        sealed_line(&body)
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Seals a line body into `"{body} <checksum-hex>\n"` — the journal's (and
/// the lease file's) line framing. Public for the fuzz harness.
pub fn sealed_line(body: &str) -> String {
    format!("{body} {:016x}\n", fnv1a64(body.as_bytes()))
}

/// The journal header line for `sweep_hash`. Public for the fuzz harness.
pub fn header_line(sweep_hash: u64) -> String {
    sealed_line(&format!("sweep {sweep_hash:016x}"))
}

/// Splits a sealed line (without its newline) back into its body,
/// verifying the checksum.
pub(crate) fn unseal(line: &str) -> Option<&str> {
    let (body, ck) = line.rsplit_once(' ')?;
    let ck = u64::from_str_radix(ck, 16).ok()?;
    (ck == fnv1a64(body.as_bytes())).then_some(body)
}

/// The result of replaying journal bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalReplay {
    /// Records from the longest intact prefix, in append order.
    pub events: Vec<JournalEvent>,
    /// Byte length of that intact prefix (a resuming writer truncates the
    /// file to this before appending).
    pub intact_len: usize,
}

/// A journal whose well-formed header names a different sweep — the one
/// replay condition that is an error rather than a torn tail (the file
/// name is the hash, so this means disk-level tampering or a copy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForeignSweep {
    /// The sweep hash the header actually carries.
    pub found: u64,
}

impl std::fmt::Display for ForeignSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal belongs to sweep {:016x}", self.found)
    }
}

impl std::error::Error for ForeignSweep {}

/// Replays the longest intact prefix of `bytes` as the journal for
/// `sweep_hash`. Pure — no filesystem, no panics on any input (the fuzz
/// harness holds it to that).
///
/// Replay stops at the first malformed line (torn tail, interleaved-writer
/// garbage, seal mismatch, unknown record type — all equivalent: nothing
/// after the first bad byte can be trusted in an append-only file). A file
/// with no valid header replays empty with `intact_len == 0`.
pub fn replay_journal(bytes: &[u8], sweep_hash: u64) -> Result<JournalReplay, ForeignSweep> {
    let mut events = Vec::new();
    let mut saw_header = false;
    let mut intact = 0usize;
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        if raw.last() != Some(&b'\n') {
            break; // torn: the append died before the newline
        }
        let Ok(line) = std::str::from_utf8(&raw[..raw.len() - 1]) else {
            break;
        };
        let Some(body) = unseal(line) else {
            break;
        };
        let mut parts = body.split(' ');
        let ok = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("sweep"), Some(h), None, None) if !saw_header => {
                match u64::from_str_radix(h, 16) {
                    Ok(h) if h == sweep_hash => {
                        saw_header = true;
                        true
                    }
                    Ok(found) => return Err(ForeignSweep { found }),
                    Err(_) => false,
                }
            }
            (Some("done"), Some(k), None, None) => match u64::from_str_radix(k, 16) {
                Ok(key) => {
                    events.push(JournalEvent::Done { key });
                    true
                }
                Err(_) => false,
            },
            (Some("fail"), Some(k), Some(msg), None) => {
                match (u64::from_str_radix(k, 16), hex_decode(msg)) {
                    (Ok(key), Some(m)) => {
                        events.push(JournalEvent::Fail {
                            key,
                            message: String::from_utf8_lossy(&m).into_owned(),
                        });
                        true
                    }
                    _ => false,
                }
            }
            (Some("timeout"), Some(k), None, None) => match u64::from_str_radix(k, 16) {
                Ok(key) => {
                    events.push(JournalEvent::Timeout { key });
                    true
                }
                Err(_) => false,
            },
            (Some("pass"), Some(k), None, None) => match u64::from_str_radix(k, 16) {
                Ok(key) => {
                    events.push(JournalEvent::PassUsed { key });
                    true
                }
                Err(_) => false,
            },
            _ => false,
        };
        if !ok {
            break;
        }
        intact += raw.len();
    }
    if !saw_header {
        // No valid header: treat the whole file as torn.
        intact = 0;
        events.clear();
    }
    Ok(JournalReplay {
        events,
        intact_len: intact,
    })
}

/// The result of [`Journal::open_leased`].
pub struct JournalOpen {
    /// The writable journal — `None` when a live owner held the lease past
    /// the wait budget and this process degraded to read-only mode.
    pub journal: Option<Journal>,
    /// Records replayed from the intact prefix.
    pub events: Vec<JournalEvent>,
    /// True when a stale lease (crashed or expired owner) was taken over.
    pub lease_takeover: bool,
    /// Backoff waits spent on the lease before acquiring (or giving up).
    pub lock_waits: u64,
}

/// The writable journal handle plus the records replayed at open.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    lease: Option<LeaseGuard>,
}

impl Journal {
    fn journal_path(store: &Store, sweep_hash: u64) -> PathBuf {
        store.journal_dir().join(format!("{sweep_hash:016x}.log"))
    }

    /// Reads the journal bytes (empty if absent) and replays them,
    /// converting [`ForeignSweep`] into an `io::Error`.
    fn read_and_replay(store: &Store, sweep_hash: u64) -> io::Result<(PathBuf, JournalReplay)> {
        let path = Self::journal_path(store, sweep_hash);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let replay = replay_journal(&bytes, sweep_hash).map_err(|e| {
            io::Error::other(format!(
                "journal {} belongs to sweep {:016x}, not {sweep_hash:016x}",
                path.display(),
                e.found
            ))
        })?;
        Ok((path, replay))
    }

    /// Opens (creating or resuming) the journal for `sweep_hash` under the
    /// store's journal directory and replays its intact prefix — without a
    /// lease (single-process callers and tests). Truncates any torn tail
    /// and writes the header if absent.
    pub fn open(store: &Store, sweep_hash: u64) -> io::Result<(Journal, Vec<JournalEvent>)> {
        let (path, replay) = Self::read_and_replay(store, sweep_hash)?;
        let saw_header = replay.intact_len > 0;

        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .open(&path)?;
        if (replay.intact_len as u64) < file.metadata()?.len() {
            file.set_len(replay.intact_len as u64)?;
        }
        let mut file = OpenOptions::new().append(true).open(&path)?;
        if !saw_header {
            reno_chaos::write_all(
                crate::FP_JOURNAL_APPEND,
                &mut file,
                header_line(sweep_hash).as_bytes(),
            )?;
        }

        Ok((
            Journal {
                file: Mutex::new(file),
                path,
                lease: None,
            },
            replay.events,
        ))
    }

    /// Opens the journal for `sweep_hash` under its heartbeat lease. See
    /// the module docs for the wait / takeover / read-only contract.
    pub fn open_leased(
        store: &Store,
        sweep_hash: u64,
        cfg: &LeaseConfig,
    ) -> io::Result<JournalOpen> {
        let lease_path = store.journal_dir().join(format!("{sweep_hash:016x}.lease"));
        let tmp_dir = store.root().join("tmp");
        match lock::acquire_lease(&lease_path, &tmp_dir, cfg)? {
            LeaseOutcome::Owned {
                guard,
                waits,
                takeover,
            } => {
                let (mut journal, events) = Journal::open(store, sweep_hash)?;
                journal.lease = Some(guard);
                Ok(JournalOpen {
                    journal: Some(journal),
                    events,
                    lease_takeover: takeover,
                    lock_waits: waits,
                })
            }
            LeaseOutcome::Busy { waits } => {
                // Read-only: replay whatever prefix is intact right now;
                // no truncation, no header, no writable handle.
                let (_path, replay) = Self::read_and_replay(store, sweep_hash)?;
                Ok(JournalOpen {
                    journal: None,
                    events: replay.events,
                    lease_takeover: false,
                    lock_waits: waits,
                })
            }
        }
    }

    /// This journal's on-disk path.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    /// Appends one record. Goes through the failpoint hook, so the
    /// crash-resume tests can die mid-append and exercise the torn tail.
    /// An append failure (e.g. disk-full) is returned to the caller, who
    /// degrades to running without resume capability for that record.
    /// Doubles as the lease heartbeat: a held lease past half its TTL is
    /// refreshed first.
    pub fn append(&self, ev: &JournalEvent) -> io::Result<()> {
        if let Some(lease) = &self.lease {
            lease.refresh();
        }
        let mut f = self.file.lock().expect("journal mutex poisoned");
        reno_chaos::write_all(crate::FP_JOURNAL_APPEND, &mut f, ev.to_line().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir =
            std::env::temp_dir().join(format!("reno-dse-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn replay_roundtrip() {
        let (dir, store) = tmp_store("roundtrip");
        let (j, replayed) = Journal::open(&store, 0xabcd).unwrap();
        assert!(replayed.is_empty());
        j.append(&JournalEvent::Done { key: 1 }).unwrap();
        j.append(&JournalEvent::Fail {
            key: 2,
            message: "boom with spaces\nand newline".into(),
        })
        .unwrap();
        j.append(&JournalEvent::Timeout { key: 3 }).unwrap();
        j.append(&JournalEvent::PassUsed { key: 4 }).unwrap();
        drop(j);

        let (_j, replayed) = Journal::open(&store, 0xabcd).unwrap();
        assert_eq!(
            replayed,
            vec![
                JournalEvent::Done { key: 1 },
                JournalEvent::Fail {
                    key: 2,
                    message: "boom with spaces\nand newline".into()
                },
                JournalEvent::Timeout { key: 3 },
                JournalEvent::PassUsed { key: 4 },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored_wrong_sweep_is_an_error() {
        let (dir, store) = tmp_store("torn");
        let (j, _) = Journal::open(&store, 7).unwrap();
        j.append(&JournalEvent::Done { key: 10 }).unwrap();
        j.append(&JournalEvent::Done { key: 11 }).unwrap();
        let path = j.path().clone();
        drop(j);

        // Tear the last line mid-append.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let (_j, replayed) = Journal::open(&store, 7).unwrap();
        assert_eq!(replayed, vec![JournalEvent::Done { key: 10 }]);

        // A different sweep hash must refuse the same journal file... it
        // gets a different file name, so simulate by asking for the same
        // hash file with a conflicting header.
        let other = Journal::open(&store, 8).unwrap();
        drop(other);
        let seven = store.journal_dir().join("0000000000000007.log");
        let eight = store.journal_dir().join("0000000000000008.log");
        fs::copy(&eight, &seven).unwrap();
        assert!(Journal::open(&store, 7).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_leased_owns_then_degrades_to_read_only_while_held() {
        let (dir, store) = tmp_store("leased");
        let cfg = LeaseConfig {
            ttl: std::time::Duration::from_secs(30),
            max_wait: std::time::Duration::from_millis(60),
            backoff_start: std::time::Duration::from_millis(5),
            backoff_cap: std::time::Duration::from_millis(20),
        };
        let first = Journal::open_leased(&store, 0x99, &cfg).unwrap();
        let j = first.journal.expect("fresh lease acquired");
        assert!(!first.lease_takeover);
        j.append(&JournalEvent::Done { key: 5 }).unwrap();

        // Second opener (same live process holds the lease): read-only,
        // but it still replays the committed prefix.
        let second = Journal::open_leased(&store, 0x99, &cfg).unwrap();
        assert!(second.journal.is_none(), "lease held ⇒ read-only");
        assert!(second.lock_waits > 0, "waited with backoff first");
        assert_eq!(second.events, vec![JournalEvent::Done { key: 5 }]);

        // Owner gone ⇒ next opener owns it again (clean release, so no
        // takeover).
        drop(j);
        let third = Journal::open_leased(&store, 0x99, &cfg).unwrap();
        assert!(third.journal.is_some());
        assert!(!third.lease_takeover);
        let _ = fs::remove_dir_all(&dir);
    }
}
