//! Content-addressed on-disk store for checkpoint passes and cell results.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<hh>/<16-hex-key>.bin   committed entries (hh = first key byte)
//! <root>/tmp/                            in-flight writes (unique names)
//! <root>/quarantine/                     entries that failed validation
//! <root>/journal/                        per-sweep journals (see `journal`)
//! ```
//!
//! Every entry is a self-validating frame: magic, version, kind tag, the
//! 64-bit content key, an exact payload length and an FNV-1a checksum of the
//! payload. Reads validate all of it; **any** failure is treated as a cache
//! miss — the file is moved to `quarantine/` so it can be inspected, a
//! warning goes to stderr, and the caller recomputes. A malformed entry can
//! therefore never panic the service or smuggle a wrong result into a
//! report. Quarantine keeps the newest [`DEFAULT_QUARANTINE_KEEP`] files
//! unless [`Store::set_quarantine_keep`] (the `dse` binary's
//! `--quarantine-keep`) says otherwise; older ones are removed.
//!
//! Writes are atomic: the frame is written to a uniquely-named file under
//! `tmp/`, flushed, then `rename`d into place. A crash at any point leaves
//! either no entry or a complete entry — never a torn one — and stray `tmp/`
//! files from a killed run are ignored by readers. Two processes writing
//! the same key need no lock: the key pins the content, so each renames
//! identical bytes into place and either rename leaves a valid entry. A
//! failed write (e.g. disk-full) is **not** fatal: the store logs it and
//! the sweep degrades to cache-less operation for that entry.

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit FNV-1a — the store's key and checksum hash. Not cryptographic;
/// the store defends against corruption and torn writes, not an adversary
/// with write access to the filesystem (who could simply replace entries
/// wholesale).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const MAGIC: &[u8; 8] = b"RENODSE1";
const VERSION: u32 = 1;
/// magic(8) + version(4) + kind(1) + key(8) + payload_len(8) + checksum(8).
pub const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8;

/// What an entry stores; part of the frame, validated on read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A serialized [`reno_sample::CheckpointPass`].
    Pass,
    /// A serialized cell result.
    Cell,
}

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Pass => 1,
            EntryKind::Cell => 2,
        }
    }
}

/// Why an entry failed validation. Every variant is handled identically by
/// the store (quarantine + miss); the distinction exists for the fuzz
/// harness and corpus tests, which pin that each corruption class maps to
/// a rejection, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// First 8 bytes are not `RENODSE1`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Frame shorter than its header or its claimed payload.
    Truncated,
    /// Unknown kind tag.
    BadKind(u8),
    /// Entry is valid but holds the wrong kind (e.g. a pass where a cell
    /// result was expected — a renamed/moved file).
    KindMismatch { expected: u8, got: u8 },
    /// The key embedded in the frame does not match the requested key
    /// (a renamed/moved file).
    KeyMismatch { expected: u64, got: u64 },
    /// The claimed payload length does not match the actual frame size
    /// (truncation or trailing garbage).
    LengthMismatch { claimed: u64, actual: u64 },
    /// The payload checksum does not match (bit rot / torn write).
    ChecksumMismatch { expected: u64, got: u64 },
    /// The frame validated but its payload failed structural decoding.
    BadPayload(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated => write!(f, "truncated store entry"),
            StoreError::BadKind(k) => write!(f, "unknown entry kind {k}"),
            StoreError::KindMismatch { expected, got } => {
                write!(f, "entry kind mismatch (expected {expected}, got {got})")
            }
            StoreError::KeyMismatch { expected, got } => {
                write!(
                    f,
                    "entry key mismatch (expected {expected:016x}, got {got:016x})"
                )
            }
            StoreError::LengthMismatch { claimed, actual } => {
                write!(
                    f,
                    "payload length mismatch (claimed {claimed}, actual {actual})"
                )
            }
            StoreError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch (expected {expected:016x}, got {got:016x})"
                )
            }
            StoreError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Frames `payload` as a store entry.
pub fn encode_entry(kind: EntryKind, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a store frame and returns its payload.
///
/// Rejects — never panics on, never over-allocates for — every malformed
/// input: the only allocation is the returned copy of the payload, whose
/// size is bounded by the input's actual length (checked before copying).
pub fn decode_entry(bytes: &[u8], kind: EntryKind, key: u64) -> Result<Vec<u8>, StoreError> {
    if bytes.len() < HEADER_LEN {
        // Short inputs that cannot even hold the magic are just truncated;
        // prefer BadMagic when the prefix is long enough to disagree.
        if bytes.len() >= 8 && &bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        return Err(StoreError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let tag = bytes[12];
    if tag != EntryKind::Pass.tag() && tag != EntryKind::Cell.tag() {
        return Err(StoreError::BadKind(tag));
    }
    if tag != kind.tag() {
        return Err(StoreError::KindMismatch {
            expected: kind.tag(),
            got: tag,
        });
    }
    let got_key = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    if got_key != key {
        return Err(StoreError::KeyMismatch {
            expected: key,
            got: got_key,
        });
    }
    let claimed = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes"));
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if claimed != actual {
        return Err(StoreError::LengthMismatch { claimed, actual });
    }
    let payload = &bytes[HEADER_LEN..];
    let expected_ck = u64::from_le_bytes(bytes[29..37].try_into().expect("8 bytes"));
    let got_ck = fnv1a64(payload);
    if got_ck != expected_ck {
        return Err(StoreError::ChecksumMismatch {
            expected: expected_ck,
            got: got_ck,
        });
    }
    Ok(payload.to_vec())
}

// Crash injection lives in `reno-chaos`: every durable write below goes
// through `reno_chaos::write_all` under a named site, which a
// `RENO_FAILPOINT` spec can arm.

// ---------------------------------------------------------------------------
// The store proper.
// ---------------------------------------------------------------------------

/// Monotonic counters describing one process's store traffic. Reported to
/// stderr by the `dse` binary; the crash-resume tests assert on them.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Entries served from disk after full validation.
    pub hits: AtomicU64,
    /// Keys with no committed entry.
    pub misses: AtomicU64,
    /// Entries that failed validation and were quarantined.
    pub corrupt: AtomicU64,
    /// Writes that failed (e.g. disk-full) and were skipped.
    pub put_errors: AtomicU64,
}

/// How many quarantined entries are retained (newest first) before the
/// oldest are removed, absent an explicit override. Quarantine exists for
/// post-mortem inspection, not as an archive: without a cap, a store under
/// repeated corruption (e.g. a flaky disk) grows it forever.
pub const DEFAULT_QUARANTINE_KEEP: usize = 8;

/// A content-addressed store rooted at one directory. Safe to share across
/// worker threads (`&Store: Sync`); all mutation is via the filesystem and
/// atomic counters.
pub struct Store {
    root: PathBuf,
    tmp_seq: AtomicU64,
    quarantine_keep: usize,
    /// Traffic counters for this handle's lifetime.
    pub stats: StoreStats,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        for sub in ["objects", "tmp", "quarantine", "journal"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Store {
            root,
            tmp_seq: AtomicU64::new(0),
            quarantine_keep: DEFAULT_QUARANTINE_KEEP,
            stats: StoreStats::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The journal directory (used by [`crate::journal::Journal`]).
    pub fn journal_dir(&self) -> PathBuf {
        self.root.join("journal")
    }

    /// How many quarantined entries this handle retains (newest first).
    pub fn quarantine_keep(&self) -> usize {
        self.quarantine_keep
    }

    /// Overrides the quarantine retention count (CLI flag hook).
    pub fn set_quarantine_keep(&mut self, keep: usize) {
        self.quarantine_keep = keep;
    }

    pub(crate) fn object_path(&self, key: u64) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.bin"))
    }

    /// Total committed bytes under `objects/` (`.bin` files only;
    /// tombstones and any other file are excluded). This is the number the
    /// GC budget is measured against.
    pub fn objects_bytes(&self) -> u64 {
        let mut total = 0u64;
        let Ok(shards) = fs::read_dir(self.root.join("objects")) else {
            return 0;
        };
        for shard in shards.flatten() {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "bin") {
                    if let Ok(m) = entry.metadata() {
                        total += m.len();
                    }
                }
            }
        }
        total
    }

    /// Fetches and validates the entry for `key`. Any validation failure is
    /// a miss: the bad file is quarantined and the caller recomputes.
    pub fn get(&self, kind: EntryKind, key: u64) -> Option<Vec<u8>> {
        let path = self.object_path(key);
        let mut bytes = Vec::new();
        match File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes)) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                eprintln!(
                    "dse-store: read {} failed ({e}); treating as miss",
                    path.display()
                );
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match decode_entry(&bytes, kind, key) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                // Atime-style last-use stamp for the GC's LRU ordering:
                // bump the file mtime on every validated hit. Best-effort —
                // a read-only filesystem just degrades LRU to
                // least-recently-written.
                if let Ok(f) = File::open(&path) {
                    let _ = f.set_modified(std::time::SystemTime::now());
                }
                Some(payload)
            }
            Err(e) => {
                self.quarantine(&path, &e);
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records `payload` under `key` atomically (tmp write, fsync,
    /// rename). Returns true iff the entry was durably committed by this
    /// call; a failed write (e.g. disk-full) is logged and skipped.
    /// Callers journaling a `done` record must only do so on `true` — a
    /// resumed run must never trust a `done` whose object never landed.
    pub fn put(&self, kind: EntryKind, key: u64, payload: &[u8]) -> bool {
        match self.try_put(kind, key, payload) {
            Ok(()) => true,
            Err(e) => {
                self.stats.put_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("dse-store: write for key {key:016x} failed ({e}); continuing uncached");
                false
            }
        }
    }

    fn try_put(&self, kind: EntryKind, key: u64, payload: &[u8]) -> io::Result<()> {
        let frame = encode_entry(kind, key, payload);
        let final_path = self.object_path(key);
        if let Some(parent) = final_path.parent() {
            fs::create_dir_all(parent)?;
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{key:016x}.{}.{seq}.tmp", std::process::id()));
        let mut f = File::create(&tmp)?;
        let r = reno_chaos::write_all(crate::FP_STORE_OBJECT, &mut f, &frame)
            .and_then(|_| f.sync_all())
            .and_then(|_| fs::rename(&tmp, &final_path));
        if r.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        r
    }

    /// Moves a failed-validation entry aside for inspection, then prunes
    /// the quarantine directory down to the retention count.
    fn quarantine(&self, path: &Path, err: &StoreError) {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self.root.join("quarantine").join(format!("{name}.{seq}"));
        match fs::rename(path, &dest) {
            Ok(()) => eprintln!(
                "dse-store: corrupt entry {} ({err}); quarantined to {}",
                path.display(),
                dest.display()
            ),
            Err(e) => {
                // Quarantine is best-effort; at minimum get the bad entry
                // out of the read path so the recomputed value can land.
                let _ = fs::remove_file(path);
                eprintln!(
                    "dse-store: corrupt entry {} ({err}); quarantine failed ({e}), removed",
                    path.display()
                );
            }
        }
        let _ = prune_quarantine(&self.root.join("quarantine"), self.quarantine_keep);
    }
}

/// Removes all but the `keep` newest entries (by mtime, name tie-break) of
/// a quarantine directory. Returns how many were removed. Shared by the
/// store's inline pruning and the GC sweep.
pub(crate) fn prune_quarantine(dir: &Path, keep: usize) -> io::Result<u64> {
    let mut entries: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        entries.push((mtime, path));
    }
    if entries.len() <= keep {
        return Ok(0);
    }
    // Newest first; remove the tail.
    entries.sort_by(|a, b| b.cmp(a));
    let mut removed = 0u64;
    for (_, path) in entries.drain(keep..) {
        if fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrip_and_rejection_classes() {
        let payload = b"hello world".to_vec();
        let frame = encode_entry(EntryKind::Cell, 0xdead_beef, &payload);
        assert_eq!(
            decode_entry(&frame, EntryKind::Cell, 0xdead_beef).unwrap(),
            payload
        );

        // Wrong key and wrong kind are rejections, not panics.
        assert!(matches!(
            decode_entry(&frame, EntryKind::Cell, 1).unwrap_err(),
            StoreError::KeyMismatch { .. }
        ));
        assert!(matches!(
            decode_entry(&frame, EntryKind::Pass, 0xdead_beef).unwrap_err(),
            StoreError::KindMismatch { .. }
        ));

        // Truncation at every length parses to an error, never a panic.
        for n in 0..frame.len() {
            assert!(decode_entry(&frame[..n], EntryKind::Cell, 0xdead_beef).is_err());
        }

        // A checksum lie is caught.
        let mut lie = frame.clone();
        lie[29] ^= 1;
        assert!(matches!(
            decode_entry(&lie, EntryKind::Cell, 0xdead_beef).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        // A length lie is caught before the checksum is even consulted.
        let mut lie = frame.clone();
        lie[21..29].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_entry(&lie, EntryKind::Cell, 0xdead_beef).unwrap_err(),
            StoreError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn store_get_put_and_corruption_recovery() {
        let dir = std::env::temp_dir().join(format!("reno-dse-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();

        assert_eq!(store.get(EntryKind::Cell, 42), None);
        store.put(EntryKind::Cell, 42, b"payload");
        assert_eq!(store.get(EntryKind::Cell, 42).unwrap(), b"payload");

        // Corrupt the committed entry in place: next read quarantines it
        // and reports a miss; a re-put then restores service.
        let path = store.object_path(42);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(EntryKind::Cell, 42), None);
        assert_eq!(store.stats.corrupt.load(Ordering::Relaxed), 1);
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        store.put(EntryKind::Cell, 42, b"payload");
        assert_eq!(store.get(EntryKind::Cell, 42).unwrap(), b"payload");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_bounded_under_repeated_corruption() {
        let dir = std::env::temp_dir().join(format!("reno-dse-store-qcap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir).unwrap();
        store.set_quarantine_keep(4);

        // Corrupt the same key far more times than the retention count:
        // every event quarantines + recomputes, but the directory stays
        // capped at `keep`.
        for round in 0..25u64 {
            store.put(EntryKind::Cell, 7, b"payload");
            let path = store.object_path(7);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(store.get(EntryKind::Cell, 7), None, "round {round}");
            assert!(
                fs::read_dir(dir.join("quarantine")).unwrap().count() <= 4,
                "round {round}: quarantine exceeded retention"
            );
        }
        assert_eq!(store.stats.corrupt.load(Ordering::Relaxed), 25);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_reports_commitment_and_objects_bytes_counts_bins_only() {
        let dir = std::env::temp_dir().join(format!("reno-dse-store-bytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.objects_bytes(), 0);
        assert!(store.put(EntryKind::Cell, 1, b"abc"));
        assert!(store.put(EntryKind::Pass, 2, b"defg"));
        let expect = (HEADER_LEN + 3 + HEADER_LEN + 4) as u64;
        assert_eq!(store.objects_bytes(), expect);

        // A `<key>.lock` an older build left behind (its object locks held
        // a live writer's pid) neither blocks `put` nor counts as
        // committed bytes.
        let lock_path = store.object_path(3).with_extension("lock");
        fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        let body = format!("lock {} {}", std::process::id(), 0);
        fs::write(
            &lock_path,
            format!("{body} {:016x}\n", fnv1a64(body.as_bytes())),
        )
        .unwrap();
        assert!(store.put(EntryKind::Cell, 3, b"xyz"));
        assert_eq!(store.get(EntryKind::Cell, 3).unwrap(), b"xyz");
        assert_eq!(store.objects_bytes(), expect + (HEADER_LEN + 3) as u64);

        let _ = fs::remove_dir_all(&dir);
    }
}
