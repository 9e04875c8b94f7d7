//! Per-sweep journal **leases**: the advisory lock that gives one process
//! at a time write ownership of a sweep's journal.
//!
//! The workspace forbids `unsafe`, so there is no `flock(2)` here — a lease
//! is a plain lock file, made safe by three properties:
//!
//! 1. **It is advisory.** Every write it guards is already atomic (tmp +
//!    fsync + rename of self-validating frames, or append-only sealed
//!    lines), so a broken or bypassed lease can cost duplicate work, never
//!    corruption. Store objects need no lock at all: two processes racing
//!    the same content-addressed key each rename identical bytes into
//!    place.
//! 2. **Atomic claim.** A lease is claimed by writing a sealed one-line
//!    file to `tmp/` and `rename`-ing it over the lease path, then reading
//!    it back: whoever's nonce survives the rename race owns the lease.
//! 3. **Staleness is detectable.** A lease carries the owner pid and an
//!    expiry timestamp; a dead pid (checked via `/proc` on Linux) or a past
//!    expiry means the owner crashed and the lease may be broken. An
//!    unparseable lease file (torn by a crash mid-write) is treated as
//!    stale immediately — breaking a live owner's lease inside the µs-wide
//!    rename window is harmless by property 1.
//!
//! Lease lines are sealed exactly like journal lines (FNV-1a checksum
//! suffix) so the fuzz harness covers them with the same machinery:
//!
//! ```text
//! lease <pid> <nonce-hex> <expires-unix-ms> <line-checksum-hex>
//! ```
//!
//! Lease timing (TTL, wait budget, backoff) is a [`LeaseConfig`]: the
//! defaults (30 s TTL, 120 s wait) unless [`crate::SweepOptions::lease`]
//! overrides them. No environment variable tunes it.

use crate::journal::{sealed_line, unseal};
use crate::store::fnv1a64;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Tuning for lease acquisition. Sweeps use [`LeaseConfig::default`]
/// unless [`crate::SweepOptions::lease`] overrides it (tests shorten the
/// TTL and wait budget this way).
#[derive(Clone, Debug)]
pub struct LeaseConfig {
    /// How long a lease stays valid without a refresh. The owner refreshes
    /// opportunistically on journal appends once half the TTL has elapsed;
    /// a sweep cell longer than the TTL can therefore let the lease lapse,
    /// which is safe (another process may take over the journal, and both
    /// finish with identical reports) but wastes duplicate compute.
    pub ttl: Duration,
    /// Total time a second process waits for a held lease before degrading
    /// to read-only (cache-less) mode.
    pub max_wait: Duration,
    /// First backoff sleep; doubles per retry up to `backoff_cap`.
    pub backoff_start: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for LeaseConfig {
    fn default() -> LeaseConfig {
        LeaseConfig {
            ttl: Duration::from_secs(30),
            max_wait: Duration::from_secs(120),
            backoff_start: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// Milliseconds since the Unix epoch (the lease expiry clock).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Whether `pid` is a live process. Only `/proc` is consulted (Linux); on
/// other platforms every pid is conservatively assumed alive, so staleness
/// falls back to the expiry timestamp alone.
pub fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// A parsed lease line. The canonical serialized form is a single sealed
/// line (see module docs); `parse` is strict — only a byte-exact render
/// round-trips, which is what lets the fuzz harness assert that every
/// accepted mutant re-renders identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Owner process id.
    pub pid: u32,
    /// Random-enough token distinguishing two leases from the same pid.
    pub nonce: u64,
    /// Unix-epoch milliseconds after which the lease is expired.
    pub expires_unix_ms: u64,
}

impl Lease {
    /// Serializes to the canonical sealed line (with trailing newline).
    pub fn render(&self) -> String {
        sealed_line(&format!(
            "lease {} {:016x} {}",
            self.pid, self.nonce, self.expires_unix_ms
        ))
    }

    /// Parses a lease file's bytes. Returns `None` on anything but a
    /// byte-exact canonical sealed line: bad UTF-8, missing newline, seal
    /// mismatch, wrong field count, non-canonical number formatting.
    pub fn parse(bytes: &[u8]) -> Option<Lease> {
        let text = std::str::from_utf8(bytes).ok()?;
        let line = text.strip_suffix('\n')?;
        if line.contains('\n') {
            return None;
        }
        let mut parts = unseal(line)?.split(' ');
        let (Some("lease"), Some(pid), Some(nonce), Some(exp), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return None;
        };
        let lease = Lease {
            pid: pid.parse().ok()?,
            nonce: u64::from_str_radix(nonce, 16).ok()?,
            expires_unix_ms: exp.parse().ok()?,
        };
        // Strictness: reject non-canonical renderings (leading zeros,
        // uppercase hex, 17-digit nonces) so accept ⇒ re-render roundtrip.
        (lease.render().as_bytes() == bytes).then_some(lease)
    }

    /// Whether this lease no longer protects its journal: expired by the
    /// wall clock, or its owner process is gone.
    pub fn is_stale(&self) -> bool {
        now_unix_ms() > self.expires_unix_ms || !pid_alive(self.pid)
    }
}

/// A cheap unique-enough token: FNV over pid + monotonic-ish nanos + a
/// caller-supplied salt. Collisions only matter between two *simultaneous*
/// claimants of one lease, which also differ by pid.
fn fresh_nonce(salt: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&(std::process::id() as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&nanos.to_le_bytes());
    buf[16..].copy_from_slice(&salt.to_le_bytes());
    fnv1a64(&buf)
}

/// Result of [`acquire_lease`].
pub enum LeaseOutcome {
    /// The lease is ours; drop the guard to release it.
    Owned {
        guard: LeaseGuard,
        /// Backoff sleeps spent waiting for a previous owner.
        waits: u64,
        /// True when a stale (expired / dead-owner / torn) lease was
        /// broken to get here.
        takeover: bool,
    },
    /// A live owner held the lease for the whole `max_wait` window.
    Busy {
        /// Backoff sleeps spent before giving up.
        waits: u64,
    },
}

/// An owned lease. Refresh it via [`LeaseGuard::refresh`]; dropping the
/// guard releases the lease (removing the file iff our nonce still owns
/// it — a takeover by someone else after our TTL lapsed is left alone).
pub struct LeaseGuard {
    path: PathBuf,
    tmp_dir: PathBuf,
    nonce: u64,
    ttl: Duration,
    last_refresh: Mutex<Instant>,
}

impl LeaseGuard {
    /// Rewrites the lease with a fresh expiry iff at least half the TTL
    /// has elapsed since the last write (so tight append loops don't turn
    /// every journal record into two IO events). Failures are swallowed:
    /// a missed heartbeat degrades to possible duplicate compute, which is
    /// safe.
    pub fn refresh(&self) {
        let mut last = self.last_refresh.lock().expect("lease refresh mutex");
        if last.elapsed() < self.ttl / 2 {
            return;
        }
        let lease = Lease {
            pid: std::process::id(),
            nonce: self.nonce,
            expires_unix_ms: now_unix_ms() + self.ttl.as_millis() as u64,
        };
        if write_lease_file(&self.path, &self.tmp_dir, &lease).is_ok() {
            *last = Instant::now();
        }
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        // Release only if the lease is still ours: if our TTL lapsed and
        // another process took over, removing the file would break *their*
        // lease.
        if let Ok(bytes) = fs::read(&self.path) {
            if Lease::parse(&bytes).is_some_and(|l| l.nonce == self.nonce) {
                let _ = fs::remove_file(&self.path);
            }
        }
    }
}

/// Atomically writes a lease file: sealed line to a unique `tmp/` name,
/// fsync, rename over `path`. The content write goes through the failpoint
/// so the crash-resume suite covers death mid-lease-write.
fn write_lease_file(path: &Path, tmp_dir: &Path, lease: &Lease) -> io::Result<()> {
    let tmp = tmp_dir.join(format!(
        "lease.{}.{:016x}.tmp",
        std::process::id(),
        lease.nonce
    ));
    let mut f = File::create(&tmp)?;
    let r = reno_chaos::write_all(crate::FP_LEASE_WRITE, &mut f, lease.render().as_bytes())
        .and_then(|_| f.sync_all())
        .and_then(|_| fs::rename(&tmp, path));
    if r.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    r
}

/// Acquires the lease at `path`, waiting with capped exponential backoff
/// while a live owner holds it. Stale leases (expired, dead owner, or torn
/// content) are taken over. Returns [`LeaseOutcome::Busy`] if a live owner
/// outlasts `cfg.max_wait`.
pub fn acquire_lease(path: &Path, tmp_dir: &Path, cfg: &LeaseConfig) -> io::Result<LeaseOutcome> {
    let nonce = fresh_nonce(fnv1a64(path.as_os_str().as_encoded_bytes()));
    let deadline = Instant::now() + cfg.max_wait;
    let mut backoff = cfg.backoff_start;
    let mut waits = 0u64;
    let mut takeover = false;
    loop {
        let mut breaking_foreign = false;
        let held_by_live_owner = match fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
            Ok(bytes) => match Lease::parse(&bytes) {
                // Our own nonce (a prior claim whose verify read raced):
                // just re-claim.
                Some(l) if l.nonce == nonce => false,
                Some(l) if l.is_stale() => {
                    breaking_foreign = true;
                    false
                }
                Some(_) => true,
                // Torn/garbage lease file: its writer either crashed
                // mid-write (stale) or is inside the µs rename window
                // (breaking it is harmless — see module docs).
                None => {
                    breaking_foreign = true;
                    false
                }
            },
        };
        if !held_by_live_owner {
            if breaking_foreign {
                takeover = true;
            }
            let lease = Lease {
                pid: std::process::id(),
                nonce,
                expires_unix_ms: now_unix_ms() + cfg.ttl.as_millis() as u64,
            };
            write_lease_file(path, tmp_dir, &lease)?;
            // Read-after-write closes the claim race: only the rename that
            // landed last survives, and its nonce tells us whose it was.
            let ours = fs::read(path)
                .ok()
                .and_then(|b| Lease::parse(&b))
                .is_some_and(|l| l.nonce == nonce);
            if ours {
                return Ok(LeaseOutcome::Owned {
                    guard: LeaseGuard {
                        path: path.to_path_buf(),
                        tmp_dir: tmp_dir.to_path_buf(),
                        nonce,
                        ttl: cfg.ttl,
                        last_refresh: Mutex::new(Instant::now()),
                    },
                    waits,
                    takeover,
                });
            }
            // Lost the rename race; fall through to wait on the winner.
        }
        if Instant::now() >= deadline {
            return Ok(LeaseOutcome::Busy { waits });
        }
        std::thread::sleep(backoff.min(deadline.saturating_duration_since(Instant::now())));
        waits += 1;
        backoff = (backoff * 2).min(cfg.backoff_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("reno-dse-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("tmp")).unwrap();
        (root.clone(), root.join("tmp"))
    }

    #[test]
    fn lease_render_parse_roundtrip_and_strictness() {
        let l = Lease {
            pid: 1234,
            nonce: 0xdead_beef_0bad_f00d,
            expires_unix_ms: 1_700_000_000_123,
        };
        let rendered = l.render();
        assert_eq!(Lease::parse(rendered.as_bytes()), Some(l));
        // Seal flip rejects.
        let mut bad = rendered.clone().into_bytes();
        let n = bad.len();
        bad[n - 3] ^= 1;
        assert_eq!(Lease::parse(&bad), None);
        // Truncation rejects at every length.
        for i in 0..rendered.len() {
            assert_eq!(Lease::parse(&rendered.as_bytes()[..i]), None);
        }
        // Field lies with a recomputed seal still reject (wrong shape).
        let body = "lease 12 34 56 extra";
        let sealed = format!("{body} {:016x}\n", fnv1a64(body.as_bytes()));
        assert_eq!(Lease::parse(sealed.as_bytes()), None);
    }

    #[test]
    fn acquire_takes_over_stale_and_waits_on_live() {
        let (root, tmp) = tmp_dirs("acquire");
        let path = root.join("x.lease");
        let cfg = LeaseConfig {
            ttl: Duration::from_secs(30),
            max_wait: Duration::from_millis(80),
            backoff_start: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
        };

        // Fresh acquire.
        let guard = match acquire_lease(&path, &tmp, &cfg).unwrap() {
            LeaseOutcome::Owned {
                guard, takeover, ..
            } => {
                assert!(!takeover);
                guard
            }
            LeaseOutcome::Busy { .. } => panic!("fresh lease must be acquirable"),
        };

        // While held by a live process (us), a second acquire goes Busy.
        match acquire_lease(&path, &tmp, &cfg).unwrap() {
            LeaseOutcome::Busy { waits } => assert!(waits > 0, "waited with backoff"),
            LeaseOutcome::Owned { .. } => panic!("live lease must not be stolen"),
        }
        drop(guard);
        assert!(!path.exists(), "drop releases the lease");

        // An expired lease from a live pid is taken over.
        let expired = Lease {
            pid: std::process::id(),
            nonce: 1,
            expires_unix_ms: 1, // 1970
        };
        fs::write(&path, expired.render()).unwrap();
        match acquire_lease(&path, &tmp, &cfg).unwrap() {
            LeaseOutcome::Owned { takeover, .. } => assert!(takeover),
            LeaseOutcome::Busy { .. } => panic!("expired lease must be taken over"),
        }

        // Torn lease content is taken over too.
        fs::write(&path, b"lease 12 garbage").unwrap();
        match acquire_lease(&path, &tmp, &cfg).unwrap() {
            LeaseOutcome::Owned { takeover, .. } => assert!(takeover),
            LeaseOutcome::Busy { .. } => panic!("torn lease must be taken over"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
