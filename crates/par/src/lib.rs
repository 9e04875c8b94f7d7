//! # reno-par — deterministic order-preserving parallel map
//!
//! One primitive in two flavors: apply a function to every item of a slice,
//! fanning the work across scoped worker threads (a work-stealing-free
//! atomic-cursor pool on `std::thread::scope` — no dependencies), and return
//! the results **in item order**. Callers therefore produce byte-identical
//! output whether the map runs on 1 core or 64; `RENO_THREADS` overrides the
//! worker count (`RENO_THREADS=1` forces the sequential path).
//!
//! * [`par_map`] — the plain map. A panicking job no longer poisons or
//!   aborts the pool: every other job still runs to completion, and the
//!   panic of the **lowest-indexed** failing item is re-raised afterwards
//!   with its original payload — deterministic regardless of which worker
//!   hit it first or how many jobs panicked.
//! * [`try_par_map`] — the degradation-tolerant map. Each job's panic is
//!   caught and surfaced as an `Err(`[`JobPanic`]`)` in that job's result
//!   slot instead of being raised at all, so a fleet of independent jobs
//!   (e.g. a design-space sweep's cells) can lose one cell and keep the
//!   rest.
//! * [`try_par_map_deadline`] — the watchdog map. Jobs own their inputs and
//!   run on detachable threads under a per-job wall-clock deadline; a job
//!   that exceeds it is abandoned (its thread detached, its [`CancelToken`]
//!   raised so a cooperative job can stop burning CPU) and its slot becomes
//!   `Err(`[`JobError::Timeout`]`)` — the map **always returns**, even when
//!   a job wedges. An `on_result` hook runs on the caller's thread the
//!   moment each slot resolves, so callers can commit results durably in
//!   arrival order without waiting for the whole fleet.
//!
//! * [`Knob`] — the one reader of every `RENO_*` environment knob in the
//!   workspace (this crate's `RENO_THREADS` included): unset keeps the
//!   default, a malformed value panics naming the valid ones. It lives here
//!   because this crate depends on nothing, so every crate can share it.
//!
//! Both the experiment harness (`reno-bench`, which fans workload ×
//! configuration sweeps), the sampling engine (`reno-sample`, which fans
//! checkpoint-delimited segments of one sampled run) and the DSE service
//! (`reno-dse`, which fans sweep cells and must survive a panicking or
//! wedged cell) are built on it; it lives in its own crate so they can
//! share it without a dependency cycle.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A `RENO_*` environment knob. Every knob of the workspace reads through
/// this one type, so they all fail the same way: unset (or empty) keeps the
/// caller's default, and a malformed value is rejected with a message that
/// names the knob and its valid values — a typo must never silently fall
/// back to a default.
pub struct Knob<T> {
    /// The environment variable.
    pub name: &'static str,
    /// The valid values, as the rejection message lists them.
    pub valid: &'static str,
    /// Parses a trimmed, non-empty value; `None` rejects it.
    pub accept: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    /// Parses one value of the knob: `Ok(None)` when unset or empty,
    /// `Ok(Some(_))` when [`Knob::accept`] takes it, and otherwise an error
    /// naming the knob and its valid values.
    pub fn parse(&self, v: Option<&str>) -> Result<Option<T>, String> {
        match v.map(str::trim) {
            None | Some("") => Ok(None),
            Some(s) => (self.accept)(s).map(Some).ok_or_else(|| {
                format!(
                    "{}={s:?} is malformed; valid values: {}",
                    self.name, self.valid
                )
            }),
        }
    }

    /// Reads the knob from the environment: `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics with [`Knob::parse`]'s message when the knob is set to a
    /// malformed value.
    pub fn read(&self) -> Option<T> {
        let v = std::env::var_os(self.name).map(|v| v.to_string_lossy().into_owned());
        self.parse(v.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// `RENO_THREADS`: a whole number `n` means `max(n, 1)` workers.
const THREADS: Knob<usize> = Knob {
    name: "RENO_THREADS",
    valid: "a whole number (0 and 1 both mean one worker), or unset for every core",
    accept: |s| s.parse::<usize>().ok().map(|n| n.max(1)),
};

/// Worker threads for [`par_map`]: the `RENO_THREADS` override if set
/// (>= 1), otherwise the host's available parallelism.
///
/// # Panics
///
/// Panics, naming the valid values, when `RENO_THREADS` is set to anything
/// but a whole number: a typo must not silently fan out over every core.
pub fn thread_count() -> usize {
    THREADS
        .read()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A captured job panic: the payload of a panic that occurred inside one
/// [`try_par_map`] job, reduced to its human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (`&str` and `String` payloads are extracted;
    /// anything else is reported as an opaque payload).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> JobPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobPanic { message }
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

type Caught<R> = Result<R, Box<dyn Any + Send>>;

/// The shared pool loop: every job runs under `catch_unwind`, so one
/// panicking job can never tear down a worker thread (which would abort the
/// whole `thread::scope`) or leave later items unprocessed.
fn pool_run<T, R, F>(items: &[T], f: F) -> Vec<Caught<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .map(|it| catch_unwind(AssertUnwindSafe(|| f(it))))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Caught<R>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Applies `f` to every item, fanning the work across [`thread_count`]
/// scoped threads. Results are returned in item order, so callers produce
/// identical output whether this runs on 1 core or 64.
///
/// # Panics
///
/// If any job panics, every *other* job still runs to completion, and the
/// panic of the lowest-indexed panicking item is then re-raised with its
/// original payload. The choice is by item order — never by wall-clock
/// order — so a panicking sweep behaves identically at any thread count.
/// Callers that want to keep the surviving results instead use
/// [`try_par_map`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in pool_run(items, f) {
        match r {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Like [`par_map`], but a panicking job is captured and surfaced as an
/// `Err(`[`JobPanic`]`)` in its own result slot, leaving every other job's
/// result intact — graceful degradation for fleets of independent jobs.
///
/// The panic hook still runs at the point of panic (so default stderr
/// backtraces appear unless the process installed a quieter hook); the
/// payload itself is reduced to its message.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pool_run(items, f)
        .into_iter()
        .map(|r| r.map_err(|p| JobPanic::from_payload(p.as_ref())))
        .collect()
}

/// Runs `f` on the calling thread with the same panic isolation as a
/// [`try_par_map`] job: a panic is caught and reduced to a [`JobPanic`].
/// This is the serial building block for retry ladders — re-run one failed
/// job in isolation without paying for a pool.
pub fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| JobPanic::from_payload(p.as_ref()))
}

/// Why one [`try_par_map_deadline`] job failed: it panicked, or it exceeded
/// its wall-clock deadline and was abandoned by the watchdog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload message is captured as in
    /// [`try_par_map`].
    Panic(JobPanic),
    /// The job ran longer than the per-job deadline and was abandoned. Its
    /// thread may still be running detached; its eventual result (if any)
    /// is discarded.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panic(p) => write!(f, "{p}"),
            JobError::Timeout { limit_ms } => {
                write!(f, "job exceeded its {limit_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Cooperative cancellation flag handed to every [`try_par_map_deadline`]
/// job. The pool raises it when the job's deadline expires (or never, if no
/// deadline is set); a job that polls it can stop wasting CPU early, but
/// polling is optional — an oblivious job is simply abandoned on a detached
/// thread.
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// True once the pool has given up on this job.
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// How often the deadline scheduler wakes to check in-flight jobs against
/// their deadlines. Bounds how *late* a timeout can be detected; it never
/// delays result delivery (results arrive through the channel immediately).
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// Like [`try_par_map`], but with a watchdog: jobs **own** their inputs and
/// run on plain (detachable) threads, at most [`thread_count`] concurrently,
/// and each job gets the same optional wall-clock `deadline`. A job that
/// exceeds it has its [`CancelToken`] raised, its thread detached, and its
/// slot resolved to `Err(`[`JobError::Timeout`]`)` — so the map returns even
/// when a job wedges in a loop that never polls the token.
///
/// `on_result` runs on the *caller's* thread the moment each slot resolves
/// (in wall-clock arrival order, which is scheduling-dependent); callers use
/// it to commit finished work durably without waiting for stragglers. The
/// returned vector is in item order regardless. A detached job that finishes
/// after its timeout was recorded is discarded — `on_result` fires exactly
/// once per slot.
pub fn try_par_map_deadline<T, R, F, C>(
    items: Vec<T>,
    deadline: Option<Duration>,
    f: F,
    mut on_result: C,
) -> Vec<Result<R, JobError>>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T, &CancelToken) -> R + Send + Sync + 'static,
    C: FnMut(usize, &Result<R, JobError>),
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = thread_count().min(n).max(1);
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobPanic>)>();
    let mut queue = items.into_iter();
    let mut next_idx = 0usize;
    let mut results: Vec<Option<Result<R, JobError>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    // idx -> (start time, cancel flag, join handle). Dropping the handle
    // detaches the thread — that is exactly the abandon semantics.
    let mut in_flight: HashMap<usize, (Instant, Arc<AtomicBool>, std::thread::JoinHandle<()>)> =
        HashMap::new();
    let mut completed = 0usize;
    while completed < n {
        while in_flight.len() < workers {
            let Some(item) = queue.next() else { break };
            let idx = next_idx;
            next_idx += 1;
            let cancel = Arc::new(AtomicBool::new(false));
            let token = CancelToken {
                flag: Arc::clone(&cancel),
            };
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("reno-par-job-{idx}"))
                .spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| f(item, &token)));
                    // The receiver may already have abandoned this job; a
                    // closed channel is fine, the result is simply dropped.
                    let _ = tx.send((idx, r.map_err(|p| JobPanic::from_payload(p.as_ref()))));
                })
                .expect("spawn watchdog job thread");
            in_flight.insert(idx, (Instant::now(), cancel, handle));
        }
        let recv = if deadline.is_some() {
            rx.recv_timeout(WATCHDOG_POLL)
        } else {
            rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
        };
        match recv {
            Ok((idx, res)) => {
                // Only honor results for jobs still in flight: a detached
                // (timed-out) job's late result must not overwrite the
                // recorded timeout or fire on_result twice.
                if let Some((_, _, handle)) = in_flight.remove(&idx) {
                    let _ = handle.join();
                    let slot = res.map_err(JobError::Panic);
                    on_result(idx, &slot);
                    results[idx] = Some(slot);
                    completed += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the pool holds a sender for the job channel")
            }
        }
        if let Some(limit) = deadline {
            let expired: Vec<usize> = in_flight
                .iter()
                .filter(|(_, (start, _, _))| start.elapsed() > limit)
                .map(|(&idx, _)| idx)
                .collect();
            for idx in expired {
                let (_, cancel, handle) = in_flight.remove(&idx).expect("expired job in flight");
                cancel.store(true, Ordering::Relaxed);
                drop(handle); // detach: the wedged thread is abandoned
                let slot = Err(JobError::Timeout {
                    limit_ms: limit.as_millis() as u64,
                });
                on_result(idx, &slot);
                results[idx] = Some(slot);
                completed += 1;
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silences the default panic hook around a block that provokes panics
    /// on purpose (worker panics would otherwise spam test output).
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn par_map_preserves_order_and_results() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = par_map(&items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(par_map(&[] as &[u8], |x| *x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |x| *x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn malformed_thread_counts_are_rejected_loudly() {
        assert_eq!(THREADS.parse(None), Ok(None));
        assert_eq!(THREADS.parse(Some("")), Ok(None));
        assert_eq!(THREADS.parse(Some("2")), Ok(Some(2)));
        assert_eq!(THREADS.parse(Some("0")), Ok(Some(1)));
        for bad in ["two", "2x", "-1", "1.5"] {
            let e = THREADS.parse(Some(bad)).unwrap_err();
            assert!(
                e.contains(&format!("{bad:?}"))
                    && e.contains("whole number")
                    && e.contains("unset"),
                "{e}"
            );
        }
    }

    #[test]
    fn try_par_map_isolates_panics() {
        let items: Vec<u64> = (0..50).collect();
        let out = quietly(|| {
            try_par_map(&items, |&x| {
                if x % 13 == 5 {
                    panic!("boom at {x}");
                }
                x * 2
            })
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let e = r.as_ref().expect_err("panicking slot is Err");
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().expect("clean slot is Ok"), i as u64 * 2);
            }
        }
    }

    #[test]
    fn try_par_map_string_and_opaque_payloads() {
        let out = quietly(|| {
            try_par_map(&[0u8, 1, 2], |&x| match x {
                0 => std::panic::panic_any(format!("owned {x}")),
                1 => std::panic::panic_any(42u32),
                _ => x,
            })
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "owned 0");
        assert_eq!(
            out[1].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn deadline_map_matches_sequential_without_deadline() {
        let items: Vec<u64> = (0..64).collect();
        let mut seen = Vec::new();
        let out = try_par_map_deadline(
            items.clone(),
            None,
            |x, _ctx| x * 3,
            |idx, _r| seen.push(idx),
        );
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("clean job"), i as u64 * 3);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..64).collect::<Vec<_>>(),
            "on_result fired once per slot"
        );
    }

    #[test]
    fn deadline_map_times_out_wedged_job_and_finishes_the_rest() {
        let items: Vec<u64> = (0..6).collect();
        let out = try_par_map_deadline(
            items,
            Some(Duration::from_millis(60)),
            |x, ctx| {
                if x == 2 {
                    // Wedge cooperatively: spin until the watchdog raises
                    // the token (or a generous cap, so a broken watchdog
                    // fails the test instead of hanging it).
                    let t0 = Instant::now();
                    while !ctx.cancelled() && t0.elapsed() < Duration::from_secs(10) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                x + 100
            },
            |_idx, _r| {},
        );
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(
                    *r.as_ref().expect_err("wedged job times out"),
                    JobError::Timeout { limit_ms: 60 }
                );
            } else {
                assert_eq!(*r.as_ref().expect("fast job"), i as u64 + 100);
            }
        }
    }

    #[test]
    fn deadline_map_captures_panics_like_try_par_map() {
        let out = quietly(|| {
            try_par_map_deadline(
                vec![0u8, 1, 2],
                Some(Duration::from_secs(30)),
                |x, _ctx| {
                    if x == 1 {
                        panic!("boom at {x}");
                    }
                    x
                },
                |_idx, _r| {},
            )
        });
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        match out[1].as_ref().unwrap_err() {
            JobError::Panic(p) => assert_eq!(p.message, "boom at 1"),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn par_map_reraises_lowest_index_panic_after_completing_the_rest() {
        use std::sync::atomic::AtomicU64;
        let done = AtomicU64::new(0);
        let items: Vec<u64> = (0..40).collect();
        let caught = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, |&x| {
                    if x == 7 || x == 31 {
                        panic!("item {x} failed");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }))
        });
        let payload = caught.expect_err("par_map re-raises");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic payload");
        assert_eq!(
            msg, "item 7 failed",
            "lowest item index wins, not wall-clock order"
        );
        assert_eq!(
            done.load(Ordering::Relaxed),
            38,
            "every non-panicking job still ran"
        );
    }
}
