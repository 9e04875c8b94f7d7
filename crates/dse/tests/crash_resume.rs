//! End-to-end fault-tolerance tests for the DSE service: cache-identical
//! re-runs, hand-corrupted store entries, panicking cells, wedged cells
//! (watchdog timeouts), and — through the `dse` binary — process kills at
//! every IO point (journal, store, lease, object-lock and GC writes) with
//! byte-identical resumed reports and no live object lost.

use reno_dse::{parse_spec, run_sweep, Store, SweepOptions, SweepSpec, TIMEOUT_MESSAGE};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests take turns. The watchdog tests hold healthy cells to a
/// wall-clock deadline, which only means "the cell is wedged" while no
/// sibling test (the kill loops spawn `dse` processes back to back) is
/// competing for the same cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed assertion in one test must not wedge the rest of the suite.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const SPEC: &str = "\
sweep crash-test
scale tiny
fuel 20000
mode full
workload gzip.c
workload mcf
config BASE four_wide baseline
config RENO four_wide reno
";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reno-dse-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> SweepSpec {
    parse_spec(SPEC).unwrap()
}

/// Silences the default panic hook around deliberate worker panics.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

#[test]
fn second_run_is_fully_cached_and_byte_identical() {
    let _turn = serial();
    let dir = tmp_dir("cached");
    let store = Store::open(&dir).unwrap();
    let first = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.stats.computed, 4);
    assert_eq!(first.stats.cached, 0);

    let second = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(second.stats.computed, 0, "zero re-executed cells");
    assert_eq!(second.stats.cached, 4);
    assert_eq!(first.report, second.report, "reports are byte-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hand_corrupted_entries_are_quarantined_and_recomputed() {
    let _turn = serial();
    let dir = tmp_dir("corrupt");
    let store = Store::open(&dir).unwrap();
    let first = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();

    // Vandalize every committed object: flip a byte in each.
    let mut vandalized = 0;
    for shard in fs::read_dir(dir.join("objects")).unwrap() {
        for obj in fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = obj.unwrap().path();
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xa5;
            fs::write(&path, &bytes).unwrap();
            vandalized += 1;
        }
    }
    assert_eq!(vandalized, 4, "one object per cell");

    // Reopen (fresh stats) and re-run: every entry is detected, moved to
    // quarantine, recomputed — and the report doesn't change by a byte.
    let store = Store::open(&dir).unwrap();
    let second = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(
        second.stats.store_corrupt, 4,
        "all vandalized entries detected"
    );
    assert_eq!(second.stats.computed, 4, "all recomputed");
    assert_eq!(first.report, second.report);
    assert_eq!(
        fs::read_dir(dir.join("quarantine")).unwrap().count(),
        4,
        "corrupt entries are preserved for inspection"
    );

    // Third run: the recomputed entries serve cleanly again.
    let store = Store::open(&dir).unwrap();
    let third = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(third.stats.computed, 0);
    assert_eq!(first.report, third.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicking_cell_is_quarantined_after_one_retry_and_sweep_completes() {
    let _turn = serial();
    let dir = tmp_dir("panic");
    let store = Store::open(&dir).unwrap();
    let opts = SweepOptions {
        panic_always: vec!["gzip.c/RENO".into()],
        ..SweepOptions::default()
    };
    let out = quietly(|| run_sweep(&spec(), &store, &opts).unwrap());
    assert_eq!(out.stats.failed, 1);
    assert_eq!(out.stats.computed, 3, "the other three cells completed");
    assert!(out.report.contains("failed cells (1):"));
    assert!(out
        .report
        .contains("gzip.c/RENO: injected panic in cell gzip.c/RENO"));
    assert!(
        out.report
            .lines()
            .any(|l| l.starts_with("gzip.c") && l.contains("FAIL")),
        "table marks the failed cell:\n{}",
        out.report
    );

    // Resume without injection: the journaled failure is preserved (not
    // silently re-run), so the report is byte-identical.
    let store = Store::open(&dir).unwrap();
    let resumed = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(resumed.stats.computed, 0);
    assert_eq!(resumed.stats.failed, 1);
    assert_eq!(out.report, resumed.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn first_attempt_panic_succeeds_on_retry() {
    let _turn = serial();
    let dir = tmp_dir("retry");
    let store = Store::open(&dir).unwrap();
    let opts = SweepOptions {
        panic_first_attempt: vec!["mcf/BASE".into()],
        ..SweepOptions::default()
    };
    let out = quietly(|| run_sweep(&spec(), &store, &opts).unwrap());
    assert_eq!(out.stats.failed, 0, "retry rescued the cell");
    assert_eq!(out.stats.computed, 4);
    assert!(!out.report.contains("FAIL"));

    // The report matches a run that never panicked at all.
    let clean_dir = tmp_dir("retry-clean");
    let clean_store = Store::open(&clean_dir).unwrap();
    let clean = run_sweep(&spec(), &clean_store, &SweepOptions::default()).unwrap();
    assert_eq!(out.report, clean.report);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&clean_dir);
}

#[test]
fn sampled_mode_reuses_one_pass_across_configs_and_runs() {
    let _turn = serial();
    let dir = tmp_dir("sampled");
    let store = Store::open(&dir).unwrap();
    let spec = parse_spec(
        "sweep sampled-test\nscale small\nmode sampled 128 384 1024\n\
         workload gzip.c\nworkload vpr.r\n\
         config BASE four_wide baseline\nconfig RENO four_wide reno\nconfig R6W six_wide reno\n",
    )
    .unwrap();
    let first = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.stats.cells, 6);
    assert_eq!(first.stats.computed, 6);
    assert_eq!(
        first.stats.passes_computed, 2,
        "one pass per workload, shared by all three configs"
    );

    // Second run: cells come from cache; no pass is even loaded.
    let store = Store::open(&dir).unwrap();
    let second = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(second.stats.computed, 0);
    assert_eq!(second.stats.passes_computed + second.stats.passes_cached, 0);
    assert_eq!(first.report, second.report);

    // Drop the *cells* but keep the passes: the re-run recomputes every
    // cell from the cached passes without redoing functional work.
    let store2 = Store::open(&dir).unwrap();
    let mut dropped = 0;
    for shard in fs::read_dir(dir.join("objects")).unwrap() {
        for obj in fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = obj.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            if bytes.get(12) == Some(&2) {
                fs::remove_file(&path).unwrap(); // kind 2 = cell
                dropped += 1;
            }
        }
    }
    assert_eq!(dropped, 6);
    let third = run_sweep(&spec, &store2, &SweepOptions::default()).unwrap();
    assert_eq!(third.stats.computed, 6);
    assert_eq!(third.stats.passes_cached, 2, "passes served from the store");
    assert_eq!(third.stats.passes_computed, 0);
    assert_eq!(first.report, third.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wedged_cell_times_out_is_retried_and_reported_failed() {
    let _turn = serial();
    let dir = tmp_dir("wedge");
    let store = Store::open(&dir).unwrap();
    let opts = SweepOptions {
        stall_always: vec!["gzip.c/RENO".into()],
        deadline_ms: Some(150),
        ..SweepOptions::default()
    };
    let out = run_sweep(&spec(), &store, &opts).unwrap();
    assert_eq!(out.stats.failed, 1);
    assert_eq!(out.stats.computed, 3, "the other three cells completed");
    assert_eq!(
        out.stats.timeouts, 2,
        "first attempt + one retry both expired"
    );
    assert!(
        out.report
            .contains(&format!("gzip.c/RENO: {TIMEOUT_MESSAGE}")),
        "failed-cells section names the timeout:\n{}",
        out.report
    );

    // Resume without the stall: the journaled timeout is preserved (not
    // silently re-run), so the report is byte-identical.
    let store = Store::open(&dir).unwrap();
    let resumed = run_sweep(&spec(), &store, &SweepOptions::default()).unwrap();
    assert_eq!(resumed.stats.computed, 0);
    assert_eq!(resumed.stats.failed, 1);
    assert_eq!(resumed.stats.timeouts, 0);
    assert_eq!(out.report, resumed.report);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn first_attempt_stall_is_rescued_by_retry() {
    let _turn = serial();
    let dir = tmp_dir("wedge-retry");
    let store = Store::open(&dir).unwrap();
    let opts = SweepOptions {
        stall_first_attempt: vec!["mcf/BASE".into()],
        deadline_ms: Some(150),
        ..SweepOptions::default()
    };
    let out = run_sweep(&spec(), &store, &opts).unwrap();
    assert_eq!(out.stats.failed, 0, "retry rescued the wedged cell");
    assert_eq!(out.stats.computed, 4);
    assert_eq!(out.stats.timeouts, 1);

    // The report matches a run that never stalled at all.
    let clean_dir = tmp_dir("wedge-retry-clean");
    let clean_store = Store::open(&clean_dir).unwrap();
    let clean = run_sweep(&spec(), &clean_store, &SweepOptions::default()).unwrap();
    assert_eq!(out.report, clean.report);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&clean_dir);
}

// ---------------------------------------------------------------- kill/resume

/// Runs the `dse` binary against `store`, returning (exit-ok, stdout,
/// stderr). `failpoint` arms `RENO_DSE_FAILPOINT=abort-at-io:<n>`.
fn run_dse(spec_path: &Path, store: &Path, failpoint: Option<u64>) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.arg(spec_path).arg("--store").arg(store);
    cmd.env_remove("RENO_DSE_FAILPOINT");
    if let Some(n) = failpoint {
        cmd.env("RENO_DSE_FAILPOINT", format!("abort-at-io:{n}"));
    }
    let out = cmd.output().expect("dse binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `dse gc --store <store> --budget <budget>`, returning (exit-ok,
/// stderr). `failpoint` arms `RENO_DSE_FAILPOINT=abort-at-io:<n>`.
fn run_gc_bin(store: &Path, budget: u64, failpoint: Option<u64>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.arg("gc")
        .arg("--store")
        .arg(store)
        .arg("--budget")
        .arg(budget.to_string());
    cmd.env_remove("RENO_DSE_FAILPOINT");
    if let Some(n) = failpoint {
        cmd.env("RENO_DSE_FAILPOINT", format!("abort-at-io:{n}"));
    }
    let out = cmd.output().expect("dse binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn journal_done_count(store: &Path) -> u64 {
    let dir = store.join("journal");
    let Ok(entries) = fs::read_dir(&dir) else {
        return 0;
    };
    let mut count = 0;
    for e in entries {
        let bytes = fs::read(e.unwrap().path()).unwrap();
        count += String::from_utf8_lossy(&bytes)
            .lines()
            .filter(|l| l.starts_with("done "))
            .count() as u64;
    }
    count
}

fn stderr_stat(stderr: &str, key: &str) -> u64 {
    stderr
        .lines()
        .rev()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| panic!("no {key}= in stderr: {stderr}"))
}

#[test]
fn killed_mid_write_resumes_byte_identical_at_every_io_point() {
    let _turn = serial();
    let dir = tmp_dir("kill");
    fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.txt");
    fs::write(&spec_path, SPEC).unwrap();

    // Uninterrupted reference run.
    let ref_store = dir.join("store-ref");
    let (ok, reference, _) = run_dse(&spec_path, &ref_store, None);
    assert!(ok, "reference run succeeds");
    assert!(!reference.is_empty());

    // Kill the process mid-way through its n-th IO write, for every n until
    // a run survives to completion (i.e. the failpoint went past the last
    // write). Every IO event in the run dies exactly once across the loop:
    // journal header, store-object temp write, journal `done` append.
    let mut n = 1;
    loop {
        let store = dir.join(format!("store-kill-{n}"));
        let (ok, _, _) = run_dse(&spec_path, &store, Some(n));
        if ok {
            assert!(n > 1, "the failpoint must actually fire at least once");
            break;
        }

        // The journal records completed cells; the resumed run must serve
        // exactly those from cache and recompute the rest.
        let done_before = journal_done_count(&store);
        let (ok, resumed, stderr) = run_dse(&spec_path, &store, None);
        assert!(ok, "resume after kill-at-io:{n} succeeds: {stderr}");
        assert_eq!(
            resumed, reference,
            "resumed report after kill-at-io:{n} is byte-identical"
        );
        assert_eq!(
            stderr_stat(&stderr, "computed") + done_before,
            4,
            "kill-at-io:{n}: resume re-executed zero completed cells"
        );

        // And a third run is fully cached.
        let (ok, again, stderr) = run_dse(&spec_path, &store, None);
        assert!(ok);
        assert_eq!(again, reference);
        assert_eq!(stderr_stat(&stderr, "computed"), 0);

        n += 1;
        assert!(n < 64, "failpoint never exhausted — runaway IO count");
    }
    let _ = fs::remove_dir_all(&dir);
}

const SPEC_B: &str = "\
sweep crash-test-b
scale tiny
fuel 21000
mode full
workload gzip.c
workload mcf
config BASE four_wide baseline
config RENO four_wide reno
";

fn count_bins(store: &Path) -> (usize, usize) {
    let (mut bins, mut tombs) = (0, 0);
    let Ok(shards) = fs::read_dir(store.join("objects")) else {
        return (0, 0);
    };
    for shard in shards {
        for obj in fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = obj.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.ends_with(".bin") {
                bins += 1;
            } else if name.ends_with(".tomb") {
                tombs += 1;
            }
        }
    }
    (bins, tombs)
}

#[test]
fn gc_killed_at_every_io_point_loses_no_live_object() {
    let _turn = serial();
    let dir = tmp_dir("gc-kill");
    fs::create_dir_all(&dir).unwrap();
    let spec_a = dir.join("spec-a.txt");
    let spec_b = dir.join("spec-b.txt");
    fs::write(&spec_a, SPEC).unwrap();
    fs::write(&spec_b, SPEC_B).unwrap();

    // A store holds two sweeps; deleting sweep B's journal makes its four
    // objects dead. Budget 0 asks GC to evict everything it can — which
    // must be exactly the dead objects, never sweep A's.
    // Journals are named `<sweep-hash:016x>.log`, so B's journal is the one
    // that appears after running B on a store that already holds A's.
    let setup = |store: &Path| {
        let (ok, _, _) = run_dse(&spec_a, store, None);
        assert!(ok);
        let before: Vec<PathBuf> = fs::read_dir(store.join("journal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        let (ok, _, _) = run_dse(&spec_b, store, None);
        assert!(ok);
        let mut removed = 0;
        for e in fs::read_dir(store.join("journal")).unwrap() {
            let path = e.unwrap().path();
            if path.extension().is_some_and(|x| x == "log") && !before.contains(&path) {
                fs::remove_file(&path).unwrap();
                removed += 1;
            }
        }
        assert_eq!(removed, 1, "exactly sweep B's journal deleted");
    };

    // Uninterrupted reference: report bytes for sweep A.
    let ref_store = dir.join("store-ref");
    let (ok, reference, _) = run_dse(&spec_a, &ref_store, None);
    assert!(ok);

    // Kill GC mid-way through its n-th IO write (eviction-intent and
    // eviction-done journal appends), for every n until a pass survives.
    let mut n = 1;
    loop {
        let store = dir.join(format!("store-gc-kill-{n}"));
        setup(&store);
        let (ok, _) = run_gc_bin(&store, 0, Some(n));
        if ok {
            assert!(n > 1, "the failpoint must actually fire at least once");
            break;
        }

        // Recovery pass: finishes (or abandons) the interrupted eviction,
        // leaves no tombstones, and must not have lost a live object.
        let (ok, stderr) = run_gc_bin(&store, 0, None);
        assert!(ok, "gc recovery after kill-at-io:{n} succeeds: {stderr}");
        let (bins, tombs) = count_bins(&store);
        assert_eq!(tombs, 0, "kill-at-io:{n}: no tombstones survive recovery");
        assert_eq!(bins, 4, "kill-at-io:{n}: exactly sweep A's objects remain");

        // Sweep A resumes fully cached and byte-identical.
        let (ok, resumed, stderr) = run_dse(&spec_a, &store, None);
        assert!(ok);
        assert_eq!(
            resumed, reference,
            "report after kill-at-io:{n} GC is byte-identical"
        );
        assert_eq!(
            stderr_stat(&stderr, "computed"),
            0,
            "kill-at-io:{n}: GC evicted no live object"
        );

        n += 1;
        assert!(n < 32, "failpoint never exhausted — runaway GC IO count");
    }
    let _ = fs::remove_dir_all(&dir);
}
