//! The three workloads, their passes, and the measuring loop.
//!
//! A *pass* runs a workload's jobs once. An untraced run repeats passes for
//! the requested seconds, probes the host's speed before and after each,
//! and reports medians of probe-scaled times; a traced run makes a fixed
//! schedule of passes and layer calls with spans on, writes the spans to a
//! file, and derives every per-layer metric from that file.

use crate::grid;
use crate::host;
use crate::metrics::{median, END_TO_END, PER_LAYER};
use crate::reference::{self, Reference, REFERENCE_TSV};
use crate::spans::{self, Span, SpanId, Spans, Tracer};
use reno_core::RenoConfig;
use reno_dse::{decode_entry, parse_spec, run_sweep, EntryKind, Store, SweepOptions, SweepSpec};
use reno_func::{Cpu, DecodedProgram};
use reno_par::{run_caught, try_par_map};
use reno_sample::{
    run_sampled_auto, run_sampled_with_pass, CheckpointPass, SampleConfig, SampledResult,
};
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_workloads::{all_workloads, Scale, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads for every workload: the host's 2 cores, set explicitly
/// so that a stray `RENO_THREADS` in the environment cannot change them.
pub const WORKERS: usize = 2;

/// Cycle cap per detailed run (a safety net, as in `reno-bench`).
const MAX_CYCLES: u64 = 1 << 28;

/// Set-up is a few milliseconds, so it is repeated and its median kept:
/// `SETUP_REPS` times before the first pass, and `SETUP_REPS_PER_PASS`
/// times after every pass of an untraced run, so that the median samples
/// the host across the run rather than in its first tenth of a second.
const SETUP_REPS: usize = 7;
const SETUP_REPS_PER_PASS: usize = 4;

/// Fewest passes an untraced run makes, whatever `--seconds` says, so that
/// its medians stand on at least three samples.
const MIN_PASSES: usize = 3;

/// The host-probe reading, in ms, that untraced timings are scaled to:
/// about the fastest the probe reads on the 2-vCPU VM of the baseline.
///
/// That VM shares its host, whose speed moves by up to 2x over minutes; a
/// time measured between two probe readings is multiplied by this over
/// their mean, so that a busy host stretches the probe and the pass alike
/// and the product stays put. The probe calls no repository code, so a
/// change to the program moves the scaled time as much as the raw one.
pub const PROBE_REF_MS: f64 = 50.0;

/// The factor that scales a time measured between probe readings `before`
/// and `after` to the reference host speed.
pub fn host_scale(before: f64, after: f64) -> f64 {
    2.0 * PROBE_REF_MS / (before + after)
}

/// The ladder's rung shapes, mirrored from `run_sampled_auto` so that a
/// traced run can replay the rung that answered through the public pieces.
/// A replay that disagrees with the ladder's own answer is reported as a
/// failure, so a drift here cannot go unnoticed.
const LADDER_HEAD: u64 = 16384;
const LADDER_WARMUP: u64 = 2048;
const LADDER_INTERVAL: u64 = 768;
const LADDER_DENSE_PERIOD: u64 = 12288;

/// A machine configuration label and the RENO settings it stands for.
pub type NamedConfig = (&'static str, fn() -> RenoConfig);

/// The configs of `detail_default` and of the reference rows; the ladder
/// and the sweep's anchor use the second. Both are four-wide machines.
pub const DETAIL_CONFIGS: [NamedConfig; 2] =
    [("BASE", RenoConfig::baseline), ("RENO", RenoConfig::reno)];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All 20 Default kernels x {BASE, RENO}, full detail, over `par_map`.
    DetailDefault,
    /// `run_sampled_auto` on all 20 Default kernels, RENO config, row by row.
    LadderDefault,
    /// Two `run_sweep` calls over a fresh store, sampled at the dense shape.
    DseSweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::DetailDefault, Kind::LadderDefault, Kind::DseSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DetailDefault => "detail_default",
            Kind::LadderDefault => "ladder_default",
            Kind::DseSweep => "dse_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One run's request.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Seed of the generated inputs (the `dse_sweep` grid).
    pub seed: u64,
    /// How long an untraced run measures.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
    /// The checkout root: the run reads and writes only below it.
    pub root: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs, rows and cells run.
    pub attempted: u64,
    /// One value per metric of the run's table, in table order.
    pub values: Vec<(&'static str, f64)>,
    /// Host and build facts, and per-pass timings.
    pub meta: Vec<(String, String)>,
    /// One line per failed operation: a panic, a mismatch, a segment
    /// fault, a failed or timed-out cell, or a broken check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// A run that could not start its workload: all metrics 0.
    fn broken(args: &Args, meta: Vec<(String, String)>, why: String) -> Outcome {
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        Outcome {
            attempted: 1,
            values: table.iter().map(|d| (d.name, 0.0)).collect(),
            meta,
            failures: vec![why],
        }
    }
}

/// Everything a pass needs, built by set-up.
struct Setup {
    /// The workload's kernels.
    programs: Vec<Workload>,
    /// The committed reference.
    reference: Reference,
    /// The two sweep specs (`dse_sweep` only).
    specs: Option<(SweepSpec, SweepSpec)>,
}

/// Builds the programs and loads the reference; for `dse_sweep` also
/// generates and parses both specs and opens a fresh store at `store_dir`.
fn setup(kind: Kind, seed: u64, tracer: &Tracer, store_dir: &Path) -> Result<Setup, String> {
    let programs = tracer.span("workloads.build", "default", 0, |_| {
        all_workloads(Scale::Default)
    });
    let reference = Reference::parse(REFERENCE_TSV)?;
    let specs = match kind {
        Kind::DseSweep => {
            let g = grid::grid(seed);
            let parse = |name: &str, cfgs: &[grid::GridConfig]| {
                parse_spec(&grid::spec_text(name, cfgs)).map_err(|e| e.to_string())
            };
            let first = parse(&format!("perfbench-{seed}-a"), &g.first)?;
            let second = parse(&format!("perfbench-{seed}-b"), &g.second)?;
            Store::open(store_dir).map_err(|e| format!("open store: {e}"))?;
            Some((first, second))
        }
        _ => None,
    };
    Ok(Setup {
        programs,
        reference,
        specs,
    })
}

/// The result of one pass.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    /// Host seconds of the pass's sequential parts (the whole pass, each
    /// ladder row, or each sweep); they sum to about `wall_s`.
    parts: Vec<f64>,
    insts: u64,
    attempted: u64,
    failures: Vec<String>,
    /// CPI error of each estimated row against the reference, in percent.
    errs: Vec<f64>,
}

impl Pass {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

/// Counts recorded on every `sim.run` span.
fn record_sim(tracer: &Tracer, id: SpanId, r: &SimResult) {
    for (k, v) in [
        ("cycles", r.cycles),
        ("retired", r.retired),
        ("squashed", r.stats.squashed),
        ("renamed", r.reno.renamed),
        ("eliminated", r.reno.eliminated()),
        ("l1d_misses", r.caches.1.misses()),
        ("l2_misses", r.caches.2.misses()),
        ("mshr_merges", r.hier.merges),
        ("mispredicts", r.frontend.total_wrong()),
    ] {
        tracer.attr(id, k, v as f64);
    }
}

fn detail_pass(s: &Setup, tracer: &Tracer, parent: SpanId) -> Pass {
    let jobs: Vec<(&Workload, &str, MachineConfig)> = DETAIL_CONFIGS
        .iter()
        .flat_map(|&(label, reno)| {
            s.programs
                .iter()
                .map(move |w| (w, label, MachineConfig::four_wide(reno())))
        })
        .collect();
    let t = Instant::now();
    let results = try_par_map(&jobs, |(w, label, cfg)| {
        tracer.span("sim.run", &format!("{}/{label}", w.name), parent, |id| {
            let r = Simulator::new(&w.program, cfg.clone()).run(MAX_CYCLES);
            record_sim(tracer, id, &r);
            r
        })
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        parts: vec![wall_s],
        ..Pass::default()
    };
    for ((w, label, _), r) in jobs.iter().zip(results) {
        pass.attempted += 1;
        let Some(row) = s.reference.get("default", label, w.name) else {
            pass.fail(format!("no reference row default/{label}/{}", w.name));
            continue;
        };
        match r
            .map_err(|p| format!("{}/{label}: {p}", w.name))
            .and_then(|r| {
                reference::check_detail(row, &r)?;
                Ok(r)
            }) {
            Ok(r) => {
                pass.insts += r.retired;
                pass.errs.push(reference::cpi_err_pct(
                    r.cycles as f64 / r.retired as f64,
                    row.cpi(),
                ));
            }
            Err(e) => pass.fail(e),
        }
    }
    pass
}

/// Which rung of the ladder answered a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    Sparse,
    Dense,
    Full,
}

fn rung(r: &SampledResult) -> Rung {
    if r.intervals.is_empty() && r.detailed_insts == r.total_insts {
        Rung::Full
    } else if r.period == LADDER_DENSE_PERIOD {
        Rung::Dense
    } else {
        Rung::Sparse
    }
}

fn ladder_pass(s: &Setup, tracer: &Tracer, parent: SpanId) -> (Pass, Vec<Option<SampledResult>>) {
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    let t = Instant::now();
    let mut parts = Vec::with_capacity(s.programs.len());
    let rows: Vec<(SpanId, Result<SampledResult, String>)> = s
        .programs
        .iter()
        .map(|w| {
            let row = Instant::now();
            let r = tracer.span("sample.ladder", w.name, parent, |id| {
                let r = run_caught(|| run_sampled_auto(&w.program, cfg.clone(), u64::MAX))
                    .map_err(|p| format!("{}: {p}", w.name));
                (id, r)
            });
            parts.push(row.elapsed().as_secs_f64());
            r
        })
        .collect();
    let mut pass = Pass {
        wall_s: t.elapsed().as_secs_f64(),
        parts,
        ..Pass::default()
    };
    let mut kept = Vec::new();
    for (w, (id, r)) in s.programs.iter().zip(rows) {
        pass.attempted += 1;
        let checked = r.and_then(|r| {
            let row = s
                .reference
                .get("default", "RENO", w.name)
                .ok_or_else(|| format!("no reference row default/RENO/{}", w.name))?;
            let err = reference::check_sampled(row, &r)?;
            Ok((r, err))
        });
        match checked {
            Ok((r, err)) => {
                let code = match rung(&r) {
                    Rung::Sparse => 0.0,
                    Rung::Dense => 1.0,
                    Rung::Full => 2.0,
                };
                for (k, v) in [
                    ("rung", code),
                    ("cpi_err_pct", err),
                    ("windows", r.intervals.len() as f64),
                    ("detailed_insts", r.detailed_insts as f64),
                    ("total_insts", r.total_insts as f64),
                    ("segment_faults", r.segment_faults.len() as f64),
                ] {
                    tracer.attr(id, k, v);
                }
                pass.insts += r.total_insts;
                pass.errs.push(err);
                kept.push(Some(r));
            }
            Err(e) => {
                pass.fail(e);
                kept.push(None);
            }
        }
    }
    (pass, kept)
}

/// Replays each ladder row through the public pieces of the rung that
/// answered it: the checkpoint pass and phase 2 (plus phase 2 with one
/// window, which leaves the warming fast-forward), or the full detailed
/// run for fallback rows.
fn replay_rungs(
    s: &Setup,
    rows: &[Option<SampledResult>],
    tracer: &Tracer,
    parent: SpanId,
) -> Vec<String> {
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    let mut failures = Vec::new();
    for (w, r) in s.programs.iter().zip(rows) {
        let Some(r) = r else { continue };
        match rung(r) {
            Rung::Sparse | Rung::Dense => {
                let sc = SampleConfig::new(LADDER_WARMUP, LADDER_INTERVAL, r.period)
                    .with_head(LADDER_HEAD);
                let (id, pass) = tracer.span("sample.pass", w.name, parent, |id| {
                    (id, CheckpointPass::compute(&w.program, &sc))
                });
                if pass.error.is_some() {
                    failures.push(format!("{}: checkpoint pass failed", w.name));
                    continue;
                }
                tracer.attr(id, "bytes", pass.to_bytes().len() as f64);
                let again = tracer.span("sample.phase2", w.name, parent, |_| {
                    run_sampled_with_pass(&w.program, cfg.clone(), &sc, &pass)
                });
                match again {
                    Ok(a)
                        if a.est_cycles() == r.est_cycles()
                            && a.detailed_insts == r.detailed_insts => {}
                    _ => failures.push(format!(
                        "{}: replaying the {:?} rung does not reproduce the ladder's answer",
                        w.name,
                        rung(r)
                    )),
                }
                let one = sc.with_max_intervals(1);
                let warm = tracer.span("sample.warm", w.name, parent, |_| {
                    run_sampled_with_pass(&w.program, cfg.clone(), &one, &pass)
                });
                if warm.is_err() {
                    failures.push(format!("{}: one-window phase 2 rejected the pass", w.name));
                }
            }
            Rung::Full => {
                let full = tracer.span("sim.run", &format!("{}/RENO", w.name), parent, |id| {
                    let f = Simulator::new(&w.program, cfg.clone()).run(MAX_CYCLES);
                    record_sim(tracer, id, &f);
                    f
                });
                match s.reference.get("default", "RENO", w.name) {
                    Some(row) => {
                        if let Err(e) = reference::check_detail(row, &full) {
                            failures.push(e);
                        }
                    }
                    None => failures.push(format!("no reference row default/RENO/{}", w.name)),
                }
            }
        }
    }
    failures
}

/// The printed IPC table of a sweep report: one `(workload, [ipc per
/// config])` row per kernel.
fn report_ipc(report: &str) -> Vec<(String, Vec<f64>)> {
    report
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.starts_with("amean"))
        .filter_map(|l| {
            let mut t = l.split_whitespace();
            let name = t.next()?.to_string();
            let vals: Option<Vec<f64>> = t.map(|v| v.parse().ok()).collect();
            Some((name, vals?))
        })
        .collect()
}

fn dse_pass(s: &Setup, store: &Store, tracer: &Tracer, parent: SpanId) -> Pass {
    let (first, second) = s
        .specs
        .as_ref()
        .expect("dse_sweep set-up parses both specs");
    let opts = SweepOptions::default();
    let mut parts = Vec::with_capacity(3);
    let mut sweep = |name: &str, spec: &SweepSpec| {
        let t = Instant::now();
        let out = tracer.span(name, &spec.name, parent, |id| {
            let out = run_sweep(spec, store, &opts);
            if let Ok(o) = &out {
                let st = &o.stats;
                for (k, v) in [
                    ("cells", st.cells),
                    ("computed", st.computed),
                    ("cached", st.cached),
                    ("passes_computed", st.passes_computed),
                    ("passes_cached", st.passes_cached),
                    ("store_bytes", st.store_bytes),
                    ("lock_waits", st.lock_waits),
                    ("failed", st.failed),
                    ("timeouts", st.timeouts),
                ] {
                    tracer.attr(id, k, v as f64);
                }
            }
            out
        });
        parts.push(t.elapsed().as_secs_f64());
        out
    };
    let t = Instant::now();
    let outs = [
        sweep("dse.sweep1", first),
        sweep("dse.sweep2", second),
        sweep("dse.rerun", second),
    ];
    let mut pass = Pass {
        wall_s: t.elapsed().as_secs_f64(),
        parts,
        ..Pass::default()
    };
    let kernels = s.programs.len() as u64;
    let outs: Vec<_> = match outs.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(o) => o,
        Err(e) => {
            pass.attempted = kernels * (first.configs.len() + second.configs.len()) as u64;
            pass.fail(format!("run_sweep: {e}"));
            return pass;
        }
    };
    let (o1, o2, o3) = (&outs[0], &outs[1], &outs[2]);
    pass.attempted = o1.stats.cells + o2.stats.cells;
    for o in [o1, o2] {
        for _ in 0..o.stats.failed + o.stats.timeouts {
            pass.fail(format!(
                "{}: a cell failed or timed out",
                o.report.lines().next().unwrap_or("")
            ));
        }
        if o.report.contains("WARNING") || o.report.contains("failed cells") {
            pass.fail(format!("sweep report flags a problem:\n{}", o.report));
        }
    }
    let (n1, n2) = (first.configs.len() as u64, second.configs.len() as u64);
    let expect = [
        (o1.stats.cells, kernels * n1),
        (o1.stats.computed, kernels * n1),
        (o1.stats.passes_computed, kernels),
        (o2.stats.cells, kernels * n2),
        (o2.stats.cached, kernels * n1),
        (o2.stats.computed, kernels * (n2 - n1)),
        (o2.stats.passes_cached, kernels),
        (o3.stats.cached, kernels * n2),
        (o3.stats.computed, 0),
    ];
    if expect.iter().any(|(got, want)| got != want) {
        pass.fail(format!(
            "sweep traffic differs from the plan: {:?} / {:?} / {:?}",
            o1.stats, o2.stats, o3.stats
        ));
    }
    if o3.report != o2.report {
        pass.fail("the fully cached re-run's report differs from the second sweep's".into());
    }
    // Accuracy of the anchor column (the paper's RENO machine) as the
    // report prints it, against the committed full-detail CPI.
    let table = report_ipc(&o2.report);
    if table.len() as u64 != kernels {
        pass.fail(format!(
            "report has {} IPC rows, expected {kernels}",
            table.len()
        ));
    }
    let computed_per_kernel = (o1.stats.computed + o2.stats.computed) / kernels.max(1);
    for (name, ipcs) in &table {
        match (
            s.reference.get("default", grid::ANCHOR.0, name),
            ipcs.first(),
        ) {
            (Some(row), Some(&ipc)) if ipc > 0.0 => {
                pass.errs.push(reference::cpi_err_pct(1.0 / ipc, row.cpi()));
                pass.insts += row.retired * computed_per_kernel;
            }
            _ => pass.fail(format!("{name}: no anchor IPC or reference row")),
        }
    }
    pass
}

/// Every committed object of a store: `(kind, key, payload)`.
fn store_objects(root: &Path) -> Vec<(EntryKind, u64, Vec<u8>)> {
    let mut objs = Vec::new();
    let Ok(shards) = std::fs::read_dir(root.join("objects")) else {
        return objs;
    };
    let mut paths: Vec<PathBuf> = shards
        .flatten()
        .filter_map(|d| std::fs::read_dir(d.path()).ok())
        .flat_map(|e| e.flatten().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    paths.sort();
    for p in paths {
        let Some(key) = p
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let Ok(bytes) = std::fs::read(&p) else {
            continue;
        };
        for kind in [EntryKind::Cell, EntryKind::Pass] {
            if let Ok(payload) = decode_entry(&bytes, kind, key) {
                objs.push((kind, key, payload));
                break;
            }
        }
    }
    objs
}

/// Replays a sweep's objects through `Store::put` and `Store::get` on a
/// fresh store, timing store I/O on its own.
fn replay_store(from: &Path, to: &Path, tracer: &Tracer, parent: SpanId) -> Vec<String> {
    let objs = store_objects(from);
    let mut failures = Vec::new();
    let store = match Store::open(to) {
        Ok(s) => s,
        Err(e) => return vec![format!("open replay store: {e}")],
    };
    let label = format!("{} objects", objs.len());
    let puts = tracer.span("dse.store_put", &label, parent, |_| {
        objs.iter()
            .filter(|(kind, key, payload)| store.put(*kind, *key, payload))
            .count()
    });
    let gets = tracer.span("dse.store_get", &label, parent, |_| {
        objs.iter()
            .filter(|(kind, key, payload)| store.get(*kind, *key).as_ref() == Some(payload))
            .count()
    });
    if objs.is_empty() || puts != objs.len() || gets != objs.len() {
        failures.push(format!(
            "store replay: {} objects, {puts} put, {gets} read back",
            objs.len()
        ));
    }
    failures
}

/// The bare functional engine on every kernel: `Cpu::run_decoded` to halt.
fn func_runs(s: &Setup, tracer: &Tracer, parent: SpanId) {
    for w in &s.programs {
        tracer.span("func.run", w.name, parent, |id| {
            let mut cpu = Cpu::new(&w.program);
            let mut dp = DecodedProgram::new(&w.program);
            let n = match cpu.run_decoded(&mut dp, u64::MAX) {
                Ok(r) => r.executed,
                Err(_) => cpu.executed(),
            };
            tracer.attr(id, "insts", n as f64);
        });
    }
}

fn set_workers(n: usize) {
    // Only ever called while no other thread of this process runs.
    std::env::set_var("RENO_THREADS", n.to_string());
}

/// One pass of `kind`, with a fresh store for `dse_sweep` (opened before
/// the pass's clock starts and removed after it).
fn one_pass(
    kind: Kind,
    s: &Setup,
    work: &Path,
    n: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> (Pass, Vec<Option<SampledResult>>) {
    match kind {
        Kind::DetailDefault => (detail_pass(s, tracer, parent), Vec::new()),
        Kind::LadderDefault => ladder_pass(s, tracer, parent),
        Kind::DseSweep => {
            let dir = work.join(format!("store-{n}"));
            let pass = match Store::open(&dir) {
                Ok(store) => dse_pass(s, &store, tracer, parent),
                Err(e) => {
                    let mut p = Pass::default();
                    p.fail(format!("open store: {e}"));
                    p
                }
            };
            (pass, Vec::new())
        }
    }
}

/// Runs one benchmark invocation.
pub fn run(args: &Args) -> Outcome {
    set_workers(WORKERS);
    let work = args
        .root
        .join(".perfbench")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), args.kind.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("workers".into(), WORKERS.to_string()),
        ("host_cores".into(), host::host_cores().to_string()),
        (
            "git_rev".into(),
            host::git_rev(&args.root).unwrap_or_else(|| "none (not a git checkout)".into()),
        ),
        (
            "src_digest".into(),
            format!("{:016x}", host::src_digest(&args.root)),
        ),
        ("rustc".into(), host::RUSTC.into()),
        ("profile".into(), host::PROFILE.into()),
    ];
    if args.kind == Kind::DseSweep {
        let g = grid::grid(args.seed);
        let cfgs: Vec<String> = g
            .second
            .iter()
            .map(|c| format!("{}={}", c.label, c.args))
            .collect();
        meta.push(("grid".into(), cfgs.join(", ")));
    }
    if let Err(e) = std::fs::create_dir_all(&work) {
        return Outcome::broken(args, meta, format!("create {}: {e}", work.display()));
    }

    let tracer = Tracer::new(args.trace);
    let mut setup_times = Vec::new();
    let s = match timed_setups(args, &tracer, &work, SETUP_REPS, &mut setup_times) {
        Ok(s) => s,
        Err(e) => return Outcome::broken(args, meta, format!("set-up: {e}")),
    };

    // Host-speed readings: after set-up and after every untraced pass (or
    // after the whole traced schedule).
    let mut probes = vec![host::host_probe_ms(WORKERS)];
    let mut out = if args.trace {
        let out = traced(args, &s, &tracer, &work, &mut meta);
        probes.push(host::host_probe_ms(WORKERS));
        out
    } else {
        untraced(args, s, &work, &mut setup_times, &mut probes, &mut meta)
    };
    meta.push(("setup_s_reps".into(), join_fixed(&setup_times, 6)));
    meta.push(("host_probe_ms".into(), join_fixed(&probes, 2)));
    if let Err(e) = std::fs::remove_dir_all(&work) {
        out.failures.push(format!("remove {}: {e}", work.display()));
    }
    out.meta = meta;
    out
}

/// Runs set-up `reps` times, appending each duration to `times`, and
/// returns the last set-up. Each repetition opens its store (`dse_sweep`)
/// in a directory of its own under `work`; they are removed afterwards.
fn timed_setups(
    args: &Args,
    tracer: &Tracer,
    work: &Path,
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<Setup, String> {
    let dir = work.join("setup");
    let mut built = None;
    for rep in 0..reps {
        // Free the previous repetition first, so that every repetition
        // starts from the same heap state.
        drop(built.take());
        let t = Instant::now();
        let s = setup(args.kind, args.seed, tracer, &dir.join(rep.to_string()));
        times.push(t.elapsed().as_secs_f64());
        built = Some(s?);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(built.expect("at least one repetition"))
}

/// `v` with `digits` decimals, comma-separated.
fn join_fixed(v: &[f64], digits: usize) -> String {
    v.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Each sequential part's median across passes, summed, with pass `i`'s
/// parts multiplied by `scales[i]`. A host stall that spans the end of one
/// pass and the start of the next then costs no part more than one of its
/// samples.
fn summed_part_medians(passes: &[Pass], scales: &[f64]) -> f64 {
    (0..passes[0].parts.len())
        .map(|i| {
            let samples: Vec<f64> = passes
                .iter()
                .zip(scales)
                .filter_map(|(p, k)| p.parts.get(i).map(|t| t * k))
                .collect();
            median(&samples)
        })
        .sum()
}

/// The measuring loop. `probes` holds the reading taken after set-up; one
/// more is taken after every pass, so that each pass lies between two
/// readings and is scaled by [`host_scale`] of them. `setup_times` holds
/// the first set-ups; more follow every pass, so that `setup_s` samples the
/// host across the whole run as `wall_s` does. Set-up is not scaled: it
/// takes milliseconds on one thread, so a reading of both cores, taken
/// around it, does not tell how fast it ran.
fn untraced(
    args: &Args,
    mut s: Setup,
    work: &Path,
    setup_times: &mut Vec<f64>,
    probes: &mut Vec<f64>,
    meta: &mut Vec<(String, String)>,
) -> Outcome {
    let off = Tracer::new(false);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_failures = Vec::new();
    loop {
        let (pass, _) = one_pass(args.kind, &s, work, passes.len(), &off, 0);
        let _ = std::fs::remove_dir_all(work.join(format!("store-{}", passes.len())));
        passes.push(pass);
        probes.push(host::host_probe_ms(WORKERS));
        // The new set-ups replace the one the pass used, so that no two are
        // held at once and peak memory stays the workload's.
        drop(s);
        s = match timed_setups(args, &off, work, SETUP_REPS_PER_PASS, setup_times) {
            Ok(next) => next,
            Err(e) => {
                setup_failures.push(format!("set-up: {e}"));
                break;
            }
        };
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        if passes.len() >= MIN_PASSES
            && start.elapsed().as_secs_f64() + median(&walls) > args.seconds
        {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Pass i ran between readings i and i + 1.
    let scales: Vec<f64> = probes.windows(2).map(|w| host_scale(w[0], w[1])).collect();
    let wall_s = summed_part_medians(&passes, &scales);
    let raw_wall_s = summed_part_medians(&passes, &vec![1.0; passes.len()]);
    let setup_s = median(setup_times);
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    failures.extend(setup_failures);
    // Estimates are deterministic: every pass must give the same errors.
    if passes.iter().any(|p| p.errs != passes[0].errs) {
        failures.push("CPI estimates differ between passes of one run".into());
    }
    let errs = &passes[0].errs;
    let (err_max, err_mean) = if errs.is_empty() {
        failures.push("no row produced a CPI".into());
        (0.0, 0.0)
    } else {
        (
            errs.iter().cloned().fold(0.0, f64::max),
            errs.iter().sum::<f64>() / errs.len() as f64,
        )
    };
    meta.push(("passes".into(), passes.len().to_string()));
    meta.push(("wall_s_passes".into(), join_fixed(&walls, 4)));
    meta.push(("host_scale_passes".into(), join_fixed(&scales, 4)));
    meta.push(("wall_s_raw".into(), format!("{raw_wall_s:.4}")));
    Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        values: vec![
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            (
                "sim_minst_per_s",
                ratio(passes[0].insts as f64 / 1e6, wall_s),
            ),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("cpi_acc_min_pct", 100.0 - err_max),
            ("cpi_acc_mean_pct", 100.0 - err_mean),
        ],
        meta: Vec::new(),
        failures,
    }
}

/// The traced schedule: an untraced pass, a traced pass, another untraced
/// pass (their difference is the tracing overhead), a one-worker pass (the
/// parallel scaling), then the per-layer calls of the workload.
fn traced(
    args: &Args,
    s: &Setup,
    tracer: &Tracer,
    work: &Path,
    meta: &mut Vec<(String, String)>,
) -> Outcome {
    let off = Tracer::new(false);
    let mut passes = Vec::new();
    let mut rows = Vec::new();
    for (n, (name, inner)) in [
        ("trace.untraced_pass", &off),
        ("pass", tracer),
        ("trace.untraced_pass", &off),
        ("par.pass_1w", &off),
    ]
    .into_iter()
    .enumerate()
    {
        if name == "par.pass_1w" {
            set_workers(1);
        }
        let (pass, r) = tracer.span(name, args.kind.name(), 0, |id| {
            one_pass(args.kind, s, work, n, inner, id)
        });
        set_workers(WORKERS);
        if name == "pass" {
            rows = r;
        } else {
            let _ = std::fs::remove_dir_all(work.join(format!("store-{n}")));
        }
        passes.push(pass);
    }
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let attempted = passes.iter().map(|p| p.attempted).sum();

    tracer.span("layers", args.kind.name(), 0, |id| {
        match args.kind {
            Kind::LadderDefault => failures.extend(replay_rungs(s, &rows, tracer, id)),
            // The traced pass (number 1) left its store behind for this.
            Kind::DseSweep => failures.extend(replay_store(
                &work.join("store-1"),
                &work.join("store-replay"),
                tracer,
                id,
            )),
            Kind::DetailDefault => {}
        }
        func_runs(s, tracer, id);
    });

    let path = args.root.join(".perfbench").join(format!(
        "trace-{}-seed{}.tsv",
        args.kind.name(),
        args.seed
    ));
    let loaded = tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
        .and_then(|_| spans::load(&path));
    let spans = match loaded {
        Ok(s) => s,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    if let Err(e) = spans::check_nesting(&spans) {
        failures.push(e);
    }
    meta.push(("trace_file".into(), path.display().to_string()));
    let top: Vec<String> = spans::self_time_by_name(&spans)
        .iter()
        .take(12)
        .map(|(n, t)| format!("{n}={t:.3}s"))
        .collect();
    meta.push(("self_time_top".into(), top.join(" ")));
    Outcome {
        attempted,
        values: per_layer(&spans),
        meta: Vec::new(),
        failures,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives every per-layer metric from a span file's contents.
pub fn per_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let q = Spans(spans);
    let one = |name: &str| q.total_secs(name);
    let untraced: Vec<f64> = q.named("trace.untraced_pass").map(Span::secs).collect();
    let untraced = ratio(untraced.iter().sum(), untraced.len() as f64);
    let traced = one("pass");
    let traced_id = q.named("pass").next().map_or(0, |s| s.id);

    let builds: Vec<f64> = q.named("workloads.build").map(Span::secs).collect();
    let func_s = one("func.run");

    let sim_s = one("sim.run");
    let sim = |k: &str| q.sum_attr("sim.run", k);
    let reno_runs: Vec<&Span> = q
        .named("sim.run")
        .filter(|s| s.label.ends_with("/RENO"))
        .collect();
    let renamed: f64 = reno_runs.iter().filter_map(|s| s.attr("renamed")).sum();
    let eliminated: f64 = reno_runs.iter().filter_map(|s| s.attr("eliminated")).sum();
    let speedups: Vec<f64> = reno_runs
        .iter()
        .filter_map(|r| {
            let kernel = r.label.strip_suffix("/RENO")?;
            let base = q
                .named("sim.run")
                .find(|b| b.label == format!("{kernel}/BASE"))?;
            Some((base.attr("cycles")? / r.attr("cycles")? - 1.0) * 100.0)
        })
        .collect();
    let job_busy: f64 = q
        .named("sim.run")
        .filter(|s| s.parent == traced_id)
        .map(Span::secs)
        .sum();

    let ladder = one("sample.ladder");
    let pass_s = one("sample.pass");
    let phase2 = one("sample.phase2");
    let warm = one("sample.warm");
    let rows: Vec<&Span> = q.named("sample.ladder").collect();
    // On the ladder workload, detailed runs happen only on fallback rows.
    let fallback = if rows.is_empty() { 0.0 } else { sim_s };
    let rung_count =
        |code: f64| rows.iter().filter(|s| s.attr("rung") == Some(code)).count() as f64;
    let fallback_ratio_max = rows
        .iter()
        .filter(|s| s.attr("rung") == Some(2.0))
        .filter_map(|s| {
            let full = q
                .named("sim.run")
                .find(|f| f.label == format!("{}/RENO", s.label))?;
            Some(ratio(s.secs(), full.secs()))
        })
        .fold(0.0, f64::max);
    let errs: Vec<f64> = rows.iter().filter_map(|s| s.attr("cpi_err_pct")).collect();
    let detailed = q.sum_attr("sample.ladder", "detailed_insts");
    let total = q.sum_attr("sample.ladder", "total_insts");

    let dse_sweeps = |k: &str| q.sum_attr("dse.sweep1", k) + q.sum_attr("dse.sweep2", k);
    let mb = |bytes: f64| bytes / (1024.0 * 1024.0);

    vec![
        ("workloads.build_s", median(&builds)),
        ("func.run_s", func_s),
        (
            "func.minst_per_s",
            ratio(q.sum_attr("func.run", "insts") / 1e6, func_s),
        ),
        ("sim.run_s", sim_s),
        ("sim.ns_per_inst", ratio(sim_s * 1e9, sim("retired"))),
        ("sim.cycles", sim("cycles")),
        ("sim.ipc", ratio(sim("retired"), sim("cycles"))),
        (
            "sim.reno_speedup_pct",
            ratio(speedups.iter().sum(), speedups.len() as f64),
        ),
        ("sim.squashed", sim("squashed")),
        ("core.elim_pct", ratio(eliminated * 100.0, renamed)),
        ("mem.l1d_misses", sim("l1d_misses")),
        ("mem.l2_misses", sim("l2_misses")),
        ("mem.mshr_merges", sim("mshr_merges")),
        ("uarch.mispredicts", sim("mispredicts")),
        ("par.workers", WORKERS as f64),
        ("par.efficiency", ratio(job_busy, WORKERS as f64 * traced)),
        ("par.scaling", ratio(one("par.pass_1w"), untraced)),
        ("sample.ladder_s", ladder),
        ("sample.pass_s", pass_s),
        ("sample.pass_mb", mb(q.sum_attr("sample.pass", "bytes"))),
        ("sample.phase2_s", phase2),
        ("sample.warm_s", warm),
        ("sample.windows_s", phase2 - warm),
        ("sample.fallback_full_s", fallback),
        (
            "sample.rework_s",
            if rows.is_empty() {
                0.0
            } else {
                ladder - pass_s - phase2 - fallback
            },
        ),
        ("sample.fallback_ratio_max", fallback_ratio_max),
        ("sample.rows_sparse", rung_count(0.0)),
        ("sample.rows_dense", rung_count(1.0)),
        ("sample.rows_full", rung_count(2.0)),
        ("sample.detail_pct", ratio(detailed * 100.0, total)),
        ("sample.windows", q.sum_attr("sample.ladder", "windows")),
        (
            "sample.segment_faults",
            q.sum_attr("sample.ladder", "segment_faults"),
        ),
        (
            "sample.cpi_err_max_pct",
            errs.iter().cloned().fold(0.0, f64::max),
        ),
        (
            "sample.cpi_err_mean_pct",
            ratio(errs.iter().sum(), errs.len() as f64),
        ),
        ("dse.sweep1_s", one("dse.sweep1")),
        ("dse.sweep2_s", one("dse.sweep2")),
        ("dse.rerun_s", one("dse.rerun")),
        ("dse.store_put_s", one("dse.store_put")),
        ("dse.store_get_s", one("dse.store_get")),
        ("dse.cells", dse_sweeps("cells")),
        ("dse.computed", dse_sweeps("computed")),
        ("dse.cached", dse_sweeps("cached")),
        ("dse.passes_computed", dse_sweeps("passes_computed")),
        ("dse.passes_cached", dse_sweeps("passes_cached")),
        ("dse.store_mb", mb(q.sum_attr("dse.sweep2", "store_bytes"))),
        ("dse.lock_waits", dse_sweeps("lock_waits")),
        ("dse.failed", dse_sweeps("failed")),
        ("dse.timeouts", dse_sweeps("timeouts")),
        (
            "trace.overhead_pct",
            (ratio(traced, untraced) - 1.0) * 100.0,
        ),
    ]
}
