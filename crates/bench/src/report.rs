//! The repo-root `BENCH_sim.json` perf trajectory: recording `perfbench`
//! runs into it, validating it, and the noise-aware regression gate.
//!
//! ## File layout (schema v3)
//!
//! ```text
//! {"schema":"reno-bench-trajectory-v3",
//! "archive":[
//! {...frozen entry...},
//! {...frozen entry...}
//! ],
//! "entries":[
//! {"label":"pre-X","timestamp_unix":...,"meta":{...},"result":{...}}
//! ,{"label":"X","timestamp_unix":...,"meta":{...},"result":{...}}
//! ]}
//! ```
//!
//! One JSON document, one item per line. `archive` holds an older
//! benchmark's entries byte-for-byte; their metric is no longer produced,
//! so they are history and never gated. Each `entries` line is one
//! untraced `perfbench` run as [`record`] appended it: the label, the Unix
//! time of recording, and the run's `# meta` and result objects unchanged.
//! Every entry after the first starts with its `,` separator, so an append
//! never rewrites an existing line.
//!
//! [`check`] forms measurement windows: the `pre-X` and `X` runs of one
//! workload on one host shape (`host_cores`, `workers`, `rustc`), all
//! recorded within [`WINDOW_SECS`]. In a window, an end-to-end metric of
//! `BENCHMARK.json` fails when the `X` median is worse, in that file's
//! direction, than the `pre-X` median by more than the larger of the two
//! sides' quartile spreads (interquartile range over median) plus
//! [`NOISE_FLOOR`]; a side with fewer than [`MIN_RUNS`] runs fails too.

use reno_trace::{parse_json, Value};
use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The committed trajectory file at the repository root.
const DEFAULT_BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// The benchmark declaration whose `end_to_end` list names the gated
/// metrics and their directions.
const BENCHMARK_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// The trajectory file `bench_report` reads and `--record` appends to:
/// `RENO_BENCH_PATH` when set, otherwise the committed `BENCH_sim.json` at
/// the repository root.
pub fn bench_path() -> PathBuf {
    bench_path_from(std::env::var_os("RENO_BENCH_PATH"))
}

/// [`bench_path`] for a given `RENO_BENCH_PATH` value (`None` or empty:
/// unset).
fn bench_path_from(v: Option<OsString>) -> PathBuf {
    match v {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from(DEFAULT_BENCH_PATH),
    }
}

/// Extra slack over the measured noise before a worse median counts as a
/// regression (relative, i.e. `0.02` = two percentage points).
pub const NOISE_FLOOR: f64 = 0.02;

/// Largest gap between the first and last run of a window, in seconds.
pub const WINDOW_SECS: u64 = 3600;

/// Fewest runs a window side needs for its quartiles to mean anything.
pub const MIN_RUNS: usize = 5;

/// The first line of a v3 file.
pub const SCHEMA_LINE: &str = "{\"schema\":\"reno-bench-trajectory-v3\",";

/// A v3 file with an empty archive and no entries: what [`record`] starts
/// from when the trajectory file does not exist yet.
pub const EMPTY_FILE: &str =
    "{\"schema\":\"reno-bench-trajectory-v3\",\n\"archive\":[\n],\n\"entries\":[\n]}\n";

/// One gated end-to-end metric, as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    /// `"better": "higher"` (otherwise `"lower"`).
    pub higher_is_better: bool,
}

/// Reads the `end_to_end` metric list of `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON, a missing or empty list, or an entry without a name or
/// with a `better` other than `lower`/`higher`.
pub fn parse_metrics(benchmark_json: &str) -> Result<Vec<Metric>, String> {
    let doc = parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no 'end_to_end' list".into());
    };
    let metrics = list
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .filter(|n| !n.is_empty());
            let better = m.get("better").and_then(Value::as_str);
            match (name, better) {
                (Some(name), Some(b @ ("lower" | "higher"))) => Ok(Metric {
                    name: name.to_string(),
                    higher_is_better: b == "higher",
                }),
                _ => Err(format!("BENCHMARK.json: bad end_to_end entry {m:?}")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    if metrics.is_empty() {
        return Err("BENCHMARK.json: empty 'end_to_end' list".into());
    }
    Ok(metrics)
}

/// The end-to-end metrics of the repository's `BENCHMARK.json`.
///
/// # Errors
///
/// The file cannot be read, or [`parse_metrics`] rejects it.
pub fn benchmark_metrics() -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(BENCHMARK_PATH)
        .map_err(|e| format!("cannot read {BENCHMARK_PATH}: {e}"))?;
    parse_metrics(&text)
}

/// One recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub label: String,
    pub timestamp_unix: u64,
    pub workload: String,
    /// `(host_cores, workers, rustc)`: runs pair only on equal shapes.
    pub shape: (String, String, String),
    /// One value per gated metric, in [`Trajectory::metrics`] order.
    pub values: Vec<f64>,
}

/// A validated trajectory file.
#[derive(Clone, Debug)]
pub struct Trajectory {
    pub metrics: Vec<Metric>,
    /// Labels of the frozen archive entries, file order.
    pub archive: Vec<String>,
    /// Recorded runs, file order.
    pub runs: Vec<Run>,
}

/// Labels are written into JSON unescaped, so they keep to a plain set.
fn check_label(label: &str) -> Result<(), String> {
    let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
    match label {
        "" => Err("empty label".into()),
        _ if label.chars().all(plain) => Ok(()),
        _ => Err(format!(
            "label {label:?} may hold only ASCII letters, digits, '-_.'"
        )),
    }
}

/// Checks one run's `# meta` and result objects and extracts what the
/// gate reads. The same rules hold for `--record` and for every entry of
/// the file: an untraced, correct run with every end-to-end metric.
fn parse_run(
    label: &str,
    timestamp_unix: u64,
    meta: &Value,
    result: &Value,
    metrics: &[Metric],
) -> Result<Run, String> {
    let field = |key: &str| {
        meta.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("meta lacks string '{key}'"))
    };
    let trace = field("trace")?;
    if trace != "0" {
        return Err(format!(
            "a traced run (trace {trace:?}) times the tracer too; record --trace 0 runs only"
        ));
    }
    if !matches!(result.get("correct"), Some(Value::Bool(true))) {
        return Err("the run is not correct (\"correct\" is not true)".into());
    }
    let failed = result
        .get("failed")
        .and_then(Value::as_f64)
        .ok_or("result lacks numeric 'failed'")?;
    if failed != 0.0 {
        return Err(format!("the run has {failed} failed operations"));
    }
    let values = metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|table| table.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .filter(|v| v.is_finite())
                .ok_or(format!("result lacks end-to-end metric '{}'", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Run {
        label: label.to_string(),
        timestamp_unix,
        workload: field("workload")?,
        shape: (field("host_cores")?, field("workers")?, field("rustc")?),
        values,
    })
}

/// Parses one `entries` line (without its separator).
fn parse_entry(line: &str, metrics: &[Metric]) -> Result<Run, String> {
    let v = parse_json(line)?;
    let Value::Obj(fields) = &v else {
        return Err("not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["label", "timestamp_unix", "meta", "result"] {
        return Err(format!(
            "keys {keys:?}, expected [\"label\", \"timestamp_unix\", \"meta\", \"result\"]"
        ));
    }
    let label = v
        .get("label")
        .and_then(Value::as_str)
        .ok_or("'label' is not a string")?;
    check_label(label)?;
    let ts = v
        .get("timestamp_unix")
        .and_then(Value::as_f64)
        .filter(|t| *t >= 0.0 && t.fract() == 0.0 && *t < 1e15)
        .ok_or("'timestamp_unix' is not a whole number of seconds")?;
    let (meta, result) = (&fields[2].1, &fields[3].1);
    parse_run(label, ts as u64, meta, result, metrics).map_err(|e| format!("{label}: {e}"))
}

/// Validates the whole `BENCH_sim.json` text against the gated `metrics`
/// and returns its archive labels and runs, or the first violation.
///
/// # Errors
///
/// A description of the first line that breaks the layout or the rules.
pub fn validate(text: &str, metrics: &[Metric]) -> Result<Trajectory, String> {
    let mut lines = text.lines();
    for (want, what) in [
        (SCHEMA_LINE, "schema header"),
        ("\"archive\":[", "archive opener"),
    ] {
        if lines.next() != Some(want) {
            return Err(format!("bad {what} line (expected {want:?})"));
        }
    }
    let mut archived = Vec::new();
    loop {
        match lines.next() {
            None => return Err("missing archive closer".into()),
            Some("],") => break,
            Some(l) => archived.push(l),
        }
    }
    // Frozen items of an older schema: each must be an object with a label.
    let archive = match parse_json(&format!("[{}]", archived.join("\n"))) {
        Ok(Value::Arr(items)) => items
            .iter()
            .map(|v| {
                v.get("label")
                    .and_then(Value::as_str)
                    .filter(|l| !l.is_empty())
            })
            .map(|l| l.map(str::to_string).ok_or("archive: an item has no label"))
            .collect::<Result<Vec<_>, _>>()?,
        Ok(_) => unreachable!("a bracketed list parses as an array"),
        Err(e) => return Err(format!("archive: {e}")),
    };
    if lines.next() != Some("\"entries\":[") {
        return Err("bad entries opener line".into());
    }
    let mut runs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    loop {
        let Some(line) = lines.next() else {
            return Err("missing footer".into());
        };
        if line == "]}" {
            break;
        }
        let i = runs.len();
        let body = match (line.strip_prefix(','), i) {
            (None, 0) => line,
            (Some(b), 1..) => b,
            (Some(_), 0) => return Err("entry 0: ',' before the first entry".into()),
            (None, _) => return Err(format!("entry {i}: missing leading ',' separator")),
        };
        if !seen.insert(body) {
            return Err(format!("entry {i}: duplicate entry"));
        }
        runs.push(parse_entry(body, metrics).map_err(|e| format!("entry {i}: {e}"))?);
    }
    if lines.next().is_some() {
        return Err("content after the footer".into());
    }
    Ok(Trajectory {
        metrics: metrics.to_vec(),
        archive,
        runs,
    })
}

/// Appends the run `stdout` holds (one `perfbench` invocation's `# meta`
/// line and result line, stored unchanged) to the trajectory `existing`
/// (`None`: a new file) and returns the new text.
///
/// # Errors
///
/// A bad label, other input than those two lines, malformed JSON, a run
/// [`validate`] would refuse, or an `existing` text that does not validate.
pub fn record(
    existing: Option<&str>,
    label: &str,
    stdout: &str,
    timestamp_unix: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    check_label(label)?;
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let [meta_line, result_line] = lines.as_slice() else {
        return Err(format!(
            "expected a '# meta' line and a result line, got {} non-empty line(s)",
            lines.len()
        ));
    };
    let meta_text = meta_line
        .strip_prefix("# meta ")
        .ok_or("the first line is not a '# meta {...}' line")?;
    let meta = parse_json(meta_text).map_err(|e| format!("meta line: {e}"))?;
    let result = parse_json(result_line).map_err(|e| format!("result line: {e}"))?;
    parse_run(label, timestamp_unix, &meta, &result, metrics)?;

    let existing = existing.unwrap_or(EMPTY_FILE);
    let old = validate(existing, metrics).map_err(|e| format!("existing file: {e}"))?;
    let body = existing
        .strip_suffix("\n]}\n")
        .or_else(|| existing.strip_suffix("\n]}"))
        .ok_or("existing file does not end with its footer")?;
    let sep = if old.runs.is_empty() { "" } else { "," };
    Ok(format!(
        "{body}\n{sep}{{\"label\":\"{label}\",\"timestamp_unix\":{timestamp_unix},\
         \"meta\":{meta_text},\"result\":{result_line}}}\n]}}\n"
    ))
}

/// The `q`-quantile of sorted `v` by linear interpolation (`v` nonempty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let h = q * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Median and relative quartile spread (interquartile range over median)
/// of one window side's values (`vals` nonempty).
fn median_spread(mut vals: Vec<f64>) -> (f64, f64) {
    vals.sort_by(f64::total_cmp);
    let med = quantile(&vals, 0.5);
    (med, (quantile(&vals, 0.75) - quantile(&vals, 0.25)) / med)
}

/// One metric's comparison inside a window.
#[derive(Clone, Debug)]
pub struct MetricVerdict {
    pub name: String,
    pub higher_is_better: bool,
    pub pre_median: f64,
    pub pre_spread: f64,
    pub post_median: f64,
    pub post_spread: f64,
    /// Relative median change, `post / pre - 1`.
    pub change: f64,
    /// Relative worsening allowed: larger spread plus [`NOISE_FLOOR`].
    pub allowed: f64,
    pub worse: bool,
}

/// The verdict for one measurement window.
#[derive(Clone, Debug)]
pub struct Window {
    /// The post-side label (`X` of `pre-X`/`X`).
    pub label: String,
    pub workload: String,
    pub shape: (String, String, String),
    pub pre_runs: usize,
    pub post_runs: usize,
    /// Seconds between the window's first and last run.
    pub span_secs: u64,
    pub metrics: Vec<MetricVerdict>,
}

impl Window {
    /// Both sides have [`MIN_RUNS`] runs and no metric got worse.
    pub fn pass(&self) -> bool {
        self.pre_runs >= MIN_RUNS
            && self.post_runs >= MIN_RUNS
            && self.metrics.iter().all(|m| !m.worse)
    }
}

/// Forms every measurement window of the trajectory and applies the gate
/// to each, in order of each window's first post-side run.
pub fn check(t: &Trajectory) -> Vec<Window> {
    let mut windows = Vec::new();
    for post in &t.runs {
        let side = |label: &str| -> Vec<&Run> {
            let same = |r: &&Run| r.workload == post.workload && r.shape == post.shape;
            t.runs
                .iter()
                .filter(|r| r.label == label && same(r))
                .collect()
        };
        let (pre, posts) = (side(&format!("pre-{}", post.label)), side(&post.label));
        let stamps = pre.iter().chain(&posts).map(|r| r.timestamp_unix);
        let span_secs = stamps.clone().max().unwrap_or(0) - stamps.min().unwrap_or(0);
        // A window is formed once, at its first post-side run.
        if !std::ptr::eq(posts[0], post) || pre.is_empty() || span_secs > WINDOW_SECS {
            continue;
        }
        let metrics = t.metrics.iter().enumerate().map(|(i, m)| {
            let side_values = |runs: &[&Run]| runs.iter().map(|r| r.values[i]).collect();
            let (pre_median, pre_spread) = median_spread(side_values(&pre));
            let (post_median, post_spread) = median_spread(side_values(&posts));
            let change = (post_median - pre_median) / pre_median;
            let allowed = pre_spread.max(post_spread) + NOISE_FLOOR;
            MetricVerdict {
                name: m.name.clone(),
                higher_is_better: m.higher_is_better,
                pre_median,
                pre_spread,
                post_median,
                post_spread,
                change,
                allowed,
                worse: if m.higher_is_better { -change } else { change } > allowed,
            }
        });
        windows.push(Window {
            label: post.label.clone(),
            workload: post.workload.clone(),
            shape: post.shape.clone(),
            pre_runs: pre.len(),
            post_runs: posts.len(),
            span_secs,
            metrics: metrics.collect(),
        });
    }
    windows
}

/// The column heads of a window's table in [`render`].
const HEADER: &str = "  metric             better   pre median   spread  post median   spread   \
                      change  allowed  verdict";

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Renders the trajectory's size and then every window: per metric, both
/// sides' medians and quartile spreads, the change, the allowance and the
/// verdict.
pub fn render(t: &Trajectory, windows: &[Window]) -> String {
    let (archived, runs) = (t.archive.len(), t.runs.len());
    let mut out = format!(
        "{archived} archived entries (an earlier benchmark's metric; not gated), \
         {runs} recorded runs\n\n"
    );
    if windows.is_empty() {
        out.push_str("no measurement windows to gate\n");
    }
    for w in windows {
        let (label, workload, (cores, workers, rustc)) = (&w.label, &w.workload, &w.shape);
        let (pre_runs, post_runs, span) = (w.pre_runs, w.post_runs, w.span_secs);
        let _ = writeln!(
            out,
            "window {label} / {workload}: {pre_runs} pre-{label} vs {post_runs} {label} runs \
             within {span} s (host_cores {cores}, workers {workers}, {rustc})\n{HEADER}"
        );
        for m in &w.metrics {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let _ = writeln!(
                out,
                "  {:<18} {better:>6} {:>12.4} {:>8} {:>12.4} {:>8} {:>8} {:>8}  {}",
                m.name,
                m.pre_median,
                pct(m.pre_spread),
                m.post_median,
                pct(m.post_spread),
                format!("{:+.1}%", m.change * 100.0),
                pct(m.allowed),
                if m.worse { "WORSE" } else { "ok" }
            );
        }
        let worse: Vec<&str> = w
            .metrics
            .iter()
            .filter(|m| m.worse)
            .map(|m| m.name.as_str())
            .collect();
        let verdict = if pre_runs.min(post_runs) < MIN_RUNS {
            format!("FAIL: a side has fewer than {MIN_RUNS} runs")
        } else if worse.is_empty() {
            "PASS".to_string()
        } else {
            format!("REGRESSION in {}", worse.join(", "))
        };
        let _ = writeln!(out, "  -> {verdict}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        parse_metrics(
            "{\"end_to_end\": [{\"name\": \"wall_s\", \"better\": \"lower\"}, \
             {\"name\": \"sim_minst_per_s\", \"better\": \"higher\"}]}",
        )
        .unwrap()
    }

    /// One `perfbench --trace 0` standard output.
    fn stdout(workload: &str, cores: u32, wall: f64, minst: f64) -> String {
        format!(
            "# meta {{\"workload\": \"{workload}\", \"trace\": \"0\", \"workers\": \"2\", \
             \"host_cores\": \"{cores}\", \"rustc\": \"rustc 1.95.0\"}}\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {{\"wall_s\": {{\"value\": {wall}}}, \"sim_minst_per_s\": {{\"value\": {minst}}}}}}}\n"
        )
    }

    /// Records `(label, timestamp, stdout)` runs into a new file.
    fn file_of(runs: &[(&str, u64, String)]) -> String {
        runs.iter()
            .fold(EMPTY_FILE.to_string(), |text, (label, ts, out)| {
                record(Some(&text), label, out, *ts, &metrics()).unwrap()
            })
    }

    /// `n` `pre-x` runs then `n` `x` runs of one workload, a minute apart,
    /// their `(wall_s, sim_minst_per_s)` jittered by up to 1%.
    fn window(n: usize, pre: (f64, f64), post: (f64, f64)) -> String {
        let runs: Vec<_> = (0..2 * n)
            .map(|i| {
                let (label, (wall, minst)) = if i < n { ("pre-x", pre) } else { ("x", post) };
                let j = [1.0, 1.01, 0.99, 1.005, 0.995][i % 5];
                (
                    label,
                    1000 + 60 * i as u64,
                    stdout("detail_default", 2, wall * j, minst / j),
                )
            })
            .collect();
        file_of(&runs)
    }

    fn windows_of(text: &str) -> Vec<Window> {
        check(&validate(text, &metrics()).unwrap())
    }

    #[test]
    fn bench_path_follows_reno_bench_path() {
        let set = |v: &str| bench_path_from(Some(v.into()));
        assert_eq!(set("/tmp/traj.json"), PathBuf::from("/tmp/traj.json"));
        assert_eq!(bench_path_from(None), PathBuf::from(DEFAULT_BENCH_PATH));
        assert_eq!(set(""), PathBuf::from(DEFAULT_BENCH_PATH));
        assert!(DEFAULT_BENCH_PATH.ends_with("/BENCH_sim.json"));
    }

    #[test]
    fn directions_come_from_benchmark_json() {
        let m = benchmark_metrics().expect("the committed BENCHMARK.json parses");
        let dir = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.higher_is_better);
        assert_eq!(
            [dir("wall_s"), dir("sim_minst_per_s")],
            [Some(false), Some(true)]
        );
        let sideways = "{\"end_to_end\": [{\"name\": \"x\", \"better\": \"up\"}]}";
        assert!(parse_metrics(sideways).is_err());
    }

    #[test]
    fn gate_passes_honest_noise_and_fails_honest_regression() {
        // A/A passes, and so does a 1% worse wall_s inside the 2% floor.
        for post in [(4.0, 8.0), (4.04, 8.0)] {
            let w = windows_of(&window(5, (4.0, 8.0), post));
            assert!(w.len() == 1 && w[0].pass(), "{w:?}");
        }
        // wall_s (lower is better) 10% higher fails; 10% lower passes.
        let w = windows_of(&window(5, (4.0, 8.0), (4.4, 8.0)));
        assert!(!w[0].pass() && w[0].metrics[0].worse && !w[0].metrics[1].worse);
        assert!(windows_of(&window(5, (4.0, 8.0), (3.6, 8.0)))[0].pass());
        // sim_minst_per_s (higher is better) 10% lower fails.
        let w = windows_of(&window(5, (4.0, 8.0), (4.0, 7.2)));
        assert!(!w[0].pass() && !w[0].metrics[0].worse && w[0].metrics[1].worse);
    }

    #[test]
    fn gate_refuses_unpaired_comparisons() {
        // Five pre-x runs at 1000 s, then five far worse x runs from `t`,
        // each side with its own workload and host_cores.
        let pair = |pre: (&str, u32), post: (&str, u32), t: u64| {
            let runs: Vec<_> = (0..5)
                .map(|i| ("pre-x", 1000 + i, stdout(pre.0, pre.1, 4.0, 8.0)))
                .chain((0..5).map(|i| ("x", t + i, stdout(post.0, post.1, 9.0, 1.0))))
                .collect();
            windows_of(&file_of(&runs))
        };
        let (detail, ladder) = ("detail_default", "ladder_default");
        // Another workload, another host shape, or more than an hour apart:
        // no window.
        assert!(pair((detail, 2), (ladder, 2), 1100).is_empty());
        assert!(pair((detail, 2), (detail, 4), 1100).is_empty());
        assert!(pair((detail, 2), (detail, 2), 1000 + WINDOW_SECS).is_empty());
        // Within the hour the same runs pair, and fail.
        let w = pair((detail, 2), (detail, 2), 990 + WINDOW_SECS);
        assert!(w.len() == 1 && !w[0].pass());
    }

    #[test]
    fn a_short_side_fails_the_window() {
        let t = validate(&window(4, (4.0, 8.0), (4.0, 8.0)), &metrics()).unwrap();
        let w = check(&t);
        assert!(w[0].metrics.iter().all(|m| !m.worse) && !w[0].pass());
        assert!(render(&t, &w).contains("fewer than 5 runs"));
    }

    #[test]
    fn archived_entries_never_gate() {
        // A 9x drop between `pre-old` and `old` in the archive is not gated.
        let archive = "[\n{\"label\":\"pre-old\",\"reno\":9},\n{\"label\":\"old\",\"reno\":1}\n";
        let text = EMPTY_FILE.replace("[\n],", &format!("{archive}],"));
        let t = validate(&text, &metrics()).unwrap();
        assert_eq!(t.archive, ["pre-old", "old"]);
        assert!(check(&t).is_empty());
    }

    #[test]
    fn record_refuses_what_the_gate_cannot_use() {
        let good = stdout("detail_default", 2, 4.0, 8.0);
        let refused = |out: &str| record(None, "x", out, 1000, &metrics()).unwrap_err();
        assert!(refused(good.split_once('\n').unwrap().1).contains("got 1 non-empty line"));
        assert!(refused(&good.replace("# meta ", "")).contains("'# meta"));
        assert!(refused(good.trim_end().strip_suffix('}').unwrap()).contains("result line"));
        assert!(refused(&good.replace("true", "false")).contains("not correct"));
        assert!(refused(&good.replace("\"failed\": 0", "\"failed\": 1")).contains("1 failed"));
        assert!(refused(&good.replace("\"trace\": \"0\"", "\"trace\": \"1\"")).contains("traced"));
        assert!(refused(&good.replace("\"wall_s\"", "\"wall\"")).contains("metric 'wall_s'"));
        assert!(refused(&good.replace("\"workers\": \"2\"", "\"workers\": 2")).contains("workers"));
        assert!(record(None, "a\"b", &good, 1000, &metrics()).is_err());
        let err = record(Some("{}"), "x", &good, 1000, &metrics()).unwrap_err();
        assert!(err.contains("existing file"), "{err}");
    }

    #[test]
    fn malformed_entries_reject() {
        // The named classes live in tests/report_corpus.rs; here, that a
        // file with entries validates and that damage to them is caught.
        let good = window(1, (4.0, 8.0), (4.0, 8.0));
        assert_eq!(validate(&good, &metrics()).unwrap().runs.len(), 2);
        let err = |text: &str| validate(text, &metrics()).unwrap_err();
        assert!(err(&good.replacen("\n,{", "\n{", 1)).contains("missing leading ','"));
        assert!(err(&good.replace("pre-x", "")).contains("empty label"));
        assert!(err(&format!("{good}\n")).contains("after the footer"));
    }

    #[test]
    fn render_mentions_every_entry_and_verdict() {
        let t = validate(&window(5, (4.0, 8.0), (4.4, 8.0)), &metrics()).unwrap();
        let out = render(&t, &check(&t));
        for want in [
            "0 archived entries",
            "10 recorded runs",
            "window x / detail_default: 5 pre-x vs 5 x runs",
            "+10.0%",
            "REGRESSION in wall_s",
        ] {
            assert!(out.contains(want), "{want}: {out}");
        }
    }
}
