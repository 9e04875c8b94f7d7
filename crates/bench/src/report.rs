//! Parsing, validation and the noise-aware regression gate for the
//! repo-root `BENCH_sim.json` perf trajectory.
//!
//! `bench_snapshot` appends one flat JSON object per line; this module is
//! the read path. [`validate`] parses the whole file and enforces the
//! schema — including the v2 metadata contract introduced with the
//! `pre-hotpath-pr5`/`hotpath-pr5` entries: an entry that carries *any* of
//! the v2 keys (`rustc`, `git_rev`, `timestamp_unix`, `reps`,
//! `*_cycles_per_sec_best`) must carry *all* of them, so a half-upgraded
//! append can never masquerade as either schema generation.
//!
//! [`check`] is the regression gate. It refuses to compare numbers that
//! were not measured together: only a `pre-X` / `X` pair of v2 entries with
//! identical `(scale, threads, mode, git_rev)` recorded within an hour of
//! each other counts as a measurement window (that is exactly what
//! `bench_snapshot` produces when a PR records before/after numbers on one
//! host). Within a window the recorded best/median spread of *both* sides
//! is the measured run-to-run noise; a configuration only regresses when
//! its median throughput drops by more than that noise plus a 2% floor.
//! Cross-window comparisons (different hosts, different days, different
//! rustc) are rendered in the trajectory table but never gated — those
//! deltas are not evidence.

use std::collections::HashSet;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The three simulated machine configurations every entry records.
pub const CONFIGS: [&str; 3] = ["baseline", "cf_me", "reno"];

/// The committed trajectory file at the repository root.
const DEFAULT_BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// The trajectory file `bench_snapshot` writes and `bench_report` reads:
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

/// Extra slack under the measured noise before a drop counts as a
/// regression (relative, i.e. `0.02` = two percentage points).
pub const NOISE_FLOOR: f64 = 0.02;

/// Maximum age gap between the two sides of a `pre-X`/`X` measurement
/// window, in seconds.
pub const WINDOW_SECS: u64 = 3600;

/// v2 metadata carried by entries recorded with best-of-reps statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    pub rustc: String,
    pub git_rev: String,
    pub timestamp_unix: u64,
    pub reps: u64,
}

/// One validated trajectory entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub label: String,
    /// Identity fields (empty string when the old entry omitted them).
    pub scale: String,
    pub threads: String,
    pub mode: String,
    /// Median simulated-cycles-per-host-second per config, in
    /// [`CONFIGS`] order.
    pub medians: [f64; 3],
    /// Best-of-reps per config — present exactly on v2 entries.
    pub bests: Option<[f64; 3]>,
    /// v2 metadata — present exactly when `bests` is.
    pub meta: Option<EntryMeta>,
}

impl Entry {
    /// The `(scale, threads, mode)` identity shared by a `pre-X`/`X` pair.
    fn identity(&self) -> (&str, &str, &str) {
        (&self.scale, &self.threads, &self.mode)
    }

    /// Worst-case relative run-to-run spread recorded for this entry:
    /// `max_config (best - median) / median`. Zero for v1 entries.
    pub fn spread(&self) -> f64 {
        match self.bests {
            None => 0.0,
            Some(bests) => CONFIGS
                .iter()
                .enumerate()
                .map(|(i, _)| (bests[i] - self.medians[i]) / self.medians[i])
                .fold(0.0, f64::max),
        }
    }
}

/// A parsed flat JSON object: `(key, raw_value)` pairs in order.
type FlatObj = Vec<(String, String)>;

/// Parses one flat (non-nested) JSON object line into key/value pairs.
fn parse_flat_object(line: &str) -> Result<FlatObj, String> {
    let line = line.trim().trim_end_matches(',');
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("entry is not a {...} object")?;
    let mut pairs = Vec::new();
    let mut rest = inner;
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if rest.is_empty() {
            break;
        }
        let r = rest.strip_prefix('"').ok_or("key must be quoted")?;
        let kend = r.find('"').ok_or("unterminated key")?;
        let key = &r[..kend];
        let r = r[kend + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing ':' after key")?;
        let r = r.trim_start();
        let (value, after) = if let Some(s) = r.strip_prefix('"') {
            let vend = s.find('"').ok_or("unterminated string value")?;
            (format!("\"{}\"", &s[..vend]), &s[vend + 1..])
        } else {
            let vend = r.find(',').unwrap_or(r.len());
            let v = r[..vend].trim();
            if v.is_empty() {
                return Err("empty value".into());
            }
            (v.to_string(), &r[vend..])
        };
        pairs.push((key.to_string(), value));
        rest = after;
    }
    if pairs.is_empty() {
        return Err("empty object".into());
    }
    Ok(pairs)
}

fn get<'a>(obj: &'a FlatObj, key: &str) -> Option<&'a str> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn get_str<'a>(obj: &'a FlatObj, key: &str) -> Option<&'a str> {
    get(obj, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// The v2 keys that must appear all-or-none on an entry.
const V2_KEYS: [&str; 7] = [
    "rustc",
    "git_rev",
    "timestamp_unix",
    "reps",
    "baseline_cycles_per_sec_best",
    "cf_me_cycles_per_sec_best",
    "reno_cycles_per_sec_best",
];

fn entry_from_obj(obj: &FlatObj, i: usize) -> Result<Entry, String> {
    let label = get_str(obj, "label").ok_or(format!("entry {i}: missing string 'label'"))?;
    if label.is_empty() {
        return Err(format!("entry {i}: empty label"));
    }
    let mut medians = [0.0f64; 3];
    for (c, cfg) in CONFIGS.iter().enumerate() {
        let key = format!("{cfg}_cycles_per_sec");
        let v = get(obj, &key).ok_or(format!("entry {i} ({label}): missing '{key}'"))?;
        let parsed: f64 = v
            .parse()
            .map_err(|_| format!("entry {i} ({label}): '{key}' not numeric"))?;
        if !(parsed > 0.0) {
            return Err(format!("entry {i} ({label}): '{key}' not positive"));
        }
        medians[c] = parsed;
    }

    // The v2 metadata contract: all seven keys or none. A partial set means
    // a writer mixed schema generations in one entry — reject, because the
    // gate would otherwise silently treat the entry as whichever generation
    // the surviving keys suggest.
    let present: Vec<&str> = V2_KEYS
        .iter()
        .copied()
        .filter(|k| get(obj, k).is_some())
        .collect();
    let (bests, meta) = if present.is_empty() {
        (None, None)
    } else if present.len() == V2_KEYS.len() {
        let mut bests = [0.0f64; 3];
        for (c, cfg) in CONFIGS.iter().enumerate() {
            let key = format!("{cfg}_cycles_per_sec_best");
            let parsed: f64 = get(obj, &key)
                .expect("presence checked")
                .parse()
                .map_err(|_| format!("entry {i} ({label}): '{key}' not numeric"))?;
            if !(parsed > 0.0) {
                return Err(format!("entry {i} ({label}): '{key}' not positive"));
            }
            if parsed < medians[c] {
                return Err(format!(
                    "entry {i} ({label}): '{key}' below the median — best-of-reps \
                     can never be worse than the median of the same reps"
                ));
            }
            bests[c] = parsed;
        }
        let rustc = get_str(obj, "rustc")
            .ok_or(format!("entry {i} ({label}): 'rustc' must be a string"))?;
        let git_rev = get_str(obj, "git_rev")
            .ok_or(format!("entry {i} ({label}): 'git_rev' must be a string"))?;
        let timestamp_unix: u64 = get(obj, "timestamp_unix")
            .expect("presence checked")
            .parse()
            .map_err(|_| format!("entry {i} ({label}): 'timestamp_unix' not an integer"))?;
        let reps: u64 = get(obj, "reps")
            .expect("presence checked")
            .parse()
            .map_err(|_| format!("entry {i} ({label}): 'reps' not an integer"))?;
        if reps < 2 {
            return Err(format!(
                "entry {i} ({label}): 'reps' = {reps}, but best/median \
                 statistics need at least 2 repetitions"
            ));
        }
        (
            Some(bests),
            Some(EntryMeta {
                rustc: rustc.to_string(),
                git_rev: git_rev.to_string(),
                timestamp_unix,
                reps,
            }),
        )
    } else {
        return Err(format!(
            "entry {i} ({label}): mixes v1 and v2 fields — has {present:?} \
             but v2 requires all of {V2_KEYS:?}"
        ));
    };

    // Identity fields may be strings or bare numbers; compare and render
    // them without the JSON quotes.
    let ident = |key: &str| {
        get(obj, key)
            .map(|v| v.trim_matches('"').to_string())
            .unwrap_or_default()
    };
    Ok(Entry {
        label: label.to_string(),
        scale: ident("scale"),
        threads: ident("threads"),
        mode: ident("mode"),
        medians,
        bests,
        meta,
    })
}

/// Validates the whole `BENCH_sim.json` text and returns the parsed
/// entries, or a description of the first violation.
pub fn validate(text: &str) -> Result<Vec<Entry>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("{\"schema\":\"reno-bench-snapshot-v1\",") {
        return Err("bad schema header line".into());
    }
    if lines.next() != Some("\"unit\":\"simulated_cycles_per_host_second\",") {
        return Err("bad unit line".into());
    }
    if lines.next() != Some("\"entries\":[") {
        return Err("bad entries opener".into());
    }
    let body: Vec<&str> = lines.collect();
    let (footer, raw_entries) = body.split_last().ok_or("missing footer")?;
    if footer.trim() != "]}" {
        return Err("bad footer line".into());
    }
    let mut seen: HashSet<(String, String, String, String)> = HashSet::new();
    let mut entries = Vec::with_capacity(raw_entries.len());
    for (i, line) in raw_entries.iter().enumerate() {
        let last = i + 1 == raw_entries.len();
        if !last && !line.trim_end().ends_with(',') {
            return Err(format!("entry {i}: missing ',' separator"));
        }
        if last && line.trim_end().ends_with(',') {
            return Err(format!("entry {i}: trailing ',' on final entry"));
        }
        let obj = parse_flat_object(line).map_err(|e| format!("entry {i}: {e}"))?;
        let entry = entry_from_obj(&obj, i)?;
        let tuple = (
            entry.label.clone(),
            entry.scale.clone(),
            entry.threads.clone(),
            entry.mode.clone(),
        );
        if !seen.insert(tuple) {
            return Err(format!(
                "entry {i}: duplicate (label, scale, threads, mode) for '{}'",
                entry.label
            ));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// The verdict for one paired `pre-X`/`X` measurement window.
#[derive(Clone, Debug)]
pub struct PairVerdict {
    /// The post-side label (`X` of the `pre-X`/`X` pair).
    pub label: String,
    pub scale: String,
    pub threads: String,
    pub mode: String,
    /// Worst best/median spread across both sides and all configs.
    pub noise: f64,
    /// Relative median change per config, [`CONFIGS`] order.
    pub change: [f64; 3],
    /// Configs whose drop exceeds `noise + NOISE_FLOOR`.
    pub regressed: Vec<&'static str>,
}

impl PairVerdict {
    pub fn pass(&self) -> bool {
        self.regressed.is_empty()
    }
}

/// Pairs each v2 entry `X` with its `pre-X` twin — same
/// `(scale, threads, mode)`, same `git_rev`, recorded within
/// [`WINDOW_SECS`] — and applies the noise gate to every pair found.
pub fn check(entries: &[Entry]) -> Vec<PairVerdict> {
    let mut verdicts = Vec::new();
    for post in entries {
        let Some(post_meta) = &post.meta else {
            continue;
        };
        if post.label.starts_with("pre-") {
            continue;
        }
        let pre_label = format!("pre-{}", post.label);
        let Some(pre) = entries.iter().find(|e| {
            e.label == pre_label
                && e.identity() == post.identity()
                && e.meta.as_ref().is_some_and(|m| {
                    m.git_rev == post_meta.git_rev
                        && m.timestamp_unix.abs_diff(post_meta.timestamp_unix) <= WINDOW_SECS
                })
        }) else {
            continue;
        };
        let noise = pre.spread().max(post.spread());
        let mut change = [0.0f64; 3];
        let mut regressed = Vec::new();
        for (c, cfg) in CONFIGS.iter().enumerate() {
            change[c] = (post.medians[c] - pre.medians[c]) / pre.medians[c];
            if change[c] < -(noise + NOISE_FLOOR) {
                regressed.push(*cfg);
            }
        }
        verdicts.push(PairVerdict {
            label: post.label.clone(),
            scale: post.scale.clone(),
            threads: post.threads.clone(),
            mode: post.mode.clone(),
            noise,
            change,
            regressed,
        });
    }
    verdicts
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Renders the per-identity trajectory (every entry, file order, with the
/// delta against the previous entry of the same `(scale, threads, mode)`)
/// followed by the gate verdict for each paired measurement window.
pub fn render(entries: &[Entry], verdicts: &[PairVerdict]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>4} {:>8} {:>12} {:>12} {:>12}  {}",
        "label", "scale", "thr", "mode", "baseline", "cf_me", "reno", "vs prev"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for (i, e) in entries.iter().enumerate() {
        let prev = entries[..i]
            .iter()
            .rev()
            .find(|p| p.identity() == e.identity());
        let delta = match prev {
            None => String::from("-"),
            Some(p) => {
                let worst = CONFIGS
                    .iter()
                    .enumerate()
                    .map(|(c, _)| (e.medians[c] - p.medians[c]) / p.medians[c])
                    .fold(f64::INFINITY, f64::min);
                format!("{} ({})", pct(worst), p.label)
            }
        };
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>4} {:>8} {:>12.0} {:>12.0} {:>12.0}  {}",
            e.label,
            if e.scale.is_empty() { "-" } else { &e.scale },
            if e.threads.is_empty() {
                "-"
            } else {
                &e.threads
            },
            if e.mode.is_empty() { "-" } else { &e.mode },
            e.medians[0],
            e.medians[1],
            e.medians[2],
            delta
        );
    }
    let _ = writeln!(out);
    if verdicts.is_empty() {
        let _ = writeln!(out, "no paired measurement windows to gate");
    }
    for v in verdicts {
        let changes: Vec<String> = CONFIGS
            .iter()
            .enumerate()
            .map(|(c, cfg)| format!("{cfg} {}", pct(v.change[c])))
            .collect();
        let _ = writeln!(
            out,
            "window {} [{}/{}t/{}]: {} | noise {} + {} floor -> {}",
            v.label,
            if v.scale.is_empty() { "-" } else { &v.scale },
            if v.threads.is_empty() {
                "-"
            } else {
                &v.threads
            },
            if v.mode.is_empty() { "-" } else { &v.mode },
            changes.join(", "),
            pct(v.noise).trim_start_matches('+'),
            pct(NOISE_FLOOR).trim_start_matches('+'),
            if v.pass() {
                "PASS".to_string()
            } else {
                format!("REGRESSION in {}", v.regressed.join(", "))
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"schema\":\"reno-bench-snapshot-v1\",\n\"unit\":\"simulated_cycles_per_host_second\",\n\"entries\":[\n";

    fn v2_entry(label: &str, ts: u64, medians: [u64; 3], bests: [u64; 3]) -> String {
        format!(
            "{{\"label\":\"{label}\",\"scale\":\"default\",\"threads\":1,\"mode\":\"full\",\
             \"rustc\":\"rustc 1.95.0\",\"git_rev\":\"abc1234\",\"timestamp_unix\":{ts},\"reps\":5,\
             \"baseline_cycles_per_sec\":{},\"baseline_cycles_per_sec_best\":{},\
             \"cf_me_cycles_per_sec\":{},\"cf_me_cycles_per_sec_best\":{},\
             \"reno_cycles_per_sec\":{},\"reno_cycles_per_sec_best\":{}}}",
            medians[0], bests[0], medians[1], bests[1], medians[2], bests[2]
        )
    }

    #[test]
    fn bench_path_follows_reno_bench_path() {
        let set = |v: &str| bench_path_from(Some(v.into()));
        assert_eq!(set("/tmp/traj.json"), PathBuf::from("/tmp/traj.json"));
        assert_eq!(bench_path_from(None), PathBuf::from(DEFAULT_BENCH_PATH));
        assert_eq!(set(""), PathBuf::from(DEFAULT_BENCH_PATH));
        assert!(DEFAULT_BENCH_PATH.ends_with("/BENCH_sim.json"));
    }

    fn file_of(entries: &[String]) -> String {
        format!("{HEADER}{}\n]}}\n", entries.join(",\n"))
    }

    #[test]
    fn v1_and_v2_entries_both_validate() {
        let v1 = "{\"label\":\"old\",\"baseline_cycles_per_sec\":1,\"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}".to_string();
        let v2 = v2_entry("new", 1000, [100, 100, 100], [110, 105, 100]);
        let entries = validate(&file_of(&[v1, v2])).expect("validates");
        assert_eq!(entries.len(), 2);
        assert!(entries[0].meta.is_none());
        let meta = entries[1].meta.as_ref().expect("v2 metadata");
        assert_eq!(meta.git_rev, "abc1234");
        assert_eq!(meta.reps, 5);
        assert!((entries[1].spread() - 0.10).abs() < 1e-12, "worst spread");
    }

    #[test]
    fn mixed_v1_v2_fields_reject() {
        // A v2 entry missing its *_best keys (or a v1 entry that grew a
        // git_rev) must be rejected, not guessed at.
        let mixed = "{\"label\":\"x\",\"git_rev\":\"abc\",\"baseline_cycles_per_sec\":1,\
                     \"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}"
            .to_string();
        let err = validate(&file_of(&[mixed])).unwrap_err();
        assert!(err.contains("mixes v1 and v2 fields"), "{err}");
    }

    #[test]
    fn best_below_median_rejects() {
        let bad = v2_entry("x", 1000, [100, 100, 100], [110, 99, 120]);
        let err = validate(&file_of(&[bad])).unwrap_err();
        assert!(err.contains("below the median"), "{err}");
    }

    #[test]
    fn malformed_entries_reject() {
        let ok = "{\"label\":\"a\",\"baseline_cycles_per_sec\":1,\"cf_me_cycles_per_sec\":2,\"reno_cycles_per_sec\":3}";
        assert_eq!(
            validate(&format!("{HEADER}{ok}\n]}}\n")).map(|e| e.len()),
            Ok(1)
        );
        let missing = "{\"label\":\"a\",\"baseline_cycles_per_sec\":1,\"cf_me_cycles_per_sec\":2}";
        assert!(validate(&format!("{HEADER}{missing}\n]}}\n"))
            .unwrap_err()
            .contains("reno_cycles_per_sec"));
        let dup = format!("{HEADER}{ok},\n{ok}\n]}}\n");
        assert!(validate(&dup).unwrap_err().contains("duplicate"));
        let truncated = format!("{HEADER}{}\n]}}\n", &ok[..ok.len() - 1]);
        assert!(validate(&truncated).is_err());
        let no_footer = format!("{HEADER}{ok}\n");
        assert!(validate(&no_footer).is_err());
    }

    #[test]
    fn gate_passes_honest_noise_and_fails_honest_regression() {
        // Noise: pre spread 10%, post spread 5% -> noise 10%, margin 12%.
        let pre = v2_entry("pre-opt", 1000, [1000, 1000, 1000], [1100, 1050, 1000]);
        // An 11% drop in cf_me sits inside the margin; baseline improves.
        let within = v2_entry("opt", 1100, [1200, 890, 1000], [1210, 930, 1050]);
        let entries = validate(&file_of(&[pre.clone(), within])).unwrap();
        let verdicts = check(&entries);
        assert_eq!(verdicts.len(), 1);
        assert!(
            verdicts[0].pass(),
            "11% drop under 12% margin: {verdicts:?}"
        );

        // A 20% drop in reno busts the margin.
        let regressed = v2_entry("opt", 1100, [1200, 1000, 800], [1210, 1050, 820]);
        let entries = validate(&file_of(&[pre, regressed])).unwrap();
        let verdicts = check(&entries);
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].pass());
        assert_eq!(verdicts[0].regressed, vec!["reno"]);
    }

    #[test]
    fn gate_refuses_unpaired_comparisons() {
        // Same labels but recorded 2 days apart: not a measurement window.
        let pre = v2_entry("pre-opt", 1000, [1000, 1000, 1000], [1010, 1010, 1010]);
        let post = v2_entry("opt", 1000 + 2 * 86400, [500, 500, 500], [510, 510, 510]);
        let entries = validate(&file_of(&[pre, post])).unwrap();
        assert!(check(&entries).is_empty(), "stale pair must not gate");

        // v1 entries never pair, even with adjacent labels.
        let v1a = "{\"label\":\"pre-old\",\"baseline_cycles_per_sec\":9,\"cf_me_cycles_per_sec\":9,\"reno_cycles_per_sec\":9}".to_string();
        let v1b = "{\"label\":\"old\",\"baseline_cycles_per_sec\":1,\"cf_me_cycles_per_sec\":1,\"reno_cycles_per_sec\":1}".to_string();
        let entries = validate(&file_of(&[v1a, v1b])).unwrap();
        assert!(check(&entries).is_empty(), "v1 entries carry no noise data");
    }

    #[test]
    fn render_mentions_every_entry_and_verdict() {
        let pre = v2_entry("pre-opt", 1000, [1000, 1000, 1000], [1100, 1050, 1000]);
        let post = v2_entry("opt", 1100, [1200, 890, 1000], [1210, 930, 1050]);
        let entries = validate(&file_of(&[pre, post])).unwrap();
        let verdicts = check(&entries);
        let text = render(&entries, &verdicts);
        assert!(text.contains("pre-opt"));
        assert!(text.contains("window opt"));
        assert!(text.contains("PASS"));
    }
}
