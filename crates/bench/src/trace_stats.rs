//! Offline analysis of exported Chrome trace JSON (`trace_stats` binary).
//!
//! Consumes the byte-deterministic export produced by
//! `reno_trace::chrome_trace_json` — either a plain traced run
//! (`trace_dump`) or a merged sampled-run trace (`trace_dump --sampled`) —
//! and distills it into a plain-text report:
//!
//! * per-opcode fetch→retire latency histograms (log₂ buckets),
//! * squash chains grouped by squash cycle and cause (depth, cycles lost),
//! * memory-system totals and cycle-weighted MSHR-occupancy percentiles,
//! * predictor totals, and
//! * a per-window table joining IPC with per-level cache activity.
//!
//! The report is deterministic text: equal traces produce equal bytes, so
//! `golden/trace_stats_tiny.txt` pins the whole path (writer format,
//! parser, and every aggregation) and CI diffs it on every push. The input
//! is read by [`reno_trace::parse_json`], the writer's own crate's reader —
//! no external JSON crate, same zero-dependency policy as the rest of the
//! workspace.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use reno_trace::{parse_json, Value};

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Latency histogram buckets: `<=1, <=2, <=4, ... <=256, >256` cycles.
const BUCKETS: usize = 10;

fn bucket_of(lat: u64) -> usize {
    let mut bound = 1u64;
    for i in 0..BUCKETS - 1 {
        if lat <= bound {
            return i;
        }
        bound *= 2;
    }
    BUCKETS - 1
}

#[derive(Default)]
struct OpcodeLat {
    count: u64,
    min: u64,
    max: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

#[derive(Default)]
struct Chain {
    depth: u64,
    cycles_lost: u64,
}

/// Cycle-weighted percentile over `(start_cycle, value)` step samples that
/// each hold until the next sample, the last until `end` (exclusive).
fn weighted_percentiles(samples: &[(u64, i64)], end: u64, qs: &[f64]) -> Vec<i64> {
    let mut weight: BTreeMap<i64, u64> = BTreeMap::new();
    for (i, &(ts, v)) in samples.iter().enumerate() {
        let until = samples.get(i + 1).map_or(end.max(ts + 1), |&(t, _)| t);
        *weight.entry(v).or_insert(0) += until.saturating_sub(ts);
    }
    let total: u64 = weight.values().sum();
    qs.iter()
        .map(|&q| {
            let target = (q * total as f64).ceil() as u64;
            let mut cum = 0u64;
            for (&v, &w) in &weight {
                cum += w;
                if cum >= target.max(1) {
                    return v;
                }
            }
            weight.keys().next_back().copied().unwrap_or(0)
        })
        .collect()
}

/// Analyzes one exported trace and renders the plain-text report.
///
/// # Errors
///
/// Invalid JSON (with byte offset) or a document that is not a Chrome
/// trace-event export (`traceEvents` missing).
pub fn analyze(json: &str) -> Result<String, String> {
    let doc = parse_json(json)?;
    let events = match doc.get("traceEvents") {
        Some(Value::Arr(items)) => items,
        _ => return Err("not a trace export: no traceEvents array".into()),
    };

    // One pass over the event list, demultiplexing by phase.
    let mut open: HashMap<u64, (u64, String)> = HashMap::new(); // id -> (fetch ts, opcode)
    let mut lat: BTreeMap<String, OpcodeLat> = BTreeMap::new();
    let mut chains: BTreeMap<(u64, String), Chain> = BTreeMap::new();
    let mut end_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut spans = 0u64;
    let mut last_ts = 0u64;

    let mut instants: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // name -> (count, sum cycles arg)
    let mut occupancy: Vec<(u64, i64)> = Vec::new(); // MSHR occupancy samples
    let mut ipc: BTreeMap<u64, f64> = BTreeMap::new(); // window start -> ipc
    let mut activity: BTreeMap<&'static str, BTreeMap<u64, (u64, u64)>> = BTreeMap::new();

    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Value::as_u64).unwrap_or(0);
        last_ts = last_ts.max(ts);
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "b" => {
                let id = ev.get("id").and_then(Value::as_u64).unwrap_or(0);
                let opcode = name.split('@').next().unwrap_or(name).to_string();
                open.insert(id, (ts, opcode));
            }
            "e" => {
                let id = ev.get("id").and_then(Value::as_u64).unwrap_or(0);
                let Some((fetch, opcode)) = open.remove(&id) else {
                    continue;
                };
                let reason = ev
                    .get("args")
                    .and_then(|a| a.get("end"))
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                spans += 1;
                *end_counts.entry(reason.clone()).or_insert(0) += 1;
                let latency = ts.saturating_sub(fetch);
                if reason == "retire" {
                    let e = lat.entry(opcode).or_default();
                    if e.count == 0 || latency < e.min {
                        e.min = latency;
                    }
                    e.max = e.max.max(latency);
                    e.sum += latency;
                    e.count += 1;
                    e.buckets[bucket_of(latency)] += 1;
                } else if !matches!(reason.as_str(), "inflight" | "requeue") {
                    let c = chains.entry((ts, reason)).or_default();
                    c.depth += 1;
                    c.cycles_lost += latency;
                }
            }
            "i" => {
                let cycles = ev
                    .get("args")
                    .and_then(|a| a.get("cycles"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                let e = instants.entry(name.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += cycles;
            }
            "C" => {
                let args = ev.get("args");
                match name {
                    "MSHR occupancy" => {
                        let slots = args
                            .and_then(|a| a.get("slots"))
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0) as i64;
                        occupancy.push((ts, slots));
                    }
                    "IPC" => {
                        let v = args
                            .and_then(|a| a.get("ipc"))
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0);
                        ipc.insert(ts, v);
                    }
                    "L1I activity" | "L1D activity" | "L2 activity" => {
                        let h = args
                            .and_then(|a| a.get("hits"))
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                        let m = args
                            .and_then(|a| a.get("misses"))
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                        let level: &'static str = match name {
                            "L1I activity" => "L1I",
                            "L1D activity" => "L1D",
                            _ => "L2",
                        };
                        activity.entry(level).or_default().insert(ts, (h, m));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    // Spans the writer left open (the current writer always emits an `e`,
    // closing in-flight spans with end:"inflight" — but stay total).
    if !open.is_empty() {
        spans += open.len() as u64;
        *end_counts.entry("unclosed".into()).or_insert(0) += open.len() as u64;
    }

    let count = |k: &str| end_counts.get(k).copied().unwrap_or(0);
    let retired = count("retire");
    let other: u64 = end_counts
        .iter()
        .filter(|(k, _)| matches!(k.as_str(), "inflight" | "requeue" | "unclosed"))
        .map(|(_, v)| v)
        .sum();
    let squashed = spans - retired - other;

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "# trace_stats");
    let _ = writeln!(
        w,
        "spans: {spans} ({retired} retired, {squashed} squashed, {other} other)  last_cycle: {last_ts}"
    );

    // --- latency histograms -------------------------------------------------
    let _ = writeln!(w, "\n## fetch->retire latency by opcode (cycles)");
    let _ = writeln!(
        w,
        "{:<10} {:>6} {:>5} {:>5} {:>8}  | <=1 <=2 <=4 <=8 <=16 <=32 <=64 <=128 <=256 >256",
        "opcode", "count", "min", "max", "mean"
    );
    for (op, e) in &lat {
        let mean = e.sum as f64 / e.count as f64;
        let _ = write!(
            w,
            "{:<10} {:>6} {:>5} {:>5} {:>8.2}  |",
            op, e.count, e.min, e.max, mean
        );
        for (i, b) in e.buckets.iter().enumerate() {
            let width = [3usize, 3, 3, 3, 4, 4, 4, 5, 5, 4][i];
            let _ = write!(w, " {b:>width$}");
        }
        let _ = writeln!(w);
    }
    if lat.is_empty() {
        let _ = writeln!(w, "(no retired spans)");
    }

    // --- squash chains ------------------------------------------------------
    let _ = writeln!(w, "\n## squash chains (grouped by squash cycle and cause)");
    if chains.is_empty() {
        let _ = writeln!(w, "(none)");
    } else {
        let _ = writeln!(
            w,
            "{:>10} {:<22} {:>6} {:>12}",
            "end_cycle", "cause", "depth", "cycles_lost"
        );
        for ((cycle, cause), c) in &chains {
            let _ = writeln!(
                w,
                "{:>10} {:<22} {:>6} {:>12}",
                cycle, cause, c.depth, c.cycles_lost
            );
        }
        let total_depth: u64 = chains.values().map(|c| c.depth).sum();
        let total_lost: u64 = chains.values().map(|c| c.cycles_lost).sum();
        let _ = writeln!(
            w,
            "total: {} chains, {} squashed spans, {} cycles lost",
            chains.len(),
            total_depth,
            total_lost
        );
    }

    // --- memory system ------------------------------------------------------
    let _ = writeln!(w, "\n## memory");
    let inst = |name: &str| instants.get(name).copied().unwrap_or((0, 0));
    for level in ["L1I", "L1D", "L2"] {
        let (hits, misses) = activity
            .get(level)
            .map(|ws| {
                ws.values()
                    .fold((0u64, 0u64), |(h, m), &(wh, wm)| (h + wh, m + wm))
            })
            .unwrap_or((0, 0));
        let total = hits + misses;
        let rate = if total == 0 {
            0.0
        } else {
            100.0 * misses as f64 / total as f64
        };
        let _ = writeln!(
            w,
            "{level:<4} accesses: {total} ({hits} hits, {misses} misses, {rate:.2}% miss), \
             writebacks: {}",
            inst(&format!("{level} writeback")).0
        );
    }
    let (alloc, _) = inst("MSHR alloc");
    let (merge, _) = inst("MSHR merge");
    let (retire_m, _) = inst("MSHR retire");
    let (stalls, stall_cycles) = inst("MSHR full-stall");
    let (busq, bus_cycles) = inst("bus queue");
    let _ = writeln!(
        w,
        "mshr: {alloc} alloc, {merge} merge, {retire_m} retire, \
         {stalls} full-stall ({stall_cycles} cycles), {busq} bus-queue ({bus_cycles} cycles)"
    );
    if occupancy.is_empty() {
        let _ = writeln!(w, "mshr occupancy: (no samples)");
    } else {
        let mut samples = occupancy.clone();
        if samples[0].0 > 0 {
            samples.insert(0, (0, 0));
        }
        let p = weighted_percentiles(&samples, last_ts + 1, &[0.50, 0.90, 0.99]);
        let max = occupancy.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let _ = writeln!(
            w,
            "mshr occupancy: p50 {}, p90 {}, p99 {}, max {} (cycle-weighted over {} cycles)",
            p[0],
            p[1],
            p[2],
            max,
            last_ts + 1
        );
    }

    // --- predictor ----------------------------------------------------------
    let _ = writeln!(w, "\n## predictor");
    let _ = writeln!(
        w,
        "mispredicts: cond {}, return {}, indirect {}; resolves: {}",
        inst("mispredict:cond").0,
        inst("mispredict:return").0,
        inst("mispredict:indirect").0,
        inst("resolve").0
    );

    // --- per-window table ---------------------------------------------------
    let _ = writeln!(w, "\n## per-window table (64-cycle windows)");
    let mut windows: Vec<u64> = ipc.keys().copied().collect();
    for ws in activity.values() {
        windows.extend(ws.keys().copied());
    }
    windows.sort_unstable();
    windows.dedup();
    if windows.is_empty() {
        let _ = writeln!(w, "(empty trace)");
    } else {
        let _ = writeln!(
            w,
            "{:>8} {:>6}  {:>11} {:>11} {:>11}",
            "window", "ipc", "L1I h/m", "L1D h/m", "L2 h/m"
        );
        for ws in windows {
            let ipc_s = ipc.get(&ws).map_or("-".to_string(), |v| format!("{v:.3}"));
            let hm = |level: &str| {
                activity
                    .get(level)
                    .and_then(|m| m.get(&ws))
                    .map_or("-".to_string(), |&(h, m)| format!("{h}/{m}"))
            };
            let _ = writeln!(
                w,
                "{:>8} {:>6}  {:>11} {:>11} {:>11}",
                ws,
                ipc_s,
                hm("L1I"),
                hm("L1D"),
                hm("L2")
            );
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_demo;

    #[test]
    fn parser_round_trips_small_documents() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x@y","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x@y"));
        match v.get("a") {
            Some(Value::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-3.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(parse_json("{\"a\":1} junk").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn percentiles_are_cycle_weighted() {
        // Value 0 for 90 cycles, then 4 for 10 cycles over [0, 100).
        let p = weighted_percentiles(&[(0, 0), (90, 4)], 100, &[0.50, 0.90, 0.99]);
        assert_eq!(p, vec![0, 0, 4]);
    }

    /// The report pins the analysis end to end on the same demo trace the
    /// `trace_dump` golden pins, so the two goldens can never drift apart
    /// silently.
    #[test]
    fn trace_stats_matches_golden() {
        let got = analyze(&trace_demo::demo_json()).expect("demo trace analyzes");
        let want = include_str!("../golden/trace_stats_tiny.txt");
        assert!(
            got == want,
            "trace_stats output drifted from golden/trace_stats_tiny.txt;\n\
             if the change is intentional, regenerate with\n\
             cargo run -p reno-bench --bin trace_dump | \
             cargo run -p reno-bench --bin trace_stats > crates/bench/golden/trace_stats_tiny.txt\n\
             --- got ---\n{got}"
        );
    }

    /// Cross-checks the analyzer's totals against the simulator's own
    /// counters: the report is derived from the JSON alone, so agreement
    /// means the export carries the full story.
    #[test]
    fn report_totals_agree_with_sim_counters() {
        let r = trace_demo::demo_run();
        let report = analyze(&trace_demo::demo_json()).unwrap();
        assert!(
            report.contains(&format!("({} retired, ", r.retired)),
            "retired span count must equal SimResult.retired"
        );
        let (l1i, l1d, l2) = r.caches;
        for (level, s) in [("L1I", l1i), ("L1D", l1d), ("L2", l2)] {
            let line = format!(
                "{level:<4} accesses: {} ({} hits, {} misses,",
                s.accesses,
                s.hits,
                s.accesses - s.hits
            );
            assert!(
                report.contains(&line),
                "per-level totals must match CacheStats: missing {line:?}\n{report}"
            );
        }
        assert!(report.contains(&format!("mshr: {} alloc,", r.hier.mem_accesses)));
    }
}
