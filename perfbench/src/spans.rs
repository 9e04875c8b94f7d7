//! In-memory spans for the traced run.
//!
//! A span records one call from the benchmark into a layer: name, label,
//! start, end, parent span and optional counts. Spans stay in memory and are
//! written to a TSV file when the run ends; every per-layer number is then
//! derived from the file read back ([`load`]), never from live state.
//!
//! When tracing is off, [`Tracer::span`] only calls its closure: no clock
//! reads, no allocation.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span identifier; 0 means "no span" (the root, or tracing off).
pub type SpanId = u64;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (> 0).
    pub id: SpanId,
    /// Parent span id, 0 for a top-level span.
    pub parent: SpanId,
    /// Layer call, e.g. `sim.run`.
    pub name: String,
    /// What the call worked on, e.g. `vpr.r/RENO`.
    pub label: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counts recorded at the same boundary.
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The value of count `key`, if recorded.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    attrs: Mutex<Vec<(SpanId, String, f64)>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            attrs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id (0 when tracing is off) so that it can parent child
    /// spans, including spans on other threads, and attach counts.
    pub fn span<R>(
        &self,
        name: &str,
        label: &str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            label: label.to_string(),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        out
    }

    /// Attaches count `key = value` to span `id` (no-op when off).
    pub fn attr(&self, id: SpanId, key: &str, value: f64) {
        if self.enabled && id != 0 {
            self.attrs
                .lock()
                .expect("attr list poisoned")
                .push((id, key.to_string(), value));
        }
    }

    /// The recorded spans, sorted by id, with their counts attached.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        for (id, k, v) in self.attrs.lock().expect("attr list poisoned").iter() {
            if let Ok(i) = spans.binary_search_by_key(id, |s| s.id) {
                spans[i].attrs.push((k.clone(), *v));
            }
        }
        spans
    }

    /// Writes every span to `path`, one per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("# id\tparent\tname\tlabel\tstart_ns\tend_ns\tattrs\n");
        for s in self.spans() {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.id,
                s.parent,
                s.name,
                s.label,
                s.start_ns,
                s.end_ns,
                attrs.join(";")
            ));
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()
    }
}

/// Reads a span file written by [`Tracer::write`].
pub fn load(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

/// Parses the span file format.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("span line {}: {what}", i + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [id, parent, name, label, start, end, attrs] = f.as_slice() else {
            return Err(bad("expected 7 fields"));
        };
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad("bad integer"));
        let mut kv = Vec::new();
        for pair in attrs.split(';').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').ok_or_else(|| bad("bad attr"))?;
            kv.push((
                k.to_string(),
                v.parse::<f64>().map_err(|_| bad("bad attr value"))?,
            ));
        }
        let span = Span {
            id: int(id)?,
            parent: int(parent)?,
            name: name.to_string(),
            label: label.to_string(),
            start_ns: int(start)?,
            end_ns: int(end)?,
            attrs: kv,
        };
        if span.end_ns < span.start_ns {
            return Err(bad("span ends before it starts"));
        }
        spans.push(span);
    }
    Ok(spans)
}

/// Checks that every span lies inside its parent's interval.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = spans
            .iter()
            .find(|p| p.id == s.parent)
            .ok_or_else(|| format!("span {} ({}) has no parent {}", s.id, s.name, s.parent))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) escapes its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Self time of each span, in seconds, in `spans` order: its duration minus
/// the part of its interval that its child spans cover. Children on
/// parallel workers overlap each other, so the covered part is the union
/// of their intervals.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

/// Summed self time per span name, largest first: where host time went.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by: Vec<(String, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_secs(spans)) {
        match by.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => by.push((s.name.clone(), t)),
        }
    }
    by.sort_by(|a, b| b.1.total_cmp(&a.1));
    by
}

/// Query helpers over a loaded span list.
pub struct Spans<'a>(pub &'a [Span]);

impl Spans<'_> {
    /// Spans named `name`, in id order.
    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.0.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Summed count `key` over spans named `name`.
    pub fn sum_attr(&self, name: &str, key: &str) -> f64 {
        self.named(name).filter_map(|s| s.attr(key)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            label: String::new(),
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            span(4, 1, 80, 90),
        ];
        let s = self_secs(&spans);
        assert_eq!(s[0], 30.0 / 1e9);
        assert_eq!(s[1], 40.0 / 1e9);
        check_nesting(&spans).unwrap();
        let mut bad = spans.clone();
        bad[3].end_ns = 120;
        assert!(check_nesting(&bad).is_err());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", "", 0, |id| {
            t.attr(id, "k", 1.0);
            id
        });
        assert_eq!(v, 0);
        assert!(t.spans().is_empty());
    }
}
