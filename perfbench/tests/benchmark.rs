//! Tests of the benchmark's own code: its metric table against
//! `BENCHMARK.json`, the reference checks, the span file, and the seeded
//! sweep grid.

use reno_core::RenoConfig;
use reno_dse::parse_spec;
use reno_perfbench::grid::{grid, spec_text, ANCHOR};
use reno_perfbench::host::host_probe_ms;
use reno_perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use reno_perfbench::reference::{check_detail, check_sampled, Reference, REFERENCE_TSV};
use reno_perfbench::run::{host_scale, per_layer, Kind, PROBE_REF_MS};
use reno_perfbench::spans::{self, Tracer};
use reno_sample::{run_sampled, SampleConfig};
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::{all_workloads, Scale};
use std::collections::BTreeMap;

/// A minimal JSON reader, enough for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let b = text.as_bytes();
        let mut i = 0;
        let v = Json::value(b, &mut i);
        Json::ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Json {
        Json::ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                loop {
                    Json::ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = Json::value(b, i) else {
                        panic!("object key is not a string")
                    };
                    Json::ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    assert!(m.insert(k, Json::value(b, i)).is_none(), "duplicate key");
                    Json::ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    Json::ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(v);
                    }
                    v.push(Json::value(b, i));
                    Json::ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let start = *i;
                while b[*i] != b'"' {
                    assert_ne!(b[*i], b'\\', "escapes are not used in BENCHMARK.json");
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if b[*i..].starts_with(word.as_bytes()) {
                        *i += word.len();
                        return v;
                    }
                }
                panic!("bad literal")
            }
            _ => {
                let start = *i;
                while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn assert_table_matches(listed: &[Json], table: &[MetricDef]) {
    assert_eq!(listed.len(), table.len(), "metric count");
    for (j, def) in listed.iter().zip(table) {
        assert_eq!(j.get("name").str(), def.name);
        assert_eq!(j.get("unit").str(), def.unit, "{}", def.name);
        let better = match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(j.get("better").str(), better, "{}", def.name);
    }
}

#[test]
fn printed_metrics_and_workloads_match_benchmark_json() {
    let b = benchmark_json();
    assert_table_matches(b.get("end_to_end").arr(), END_TO_END);
    assert_table_matches(b.get("per_layer").arr(), PER_LAYER);
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, ours);
}

/// The shortest Default kernel keeps the detailed runs below quick in an
/// unoptimized build.
fn shortest_default_kernel(reference: &Reference) -> reno_workloads::Workload {
    let row = reference
        .rows
        .iter()
        .filter(|r| r.scale == "default" && r.config == "RENO")
        .min_by_key(|r| r.retired)
        .expect("reference has Default RENO rows");
    all_workloads(Scale::Default)
        .into_iter()
        .find(|w| w.name == row.workload)
        .expect("reference names a real kernel")
}

#[test]
fn a_tampered_reference_row_fails_the_check() {
    let reference = Reference::parse(REFERENCE_TSV).unwrap();
    let w = shortest_default_kernel(&reference);
    let row = reference.get("default", "RENO", w.name).unwrap().clone();
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    let full = Simulator::new(&w.program, cfg.clone()).run(1 << 30);
    check_detail(&row, &full).expect("the committed row matches today's simulator");

    let sampled = run_sampled(&w.program, cfg, &SampleConfig::new(512, 512, 8192));
    check_sampled(&row, &sampled).expect("a sampled run matches checksum and length");

    for tamper in [
        |r: &mut reno_perfbench::reference::RefRow| r.cycles += 1,
        |r: &mut reno_perfbench::reference::RefRow| r.retired += 1,
        |r: &mut reno_perfbench::reference::RefRow| r.checksum ^= 1,
    ] {
        let mut bad = row.clone();
        tamper(&mut bad);
        assert!(check_detail(&bad, &full).is_err(), "{bad:?}");
    }
    for tamper in [
        |r: &mut reno_perfbench::reference::RefRow| r.retired += 1,
        |r: &mut reno_perfbench::reference::RefRow| r.checksum ^= 1,
    ] {
        let mut bad = row.clone();
        tamper(&mut bad);
        assert!(check_sampled(&bad, &sampled).is_err(), "{bad:?}");
    }
}

#[test]
fn traced_spans_nest_with_non_negative_self_time() {
    let tracer = Tracer::new(true);
    let programs = all_workloads(Scale::Tiny);
    tracer.span("pass", "tiny", 0, |pass| {
        let jobs: Vec<_> = programs.iter().take(6).collect();
        reno_par::par_map(&jobs, |w| {
            tracer.span("sim.run", &format!("{}/RENO", w.name), pass, |id| {
                let r = Simulator::new(&w.program, MachineConfig::four_wide(RenoConfig::reno()))
                    .run(1 << 30);
                tracer.attr(id, "cycles", r.cycles as f64);
                tracer.attr(id, "retired", r.retired as f64);
                tracer.span("func.run", w.name, id, |_| ());
            })
        });
    });
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans-test.tsv");
    tracer.write(&path).unwrap();
    let loaded = spans::load(&path).unwrap();
    assert_eq!(loaded, tracer.spans(), "the file round-trips");
    assert_eq!(loaded.len(), 1 + 6 + 6);
    spans::check_nesting(&loaded).expect("every span lies inside its parent");
    for (s, t) in loaded.iter().zip(spans::self_secs(&loaded)) {
        assert!(
            t >= 0.0 && t <= s.secs(),
            "{}: self {t} of {}",
            s.name,
            s.secs()
        );
    }
    let values = per_layer(&loaded);
    assert_eq!(values.len(), PER_LAYER.len());
    assert!(values.iter().all(|(_, v)| v.is_finite()));
    let sim_cycles = values.iter().find(|(n, _)| *n == "sim.cycles").unwrap().1;
    assert!(sim_cycles > 0.0);
}

#[test]
fn host_scaling_maps_the_reference_probe_to_one() {
    assert_eq!(host_scale(PROBE_REF_MS, PROBE_REF_MS), 1.0);
    // A host twice as slow on both readings halves the measured time.
    assert_eq!(host_scale(2.0 * PROBE_REF_MS, 2.0 * PROBE_REF_MS), 0.5);
    // The two readings around a pass count alike.
    assert_eq!(host_scale(30.0, 50.0), host_scale(50.0, 30.0));
    let probe = host_probe_ms(2);
    assert!(probe.is_finite() && probe > 0.0, "probe read {probe} ms");
}

#[test]
fn the_grid_is_a_function_of_the_seed_and_every_spec_parses() {
    let grids: Vec<_> = (0..100).map(grid).collect();
    for (seed, g) in grids.iter().enumerate() {
        assert_eq!(*g, grid(seed as u64), "same seed, same grid");
        assert_eq!(g.first.len(), 3);
        assert_eq!(g.second.len(), 5);
        assert_eq!(
            g.second[..3],
            g.first[..],
            "the second sweep extends the first"
        );
        assert_eq!(
            (g.first[0].label.as_str(), g.first[0].args.as_str()),
            ANCHOR
        );
        for (name, cfgs) in [("a", &g.first), ("b", &g.second)] {
            let spec = parse_spec(&spec_text(name, cfgs)).expect("generated specs parse");
            assert_eq!(spec.workloads.len(), 20);
            assert_eq!(spec.configs.len(), cfgs.len());
            // Distinct configs, so no two cells share a cache key.
            for (i, a) in spec.configs.iter().enumerate() {
                for b in &spec.configs[i + 1..] {
                    assert_ne!(format!("{:?}", a.1), format!("{:?}", b.1));
                }
            }
        }
    }
    // 15 drawable configs give 32760 ordered grids, so a few of 100 seeds
    // may share one; neighbouring seeds never do.
    for pair in grids.windows(2) {
        assert_ne!(pair[0], pair[1], "different seeds, different grids");
    }
    let mut distinct: Vec<String> = grids.iter().map(|g| format!("{g:?}")).collect();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() >= 95,
        "{} distinct grids of 100",
        distinct.len()
    );
}
