//! Named regression corpus for `BENCH_sim.json` rejection classes.
//!
//! Each test pins one corruption class `reno-fuzz`'s `report` surface
//! probes randomly: the class must map to a structured `Err` with a stable,
//! recognizable message — never a panic and never silent acceptance. The
//! asserted substrings are the rejection taxonomy; if one changes, the
//! harness's findings stop reproducing against the documented classes, so
//! change them deliberately.

use reno_bench::report::{benchmark_metrics, check, record, render, validate, EMPTY_FILE};

/// An archive of one old entry plus one untraced `ladder_default` run per
/// label, recorded in order a second apart.
fn file_of(labels: &[&str]) -> String {
    let metrics = benchmark_metrics().unwrap();
    let table: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": 1.5, \"unit\": \"x\"}}", m.name))
        .collect();
    let archive = "\"archive\":[\n{\"label\":\"old\",\"reno_cycles_per_sec\":3}\n";
    let mut text = EMPTY_FILE.replace("\"archive\":[\n", archive);
    for (i, label) in labels.iter().enumerate() {
        let out = format!(
            "# meta {{\"workload\": \"ladder_default\", \"trace\": \"0\", \"workers\": \"2\", \
             \"host_cores\": \"2\", \"rustc\": \"rustc 1.95.0\"}}\n\
             {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            table.join(", ")
        );
        text = record(Some(&text), label, &out, 1000 + i as u64, &metrics).unwrap();
    }
    text
}

/// Asserts that each `(from, to, want)` edit of `good` (its first `from`
/// replaced by `to`) is rejected with a message containing `want`.
fn rejects(good: &str, cases: &[(&str, &str, &str)]) {
    let metrics = benchmark_metrics().unwrap();
    for (from, to, want) in cases {
        assert!(good.contains(from), "{from:?} is in the file");
        let err = validate(&good.replacen(from, to, 1), &metrics).expect_err(want);
        assert!(err.contains(want), "expected {want:?}, got {err:?}");
    }
}

#[test]
fn pristine_file_validates_and_renders() {
    let t = validate(&file_of(&["seed", "pr2"]), &benchmark_metrics().unwrap()).unwrap();
    assert_eq!((t.archive.len(), t.runs.len()), (1, 2));
    let text = render(&t, &check(&t));
    assert!(text.contains("1 archived entries") && text.contains("2 recorded runs"));
}

#[test]
fn corrupt_header_lines_reject() {
    // A deleted/mangled header line (fuzz line-deletion class).
    let schema = "{\"schema\":\"reno-bench-trajectory-v3\",\n";
    rejects(
        &file_of(&["a"]),
        &[
            (schema, "", "bad schema header"),
            ("\"archive\":[\n", "", "bad archive opener"),
            ("\"entries\":[\n", "", "bad entries opener"),
            ("],\n", "", "missing archive closer"),
        ],
    );
}

#[test]
fn missing_footer_rejects() {
    // Truncation class: a torn append loses the `]}` footer.
    rejects(&file_of(&["a"]), &[("\n]}\n", "\n", "missing footer")]);
}

#[test]
fn separator_damage_rejects() {
    // Line-swap / comma classes: a lost or misplaced leading ',' in the
    // entries, a lost or trailing ',' in the archive.
    rejects(
        &file_of(&["a", "b"]),
        &[
            ("\n,{", "\n{", "entry 1: missing leading ','"),
            (
                "\n{\"label\":\"a\"",
                "\n,{\"label\":\"a\"",
                "',' before the first",
            ),
            (
                ":3}\n",
                ":3}\n{\"label\":\"o2\"}\n",
                "archive: expected ',' or ']'",
            ),
            (":3}\n", ":3},\n", "archive: expected a JSON value"),
        ],
    );
}

#[test]
fn entry_structure_damage_rejects() {
    // Quote-deletion / byte-corruption classes inside one line.
    rejects(
        &file_of(&["a"]),
        &[
            (
                "{\"label\":\"a\"",
                "{label:\"a\"",
                "entry 0: expected '\"' at byte",
            ),
            ("\"timestamp_unix\"", "\"time\"", "expected [\"label\""),
            ("\"workload\"", "\"work\"", "meta lacks string 'workload'"),
            ("{\"label\":\"old\"", "[\"label\",\"old\"", "archive:"),
        ],
    );
}

#[test]
fn numeric_damage_rejects() {
    // Digit-corruption class: a metric value or a timestamp that is no
    // longer a number, a fractional or negative timestamp, failed runs.
    rejects(
        &file_of(&["a"]),
        &[
            (
                "\"value\": 1.5",
                "\"value\": \"1.5\"",
                "lacks end-to-end metric",
            ),
            ("p_unix\":1000", "p_unix\":1000.5", "not a whole number"),
            ("p_unix\":1000", "p_unix\":-1000", "not a whole number"),
            ("p_unix\":1000", "p_unix\":\"1000\"", "not a whole number"),
            ("\"failed\": 0", "\"failed\": 2", "2 failed"),
        ],
    );
}

#[test]
fn schema_generation_mixing_rejects() {
    // An entry of the old flat schema appended to `entries`, and a file
    // still carrying the old header, must not be guessed at.
    let old = "\n,{\"label\":\"x\",\"baseline_cycles_per_sec\":1}\n]}\n";
    rejects(
        &file_of(&["a"]),
        &[
            ("\n]}\n", old, "entry 1: keys"),
            ("trajectory-v3", "snapshot-v1", "bad schema header"),
        ],
    );
}

#[test]
fn duplicate_entries_reject() {
    // Line-duplication class.
    let good = file_of(&["a", "b"]);
    let dup = format!("\n{}\n]}}\n", good.lines().rev().nth(1).unwrap());
    rejects(&good, &[("\n]}\n", &dup, "entry 2: duplicate entry")]);
}

#[test]
fn empty_label_rejects() {
    rejects(
        &file_of(&["a"]),
        &[
            ("\"label\":\"a\"", "\"label\":\"\"", "entry 0: empty label"),
            (
                "\"label\":\"old\"",
                "\"label\":\"\"",
                "archive: an item has no label",
            ),
        ],
    );
}
