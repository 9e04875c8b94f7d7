//! # reno-fuzz — deterministic fuzzing of the untrusted input surfaces
//!
//! Seven surfaces read input the rest of the code must survive, and each
//! must *reject, never panic*. The binary parsers among them are strict
//! enough to be bijections on their image: an accepted input re-serializes
//! to exactly the bytes that came in. [`SURFACES`] holds one harness per
//! surface, and the `reno-fuzz` binary runs the one its argument names:
//!
//! ```text
//! RENO_FUZZ_SEED=1 RENO_FUZZ_ITERS=100000 cargo run --release -p reno-fuzz -- <surface>
//! ```
//!
//! * `decode` — [`reno_isa::decode`] on uniformly random words, words with
//!   a random opcode field (so every opcode slot, legal or reserved, sees
//!   deep coverage), and 1–3-bit mutants of previously accepted words.
//!   Accepted words must satisfy `encode(decode(w)) == w`.
//! * `checkpoint` — `reno_func::Checkpoint::from_bytes` on mutants of real
//!   checkpoints: byte damage, page-count lies, page-record swaps and
//!   duplicates, halted-flag lies.
//! * `pass` — `reno_sample::CheckpointPass::from_bytes`, the
//!   multi-checkpoint container the DSE store persists: byte damage, count
//!   and record-length lies, record swaps (checkpoint-order violations),
//!   halted-flag and version lies.
//! * `store` — `reno_dse::decode_entry`, the store's entry frames: byte
//!   damage, payload-length, checksum and key lies, kind swaps, duplicated
//!   frames. A rejection is what the store turns into a cache miss.
//! * `journal` — `reno_dse::replay_journal` and `reno_dse::Lease::parse`:
//!   seal flips, torn tails, line deletions, duplications and swaps,
//!   interleaved-writer garbage, and lease-field lies. Replay must keep the
//!   longest intact prefix *idempotently* (replaying the reported prefix
//!   reproduces the same events) or reject, and never resurrect records
//!   past the first bad byte.
//! * `asm` — `reno_isa::Asm::assemble` on random programs (labels,
//!   forward and backward branches, `la_code` fixups) with planted
//!   undefined or duplicate labels and a rare out-of-range branch. The
//!   verdict must match the planted defect, and every accepted instruction
//!   must survive the encode/decode round trip.
//! * `report` — `reno_bench::report::validate`, the `BENCH_sim.json`
//!   trajectory reader: bit flips, line edits, truncations, digit
//!   corruption, quote deletion and garbage (invalid UTF-8 is decoded
//!   lossily, as an editor would). Anything accepted must flow through the
//!   `check` + `render` gate path panic-free.
//!
//! Every harness runs one loop, and the corpus-driven ones draw a real
//! input and apply one to three random arms from their surface's table.
//! Formats that share a shape share the arm: byte damage, line edits and
//! length-field lies each exist once. A mutation may never trigger a panic
//! or an attacker-sized allocation.
//!
//! Everything is seeded (`RENO_FUZZ_SEED`) and iteration-bounded
//! (`RENO_FUZZ_ITERS`), so a CI smoke run and a long local soak run the
//! same code and any finding reproduces exactly. Findings graduate into
//! plain `#[test]` regression cases under
//! `crates/isa/tests/decode_corpus.rs`,
//! `crates/func/tests/checkpoint_corpus.rs`,
//! `crates/sample/tests/pass_corpus.rs`,
//! `crates/dse/tests/store_corpus.rs`,
//! `crates/dse/tests/journal_corpus.rs`, `crates/isa/tests/asm_corpus.rs`
//! and `crates/bench/tests/report_corpus.rs`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reno_bench::report::Metric;
use reno_dse::{
    decode_entry, encode_entry, header_line, replay_journal, sealed_line, EntryKind, JournalEvent,
    Lease,
};
use reno_func::{Checkpoint, Cpu, PAGE_BYTES};
use reno_isa::{decode, encode, Asm, AsmError, Program, Reg};
use reno_par::Knob;
use reno_sample::{CheckpointPass, SampleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default iteration count: what the acceptance bar asks of a local soak.
const DEFAULT_ITERS: u64 = 100_000;
/// Default deterministic seed (CI and local runs agree unless overridden).
const DEFAULT_SEED: u64 = 0x5eed_4e40;

/// A surface's harness: fuzzes it for `(seed, iters)`.
pub type Harness = fn(u64, u64) -> FuzzReport;

/// Every fuzzed surface: its name on the `reno-fuzz` command line and its
/// harness.
pub const SURFACES: &[(&str, Harness)] = &[
    ("decode", run_decode),
    ("checkpoint", run_checkpoint),
    ("pass", run_pass),
    ("store", run_store),
    ("journal", run_journal),
    ("asm", run_asm),
    ("report", run_report),
];

/// Reads `RENO_FUZZ_ITERS`, falling back to 100k iterations when unset.
///
/// # Panics
///
/// Panics, naming the valid values, when it is set to anything but a whole
/// number: a typo must not silently run the default-length soak.
pub fn iters_from_env() -> u64 {
    ITERS.read().unwrap_or(DEFAULT_ITERS)
}

/// Reads `RENO_FUZZ_SEED`, falling back to a fixed default seed when unset.
///
/// # Panics
///
/// Panics, naming the valid values, when it is set to anything but a whole
/// number: a typo must not silently fuzz the default stream.
pub fn seed_from_env() -> u64 {
    SEED.read().unwrap_or(DEFAULT_SEED)
}

const ITERS: Knob<u64> = Knob {
    name: "RENO_FUZZ_ITERS",
    valid: "a whole number, or unset for the default",
    accept: |s| s.parse().ok(),
};

const SEED: Knob<u64> = Knob {
    name: "RENO_FUZZ_SEED",
    valid: "a whole number, or unset for the default",
    accept: |s| s.parse().ok(),
};

/// Outcome tallies of one fuzz run. `failures` holds human-readable
/// reproduction notes for the first few contract violations (empty on a
/// clean run).
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Inputs the surface accepted (and that met its contract).
    pub accepted: u64,
    /// Inputs the surface rejected with a structured error.
    pub rejected: u64,
    /// Contract violations: panics, accepted inputs that failed
    /// re-serialization equality, or verdicts the planted defects
    /// contradict. Capped at [`FuzzReport::MAX_FAILURES`].
    pub failures: Vec<String>,
    /// Total violations seen (counts past the stored cap).
    pub failure_count: u64,
}

impl FuzzReport {
    /// Stored-failure cap (the count keeps going past it).
    pub const MAX_FAILURES: usize = 10;

    /// True when the run finished without a single contract violation.
    pub fn clean(&self) -> bool {
        self.failure_count == 0
    }
}

/// What one input did to its surface's contract.
enum Verdict {
    Accepted,
    Rejected,
    Violation(String),
}

/// The one fuzz loop: `iters` steps from `seed`, each producing one input
/// and judging it. A violation's note names the iteration and the seed, so
/// re-running with that seed reproduces it.
fn run(seed: u64, iters: u64, mut step: impl FnMut(&mut SmallRng) -> Verdict) -> FuzzReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        match step(&mut rng) {
            Verdict::Accepted => report.accepted += 1,
            Verdict::Rejected => report.rejected += 1,
            Verdict::Violation(note) => {
                report.failure_count += 1;
                if report.failures.len() < FuzzReport::MAX_FAILURES {
                    report
                        .failures
                        .push(format!("{note}, iter {i} (seed {seed})"));
                }
            }
        }
    }
    report
}

/// One uniformly chosen corpus entry.
fn pick<'a, T>(corpus: &'a [T], rng: &mut SmallRng) -> &'a T {
    &corpus[rng.gen_range(0usize..corpus.len())]
}

/// A mutation arm: one random edit of an input's bytes. Every arm takes the
/// growable buffer, including those that never resize it.
type Arm = fn(&mut Vec<u8>, &mut SmallRng);

/// Applies one to three arms, each drawn uniformly from `arms`.
fn mutate(mut bytes: Vec<u8>, arms: &[Arm], rng: &mut SmallRng) -> Vec<u8> {
    for _ in 0..rng.gen_range(1u32..=3) {
        pick(arms, rng)(&mut bytes, rng);
    }
    bytes
}

/// The round-trip contract: `parse` accepts or rejects `bytes` without
/// panicking, and whatever it accepts renders back to exactly `bytes`, so
/// a mutation can never smuggle in a value that claims to be the bytes it
/// came from.
fn round_trip<T, E>(
    what: &str,
    bytes: &[u8],
    parse: impl FnOnce(&[u8]) -> Result<T, E>,
    render: impl FnOnce(&T) -> Vec<u8>,
) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| parse(bytes))) {
        Err(_) => Verdict::Violation(format!("{what} panicked on {}-byte input", bytes.len())),
        Ok(Err(_)) => Verdict::Rejected,
        Ok(Ok(v)) if render(&v) == bytes => Verdict::Accepted,
        Ok(Ok(_)) => Verdict::Violation(format!(
            "{what} accepted a {}-byte input that does not re-serialize to itself",
            bytes.len()
        )),
    }
}

// --------------------------------------------------------------- byte arms

#[allow(clippy::ptr_arg)] // an `Arm`
fn flip_bit(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    if !bytes.is_empty() {
        let i = rng.gen_range(0usize..bytes.len());
        bytes[i] ^= 1 << rng.gen_range(0u32..8);
    }
}

#[allow(clippy::ptr_arg)] // an `Arm`
fn overwrite_byte(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    if !bytes.is_empty() {
        let i = rng.gen_range(0usize..bytes.len());
        bytes[i] = rng.gen::<u8>();
    }
}

/// A torn write: keep a random prefix.
fn truncate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let keep = rng.gen_range(0usize..=bytes.len());
    bytes.truncate(keep);
}

fn garbage(rng: &mut SmallRng) -> Vec<u8> {
    (0..rng.gen_range(1usize..=16))
        .map(|_| rng.gen::<u8>())
        .collect()
}

fn append_garbage(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    bytes.extend(garbage(rng));
}

fn insert_garbage(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let at = rng.gen_range(0usize..=bytes.len());
    bytes.splice(at..at, garbage(rng));
}

// ------------------------------------------------------ line and span arms

/// `(start, end)` of every line, newline included; an unterminated last
/// line counts too.
fn line_spans(b: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < b.len() {
        spans.push((start, b.len()));
    }
    spans
}

/// Swaps two distinct random spans (lines, records), if there are two.
fn swap_spans(bytes: &mut Vec<u8>, spans: &[(usize, usize)], rng: &mut SmallRng) {
    if spans.len() >= 2 {
        let a = rng.gen_range(0usize..spans.len());
        let b = rng.gen_range(0usize..spans.len());
        if a != b {
            let (a, b) = (a.min(b), a.max(b));
            let sa = bytes[spans[a].0..spans[a].1].to_vec();
            let sb = bytes[spans[b].0..spans[b].1].to_vec();
            bytes.splice(spans[b].0..spans[b].1, sa);
            bytes.splice(spans[a].0..spans[a].1, sb);
        }
    }
}

/// A lost line: a header, a record or a footer.
fn delete_line(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let spans = line_spans(bytes);
    if !spans.is_empty() {
        let (s, e) = *pick(&spans, rng);
        bytes.drain(s..e);
    }
}

/// A line doubled in place: a replayed append, a doubled header.
fn duplicate_line(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let spans = line_spans(bytes);
    if !spans.is_empty() {
        let (s, e) = *pick(&spans, rng);
        let line = bytes[s..e].to_vec();
        bytes.splice(e..e, line);
    }
}

/// Lines out of order: records reordered, a header displaced.
fn swap_lines(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let spans = line_spans(bytes);
    swap_spans(bytes, &spans, rng);
}

// -------------------------------------------------------------- field arms

/// Rewrites the `width`-byte little-endian field at `off` as `value(old)`,
/// when the input reaches that far.
fn set_field(bytes: &mut [u8], off: usize, width: usize, value: impl FnOnce(u64) -> u64) {
    if let Some(field) = bytes.get_mut(off..off + width) {
        let old = field.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
        field.copy_from_slice(&value(old).to_le_bytes()[..width]);
    }
}

/// A length-field lie: the field's maximum, a random value, or the real
/// value plus 1..=`bump` — a claim the bytes behind it cannot back, which
/// must reject before it sizes any allocation.
fn lie_length(bytes: &mut [u8], off: usize, width: usize, bump: u64, rng: &mut SmallRng) {
    set_field(bytes, off, width, |real| match rng.gen_range(0u32..3) {
        0 => u64::MAX,
        1 => rng.gen::<u64>(),
        _ => real.wrapping_add(rng.gen_range(1u64..=bump)),
    });
}

/// A boolean word holding neither 0 nor 1.
fn lie_flag(bytes: &mut [u8], off: usize, rng: &mut SmallRng) {
    set_field(bytes, off, 8, |_| rng.gen_range(2u64..=u64::MAX));
}

/// A format-version bump; the pass and store frames both keep the version
/// at bytes 8..12, after an 8-byte magic.
#[allow(clippy::ptr_arg)] // an `Arm`
fn bump_version(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    set_field(bytes, 8, 4, |_| rng.gen::<u64>());
}

// ------------------------------------------------------------------ decode

/// The decode contract: decode-or-reject without panic; an accepted word
/// re-encodes to itself (strict canonical decode is a bijection on the
/// image).
fn check_decode(word: u32) -> Verdict {
    match catch_unwind(|| decode(word)) {
        Err(_) => Verdict::Violation(format!("decode(0x{word:08x}) panicked")),
        Ok(Err(_)) => Verdict::Rejected,
        Ok(Ok(inst)) => match encode(&inst) {
            back if back == word => Verdict::Accepted,
            back => Verdict::Violation(format!(
                "decode(0x{word:08x}) accepted non-canonical form (re-encodes to 0x{back:08x})"
            )),
        },
    }
}

fn run_decode(seed: u64, iters: u64) -> FuzzReport {
    // Known-legal words to mutate, so near-legal encodings probe each
    // format's pad and canonicality rules; one trivial add keeps the
    // mutation arm live from the first iteration.
    let mut legal: Vec<u32> = vec![encode(&reno_isa::Inst::alu_ri(
        reno_isa::Opcode::Addi,
        Reg::T0,
        Reg::T0,
        1,
    ))];
    run(seed, iters, |rng| {
        let word: u32 = match rng.gen_range(0u32..3) {
            0 => rng.gen::<u32>(),
            1 => (rng.gen_range(0u32..64) << 26) | (rng.gen::<u32>() & 0x03ff_ffff),
            _ => {
                let mut w = *pick(&legal, rng);
                for _ in 0..rng.gen_range(1u32..=3) {
                    w ^= 1 << rng.gen_range(0u32..32);
                }
                w
            }
        };
        let verdict = check_decode(word);
        if matches!(verdict, Verdict::Accepted) && legal.len() < 4096 {
            legal.push(word);
        }
        verdict
    })
}

// -------------------------------------------------------------- checkpoint

/// Byte offset of the `npages` length field in a serialized checkpoint:
/// magic + version + register file + (pc, halted, checksum, executed) +
/// instruction-mix words.
const NPAGES_OFFSET: usize = 8 + 4 + 8 * Reg::COUNT + 8 * 4 + 8 * 11;

/// Byte offset of the halted word in a serialized checkpoint (after pc).
const CK_HALTED_OFFSET: usize = 8 + 4 + 8 * Reg::COUNT + 8;

/// Size of one serialized page record (page number + contents).
const PAGE_RECORD: usize = 8 + PAGE_BYTES;

/// A small program whose stores spread across several pages, so corpus
/// checkpoints carry genuine multi-page deltas.
fn corpus_program() -> Program {
    let mut a = Asm::named("fuzz-corpus");
    let buf = a.zeros("buf", 6 * PAGE_BYTES);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 40);
    a.li(Reg::T1, 0);
    a.label("loop");
    a.st(Reg::T0, Reg::S0, 0);
    // Stride just under a page so successive iterations dirty new pages.
    a.addi(Reg::S0, Reg::S0, 4000);
    a.ld(Reg::T2, Reg::S0, -4000);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::T1);
    a.halt();
    a.assemble().expect("corpus program assembles")
}

/// Serialized checkpoints of a real machine at several execution depths:
/// entry (zero delta), mid-loop (several dirty pages), and the halted end
/// state.
fn checkpoint_corpus() -> Vec<Vec<u8>> {
    let p = corpus_program();
    let mut cpu = Cpu::new(&p);
    let mut corpus = vec![Checkpoint::take(&cpu, &p).to_bytes()];
    for stop in [10u64, 80, 200] {
        while cpu.executed() < stop && !cpu.halted() {
            cpu.step(&p).expect("corpus program executes cleanly");
        }
        corpus.push(Checkpoint::take(&cpu, &p).to_bytes());
    }
    cpu.run_program(&p, 1 << 20).expect("corpus program halts");
    corpus.push(Checkpoint::take(&cpu, &p).to_bytes());
    corpus
}

fn page_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let n = bytes.len().saturating_sub(NPAGES_OFFSET + 4) / PAGE_RECORD;
    (0..n)
        .map(|k| NPAGES_OFFSET + 4 + k * PAGE_RECORD)
        .map(|s| (s, s + PAGE_RECORD))
        .collect()
}

const CHECKPOINT_ARMS: &[Arm] = &[
    flip_bit,
    overwrite_byte,
    truncate,
    append_garbage,
    // Claim up to u32::MAX pages (16 TiB of records) without the bytes.
    |b, rng| lie_length(b, NPAGES_OFFSET, 4, 4, rng),
    // Breaks the sorted-pages invariant.
    |b, rng| {
        let spans = page_spans(b);
        swap_spans(b, &spans, rng);
    },
    // Duplicate the last page record and bump the count to match: a
    // structurally valid length with an invalid page order.
    |b, _| {
        let n = page_spans(b).len();
        if n >= 1 {
            let rec = b[b.len() - PAGE_RECORD..].to_vec();
            b.extend_from_slice(&rec);
            set_field(b, NPAGES_OFFSET, 4, |_| n as u64 + 1);
        }
    },
    |b, rng| lie_flag(b, CK_HALTED_OFFSET, rng),
];

/// A checkpoint that round-trips cannot restore silently-wrong state while
/// claiming to be the bytes it came from.
fn run_checkpoint(seed: u64, iters: u64) -> FuzzReport {
    let corpus = checkpoint_corpus();
    run(seed, iters, |rng| {
        let bytes = mutate(pick(&corpus, rng).clone(), CHECKPOINT_ARMS, rng);
        round_trip(
            "Checkpoint::from_bytes",
            &bytes,
            Checkpoint::from_bytes,
            Checkpoint::to_bytes,
        )
    })
}

// -------------------------------------------------------------------- pass
//
// Field layout of a serialized `reno_sample::CheckpointPass`: magic 0..8,
// version 8..12, total_insts 12..20, halted 20..28, checksum 28..36, digest
// 36..44, checkpoint count 44..48, then per-checkpoint records of `u32`
// length + `Checkpoint` bytes.

/// Byte offset of the checkpoint-count field in a serialized pass.
const PASS_COUNT_OFFSET: usize = 8 + 4 + 8 * 4;

/// Spans of the per-checkpoint records (record = length prefix +
/// checkpoint bytes) as far as the byte stream can back them.
fn pass_record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = PASS_COUNT_OFFSET + 4;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = pos.checked_add(4 + len).filter(|&e| e <= bytes.len()) else {
            break;
        };
        spans.push((pos, end));
        pos = end;
    }
    spans
}

/// Serialized [`CheckpointPass`] images: a real zero-checkpoint pass from a
/// single-segment program, plus synthetic multi-checkpoint passes embedding
/// the real checkpoint corpus (whose `executed` depths are strictly
/// increasing, as the parser demands), so mutations probe the header
/// fields, the count, and the record framing.
fn pass_corpus() -> Vec<Vec<u8>> {
    let p = corpus_program();
    let real = CheckpointPass::compute(&p, &SampleConfig::new(64, 128, 4096));
    assert!(real.error.is_none(), "corpus program runs cleanly");

    let cks = checkpoint_corpus();
    let synthetic = |checkpoints: Vec<Vec<u8>>| {
        CheckpointPass {
            checkpoints,
            total_insts: 0x1234,
            halted: true,
            checksum: 0xdead_beef,
            digest: 0x0bad_cafe,
            error: None,
        }
        .to_bytes()
    };
    vec![
        real.to_bytes(),
        synthetic(vec![cks[1].clone()]),
        synthetic(cks[1..].to_vec()),
    ]
}

const PASS_ARMS: &[Arm] = &[
    flip_bit,
    overwrite_byte,
    truncate,
    append_garbage,
    |b, rng| lie_length(b, PASS_COUNT_OFFSET, 4, 4, rng),
    |b, rng| {
        let spans = pass_record_spans(b);
        if !spans.is_empty() {
            let (s, _) = *pick(&spans, rng);
            lie_length(b, s, 4, 8, rng);
        }
    },
    // Every record stays valid; their `executed` order breaks.
    |b, rng| {
        let spans = pass_record_spans(b);
        swap_spans(b, &spans, rng);
    },
    |b, rng| lie_flag(b, 20, rng),
    bump_version,
];

/// A pass must reject as a structured `PassError` or round-trip, so a
/// corrupt cached pass can never smuggle a bad restore image into a
/// sampled run.
fn run_pass(seed: u64, iters: u64) -> FuzzReport {
    let corpus = pass_corpus();
    run(seed, iters, |rng| {
        let bytes = mutate(pick(&corpus, rng).clone(), PASS_ARMS, rng);
        round_trip(
            "CheckpointPass::from_bytes",
            &bytes,
            CheckpointPass::from_bytes,
            CheckpointPass::to_bytes,
        )
    })
}

// ------------------------------------------------------------------- store
//
// Field layout of a `reno-dse` store-entry frame: magic 0..8, version
// 8..12, kind 12, key 13..21, payload-len 21..29, checksum 29..37, payload
// 37.. .

/// Real frames of both kinds, with payloads from empty through a 32-byte
/// cell result to multi-KiB checkpoint images, so mutations probe every
/// field against every payload size class.
fn store_corpus() -> Vec<(Vec<u8>, EntryKind, u64)> {
    let mut corpus = vec![
        (
            encode_entry(EntryKind::Cell, 0x1111, &[]),
            EntryKind::Cell,
            0x1111,
        ),
        (
            encode_entry(EntryKind::Cell, 0x2222, &[7u8; 32]),
            EntryKind::Cell,
            0x2222,
        ),
    ];
    for (i, ck) in checkpoint_corpus().into_iter().enumerate() {
        let key = 0x3333 + i as u64;
        corpus.push((
            encode_entry(EntryKind::Pass, key, &ck),
            EntryKind::Pass,
            key,
        ));
    }
    corpus
}

const STORE_ARMS: &[Arm] = &[
    flip_bit,
    overwrite_byte,
    truncate,
    append_garbage,
    // Claim up to u64::MAX payload bytes.
    |b, rng| lie_length(b, 21, 8, 8, rng),
    // Checksum lie.
    |b, rng| set_field(b, 29, 8, |_| rng.gen::<u64>()),
    // A moved or renamed object file: one bit of the key.
    |b, rng| {
        if b.len() >= 21 {
            let i = 13 + rng.gen_range(0usize..8);
            b[i] ^= 1 << rng.gen_range(0u32..8);
        }
    },
    // Kind swap, or an invalid kind.
    |b, rng| {
        if b.len() >= 13 {
            b[12] = match rng.gen_range(0u32..3) {
                0 => 1,
                1 => 2,
                _ => rng.gen::<u8>(),
            };
        }
    },
    // The whole frame twice: the length field disagrees with the size.
    |b, _| {
        let dup = b.clone();
        b.extend_from_slice(&dup);
    },
    bump_version,
];

/// An accepted frame re-encodes byte-exactly (so it never claims more
/// payload than the input held), and a mutation can never smuggle a wrong
/// payload through a frame that still claims to be authentic.
fn run_store(seed: u64, iters: u64) -> FuzzReport {
    let corpus = store_corpus();
    run(seed, iters, |rng| {
        let (frame, kind, key) = pick(&corpus, rng);
        let bytes = mutate(frame.clone(), STORE_ARMS, rng);
        round_trip(
            "decode_entry",
            &bytes,
            |b| decode_entry(b, *kind, *key),
            |payload| encode_entry(*kind, *key, payload),
        )
    })
}

// ----------------------------------------------------------------- journal
//
// `reno-dse` sweep journals and lease files: the two sealed-line formats a
// resuming process replays after an arbitrary crash, or after a hostile or
// buggy co-writer scribbled on the store.

/// The sweep hash every journal corpus file is replayed against.
const JOURNAL_FUZZ_SWEEP: u64 = 0xfee1_5afe_c0de_cafe;

/// Realistic journals at several shapes: empty, header-only, a long
/// mixed-record run (all four record types, duplicate keys, fail messages
/// with spaces, newlines and UTF-8), and a foreign-sweep file.
fn journal_corpus() -> Vec<Vec<u8>> {
    let ev = |bytes: &mut Vec<u8>, e: JournalEvent| bytes.extend_from_slice(e.to_line().as_bytes());
    let mut long = header_line(JOURNAL_FUZZ_SWEEP).into_bytes();
    for k in 0..6u64 {
        ev(&mut long, JournalEvent::Done { key: k * 0x1111 });
    }
    ev(
        &mut long,
        JournalEvent::Fail {
            key: 0x7777,
            message: "panicked at 'cell blew up':\n  main.rs:42 🦀".into(),
        },
    );
    ev(&mut long, JournalEvent::Timeout { key: 0x8888 });
    ev(&mut long, JournalEvent::PassUsed { key: 0x9999 });
    // Duplicate key with a different later verdict (later-wins upstream).
    ev(&mut long, JournalEvent::Done { key: 0x8888 });

    let mut short = header_line(JOURNAL_FUZZ_SWEEP).into_bytes();
    ev(&mut short, JournalEvent::Done { key: 0xabcd });

    let mut foreign = header_line(!JOURNAL_FUZZ_SWEEP).into_bytes();
    ev(&mut foreign, JournalEvent::Done { key: 0xabcd });

    vec![
        Vec::new(),
        header_line(JOURNAL_FUZZ_SWEEP).into_bytes(),
        short,
        long,
        foreign,
    ]
}

const JOURNAL_ARMS: &[Arm] = &[
    flip_bit,
    overwrite_byte,
    truncate,
    // Seal-targeted flip in the last 18 bytes of a line (the checksum field
    // and its separator): the subtlest tear.
    |b, rng| {
        let spans = line_spans(b);
        if let Some(&(s, e)) = spans.get(rng.gen_range(0usize..spans.len().max(1))) {
            let lo = s.max(e.saturating_sub(18));
            if lo < e {
                let i = rng.gen_range(lo..e);
                b[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
    },
    delete_line,
    duplicate_line,
    swap_lines,
    // A *correctly sealed* line of the wrong shape at a line boundary: an
    // unknown record type, an extra field, or a lease line, which an
    // interleaved writer could legitimately produce.
    |b, rng| {
        let spans = line_spans(b);
        let at = if spans.is_empty() {
            0
        } else {
            pick(&spans, rng).0
        };
        let body = match rng.gen_range(0u32..4) {
            0 => format!("evict {:016x}", rng.gen::<u64>()),
            1 => format!("done {:016x} extra", rng.gen::<u64>()),
            2 => format!(
                "lease {} {:016x} {}",
                rng.gen::<u32>(),
                rng.gen::<u64>(),
                rng.gen::<u32>()
            ),
            _ => "done".to_string(),
        };
        b.splice(at..at, sealed_line(&body).into_bytes());
    },
    insert_garbage,
];

/// The journal contract: `replay_journal` accepts or rejects without
/// panicking, reports an `intact_len` within bounds, and is
/// **prefix-idempotent**: replaying exactly the bytes it called intact
/// reproduces the same events and length. Resume correctness rides on
/// that: truncate-to-intact + append must not change the meaning of what
/// survived.
fn check_journal(bytes: &[u8]) -> Verdict {
    let replay =
        |b: &[u8]| catch_unwind(AssertUnwindSafe(|| replay_journal(b, JOURNAL_FUZZ_SWEEP)));
    match replay(bytes) {
        Err(_) => Verdict::Violation(format!(
            "replay_journal panicked on {}-byte input",
            bytes.len()
        )),
        Ok(Err(_)) => Verdict::Rejected, // foreign sweep: structured error
        Ok(Ok(r)) if r.intact_len > bytes.len() => Verdict::Violation(format!(
            "intact_len {} exceeds input length {}",
            r.intact_len,
            bytes.len()
        )),
        Ok(Ok(r)) => match replay(&bytes[..r.intact_len]) {
            Ok(Ok(again)) if again.events == r.events && again.intact_len == r.intact_len => {
                Verdict::Accepted
            }
            other => Verdict::Violation(format!(
                "replay is not prefix-idempotent (intact_len {}): {other:?}",
                r.intact_len
            )),
        },
    }
}

/// Three in four inputs are mutated corpus journals; the rest are mutated
/// renderings of random leases, which must parse to something that
/// re-renders byte-exactly or not at all (a torn or tampered lease reads as
/// *stale*, never as someone's live claim).
fn run_journal(seed: u64, iters: u64) -> FuzzReport {
    let corpus = journal_corpus();
    run(seed, iters, |rng| {
        if rng.gen_range(0u32..4) == 0 {
            let lease = Lease {
                pid: rng.gen::<u32>(),
                nonce: rng.gen::<u64>(),
                expires_unix_ms: rng.gen_range(0u64..1 << 48),
            };
            let bytes = mutate(lease.render().into_bytes(), JOURNAL_ARMS, rng);
            round_trip(
                "Lease::parse",
                &bytes,
                |b| Lease::parse(b).ok_or(()),
                |l| l.render().into_bytes(),
            )
        } else {
            check_journal(&mutate(pick(&corpus, rng).clone(), JOURNAL_ARMS, rng))
        }
    })
}

// ------------------------------------------------------------------ report
//
// The repo-root `BENCH_sim.json` perf trajectory is the one text format the
// repo reads back after a human, or an interrupted `bench_report --record`,
// may have edited it. The gate runs on CI, where a panic is a lost signal.

/// Valid v3 trajectory files: an archive with no runs, and the same archive
/// followed by a full `pre-opt`/`opt` window of five `detail_default` runs
/// a side (so the gate path is live) and one unpaired `dse_sweep` run.
///
/// # Panics
///
/// Panics if the repository's `BENCHMARK.json` does not parse.
fn report_corpus() -> Vec<String> {
    use reno_bench::report::{benchmark_metrics, record, EMPTY_FILE};
    let metrics = benchmark_metrics().expect("BENCHMARK.json parses");
    let table: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": 12.5, \"unit\": \"s\"}}", m.name))
        .collect();
    let run = |workload: &str| {
        format!(
            "# meta {{\"workload\": \"{workload}\", \"trace\": \"0\", \"workers\": \"2\", \
             \"host_cores\": \"2\", \"rustc\": \"rustc 1.95.0\"}}\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            table.join(", ")
        )
    };
    let archive = EMPTY_FILE.replace(
        "[\n],",
        "[\n{\"label\":\"pre-old\",\"reno_cycles_per_sec\":900},\n\
         {\"label\":\"old\",\"reno_cycles_per_sec\":950}\n],",
    );
    let runs = (0..10)
        .map(|i| (["pre-opt", "opt"][i % 2], "detail_default"))
        .chain([("hot", "dse_sweep")]);
    let full = runs
        .enumerate()
        .fold(archive.clone(), |text, (i, (label, wl))| {
            let ts = 1000 + 60 * i as u64;
            record(Some(&text), label, &run(wl), ts, &metrics).expect("corpus runs record")
        });
    vec![archive, full]
}

const REPORT_ARMS: &[Arm] = &[
    flip_bit,
    // Overwrite one byte with a structural character.
    |b, rng| {
        if !b.is_empty() {
            let i = rng.gen_range(0usize..b.len());
            b[i] = *pick(&b"{}[]\",:.-0 "[..], rng);
        }
    },
    delete_line,
    duplicate_line,
    swap_lines,
    truncate,
    // Corrupt one digit: sign flips, non-numeric junk, huge exponents.
    |b, rng| {
        let digits: Vec<usize> = (0..b.len()).filter(|&i| b[i].is_ascii_digit()).collect();
        if !digits.is_empty() {
            let i = *pick(&digits, rng);
            b[i] = *pick(&b"-xe."[..], rng);
        }
    },
    // Delete one quoted token (a key name, a string value, a quote pair),
    // desynchronizing the key/value structure.
    |b, rng| {
        let quotes: Vec<usize> = (0..b.len()).filter(|&i| b[i] == b'"').collect();
        if quotes.len() >= 2 {
            let k = rng.gen_range(0usize..quotes.len() - 1);
            b.drain(quotes[k]..=quotes[k + 1]);
        }
    },
    insert_garbage,
];

/// The report contract: `validate` accepts or rejects without panic, and
/// an accepted trajectory survives `check` + `render` without panicking.
fn check_report(text: &str, metrics: &[Metric]) -> Verdict {
    use reno_bench::report::{check, render, validate};
    match catch_unwind(AssertUnwindSafe(|| validate(text, metrics))) {
        Err(_) => Verdict::Violation(format!(
            "report::validate panicked on {}-byte input",
            text.len()
        )),
        Ok(Err(_)) => Verdict::Rejected,
        Ok(Ok(trajectory)) => match catch_unwind(AssertUnwindSafe(|| {
            render(&trajectory, &check(&trajectory))
        })) {
            Err(_) => Verdict::Violation(format!(
                "report::check/render panicked on a validated {}-run trajectory",
                trajectory.runs.len()
            )),
            Ok(_) => Verdict::Accepted,
        },
    }
}

fn run_report(seed: u64, iters: u64) -> FuzzReport {
    let corpus = report_corpus();
    let metrics = reno_bench::report::benchmark_metrics().expect("BENCHMARK.json parses");
    run(seed, iters, |rng| {
        let bytes = mutate(pick(&corpus, rng).clone().into_bytes(), REPORT_ARMS, rng);
        check_report(&String::from_utf8_lossy(&bytes), &metrics)
    })
}

// --------------------------------------------------------------------- asm

/// What the generator deliberately planted in one random program, so the
/// harness can check `assemble()`'s verdict against ground truth.
#[derive(Clone, Debug, Default)]
struct PlantedDefects {
    /// Labels referenced by a branch but never defined.
    undefined: Vec<String>,
    /// Labels defined more than once.
    duplicated: Vec<String>,
    /// A branch whose resolved offset cannot fit in 16 bits.
    out_of_range: bool,
}

/// Builds one random program. Returns the builder and the planted defects.
fn gen_asm_program(rng: &mut SmallRng) -> (Asm, PlantedDefects) {
    const REGS: [Reg; 6] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::S0, Reg::A0];
    let mut a = Asm::named("fuzz-asm");
    let mut planted = PlantedDefects::default();
    let r = |rng: &mut SmallRng| REGS[rng.gen_range(0usize..REGS.len())];

    // Rare arm: an out-of-range branch needs > 32767 instructions between
    // the site and its target, which dwarfs a normal iteration — keep it
    // cheap and dedicated.
    if rng.gen_range(0u32..256) == 0 {
        a.label("near");
        a.br("far");
        for _ in 0..33_000 {
            a.addi(Reg::T0, Reg::T0, 1);
        }
        a.label("far");
        a.halt();
        planted.out_of_range = true;
        return (a, planted);
    }

    let n_labels = rng.gen_range(1usize..=5);
    let labels: Vec<String> = (0..n_labels).map(|i| format!("L{i}")).collect();
    // Each label is either defined once, left undefined (forcing any
    // reference to fail), or — rarely — defined twice.
    let mut defined: Vec<bool> = Vec::new();
    let mut dup: Option<usize> = None;
    for (i, l) in labels.iter().enumerate() {
        let roll = rng.gen_range(0u32..10);
        if roll == 0 {
            defined.push(false);
            planted.undefined.push(l.clone()); // provisional: only a defect if referenced
        } else {
            defined.push(true);
            if roll == 1 && dup.is_none() {
                dup = Some(i);
                planted.duplicated.push(l.clone());
            }
        }
    }
    // Only defined labels get placed; spread definitions (and the one
    // duplicate) across the instruction stream below.
    let mut to_place: Vec<String> = labels
        .iter()
        .zip(&defined)
        .filter(|(_, d)| **d)
        .map(|(l, _)| l.clone())
        .collect();
    if let Some(i) = dup {
        to_place.push(labels[i].clone());
    }

    let n_insts = rng.gen_range(4usize..40);
    let mut referenced: Vec<String> = Vec::new();
    for _ in 0..n_insts {
        if !to_place.is_empty() && rng.gen_range(0u32..4) == 0 {
            let l = to_place.remove(rng.gen_range(0usize..to_place.len()));
            a.label(&l);
        }
        match rng.gen_range(0u32..8) {
            0 => {
                a.add(r(rng), r(rng), r(rng));
            }
            1 => {
                a.addi(r(rng), r(rng), rng.gen_range(-100i16..=100));
            }
            2 => {
                a.xor(r(rng), r(rng), r(rng));
            }
            3 => {
                a.slli(r(rng), r(rng), rng.gen_range(0i16..64));
            }
            4 => {
                a.mov(r(rng), r(rng));
            }
            5 | 6 => {
                let l = &labels[rng.gen_range(0usize..labels.len())];
                referenced.push(l.clone());
                match rng.gen_range(0u32..3) {
                    0 => a.beqz(r(rng), l),
                    1 => a.bnez(r(rng), l),
                    _ => a.br(l),
                };
            }
            _ => {
                let l = &labels[rng.gen_range(0usize..labels.len())];
                referenced.push(l.clone());
                a.la_code(r(rng), l);
            }
        }
    }
    // Place any leftover labels at the end, then terminate.
    for l in to_place {
        a.label(&l);
    }
    a.halt();

    // An undefined label is only a defect if something referenced it.
    planted.undefined.retain(|l| referenced.contains(l));
    (a, planted)
}

/// The assembler contract: `assemble()` returns `Ok` or a structured
/// [`AsmError`], never panics, and its verdict matches the planted
/// defects. A clean program must assemble, a program with an undefined or
/// duplicate label or an out-of-range branch must fail with that error,
/// and every instruction of an accepted program must encode/decode
/// round-trip.
fn check_asm(a: &Asm, planted: &PlantedDefects) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| a.clone().assemble())) {
        Err(_) => Verdict::Violation("assemble() panicked".into()),
        Ok(Err(e)) => {
            let justified = match &e {
                AsmError::UndefinedLabel(l) => planted.undefined.contains(l),
                AsmError::DuplicateLabel(l) => planted.duplicated.contains(l),
                AsmError::BranchOutOfRange { .. } => planted.out_of_range,
            };
            if justified {
                Verdict::Rejected
            } else {
                Verdict::Violation(format!("spurious {e} on a clean program"))
            }
        }
        Ok(Ok(_)) if !planted.undefined.is_empty() || !planted.duplicated.is_empty() => {
            Verdict::Violation(format!(
                "assemble() accepted a program with planted defects {planted:?}"
            ))
        }
        Ok(Ok(p)) => {
            for (pc, inst) in p.insts.iter().enumerate() {
                let word = encode(inst);
                match decode(word) {
                    Ok(back) if back == *inst => {}
                    other => {
                        return Verdict::Violation(format!(
                            "inst at pc {pc} does not round-trip ({inst:?} -> {word:#010x} -> {other:?})"
                        ))
                    }
                }
            }
            Verdict::Accepted
        }
    }
}

fn run_asm(seed: u64, iters: u64) -> FuzzReport {
    run(seed, iters, |rng| {
        let (a, planted) = gen_asm_program(rng);
        check_asm(&a, &planted)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_fuzz_knobs_are_rejected_loudly() {
        for knob in [ITERS, SEED] {
            assert_eq!(knob.parse(None), Ok(None));
            assert_eq!(knob.parse(Some("")), Ok(None));
            assert_eq!(knob.parse(Some("30000")), Ok(Some(30000)));
            for bad in ["1e5", "-1", "0x10", "lots"] {
                let e = knob.parse(Some(bad)).unwrap_err();
                assert!(
                    e.starts_with(&format!("{}={bad:?}", knob.name)) && e.contains("whole number"),
                    "{e}"
                );
            }
        }
    }

    /// Runs the `SURFACES` entry `name` at a short smoke count: no
    /// violation, and both verdicts occur, so neither the accept nor the
    /// reject path is dead.
    fn smoke(name: &str, iters: u64) {
        let &(_, run) = SURFACES
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no surface {name:?}"));
        let r = run(DEFAULT_SEED, iters);
        assert!(r.clean(), "{name}: violations: {:?}", r.failures);
        assert!(
            r.accepted > 0 && r.rejected > 0,
            "{name}: {} accepted, {} rejected",
            r.accepted,
            r.rejected
        );
    }

    #[test]
    fn decode_fuzz_smoke_is_clean() {
        smoke("decode", 3000);
    }

    #[test]
    fn checkpoint_fuzz_smoke_is_clean() {
        smoke("checkpoint", 300);
    }

    #[test]
    fn pass_fuzz_smoke_is_clean() {
        smoke("pass", 300);
    }

    #[test]
    fn store_fuzz_smoke_is_clean() {
        smoke("store", 2000);
    }

    #[test]
    fn journal_fuzz_smoke_is_clean() {
        smoke("journal", 3000);
    }

    #[test]
    fn asm_fuzz_smoke_is_clean() {
        smoke("asm", 1500);
    }

    #[test]
    fn report_fuzz_smoke_is_clean() {
        smoke("report", 2000);
    }

    #[test]
    fn pass_corpus_is_valid_and_spans_shapes() {
        let corpus = pass_corpus();
        assert!(corpus.len() >= 3);
        let shapes: Vec<usize> = corpus
            .iter()
            .map(|b| {
                let p = CheckpointPass::from_bytes(b).expect("corpus entries parse");
                assert_eq!(p.to_bytes(), *b, "corpus entries round-trip");
                p.checkpoints.len()
            })
            .collect();
        assert!(shapes.contains(&0), "a zero-checkpoint pass is covered");
        assert!(
            shapes.iter().any(|&n| n >= 2),
            "a multi-checkpoint pass is covered: {shapes:?}"
        );
    }

    #[test]
    fn pass_count_offset_matches_format() {
        for bytes in &pass_corpus() {
            let p = CheckpointPass::from_bytes(bytes).expect("parses");
            let n = u32::from_le_bytes(
                bytes[PASS_COUNT_OFFSET..PASS_COUNT_OFFSET + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            assert_eq!(n as usize, p.checkpoints.len(), "offset constant is right");
        }
    }

    #[test]
    fn journal_corpus_replays_cleanly() {
        // The unmutated corpus must be fully intact (or a structured
        // foreign-sweep error) — otherwise the fuzzer starts from noise.
        for (i, bytes) in journal_corpus().iter().enumerate() {
            match replay_journal(bytes, JOURNAL_FUZZ_SWEEP) {
                Ok(r) => assert_eq!(r.intact_len, bytes.len(), "corpus file {i} intact"),
                Err(_) => assert_eq!(i, 4, "only the foreign-sweep file errors"),
            }
        }
    }

    #[test]
    fn report_corpus_is_valid_and_gates() {
        use reno_bench::report::{benchmark_metrics, check, validate};
        let metrics = benchmark_metrics().unwrap();
        for (i, file) in report_corpus().iter().enumerate() {
            let t = validate(file, &metrics)
                .unwrap_or_else(|e| panic!("corpus file {i} must validate: {e}"));
            assert!(!t.archive.is_empty() || !t.runs.is_empty());
        }
        // The window corpus file drives the gate path, not just parsing.
        let t = validate(&report_corpus()[1], &metrics).unwrap();
        let windows = check(&t);
        assert_eq!(windows.len(), 1);
        assert!(windows[0].pass(), "{windows:?}");
    }

    #[test]
    fn corpus_has_real_deltas() {
        let corpus = checkpoint_corpus();
        assert!(corpus.len() >= 4);
        let deepest = corpus
            .iter()
            .map(|b| Checkpoint::from_bytes(b).expect("corpus entries parse"))
            .map(|c| c.delta_pages())
            .max()
            .unwrap();
        assert!(deepest >= 3, "corpus spans multiple dirty pages: {deepest}");
    }

    #[test]
    fn npages_offset_matches_format() {
        let corpus = checkpoint_corpus();
        for bytes in &corpus {
            let ck = Checkpoint::from_bytes(bytes).expect("parses");
            let n = u32::from_le_bytes(
                bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            assert_eq!(n as usize, ck.delta_pages(), "offset constant is right");
            assert_eq!(
                bytes.len(),
                NPAGES_OFFSET + 4 + ck.delta_pages() * PAGE_RECORD,
                "record size constant is right"
            );
        }
    }
}
