//! # reno-fuzz — deterministic fuzzing of the untrusted byte surfaces
//!
//! The repository trusts exactly two byte formats it did not produce in the
//! same process: 32-bit instruction words handed to [`reno_isa::decode`],
//! and serialized [`reno_func::Checkpoint`] images handed to
//! `Checkpoint::from_bytes`. Both must *reject, never panic* on arbitrary
//! input, and both parsers are strict enough to be bijections on their
//! image — an accepted input re-serializes to exactly the bytes that came
//! in. This crate holds the harnesses that hammer on those two contracts:
//!
//! * [`run_decode_fuzz`] — byte-level fuzzing of instruction decode:
//!   uniformly random words, opcode-biased words, and bit-flip mutants of
//!   previously accepted encodings. Accepted words must satisfy
//!   `encode(decode(w)) == w`.
//! * [`run_checkpoint_fuzz`] — structure-aware mutational fuzzing of
//!   checkpoint deserialization over a corpus of real checkpoints: bit
//!   flips, truncations, extensions, length-field lies, and page-record
//!   shuffles. Accepted images must satisfy `to_bytes(from_bytes(x)) == x`,
//!   and a mutation may never trigger a panic or an attacker-sized
//!   allocation.
//! * [`run_pass_fuzz`] — the same contract one container up:
//!   `reno_sample::CheckpointPass::from_bytes`, the multi-checkpoint
//!   pass image the DSE store persists. Count and record-length lies,
//!   record swaps (checkpoint-order violations), header-field lies and
//!   byte damage must reject as a structured `PassError` without panic or
//!   attacker-sized allocation; accepted images round-trip byte-exactly.
//! * [`run_store_fuzz`] — the same contract for `reno-dse`'s store-entry
//!   frames (`decode_entry`): bit flips, truncations, length/checksum/key
//!   lies, kind swaps and duplicated frames must be rejected-as-miss, never
//!   panic, never over-allocate; accepted frames re-encode byte-exactly.
//! * [`run_report_fuzz`] — the `BENCH_sim.json` perf-trajectory reader
//!   (`reno_bench::report`): textual mutations of valid v3 trajectory
//!   files (bit flips, line deletions/duplications/swaps, truncations,
//!   digit corruption, quote deletion, garbage) must validate-or-reject
//!   without panicking, and anything accepted must flow through the
//!   `check` + `render` gate path panic-free.
//! * [`run_journal_fuzz`] — the sweep-journal and lease-file line formats
//!   (`reno_dse::replay_journal`, `reno_dse::Lease::parse`): seal flips,
//!   truncations, line deletions/duplications/swaps, interleaved-writer
//!   garbage and lease-field lies must replay the longest intact prefix
//!   (idempotently — replaying the reported prefix reproduces the same
//!   events) or reject, never panic, never resurrect records past the
//!   first bad byte; an accepted lease must re-render byte-exactly.
//! * [`run_asm_fuzz`] — a semi-trusted *text* surface:
//!   randomized `Asm` builder programs (labels, forward/backward branches,
//!   deliberate undefined/duplicate labels, a rare out-of-range-branch arm)
//!   must `assemble()`-or-`Err` without panicking, the error must match the
//!   defect the generator planted, and every accepted instruction must
//!   encode/decode round-trip.
//!
//! Everything is seeded (`RENO_FUZZ_SEED`) and iteration-bounded
//! (`RENO_FUZZ_ITERS`), so a CI smoke run and a long local soak use the same
//! binaries (`fuzz_decode`, `fuzz_checkpoint`, `fuzz_pass`, `fuzz_store`,
//! `fuzz_journal`, `fuzz_asm`, `fuzz_report`) and any finding reproduces
//! exactly. Findings graduate into plain `#[test]` regression cases under
//! `crates/isa/tests/decode_corpus.rs`,
//! `crates/func/tests/checkpoint_corpus.rs`,
//! `crates/sample/tests/pass_corpus.rs`,
//! `crates/dse/tests/store_corpus.rs`,
//! `crates/dse/tests/journal_corpus.rs`, `crates/isa/tests/asm_corpus.rs`
//! and `crates/bench/tests/report_corpus.rs`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reno_dse::{
    decode_entry, encode_entry, header_line, replay_journal, sealed_line, EntryKind, JournalEvent,
    Lease, HEADER_LEN,
};
use reno_func::{Checkpoint, Cpu, PAGE_BYTES};
use reno_isa::{decode, encode, Asm, AsmError, Program, Reg};
use reno_par::Knob;
use reno_sample::{CheckpointPass, SampleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default iteration count: what the acceptance bar asks of a local soak.
pub const DEFAULT_ITERS: u64 = 100_000;
/// Default deterministic seed (CI and local runs agree unless overridden).
pub const DEFAULT_SEED: u64 = 0x5eed_4e40;

/// Reads `RENO_FUZZ_ITERS`, falling back to `default` when unset.
///
/// # Panics
///
/// Panics, naming the valid values, when it is set to anything but a whole
/// number: a typo must not silently run the default-length soak.
pub fn iters_from_env(default: u64) -> u64 {
    ITERS.read().unwrap_or(default)
}

/// Reads `RENO_FUZZ_SEED`, falling back to `default` when unset.
///
/// # Panics
///
/// Panics, naming the valid values, when it is set to anything but a whole
/// number: a typo must not silently fuzz the default stream.
pub fn seed_from_env(default: u64) -> u64 {
    SEED.read().unwrap_or(default)
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
    /// Inputs the parser accepted (and that round-tripped byte-exactly).
    pub accepted: u64,
    /// Inputs the parser rejected with a structured `Err`.
    pub rejected: u64,
    /// Contract violations: panics, or accepted inputs that failed
    /// re-serialization equality. Capped at [`FuzzReport::MAX_FAILURES`].
    pub failures: Vec<String>,
    /// Total violations seen (counts past the stored cap).
    pub failure_count: u64,
}

impl FuzzReport {
    /// Stored-failure cap (the count keeps going past it).
    pub const MAX_FAILURES: usize = 10;

    fn fail(&mut self, msg: String) {
        self.failure_count += 1;
        if self.failures.len() < Self::MAX_FAILURES {
            self.failures.push(msg);
        }
    }

    /// True when the run finished without a single contract violation.
    pub fn clean(&self) -> bool {
        self.failure_count == 0
    }
}

// ------------------------------------------------------------------ decode

/// Fuzzes [`reno_isa::decode`] for `iters` iterations from `seed`.
///
/// Every word must decode-or-reject without panicking, and every accepted
/// word must re-encode to itself (strict canonical decode = bijection on
/// the image). Inputs mix uniform random words, words with a uniformly
/// random opcode field (so all 64 opcode slots — legal and reserved — see
/// deep coverage), and 1–3-bit mutants of previously accepted words (so
/// near-legal encodings probe each format's pad/canonicality rules).
pub fn run_decode_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    // Pool of known-legal words to mutate; seeded with one trivial add so
    // the mutation arm is live from iteration one.
    let mut legal: Vec<u32> = vec![encode(&reno_isa::Inst::alu_ri(
        reno_isa::Opcode::Addi,
        Reg::T0,
        Reg::T0,
        1,
    ))];
    for _ in 0..iters {
        let word: u32 = match rng.gen_range(0u32..3) {
            0 => rng.gen::<u32>(),
            1 => (rng.gen_range(0u32..64) << 26) | (rng.gen::<u32>() & 0x03ff_ffff),
            _ => {
                let base = legal[rng.gen_range(0usize..legal.len())];
                let mut w = base;
                for _ in 0..rng.gen_range(1u32..=3) {
                    w ^= 1 << rng.gen_range(0u32..32);
                }
                w
            }
        };
        check_decode_word(word, &mut report, Some(&mut legal));
    }
    report
}

/// One decode-contract check: decode-or-reject without panic; accepted
/// words re-encode to themselves. Newly accepted words are appended to
/// `legal` (bounded) for the mutation arm.
pub fn check_decode_word(word: u32, report: &mut FuzzReport, legal: Option<&mut Vec<u32>>) {
    match catch_unwind(|| decode(word)) {
        Err(_) => report.fail(format!("decode(0x{word:08x}) panicked")),
        Ok(Err(_)) => report.rejected += 1,
        Ok(Ok(inst)) => {
            let back = encode(&inst);
            if back != word {
                report.fail(format!(
                    "decode(0x{word:08x}) accepted non-canonical form (re-encodes to 0x{back:08x})"
                ));
                return;
            }
            report.accepted += 1;
            if let Some(pool) = legal {
                if pool.len() < 4096 {
                    pool.push(word);
                }
            }
        }
    }
}

// -------------------------------------------------------------- checkpoint

/// Byte offset of the `npages` length field in a serialized checkpoint:
/// magic + version + register file + (pc, halted, checksum, executed) +
/// instruction-mix words.
pub const NPAGES_OFFSET: usize = 8 + 4 + 8 * Reg::COUNT + 8 * 4 + 8 * 11;

/// Size of one serialized page record (page number + contents).
pub const PAGE_RECORD: usize = 8 + PAGE_BYTES;

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

/// Builds the mutation corpus: serialized checkpoints of a real machine at
/// several execution depths — entry (zero delta), mid-loop (several dirty
/// pages), and the halted end state.
pub fn checkpoint_corpus() -> Vec<Vec<u8>> {
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

/// Applies one random structure-aware mutation to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    match rng.gen_range(0u32..8) {
        // Single bit flip anywhere.
        0 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Overwrite one byte.
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = rng.gen::<u8>();
            }
        }
        // Truncate to a random prefix.
        2 => {
            let keep = rng.gen_range(0usize..=bytes.len());
            bytes.truncate(keep);
        }
        // Append random garbage.
        3 => {
            for _ in 0..rng.gen_range(1usize..=16) {
                bytes.push(rng.gen::<u8>());
            }
        }
        // Length-field lie: claim an arbitrary page count (up to u32::MAX ≈
        // 16 TiB of page records) without supplying the bytes.
        4 => {
            if bytes.len() >= NPAGES_OFFSET + 4 {
                let lie: u32 = match rng.gen_range(0u32..3) {
                    0 => u32::MAX,
                    1 => rng.gen::<u32>(),
                    _ => {
                        let real = u32::from_le_bytes(
                            bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4]
                                .try_into()
                                .expect("4 bytes"),
                        );
                        real.wrapping_add(rng.gen_range(1u32..=4))
                    }
                };
                bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
        // Swap two page records (breaks the sorted-pages invariant).
        5 => {
            let n = bytes.len().saturating_sub(NPAGES_OFFSET + 4) / PAGE_RECORD;
            if n >= 2 {
                let a = rng.gen_range(0usize..n);
                let b = rng.gen_range(0usize..n);
                if a != b {
                    let off = |k: usize| NPAGES_OFFSET + 4 + k * PAGE_RECORD;
                    let rec_a = bytes[off(a)..off(a) + PAGE_RECORD].to_vec();
                    let rec_b = bytes[off(b)..off(b) + PAGE_RECORD].to_vec();
                    bytes[off(a)..off(a) + PAGE_RECORD].copy_from_slice(&rec_b);
                    bytes[off(b)..off(b) + PAGE_RECORD].copy_from_slice(&rec_a);
                }
            }
        }
        // Duplicate the last page record and bump the count to match
        // (structurally valid length, invalid page ordering).
        6 => {
            let n = bytes.len().saturating_sub(NPAGES_OFFSET + 4) / PAGE_RECORD;
            if n >= 1 && bytes.len() >= NPAGES_OFFSET + 4 {
                let start = bytes.len() - PAGE_RECORD;
                let rec = bytes[start..].to_vec();
                bytes.extend_from_slice(&rec);
                let count = (n as u32).wrapping_add(1);
                bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4].copy_from_slice(&count.to_le_bytes());
            }
        }
        // Corrupt the halt-flag word with a non-0/1 value.
        _ => {
            let off = 8 + 4 + 8 * Reg::COUNT + 8; // after pc
            if bytes.len() >= off + 8 {
                let v: u64 = rng.gen_range(2u64..=u64::MAX);
                bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Fuzzes [`reno_func::Checkpoint::from_bytes`] for `iters` iterations from
/// `seed`, mutating a corpus of real serialized checkpoints.
///
/// Every mutant must parse-or-reject without panicking, and every accepted
/// mutant must re-serialize to exactly the input bytes — so a mutation can
/// never smuggle in a checkpoint that restores silently-wrong state while
/// claiming to be the bytes it came from.
pub fn run_checkpoint_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let corpus = checkpoint_corpus();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut bytes = corpus[rng.gen_range(0usize..corpus.len())].clone();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate(&mut bytes, &mut rng);
        }
        check_checkpoint_bytes(&bytes, &mut report, &format!("iter {i} (seed {seed})"));
    }
    report
}

/// One checkpoint-contract check: parse-or-reject without panic; accepted
/// images re-serialize byte-exactly.
pub fn check_checkpoint_bytes(bytes: &[u8], report: &mut FuzzReport, ctx: &str) {
    match catch_unwind(AssertUnwindSafe(|| Checkpoint::from_bytes(bytes))) {
        Err(_) => report.fail(format!(
            "from_bytes panicked on {}-byte input, {ctx}",
            bytes.len()
        )),
        Ok(Err(_)) => report.rejected += 1,
        Ok(Ok(ck)) => {
            if ck.to_bytes() != bytes {
                report.fail(format!(
                    "accepted {}-byte input does not re-serialize to itself, {ctx}",
                    bytes.len()
                ));
                return;
            }
            report.accepted += 1;
        }
    }
}

// -------------------------------------------------------------------- pass
//
// Structure-aware mutation of serialized `reno_sample::CheckpointPass`
// images — the multi-checkpoint container the DSE store persists and every
// sampled sweep cell deserializes. Field layout (see `reno_sample`): magic
// 0..8, version 8..12, total_insts 12..20, halted 20..28, checksum 28..36,
// digest 36..44, checkpoint count 44..48, then per-checkpoint records of
// `u32` length + `Checkpoint` bytes.

/// Byte offset of the checkpoint-count field in a serialized pass.
pub const PASS_COUNT_OFFSET: usize = 8 + 4 + 8 * 4;

/// Spans of the per-checkpoint records (`(start, end)`, record = length
/// prefix + checkpoint bytes) as far as the byte stream can back them —
/// the walker the record-level mutation arms share.
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

/// The pass corpus: serialized [`CheckpointPass`] images — a real
/// zero-checkpoint pass from a single-segment program, plus synthetic
/// multi-checkpoint passes embedding the real checkpoint corpus (whose
/// `executed` depths are strictly increasing, as the parser demands) — so
/// mutations probe the header fields, the count, and the record framing.
pub fn pass_corpus() -> Vec<Vec<u8>> {
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

/// Applies one random structure-aware mutation to pass bytes.
fn mutate_pass(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    match rng.gen_range(0u32..9) {
        // Single bit flip anywhere (magic, header, or embedded checkpoint).
        0 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Overwrite one byte.
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = rng.gen::<u8>();
            }
        }
        // Truncate to a random prefix (torn store write).
        2 => {
            let keep = rng.gen_range(0usize..=bytes.len());
            bytes.truncate(keep);
        }
        // Append garbage (trailing bytes past the last record).
        3 => {
            for _ in 0..rng.gen_range(1usize..=16) {
                bytes.push(rng.gen::<u8>());
            }
        }
        // Count lie: claim up to u32::MAX checkpoints without supplying
        // them — must reject before the count sizes any allocation.
        4 => {
            if bytes.len() >= PASS_COUNT_OFFSET + 4 {
                let lie: u32 = match rng.gen_range(0u32..3) {
                    0 => u32::MAX,
                    1 => rng.gen::<u32>(),
                    _ => {
                        let real = u32::from_le_bytes(
                            bytes[PASS_COUNT_OFFSET..PASS_COUNT_OFFSET + 4]
                                .try_into()
                                .expect("4 bytes"),
                        );
                        real.wrapping_add(rng.gen_range(1u32..=4))
                    }
                };
                bytes[PASS_COUNT_OFFSET..PASS_COUNT_OFFSET + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
        // Record-length lie on one checkpoint record.
        5 => {
            let spans = pass_record_spans(bytes);
            if !spans.is_empty() {
                let (s, _) = spans[rng.gen_range(0usize..spans.len())];
                let lie: u32 = match rng.gen_range(0u32..3) {
                    0 => u32::MAX,
                    1 => rng.gen::<u32>(),
                    _ => {
                        let real = u32::from_le_bytes(bytes[s..s + 4].try_into().expect("4 bytes"));
                        real.wrapping_add(rng.gen_range(1u32..=8))
                    }
                };
                bytes[s..s + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
        // Swap two whole records (breaks the strictly-increasing
        // `executed` order while keeping every record individually valid).
        6 => {
            let spans = pass_record_spans(bytes);
            if spans.len() >= 2 {
                let a = rng.gen_range(0usize..spans.len());
                let b = rng.gen_range(0usize..spans.len());
                if a != b {
                    let (a, b) = (a.min(b), a.max(b));
                    let ra = bytes[spans[a].0..spans[a].1].to_vec();
                    let rb = bytes[spans[b].0..spans[b].1].to_vec();
                    bytes.splice(spans[b].0..spans[b].1, ra);
                    bytes.splice(spans[a].0..spans[a].1, rb);
                }
            }
        }
        // Corrupt the halted word with a non-0/1 value.
        7 => {
            if bytes.len() >= 28 {
                let v: u64 = rng.gen_range(2u64..=u64::MAX);
                bytes[20..28].copy_from_slice(&v.to_le_bytes());
            }
        }
        // Version bump.
        _ => {
            if bytes.len() >= 12 {
                let v = rng.gen::<u32>();
                bytes[8..12].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// One pass-contract check: parse-or-reject as a structured
/// [`reno_sample::PassError`] without panic; accepted images re-serialize
/// byte-exactly — so a mutation can never smuggle a pass that replays
/// silently-wrong checkpoints while claiming to be the bytes it came from.
pub fn check_pass_bytes(bytes: &[u8], report: &mut FuzzReport, ctx: &str) {
    match catch_unwind(AssertUnwindSafe(|| CheckpointPass::from_bytes(bytes))) {
        Err(_) => report.fail(format!(
            "CheckpointPass::from_bytes panicked on {}-byte input, {ctx}",
            bytes.len()
        )),
        Ok(Err(_)) => report.rejected += 1,
        Ok(Ok(pass)) => {
            if pass.to_bytes() != bytes {
                report.fail(format!(
                    "accepted {}-byte pass does not re-serialize to itself, {ctx}",
                    bytes.len()
                ));
                return;
            }
            report.accepted += 1;
        }
    }
}

/// Fuzzes [`reno_sample::CheckpointPass::from_bytes`] for `iters`
/// iterations from `seed`, mutating a corpus of serialized passes: bit
/// flips, truncations, count and record-length lies, record swaps (order
/// violations), halted-field and version lies. Same contract as
/// [`run_checkpoint_fuzz`]: reject-never-panic, never an attacker-sized
/// allocation, accepted images round-trip byte-exactly.
pub fn run_pass_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let corpus = pass_corpus();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut bytes = corpus[rng.gen_range(0usize..corpus.len())].clone();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate_pass(&mut bytes, &mut rng);
        }
        check_pass_bytes(&bytes, &mut report, &format!("iter {i} (seed {seed})"));
    }
    report
}

// ------------------------------------------------------------------- store
//
// Structure-aware mutation of `reno-dse` store-entry frames. Field layout
// (see `reno_dse::store`): magic 0..8, version 8..12, kind 12, key 13..21,
// payload-len 21..29, checksum 29..37, payload 37.. .

/// The store corpus: real frames of both kinds, with payloads ranging from
/// empty through a 32-byte cell result to multi-KiB checkpoint images, so
/// mutations probe every field against every payload size class.
pub fn store_corpus() -> Vec<(Vec<u8>, EntryKind, u64)> {
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

/// Applies one random structure-aware mutation to a store frame.
fn mutate_store(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    match rng.gen_range(0u32..10) {
        // Single bit flip anywhere (header or payload).
        0 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Overwrite one byte.
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = rng.gen::<u8>();
            }
        }
        // Truncate to a random prefix (torn write).
        2 => {
            let keep = rng.gen_range(0usize..=bytes.len());
            bytes.truncate(keep);
        }
        // Append garbage (trailing bytes after the claimed payload).
        3 => {
            for _ in 0..rng.gen_range(1usize..=16) {
                bytes.push(rng.gen::<u8>());
            }
        }
        // Length lie: claim up to u64::MAX payload bytes without supplying
        // them — must reject, never allocate.
        4 => {
            if bytes.len() >= 29 {
                let lie: u64 = match rng.gen_range(0u32..3) {
                    0 => u64::MAX,
                    1 => rng.gen::<u64>(),
                    _ => {
                        let real = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes"));
                        real.wrapping_add(rng.gen_range(1u64..=8))
                    }
                };
                bytes[21..29].copy_from_slice(&lie.to_le_bytes());
            }
        }
        // Checksum lie.
        5 => {
            if bytes.len() >= 37 {
                let v = rng.gen::<u64>();
                bytes[29..37].copy_from_slice(&v.to_le_bytes());
            }
        }
        // Key rename (a moved/renamed object file).
        6 => {
            if bytes.len() >= 21 {
                let i = 13 + rng.gen_range(0usize..8);
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Kind swap / invalid kind.
        7 => {
            if bytes.len() >= 13 {
                bytes[12] = match rng.gen_range(0u32..3) {
                    0 => 1,
                    1 => 2,
                    _ => rng.gen::<u8>(),
                };
            }
        }
        // Duplicate the whole frame (self-concatenation: the length field
        // now disagrees with the file size).
        8 => {
            let dup = bytes.clone();
            bytes.extend_from_slice(&dup);
        }
        // Version bump.
        _ => {
            if bytes.len() >= 12 {
                let v = rng.gen::<u32>();
                bytes[8..12].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Fuzzes [`reno_dse::decode_entry`] for `iters` iterations from `seed`.
///
/// Every mutant must decode-or-reject without panicking — a rejection is
/// what the store turns into a cache miss — and every accepted mutant must
/// re-encode to exactly the input bytes, so a mutation can never smuggle a
/// wrong payload through a frame that still claims to be authentic.
pub fn run_store_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let corpus = store_corpus();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let (base, kind, key) = &corpus[rng.gen_range(0usize..corpus.len())];
        let mut bytes = base.clone();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate_store(&mut bytes, &mut rng);
        }
        check_store_bytes(
            &bytes,
            *kind,
            *key,
            &mut report,
            &format!("iter {i} (seed {seed})"),
        );
    }
    report
}

/// One store-frame contract check: decode-or-reject without panic;
/// accepted frames re-encode byte-exactly and never claim more payload
/// than the input held.
pub fn check_store_bytes(
    bytes: &[u8],
    kind: EntryKind,
    key: u64,
    report: &mut FuzzReport,
    ctx: &str,
) {
    match catch_unwind(AssertUnwindSafe(|| decode_entry(bytes, kind, key))) {
        Err(_) => report.fail(format!(
            "decode_entry panicked on {}-byte input, {ctx}",
            bytes.len()
        )),
        Ok(Err(_)) => report.rejected += 1,
        Ok(Ok(payload)) => {
            if payload.len() + HEADER_LEN != bytes.len() {
                report.fail(format!(
                    "accepted payload of {} bytes from a {}-byte frame, {ctx}",
                    payload.len(),
                    bytes.len()
                ));
                return;
            }
            if encode_entry(kind, key, &payload) != bytes {
                report.fail(format!(
                    "accepted {}-byte frame does not re-encode to itself, {ctx}",
                    bytes.len()
                ));
                return;
            }
            report.accepted += 1;
        }
    }
}

// ----------------------------------------------------------------- journal
//
// Line-level mutation of `reno-dse` sweep journals and lease files — the
// two sealed-line formats a resuming process replays after an arbitrary
// crash (or after a hostile/buggy co-writer scribbled on the store).

/// The sweep hash every journal corpus file is replayed against.
pub const JOURNAL_FUZZ_SWEEP: u64 = 0xfee1_5afe_c0de_cafe;

/// The journal corpus: realistic journals at several shapes — empty,
/// header-only, a long mixed-record run (all four record types, duplicate
/// keys, fail messages with spaces/newlines/UTF-8), and a foreign-sweep
/// file — so mutations probe every record parser and the header rules.
pub fn journal_corpus() -> Vec<Vec<u8>> {
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

/// Applies one random mutation to journal bytes: byte-level damage, torn
/// tails, whole-line edits (delete/duplicate/swap — what an interleaved
/// writer or a bad editor produces), seal-targeted flips, and spliced
/// foreign-but-sealed lines (a co-writer speaking another protocol).
fn mutate_journal(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let lines_of = |b: &[u8]| -> Vec<(usize, usize)> {
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
    };
    match rng.gen_range(0u32..9) {
        // Single bit flip anywhere.
        0 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Overwrite one byte.
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = rng.gen::<u8>();
            }
        }
        // Truncate to a random prefix (torn append).
        2 => {
            let keep = rng.gen_range(0usize..=bytes.len());
            bytes.truncate(keep);
        }
        // Seal-targeted flip: corrupt one of the last 17 bytes of a line
        // (the checksum field and its separator) — the subtlest tear.
        3 => {
            let spans = lines_of(bytes);
            if let Some(&(s, e)) = spans.get(rng.gen_range(0usize..spans.len().max(1))) {
                let lo = s.max(e.saturating_sub(18));
                if lo < e {
                    let i = rng.gen_range(lo..e);
                    bytes[i] ^= 1 << rng.gen_range(0u32..8);
                }
            }
        }
        // Delete a whole line (lost header, lost record).
        4 => {
            let spans = lines_of(bytes);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0usize..spans.len())];
                bytes.drain(s..e);
            }
        }
        // Duplicate a line in place (replayed append, doubled header).
        5 => {
            let spans = lines_of(bytes);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0usize..spans.len())];
                let line = bytes[s..e].to_vec();
                bytes.splice(e..e, line);
            }
        }
        // Swap two lines (records out of order, header displaced).
        6 => {
            let spans = lines_of(bytes);
            if spans.len() >= 2 {
                let a = rng.gen_range(0usize..spans.len());
                let b = rng.gen_range(0usize..spans.len());
                if a != b {
                    let (a, b) = (a.min(b), a.max(b));
                    let la = bytes[spans[a].0..spans[a].1].to_vec();
                    let lb = bytes[spans[b].0..spans[b].1].to_vec();
                    bytes.splice(spans[b].0..spans[b].1, la);
                    bytes.splice(spans[a].0..spans[a].1, lb);
                }
            }
        }
        // Splice a *correctly sealed* line of the wrong shape at a line
        // boundary: unknown record type, extra field, or a lease line —
        // bytes an interleaved writer could legitimately produce.
        7 => {
            let spans = lines_of(bytes);
            let at = if spans.is_empty() {
                0
            } else {
                spans[rng.gen_range(0usize..spans.len())].0
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
            let line = sealed_line(&body).into_bytes();
            bytes.splice(at..at, line);
        }
        // Insert raw garbage at a random position.
        _ => {
            let at = rng.gen_range(0usize..=bytes.len());
            let n = rng.gen_range(1usize..=12);
            let garbage: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
            bytes.splice(at..at, garbage);
        }
    }
}

/// One journal-contract check: `replay_journal` must accept-or-reject
/// without panicking, report an `intact_len` within bounds, and be
/// **prefix-idempotent** — replaying exactly the bytes it called intact
/// must reproduce the same events and the same length. That is the
/// property resume correctness rides on: truncate-to-intact + append must
/// not change the meaning of what survived.
pub fn check_journal_bytes(bytes: &[u8], report: &mut FuzzReport, ctx: &str) {
    match catch_unwind(AssertUnwindSafe(|| {
        replay_journal(bytes, JOURNAL_FUZZ_SWEEP)
    })) {
        Err(_) => report.fail(format!(
            "replay_journal panicked on {}-byte input, {ctx}",
            bytes.len()
        )),
        Ok(Err(_)) => report.rejected += 1, // foreign sweep: structured error
        Ok(Ok(r)) => {
            if r.intact_len > bytes.len() {
                report.fail(format!(
                    "intact_len {} exceeds input length {}, {ctx}",
                    r.intact_len,
                    bytes.len()
                ));
                return;
            }
            match catch_unwind(AssertUnwindSafe(|| {
                replay_journal(&bytes[..r.intact_len], JOURNAL_FUZZ_SWEEP)
            })) {
                Ok(Ok(again)) if again.events == r.events && again.intact_len == r.intact_len => {
                    report.accepted += 1;
                }
                other => report.fail(format!(
                    "replay is not prefix-idempotent (intact_len {}): {other:?}, {ctx}",
                    r.intact_len
                )),
            }
        }
    }
}

/// One lease-contract check: `Lease::parse` must accept-or-reject without
/// panicking, and an accepted lease must re-render to exactly the input
/// bytes (strict canonical form — a torn or tampered lease must read as
/// *stale*, never as someone's live claim).
pub fn check_lease_bytes(bytes: &[u8], report: &mut FuzzReport, ctx: &str) {
    match catch_unwind(AssertUnwindSafe(|| Lease::parse(bytes))) {
        Err(_) => report.fail(format!(
            "Lease::parse panicked on {}-byte input, {ctx}",
            bytes.len()
        )),
        Ok(None) => report.rejected += 1,
        Ok(Some(lease)) => {
            if lease.render().as_bytes() != bytes {
                report.fail(format!(
                    "accepted lease does not re-render to itself ({:?}), {ctx}",
                    String::from_utf8_lossy(bytes)
                ));
                return;
            }
            report.accepted += 1;
        }
    }
}

/// Fuzzes [`reno_dse::replay_journal`] and [`reno_dse::Lease::parse`] for
/// `iters` iterations from `seed`, mutating realistic journals (seal
/// flips, torn tails, line deletion/duplication/swap, interleaved sealed
/// garbage) and rendered lease lines (field lies, byte damage).
pub fn run_journal_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let corpus = journal_corpus();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let ctx = format!("iter {i} (seed {seed})");
        if i % 4 == 3 {
            // Lease arm: mutate a canonical rendering at the byte level.
            let lease = Lease {
                pid: rng.gen::<u32>(),
                nonce: rng.gen::<u64>(),
                expires_unix_ms: rng.gen_range(0u64..1 << 48),
            };
            let mut bytes = lease.render().into_bytes();
            for _ in 0..rng.gen_range(1u32..=2) {
                mutate_journal(&mut bytes, &mut rng);
            }
            check_lease_bytes(&bytes, &mut report, &ctx);
        } else {
            let mut bytes = corpus[rng.gen_range(0usize..corpus.len())].clone();
            for _ in 0..rng.gen_range(1u32..=3) {
                mutate_journal(&mut bytes, &mut rng);
            }
            check_journal_bytes(&bytes, &mut report, &ctx);
        }
    }
    report
}

// ------------------------------------------------------------------ report
//
// Textual mutation of the repo-root `BENCH_sim.json` perf trajectory fed
// to `reno_bench::report::validate` — the one *text* format the repo reads
// back after a human (or an interrupted `bench_report --record`) may have
// edited it. The contract: `validate` must accept-or-reject without
// panicking, and whatever it accepts must flow through `check` and
// `render` without panicking either (the gate runs on CI, where a panic is
// a lost signal).

/// The mutation corpus: valid v3 trajectory files — an archive with no
/// runs, and the same archive followed by a full `pre-opt`/`opt` window of
/// five `detail_default` runs a side (so the gate path is live) and one
/// unpaired `dse_sweep` run.
///
/// # Panics
///
/// Panics if the repository's `BENCHMARK.json` does not parse.
pub fn report_corpus() -> Vec<String> {
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

/// Applies one random textual mutation to the file bytes.
fn mutate_report(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    let lines_of = |b: &[u8]| -> Vec<(usize, usize)> {
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
    };
    match rng.gen_range(0u32..9) {
        // Single bit flip anywhere.
        0 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Overwrite one byte with a structural character.
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0usize..bytes.len());
                const STRUCT: &[u8] = b"{}[]\",:.-0 ";
                bytes[i] = STRUCT[rng.gen_range(0usize..STRUCT.len())];
            }
        }
        // Delete a whole line (header, entry, or footer).
        2 => {
            let spans = lines_of(bytes);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0usize..spans.len())];
                bytes.drain(s..e);
            }
        }
        // Duplicate a line in place (duplicate entries, doubled headers).
        3 => {
            let spans = lines_of(bytes);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0usize..spans.len())];
                let line = bytes[s..e].to_vec();
                bytes.splice(e..e, line);
            }
        }
        // Swap two lines (entries out of order, footer before entries).
        4 => {
            let spans = lines_of(bytes);
            if spans.len() >= 2 {
                let a = rng.gen_range(0usize..spans.len());
                let b = rng.gen_range(0usize..spans.len());
                if a != b {
                    let (a, b) = (a.min(b), a.max(b));
                    let la = bytes[spans[a].0..spans[a].1].to_vec();
                    let lb = bytes[spans[b].0..spans[b].1].to_vec();
                    bytes.splice(spans[b].0..spans[b].1, la);
                    bytes.splice(spans[a].0..spans[a].1, lb);
                }
            }
        }
        // Truncate (torn append).
        5 => {
            let keep = rng.gen_range(0usize..=bytes.len());
            bytes.truncate(keep);
        }
        // Corrupt one digit: sign flips, non-numeric junk, huge exponents.
        6 => {
            let digits: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if !digits.is_empty() {
                let i = digits[rng.gen_range(0usize..digits.len())];
                const JUNK: &[u8] = b"-xe.";
                bytes[i] = JUNK[rng.gen_range(0usize..JUNK.len())];
            }
        }
        // Delete one quoted token (a key name, a string value, a quote
        // pair), desynchronizing the key/value structure.
        7 => {
            let quotes: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, c)| **c == b'"')
                .map(|(i, _)| i)
                .collect();
            if quotes.len() >= 2 {
                let k = rng.gen_range(0usize..quotes.len() - 1);
                bytes.drain(quotes[k]..=quotes[k + 1]);
            }
        }
        // Insert garbage at a random position.
        _ => {
            let at = rng.gen_range(0usize..=bytes.len());
            let n = rng.gen_range(1usize..=8);
            let garbage: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
            bytes.splice(at..at, garbage);
        }
    }
}

/// One report-contract check: `validate`-or-reject without panic, and an
/// accepted trajectory must survive `check` + `render` without panicking.
pub fn check_report_text(
    text: &str,
    metrics: &[reno_bench::report::Metric],
    report: &mut FuzzReport,
    ctx: &str,
) {
    use reno_bench::report::{check, render, validate};
    match catch_unwind(AssertUnwindSafe(|| validate(text, metrics))) {
        Err(_) => report.fail(format!(
            "report::validate panicked on {}-byte input, {ctx}",
            text.len()
        )),
        Ok(Err(_)) => report.rejected += 1,
        Ok(Ok(trajectory)) => {
            match catch_unwind(AssertUnwindSafe(|| {
                render(&trajectory, &check(&trajectory))
            })) {
                Err(_) => report.fail(format!(
                    "report::check/render panicked on a validated {}-run trajectory, {ctx}",
                    trajectory.runs.len()
                )),
                Ok(_) => report.accepted += 1,
            }
        }
    }
}

/// Fuzzes [`reno_bench::report::validate`] (and, on acceptance,
/// `check` + `render`) for `iters` iterations from `seed`, mutating a
/// corpus of valid trajectory files: bit flips, line deletions/
/// duplications/swaps, truncations, digit corruption, quoted-token
/// deletion, and garbage insertion. Mutants with invalid UTF-8 exercise
/// the lossy-decoding path a text editor can produce.
pub fn run_report_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let corpus = report_corpus();
    let metrics = reno_bench::report::benchmark_metrics().expect("BENCHMARK.json parses");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let mut bytes = corpus[rng.gen_range(0usize..corpus.len())]
            .clone()
            .into_bytes();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate_report(&mut bytes, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        check_report_text(
            &text,
            &metrics,
            &mut report,
            &format!("iter {i} (seed {seed})"),
        );
    }
    report
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

/// Fuzzes [`reno_isa::Asm::assemble`] (labels, fixups, branch-range
/// checks) for `iters` iterations from `seed`.
///
/// `assemble()` must return `Ok` or a structured [`AsmError`] — never
/// panic — and its verdict must match the defects the generator planted:
/// a clean program must assemble, a program with an undefined/duplicate
/// label or out-of-range branch must fail with that error, and every
/// instruction of an accepted program must encode/decode round-trip.
pub fn run_asm_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let (a, planted) = gen_asm_program(&mut rng);
        let ctx = format!("iter {i} (seed {seed})");
        match catch_unwind(AssertUnwindSafe(|| a.assemble())) {
            Err(_) => report.fail(format!("assemble() panicked, {ctx}")),
            Ok(Err(e)) => {
                let justified = match &e {
                    AsmError::UndefinedLabel(l) => planted.undefined.contains(l),
                    AsmError::DuplicateLabel(l) => planted.duplicated.contains(l),
                    AsmError::BranchOutOfRange { .. } => planted.out_of_range,
                };
                if justified {
                    report.rejected += 1;
                } else {
                    report.fail(format!("spurious {e} on a clean program, {ctx}"));
                }
            }
            Ok(Ok(p)) => {
                if !planted.undefined.is_empty() || !planted.duplicated.is_empty() {
                    report.fail(format!(
                        "assemble() accepted a program with planted defects {planted:?}, {ctx}"
                    ));
                    continue;
                }
                let mut ok = true;
                for (pc, inst) in p.insts.iter().enumerate() {
                    let word = encode(inst);
                    match decode(word) {
                        Ok(back) if back == *inst => {}
                        other => {
                            report.fail(format!(
                                "inst at pc {pc} does not round-trip ({inst:?} -> {word:#010x} -> {other:?}), {ctx}"
                            ));
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    report.accepted += 1;
                }
            }
        }
    }
    report
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

    #[test]
    fn decode_fuzz_smoke_is_clean() {
        let r = run_decode_fuzz(DEFAULT_SEED, 3000);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.accepted > 0, "some words decode");
        assert!(r.rejected > 0, "some words are rejected");
    }

    #[test]
    fn checkpoint_fuzz_smoke_is_clean() {
        let r = run_checkpoint_fuzz(DEFAULT_SEED, 300);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.rejected > 0, "mutations mostly break the image");
    }

    #[test]
    fn pass_fuzz_smoke_is_clean() {
        let r = run_pass_fuzz(DEFAULT_SEED, 300);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.rejected > 0, "mutations mostly break the image");
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
    fn store_fuzz_smoke_is_clean() {
        let r = run_store_fuzz(DEFAULT_SEED, 2000);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.rejected > 0, "mutations mostly break the frame");
    }

    #[test]
    fn journal_fuzz_smoke_is_clean() {
        let r = run_journal_fuzz(DEFAULT_SEED, 3000);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.accepted > 0, "some mutants still replay/parse");
        assert!(r.rejected > 0, "foreign sweeps and torn leases reject");
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
    fn report_fuzz_smoke_is_clean() {
        let r = run_report_fuzz(DEFAULT_SEED, 2000);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.accepted > 0, "some mutants still validate");
        assert!(r.rejected > 0, "mutations mostly break the file");
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
    fn asm_fuzz_smoke_is_clean() {
        let r = run_asm_fuzz(DEFAULT_SEED, 1500);
        assert!(r.clean(), "violations: {:?}", r.failures);
        assert!(r.accepted > 0, "some programs assemble");
        assert!(r.rejected > 0, "some planted defects are caught");
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
