//! Fuzz regression corpus for checkpoint-pass deserialization.
//!
//! Each test pins one rejection class the structure-aware mutational fuzzer
//! (`reno-fuzz`'s `pass` surface) exercises, as plain deterministic cases CI
//! replays forever without the fuzzer: bad magic, unknown versions,
//! truncations at every byte boundary, count lies (including the
//! `u32::MAX` no-allocation case), record-length lies, out-of-order
//! checkpoint records, corrupted embedded checkpoints, non-canonical halt
//! flags, and trailing garbage. Accepted inputs must re-serialize to
//! exactly the input bytes.

use reno_func::{Checkpoint, Cpu};
use reno_isa::{Asm, Program, Reg};
use reno_sample::{CheckpointPass, PassError, SampleConfig};

/// Serialized-pass field offsets (see `CheckpointPass::to_bytes`): magic,
/// version, then total_insts / halted / checksum / digest, then the count.
const HALTED_OFFSET: usize = 8 + 4 + 8;
const COUNT_OFFSET: usize = 8 + 4 + 8 * 4;
const RECORDS_OFFSET: usize = COUNT_OFFSET + 4;

fn program() -> Program {
    let mut a = Asm::named("pass-corpus");
    let buf = a.zeros("buf", 4096);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, 200);
    a.label("loop");
    a.st(Reg::T0, Reg::S0, 0);
    a.ld(Reg::T1, Reg::S0, 0);
    a.out(Reg::T1);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.halt();
    a.assemble().unwrap()
}

/// A serialized pass with three embedded checkpoints at strictly
/// increasing depths — the shape every record-level mutation needs.
fn corpus_bytes() -> Vec<u8> {
    let p = program();
    let mut cpu = Cpu::new(&p);
    let mut checkpoints = Vec::new();
    for stop in [5u64, 60, 300] {
        while cpu.executed() < stop && !cpu.halted() {
            cpu.step(&p).unwrap();
        }
        checkpoints.push(Checkpoint::take(&cpu, &p).to_bytes());
    }
    let pass = CheckpointPass {
        checkpoints,
        total_insts: 1001,
        halted: true,
        checksum: 0x1234_5678,
        digest: 0x9abc_def0,
        error: None,
    };
    pass.to_bytes()
}

/// `(start, end)` spans of the per-checkpoint records.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = RECORDS_OFFSET;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        spans.push((pos, pos + 4 + len));
        pos += 4 + len;
    }
    spans
}

fn count_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[COUNT_OFFSET..COUNT_OFFSET + 4].try_into().unwrap())
}

fn set_count(bytes: &mut [u8], n: u32) {
    bytes[COUNT_OFFSET..COUNT_OFFSET + 4].copy_from_slice(&n.to_le_bytes());
}

#[test]
fn bad_magic_rejects() {
    assert_eq!(
        CheckpointPass::from_bytes(b"XENOPASS rest irrelevant"),
        Err(PassError::BadMagic)
    );
    let mut bytes = corpus_bytes();
    bytes[0] ^= 0x20;
    assert_eq!(CheckpointPass::from_bytes(&bytes), Err(PassError::BadMagic));
}

#[test]
fn unknown_versions_reject() {
    let bytes = corpus_bytes();
    for v in [0u32, 2, 7, u32::MAX] {
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            CheckpointPass::from_bytes(&b),
            Err(PassError::BadVersion(v)),
            "version {v}"
        );
    }
}

/// Every strict prefix must reject (never panic, never accept a partial
/// parse) — the exact class a torn store write produces.
#[test]
fn truncation_rejects_at_every_byte_boundary() {
    let bytes = corpus_bytes();
    for len in 0..bytes.len() {
        let err =
            CheckpointPass::from_bytes(&bytes[..len]).expect_err("strict prefix must be rejected");
        assert!(
            matches!(
                err,
                PassError::BadMagic | PassError::Truncated | PassError::Checkpoint(_)
            ),
            "prefix of {len} bytes: unexpected error {err:?}"
        );
    }
}

/// The declared checkpoint count must match the records exactly; a lying
/// count — including `u32::MAX`, which would reserve ~100 GiB if the
/// parser sized its vector before validating — rejects without allocating.
#[test]
fn count_lies_reject() {
    let bytes = corpus_bytes();
    let real = count_of(&bytes);
    assert_eq!(real, 3);
    for lie in [0, real - 1, real + 1, real + 1000, u32::MAX] {
        let mut b = bytes.clone();
        set_count(&mut b, lie);
        assert_eq!(
            CheckpointPass::from_bytes(&b),
            Err(PassError::Truncated),
            "count lie {lie} (real {real})"
        );
    }
}

/// A record-length field claiming more (or fewer) bytes than its record
/// holds must reject — either as a straight truncation or because the
/// mis-framed tail no longer parses as a checkpoint.
#[test]
fn record_length_lies_reject() {
    let bytes = corpus_bytes();
    let spans = record_spans(&bytes);
    assert_eq!(spans.len(), 3);
    for &(s, _) in &spans {
        let real = u32::from_le_bytes(bytes[s..s + 4].try_into().unwrap());
        for lie in [0u32, real - 1, real + 1, real + 1000, u32::MAX] {
            let mut b = bytes.clone();
            b[s..s + 4].copy_from_slice(&lie.to_le_bytes());
            let err =
                CheckpointPass::from_bytes(&b).expect_err("mis-framed record must be rejected");
            assert!(
                matches!(err, PassError::Truncated | PassError::Checkpoint(_)),
                "record at {s}, length lie {lie}: unexpected error {err:?}"
            );
        }
    }
}

/// Swapping two individually-valid records violates the strictly
/// increasing `executed` order the replay engine depends on.
#[test]
fn out_of_order_records_reject() {
    let bytes = corpus_bytes();
    let spans = record_spans(&bytes);
    let first = bytes[spans[0].0..spans[0].1].to_vec();
    let second = bytes[spans[1].0..spans[1].1].to_vec();
    let mut swapped = bytes[..RECORDS_OFFSET].to_vec();
    swapped.extend_from_slice(&second);
    swapped.extend_from_slice(&first);
    swapped.extend_from_slice(&bytes[spans[2].0..]);
    assert_eq!(
        CheckpointPass::from_bytes(&swapped),
        Err(PassError::BadField("checkpoint order"))
    );

    // Duplicating a record (with a consistent count) is the equal-depth
    // flavor of the same violation.
    let mut dup = bytes.clone();
    dup.extend_from_slice(&bytes[spans[2].0..spans[2].1]);
    set_count(&mut dup, count_of(&bytes) + 1);
    assert_eq!(
        CheckpointPass::from_bytes(&dup),
        Err(PassError::BadField("checkpoint order"))
    );
}

/// Damage inside an embedded checkpoint surfaces as a structured
/// `Checkpoint` error — the hardened inner parser re-validates every
/// record, so a pass can never smuggle a corrupt restore image.
#[test]
fn corrupt_embedded_checkpoint_rejects() {
    let bytes = corpus_bytes();
    for &(s, _) in &record_spans(&bytes) {
        let mut b = bytes.clone();
        b[s + 4] ^= 0x20; // the embedded checkpoint's magic
        assert!(
            matches!(
                CheckpointPass::from_bytes(&b),
                Err(PassError::Checkpoint(_))
            ),
            "record at {s}"
        );
    }
}

#[test]
fn noncanonical_halted_flag_rejects() {
    let bytes = corpus_bytes();
    for v in [2u64, 0xff, u64::MAX] {
        let mut b = bytes.clone();
        b[HALTED_OFFSET..HALTED_OFFSET + 8].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            CheckpointPass::from_bytes(&b),
            Err(PassError::BadField("halted")),
            "halted = {v}"
        );
    }
}

#[test]
fn trailing_garbage_rejects() {
    let bytes = corpus_bytes();
    for extra in [1usize, 3, 4, 64] {
        let mut b = bytes.clone();
        b.extend(std::iter::repeat_n(0xa5, extra));
        let err = CheckpointPass::from_bytes(&b).expect_err("trailing bytes must be rejected");
        assert!(
            matches!(err, PassError::Truncated | PassError::Checkpoint(_)),
            "{extra} trailing bytes: unexpected error {err:?}"
        );
    }
}

/// Accepted inputs are exactly the image of `to_bytes` — for both the
/// synthetic multi-checkpoint corpus and a real zero-checkpoint pass the
/// functional engine computes for a single-segment program.
#[test]
fn accepted_inputs_reserialize_exactly() {
    let bytes = corpus_bytes();
    let pass = CheckpointPass::from_bytes(&bytes).expect("corpus entry parses");
    assert_eq!(pass.to_bytes(), bytes, "to_bytes ∘ from_bytes = identity");
    assert_eq!(pass.checkpoints.len(), 3);

    let real = CheckpointPass::compute(&program(), &SampleConfig::new(64, 128, 4096));
    assert!(real.error.is_none());
    assert!(real.checkpoints.is_empty(), "tiny program is one segment");
    let rb = real.to_bytes();
    assert_eq!(
        CheckpointPass::from_bytes(&rb).expect("parses").to_bytes(),
        rb
    );
}
