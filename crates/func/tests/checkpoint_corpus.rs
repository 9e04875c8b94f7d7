//! Fuzz regression corpus for checkpoint deserialization.
//!
//! Each test pins one rejection class the structure-aware mutational fuzzer
//! (`reno-fuzz`'s `checkpoint` surface) exercises, as plain deterministic cases
//! CI replays forever without the fuzzer: bad magic, unknown versions,
//! truncations at every byte boundary, length-field lies (including the
//! `u32::MAX` no-allocation case), non-canonical halt flags, out-of-order or
//! duplicated delta pages, and trailing garbage. Accepted inputs must
//! re-serialize to exactly the input bytes.

use reno_func::{Checkpoint, CheckpointError, Cpu};
use reno_isa::{Asm, Program, Reg};

const PAGE_BYTES: usize = 4096;
const HALTED_OFFSET: usize = 8 + 4 + 8 * Reg::COUNT + 8;
const NPAGES_OFFSET: usize = 8 + 4 + 8 * Reg::COUNT + 8 * 4 + 8 * 11;
const PAGE_RECORD: usize = 8 + PAGE_BYTES;

/// A loop whose stores land on two different pages, so serialized
/// checkpoints carry a multi-record page delta (needed to exercise the
/// page-ordering rules).
fn two_page_program() -> Program {
    let mut a = Asm::new();
    let buf = a.zeros("buf", 2 * PAGE_BYTES);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::S1, buf as i64 + PAGE_BYTES as i64);
    a.li(Reg::T0, 30);
    a.label("loop");
    a.st(Reg::T0, Reg::S0, 0);
    a.st(Reg::T0, Reg::S1, 128);
    a.ld(Reg::T1, Reg::S0, 0);
    a.out(Reg::T1);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.halt();
    a.assemble().unwrap()
}

/// A serialized checkpoint mid-run, with at least two delta pages.
fn corpus_bytes() -> (Vec<u8>, Cpu, Program) {
    let p = two_page_program();
    let mut cpu = Cpu::new(&p);
    for _ in 0..40 {
        cpu.step(&p).unwrap();
    }
    let ck = Checkpoint::take(&cpu, &p);
    assert!(ck.delta_pages() >= 2, "corpus needs a multi-page delta");
    (ck.to_bytes(), cpu, p)
}

fn npages_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4].try_into().unwrap())
}

fn set_npages(bytes: &mut [u8], n: u32) {
    bytes[NPAGES_OFFSET..NPAGES_OFFSET + 4].copy_from_slice(&n.to_le_bytes());
}

#[test]
fn bad_magic_rejects() {
    assert_eq!(
        Checkpoint::from_bytes(b"XENOCKPT rest irrelevant"),
        Err(CheckpointError::BadMagic)
    );
    let (mut bytes, _, _) = corpus_bytes();
    bytes[0] ^= 0x20;
    assert_eq!(
        Checkpoint::from_bytes(&bytes),
        Err(CheckpointError::BadMagic)
    );
}

#[test]
fn unknown_versions_reject() {
    let (bytes, _, _) = corpus_bytes();
    for v in [0u32, 2, 7, u32::MAX] {
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&b),
            Err(CheckpointError::BadVersion(v)),
            "version {v}"
        );
    }
}

/// Every strict prefix must reject (never panic, never accept a partial
/// parse) — the exact class a truncating mutation produces.
#[test]
fn truncation_rejects_at_every_byte_boundary() {
    let (bytes, _, _) = corpus_bytes();
    for len in 0..bytes.len() {
        let err =
            Checkpoint::from_bytes(&bytes[..len]).expect_err("strict prefix must be rejected");
        assert!(
            matches!(err, CheckpointError::BadMagic | CheckpointError::Truncated),
            "prefix of {len} bytes: unexpected error {err:?}"
        );
    }
}

/// The declared page count must match the remaining bytes exactly; a lying
/// count — including `u32::MAX`, which would reserve ~4 GiB if the parser
/// allocated before validating — rejects without allocating.
#[test]
fn length_field_lies_reject() {
    let (bytes, _, _) = corpus_bytes();
    let real = npages_of(&bytes);
    for lie in [0, real - 1, real + 1, real + 1000, u32::MAX] {
        let mut b = bytes.clone();
        set_npages(&mut b, lie);
        assert_eq!(
            Checkpoint::from_bytes(&b),
            Err(CheckpointError::Truncated),
            "npages lie {lie} (real {real})"
        );
    }
}

#[test]
fn noncanonical_halted_flag_rejects() {
    let (bytes, _, _) = corpus_bytes();
    for v in [2u64, 0xff, u64::MAX] {
        let mut b = bytes.clone();
        b[HALTED_OFFSET..HALTED_OFFSET + 8].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&b),
            Err(CheckpointError::BadField("halted")),
            "halted = {v}"
        );
    }
}

#[test]
fn out_of_order_pages_reject() {
    let (bytes, _, _) = corpus_bytes();
    let records = NPAGES_OFFSET + 4;
    let mut swapped = bytes.clone();
    let (a, b) = (records, records + PAGE_RECORD);
    let first: Vec<u8> = swapped[a..a + PAGE_RECORD].to_vec();
    swapped.copy_within(b..b + PAGE_RECORD, a);
    swapped[b..b + PAGE_RECORD].copy_from_slice(&first);
    assert_eq!(
        Checkpoint::from_bytes(&swapped),
        Err(CheckpointError::BadField("pages"))
    );
}

#[test]
fn duplicate_pages_reject() {
    let (bytes, _, _) = corpus_bytes();
    let mut dup = bytes.clone();
    let last: Vec<u8> = dup[dup.len() - PAGE_RECORD..].to_vec();
    dup.extend_from_slice(&last);
    set_npages(&mut dup, npages_of(&bytes) + 1);
    assert_eq!(
        Checkpoint::from_bytes(&dup),
        Err(CheckpointError::BadField("pages")),
        "duplicated page record with a consistent count"
    );
}

#[test]
fn trailing_garbage_rejects() {
    let (bytes, _, _) = corpus_bytes();
    for extra in [1usize, 7, 8, PAGE_RECORD - 1] {
        let mut b = bytes.clone();
        b.extend(std::iter::repeat_n(0xa5, extra));
        assert_eq!(
            Checkpoint::from_bytes(&b),
            Err(CheckpointError::Truncated),
            "{extra} trailing bytes"
        );
    }
}

/// Accepted inputs are exactly the image of `to_bytes`: parsing and
/// re-serializing is the identity, and the restored machine matches the
/// one the checkpoint was taken from.
#[test]
fn accepted_inputs_reserialize_exactly() {
    let (bytes, cpu, p) = corpus_bytes();
    let ck = Checkpoint::from_bytes(&bytes).expect("corpus entry parses");
    assert_eq!(ck.to_bytes(), bytes, "to_bytes ∘ from_bytes = identity");
    let restored = ck.restore(&p);
    assert_eq!(restored.state_digest(), cpu.state_digest());
    assert_eq!(restored.executed(), cpu.executed());
}
