//! Fuzz regression corpus for instruction decode.
//!
//! Each test pins one rejection class the byte-level fuzzer
//! (`reno-fuzz`'s `decode` surface) exercises, as plain deterministic cases CI
//! replays forever without the fuzzer: reserved opcode slots, and
//! non-canonical field bits for every format's strictness rule. The final
//! test replays a deterministic mini-sweep of the whole contract:
//! decode-or-reject without panicking, and every accepted word re-encodes
//! to itself (the encoding is a bijection on its image).
//!
//! Register fields an opcode does not use must hold `Reg::ZERO`, which is
//! Alpha-style `R31` — canonical unused fields are all-ones, so these tests
//! *replace* field values rather than OR-ing in bits.

use reno_isa::{decode, encode, Inst, Opcode, Reg};

const RA_SHIFT: u32 = 21;
const RB_SHIFT: u32 = 16;
const ZERO_IDX: u32 = 31;

/// Replaces the 5-bit register field at `shift` with `v`.
fn with_field(word: u32, shift: u32, v: u32) -> u32 {
    (word & !(0x1f << shift)) | (v << shift)
}

fn rejects(word: u32, why: &str) {
    assert!(
        decode(word).is_err(),
        "{why}: {word:#010x} must be rejected"
    );
}

fn accepts_canonically(word: u32, why: &str) {
    let inst = decode(word).unwrap_or_else(|e| panic!("{why}: {e}"));
    assert_eq!(
        encode(&inst),
        word,
        "{why}: accepted word must re-encode to itself"
    );
}

#[test]
fn reserved_opcode_slots_reject() {
    assert!(Opcode::ALL.len() < 64, "some slots are reserved");
    for opno in Opcode::ALL.len() as u32..64 {
        rejects(opno << 26, "reserved opcode, zero fields");
        rejects(
            (opno << 26) | 0x03ff_ffff,
            "reserved opcode, all fields set",
        );
        rejects((opno << 26) | 0x0012_3456, "reserved opcode, mixed fields");
    }
}

#[test]
fn r_format_pad_bits_reject() {
    let good = encode(&Inst::alu_rr(Opcode::Add, Reg::T0, Reg::T1, Reg::T2));
    accepts_canonically(good, "canonical add");
    for bit in 5..16 {
        rejects(good | (1 << bit), "R-format pad bit set");
    }
}

#[test]
fn lui_base_register_field_rejects() {
    let good = encode(&Inst::alu_ri(Opcode::Lui, Reg::T0, Reg::ZERO, 0x1234));
    accepts_canonically(good, "canonical lui");
    assert_eq!((good >> RB_SHIFT) & 0x1f, ZERO_IDX, "canonical rB is R31");
    for rb in 0..ZERO_IDX {
        rejects(
            with_field(good, RB_SHIFT, rb),
            "lui with a base register other than ZERO",
        );
    }
}

#[test]
fn cond_branch_rb_field_rejects() {
    let good = encode(&Inst::branch(Opcode::Bnez, Reg::T0, -4));
    accepts_canonically(good, "canonical bnez");
    rejects(
        with_field(good, RB_SHIFT, 0),
        "conditional branch with rB = r0",
    );
    rejects(
        with_field(good, RB_SHIFT, 5),
        "conditional branch with rB = r5",
    );
}

#[test]
fn direct_jump_link_field_rejects() {
    // `br` (no link) must encode rA as ZERO; only `jal` may carry a link
    // register there.
    let jal = decode(encode(&Inst {
        op: Opcode::Jal,
        rd: Reg::RA,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 42,
    }))
    .expect("canonical jal decodes");
    assert_eq!(jal.rd, Reg::RA);
    let br = encode(&Inst {
        op: Opcode::Br,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 42,
    });
    accepts_canonically(br, "canonical br");
    rejects(with_field(br, RA_SHIFT, 0), "br with a link register");
    rejects(with_field(br, RB_SHIFT, 7), "br with rB set");
}

#[test]
fn jump_register_pad_and_link_reject() {
    let jr = encode(&Inst {
        op: Opcode::Jr,
        rd: Reg::ZERO,
        rs1: Reg::RA,
        rs2: Reg::ZERO,
        imm: 0,
    });
    accepts_canonically(jr, "canonical jr");
    rejects(jr | 1, "jr with rC bits");
    rejects(jr | (1 << 7), "jr with pad bits");
    rejects(jr | (1 << 15), "jr with the top pad bit");
    rejects(with_field(jr, RA_SHIFT, 26), "jr with a link register");
}

#[test]
fn misc_format_fields_reject() {
    let halt = encode(&Inst {
        op: Opcode::Halt,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 0,
    });
    accepts_canonically(halt, "canonical halt");
    rejects(halt | 1, "halt with rC bits");
    rejects(halt | (1 << 5), "halt with pad bits");
    rejects(with_field(halt, RB_SHIFT, 3), "halt with rB set");
    rejects(with_field(halt, RA_SHIFT, 3), "halt with rA set");

    let out = encode(&Inst {
        op: Opcode::Out,
        rd: Reg::ZERO,
        rs1: Reg::V0,
        rs2: Reg::ZERO,
        imm: 0,
    });
    accepts_canonically(out, "canonical out (source in rB)");
    rejects(with_field(out, RA_SHIFT, 1), "out with rA set");
    rejects(out | (1 << 5), "out with pad bits");
}

/// Deterministic mini-sweep over every opcode slot crossed with a fixed set
/// of field patterns — the shape of what the `decode` fuzzer explores,
/// pinned.
/// Nothing may panic, and accepted words must re-encode to themselves.
#[test]
fn deterministic_sweep_decode_or_reject_round_trips() {
    let low_patterns: [u32; 16] = [
        0x0000_0000,
        0x03ff_ffff, // all fields R31 / all-ones imm
        0x0000_0001,
        0x0000_0020, // lone pad bit
        0x0001_0000, // lone rB bit
        0x0020_0000, // lone rA bit
        0x0000_ffff, // all-ones immediate
        0x0000_8000, // sign bit of the immediate
        0x02f5_4321,
        0x0155_5555,
        0x02aa_aaaa,
        0x0042_0007,
        0x03e0_0000, // rA = 31, rest zero
        0x001f_0000, // rB = 31, rest zero
        0x03ff_0000, // rA = rB = 31, rest zero
        0x0123_4567,
    ];
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for opno in 0u32..64 {
        for low in low_patterns {
            let word = (opno << 26) | low;
            match decode(word) {
                Ok(inst) => {
                    assert_eq!(
                        encode(&inst),
                        word,
                        "accepted word {word:#010x} must re-encode to itself"
                    );
                    accepted += 1;
                }
                Err(e) => {
                    assert_eq!(e.word, word, "error reports the offending word");
                    rejected += 1;
                }
            }
        }
    }
    assert!(accepted > 0, "the sweep hits legal encodings");
    assert!(rejected > 0, "the sweep hits every rejection class");
}
