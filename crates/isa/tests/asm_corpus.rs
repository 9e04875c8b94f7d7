//! Named regression corpus for the `Asm` label/fixup paths — the
//! rejection and resolution classes `reno-fuzz`'s `asm` surface probes
//! randomly, pinned as deterministic cases.

use reno_isa::{decode, encode, Asm, AsmError, Reg};

#[test]
fn undefined_label_in_each_fixup_kind() {
    // Rel fixup (branch).
    let mut a = Asm::new();
    a.beqz(Reg::T0, "ghost");
    assert_eq!(a.assemble(), Err(AsmError::UndefinedLabel("ghost".into())));

    // Hi/Lo fixups (la_code).
    let mut a = Asm::new();
    a.la_code(Reg::T0, "ghost");
    assert_eq!(a.assemble(), Err(AsmError::UndefinedLabel("ghost".into())));
}

#[test]
fn duplicate_label_wins_over_later_errors() {
    // The builder records the duplicate at definition time; assemble
    // reports it even when other defects exist.
    let mut a = Asm::new();
    a.label("x");
    a.br("ghost");
    a.label("x");
    assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
}

#[test]
fn forward_branch_out_of_range() {
    let mut a = Asm::new();
    a.br("far");
    for _ in 0..33_000 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.label("far");
    a.halt();
    match a.assemble() {
        Err(AsmError::BranchOutOfRange { label, offset }) => {
            assert_eq!(label, "far");
            assert_eq!(offset, 33_000);
        }
        other => panic!("expected BranchOutOfRange, got {other:?}"),
    }
}

#[test]
fn backward_branch_out_of_range() {
    let mut a = Asm::new();
    a.label("top");
    for _ in 0..33_000 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.bnez(Reg::T0, "top");
    a.halt();
    match a.assemble() {
        Err(AsmError::BranchOutOfRange { label, offset }) => {
            assert_eq!(label, "top");
            assert_eq!(offset, -33_001);
        }
        other => panic!("expected BranchOutOfRange, got {other:?}"),
    }
}

#[test]
fn branch_at_exact_range_limits_resolves() {
    // +32767 forward is the last representable offset.
    let mut a = Asm::new();
    a.br("far");
    for _ in 0..32_767 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.label("far");
    a.halt();
    let p = a.assemble().expect("exactly-in-range forward branch");
    assert_eq!(p.insts[0].imm, 32_767);

    // -32768 backward is the last representable offset: target pc 0 from a
    // site whose fall-through is 32768.
    let mut a = Asm::new();
    a.label("top");
    for _ in 0..32_767 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.bnez(Reg::T0, "top");
    a.halt();
    let p = a.assemble().expect("exactly-in-range backward branch");
    assert_eq!(p.insts[32_767].imm, -32_768);
}

#[test]
fn la_code_hi_lo_fixups_encode_the_label_address() {
    let mut a = Asm::new();
    a.la_code(Reg::T0, "target"); // lui + ori pair
    for _ in 0..70_000 {
        a.addi(Reg::T1, Reg::T1, 1); // push the target past 16 bits of pc
    }
    a.label("target");
    a.halt();
    let p = a.assemble().unwrap();
    let target = 70_000 + 2; // la_code emits two instructions
    assert_eq!(p.insts[0].imm, (target >> 16) as i16);
    assert_eq!(p.insts[1].imm, (target & 0xffff) as u16 as i16);
}

#[test]
fn assembled_instructions_roundtrip_through_encode_decode() {
    let mut a = Asm::new();
    let buf = a.zeros("buf", 64);
    a.li(Reg::S0, buf as i64);
    a.label("top");
    a.ld(Reg::T0, Reg::S0, 0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.st(Reg::T0, Reg::S0, 0);
    a.bnez(Reg::T0, "top");
    a.la_code(Reg::A0, "top");
    a.halt();
    let p = a.assemble().unwrap();
    for (pc, inst) in p.insts.iter().enumerate() {
        let word = encode(inst);
        let back = decode(word).unwrap_or_else(|e| panic!("pc {pc}: {e:?}"));
        assert_eq!(back, *inst, "pc {pc} round-trips");
    }
}
