//! SPECint2000-like kernels: pointer chasing, hashing, dictionaries,
//! call-heavy object code, annealing, bignums, and a bytecode interpreter.
//!
//! Working sets are sized to stress the 32KB D$ / 512KB L2 the way SPECint
//! does (the paper's Fig 9 shows SPEC as load- and memory-critical).

use crate::util;
use rand::Rng;
use reno_isa::{Asm, Program, Reg};

/// `gzip`-like: LZ77 hash-chain matching over a compressible byte buffer.
pub fn gzip_like(f: usize) -> Program {
    let n = 256 * f + 64;
    let mut a = Asm::named("gzip.c");
    let input = a.data_owned("input", util::lumpy_bytes(0x617a, n));
    let head = a.zeros("head", 256 * 8);

    a.li(Reg::S0, input as i64);
    a.li(Reg::S1, head as i64);
    a.li(Reg::S2, (n - 8) as i64); // last position
    a.li(Reg::S3, 0); // i
    a.li(Reg::S4, 0); // matched-length checksum

    a.label("loop");
    a.add(Reg::T0, Reg::S0, Reg::S3); // &input[i]
    a.ldbu(Reg::T1, Reg::T0, 0);
    a.ldbu(Reg::T2, Reg::T0, 1);
    a.slli(Reg::T3, Reg::T1, 5);
    a.add(Reg::T3, Reg::T3, Reg::T2);
    a.andi(Reg::T3, Reg::T3, 255); // h
    a.slli(Reg::T3, Reg::T3, 3);
    a.add(Reg::T3, Reg::T3, Reg::S1); // &head[h]
    a.ld(Reg::T4, Reg::T3, 0); // prev + 1 (0 = none)
    a.addi(Reg::T5, Reg::S3, 1);
    a.st(Reg::T5, Reg::T3, 0);
    a.beqz(Reg::T4, "next");
    // Compare up to 8 bytes at the previous occurrence.
    a.addi(Reg::T4, Reg::T4, -1);
    a.add(Reg::T6, Reg::S0, Reg::T4); // &input[prev]
    a.li(Reg::T7, 0); // len
    a.label("mloop");
    a.add(Reg::T8, Reg::T0, Reg::T7);
    a.ldbu(Reg::T9, Reg::T8, 0);
    a.add(Reg::T8, Reg::T6, Reg::T7);
    a.ldbu(Reg::T10, Reg::T8, 0);
    a.sub(Reg::T8, Reg::T9, Reg::T10);
    a.bnez(Reg::T8, "mdone");
    a.addi(Reg::T7, Reg::T7, 1);
    a.slti(Reg::T8, Reg::T7, 8);
    a.bnez(Reg::T8, "mloop");
    a.label("mdone");
    a.add(Reg::S4, Reg::S4, Reg::T7);
    a.label("next");
    a.addi(Reg::S3, Reg::S3, 1);
    a.slt(Reg::T0, Reg::S3, Reg::S2);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("gzip_like assembles")
}

/// `crafty`-like: bitboard manipulation with a called table-driven popcount
/// routine (as real crafty uses).
pub fn crafty_like(f: usize) -> Program {
    let boards: Vec<u64> = util::words(0xb0a2d, 64);
    let poptab: Vec<u8> = (0..256u32).map(|i| i.count_ones() as u8).collect();
    let mut a = Asm::named("crafty");
    let base = a.words("boards", &boards);
    let tab = a.data_owned("poptab", poptab);

    a.li(Reg::S0, base as i64);
    a.li(Reg::S1, f as i64); // outer passes
    a.li(Reg::S4, 0); // mobility checksum
    a.label("outer");
    a.li(Reg::S2, 64); // words per pass
    a.mov(Reg::S3, Reg::S0); // cursor
    a.label("inner");
    a.ld(Reg::A0, Reg::S3, 0);
    // "Attack spread": shift-or to smear the occupancy.
    a.slli(Reg::T0, Reg::A0, 8);
    a.srli(Reg::T1, Reg::A0, 8);
    a.or(Reg::A0, Reg::A0, Reg::T0);
    a.or(Reg::A0, Reg::A0, Reg::T1);
    a.call("popcnt");
    a.add(Reg::S4, Reg::S4, Reg::V0);
    a.addi(Reg::S3, Reg::S3, 8);
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "inner");
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "outer");
    a.out(Reg::S4);
    a.halt();

    // popcnt(a0) -> v0: byte-table lookups, one per byte of the board.
    a.label("popcnt");
    a.li(Reg::T1, tab as i64);
    a.li(Reg::V0, 0);
    a.li(Reg::T2, 8); // bytes
    a.label("pc_loop");
    a.andi(Reg::T3, Reg::A0, 255);
    a.add(Reg::T3, Reg::T3, Reg::T1);
    a.ldbu(Reg::T4, Reg::T3, 0);
    a.add(Reg::V0, Reg::V0, Reg::T4);
    a.srli(Reg::A0, Reg::A0, 8);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, "pc_loop");
    a.ret();
    a.assemble().expect("crafty_like assembles")
}

/// `mcf`-like: pointer chasing through a ~1MB node array (misses in L2).
pub fn mcf_like(f: usize) -> Program {
    let nodes = 1 << 16; // 65536 nodes x 16B = 1MB
                         // Interleaved {next, weight} records, written straight into the data
                         // segment's little-endian bytes.
    let mut recs = vec![0u8; nodes * 16];
    util::cycle_links(0x3cf, nodes, |i, next| {
        recs[16 * i..16 * i + 8].copy_from_slice(&next.to_le_bytes());
    });
    let mut weights = util::rng(0x3cf1);
    for rec in recs.chunks_exact_mut(16) {
        let w: u64 = weights.gen();
        rec[8..].copy_from_slice(&(w & 0xffff).to_le_bytes());
    }
    let mut a = Asm::named("mcf");
    let base = a.data_owned("nodes", recs);

    a.li(Reg::S0, base as i64);
    a.li(Reg::S1, (600 * f) as i64); // chase steps
    a.li(Reg::S2, 0); // current node index
    a.li(Reg::S4, 0); // weight checksum
    a.label("chase");
    a.slli(Reg::T0, Reg::S2, 4); // 16B records
    a.add(Reg::T0, Reg::T0, Reg::S0);
    a.ld(Reg::S2, Reg::T0, 0); // next
    a.ld(Reg::T1, Reg::T0, 8); // weight
    a.add(Reg::S4, Reg::S4, Reg::T1);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "chase");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("mcf_like assembles")
}

/// `parser`-like: hash-bucket dictionary with linked-list chains, built and
/// queried through a called function with a real stack frame.
pub fn parser_like(f: usize) -> Program {
    let mut a = Asm::named("parser");
    let buckets = a.zeros("buckets", 128 * 8);
    let pool = a.zeros("pool", 4096 * 16);

    a.li(Reg::S0, buckets as i64);
    a.li(Reg::S1, pool as i64); // bump allocator
    a.li(Reg::S2, (300 * f) as i64); // operations
    a.li(Reg::S3, 12345); // lcg state
    a.li(Reg::S4, 0); // found-counter checksum
    a.li(Reg::S5, 25173); // lcg multiplier
    a.label("oploop");
    a.mul(Reg::S3, Reg::S3, Reg::S5);
    a.addi(Reg::S3, Reg::S3, 13849);
    a.srli(Reg::A0, Reg::S3, 16);
    a.andi(Reg::A0, Reg::A0, 1023); // key
    a.call("lookup_insert");
    a.add(Reg::S4, Reg::S4, Reg::V0);
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "oploop");
    a.out(Reg::S4);
    a.halt();

    // lookup_insert(a0 = key) -> v0 = 1 if found else 0; inserts when absent.
    // The pool bump pointer lives in s1 and is deliberately NOT in the saved
    // set (it is a persistent allocator); t8 is staged through the frame to
    // generate the spill/reload pair RENO_RA targets.
    a.label("lookup_insert");
    a.enter(&[Reg::T8]);
    a.mov(Reg::T8, Reg::A0); // key survives in a "saved" slot
    a.andi(Reg::T0, Reg::A0, 127);
    a.slli(Reg::T0, Reg::T0, 3);
    a.add(Reg::T0, Reg::T0, Reg::S0); // &buckets[h]
    a.ld(Reg::T1, Reg::T0, 0); // chain head
    a.label("walk");
    a.beqz(Reg::T1, "insert");
    a.ld(Reg::T2, Reg::T1, 0); // node.key
    a.seq(Reg::T3, Reg::T2, Reg::T8);
    a.bnez(Reg::T3, "found");
    a.ld(Reg::T1, Reg::T1, 8); // node.next
    a.br("walk");
    a.label("insert");
    a.ld(Reg::T4, Reg::T0, 0); // old head
    a.st(Reg::T8, Reg::S1, 0); // node.key
    a.st(Reg::T4, Reg::S1, 8); // node.next
    a.st(Reg::S1, Reg::T0, 0); // bucket head = node
    a.addi(Reg::S1, Reg::S1, 16); // bump the persistent pool pointer
    a.li(Reg::V0, 0);
    a.leave(&[Reg::T8]);
    a.label("found");
    a.li(Reg::V0, 1);
    a.leave(&[Reg::T8]);
    a.assemble().expect("parser_like assembles")
}

/// `vortex`-like: an object store manipulated through accessor routines —
/// one real call per transaction (with callee-saved spills, RENO_RA's
/// target) plus inlined field reads, as `-O3` output would look.
pub fn vortex_like(f: usize) -> Program {
    let mut a = Asm::named("vortex");
    let objs = a.words("objs", &util::words(0x70e7, 512 * 4)); // 512 x 32B

    a.li(Reg::S0, objs as i64);
    a.li(Reg::S1, (110 * f) as i64); // transactions
    a.li(Reg::S2, 99991); // lcg
    a.li(Reg::S4, 0); // checksum
    a.li(Reg::S5, 69069);
    a.label("txn");
    a.mul(Reg::S2, Reg::S2, Reg::S5);
    a.addi(Reg::S2, Reg::S2, 12345);
    a.srli(Reg::T0, Reg::S2, 20);
    a.andi(Reg::T0, Reg::T0, 511); // object id
    a.slli(Reg::T0, Reg::T0, 5);
    a.add(Reg::A0, Reg::T0, Reg::S0); // &obj
    a.srli(Reg::T1, Reg::S2, 9);
    a.andi(Reg::T1, Reg::T1, 511); // a second, unrelated object
    a.slli(Reg::T1, Reg::T1, 5);
    a.add(Reg::T9, Reg::T1, Reg::S0); // &obj2

    // Inlined salt computation from the *second* object (no overlap with
    // the callee's loads, as optimized code would look).
    a.ld(Reg::T2, Reg::T9, 0);
    a.ld(Reg::T3, Reg::T9, 8);
    a.ld(Reg::T4, Reg::T9, 16);
    a.ld(Reg::T5, Reg::T9, 24);
    a.add(Reg::T2, Reg::T2, Reg::T3);
    a.add(Reg::T4, Reg::T4, Reg::T5);
    a.add(Reg::A1, Reg::T2, Reg::T4); // salt argument

    a.call("obj_update");

    // Post-update validation reloads the field the callee just stored —
    // collapsed by speculative memory bypassing (RENO_RA).
    a.ld(Reg::T6, Reg::A0, 24);
    a.xor(Reg::T6, Reg::T6, Reg::A1);
    a.andi(Reg::T6, Reg::T6, 7);
    a.add(Reg::S4, Reg::S4, Reg::T6);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "txn");
    a.out(Reg::S4);
    a.halt();

    // obj_update(a0 = &obj, a1 = salt): rotate fields, mix in salt.
    a.label("obj_update");
    a.enter(&[Reg::S0]);
    a.ld(Reg::S0, Reg::A0, 0);
    a.ld(Reg::T1, Reg::A0, 8);
    a.st(Reg::T1, Reg::A0, 0);
    a.ld(Reg::T2, Reg::A0, 16);
    a.st(Reg::T2, Reg::A0, 8);
    a.ld(Reg::T3, Reg::A0, 24);
    a.xor(Reg::T3, Reg::T3, Reg::T1);
    a.st(Reg::T3, Reg::A0, 16);
    a.xor(Reg::S0, Reg::S0, Reg::A1);
    a.st(Reg::S0, Reg::A0, 24);
    a.leave(&[Reg::S0]);
    a.assemble().expect("vortex_like assembles")
}

/// `twolf`-like: annealing-style random swaps with multiply-based cost
/// deltas and data-dependent branches.
pub fn twolf_like(f: usize) -> Program {
    let cells: Vec<u64> = util::words(0x7201f, 1024)
        .iter()
        .map(|w| w & 0xffff)
        .collect();
    let mut a = Asm::named("twolf");
    let base = a.words("cells", &cells);

    a.li(Reg::S0, base as i64);
    a.li(Reg::S1, (250 * f) as i64);
    a.li(Reg::S2, 31415); // lcg
    a.li(Reg::S4, 0); // accepted-swap checksum
    a.li(Reg::S5, 75161);
    a.label("iter");
    a.mul(Reg::S2, Reg::S2, Reg::S5);
    a.addi(Reg::S2, Reg::S2, 3);
    a.srli(Reg::T0, Reg::S2, 12);
    a.andi(Reg::T0, Reg::T0, 1023); // i
    a.srli(Reg::T1, Reg::S2, 28);
    a.andi(Reg::T1, Reg::T1, 1023); // j
    a.slli(Reg::T2, Reg::T0, 3);
    a.add(Reg::T2, Reg::T2, Reg::S0); // &cells[i]
    a.slli(Reg::T3, Reg::T1, 3);
    a.add(Reg::T3, Reg::T3, Reg::S0); // &cells[j]
    a.ld(Reg::T4, Reg::T2, 0);
    a.ld(Reg::T5, Reg::T3, 0);
    a.sub(Reg::T6, Reg::T4, Reg::T5); // position delta
    a.sub(Reg::T7, Reg::T0, Reg::T1); // index delta
    a.mul(Reg::T8, Reg::T6, Reg::T7); // "wirelength" delta
    a.blez(Reg::T8, "reject");
    a.st(Reg::T5, Reg::T2, 0); // accept: swap
    a.st(Reg::T4, Reg::T3, 0);
    a.addi(Reg::S4, Reg::S4, 1);
    a.label("reject");
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "iter");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("twolf_like assembles")
}

/// `gap`-like: multiword (bignum) arithmetic — carry-propagating adds and
/// whole-number shifts over 16-limb integers.
pub fn gap_like(f: usize) -> Program {
    let mut a = Asm::named("gap");
    let xa = a.words("A", &util::words(0x9a91, 16));
    let xb = a.words("B", &util::words(0x9a92, 16));
    let xc = a.zeros("C", 16 * 8);

    a.li(Reg::S0, xa as i64);
    a.li(Reg::S1, xb as i64);
    a.li(Reg::S2, xc as i64);
    a.li(Reg::S3, (20 * f) as i64); // rounds
    a.li(Reg::S4, 0); // checksum
    a.label("round");
    // C = A + B with carry.
    a.li(Reg::T0, 0); // limb index (bytes)
    a.li(Reg::T1, 0); // carry
    a.label("addloop");
    a.add(Reg::T2, Reg::S0, Reg::T0);
    a.ld(Reg::T3, Reg::T2, 0); // a
    a.add(Reg::T2, Reg::S1, Reg::T0);
    a.ld(Reg::T4, Reg::T2, 0); // b
    a.add(Reg::T5, Reg::T3, Reg::T4); // partial
    a.sltu(Reg::T6, Reg::T5, Reg::T3); // carry-out 1
    a.add(Reg::T5, Reg::T5, Reg::T1); // + carry-in
    a.sltu(Reg::T7, Reg::T5, Reg::T1); // carry-out 2
    a.or(Reg::T1, Reg::T6, Reg::T7);
    a.add(Reg::T2, Reg::S2, Reg::T0);
    a.st(Reg::T5, Reg::T2, 0);
    a.addi(Reg::T0, Reg::T0, 8);
    a.slti(Reg::T2, Reg::T0, 128);
    a.bnez(Reg::T2, "addloop");
    a.add(Reg::S4, Reg::S4, Reg::T5); // fold top limb
                                      // A = C >> 1 (whole-number right shift, limb pairs).
    a.li(Reg::T0, 0);
    a.label("shloop");
    a.add(Reg::T2, Reg::S2, Reg::T0);
    a.ld(Reg::T3, Reg::T2, 0);
    a.ld(Reg::T4, Reg::T2, 8); // next limb (C has a spare slot at the end)
    a.srli(Reg::T3, Reg::T3, 1);
    a.slli(Reg::T5, Reg::T4, 63);
    a.or(Reg::T3, Reg::T3, Reg::T5);
    a.add(Reg::T2, Reg::S0, Reg::T0);
    a.st(Reg::T3, Reg::T2, 0);
    a.addi(Reg::T0, Reg::T0, 8);
    a.slti(Reg::T2, Reg::T0, 120);
    a.bnez(Reg::T2, "shloop");
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "round");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("gap_like assembles")
}

/// `perl`-like: a bytecode interpreter with an indirect-jump dispatch loop
/// and an in-memory VM operand stack.
pub fn perl_like(f: usize) -> Program {
    // Bytecode: opcodes 0..6 in a deterministic but mixed order.
    let mut r = util::rng(0x9e71);
    let code: Vec<u8> = (0..64).map(|_| r.gen_range(0u8..6)).collect();
    let mut a = Asm::named("perl.i");
    let bc = a.data_owned("bytecode", code);
    let table = a.zeros("jumptable", 8 * 8);
    let vmstack = a.zeros("vmstack", 256 * 8);

    // Initialize the dispatch table with handler addresses.
    a.li(Reg::S0, table as i64);
    for (i, label) in [
        "op_push", "op_add", "op_xor", "op_shift", "op_dup", "op_drop",
    ]
    .iter()
    .enumerate()
    {
        a.la_code(Reg::T0, label);
        a.st(Reg::T0, Reg::S0, (i * 8) as i16);
    }

    a.li(Reg::S1, bc as i64); // code base
    a.li(Reg::S2, 0); // ip
    a.li(Reg::S3, (6 * f) as i64); // passes
    a.li(Reg::S4, 0x5eed); // vm accumulator / checksum
    a.li(Reg::S5, vmstack as i64 + 64); // vm stack pointer (room to pop)
    a.li(Reg::T11, 0); // stack depth guard value
    a.st(Reg::T11, Reg::S5, -8);

    a.label("dispatch");
    a.add(Reg::T0, Reg::S1, Reg::S2);
    a.ldbu(Reg::T1, Reg::T0, 0); // opcode
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0); // handler
    a.addi(Reg::S2, Reg::S2, 1);
    a.jr(Reg::T2);

    a.label("op_push"); // push acc
    a.st(Reg::S4, Reg::S5, 0);
    a.addi(Reg::S5, Reg::S5, 8);
    a.addi(Reg::S4, Reg::S4, 17);
    a.br("next");
    a.label("op_add"); // acc += pop
    a.addi(Reg::S5, Reg::S5, -8);
    a.ld(Reg::T3, Reg::S5, 0);
    a.add(Reg::S4, Reg::S4, Reg::T3);
    a.br("next");
    a.label("op_xor");
    a.addi(Reg::S5, Reg::S5, -8);
    a.ld(Reg::T3, Reg::S5, 0);
    a.xor(Reg::S4, Reg::S4, Reg::T3);
    a.br("next");
    a.label("op_shift");
    a.andi(Reg::T3, Reg::S4, 7);
    a.srl(Reg::S4, Reg::S4, Reg::T3);
    a.addi(Reg::S4, Reg::S4, 3);
    a.br("next");
    a.label("op_dup");
    a.ld(Reg::T3, Reg::S5, -8);
    a.st(Reg::T3, Reg::S5, 0);
    a.addi(Reg::S5, Reg::S5, 8);
    a.br("next");
    a.label("op_drop");
    a.addi(Reg::S5, Reg::S5, -8);
    a.br("next");

    a.label("next");
    // Keep the VM stack pointer in bounds (wrap to the middle).
    a.li(Reg::T4, vmstack as i64 + 64);
    a.sub(Reg::T6, Reg::S5, Reg::T4);
    a.bgez(Reg::T6, "no_underflow");
    a.mov(Reg::S5, Reg::T4);
    a.label("no_underflow");
    a.li(Reg::T4, vmstack as i64 + 64 * 8);
    a.sub(Reg::T6, Reg::S5, Reg::T4);
    a.bltz(Reg::T6, "no_overflow");
    a.li(Reg::S5, vmstack as i64 + 64);
    a.label("no_overflow");
    a.slti(Reg::T0, Reg::S2, 64);
    a.bnez(Reg::T0, "dispatch");
    a.li(Reg::S2, 0);
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "dispatch");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("perl_like assembles")
}

/// `bzip2`-like: run-length encoding followed by move-to-front coding over
/// a compressible buffer (byte loads/stores, short data-dependent loops).
pub fn bzip2_like(f: usize) -> Program {
    let n = 220 * f + 32;
    let mut a = Asm::named("bzip2");
    let input = a.data_owned("input", util::lumpy_bytes(0xb21b, n));
    let mtf = a.data_owned("mtf", (0..=255u8).collect());

    a.li(Reg::S0, input as i64);
    a.li(Reg::S1, (n - 1) as i64);
    a.li(Reg::S2, mtf as i64);
    a.li(Reg::S3, 0); // i
    a.li(Reg::S4, 0); // output checksum
    a.label("loop");
    a.add(Reg::T0, Reg::S0, Reg::S3);
    a.ldbu(Reg::T1, Reg::T0, 0); // current byte
                                 // Run-length scan: how many copies follow (cap 16)?
    a.li(Reg::T2, 1);
    a.label("run");
    a.add(Reg::T3, Reg::T0, Reg::T2);
    a.ldbu(Reg::T4, Reg::T3, 0);
    a.sub(Reg::T5, Reg::T4, Reg::T1);
    a.bnez(Reg::T5, "rundone");
    a.addi(Reg::T2, Reg::T2, 1);
    a.slti(Reg::T5, Reg::T2, 16);
    a.bnez(Reg::T5, "run");
    a.label("rundone");
    // Move-to-front: find the byte's rank, then rotate it to the front.
    a.li(Reg::T6, 0); // rank
    a.label("find");
    a.add(Reg::T7, Reg::S2, Reg::T6);
    a.ldbu(Reg::T8, Reg::T7, 0);
    a.sub(Reg::T9, Reg::T8, Reg::T1);
    a.beqz(Reg::T9, "found");
    a.addi(Reg::T6, Reg::T6, 1);
    a.slti(Reg::T9, Reg::T6, 48); // bounded search (approximate MTF)
    a.bnez(Reg::T9, "find");
    a.label("found");
    // Shift table entries [0, rank) up by one, install byte at front.
    a.mov(Reg::T7, Reg::T6);
    a.label("shift");
    a.blez(Reg::T7, "shifted");
    a.add(Reg::T8, Reg::S2, Reg::T7);
    a.ldbu(Reg::T9, Reg::T8, -1);
    a.stb(Reg::T9, Reg::T8, 0);
    a.addi(Reg::T7, Reg::T7, -1);
    a.br("shift");
    a.label("shifted");
    a.stb(Reg::T1, Reg::S2, 0);
    // Emit (rank, runlen) into the checksum.
    a.slli(Reg::S4, Reg::S4, 3);
    a.xor(Reg::S4, Reg::S4, Reg::T6);
    a.add(Reg::S4, Reg::S4, Reg::T2);
    a.add(Reg::S3, Reg::S3, Reg::T2); // skip the run
    a.slt(Reg::T0, Reg::S3, Reg::S1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("bzip2_like assembles")
}

/// `vpr`-like: breadth-style wavefront cost propagation over a routing
/// grid, with branchy min-updates and frontier stores.
pub fn vpr_like(f: usize) -> Program {
    let dim = 64usize; // 64x64 grid of u64 costs
    let mut a = Asm::named("vpr.r");
    // Path costs start at "infinity" except the border rows, which act as
    // the routing sources the wavefront expands from.
    let mut init = vec![0xffffu64; dim * dim];
    for i in 0..dim {
        init[i] = i as u64; // top row
        init[i * dim] = i as u64; // left column
    }
    let grid = a.words("grid", &init);
    let costs: Vec<u64> = util::words(0x7b1, dim * dim)
        .iter()
        .map(|w| 1 + (w & 7))
        .collect();
    let cdata = a.words("cost", &costs);

    a.li(Reg::S0, grid as i64);
    a.li(Reg::S1, cdata as i64);
    a.li(Reg::S2, (2 * f) as i64); // sweeps
    a.li(Reg::S4, 0);
    a.label("sweep");
    a.li(Reg::S3, 65); // cell index (skip the border)
    a.label("cell");
    a.slli(Reg::T0, Reg::S3, 3);
    a.add(Reg::T1, Reg::T0, Reg::S0); // &grid[c]
    a.ld(Reg::T2, Reg::T1, -8); // west neighbour
    a.ld(Reg::T3, Reg::T1, -512); // north neighbour (64 * 8)
                                  // best = min(west, north), branchy as the real router is.
    a.sub(Reg::T4, Reg::T2, Reg::T3);
    a.blez(Reg::T4, "west");
    a.mov(Reg::T2, Reg::T3);
    a.label("west");
    a.add(Reg::T5, Reg::T0, Reg::S1);
    a.ld(Reg::T6, Reg::T5, 0); // cell cost
    a.add(Reg::T2, Reg::T2, Reg::T6);
    a.ld(Reg::T7, Reg::T1, 0);
    // Only update if the new path is cheaper (data-dependent).
    a.sub(Reg::T8, Reg::T2, Reg::T7);
    a.bgez(Reg::T8, "skip");
    a.st(Reg::T2, Reg::T1, 0);
    a.addi(Reg::S4, Reg::S4, 1);
    a.label("skip");
    a.addi(Reg::S3, Reg::S3, 1);
    a.slti(Reg::T9, Reg::S3, (dim * dim) as i16 - 1);
    a.bnez(Reg::T9, "cell");
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "sweep");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("vpr_like assembles")
}
