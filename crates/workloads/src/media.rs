//! MediaBench-like kernels: codecs and signal processing — dense ALU MAC
//! loops over small, hot buffers (the paper's Fig 9 shows MediaBench as
//! ALU-critical, which is why RENO_CF provides the bulk of its speedup).

use crate::util;
use reno_isa::{Asm, Program, Reg};

/// `adpcm`-like: ADPCM encoding — per-sample prediction with step-size
/// adaptation and clamping branches.
pub fn adpcm_like(f: usize) -> Program {
    let n = 190 * f;
    let mut a = Asm::named("adpcm.en");
    let pcm = a.data_owned("pcm", util::samples_i16(0xadc, n));
    // A simplified 16-entry step table.
    let steps: Vec<u64> = (0..16).map(|i| 7u64 << i).collect();
    let steps = a.words("steps", &steps);

    a.li(Reg::S0, pcm as i64);
    a.li(Reg::S1, n as i64);
    a.li(Reg::S2, 0); // predictor
    a.li(Reg::S3, 0); // step index
    a.li(Reg::S4, 0); // encoded checksum
    a.li(Reg::S5, steps as i64);
    a.label("sample");
    a.ldh(Reg::T0, Reg::S0, 0); // sample
    a.addi(Reg::S0, Reg::S0, 2);
    a.sub(Reg::T1, Reg::T0, Reg::S2); // diff
    a.li(Reg::T2, 0); // sign bit
    a.bgez(Reg::T1, "pos");
    a.li(Reg::T2, 8);
    a.sub(Reg::T1, Reg::ZERO, Reg::T1); // |diff|
    a.label("pos");
    a.slli(Reg::T3, Reg::S3, 3);
    a.add(Reg::T3, Reg::T3, Reg::S5);
    a.ld(Reg::T4, Reg::T3, 0); // step
                               // delta = min(3, |diff| / step) via two compares.
    a.li(Reg::T5, 0);
    a.sub(Reg::T6, Reg::T1, Reg::T4);
    a.bltz(Reg::T6, "deltadone");
    a.addi(Reg::T5, Reg::T5, 1);
    a.slli(Reg::T7, Reg::T4, 1);
    a.sub(Reg::T6, Reg::T1, Reg::T7);
    a.bltz(Reg::T6, "deltadone");
    a.addi(Reg::T5, Reg::T5, 2);
    a.label("deltadone");
    // predictor += sign ? -delta*step : delta*step
    a.mul(Reg::T6, Reg::T5, Reg::T4);
    a.beqz(Reg::T2, "addpred");
    a.sub(Reg::S2, Reg::S2, Reg::T6);
    a.br("predok");
    a.label("addpred");
    a.add(Reg::S2, Reg::S2, Reg::T6);
    a.label("predok");
    // Step-index adaptation with clamping.
    a.addi(Reg::T7, Reg::T5, -1);
    a.add(Reg::S3, Reg::S3, Reg::T7);
    a.bgez(Reg::S3, "noclamp0");
    a.li(Reg::S3, 0);
    a.label("noclamp0");
    a.slti(Reg::T7, Reg::S3, 16);
    a.bnez(Reg::T7, "noclamp1");
    a.li(Reg::S3, 15);
    a.label("noclamp1");
    a.or(Reg::T7, Reg::T5, Reg::T2); // 4-bit code
    a.slli(Reg::S4, Reg::S4, 1);
    a.xor(Reg::S4, Reg::S4, Reg::T7);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "sample");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("adpcm_like assembles")
}

/// `g721`-like: an 8-tap adaptive FIR predictor per sample.
pub fn g721_like(f: usize) -> Program {
    let n = 64 * f;
    let mut a = Asm::named("g721.de");
    let pcm = a.data_owned("pcm", util::samples_i16(0x721, n + 8));
    let coefs = a.words("coefs", &[3, -2, 5, -1, 4, -3, 2, 1].map(|c: i64| c as u64));

    a.li(Reg::S0, pcm as i64);
    a.li(Reg::S1, n as i64);
    a.li(Reg::S2, coefs as i64);
    a.li(Reg::S4, 0); // output checksum
    a.label("sample");
    // acc = sum(coef[k] * x[i+k]) over 8 taps.
    a.li(Reg::T0, 0); // k (bytes into coefs)
    a.li(Reg::T1, 0); // acc
    a.mov(Reg::T2, Reg::S0); // &x[i]
    a.label("tap");
    a.add(Reg::T3, Reg::S2, Reg::T0);
    a.ld(Reg::T4, Reg::T3, 0); // coef
    a.ldh(Reg::T5, Reg::T2, 0); // sample
    a.mul(Reg::T6, Reg::T4, Reg::T5);
    a.add(Reg::T1, Reg::T1, Reg::T6);
    a.addi(Reg::T2, Reg::T2, 2);
    a.addi(Reg::T0, Reg::T0, 8);
    a.slti(Reg::T3, Reg::T0, 64);
    a.bnez(Reg::T3, "tap");
    a.srai(Reg::T1, Reg::T1, 3); // fixed-point scale
                                 // Error vs the actual next sample drives the checksum.
    a.ldh(Reg::T7, Reg::S0, 16);
    a.sub(Reg::T8, Reg::T7, Reg::T1);
    a.xor(Reg::S4, Reg::S4, Reg::T8);
    a.addi(Reg::S4, Reg::S4, 1);
    a.addi(Reg::S0, Reg::S0, 2);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "sample");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("g721_like assembles")
}

/// `gsm`-like: long-term-prediction autocorrelation over sliding windows.
pub fn gsm_like(f: usize) -> Program {
    let n = 40 * 4 * f + 64;
    let mut a = Asm::named("gsm.en");
    let pcm = a.data_owned("pcm", util::samples_i16(0x65a, n));

    a.li(Reg::S0, pcm as i64);
    a.li(Reg::S1, (4 * f) as i64); // windows
    a.li(Reg::S4, 0); // best-lag checksum
    a.label("window");
    a.li(Reg::S2, 0); // lag (0..4)
    a.li(Reg::S3, 0); // best score
    a.label("lag");
    a.li(Reg::T0, 0); // t
    a.li(Reg::T1, 0); // correlation acc
    a.label("corr");
    a.slli(Reg::T2, Reg::T0, 1);
    a.add(Reg::T2, Reg::T2, Reg::S0);
    a.ldh(Reg::T3, Reg::T2, 0); // x[t]
    a.slli(Reg::T4, Reg::S2, 1);
    a.add(Reg::T4, Reg::T4, Reg::T2);
    a.ldh(Reg::T5, Reg::T4, 8); // x[t + lag + 4]
    a.mul(Reg::T6, Reg::T3, Reg::T5);
    a.srai(Reg::T6, Reg::T6, 6);
    a.add(Reg::T1, Reg::T1, Reg::T6);
    a.addi(Reg::T0, Reg::T0, 1);
    a.slti(Reg::T2, Reg::T0, 40);
    a.bnez(Reg::T2, "corr");
    // best = max(best, acc)
    a.sub(Reg::T7, Reg::T1, Reg::S3);
    a.blez(Reg::T7, "nolag");
    a.mov(Reg::S3, Reg::T1);
    a.label("nolag");
    a.addi(Reg::S2, Reg::S2, 1);
    a.slti(Reg::T2, Reg::S2, 4);
    a.bnez(Reg::T2, "lag");
    a.xor(Reg::S4, Reg::S4, Reg::S3);
    a.addi(Reg::S4, Reg::S4, 7);
    a.addi(Reg::S0, Reg::S0, 80); // advance one window (40 samples)
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "window");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("gsm_like assembles")
}

/// `jpeg`-like: 8x8 butterfly transform (DCT-shaped) plus quantization.
pub fn jpeg_like(f: usize) -> Program {
    let blocks = 6 * f;
    let mut a = Asm::named("jpg.en");
    let src: Vec<u64> = util::words(0x19e9, 64).iter().map(|w| w & 0xff).collect();
    let block = a.words("block", &src);

    a.li(Reg::S0, block as i64);
    a.li(Reg::S1, blocks as i64);
    a.li(Reg::S4, 0);
    a.label("block");
    // Row pass: butterflies on pairs (i, i+4) for each of 8 rows.
    a.li(Reg::S2, 0); // row
    a.label("row");
    a.slli(Reg::T0, Reg::S2, 6); // row * 8 words * 8 bytes
    a.add(Reg::T0, Reg::T0, Reg::S0);
    a.li(Reg::S3, 0); // pair
    a.label("rpair");
    a.ld(Reg::T1, Reg::T0, 0);
    a.ld(Reg::T2, Reg::T0, 32);
    a.add(Reg::T3, Reg::T1, Reg::T2); // sum
    a.sub(Reg::T4, Reg::T1, Reg::T2); // diff
    a.srai(Reg::T5, Reg::T3, 1);
    a.add(Reg::T4, Reg::T4, Reg::T5); // rotate-ish mix
    a.st(Reg::T3, Reg::T0, 0);
    a.st(Reg::T4, Reg::T0, 32);
    a.addi(Reg::T0, Reg::T0, 8);
    a.addi(Reg::S3, Reg::S3, 1);
    a.slti(Reg::T6, Reg::S3, 4);
    a.bnez(Reg::T6, "rpair");
    a.addi(Reg::S2, Reg::S2, 1);
    a.slti(Reg::T6, Reg::S2, 8);
    a.bnez(Reg::T6, "row");
    // Column pass + quantization.
    a.li(Reg::S2, 0); // column
    a.label("col");
    a.slli(Reg::T0, Reg::S2, 3);
    a.add(Reg::T0, Reg::T0, Reg::S0); // &block[0][c]
    a.li(Reg::S3, 0);
    a.label("cpair");
    a.ld(Reg::T1, Reg::T0, 0);
    a.ld(Reg::T2, Reg::T0, 256); // 4 rows below
    a.add(Reg::T3, Reg::T1, Reg::T2);
    a.sub(Reg::T4, Reg::T1, Reg::T2);
    a.srai(Reg::T3, Reg::T3, 2); // quantize
    a.srai(Reg::T4, Reg::T4, 2);
    a.st(Reg::T3, Reg::T0, 0);
    a.st(Reg::T4, Reg::T0, 256);
    a.xor(Reg::S4, Reg::S4, Reg::T3);
    a.addi(Reg::T0, Reg::T0, 64); // next row
    a.addi(Reg::S3, Reg::S3, 1);
    a.slti(Reg::T6, Reg::S3, 4);
    a.bnez(Reg::T6, "cpair");
    a.addi(Reg::S2, Reg::S2, 1);
    a.slti(Reg::T6, Reg::S2, 8);
    a.bnez(Reg::T6, "col");
    a.addi(Reg::S4, Reg::S4, 13);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "block");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("jpeg_like assembles")
}

/// `mpeg2`-like: motion-estimation SAD over 8x8 blocks at several candidate
/// offsets, with data-dependent absolute-value branches.
pub fn mpeg2_like(f: usize) -> Program {
    let mut a = Asm::named("mpg2.de");
    let frame = a.data_owned("frame", util::lumpy_bytes(0x3992, 64 * 64));
    let refblk = a.data_owned("refblk", util::lumpy_bytes(0x3993, 16 * 16));

    a.li(Reg::S0, frame as i64);
    a.li(Reg::S1, refblk as i64);
    a.li(Reg::S2, (8 * f) as i64); // candidates
    a.li(Reg::S3, 0); // candidate offset
    a.li(Reg::S4, 0); // best-SAD checksum
    a.label("cand");
    a.add(Reg::T0, Reg::S0, Reg::S3); // candidate base
    a.mov(Reg::T1, Reg::S1); // ref cursor
    a.li(Reg::T2, 0); // SAD
    a.li(Reg::T3, 64); // pixels
    a.label("pix");
    a.ldbu(Reg::T4, Reg::T0, 0);
    a.ldbu(Reg::T5, Reg::T1, 0);
    a.sub(Reg::T6, Reg::T4, Reg::T5);
    // Branchless |diff| (the data-dependent branch would mispredict ~50%).
    a.srai(Reg::T7, Reg::T6, 63);
    a.xor(Reg::T6, Reg::T6, Reg::T7);
    a.sub(Reg::T6, Reg::T6, Reg::T7);
    a.add(Reg::T2, Reg::T2, Reg::T6);
    a.addi(Reg::T0, Reg::T0, 1);
    a.addi(Reg::T1, Reg::T1, 1);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "pix");
    a.xor(Reg::S4, Reg::S4, Reg::T2);
    a.addi(Reg::S4, Reg::S4, 3);
    a.addi(Reg::S3, Reg::S3, 37); // next candidate offset
    a.andi(Reg::S3, Reg::S3, 2047);
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "cand");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("mpeg2_like assembles")
}

/// `epic`-like: wavelet lifting passes over a 1-D signal, reading the
/// source band and writing a separate detail band (as the real filter does).
pub fn epic_like(f: usize) -> Program {
    let n = 512usize;
    let sig: Vec<u64> = util::samples_i16(0xe71c, n)
        .chunks(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]) as i64 as u64)
        .collect();
    let mut a = Asm::named("epic");
    let base = a.words("sig", &sig);
    let detail = a.zeros("detail", n * 8);

    a.li(Reg::S0, base as i64);
    a.li(Reg::S5, detail as i64);
    a.li(Reg::S1, f as i64); // passes
    a.li(Reg::S4, 0);
    a.label("pass");
    a.li(Reg::S2, 1); // i
    a.mov(Reg::T7, Reg::S0); // src cursor (&sig[i-1])
    a.mov(Reg::T8, Reg::S5); // dst cursor
    a.label("lift");
    a.ld(Reg::T1, Reg::T7, 0); // sig[i-1]
    a.ld(Reg::T2, Reg::T7, 16); // sig[i+1]
    a.ld(Reg::T3, Reg::T7, 8); // sig[i]
    a.add(Reg::T4, Reg::T1, Reg::T2);
    a.srai(Reg::T4, Reg::T4, 1); // predict
    a.sub(Reg::T3, Reg::T3, Reg::T4); // detail coefficient
    a.st(Reg::T3, Reg::T8, 0);
    a.addi(Reg::T7, Reg::T7, 8); // folded by RENO_CF
    a.addi(Reg::T8, Reg::T8, 8); // folded by RENO_CF
    a.addi(Reg::S2, Reg::S2, 1);
    a.slti(Reg::T6, Reg::S2, (n - 1) as i16);
    a.bnez(Reg::T6, "lift");
    a.xor(Reg::S4, Reg::S4, Reg::T3);
    a.addi(Reg::S4, Reg::S4, 5);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "pass");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("epic_like assembles")
}

/// `pegwit`-like: modular exponentiation with Mersenne-61 reduction, built
/// from a called modular-multiply routine (call-heavy crypto arithmetic).
pub fn pegwit_like(f: usize) -> Program {
    let mut a = Asm::named("pegw.en");
    a.li(Reg::S0, (2 * f) as i64); // exponentiations
    a.li(Reg::S1, 0x0123_4567); // base accumulator (31-bit values)
    a.li(Reg::S4, 0);
    a.label("exp");
    a.mov(Reg::A0, Reg::S1);
    a.li(Reg::A1, 0x1db7_10c5);
    a.call("modexp");
    a.xor(Reg::S4, Reg::S4, Reg::V0);
    a.addi(Reg::S1, Reg::S1, 0x11);
    // Keep the base in 31-bit range.
    a.li(Reg::T0, 0x7fff_ffff);
    a.and(Reg::S1, Reg::S1, Reg::T0);
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "exp");
    a.out(Reg::S4);
    a.halt();

    // modexp(a0 = base, a1 = 32-bit exponent) -> v0, square-and-multiply.
    a.label("modexp");
    a.enter(&[Reg::S0, Reg::S1, Reg::S2]);
    a.mov(Reg::S0, Reg::A0); // running square
    a.mov(Reg::S1, Reg::A1); // exponent bits
    a.li(Reg::S2, 1); // result
    a.label("bits");
    a.andi(Reg::T0, Reg::S1, 1);
    a.beqz(Reg::T0, "nomul");
    a.mov(Reg::A0, Reg::S2);
    a.mov(Reg::A1, Reg::S0);
    a.call("modmul");
    a.mov(Reg::S2, Reg::V0);
    a.label("nomul");
    a.mov(Reg::A0, Reg::S0);
    a.mov(Reg::A1, Reg::S0);
    a.call("modmul");
    a.mov(Reg::S0, Reg::V0);
    a.srli(Reg::S1, Reg::S1, 1);
    a.bnez(Reg::S1, "bits");
    a.mov(Reg::V0, Reg::S2);
    a.leave(&[Reg::S0, Reg::S1, Reg::S2]);

    // modmul(a0, a1) -> v0 = a0 * a1 mod (2^61 - 1), inputs < 2^31.
    a.label("modmul");
    a.mul(Reg::T0, Reg::A0, Reg::A1); // < 2^62
    a.srli(Reg::T1, Reg::T0, 61);
    a.li(Reg::T2, (1i64 << 61) - 1);
    a.and(Reg::T0, Reg::T0, Reg::T2);
    a.add(Reg::T0, Reg::T0, Reg::T1);
    // One conditional subtraction completes the reduction.
    a.sub(Reg::T3, Reg::T0, Reg::T2);
    a.bltz(Reg::T3, "mm_done");
    a.mov(Reg::T0, Reg::T3);
    a.label("mm_done");
    // Keep the result in 31-bit range for the next multiply.
    a.li(Reg::T4, 0x7fff_ffff);
    a.and(Reg::V0, Reg::T0, Reg::T4);
    a.ret();
    a.assemble().expect("pegwit_like assembles")
}

/// `mesa`-like: fixed-point 4x4 matrix transforms over a vertex stream,
/// with deliberate register-move traffic between pipeline "stages" (the
/// paper singles out mesa for its >8% move density).
pub fn mesa_like(f: usize) -> Program {
    // A hot, cache-resident vertex buffer transformed repeatedly (mesa is
    // ALU-critical in the paper's Fig 9, not memory-bound).
    let verts = 96usize;
    let mut a = Asm::named("mesa.t");
    let vbuf: Vec<u64> = util::words(0x3e5a, verts * 4)
        .iter()
        .map(|w| w & 0xffff)
        .collect();
    let vaddr = a.words("verts", &vbuf);
    let oaddr = a.zeros("out", verts * 16);
    // Row-major fixed-point 4x4 matrix.
    let m: Vec<u64> = (0..16).map(|i| (3 * i + 7) as u64).collect();
    let maddr = a.words("matrix", &m);

    a.li(Reg::S5, f as i64); // passes over the vertex buffer
    a.li(Reg::S4, 0);
    a.label("pass");
    a.li(Reg::S0, vaddr as i64);
    a.li(Reg::T7, oaddr as i64); // output cursor
    a.li(Reg::S1, verts as i64);
    a.li(Reg::S2, maddr as i64);
    a.label("vert");
    a.ld(Reg::A0, Reg::S0, 0);
    a.ld(Reg::A1, Reg::S0, 8);
    a.ld(Reg::A2, Reg::S0, 16);
    a.ld(Reg::A3, Reg::S0, 24);
    // Stage copies, as a register-allocated geometry pipeline would emit.
    a.mov(Reg::T8, Reg::A0);
    a.mov(Reg::T9, Reg::A1);
    a.mov(Reg::T10, Reg::A2);
    a.mov(Reg::T11, Reg::A3);
    // Two output components (dot products with matrix rows 0 and 1).
    a.li(Reg::S3, 0); // row (0 then 1)
    a.label("rowdot");
    a.slli(Reg::T0, Reg::S3, 5);
    a.add(Reg::T0, Reg::T0, Reg::S2); // &m[row][0]
    a.ld(Reg::T1, Reg::T0, 0);
    a.mul(Reg::T1, Reg::T1, Reg::T8);
    a.ld(Reg::T2, Reg::T0, 8);
    a.mul(Reg::T2, Reg::T2, Reg::T9);
    a.ld(Reg::T3, Reg::T0, 16);
    a.mul(Reg::T3, Reg::T3, Reg::T10);
    a.ld(Reg::T4, Reg::T0, 24);
    a.mul(Reg::T4, Reg::T4, Reg::T11);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.add(Reg::T3, Reg::T3, Reg::T4);
    a.add(Reg::T1, Reg::T1, Reg::T3);
    a.srai(Reg::T1, Reg::T1, 8); // fixed-point scale
    a.mov(Reg::T5, Reg::T1); // stage copy to the "clip" stage
    a.st(Reg::T5, Reg::T7, 0); // emit transformed component
    a.addi(Reg::T7, Reg::T7, 8);
    a.xor(Reg::S4, Reg::S4, Reg::T5);
    a.addi(Reg::S3, Reg::S3, 1);
    a.slti(Reg::T6, Reg::S3, 2);
    a.bnez(Reg::T6, "rowdot");
    a.addi(Reg::S4, Reg::S4, 9);
    a.addi(Reg::S0, Reg::S0, 32);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "vert");
    a.addi(Reg::S5, Reg::S5, -1);
    a.bnez(Reg::S5, "pass");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("mesa_like assembles")
}

/// `gs`-like (ghostscript): error-diffusion dithering over image rows —
/// byte traffic, saturation branches, and an error accumulator chain.
pub fn gs_like(f: usize) -> Program {
    let n = 256 * f + 16;
    let mut a = Asm::named("gs.de");
    let img = a.data_owned("img", util::lumpy_bytes(0x65de, n));
    let outb = a.zeros("out", n);

    a.li(Reg::S0, img as i64);
    a.li(Reg::S1, outb as i64);
    a.li(Reg::S2, (n - 2) as i64);
    a.li(Reg::S3, 0); // error accumulator
    a.li(Reg::S4, 0); // checksum
    a.li(Reg::S5, 0); // index
    a.label("px");
    a.add(Reg::T0, Reg::S0, Reg::S5);
    a.ldbu(Reg::T1, Reg::T0, 0);
    a.slli(Reg::T1, Reg::T1, 2); // scale to 10-bit intensity
    a.add(Reg::T1, Reg::T1, Reg::S3); // + diffused error
    a.li(Reg::T2, 0); // output bit
    a.slti(Reg::T3, Reg::T1, 512);
    a.bnez(Reg::T3, "dark");
    a.li(Reg::T2, 1);
    a.addi(Reg::T1, Reg::T1, -1020); // subtract white level
    a.label("dark");
    // error *= 7/16 (approximately), carried to the next pixel.
    a.slli(Reg::T4, Reg::T1, 3);
    a.sub(Reg::T4, Reg::T4, Reg::T1);
    a.srai(Reg::S3, Reg::T4, 4);
    a.add(Reg::T5, Reg::S1, Reg::S5);
    a.stb(Reg::T2, Reg::T5, 0);
    a.add(Reg::S4, Reg::S4, Reg::T2);
    a.addi(Reg::S5, Reg::S5, 1);
    a.slt(Reg::T6, Reg::S5, Reg::S2);
    a.bnez(Reg::T6, "px");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("gs_like assembles")
}

/// `unepic`-like: inverse wavelet reconstruction (approx + detail -> signal),
/// the mirror of [`epic_like`].
pub fn unepic_like(f: usize) -> Program {
    let n = 512usize;
    let approx: Vec<u64> = util::samples_i16(0x04e, n)
        .chunks(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]) as i64 as u64)
        .collect();
    let detail: Vec<u64> = util::samples_i16(0x04f, n)
        .chunks(2)
        .map(|c| (i16::from_le_bytes([c[0], c[1]]) as i64 / 16) as u64)
        .collect();
    let mut a = Asm::named("unepic");
    let ab = a.words("approx", &approx);
    let db = a.words("detail", &detail);
    let rb = a.zeros("recon", n * 8);

    a.li(Reg::S0, ab as i64);
    a.li(Reg::S1, db as i64);
    a.li(Reg::S2, rb as i64);
    a.li(Reg::S5, f as i64); // passes
    a.li(Reg::S4, 0);
    a.label("pass");
    a.li(Reg::S3, 1);
    a.mov(Reg::T7, Reg::S0);
    a.mov(Reg::T8, Reg::S1);
    a.mov(Reg::T9, Reg::S2);
    a.label("rec");
    a.ld(Reg::T1, Reg::T7, 0); // approx[i-1]
    a.ld(Reg::T2, Reg::T7, 16); // approx[i+1]
    a.ld(Reg::T3, Reg::T8, 8); // detail[i]
    a.add(Reg::T4, Reg::T1, Reg::T2);
    a.srai(Reg::T4, Reg::T4, 1); // predict
    a.add(Reg::T4, Reg::T4, Reg::T3); // + detail = reconstruction
    a.st(Reg::T4, Reg::T9, 8);
    a.addi(Reg::T7, Reg::T7, 8);
    a.addi(Reg::T8, Reg::T8, 8);
    a.addi(Reg::T9, Reg::T9, 8);
    a.addi(Reg::S3, Reg::S3, 1);
    a.slti(Reg::T6, Reg::S3, (n - 1) as i16);
    a.bnez(Reg::T6, "rec");
    a.xor(Reg::S4, Reg::S4, Reg::T4);
    a.addi(Reg::S4, Reg::S4, 11);
    a.addi(Reg::S5, Reg::S5, -1);
    a.bnez(Reg::S5, "pass");
    a.out(Reg::S4);
    a.halt();
    a.assemble().expect("unepic_like assembles")
}
