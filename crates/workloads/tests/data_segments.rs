//! Pinned kernel images: a digest of every kernel's initialized data
//! segments, and of its instruction stream, at Tiny and at Default scale.
//!
//! `golden.rs` pins the kernels' *outputs*, which catch a changed data
//! layout only when it happens to move a checksum. These pins catch any
//! change to the bytes a kernel starts from, so a rewrite of how the data
//! is generated or handed to the assembler must reproduce them exactly.
//!
//! On drift the failure message prints the observed table; re-pin from it
//! only for a deliberate change to a kernel.

use reno_isa::Program;
use reno_workloads::{all_workloads, Scale};

/// FNV-1a, 64-bit.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every data segment's address, length and bytes, in order.
fn data_digest(p: &Program) -> u64 {
    p.data.iter().fold(FNV_OFFSET, |h, seg| {
        let h = fnv(h, &seg.addr.to_le_bytes());
        let h = fnv(h, &(seg.bytes.len() as u64).to_le_bytes());
        fnv(h, &seg.bytes)
    })
}

/// Digest of the instruction stream and entry point.
fn text_digest(p: &Program) -> u64 {
    let h = fnv(FNV_OFFSET, format!("{:?}", p.insts).as_bytes());
    fnv(h, &(p.entry as u64).to_le_bytes())
}

/// (kernel, data digest, text digest) at Tiny scale.
const TINY: [(&str, u64, u64); 20] = [
    ("gzip.c", 0x59f1be0b87e8fc9e, 0xee3a51133c73cd10),
    ("crafty", 0x93231db3fed3d9a9, 0xd5128e4bc2a5d277),
    ("mcf", 0x191cd8169a9fdbba, 0xae8c10137fd34098),
    ("parser", 0x64a55b29f0f64dec, 0x8b59a93c43a152c0),
    ("vortex", 0x812fa715fe4295c1, 0x1d2480f16f510238),
    ("twolf", 0x6340893d4d774aeb, 0xd52680ccb626902a),
    ("gap", 0x153fa397282f7f74, 0x6343c15ef7e8f500),
    ("perl.i", 0xe409fd2a58f255b7, 0xd8c674ef5ce158e4),
    ("bzip2", 0x89432478ca0cd9af, 0x75d9c6448fde3d09),
    ("vpr.r", 0xa304748ec92f51c7, 0x34e772ceb371176a),
    ("adpcm.en", 0x378f6429a4677c93, 0x42bf80c40759cf6a),
    ("g721.de", 0x7ff4cf10f7cc1f4b, 0xdceceae68293cfe8),
    ("gsm.en", 0xd1fefb3133963910, 0x50b5682064ad7e94),
    ("jpg.en", 0x92e265053537723f, 0x8026de5c2f7617ee),
    ("mpg2.de", 0xd2356acd701702c6, 0x853b3299b9a7663a),
    ("epic", 0x9272a43799e35cf9, 0x5321dd7297f61c32),
    ("pegw.en", 0xcbf29ce484222325, 0x8c428c0375b9b745),
    ("mesa.t", 0xb5915440c472d9e9, 0xa1275d82a4ae494d),
    ("gs.de", 0x49b6f1b0625b2ce0, 0xf8bbe3432ea4ecf9),
    ("unepic", 0x84edfb9ff52f0ec9, 0x9ef59066323016d7),
];

/// (kernel, data digest, text digest) at Default scale.
const DEFAULT: [(&str, u64, u64); 20] = [
    ("gzip.c", 0x064c923aadfb7426, 0x258f84322ca0a24f),
    ("crafty", 0x93231db3fed3d9a9, 0xc08f1b889d9371ea),
    ("mcf", 0x191cd8169a9fdbba, 0x9a755cc254067441),
    ("parser", 0x64a55b29f0f64dec, 0xe40456b76cf2c4f7),
    ("vortex", 0x812fa715fe4295c1, 0x75be9103887fd839),
    ("twolf", 0x6340893d4d774aeb, 0xf7c45be219f8f200),
    ("gap", 0x153fa397282f7f74, 0x65bba641db23a28d),
    ("perl.i", 0xe409fd2a58f255b7, 0x67724375777d1957),
    ("bzip2", 0x9c74cafab749e861, 0x6cd9a7ad69f661f5),
    ("vpr.r", 0xa304748ec92f51c7, 0x9217a9d363ecee93),
    ("adpcm.en", 0xc3667fc1026dcce3, 0x3e9566c8bccb1bb4),
    ("g721.de", 0xcb0af499fa8bb3e3, 0xd8f1533a44bbb4da),
    ("gsm.en", 0x379db6c9bdf907cc, 0xbc5b90b900518bd1),
    ("jpg.en", 0x92e265053537723f, 0x2e0f4f426cf61ae7),
    ("mpg2.de", 0xd2356acd701702c6, 0xc48b379a06667a1a),
    ("epic", 0x9272a43799e35cf9, 0xe7168bf6c40e59ed),
    ("pegw.en", 0xcbf29ce484222325, 0xf209d59ceb0f5e1e),
    ("mesa.t", 0xb5915440c472d9e9, 0xc489fdf0f59af914),
    ("gs.de", 0x9de9e81c55a24e6a, 0x37b6775b94d2974f),
    ("unepic", 0x84edfb9ff52f0ec9, 0x3477c1938a471c3a),
];

fn check(scale: Scale, pins: &[(&str, u64, u64)]) {
    let observed: Vec<(&str, u64, u64)> = all_workloads(scale)
        .iter()
        .map(|w| (w.name, data_digest(&w.program), text_digest(&w.program)))
        .collect();
    let table: Vec<String> = observed
        .iter()
        .map(|(n, d, t)| format!("    (\"{n}\", {d:#018x}, {t:#018x}),"))
        .collect();
    assert_eq!(
        observed,
        pins,
        "kernel image drift at {scale:?}; observed table:\n{}",
        table.join("\n")
    );
}

#[test]
fn tiny_kernel_images_are_pinned() {
    check(Scale::Tiny, &TINY);
}

#[test]
fn default_kernel_images_are_pinned() {
    check(Scale::Default, &DEFAULT);
}
