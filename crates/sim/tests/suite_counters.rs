//! Every counter of the real suite, pinned.
//!
//! `pinned_timing.rs` pins `(cycles, retired)` for four hand-written
//! kernels, and the equivalence suites compare the default pipeline with
//! the reference paths. Both paths share the simulator's containers, so a
//! container bug that hits them alike passes the equivalence suites; these
//! pins catch it. Each row digests every counter a [`SimResult`] carries:
//! cycles, retired, checksum, state digest, halted, `SimStats`,
//! `RenoStats`, `ItStats`, the front end's, the three caches' and the
//! hierarchy's.
//!
//! Tiny runs every kernel under BASE and RENO on the four-wide machine;
//! the Default suite (the paper's BASE-vs-RENO runs) is release-only:
//!
//! ```text
//! cargo test --release -p reno-sim --test suite_counters -- --ignored
//! ```
//!
//! On drift the failure message prints the observed table; re-pin from it
//! only for a deliberate timing-model change.

use reno_core::RenoConfig;
use reno_sim::{MachineConfig, SimResult, Simulator};
use reno_workloads::{all_workloads, Scale};

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every counter of `r` (its `Debug` rendering names each one).
fn counters_digest(r: &SimResult) -> u64 {
    let all = format!(
        "{} {} {:#x} {:#x} {} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.cycles,
        r.retired,
        r.checksum,
        r.digest,
        r.halted,
        r.stats,
        r.reno,
        r.it,
        r.frontend,
        r.caches,
        r.hier
    );
    fnv(all.as_bytes())
}

/// (kernel, config, cycles, retired, counters digest) at Tiny scale.
const TINY: &[(&str, &str, u64, u64, u64)] = &[
    ("gzip.c", "base", 12091, 10758, 0xb73144880460ccb2),
    ("gzip.c", "reno", 11872, 10758, 0x1e55d0907c9802da),
    ("crafty", "base", 2706, 4553, 0x7344400d4a47ccc0),
    ("crafty", "reno", 2466, 4553, 0x0ed334919164f67a),
    ("mcf", "base", 77212, 4206, 0x1dc0fbd83235ebdf),
    ("mcf", "reno", 77212, 4206, 0xac149049e725c2de),
    ("parser", "base", 9316, 9689, 0xa249ada1710967e9),
    ("parser", "reno", 9451, 9689, 0x0fab7685563b8beb),
    ("vortex", "base", 5070, 4519, 0x4e3089c87714d1ad),
    ("vortex", "reno", 4971, 4519, 0xdc0674cd99392493),
    ("twolf", "base", 10997, 4853, 0x882315487ae127e1),
    ("twolf", "reno", 11007, 4853, 0xbee73071293c26ff),
    ("gap", "base", 3153, 7909, 0x9746ac24bc31b164),
    ("gap", "reno", 2905, 7909, 0xdf861204c053d304),
    ("perl.i", "base", 10363, 8150, 0x7ec2d31a3fc87ae2),
    ("perl.i", "reno", 10347, 8150, 0xd588495d1b134ea7),
    ("bzip2", "base", 15198, 34084, 0x29188742c4db34f9),
    ("bzip2", "reno", 14146, 34084, 0x957b278955b88797),
    ("vpr.r", "base", 160995, 132591, 0x396020cd38d24b1a),
    ("vpr.r", "reno", 163148, 132591, 0x1473a6929e1734ba),
    ("adpcm.en", "base", 6407, 5307, 0x3b994118284f4733),
    ("adpcm.en", "reno", 6304, 5307, 0x587742a6d670bb00),
    ("g721.de", "base", 1937, 5319, 0xe4b162a40c8d0ded),
    ("g721.de", "reno", 1874, 5319, 0x79ca85735e35c79f),
    ("gsm.en", "base", 3377, 7835, 0xef1bf2fefcbedf17),
    ("gsm.en", "reno", 3194, 7835, 0xe1bd672046001932),
    ("jpg.en", "base", 2482, 5411, 0xa3dbf6190f3cffbc),
    ("jpg.en", "reno", 2400, 5411, 0x3783fe8bad8bc4d4),
    ("mpg2.de", "base", 2535, 5720, 0x1a3f6535ce78b84d),
    ("mpg2.de", "reno", 2377, 5720, 0x917d606b36401ed5),
    ("epic", "base", 5300, 6134, 0x0110bed5720685e8),
    ("epic", "reno", 5298, 6134, 0xada92439af87dd5b),
    ("pegw.en", "base", 1409, 2138, 0x00c67ac348060d86),
    ("pegw.en", "reno", 1338, 2138, 0x0ed0ae8e2c6eadce),
    ("mesa.t", "base", 7512, 5292, 0x0f342df324b45801),
    ("mesa.t", "reno", 4344, 5292, 0x5c35fb8b27624fa0),
    ("gs.de", "base", 2798, 4573, 0xcb5c284d4a66e2d5),
    ("gs.de", "reno", 2686, 4573, 0xef1d01ca2a75ab60),
    ("unepic", "base", 5751, 6647, 0xfcf5d7bb64b58dfa),
    ("unepic", "reno", 5749, 6647, 0x244bb2c2d0be3d32),
];

/// (kernel, config, cycles, retired, counters digest) at Default scale.
const DEFAULT: &[(&str, &str, u64, u64, u64)] = &[
    ("gzip.c", "base", 523139, 664723, 0xc5c3570892987850),
    ("gzip.c", "reno", 507792, 664723, 0xf9b422027197e16b),
    ("crafty", "base", 88273, 291077, 0x894248e23b50e385),
    ("crafty", "reno", 74922, 291077, 0xbcf576b9c02ce7fb),
    ("mcf", "base", 3470795, 268807, 0x085b64e548bebdf9),
    ("mcf", "reno", 3470795, 268807, 0x517ed915257cd1e1),
    ("parser", "base", 794694, 874169, 0x91bfb9ee5f3f708d),
    ("parser", "reno", 811050, 874169, 0x5136f18da5cf3130),
    ("vortex", "base", 100652, 288649, 0x3df486d69899af60),
    ("vortex", "reno", 82075, 288649, 0x9dd78b6908565031),
    ("twolf", "base", 166723, 295379, 0x0e3060585f40db94),
    ("twolf", "reno", 157510, 295379, 0x76b18e383d6e4264),
    ("gap", "base", 171993, 505609, 0x0a0c0b66f8ce1a20),
    ("gap", "reno", 155365, 505609, 0x695636ae8f77eb0c),
    ("perl.i", "base", 606847, 519584, 0xc96841381257b328),
    ("perl.i", "reno", 605697, 519584, 0x40259a6501cd6256),
    ("bzip2", "base", 692025, 1434551, 0x31f784b5a6014be0),
    ("bzip2", "reno", 645335, 1434551, 0x8fdb9b9e238d4edc),
    ("vpr.r", "base", 5487190, 7985415, 0xc2b86e64255ad9b6),
    ("vpr.r", "reno", 5715765, 7985415, 0xfba5b154b067de7b),
    ("adpcm.en", "base", 335059, 337180, 0xb62c4d3372f0ee94),
    ("adpcm.en", "reno", 327389, 337180, 0xf841e8ff21a3c77f),
    ("g721.de", "base", 103241, 339975, 0xde5f3a3a0f480ec8),
    ("g721.de", "reno", 98768, 339975, 0xf2d116db0fa9f513),
    ("gsm.en", "base", 192436, 501026, 0xd56e1d9200f33022),
    ("gsm.en", "reno", 180681, 501026, 0xd4aa82e306b2a06a),
    ("jpg.en", "base", 101518, 345989, 0xec02a324a0e4ca25),
    ("jpg.en", "reno", 98034, 345989, 0x00ee564cc39d4525),
    ("mpg2.de", "base", 110195, 365576, 0x2eff4c6df49baeeb),
    ("mpg2.de", "reno", 100478, 365576, 0x6644b3765c40904d),
    ("epic", "base", 102632, 392135, 0x49e4a5beb6990d73),
    ("epic", "reno", 102503, 392135, 0xeecb2f10cc3811a1),
    ("pegw.en", "base", 61259, 136454, 0x1e134e5ac57e9fba),
    ("pegw.en", "reno", 56274, 136454, 0x35ce93e86fa4b0c6),
    ("mesa.t", "base", 94584, 338436, 0x2c3f18e994ee6cfd),
    ("mesa.t", "reno", 88352, 338436, 0x43961e2f324bc8af),
    ("gs.de", "base", 144348, 277167, 0x117b0bc60db09e1c),
    ("gs.de", "reno", 137789, 277167, 0xb70babbd3aca6b4c),
    ("unepic", "base", 111138, 424841, 0xac7c0c9bc78c69dd),
    ("unepic", "reno", 111008, 424841, 0xa4b98a487ac25b15),
];

fn check(scale: Scale, pins: &[(&str, &str, u64, u64, u64)]) {
    let mut observed = Vec::new();
    for w in all_workloads(scale) {
        for (cname, reno) in [
            ("base", RenoConfig::baseline()),
            ("reno", RenoConfig::reno()),
        ] {
            let r = Simulator::new(&w.program, MachineConfig::four_wide(reno)).run(1 << 40);
            assert!(r.halted, "{}/{cname} halts", w.name);
            observed.push((w.name, cname, r.cycles, r.retired, counters_digest(&r)));
        }
    }
    let table: Vec<String> = observed
        .iter()
        .map(|(k, c, cy, re, d)| format!("    (\"{k}\", \"{c}\", {cy}, {re}, {d:#018x}),"))
        .collect();
    assert_eq!(
        observed,
        pins,
        "counter drift at {scale:?}; observed table:\n{}",
        table.join("\n")
    );
}

#[test]
fn tiny_suite_counters_are_pinned() {
    check(Scale::Tiny, TINY);
}

#[test]
#[ignore = "release-only: the Default suite is 33M simulated instructions"]
fn default_suite_counters_are_pinned() {
    check(Scale::Default, DEFAULT);
}
