//! Property suite for the guest memory: random operation streams run
//! against `Memory` and against a reference byte map, and the two must
//! agree on every read, on residency, on the dirty-page set, and on every
//! checkpoint delta.
//!
//! Addresses cover every region a guest touches — text, data, heap, stack —
//! plus the fallback range far above them (past 2^47), at aligned,
//! unaligned and page-straddling offsets, with accesses of 1, 2, 4 and 8
//! bytes. Streams also bulk-write byte slices, write zeros into untouched
//! pages, clone a memory and keep writing to both copies, clear the dirty
//! set, and round-trip deltas through `apply_page`.

use proptest::prelude::*;
use reno_func::{Memory, PAGE_BYTES};
use reno_isa::{DATA_BASE, HEAP_BASE, STACK_TOP, TEXT_BASE};
use std::collections::{BTreeMap, BTreeSet};

const PAGE: u64 = PAGE_BYTES as u64;

/// The reference: one entry per byte ever written.
#[derive(Clone, Default)]
struct Model {
    bytes: BTreeMap<u64, u8>,
    resident: BTreeSet<u64>,
    dirty: BTreeSet<u64>,
}

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.bytes.insert(a, b);
            self.resident.insert(a / PAGE);
            self.dirty.insert(a / PAGE);
        }
    }

    fn read(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | (u64::from(b) << (8 * i))
        })
    }

    fn page(&self, pno: u64) -> Vec<u8> {
        let mut page = vec![0; PAGE_BYTES];
        for (a, &b) in self.bytes.range(pno * PAGE..(pno + 1) * PAGE) {
            page[(a - pno * PAGE) as usize] = b;
        }
        page
    }

    fn delta_from(&self, base: &Model) -> Vec<(u64, Vec<u8>)> {
        self.resident
            .union(&base.resident)
            .filter_map(|&pno| {
                let ours = self.page(pno);
                (ours != base.page(pno)).then_some((pno, ours))
            })
            .collect()
    }
}

/// A memory under test with its reference.
#[derive(Clone, Default)]
struct Pair {
    mem: Memory,
    model: Model,
}

impl Pair {
    fn check(&self, probes: &[u64]) {
        for &a in probes {
            for n in [1, 2, 4, 8] {
                assert_eq!(
                    self.mem.read_le(a, n),
                    self.model.read(a, n),
                    "read {a:#x}/{n}"
                );
            }
        }
        assert_eq!(self.mem.resident_pages(), self.model.resident.len());
        assert_eq!(
            self.mem.dirty_pages_sorted(),
            self.model.dirty.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(self.mem.dirty_page_count(), self.model.dirty.len());
    }
}

/// An address in one of the guest's regions, or far above them, at an
/// offset that is sometimes aligned, sometimes not, and sometimes a few
/// bytes short of a page end so that wide accesses straddle two pages.
fn address(region: u8, page: u16, off: u16, shape: u8) -> u64 {
    let base = match region % 6 {
        0 => TEXT_BASE,
        1 => DATA_BASE,
        2 => HEAP_BASE,
        3 => STACK_TOP - 64 * PAGE,
        4 => STACK_TOP - PAGE, // the directory's last page and its neighbor
        _ => (1u64 << 47) + (u64::from(page % 3) << 40),
    };
    let page_base = base + u64::from(page % 64) * PAGE;
    let off = match shape % 3 {
        0 => (u64::from(off) % PAGE) & !7,
        1 => u64::from(off) % PAGE,
        _ => PAGE - 1 - u64::from(off % 7),
    };
    page_base + off
}

#[derive(Clone, Debug)]
enum Op {
    Write { addr: u64, n: u64, val: u64 },
    Bytes { addr: u64, len: usize, seed: u8 },
    ZeroWrite { addr: u64, n: u64 },
    ClearDirty,
    Fork,
    Delta,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..16,
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        any::<u64>(),
    )
        .prop_map(|(kind, region, page, off, shape, val)| {
            let addr = address(region, page, off, shape);
            let n = [1, 2, 4, 8][(val >> 62) as usize];
            match kind {
                0..=8 => Op::Write { addr, n, val },
                9 | 10 => Op::Bytes {
                    addr,
                    len: (val % 6000) as usize,
                    seed: shape,
                },
                11 => Op::ZeroWrite {
                    addr: address(region, page.wrapping_add(37), off, shape),
                    n,
                },
                12 => Op::ClearDirty,
                13 => Op::Fork,
                _ => Op::Delta,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memory_agrees_with_a_byte_map(ops in prop::collection::vec(op(), 1..120)) {
        // `live[0]` is the original; a fork pushes a clone that both
        // copies then keep writing to, and each op lands on one of them.
        let mut live = vec![Pair::default()];
        // The image deltas are taken against: the original's state at the
        // last `Delta` op.
        let mut base = Pair::default();
        let mut probes: Vec<u64> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let k = i % live.len();
            let p = &mut live[k];
            match *op {
                Op::Write { addr, n, val } => {
                    p.mem.write_le(addr, n, val);
                    p.model.write(addr, &val.to_le_bytes()[..n as usize]);
                    probes.push(addr);
                }
                Op::Bytes { addr, len, seed } => {
                    let bytes: Vec<u8> = (0..len)
                        .map(|j| (j as u8).wrapping_mul(31).wrapping_add(seed))
                        .collect();
                    p.mem.write_bytes(addr, &bytes);
                    p.model.write(addr, &bytes);
                    probes.extend([addr, addr + len as u64 / 2, addr + len as u64]);
                }
                Op::ZeroWrite { addr, n } => {
                    p.mem.write_le(addr, n, 0);
                    p.model.write(addr, &vec![0; n as usize]);
                    probes.push(addr);
                }
                Op::ClearDirty => {
                    p.mem.clear_dirty();
                    p.model.dirty.clear();
                }
                Op::Fork => {
                    if live.len() < 3 {
                        let copy = live[k].clone();
                        live.push(copy);
                    }
                }
                Op::Delta => {
                    for p in &live {
                        let delta = p.mem.delta_from(&base.mem);
                        prop_assert_eq!(&delta, &p.model.delta_from(&base.model));
                        // Applying the delta to the base reproduces `p`'s
                        // content, and makes exactly the delta's pages
                        // resident and dirty on top of the base's.
                        let mut restored = base.mem.clone();
                        for (pno, bytes) in &delta {
                            restored.apply_page(*pno, bytes);
                        }
                        for &a in &probes {
                            for n in [1, 2, 4, 8] {
                                prop_assert_eq!(restored.read_le(a, n), p.model.read(a, n));
                            }
                        }
                        prop_assert!(restored.delta_from(&p.mem).is_empty());
                        prop_assert!(p.mem.delta_from(&restored).is_empty());
                        let pages: BTreeSet<u64> = delta.iter().map(|(pno, _)| *pno).collect();
                        prop_assert_eq!(
                            restored.dirty_pages_sorted(),
                            base.model.dirty.union(&pages).copied().collect::<Vec<_>>()
                        );
                        prop_assert_eq!(
                            restored.resident_pages(),
                            base.model.resident.union(&pages).count()
                        );
                    }
                    base = live[0].clone();
                }
            }
        }
        for p in &live {
            p.check(&probes);
        }
    }
}
