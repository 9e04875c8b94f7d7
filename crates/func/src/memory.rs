use reno_isa::STACK_TOP;
use std::collections::BTreeMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Page granularity of [`Memory::delta_from`] / [`Memory::apply_page`].
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Pages per directory leaf (2 MB of guest address space).
const LEAF_BITS: u32 = 9;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
/// Pages the directory covers: everything below [`STACK_TOP`], which holds
/// the guest's text, data, heap and stack.
const LOW_PAGES: u64 = STACK_TOP >> PAGE_SHIFT;
const DIR_LEAVES: usize = (LOW_PAGES as usize) / LEAF_PAGES;
const _: () = assert!(DIR_LEAVES * LEAF_PAGES == LOW_PAGES as usize);

type Page = [u8; PAGE_SIZE];

/// One directory leaf: the page pointers of a 2 MB region and a dirty bit
/// per page (a dirty page is always resident, since every write path
/// allocates).
#[derive(Clone)]
struct Leaf {
    pages: [Option<Box<Page>>; LEAF_PAGES],
    dirty: [u64; LEAF_PAGES / 64],
}

impl Leaf {
    fn new() -> Box<Leaf> {
        const NONE: Option<Box<Page>> = None;
        Box::new(Leaf {
            pages: [NONE; LEAF_PAGES],
            dirty: [0; LEAF_PAGES / 64],
        })
    }
}

/// Sparse, byte-addressed, little-endian memory.
///
/// Pages are allocated on first touch; reads of untouched memory return zero.
/// Unaligned accesses are permitted, including ones that straddle a page.
///
/// Representation: pages below [`STACK_TOP`] (the guest's text, data, heap
/// and stack) live in a two-level page directory — 64 leaves of 512 page
/// pointers each, a leaf allocated when its first page is — so a load or
/// store costs two indexed loads and no hashing. Any other address falls
/// back to an ordered map, so every 64-bit address stays valid. Accesses
/// that fit inside a page move one little-endian word, masked to the access
/// width. Each leaf carries a dirty bit per page. `clone` copies the
/// allocated leaves and pages only, so it stays proportional to the
/// resident footprint (a sampled run clones the machine for every window).
///
/// `Memory` has no interior mutability: a `&Memory` is `Sync`, so one
/// program image can serve as the restore base of segments running on
/// several threads at once. Keep it that way — a lookup cache behind a
/// `Cell` would break that sharing.
///
/// ```
/// use reno_func::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone)]
pub struct Memory {
    dir: [Option<Box<Leaf>>; DIR_LEAVES],
    /// Pages at or above [`STACK_TOP`], with their dirty flags.
    high: BTreeMap<u64, (Box<Page>, bool)>,
}

impl Default for Memory {
    fn default() -> Memory {
        const NONE: Option<Box<Leaf>> = None;
        Memory {
            dir: [NONE; DIR_LEAVES],
            high: BTreeMap::new(),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.resident_pages())
            .field("dirty_pages", &self.dirty_page_count())
            .finish()
    }
}

/// The low `n` bytes of a word.
#[inline]
fn width_mask(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * n)) - 1
    }
}

#[inline]
fn word_at(p: &Page, off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().expect("an 8-byte window"))
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page(&self, pno: u64) -> Option<&Page> {
        if pno < LOW_PAGES {
            let leaf = self.dir[(pno >> LEAF_BITS) as usize & (DIR_LEAVES - 1)].as_deref()?;
            leaf.pages[pno as usize & (LEAF_PAGES - 1)].as_deref()
        } else {
            self.high.get(&pno).map(|(p, _)| &**p)
        }
    }

    /// Page `pno` for writing: allocated zero-filled on first touch and
    /// marked dirty.
    #[inline]
    fn page_mut(&mut self, pno: u64) -> &mut Page {
        if pno < LOW_PAGES {
            let leaf = self.dir[(pno >> LEAF_BITS) as usize & (DIR_LEAVES - 1)]
                .get_or_insert_with(Leaf::new);
            let i = pno as usize & (LEAF_PAGES - 1);
            leaf.dirty[i >> 6] |= 1 << (i & 63);
            leaf.pages[i].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
        } else {
            let (p, dirty) = self
                .high
                .entry(pno)
                .or_insert_with(|| (Box::new([0u8; PAGE_SIZE]), true));
            *dirty = true;
            p
        }
    }

    /// The pages written since the last [`Memory::clear_dirty`] (or since
    /// construction), sorted and deduplicated — a superset of the pages
    /// whose contents differ from that point's image, suitable for
    /// [`crate::Checkpoint::take_with_dirty_pages`].
    pub fn dirty_pages_sorted(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.dirty_page_count());
        for (li, leaf) in self.dir.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (wi, &w) in leaf.dirty.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let i = (wi << 6) | bits.trailing_zeros() as usize;
                    v.push(((li << LEAF_BITS) | i) as u64);
                    bits &= bits - 1;
                }
            }
        }
        v.extend(self.high.iter().filter(|(_, p)| p.1).map(|(&pno, _)| pno));
        v
    }

    /// Number of pages currently tracked as dirty.
    pub fn dirty_page_count(&self) -> usize {
        let low: u32 = self
            .dir
            .iter()
            .flatten()
            .flat_map(|leaf| leaf.dirty.iter())
            .map(|w| w.count_ones())
            .sum();
        low as usize + self.high.values().filter(|p| p.1).count()
    }

    /// Resets dirty-page tracking (e.g. right after loading a program's
    /// initial image, so the tracked set is a delta against that image).
    pub fn clear_dirty(&mut self) {
        for leaf in self.dir.iter_mut().flatten() {
            leaf.dirty = [0; LEAF_PAGES / 64];
        }
        for p in self.high.values_mut() {
            p.1 = false;
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident().count()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr >> PAGE_SHIFT)
            .map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`.
    #[inline]
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        // Fast path (the simulator's load hot path): an 8-byte window that
        // fits in the page is one lookup and one word load.
        if off <= PAGE_SIZE - 8 {
            return self
                .page(addr >> PAGE_SHIFT)
                .map_or(0, |p| word_at(p, off) & width_mask(n));
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian.
    #[inline]
    pub fn write_le(&mut self, addr: u64, n: u64, val: u64) {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            let p = self.page_mut(addr >> PAGE_SHIFT);
            let m = width_mask(n);
            let w = (word_at(p, off) & !m) | (val & m);
            p[off..off + 8].copy_from_slice(&w.to_le_bytes());
        } else if off + n as usize <= PAGE_SIZE {
            let p = self.page_mut(addr >> PAGE_SHIFT);
            for i in 0..n as usize {
                p[off + i] = (val >> (8 * i)) as u8;
            }
        } else {
            for i in 0..n {
                self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a 64-bit little-endian word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le(addr, 8, val)
    }

    /// Copies a byte slice into memory at `addr`, page-chunked (loading a
    /// megabyte data segment or restoring a checkpoint page is a handful of
    /// `memcpy`s, not a per-byte walk).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr >> PAGE_SHIFT)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }

    /// The resident page numbers.
    fn resident(&self) -> impl Iterator<Item = u64> + '_ {
        let low = self.dir.iter().enumerate().flat_map(|(li, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.pages
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, p)| p.as_ref().map(|_| ((li << LEAF_BITS) | i) as u64))
            })
        });
        low.chain(self.high.keys().copied())
    }

    /// The pages whose *contents* differ from `base`, as sorted
    /// `(page_number, PAGE_BYTES bytes)` records — the delta a checkpoint
    /// stores against a program's initial memory image.
    ///
    /// Residency is irrelevant: an untouched page reads as zeros on either
    /// side, so only byte content participates in the comparison. Applying
    /// the delta to a copy of `base` with [`Memory::apply_page`] reproduces
    /// this memory's architectural content exactly.
    pub fn delta_from(&self, base: &Memory) -> Vec<(u64, Vec<u8>)> {
        const ZEROS: Page = [0u8; PAGE_SIZE];
        let mut pages: Vec<u64> = self.resident().chain(base.resident()).collect();
        pages.sort_unstable();
        pages.dedup();
        let mut out = Vec::new();
        for pno in pages {
            let ours = self.page(pno).unwrap_or(&ZEROS);
            if ours != base.page(pno).unwrap_or(&ZEROS) {
                out.push((pno, ours.to_vec()));
            }
        }
        out
    }

    /// One page's full contents (zeros when untouched).
    pub(crate) fn page_contents(&self, page_number: u64) -> Vec<u8> {
        self.page(page_number)
            .map_or_else(|| vec![0u8; PAGE_SIZE], |p| p.to_vec())
    }

    /// Overwrites one whole page with `bytes` (see [`PAGE_BYTES`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`PAGE_BYTES`] long.
    pub fn apply_page(&mut self, page_number: u64, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE, "a page delta is a whole page");
        self.page_mut(page_number).copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_ffff_0000), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new();
        m.write_le(100, 4, 0x0403_0201);
        assert_eq!(m.read_u8(100), 1);
        assert_eq!(m.read_u8(103), 4);
        assert_eq!(m.read_le(100, 4), 0x0403_0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_width_write_preserves_neighbors() {
        let mut m = Memory::new();
        m.write_u64(0, u64::MAX);
        m.write_le(2, 2, 0);
        assert_eq!(m.read_u64(0), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new();
        m.write_bytes(5000, &[9, 8, 7]);
        assert_eq!(m.read_bytes(5000, 3), vec![9, 8, 7]);
    }

    #[test]
    fn delta_tracks_content_not_residency() {
        let mut base = Memory::new();
        base.write_u64(0x1000, 77);
        let mut m = base.clone();
        m.read_u8(0x9000); // reads never create pages
        assert!(m.delta_from(&base).is_empty(), "identical content");
        m.write_u64(0x1000, 78); // change an existing page
        m.write_u64(0x5008, 99); // touch a new page
        m.write_u64(0x7000, 0); // new page, still all zeros: no delta
        let delta = m.delta_from(&base);
        assert_eq!(
            delta.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0x1, 0x5],
            "only content-changed pages, sorted"
        );
    }

    #[test]
    fn dirty_tracking_covers_every_write_path() {
        let mut m = Memory::new();
        m.write_u8(0x1001, 7);
        m.write_le(0x2ffe, 4, 0xaabb_ccdd); // straddles pages 2 and 3
        m.write_bytes(0x5000, &[1, 2, 3]);
        m.write_u8(0x1002, 8); // same page as the first write
        assert_eq!(m.dirty_pages_sorted(), vec![0x1, 0x2, 0x3, 0x5]);
        assert_eq!(m.dirty_page_count(), 4);
        m.clear_dirty();
        assert!(m.dirty_pages_sorted().is_empty());
        m.write_u8(0x1003, 9); // re-dirties after the clear
        assert_eq!(m.dirty_pages_sorted(), vec![0x1]);
    }

    #[test]
    fn delta_round_trips_through_apply() {
        let mut base = Memory::new();
        base.write_bytes(0x2000, &[1, 2, 3, 4]);
        let mut m = base.clone();
        m.write_u64(0x2000, u64::MAX);
        m.write_u64(0xabc0, 0x5a5a);
        let mut restored = base.clone();
        for (pno, bytes) in m.delta_from(&base) {
            restored.apply_page(pno, &bytes);
        }
        assert_eq!(restored.read_u64(0x2000), u64::MAX);
        assert_eq!(restored.read_u64(0xabc0), 0x5a5a);
        assert!(restored.delta_from(&m).is_empty());
    }

    #[test]
    fn high_addresses_use_the_fallback_map_in_page_order() {
        let mut m = Memory::new();
        let high = 1u64 << 50;
        m.write_u64(high - 4, 0x0102_0304_0506_0708); // straddles two high pages
        m.write_u8(STACK_TOP - 1, 0xaa); // last directory page
        m.write_u8(STACK_TOP, 0xbb); // first fallback page
        assert_eq!(m.read_u64(high - 4), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(STACK_TOP - 1), 0xaa);
        assert_eq!(m.read_u8(STACK_TOP), 0xbb);
        assert_eq!(
            m.dirty_pages_sorted(),
            vec![
                LOW_PAGES - 1,
                LOW_PAGES,
                (high >> PAGE_SHIFT) - 1,
                high >> PAGE_SHIFT
            ]
        );
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn memory_is_shareable_across_threads() {
        fn check<T: Send + Sync>() {}
        check::<Memory>();
    }
}
