//! The pipeline's one queue type: a fixed-capacity FIFO addressed by
//! absolute position.

use std::ops::{Index, IndexMut};

/// A fixed-capacity FIFO whose entries are addressed by an absolute,
/// ever-increasing position rather than by their offset from the head.
///
/// The live entries occupy positions `[head, tail)`; position `p` lives in
/// buffer slot `p & mask`, so a lookup is one mask and no wrap arithmetic,
/// and a parallel array of the same capacity can be indexed by
/// [`SeqRing::slot`]. The ROB uses sequence numbers as positions (its
/// entries are always a contiguous run of them); the fetch buffer and the
/// load and store queues count their own positions from the `start` they
/// were built with.
///
/// Pushing into a full ring is a caller bug (the pipeline's structural
/// limits keep every ring below capacity) and is checked in debug builds.
#[derive(Clone, Debug)]
pub(crate) struct SeqRing<T> {
    buf: Vec<T>,
    mask: u64,
    head: u64,
    tail: u64,
}

impl<T: Copy> SeqRing<T> {
    /// An empty ring holding at least `capacity` entries (rounded up to a
    /// power of two), whose first entry will get position `start`.
    pub(crate) fn new(capacity: usize, fill: T, start: u64) -> SeqRing<T> {
        let cap = capacity.max(1).next_power_of_two();
        SeqRing {
            buf: vec![fill; cap],
            mask: cap as u64 - 1,
            head: start,
            tail: start,
        }
    }

    /// Number of entries the ring holds (a power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Position of the oldest live entry (equal to [`SeqRing::tail`] when
    /// empty).
    #[inline]
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// Position the next pushed entry will get.
    #[inline]
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    /// Whether `pos` names a live entry (stale positions, popped from
    /// either end, do not).
    #[inline]
    pub(crate) fn contains(&self, pos: u64) -> bool {
        pos.wrapping_sub(self.head) < self.tail - self.head
    }

    /// Buffer slot of position `pos`, for arrays kept parallel to the ring.
    #[inline]
    pub(crate) fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    #[inline]
    pub(crate) fn get(&self, pos: u64) -> Option<&T> {
        if self.contains(pos) {
            Some(&self.buf[self.slot(pos)])
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        self.get(self.head)
    }

    /// Appends `v` and returns its position.
    #[inline]
    pub(crate) fn push_back(&mut self, v: T) -> u64 {
        debug_assert!(self.len() < self.buf.len(), "ring overflow");
        let pos = self.tail;
        let i = self.slot(pos);
        self.buf[i] = v;
        self.tail += 1;
        pos
    }

    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let v = self.buf[self.slot(self.head)];
        self.head += 1;
        Some(v)
    }

    /// Removes the youngest entry (a squash trims from the back).
    #[inline]
    pub(crate) fn pop_back(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        self.tail -= 1;
        Some(self.buf[self.slot(self.tail)])
    }

    /// Drops every entry; the next push gets position [`SeqRing::tail`].
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.head = self.tail;
    }

    /// Position of the first live entry for which `pred` is false, given
    /// that `pred` holds for a prefix of the live entries (a binary search,
    /// like [`slice::partition_point`]).
    pub(crate) fn partition_point(&self, pred: impl Fn(&T) -> bool) -> u64 {
        let (mut lo, mut hi) = (self.head, self.tail);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self.buf[self.slot(mid)]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<T: Copy> Index<u64> for SeqRing<T> {
    type Output = T;

    #[inline]
    fn index(&self, pos: u64) -> &T {
        debug_assert!(self.contains(pos), "stale ring position {pos}");
        &self.buf[self.slot(pos)]
    }
}

impl<T: Copy> IndexMut<u64> for SeqRing<T> {
    #[inline]
    fn index_mut(&mut self, pos: u64) -> &mut T {
        debug_assert!(self.contains(pos), "stale ring position {pos}");
        let i = self.slot(pos);
        &mut self.buf[i]
    }
}

#[cfg(test)]
mod tests {
    use super::SeqRing;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let mut r = SeqRing::new(5, 0u32, 0);
        for v in 0..8 {
            r.push_back(v);
        }
        assert_eq!(r.capacity(), 8);
        assert_eq!(r.len(), 8);
        assert_eq!((r.head(), r.tail()), (0, 8));
    }

    #[test]
    fn wraps_at_the_power_of_two_boundary() {
        // Positions start just below a multiple of the capacity, so the
        // live window straddles the buffer's end many times over.
        let mut r = SeqRing::new(4, 0u64, 6);
        for pos in 6..40 {
            assert_eq!(r.push_back(pos * 10), pos);
            if r.len() == 4 {
                assert_eq!(r.pop_front(), Some((pos - 3) * 10));
            }
            for live in r.head()..r.tail() {
                assert_eq!(r[live], live * 10, "entry at {live}");
            }
        }
        assert_eq!((r.head(), r.tail()), (37, 40));
        assert_eq!(r.slot(40), r.slot(36), "slots repeat every capacity");
    }

    #[test]
    fn pop_back_trims_the_youngest_and_reuses_positions() {
        let mut r = SeqRing::new(8, 0u64, 100);
        for v in 0..6 {
            r.push_back(v);
        }
        // A squash from position 103 removes 105, 104, 103 in that order.
        let mut squashed = Vec::new();
        while r.tail() > 103 {
            squashed.push(r.pop_back().unwrap());
        }
        assert_eq!(squashed, [5, 4, 3]);
        assert_eq!(r.tail(), 103);
        // Replayed entries get the squashed positions back.
        assert_eq!(r.push_back(33), 103);
        assert_eq!(r[103], 33);
        while r.pop_back().is_some() {}
        assert!(r.is_empty());
        assert_eq!((r.head(), r.tail()), (100, 100));
        assert_eq!(r.pop_front(), None);
        assert_eq!(r.pop_back(), None);
    }

    #[test]
    fn stale_positions_are_not_found() {
        let mut r = SeqRing::new(4, 0u64, 10);
        for v in 0..4 {
            r.push_back(v);
        }
        r.pop_front();
        r.pop_back();
        // Live: 11, 12. Retired (10), squashed (13), never pushed (14) and
        // far-off sentinels all miss, though 14 shares 10's buffer slot.
        assert_eq!(r.get(11), Some(&1));
        assert_eq!(r.get(12), Some(&2));
        for stale in [0, 9, 10, 13, 14, u64::MAX] {
            assert!(!r.contains(stale), "{stale}");
            assert_eq!(r.get(stale), None, "{stale}");
        }
        assert_eq!(r.front(), Some(&1));
    }

    #[test]
    fn partition_point_searches_the_live_window() {
        let mut r = SeqRing::new(8, 0u64, 5);
        for v in [2, 4, 6, 8, 10, 12] {
            r.push_back(v);
        }
        r.pop_front(); // live: 4 6 8 10 12 at positions 6..11
        assert_eq!(r.partition_point(|&v| v < 3), 6);
        assert_eq!(r.partition_point(|&v| v < 7), 8);
        assert_eq!(r.partition_point(|&v| v < 8), 8);
        assert_eq!(r.partition_point(|&v| v < 99), 11);
    }
}
