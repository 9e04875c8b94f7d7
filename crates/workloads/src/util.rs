//! Shared helpers for kernel construction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for data-segment initialization.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// `n` pseudo-random bytes with some run-length structure (compressible,
/// like text/log input).
pub fn lumpy_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let b: u8 = r.gen_range(b'a'..=b'z');
        let run = if r.gen_ratio(1, 4) {
            r.gen_range(2..8)
        } else {
            1
        };
        for _ in 0..run {
            if out.len() < n {
                out.push(b);
            }
        }
    }
    out
}

/// `n` pseudo-random 64-bit words.
pub fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen()).collect()
}

/// A random permutation of `0..n` arranged as a single cycle, for
/// pointer-chasing kernels: calls `link(i, next)` once for every node `i`
/// with its successor `next`, in cycle order from node 0, so a caller can
/// write the links straight into its own layout.
pub fn cycle_links(seed: u64, n: usize, mut link: impl FnMut(usize, u64)) {
    let mut r = rng(seed);
    let mut order: Vec<u64> = (1..n as u64).collect();
    // Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = r.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut cur = 0usize;
    for &o in &order {
        link(cur, o);
        cur = o as usize;
    }
    link(cur, 0);
}

/// Little-endian byte encoding of 16-bit samples (for media kernels).
pub fn samples_i16(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n * 2);
    let mut x: i32 = 0;
    for _ in 0..n {
        // A wandering waveform: correlated like real audio.
        x += r.gen_range(-700..=700);
        x = x.clamp(-30000, 30000);
        out.extend_from_slice(&(x as i16).to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(lumpy_bytes(1, 64), lumpy_bytes(1, 64));
        assert_eq!(words(2, 8), words(2, 8));
        assert_eq!(samples_i16(3, 16), samples_i16(3, 16));
    }

    #[test]
    fn cycle_visits_every_node() {
        let mut next = [u64::MAX; 64];
        cycle_links(7, 64, |i, o| {
            assert_eq!(next[i], u64::MAX, "node {i} linked twice");
            next[i] = o;
        });
        let mut seen = [false; 64];
        let mut cur = 0usize;
        for _ in 0..64 {
            assert!(!seen[cur], "premature cycle");
            seen[cur] = true;
            cur = next[cur] as usize;
        }
        assert_eq!(cur, 0, "closes into a single cycle");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lumpy_bytes_are_compressible() {
        let b = lumpy_bytes(5, 4096);
        let repeats = b.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 400, "should contain runs, got {repeats}");
    }
}
