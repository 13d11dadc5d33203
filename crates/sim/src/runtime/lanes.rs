//! SWAR lane bitsets: the wake-dedup flags of the engine's round loop.
//!
//! [`LaneBits`] stores one flag **bit** per node and implements the bulk
//! operations as explicit u64 SWAR (SIMD-within-a-register): a
//! quiescence scan is a branch-free OR-reduction over the words.
//!
//! The scan's portable per-bit reference (`any_set_scalar`) is compiled
//! alongside it for the equivalence test below and the kernel row of
//! `runtime_bench`; the engine only ever calls the SWAR path.

/// A fixed-length bitset over lane ids (one bit per lane).
///
/// Replaces the historical `Vec<bool>` wake flags: 8× denser, and the
/// quiescence scan works a word (64 lanes) at a time.
#[derive(Debug, Clone)]
pub struct LaneBits {
    words: Vec<u64>,
    len: usize,
}

impl LaneBits {
    /// An all-clear bitset over `len` lanes.
    #[must_use]
    pub fn new(len: usize) -> Self {
        LaneBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset covers zero lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane `i`'s flag.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Sets lane `i`'s flag.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Clears lane `i`'s flag.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Whether any flag is set (the SWAR OR-reduction).
    #[inline]
    #[must_use]
    pub fn any_set(&self) -> bool {
        self.any_set_words()
    }

    /// Branch-free SWAR scan: OR every word, compare once at the end.
    #[doc(hidden)]
    #[must_use]
    pub fn any_set_words(&self) -> bool {
        self.words.iter().fold(0u64, |acc, &w| acc | w) != 0
    }

    /// Scalar reference for [`any_set`](LaneBits::any_set): tests each
    /// lane individually.
    #[doc(hidden)]
    #[must_use]
    pub fn any_set_scalar(&self) -> bool {
        (0..self.len).any(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bits = LaneBits::new(130);
        assert_eq!(bits.len(), 130);
        assert!(!bits.is_empty());
        assert!(!bits.any_set());
        for i in [0, 63, 64, 129] {
            assert!(!bits.get(i));
            bits.set(i);
            assert!(bits.get(i));
        }
        assert!(bits.any_set());
        bits.clear(64);
        assert!(!bits.get(64));
        assert!(bits.get(63) && bits.get(129));
        for i in [0, 63, 129] {
            bits.clear(i);
        }
        assert!(!bits.any_set());
        assert!(LaneBits::new(0).is_empty());
    }

    #[test]
    fn swar_and_scalar_paths_agree() {
        // Deterministic pseudo-random patterns across word-boundary sizes.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in [1usize, 63, 64, 65, 127, 128, 200] {
            let mut a = LaneBits::new(len);
            let mut b = LaneBits::new(len);
            for i in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 1 {
                    a.set(i);
                    b.set(i);
                }
            }
            assert_eq!(a.any_set_words(), b.any_set_scalar(), "len={len}");
            // Clear from the front: the scan must see the last set lane
            // wherever it sits, on both paths.
            for i in 0..len {
                a.clear(i);
                b.clear(i);
                assert_eq!(a.any_set_words(), b.any_set_scalar(), "len={len} lane={i}");
            }
            assert!(!a.any_set_words() && !b.any_set_scalar());
        }
    }
}
