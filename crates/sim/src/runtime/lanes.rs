//! SWAR lane bitsets: the wake-dedup flags of the engine's round loop.
//!
//! [`LaneBits`] stores one flag **bit** per node and implements the bulk
//! operations as explicit u64 SWAR (SIMD-within-a-register): a
//! word-at-a-time clear touches 64 flags per store, and the quiescence
//! scan is a branch-free OR-reduction over the words.
//!
//! Both the SWAR kernels and a portable per-bit scalar reference are
//! always compiled (`*_words` / `*_scalar`); the default dispatch picks
//! the SWAR path, and the `scalar-kernels` feature flips every dispatch
//! to the reference implementation so the whole test suite can run
//! against it (CI exercises both). The two paths are proven equivalent
//! by the `kernel_equivalence` proptests.

/// A fixed-length bitset over lane ids (one bit per lane).
///
/// Replaces the historical `Vec<bool>` wake flags: 8× denser, and the
/// bulk clear/scan operations work a word (64 lanes) at a time.
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

    /// Clears every flag — dispatched to the SWAR word-fill unless the
    /// `scalar-kernels` feature selects the per-bit reference.
    #[inline]
    pub fn clear_all(&mut self) {
        #[cfg(not(feature = "scalar-kernels"))]
        self.clear_all_words();
        #[cfg(feature = "scalar-kernels")]
        self.clear_all_scalar();
    }

    /// Whether any flag is set — dispatched to the branch-free SWAR
    /// OR-reduction unless the `scalar-kernels` feature selects the
    /// per-bit reference.
    #[inline]
    #[must_use]
    pub fn any_set(&self) -> bool {
        #[cfg(not(feature = "scalar-kernels"))]
        {
            self.any_set_words()
        }
        #[cfg(feature = "scalar-kernels")]
        {
            self.any_set_scalar()
        }
    }

    /// SWAR bulk clear: one store zeroes 64 lanes.
    #[doc(hidden)]
    pub fn clear_all_words(&mut self) {
        self.words.fill(0);
    }

    /// Scalar reference for [`clear_all`](LaneBits::clear_all): clears
    /// each lane individually.
    #[doc(hidden)]
    pub fn clear_all_scalar(&mut self) {
        for i in 0..self.len {
            self.clear(i);
        }
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
        bits.clear_all();
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
            a.clear_all_words();
            b.clear_all_scalar();
            for i in 0..len {
                assert_eq!(a.get(i), b.get(i), "len={len} lane={i}");
            }
            assert!(!a.any_set_words() && !b.any_set_scalar());
        }
    }
}
