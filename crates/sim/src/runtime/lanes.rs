//! Lane bitsets: the wake-dedup flags of the engine's round loop.
//!
//! [`LaneBits`] stores one flag **bit** per node; the quiescence scan is
//! an OR over the words.

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

    /// Whether any flag is set: OR every word, compare once at the end.
    #[inline]
    #[must_use]
    pub fn any_set(&self) -> bool {
        self.words.iter().fold(0u64, |acc, &w| acc | w) != 0
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
    fn any_set_matches_a_bool_model() {
        // Deterministic pseudo-random patterns across word-boundary
        // sizes, mirrored into a plain `Vec<bool>`.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in [1usize, 63, 64, 65, 127, 128, 200] {
            let mut bits = LaneBits::new(len);
            let mut model = vec![false; len];
            for (i, flag) in model.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 1 {
                    bits.set(i);
                    *flag = true;
                }
            }
            assert_eq!(bits.any_set(), model.contains(&true), "len={len}");
            // Clear from the front: the scan must see the last set lane
            // wherever it sits.
            for i in 0..len {
                bits.clear(i);
                model[i] = false;
                assert_eq!(bits.any_set(), model.contains(&true), "len={len} lane={i}");
            }
            assert!(!bits.any_set());
        }
    }
}
