//! Tree labels and the violating-edge condition (Definition 7).
//!
//! A node's label is the sequence of child indices along its BFS-tree path
//! from the part root, where children are numbered by the circular order
//! of the part's combinatorial embedding starting after the parent edge.
//! Labels compare lexicographically; a non-tree edge *violates* if its
//! label interval strictly interleaves another non-tree edge's interval.

use std::cmp::Ordering;

/// A node label: digits along the tree path from the root (root = empty).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Label(pub Vec<u32>);

impl Label {
    /// The root's (empty) label.
    pub fn root() -> Self {
        Label(Vec::new())
    }

    /// This label extended by one child digit.
    pub fn child(&self, digit: u32) -> Self {
        let mut v = self.0.clone();
        v.push(digit);
        Label(v)
    }

    /// Number of digits (= tree depth of the node).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root label.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Lexicographic comparison per the paper's footnote 5: a prefix
    /// precedes its extensions.
    pub fn lex_cmp(&self, other: &Label) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// An undirected non-tree edge as an ordered label interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledEdge {
    /// The smaller endpoint label.
    pub lo: Label,
    /// The larger endpoint label.
    pub hi: Label,
}

impl LabeledEdge {
    /// Builds the ordered interval from two endpoint labels.
    ///
    /// # Panics
    ///
    /// Panics if the labels are equal (two distinct nodes always have
    /// distinct labels).
    pub fn new(a: Label, b: Label) -> Self {
        match a.lex_cmp(&b) {
            Ordering::Less => LabeledEdge { lo: a, hi: b },
            Ordering::Greater => LabeledEdge { lo: b, hi: a },
            Ordering::Equal => panic!("a non-tree edge cannot connect equal labels"),
        }
    }

    /// Definition 7: `(u,v)` and `(u',v')` *intersect* iff
    /// `ℓ(u) < ℓ(u') < ℓ(v) < ℓ(v')` (in either role order).
    pub fn intersects(&self, other: &LabeledEdge) -> bool {
        let lt = |a: &Label, b: &Label| a.lex_cmp(b) == Ordering::Less;
        (lt(&self.lo, &other.lo) && lt(&other.lo, &self.hi) && lt(&self.hi, &other.hi))
            || (lt(&other.lo, &self.lo) && lt(&self.lo, &other.hi) && lt(&other.hi, &self.hi))
    }
}

/// Digit geometry of the three label width classes, indexed by class:
/// `(bits per digit, digits per word)`.
const WIDTH_CLASSES: [(u32, usize); 3] = [(4, 16), (16, 4), (32, 2)];

/// Appends the packed wire encoding of a label to `out`: a header word
/// `(len << 2) | width_class` followed by the digits packed 16, 4 or 2
/// per word (width classes 0, 1, 2 = 4-, 16- and 32-bit digits, chosen
/// from the label's largest digit). Digit `i` of a word sits at bit
/// `i · bits`; a ragged last word is zero above its digits.
///
/// One `u64` word models one `O(log n)`-bit message unit, so shipping
/// one child digit (almost always < 16) per word under-uses every
/// message by an order of magnitude. The non-tree-edge label exchange
/// and the sample-interval streams ride this encoding.
pub(crate) fn pack_label(digits: &[u32], out: &mut Vec<u64>) {
    let class = match digits.iter().copied().max().unwrap_or(0) {
        0..=15 => 0,
        16..=65_535 => 1,
        _ => 2,
    };
    let (bits, per) = WIDTH_CLASSES[class];
    out.push(((digits.len() as u64) << 2) | class as u64);
    for chunk in digits.chunks(per) {
        let word = chunk.iter().enumerate().fold(0u64, |word, (i, &d)| {
            word | (u64::from(d) << (i as u32 * bits))
        });
        out.push(word);
    }
}

/// Decodes one packed label starting at `words[0]`; returns the digits
/// and the number of words consumed (header + packed digits). Inverse
/// of [`pack_label`].
pub(crate) fn unpack_label(words: &[u64]) -> (Vec<u32>, usize) {
    let header = words[0];
    let len = (header >> 2) as usize;
    let (bits, per) = *WIDTH_CLASSES
        .get((header & 3) as usize)
        .unwrap_or_else(|| panic!("unknown label width class {}", header & 3));
    let mask = u64::MAX >> (64 - bits);
    let digits = (0..len)
        .map(|i| ((words[1 + i / per] >> ((i % per) as u32 * bits)) & mask) as u32)
        .collect();
    (digits, 1 + len.div_ceil(per))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l(digits: &[u32]) -> Label {
        Label(digits.to_vec())
    }

    #[test]
    fn lex_order() {
        assert_eq!(l(&[]).lex_cmp(&l(&[1])), Ordering::Less); // prefix first
        assert_eq!(l(&[1]).lex_cmp(&l(&[2])), Ordering::Less);
        assert_eq!(l(&[1, 2]).lex_cmp(&l(&[1, 2])), Ordering::Equal);
        assert_eq!(l(&[2]).lex_cmp(&l(&[1, 9])), Ordering::Greater);
        assert_eq!(l(&[1, 1]).lex_cmp(&l(&[1, 2])), Ordering::Less);
    }

    #[test]
    fn label_building() {
        let r = Label::root();
        assert!(r.is_empty());
        let c = r.child(3).child(1);
        assert_eq!(c.len(), 2);
        assert_eq!(c, l(&[3, 1]));
    }

    #[test]
    fn interval_normalisation() {
        let e = LabeledEdge::new(l(&[2]), l(&[1]));
        assert_eq!(e.lo, l(&[1]));
        assert_eq!(e.hi, l(&[2]));
    }

    #[test]
    #[should_panic(expected = "equal labels")]
    fn equal_labels_panic() {
        let _ = LabeledEdge::new(l(&[1]), l(&[1]));
    }

    #[test]
    fn intersection_cases() {
        // Intervals over digits: (1,3) vs (2,4) interleave.
        let a = LabeledEdge::new(l(&[1]), l(&[3]));
        let b = LabeledEdge::new(l(&[2]), l(&[4]));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        // Nested: (1,4) vs (2,3) do not.
        let c = LabeledEdge::new(l(&[1]), l(&[4]));
        let d = LabeledEdge::new(l(&[2]), l(&[3]));
        assert!(!c.intersects(&d));
        assert!(!d.intersects(&c));
        // Disjoint: (1,2) vs (3,4) do not.
        let e = LabeledEdge::new(l(&[1]), l(&[2]));
        let f = LabeledEdge::new(l(&[3]), l(&[4]));
        assert!(!e.intersects(&f));
        // Sharing an endpoint does not intersect (strict inequalities).
        let g = LabeledEdge::new(l(&[1]), l(&[3]));
        let h = LabeledEdge::new(l(&[3]), l(&[5]));
        assert!(!g.intersects(&h));
        // Self-comparison is not a violation.
        assert!(!a.intersects(&a));
    }

    #[test]
    fn pack_roundtrip_across_width_classes() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            (0..40).map(|i| i % 16).collect(), // 4-bit, multi-word
            vec![15, 16],                      // forces 16-bit
            vec![1, 65_535],                   // 16-bit boundary
            vec![65_536],                      // forces 32-bit
            vec![u32::MAX, 0, 7],              // 32-bit, padding
            (0..9).map(|i| i * 10_000).collect(), // mixed magnitudes
        ];
        for digits in cases {
            let mut words = Vec::new();
            pack_label(&digits, &mut words);
            // Sanity: small digits pack an order of magnitude denser
            // than one-word-per-digit.
            assert!(words.len() <= 1 + digits.len());
            let (got, used) = unpack_label(&words);
            assert_eq!(got, digits);
            assert_eq!(used, words.len());
        }
    }

    #[test]
    fn pack_streams_concatenate() {
        // Two labels back to back — the interval wire format.
        let a = vec![1u32, 2, 3];
        let b = vec![70_000u32];
        let mut words = Vec::new();
        pack_label(&a, &mut words);
        pack_label(&b, &mut words);
        let (got_a, used) = unpack_label(&words);
        let (got_b, used_b) = unpack_label(&words[used..]);
        assert_eq!((got_a, got_b), (a, b));
        assert_eq!(used + used_b, words.len());
    }

    /// Packs one label alone, checks that it decodes back to `digits`
    /// with every word consumed, and returns its words.
    fn roundtrip(digits: &[u32]) -> Vec<u64> {
        let mut words = Vec::new();
        pack_label(digits, &mut words);
        let (got, used) = unpack_label(&words);
        assert_eq!(got, digits);
        assert_eq!(used, words.len());
        words
    }

    /// Digits for the ragged-tail rows: `bits`-wide values from a
    /// multiplicative hash of the position, with the class's top bit set
    /// on the last digit so that the class is chosen by the last digit.
    fn golden_digits(bits: u32, len: usize) -> Vec<u32> {
        let mut digits: Vec<u32> = (1..=len as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> (32 - bits))
            .collect();
        if let Some(last) = digits.last_mut() {
            *last |= 1 << (bits - 1);
        }
        digits
    }

    /// The exact wire words at the width-class boundaries, captured from
    /// the unrolled codec this one replaced: the class in the header word
    /// flips at 15/16 and 65535/65536, and the empty label is one word.
    #[test]
    fn width_class_boundaries() {
        let boundaries: [(&[u32], &[u64]); 11] = [
            (&[], &[0x0]),
            (&[15], &[0x4, 0xf]),
            (&[16], &[0x5, 0x10]),
            (&[65_535], &[0x5, 0xffff]),
            (&[65_536], &[0x6, 0x1_0000]),
            (&[u32::MAX], &[0x6, 0xffff_ffff]),
            (&[15, 16], &[0x9, 0x10_000f]),
            (&[0, 65_535, 7], &[0xd, 0x7_ffff_0000]),
            (&[1, 65_536], &[0xa, 0x1_0000_0000_0001]),
            (&[0; 16], &[0x40, 0x0]),
            (&[15; 17], &[0x44, 0xffff_ffff_ffff_ffff, 0xf]),
        ];
        for (digits, want) in boundaries {
            assert_eq!(roundtrip(digits), want, "digits {digits:?}");
        }
    }

    /// The exact wire words for every length from 0 to `2 · per + 2` in
    /// each class (full words, ragged tails and the empty label),
    /// captured from the unrolled codec this one replaced.
    #[test]
    fn ragged_tails_across_classes() {
        let ragged_4bit: [&[u64]; 35] = [
            &[0x0],
            &[0x4, 0x9],
            &[0x8, 0xb9],
            &[0xc, 0xd39],
            &[0x10, 0xfd39],
            &[0x14, 0x97d39],
            &[0x18, 0xb17d39],
            &[0x1c, 0xdb17d39],
            &[0x20, 0xf5b17d39],
            &[0x24, 0x8f5b17d39],
            &[0x28, 0xa8f5b17d39],
            &[0x2c, 0xc28f5b17d39],
            &[0x30, 0xec28f5b17d39],
            &[0x34, 0x86c28f5b17d39],
            &[0x38, 0xa06c28f5b17d39],
            &[0x3c, 0xca06c28f5b17d39],
            &[0x40, 0xe4a06c28f5b17d39],
            &[0x44, 0xe4a06c28f5b17d39, 0x8],
            &[0x48, 0xe4a06c28f5b17d39, 0x98],
            &[0x4c, 0xe4a06c28f5b17d39, 0xb18],
            &[0x50, 0xe4a06c28f5b17d39, 0xdb18],
            &[0x54, 0xe4a06c28f5b17d39, 0xf5b18],
            &[0x58, 0xe4a06c28f5b17d39, 0x9f5b18],
            &[0x5c, 0xe4a06c28f5b17d39, 0xb9f5b18],
            &[0x60, 0xe4a06c28f5b17d39, 0xd39f5b18],
            &[0x64, 0xe4a06c28f5b17d39, 0xfd39f5b18],
            &[0x68, 0xe4a06c28f5b17d39, 0x97d39f5b18],
            &[0x6c, 0xe4a06c28f5b17d39, 0xa17d39f5b18],
            &[0x70, 0xe4a06c28f5b17d39, 0xca17d39f5b18],
            &[0x74, 0xe4a06c28f5b17d39, 0xe4a17d39f5b18],
            &[0x78, 0xe4a06c28f5b17d39, 0x8e4a17d39f5b18],
            &[0x7c, 0xe4a06c28f5b17d39, 0xa8e4a17d39f5b18],
            &[0x80, 0xe4a06c28f5b17d39, 0xc28e4a17d39f5b18],
            &[0x84, 0xe4a06c28f5b17d39, 0xc28e4a17d39f5b18, 0xe],
            &[0x88, 0xe4a06c28f5b17d39, 0xc28e4a17d39f5b18, 0x86],
        ];
        let ragged_16bit: [&[u64]; 11] = [
            &[0x0],
            &[0x5, 0x9e37],
            &[0x9, 0xbc6e9e37],
            &[0xd, 0xdaa63c6e9e37],
            &[0x11, 0xf8dddaa63c6e9e37],
            &[0x15, 0x78dddaa63c6e9e37, 0x9715],
            &[0x19, 0x78dddaa63c6e9e37, 0xb54c1715],
            &[0x1d, 0x78dddaa63c6e9e37, 0xd384b54c1715],
            &[0x21, 0x78dddaa63c6e9e37, 0xf1bb5384b54c1715],
            &[0x25, 0x78dddaa63c6e9e37, 0xf1bb5384b54c1715, 0x8ff3],
            &[0x29, 0x78dddaa63c6e9e37, 0xf1bb5384b54c1715, 0xae2a8ff3],
        ];
        let ragged_32bit: [&[u64]; 7] = [
            &[0x0],
            &[0x6, 0x9e3779b9],
            &[0xa, 0xbc6ef3729e3779b9],
            &[0xe, 0x3c6ef3729e3779b9, 0xdaa66d2b],
            &[0x12, 0x3c6ef3729e3779b9, 0xf8dde6e4daa66d2b],
            &[0x16, 0x3c6ef3729e3779b9, 0x78dde6e4daa66d2b, 0x9715609d],
            &[
                0x1a,
                0x3c6ef3729e3779b9,
                0x78dde6e4daa66d2b,
                0xb54cda561715609d,
            ],
        ];
        for (bits, rows) in [
            (4, &ragged_4bit[..]),
            (16, &ragged_16bit[..]),
            (32, &ragged_32bit[..]),
        ] {
            for (len, want) in rows.iter().enumerate() {
                let digits = golden_digits(bits, len);
                assert_eq!(roundtrip(&digits), *want, "bits={bits} len={len}");
            }
        }
    }

    /// Digit vectors below `2^bits`, with lengths that cover ragged
    /// tails (partial words and odd pairs).
    fn digits_below(bits: u32) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec((0..1u64 << bits).prop_map(|d| d as u32), 0..70)
    }

    proptest! {
        #[test]
        fn pack_roundtrip_4bit(digits in digits_below(4)) {
            roundtrip(&digits);
        }

        #[test]
        fn pack_roundtrip_16bit(digits in digits_below(16)) {
            roundtrip(&digits);
        }

        #[test]
        fn pack_roundtrip_32bit(digits in digits_below(32)) {
            roundtrip(&digits);
        }

        #[test]
        fn width_class_follows_the_largest_digit(digits in digits_below(32)) {
            let max = digits.iter().copied().max().unwrap_or(0);
            let class = u64::from(max >= 16) + u64::from(max >= 65_536);
            prop_assert_eq!(roundtrip(&digits)[0] & 3, class);
        }
    }

    #[test]
    fn prefix_labels_interleave_correctly() {
        // ℓ(u)=[1] is an ancestor-side label; [1,1] sits inside the
        // subtree: (u=[1], v=[2]) vs (u'=[1,1], v'=[3]).
        let a = LabeledEdge::new(l(&[1]), l(&[2]));
        let b = LabeledEdge::new(l(&[1, 1]), l(&[3]));
        assert!(a.intersects(&b));
    }
}
