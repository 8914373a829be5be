//! The paper's packed single-word encoding of a permutation.
//!
//! "In the circuit described by the Verilog code, each permutation was
//! represented by a single word. Here, each word has `n log₂(n)` bits,
//! which is 36 for n = 9." Element at position `i` occupies bits
//! `[(n−1−i)·b, (n−i)·b)` where `b = ⌈log₂ n⌉` — position 0 is the
//! most-significant field, matching the paper's example where `1 0 2 3`
//! is the 8-bit binary number `01 00 10 11`.

use crate::{bits_per_element, Permutation};
use hwperm_bignum::Ubig;

impl Permutation {
    /// Packs the permutation into a single `n·⌈log₂n⌉`-bit word.
    ///
    /// ```
    /// use hwperm_perm::Permutation;
    /// // Paper Fig. 4 text: "0100 0010" ... for n = 4, permutation 1 0 2 3
    /// // packs as 0b01_00_10_11.
    /// let p = Permutation::try_from_slice(&[1, 0, 2, 3]).unwrap();
    /// assert_eq!(p.pack().to_u64(), Some(0b01_00_10_11));
    /// ```
    pub fn pack(&self) -> Ubig {
        let b = bits_per_element(self.n());
        let mut out = Ubig::zero();
        for (i, &v) in self.as_slice().iter().enumerate() {
            let base = (self.n() - 1 - i) * b;
            for bit in 0..b {
                if (v >> bit) & 1 == 1 {
                    out.set_bit(base + bit, true);
                }
            }
        }
        out
    }

    /// Unpacks a word produced by [`Permutation::pack`], validating that
    /// the fields form a permutation.
    pub fn unpack(n: usize, word: &Ubig) -> Result<Permutation, crate::PermError> {
        let b = bits_per_element(n);
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let base = (n - 1 - i) * b;
            let mut e = 0u32;
            for bit in 0..b {
                if word.bit(base + bit) {
                    e |= 1 << bit;
                }
            }
            v.push(e);
        }
        Permutation::try_from_vec(v)
    }

    /// Total width of the packed word in bits.
    pub fn packed_width(n: usize) -> usize {
        n * bits_per_element(n)
    }

    /// `u64` fast path of [`Permutation::pack`]: the same
    /// `n·⌈log₂n⌉`-bit word, assembled by a single shift/or fold with no
    /// bignum allocation.
    ///
    /// # Panics
    /// Panics if the packed word exceeds 64 bits (`n > 16`).
    pub fn pack_u64(&self) -> u64 {
        let n = self.n();
        let b = bits_per_element(n);
        assert!(
            n * b <= 64,
            "packed width {} exceeds the u64 fast path (n = {n})",
            n * b
        );
        // Position 0 is the most-significant field, so a left-to-right
        // fold lands every element at the same offset as pack().
        self.as_slice()
            .iter()
            .fold(0u64, |acc, &v| (acc << b) | v as u64)
    }
}

/// The packed word of the identity permutation (`0 1 … n−1`), on the
/// `u64` fast path. Fixed points of any packed word are exactly the
/// fields where it agrees with this constant.
///
/// # Panics
/// Panics if the packed word exceeds 64 bits (`n > 16`).
pub fn packed_identity_u64(n: usize) -> u64 {
    let b = bits_per_element(n);
    assert!(
        n * b <= 64,
        "packed width {} exceeds the u64 fast path (n = {n})",
        n * b
    );
    (0..n as u64).fold(0u64, |acc, v| (acc << b) | v)
}

/// Derangement test directly on a packed `u64` word, without unpacking:
/// XOR against the packed identity and require every `⌈log₂n⌉`-bit
/// field to be non-zero (a zero field is a fixed point). This is the
/// allocation-free predicate behind the Monte-Carlo fast path.
///
/// # Panics
/// Panics if the packed word exceeds 64 bits (`n > 16`).
pub fn packed_is_derangement(n: usize, word: u64) -> bool {
    let b = bits_per_element(n);
    let field = (1u64 << b) - 1;
    let mut diff = word ^ packed_identity_u64(n);
    for _ in 0..n {
        if diff & field == 0 {
            return false;
        }
        diff >>= b;
    }
    true
}

/// Permutation-validity test directly on a packed `u64` word, without
/// unpacking: the bits above the `n·⌈log₂n⌉`-bit payload must be zero,
/// and the `n` fields, each setting bit `field` of a seen-element
/// bitboard (`seen |= 1 << field`), must set exactly bits `0..n`
/// (`seen == 2ⁿ − 1`). A field naming an element ≥ `n` sets a bit
/// outside that mask, and a repeated element leaves a mask bit clear,
/// so one compare covers both. The body has no data-dependent branch,
/// so a caller with a constant `n` inlines it to straight-line shifts
/// and ORs. This is the cheap output checker behind `GuardedPermSource`
/// and the stuck-at campaigns.
///
/// # Panics
/// Panics if the packed word exceeds 64 bits (`n > 16`).
#[inline]
pub fn packed_is_permutation_u64(n: usize, word: u64) -> bool {
    let b = bits_per_element(n);
    let width = n * b;
    assert!(
        width <= 64,
        "packed width {width} exceeds the u64 fast path (n = {n})"
    );
    let field = (1u64 << b) - 1;
    let mut seen = 0u64;
    for i in 0..n {
        seen |= 1u64 << ((word >> (i * b)) & field);
    }
    let high = word.checked_shr(width as u32).unwrap_or(0);
    (high == 0) & (seen == (1u64 << n) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_byte_examples() {
        // Section III.C: "00011011 and 00011110 represent 0123 and 0132".
        let id = Permutation::identity(4);
        assert_eq!(id.pack().to_u64(), Some(0b00_01_10_11));
        let p = Permutation::try_from_slice(&[0, 1, 3, 2]).unwrap();
        assert_eq!(p.pack().to_u64(), Some(0b00_01_11_10));
    }

    #[test]
    fn fig4_corner_values() {
        // Fig. 4: permutations 0123 and 3210 correspond to binary values
        // 00011011 = 27 and 11100100 = 228.
        assert_eq!(Permutation::identity(4).pack().to_u64(), Some(27));
        assert_eq!(Permutation::last_lex(4).pack().to_u64(), Some(228));
    }

    #[test]
    fn pack_unpack_roundtrip_exhaustive_n5() {
        for p in Permutation::all(5) {
            let w = p.pack();
            assert_eq!(Permutation::unpack(5, &w).unwrap(), p);
        }
    }

    #[test]
    fn packed_width_matches_paper() {
        assert_eq!(Permutation::packed_width(9), 36);
        assert_eq!(Permutation::packed_width(4), 8);
    }

    #[test]
    fn unpack_rejects_non_permutation_words() {
        // 0b00_00_10_11: element 0 appears twice.
        assert!(Permutation::unpack(4, &Ubig::from(0b00_00_10_11u64)).is_err());
    }

    #[test]
    fn wide_permutation_packs_beyond_u64() {
        // n = 20 needs 100 bits.
        let p = Permutation::last_lex(20);
        let w = p.pack();
        assert!(w.bit_len() > 64);
        assert_eq!(Permutation::unpack(20, &w).unwrap(), p);
    }

    #[test]
    fn pack_u64_matches_pack_exhaustive_n5_and_at_the_width_limit() {
        for p in Permutation::all(5) {
            assert_eq!(Some(p.pack_u64()), p.pack().to_u64());
        }
        // n = 16 is exactly 64 bits — the widest the fast path accepts.
        let wide = Permutation::last_lex(16);
        assert_eq!(Some(wide.pack_u64()), wide.pack().to_u64());
    }

    #[test]
    #[should_panic(expected = "exceeds the u64 fast path")]
    fn pack_u64_rejects_wide_permutations() {
        Permutation::identity(17).pack_u64();
    }

    #[test]
    fn packed_identity_agrees_with_identity_pack() {
        for n in [1usize, 2, 4, 9, 16] {
            assert_eq!(packed_identity_u64(n), Permutation::identity(n).pack_u64());
        }
    }

    /// The predicate's specification: nothing above the payload, and
    /// the fields unpack to a permutation.
    fn reference_is_permutation(n: usize, word: u64) -> bool {
        let width = Permutation::packed_width(n);
        (width == 64 || word >> width == 0) && Permutation::unpack(n, &Ubig::from(word)).is_ok()
    }

    fn assert_matches_reference(n: usize, word: u64) {
        assert_eq!(
            packed_is_permutation_u64(n, word),
            reference_is_permutation(n, word),
            "n = {n}, word = {word:#x}"
        );
    }

    #[test]
    fn packed_permutation_check_matches_unpack_exhaustively() {
        // For n ≤ 6, every payload word, alone and with each single bit
        // above the payload set, gets the reference's verdict: a field
        // ≥ n, a repeated field and a stray high bit each reject.
        for n in 0..=6usize {
            let width = Permutation::packed_width(n);
            for payload in 0..1u64 << width {
                assert_matches_reference(n, payload);
                for bit in width..64 {
                    assert_matches_reference(n, payload | 1 << bit);
                }
            }
        }
    }

    #[test]
    fn packed_permutation_check_matches_unpack_up_to_the_full_width() {
        // n = 7..=16: seeded random words, whole and cut to the payload;
        // every packed permutation (n ≤ 8) or seeded random ones, each
        // with every single-bit flip. At n = 16 the payload is all 64
        // bits, so no high-bit check applies.
        let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in 7..=16usize {
            let payload = u64::MAX >> (64 - Permutation::packed_width(n));
            for _ in 0..4096 {
                let word = next();
                assert_matches_reference(n, word);
                assert_matches_reference(n, word & payload);
            }
            let perms: Vec<Permutation> = if n <= 8 {
                Permutation::all(n).collect()
            } else {
                (0..256)
                    .map(|_| {
                        let mut v: Vec<u32> = (0..n as u32).collect();
                        for i in (1..n).rev() {
                            v.swap(i, (next() % (i as u64 + 1)) as usize);
                        }
                        Permutation::try_from_vec(v).unwrap()
                    })
                    .chain([Permutation::identity(n), Permutation::last_lex(n)])
                    .collect()
            };
            for p in perms {
                let word = p.pack_u64();
                assert!(packed_is_permutation_u64(n, word), "p = {p}");
                for bit in 0..64 {
                    assert_matches_reference(n, word ^ 1 << bit);
                }
            }
        }
    }

    #[test]
    fn packed_permutation_check_accepts_all_valid_words() {
        for n in [1usize, 2, 3, 5, 8] {
            for p in Permutation::all(n) {
                assert!(packed_is_permutation_u64(n, p.pack_u64()), "p = {p}");
            }
        }
    }

    #[test]
    fn packed_permutation_check_rejects_corrupt_words() {
        // Any single-bit flip of a packed n = 4 word collides two fields
        // (the 2-bit fields cover 0..4 exactly), so every flip must be
        // caught.
        for p in Permutation::all(4) {
            let w = p.pack_u64();
            for bit in 0..64 {
                assert!(
                    !packed_is_permutation_u64(4, w ^ (1u64 << bit)),
                    "p = {p}, bit = {bit}"
                );
            }
        }
        // Out-of-range field (element 5 for n = 5) and high-bit garbage.
        let w5 = Permutation::identity(5).pack_u64();
        assert!(!packed_is_permutation_u64(5, w5 | 0b101 << 12));
        assert!(!packed_is_permutation_u64(5, w5 | 1u64 << 63));
        // n = 16 fills the whole u64: no high-bit check applies.
        assert!(packed_is_permutation_u64(
            16,
            Permutation::last_lex(16).pack_u64()
        ));
    }

    #[test]
    fn packed_derangement_matches_slice_predicate_exhaustively() {
        for n in [1usize, 2, 4, 5] {
            for p in Permutation::all(n) {
                assert_eq!(
                    packed_is_derangement(n, p.pack_u64()),
                    p.is_derangement(),
                    "n = {n}, p = {p}"
                );
            }
        }
    }
}
