//! The [`Ubig`] type: representation, construction, and bit-level access.

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is nonzero (zero is the empty limb vector). All
/// arithmetic panics on underflow (subtraction below zero) and division
/// by zero, mirroring the built-in integer types in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian limbs; `limbs.last() != Some(&0)`.
    pub(crate) limbs: Vec<u64>,
}

impl Ubig {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Builds a `Ubig` from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Ubig { limbs }
    }

    /// A read-only view of the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is `0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (`0` has bit length `0`).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `i`-th bit (bit 0 is least significant). Out-of-range bits are `0`.
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Sets the `i`-th bit, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let (limb, off) = (i / 64, i % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1u64 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1u64 << off);
            self.normalize();
        }
    }

    /// Exact conversion to `u64`, if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Exact conversion to `u128`, if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (for reporting ratios in benchmarks).
    pub fn to_f64(&self) -> f64 {
        self.limbs
            .iter()
            .rev()
            .fold(0.0, |acc, &l| acc * 2f64.powi(64) + l as f64)
    }

    /// `n!` as a `Ubig`.
    ///
    /// ```
    /// use hwperm_bignum::Ubig;
    /// assert_eq!(Ubig::factorial(0), Ubig::one());
    /// assert_eq!(Ubig::factorial(10).to_u64(), Some(3_628_800));
    /// ```
    pub fn factorial(n: u64) -> Self {
        let mut acc = Ubig::one();
        for k in 2..=n {
            acc = acc.mul_u64(k);
        }
        acc
    }

    /// Restores the no-trailing-zero-limbs invariant.
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }
}

impl From<u32> for Ubig {
    fn from(v: u32) -> Self {
        Ubig::from(v as u64)
    }
}

impl From<usize> for Ubig {
    fn from(v: usize) -> Self {
        Ubig::from(v as u64)
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty() {
        assert!(Ubig::zero().is_zero());
        assert_eq!(Ubig::from(0u64), Ubig::zero());
        assert_eq!(Ubig::zero().bit_len(), 0);
    }

    #[test]
    fn from_limbs_normalizes() {
        let v = Ubig::from_limbs(vec![5, 0, 0]);
        assert_eq!(v.limbs(), &[5]);
    }

    #[test]
    fn bit_len_matches_u64() {
        for v in [1u64, 2, 3, 255, 256, u64::MAX] {
            assert_eq!(Ubig::from(v).bit_len(), (64 - v.leading_zeros()) as usize);
        }
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut v = Ubig::zero();
        v.set_bit(130, true);
        assert!(v.bit(130));
        assert!(!v.bit(129));
        assert_eq!(v.bit_len(), 131);
        v.set_bit(130, false);
        assert!(v.is_zero());
    }

    #[test]
    fn u128_roundtrip() {
        let x = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        assert_eq!(Ubig::from(x).to_u128(), Some(x));
    }

    #[test]
    fn ordering_by_length_then_lexicographic() {
        assert!(Ubig::from(u64::MAX) < Ubig::from(u64::MAX as u128 + 1));
        assert!(Ubig::from(7u64) < Ubig::from(9u64));
        assert_eq!(
            Ubig::from(9u64).cmp(&Ubig::from(9u64)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn factorial_small_values() {
        let expected: [u64; 11] = [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800];
        for (n, &e) in expected.iter().enumerate() {
            assert_eq!(Ubig::factorial(n as u64).to_u64(), Some(e), "n = {n}");
        }
    }

    #[test]
    fn factorial_20_and_21_straddle_u64() {
        assert_eq!(
            Ubig::factorial(20).to_u64(),
            Some(2_432_902_008_176_640_000)
        );
        assert_eq!(Ubig::factorial(21).to_u64(), None);
        assert_eq!(
            Ubig::factorial(21).to_u128(),
            Some(51_090_942_171_709_440_000)
        );
    }

    #[test]
    fn to_f64_is_close() {
        let v = Ubig::factorial(30);
        let exact = 2.6525285981219105e32;
        assert!((v.to_f64() - exact).abs() / exact < 1e-12);
    }
}
