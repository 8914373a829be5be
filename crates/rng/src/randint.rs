//! The paper's Fig. 2 random-integer block and its bias analysis.
//!
//! A random `m`-bit number `x` is viewed as a fraction `x / 2^m < 1`;
//! multiplying by `k` and truncating ("Right_Shift & Truncate") yields an
//! integer `i = ⌊k·x / 2^m⌋ ∈ [0, k)`. Because an LFSR emits the
//! `2^m − 1` nonzero values exactly once per period, the pigeonhole
//! principle makes some outputs of `i` more likely than others; the paper
//! works the `m = 5, k = 24` example (7 integers at double probability)
//! and notes that larger `m` shrinks the imbalance. [`BiasReport`]
//! computes those counts exactly.

use crate::lfsr::Lfsr;
use hwperm_bignum::Ubig;
use hwperm_logic::{Builder, Bus};
use hwperm_perm::shuffle::RandomBelow;

/// Software model of the Fig. 2 block: `⌊k·x / 2^m⌋`.
///
/// # Panics
/// Panics if `x >= 2^m` or if `k·x` would overflow `u128` (it cannot for
/// `m ≤ 64`, `k ≤ u64::MAX`).
pub fn random_integer(m: usize, x: u64, k: u64) -> u64 {
    if m < 64 {
        assert!(x < (1u64 << m), "x must be an m-bit value");
    }
    ((x as u128 * k as u128) >> m) as u64
}

/// Builds the Fig. 2 datapath on a netlist: input bus `x` (`m` bits),
/// output `⌊k·x/2^m⌋` (`⌈log₂ k⌉` bits). The multiplier is the shift-and-
/// add constant multiplier; the shift-and-truncate is free (wire
/// selection).
pub fn build_random_integer(b: &mut Builder, x: &[NetId], k: u64) -> Bus {
    assert!(k >= 1, "k must be at least 1");
    let m = x.len();
    let product = b.mul_const(x, &Ubig::from(k));
    // Keep bits [m, m + ceil(log2 k)) — the integer part of k·x/2^m.
    let out_width = (64 - (k - 1).leading_zeros()).max(1) as usize;
    let zero = b.constant(false);
    (0..out_width)
        .map(|i| product.get(m + i).copied().unwrap_or(zero))
        .collect()
}

use hwperm_logic::NetId;

/// A [`RandomBelow`] source driven by a software LFSR through the Fig. 2
/// block — *hardware-faithful*, including its pigeonhole bias. This is
/// what the paper's Knuth-shuffle circuit uses per stage (a "31-bit
/// random integer generator similar to that shown in Fig. 2").
#[derive(Debug, Clone)]
pub struct LfsrRandomBelow {
    lfsr: Lfsr,
}

impl LfsrRandomBelow {
    /// An `m`-bit LFSR-backed integer source.
    pub fn new(m: usize, seed: u64) -> Self {
        LfsrRandomBelow {
            lfsr: Lfsr::new(m, seed),
        }
    }
}

impl RandomBelow for LfsrRandomBelow {
    fn next_below(&mut self, k: u64) -> u64 {
        let x = self.lfsr.step();
        random_integer(self.lfsr.width(), x, k)
    }
}

/// Exact distribution of the Fig. 2 block's output over one full LFSR
/// period (all `x ∈ [1, 2^m)` exactly once).
#[derive(Debug, Clone, PartialEq)]
pub struct BiasReport {
    /// LFSR width.
    pub m: usize,
    /// Output range.
    pub k: u64,
    /// `counts[i]` = number of `x` values mapping to output `i`.
    pub counts: Vec<u64>,
    /// Smallest per-output count.
    pub min_count: u64,
    /// Largest per-output count.
    pub max_count: u64,
}

impl BiasReport {
    /// Computes the exact per-output counts analytically:
    /// `⌊k·x/2^m⌋ = i ⟺ x ∈ [⌈i·2^m/k⌉, ⌈(i+1)·2^m/k⌉)`, minus the
    /// excluded `x = 0`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 2^m − 1` (outputs would be impossible) or
    /// `m > 63`.
    pub fn analytic(m: usize, k: u64) -> BiasReport {
        assert!(m <= 63, "analytic bias limited to m <= 63");
        assert!(k >= 1);
        let pow = 1u128 << m;
        assert!(
            (k as u128) < pow,
            "k = {k} exceeds the number of nonzero LFSR states"
        );
        let mut counts = Vec::with_capacity(k as usize);
        for i in 0..k as u128 {
            let lo = (i * pow).div_ceil(k as u128);
            let hi = ((i + 1) * pow).div_ceil(k as u128);
            let mut c = (hi - lo) as u64;
            if lo == 0 {
                c -= 1; // the LFSR never emits x = 0
            }
            counts.push(c);
        }
        Self::from_counts(m, k, counts)
    }

    /// Measures the distribution empirically by stepping an actual LFSR
    /// through its entire period (practical for `m ≲ 24`).
    pub fn empirical(m: usize, k: u64) -> BiasReport {
        let mut lfsr = Lfsr::new(m, 1);
        let mut counts = vec![0u64; k as usize];
        for _ in 0..lfsr.period() {
            let x = lfsr.step();
            counts[random_integer(m, x, k) as usize] += 1;
        }
        Self::from_counts(m, k, counts)
    }

    fn from_counts(m: usize, k: u64, counts: Vec<u64>) -> BiasReport {
        let min_count = counts.iter().copied().min().unwrap_or(0);
        let max_count = counts.iter().copied().max().unwrap_or(0);
        BiasReport {
            m,
            k,
            counts,
            min_count,
            max_count,
        }
    }

    /// Ratio of the most likely to the least likely output (the paper's
    /// "generated with a probability that is twice that of" for m = 5).
    pub fn probability_ratio(&self) -> f64 {
        self.max_count as f64 / self.min_count as f64
    }

    /// Relative probability difference between extreme outputs, in
    /// percent ("for m = 31, the difference reduces to ~10⁻⁵ %").
    pub fn difference_percent(&self) -> f64 {
        100.0 * (self.max_count - self.min_count) as f64 / self.min_count as f64
    }

    /// Number of outputs receiving the maximal count.
    pub fn outputs_at_max(&self) -> usize {
        self.counts.iter().filter(|&&c| c == self.max_count).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::BatchSim;

    #[test]
    fn random_integer_range() {
        for m in [4usize, 5, 8] {
            for k in [1u64, 2, 5, 24] {
                for x in 0..(1u64 << m) {
                    let i = random_integer(m, x, k);
                    assert!(i < k, "m={m} k={k} x={x} -> {i}");
                }
            }
        }
    }

    #[test]
    fn paper_example_m5_k24() {
        // "seven of the random integers are generated from two random
        // numbers, while 17 are generated from one. As a result, seven
        // random integers are generated with a probability that is twice
        // that of 17 other integers."
        let r = BiasReport::analytic(5, 24);
        assert_eq!(r.counts.iter().sum::<u64>(), 31);
        assert_eq!(r.outputs_at_max(), 7);
        assert_eq!(r.counts.iter().filter(|&&c| c == 1).count(), 17);
        assert_eq!(r.probability_ratio(), 2.0);
    }

    #[test]
    fn analytic_matches_empirical() {
        for (m, k) in [(5usize, 24u64), (8, 24), (10, 7), (12, 100)] {
            let a = BiasReport::analytic(m, k);
            let e = BiasReport::empirical(m, k);
            assert_eq!(a.counts, e.counts, "m={m} k={k}");
        }
    }

    #[test]
    fn bias_shrinks_with_m() {
        let d5 = BiasReport::analytic(5, 24).difference_percent();
        let d16 = BiasReport::analytic(16, 24).difference_percent();
        let d31 = BiasReport::analytic(31, 24).difference_percent();
        assert!(d5 > d16 && d16 > d31);
        assert!(d31 < 1e-4, "m=31 difference should be ~1e-5 %: {d31}");
    }

    #[test]
    fn counts_sum_to_period() {
        for (m, k) in [(6usize, 10u64), (9, 24), (13, 720)] {
            let r = BiasReport::analytic(m, k);
            assert_eq!(r.counts.iter().sum::<u64>(), (1u64 << m) - 1);
        }
    }

    #[test]
    fn circuit_block_matches_software() {
        for (m, k) in [(5usize, 24u64), (8, 10), (10, 3)] {
            let mut b = Builder::new();
            let x = b.input_bus("x", m);
            let out = build_random_integer(&mut b, &x, k);
            b.output_bus("i", &out);
            let mut sim = BatchSim::<bool>::new(b.finish());
            for x_val in 0..(1u64 << m) {
                sim.set_input_u64("x", x_val);
                sim.eval();
                assert_eq!(
                    sim.read_output("i").to_u64(),
                    Some(random_integer(m, x_val, k)),
                    "m={m} k={k} x={x_val}"
                );
            }
        }
    }

    #[test]
    fn lfsr_random_below_stays_in_range() {
        let mut src = LfsrRandomBelow::new(16, 77);
        for k in 1..40u64 {
            for _ in 0..50 {
                assert!(src.next_below(k) < k);
            }
        }
    }

    #[test]
    fn k_one_always_zero() {
        let r = BiasReport::analytic(8, 1);
        assert_eq!(r.counts, vec![255]);
        assert_eq!(random_integer(8, 200, 1), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the number")]
    fn k_larger_than_period_rejected() {
        BiasReport::analytic(4, 16);
    }
}
