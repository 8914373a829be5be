//! The Fig. 2 random permutation generator: LFSR → ×n! → ≫m → converter.
//!
//! "The output of the random number generator can be viewed as a number
//! x, such that 0 < x < 1 … Multiplying this by integer k yields a value
//! y such that 0 ≤ y < k. We choose k appropriately" — here `k = n!`, so
//! the truncated product is a random index fed straight into the Fig. 1
//! converter. The whole thing is one netlist; each clock yields one
//! random permutation.

use crate::converter::{emit_converter_stages, emit_packed_output, index_width};
use hwperm_bignum::Ubig;
use hwperm_factoradic::unrank;
use hwperm_logic::{BatchSim, Builder, Netlist, ResourceReport};
use hwperm_perm::{bits_per_element, Permutation};
use hwperm_rng::lfsr::build_lfsr;
use hwperm_rng::Lfsr;

/// The Fig. 2 generator wrapped in a simulator.
///
/// The paper notes its disadvantage — "the large size of the index"
/// (for n = 64 the index needs ⌈log₂ 64!⌉ = 296 bits) — which is why the
/// LFSR width is capped at 64 here and larger `n` should use the Knuth
/// shuffle circuit instead.
#[derive(Debug, Clone)]
pub struct RandomIndexGenerator {
    sim: BatchSim<bool>,
    n: usize,
    m: usize,
    nfact: Ubig,
}

impl RandomIndexGenerator {
    /// Default LFSR width: 8 bits above the index width (keeps the
    /// pigeonhole bias below ~0.4%), capped at 63.
    pub fn new(n: usize, seed: u64) -> Self {
        let m = (index_width(n) + 8).min(63);
        Self::with_lfsr_width(n, m, seed)
    }

    /// Explicit LFSR width `m` (the paper's bias knob).
    ///
    /// # Panics
    /// Panics if `n < 2`, or if `m < ⌈log₂ n!⌉` (every index must be
    /// reachable), or `m > 64`.
    pub fn with_lfsr_width(n: usize, m: usize, seed: u64) -> Self {
        assert!(n >= 2, "generator requires n >= 2");
        let w = index_width(n);
        assert!(
            m >= w,
            "LFSR width {m} cannot cover the {w}-bit index space"
        );
        let nfact = Ubig::factorial(n as u64);
        let netlist = build_random_index_generator(n, m, seed);
        let mut sim = BatchSim::<bool>::new(netlist);
        sim.eval();
        RandomIndexGenerator { sim, n, m, nfact }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// LFSR width `m`.
    pub fn lfsr_width(&self) -> usize {
        self.m
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate.
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    /// One clock: returns the permutation for the current LFSR state and
    /// advances the LFSR. Also exposes the raw index on port `rand_index`.
    pub fn next_permutation(&mut self) -> Permutation {
        let word = self.sim.read_output("perm");
        let perm =
            Permutation::unpack(self.n, &word).expect("generator output is always a permutation");
        debug_assert!(self.sim.read_output("rand_index") < self.nfact);
        self.sim.step();
        self.sim.eval();
        perm
    }
}

/// Software mirror of [`RandomIndexGenerator`] for differential tests
/// and fast Monte-Carlo use.
#[derive(Debug, Clone)]
pub struct RandomIndexModel {
    lfsr: Lfsr,
    n: usize,
    nfact: Ubig,
}

impl RandomIndexModel {
    /// Mirror of [`RandomIndexGenerator::with_lfsr_width`].
    pub fn with_lfsr_width(n: usize, m: usize, seed: u64) -> Self {
        RandomIndexModel {
            lfsr: Lfsr::new(m, seed),
            n,
            nfact: Ubig::factorial(n as u64),
        }
    }

    /// Next permutation: `index = ⌊n!·x / 2^m⌋`, unranked in software.
    pub fn next_permutation(&mut self) -> Permutation {
        let x = self.lfsr.state();
        let m = self.lfsr.width();
        let index = self.nfact.mul_u64(x).shr_bits(m);
        self.lfsr.step();
        unrank(self.n, &index)
    }
}

/// Generates the Fig. 2 netlist: LFSR, shift-add multiplier by `n!`,
/// truncation, then the shared Fig. 1 stage cascade.
fn build_random_index_generator(n: usize, m: usize, seed: u64) -> Netlist {
    let mut builder = Builder::new();
    let b = &mut builder;
    let bits = bits_per_element(n);
    let nfact = Ubig::factorial(n as u64);
    let w = index_width(n);

    let x = build_lfsr(b, m, seed);
    let product = b.mul_const(&x, &nfact);
    // Right_Shift & Truncate: keep bits [m, m + w).
    let zero = b.constant(false);
    let index: Vec<_> = (0..w)
        .map(|i| product.get(m + i).copied().unwrap_or(zero))
        .collect();
    b.output_bus("rand_index", &index);

    let remaining: Vec<_> = (0..n)
        .map(|e| b.constant_bus(bits, &Ubig::from(e as u64)))
        .collect();
    let outputs = emit_converter_stages(b, index, remaining, false);
    emit_packed_output(b, &outputs, bits);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_matches_software_model() {
        for (n, m) in [(3usize, 8usize), (4, 10), (5, 16)] {
            let seed = 0xFACE + n as u64;
            let mut hw = RandomIndexGenerator::with_lfsr_width(n, m, seed);
            let mut sw = RandomIndexModel::with_lfsr_width(n, m, seed);
            for cycle in 0..150 {
                assert_eq!(
                    hw.next_permutation(),
                    sw.next_permutation(),
                    "n = {n}, m = {m}, cycle = {cycle}"
                );
            }
        }
    }

    #[test]
    fn index_stays_below_n_factorial() {
        // Even with the minimal legal m (= index width), the truncated
        // product is < n!.
        let w = index_width(4);
        let mut generator = RandomIndexGenerator::with_lfsr_width(4, w, 1);
        for _ in 0..100 {
            let p = generator.next_permutation();
            assert!(Permutation::try_from_slice(p.as_slice()).is_ok());
        }
    }

    #[test]
    fn covers_whole_permutation_space() {
        // m = 10 over n = 4: one LFSR period emits every index.
        let mut generator = RandomIndexGenerator::with_lfsr_width(4, 10, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1023 {
            seen.insert(generator.next_permutation().into_vec());
        }
        assert_eq!(seen.len(), 24, "all 24 permutations reachable");
    }

    #[test]
    fn bias_matches_pigeonhole_for_m5_n4() {
        // The paper's example: m = 5, k = 24 — seven permutations occur
        // twice per period, 17 once.
        let mut generator = RandomIndexGenerator::with_lfsr_width(4, 5, 1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..31 {
            *counts
                .entry(generator.next_permutation().into_vec())
                .or_insert(0u32) += 1;
        }
        let twos = counts.values().filter(|&&c| c == 2).count();
        let ones = counts.values().filter(|&&c| c == 1).count();
        assert_eq!((twos, ones), (7, 17));
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn undersized_lfsr_rejected() {
        RandomIndexGenerator::with_lfsr_width(5, 3, 1);
    }

    #[test]
    fn resource_report_includes_lfsr_registers() {
        let generator = RandomIndexGenerator::with_lfsr_width(4, 12, 1);
        assert_eq!(generator.report().registers, 12);
    }
}
