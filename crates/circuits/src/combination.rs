//! The companion paper's circuit: index → constant-weight codeword.
//!
//! Butler & Sasao, *Index to Constant Weight Codeword Converter* (ARC
//! 2011) — reference [4], which this paper presents itself as a companion
//! to. The structure mirrors Fig. 1: a cascade of `n` stages, one per
//! candidate element `c`. Stage `c` compares the running index against
//! the block size `C(r−1, k′−1)` (combinations that *include* `c`, where
//! `r` is the remaining universe and `k′` the ones still to place):
//! smaller → emit a 1 and decrement `k′`; otherwise subtract the block
//! and emit a 0. Unlike the permutation converter the block size depends
//! on the *runtime* value `k′`, so each stage selects its constant
//! through a small mux tree indexed by the `k′` register bus.

use hwperm_bignum::Ubig;
use hwperm_factoradic::binomial;
use hwperm_logic::{BatchSim, Builder, Netlist, ResourceReport};

/// Index → `k`-of-`n` constant-weight codeword converter.
///
/// ```
/// use hwperm_circuits::IndexToCombinationConverter;
/// use hwperm_bignum::Ubig;
///
/// let mut conv = IndexToCombinationConverter::new(5, 2);
/// // Index 0 is the lexicographically first combination {0, 1}:
/// // codeword 11000.
/// assert_eq!(conv.convert(&Ubig::zero()), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct IndexToCombinationConverter {
    sim: BatchSim<bool>,
    n: usize,
    k: usize,
    total: Ubig,
}

impl IndexToCombinationConverter {
    /// Builds the converter for `k`-element subsets of `{0, …, n−1}`.
    ///
    /// # Panics
    /// Panics if `n < 1` or `k > n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 1, "need at least one element");
        assert!(k <= n, "cannot choose {k} of {n}");
        let total = binomial(n as u64, k as u64);
        let netlist = build_combination_converter(n, k);
        IndexToCombinationConverter {
            sim: BatchSim::<bool>::new(netlist),
            n,
            k,
            total,
        }
    }

    /// Universe size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Codeword weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of codewords `C(n, k)`.
    pub fn total(&self) -> &Ubig {
        &self.total
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate.
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    /// Converts an index to the sorted element list of the `index`-th
    /// combination in lexicographic order.
    ///
    /// # Panics
    /// Panics if `index >= C(n, k)`.
    pub fn convert(&mut self, index: &Ubig) -> Vec<u32> {
        assert!(*index < self.total, "combination index out of range");
        self.sim.set_input("index", index);
        self.sim.eval();
        let word = self.sim.read_output("codeword");
        // Bit n−1−c set ⟺ element c chosen.
        (0..self.n as u32)
            .filter(|&c| word.bit(self.n - 1 - c as usize))
            .collect()
    }

    /// Converts an index directly to the packed codeword (MSB = element 0).
    pub fn convert_to_codeword(&mut self, index: &Ubig) -> Ubig {
        assert!(*index < self.total, "combination index out of range");
        self.sim.set_input("index", index);
        self.sim.eval();
        self.sim.read_output("codeword")
    }
}

/// Generates the converter netlist.
fn build_combination_converter(n: usize, k: usize) -> Netlist {
    let mut builder = Builder::new();
    let b = &mut builder;
    let total = binomial(n as u64, k as u64);
    let w = (&total - &Ubig::one()).bit_len().max(1);
    let kw = (usize::BITS - k.leading_zeros()).max(1) as usize; // holds 0..=k

    let mut index = b.input_bus("index", w);
    let mut slots = b.constant_bus(kw, &Ubig::from(k as u64)); // k' register bus
    let one = b.constant_bus(kw, &Ubig::one());
    let mut bits_out = Vec::with_capacity(n);

    for c in 0..n {
        let r = (n - c) as u64; // remaining universe size
                                // Block size C(r-1, k'-1) selected by the runtime k' bus
                                // (k' = 0 → block 0 → never include).
                                // Constants at their natural width: states with k' near k can be
                                // unreachable at late stages and carry blocks wider than the
                                // index bus; the mux/comparator combinators zero-extend as needed.
        let blocks: Vec<Vec<_>> = (0..=k as u64)
            .map(|j| {
                let v = if j == 0 {
                    Ubig::zero()
                } else {
                    binomial(r - 1, j - 1)
                };
                let width = v.bit_len().max(1);
                b.constant_bus(width, &v)
            })
            .collect();
        let block_refs: Vec<&[_]> = blocks.iter().map(|x| x.as_slice()).collect();
        let block = b.binary_mux(&slots, &block_refs);

        // include ⟺ index < block.
        let ge = b.ge(&index, &block);
        let include = b.not(ge);
        bits_out.push(include);

        // index' = include ? index : index − block.
        let diff = b.sub_mod(&index, &block);
        index = b.mux_bus(include, &diff[..w], &index);

        // k'' = include ? k' − 1 : k'.
        let dec = b.sub_mod(&slots, &one);
        slots = b.mux_bus(include, &slots, &dec[..kw]);
    }

    // Codeword port: bit n−1−c ⟺ element c chosen (MSB-first rendering,
    // matching `hwperm_factoradic::combinadic::to_codeword`).
    let mut word = vec![b.constant(false); n];
    for (c, &bit) in bits_out.iter().enumerate() {
        word[n - 1 - c] = bit;
    }
    b.output_bus("codeword", &word);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_factoradic::{rank_combination, to_codeword, unrank_combination};

    #[test]
    fn matches_software_exhaustively() {
        for (n, k) in [(4usize, 2usize), (5, 0), (5, 5), (6, 3), (7, 2)] {
            let mut conv = IndexToCombinationConverter::new(n, k);
            let total = conv.total().to_u64().unwrap();
            for i in 0..total {
                let idx = Ubig::from(i);
                let got = conv.convert(&idx);
                let expected = unrank_combination(n, k, &idx);
                assert_eq!(got, expected, "n={n} k={k} i={i}");
            }
        }
    }

    #[test]
    fn codeword_rendering_matches_reference() {
        let mut conv = IndexToCombinationConverter::new(8, 3);
        for i in [0u64, 5, 20, 55] {
            let idx = Ubig::from(i);
            let elems = unrank_combination(8, 3, &idx);
            assert_eq!(conv.convert_to_codeword(&idx), to_codeword(8, &elems));
        }
    }

    #[test]
    fn weight_is_constant() {
        let mut conv = IndexToCombinationConverter::new(10, 4);
        for i in (0..210u64).step_by(11) {
            let cw = conv.convert_to_codeword(&Ubig::from(i));
            let ones = (0..10).filter(|&b| cw.bit(b)).count();
            assert_eq!(ones, 4, "i = {i}");
        }
    }

    #[test]
    fn ranks_roundtrip_through_circuit() {
        let mut conv = IndexToCombinationConverter::new(9, 4);
        for i in (0..126u64).step_by(7) {
            let got = conv.convert(&Ubig::from(i));
            assert_eq!(rank_combination(9, &got).to_u64(), Some(i));
        }
    }

    #[test]
    fn extreme_weights() {
        // k = 0: the only codeword is all zeros.
        let mut c0 = IndexToCombinationConverter::new(6, 0);
        assert_eq!(c0.convert(&Ubig::zero()), Vec::<u32>::new());
        // k = n: the only codeword is all ones.
        let mut cn = IndexToCombinationConverter::new(6, 6);
        assert_eq!(cn.convert(&Ubig::zero()), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_overflow_index() {
        IndexToCombinationConverter::new(5, 2).convert(&Ubig::from(10u64));
    }

    #[test]
    fn resources_grow_with_n() {
        let small = IndexToCombinationConverter::new(6, 3).report().total_luts;
        let large = IndexToCombinationConverter::new(12, 6).report().total_luts;
        assert!(large > small * 2, "{small} vs {large}");
    }
}
