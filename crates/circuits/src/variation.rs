//! Index → variation (k-permutation) converter: the Fig. 1 cascade
//! truncated after `k` stages.
//!
//! The paper's circuit assigns all `n` output positions; stopping after
//! `k` stages enumerates the `n·(n−1)⋯(n−k+1)` ordered selections of
//! `k` distinct elements instead — same comparator banks, same one-hot
//! MUXes, with the per-stage weights changed from factorials to falling
//! factorials. A natural extension the stage structure supports
//! unchanged (DESIGN.md §6).

use crate::converter::{emit_selection_stages, index_width_for};
use hwperm_bignum::Ubig;
use hwperm_factoradic::falling_factorial;
#[cfg(test)]
use hwperm_factoradic::unrank_variation;
use hwperm_logic::{BatchSim, Builder, Netlist, ResourceReport};
use hwperm_perm::bits_per_element;

/// Index → ordered `k`-selection converter.
///
/// ```
/// use hwperm_circuits::IndexToVariationConverter;
/// use hwperm_bignum::Ubig;
///
/// let mut conv = IndexToVariationConverter::new(5, 2);    // 20 variations
/// assert_eq!(conv.convert(&Ubig::zero()), vec![0, 1]);
/// assert_eq!(conv.convert(&Ubig::from(19u64)), vec![4, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct IndexToVariationConverter {
    sim: BatchSim<bool>,
    n: usize,
    k: usize,
    total: Ubig,
}

impl IndexToVariationConverter {
    /// Builds the truncated cascade for `k`-selections of `{0, …, n−1}`.
    ///
    /// # Panics
    /// Panics if `n < 2`, `k == 0`, or `k > n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 2, "converter requires n >= 2");
        assert!((1..=n).contains(&k), "k must be 1..=n");
        let total = falling_factorial(n as u64, k as u64);
        let netlist = build_variation_converter(n, k, &total);
        IndexToVariationConverter {
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

    /// Selection length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of variations `n!/(n−k)!`.
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

    /// Converts an index to the `index`-th variation.
    ///
    /// # Panics
    /// Panics if `index >= n!/(n−k)!`.
    pub fn convert(&mut self, index: &Ubig) -> Vec<u32> {
        assert!(*index < self.total, "variation index out of range");
        self.sim.set_input("index", index);
        self.sim.eval();
        let word = self.sim.read_output("out");
        let b = bits_per_element(self.n);
        (0..self.k)
            .map(|p| {
                let base = (self.k - 1 - p) * b;
                let mut e = 0u32;
                for bit in 0..b {
                    if word.bit(base + bit) {
                        e |= 1 << bit;
                    }
                }
                e
            })
            .collect()
    }
}

fn build_variation_converter(n: usize, k: usize, total: &Ubig) -> Netlist {
    let mut builder = Builder::new();
    let b = &mut builder;
    let bits = bits_per_element(n);
    let w = index_width_for(total);
    let index = b.input_bus("index", w);
    let remaining: Vec<_> = (0..n)
        .map(|e| b.constant_bus(bits, &Ubig::from(e as u64)))
        .collect();
    let blocks: Vec<Ubig> = (0..k)
        .map(|j| falling_factorial((n - 1 - j) as u64, (k - 1 - j) as u64))
        .collect();
    let outputs = emit_selection_stages(b, index, remaining, false, &blocks);

    let mut word = vec![b.constant(false); k * bits];
    for (p, elem) in outputs.iter().enumerate() {
        let base = (k - 1 - p) * bits;
        for (i, &net) in elem.iter().enumerate() {
            word[base + i] = net;
        }
    }
    b.output_bus("out", &word);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_software_exhaustively() {
        for (n, k) in [(4usize, 1usize), (4, 2), (5, 3), (6, 2), (5, 5)] {
            let mut conv = IndexToVariationConverter::new(n, k);
            let total = conv.total().to_u64().unwrap();
            for i in 0..total {
                let idx = Ubig::from(i);
                assert_eq!(
                    conv.convert(&idx),
                    unrank_variation(n, k, &idx),
                    "n={n} k={k} i={i}"
                );
            }
        }
    }

    #[test]
    fn k_equals_n_matches_full_converter() {
        use crate::IndexToPermConverter;
        let mut full = IndexToPermConverter::new(5);
        let mut vark = IndexToVariationConverter::new(5, 5);
        for i in (0..120u64).step_by(7) {
            let idx = Ubig::from(i);
            assert_eq!(vark.convert(&idx), full.convert(&idx).into_vec());
        }
    }

    #[test]
    fn truncation_shrinks_the_circuit() {
        let full = IndexToVariationConverter::new(8, 8).report().total_luts;
        let half = IndexToVariationConverter::new(8, 3).report().total_luts;
        assert!(half < full, "{half} vs {full}");
    }

    #[test]
    fn elements_are_distinct() {
        let mut conv = IndexToVariationConverter::new(9, 4);
        for i in (0..3024u64).step_by(101) {
            let v = conv.convert(&Ubig::from(i));
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 4, "i = {i}: {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_overflow() {
        IndexToVariationConverter::new(4, 2).convert(&Ubig::from(12u64));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_zero_k() {
        IndexToVariationConverter::new(4, 0);
    }
}
