//! The inverse circuit: permutation → index (hardware ranking).
//!
//! The paper builds index → permutation; the obvious companion — needed
//! wherever a permutation must be *stored or compared compactly* (the
//! compressed-permutation motivation in the intro) — is the inverse.
//! Stage `j` computes the Lehmer digit
//! `L_j = #{ i > j : π(i) < π(j) }` with a bank of `n−1−j` comparators
//! and a population count, scales it by the constant `(n−1−j)!` with a
//! shift-and-add multiplier, and accumulates. Same `n(n−1)/2`
//! comparator complexity as the forward converter, `O(n)` stage delay.

use crate::converter::index_width;
use hwperm_bignum::Ubig;
use hwperm_logic::{BatchSim, Builder, Bus, Netlist, ResourceReport};
use hwperm_perm::{bits_per_element, Permutation};

/// Permutation → index converter (hardware rank).
///
/// ```
/// use hwperm_circuits::PermToIndexConverter;
/// use hwperm_perm::Permutation;
///
/// let mut conv = PermToIndexConverter::new(4);
/// let p = Permutation::try_from_slice(&[1, 3, 2, 0]).unwrap();
/// assert_eq!(conv.rank(&p).to_u64(), Some(11)); // Table I, N = 11
/// ```
#[derive(Debug, Clone)]
pub struct PermToIndexConverter {
    sim: BatchSim<bool>,
    n: usize,
}

impl PermToIndexConverter {
    /// Builds the ranking circuit for `n`-element permutations.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "rank circuit requires n >= 2");
        PermToIndexConverter {
            sim: BatchSim::<bool>::new(build_rank_circuit(n)),
            n,
        }
    }

    /// Number of elements `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate.
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    /// Ranks a permutation: the inverse of the Fig. 1 conversion.
    pub fn rank(&mut self, perm: &Permutation) -> Ubig {
        assert_eq!(perm.n(), self.n, "permutation size mismatch");
        self.sim.set_input("perm", &perm.pack());
        self.sim.eval();
        self.sim.read_output("index")
    }
}

fn build_rank_circuit(n: usize) -> Netlist {
    let mut builder = Builder::new();
    let b = &mut builder;
    let bits = bits_per_element(n);
    let w = index_width(n);

    // Unpack the paper's single-word representation (position 0 = MSB
    // field), elements LSB-first.
    let word = b.input_bus("perm", n * bits);
    let elems: Vec<Bus> = (0..n)
        .map(|p| {
            let base = (n - 1 - p) * bits;
            word[base..base + bits].to_vec()
        })
        .collect();

    // Accumulate Σ L_j · (n−1−j)!.
    let mut acc: Bus = vec![b.constant(false); w];
    for j in 0..n - 1 {
        // Comparator bank: lt_i = (π(i) < π(j)) for i > j.
        let lt: Vec<_> = (j + 1..n)
            .map(|i| {
                let ge = b.ge(&elems[i], &elems[j]);
                b.not(ge)
            })
            .collect();
        let digit = b.popcount(&lt);
        let weight = Ubig::factorial((n - 1 - j) as u64);
        let term = b.mul_const(&digit, &weight);
        let (sum, _carry) = b.add(&acc, &term[..term.len().min(w)]);
        acc = sum[..w].to_vec();
    }
    b.output_bus("index", &acc);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_factoradic::{rank, unrank_u64};

    #[test]
    fn ranks_table_i_exhaustively() {
        let mut conv = PermToIndexConverter::new(4);
        for i in 0..24u64 {
            let p = unrank_u64(4, i);
            assert_eq!(conv.rank(&p).to_u64(), Some(i), "N = {i}");
        }
    }

    #[test]
    fn inverts_the_forward_converter() {
        use crate::IndexToPermConverter;
        let mut forward = IndexToPermConverter::new(6);
        let mut backward = PermToIndexConverter::new(6);
        for i in (0..720u64).step_by(13) {
            let p = forward.convert_u64(i);
            assert_eq!(backward.rank(&p).to_u64(), Some(i), "N = {i}");
        }
    }

    #[test]
    fn matches_software_rank_for_larger_n() {
        let mut conv = PermToIndexConverter::new(9);
        for i in [0u64, 1, 54_321, 362_879] {
            let p = unrank_u64(9, i);
            assert_eq!(conv.rank(&p), rank(&p), "N = {i}");
        }
    }

    #[test]
    fn big_index_n22() {
        use hwperm_factoradic::unrank;
        let mut conv = PermToIndexConverter::new(22);
        let index = &Ubig::factorial(22) - &Ubig::from(98_765u64);
        let p = unrank(22, &index);
        assert_eq!(conv.rank(&p), index);
    }

    #[test]
    fn extremes() {
        let mut conv = PermToIndexConverter::new(7);
        assert_eq!(conv.rank(&Permutation::identity(7)), Ubig::zero());
        assert_eq!(
            conv.rank(&Permutation::last_lex(7)).to_u64(),
            Some(5040 - 1)
        );
    }

    #[test]
    fn comparator_complexity_matches_forward() {
        // Same O(n²) comparator structure as the converter.
        let g6 = PermToIndexConverter::new(6).netlist().combinational_count();
        let g12 = PermToIndexConverter::new(12)
            .netlist()
            .combinational_count();
        let ratio = g12 as f64 / g6 as f64;
        assert!((3.0..=14.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_rejected() {
        PermToIndexConverter::new(4).rank(&Permutation::identity(5));
    }
}
