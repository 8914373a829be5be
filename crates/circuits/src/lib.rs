#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The paper's circuits, generated gate-by-gate on the `hwperm-logic`
//! substrate.
//!
//! | Paper artifact | Type here |
//! |---|---|
//! | Fig. 1 — index to permutation converter (factorial number system) | [`IndexToPermConverter`] |
//! | Fig. 2 — random permutation generator (LFSR → ×k → ≫m → converter) | [`RandomIndexGenerator`] |
//! | Fig. 3 — Knuth shuffle random permutation generator | [`KnuthShuffleCircuit`] |
//! | Companion paper \[4\] — index to constant-weight codeword | [`IndexToCombinationConverter`] |
//! | Conclusion remark — "can also serve as a sorting network" | [`SortingNetwork`] |
//! | Extension: inverse circuit (permutation → index) | [`PermToIndexConverter`] |
//! | Extension: truncated cascade (index → k-permutation) | [`IndexToVariationConverter`] |
//!
//! Every circuit type wraps a generated [`hwperm_logic::Netlist`] in a
//! simulator plus the port bookkeeping to move `Ubig` indices and
//! [`hwperm_perm::Permutation`]s across the boundary, and exposes
//! [`hwperm_logic::ResourceReport`] for the Tables III/IV experiments.
//! All of them are differentially tested against the software references
//! in `hwperm-factoradic` / `hwperm-perm`. [`families`] names every
//! generated netlist family and builds each one at size `n`.

mod cascade;
mod combination;
mod converter;
mod family;
mod random_index;
mod rank_circuit;
mod shuffle;
mod sorter;
mod variation;

pub use cascade::LutCascadeConverter;
pub use combination::IndexToCombinationConverter;
pub use converter::{converter_netlist, ConverterOptions, IndexToPermConverter};
pub use family::{families, family, sweep_ports, Family};
pub use random_index::{RandomIndexGenerator, RandomIndexModel};
pub use rank_circuit::PermToIndexConverter;
pub use shuffle::{shuffle_netlist, KnuthShuffleCircuit, KnuthShuffleModel, ShuffleOptions};
pub use sorter::SortingNetwork;
pub use variation::IndexToVariationConverter;

/// Comparators in the Fig. 1 converter: stage `j` compares the running
/// index against the multiples `1·(r−1)!, …, (r−1)·(r−1)!` where
/// `r = n − j`, so the total is `(n−1) + (n−2) + … + 1 + 0 = n(n−1)/2`
/// — the paper's `O(n²)` complexity claim.
pub fn converter_comparator_count(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Crossovers in the Fig. 3 shuffle: stage `j` can route element `j`
/// against any of `n − j − 1` others, totalling `n(n−1)/2` — "identical
/// to the complexity of the index to permutation generator".
pub fn shuffle_crossover_count(n: usize) -> usize {
    n * (n - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_formulas() {
        assert_eq!(converter_comparator_count(4), 6);
        assert_eq!(converter_comparator_count(10), 45);
        assert_eq!(shuffle_crossover_count(4), 6);
        assert_eq!(
            converter_comparator_count(17),
            shuffle_crossover_count(17),
            "the paper notes the two complexities are identical"
        );
    }
}
