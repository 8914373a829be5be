#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Permutations of `{0, …, n−1}` and the operations the paper's circuits
//! are specified against.
//!
//! The paper writes a permutation as the sequence of elements it places at
//! positions `0, 1, …, n−1` (one-line notation); e.g. for `n = 4`,
//! "`1 0 2 3`" maps position 0 to element 1. [`Permutation`] stores exactly
//! that sequence.
//!
//! Provided here:
//! - group operations: [`Permutation::compose`], [`Permutation::inverse`],
//!   parity, cycle structure;
//! - combinatorial structure: [`Permutation::lehmer`] codes (the digit
//!   vector of the factorial number system), fixed points, derangements;
//! - enumeration: [`Permutation::next_lex`] / [`Permutation::prev_lex`];
//! - the paper's packed single-word encoding (`n·⌈log₂n⌉` bits,
//!   [`Permutation::pack`]);
//! - the software Knuth (Fisher–Yates) shuffle ([`shuffle::knuth_shuffle`]),
//!   the reference for the Section III circuit.
//!
//! ```
//! use hwperm_perm::Permutation;
//!
//! let p = Permutation::try_from_slice(&[1, 0, 2, 3]).unwrap();
//! assert_eq!(p.lehmer(), vec![1, 0, 0, 0]);          // Table I, N = 6
//! assert_eq!(p.inverse(), p);                        // a transposition
//! assert_eq!(p.fixed_points(), vec![2, 3]);
//! ```

mod group;
mod lex;
mod ops;
mod pack;
mod permutation;
pub mod shuffle;

pub use lex::{next_lex_in_slice, prev_lex_in_slice, AllPermutations};
pub use pack::{packed_identity_u64, packed_is_derangement, packed_is_permutation_u64};
pub use permutation::{PermError, Permutation};

/// Bits needed to represent one element of an `n`-element permutation:
/// `⌈log₂ n⌉`, with a minimum of 1 bit (the paper's per-element width).
///
/// ```
/// use hwperm_perm::bits_per_element;
/// assert_eq!(bits_per_element(4), 2);  // the paper's 8-bit word for n = 4
/// assert_eq!(bits_per_element(9), 4);  // 36-bit word for n = 9
/// ```
#[inline]
pub fn bits_per_element(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_element_matches_paper() {
        // The paper: "each word has n log2(n) bits, which is 36 for n = 9".
        assert_eq!(9 * bits_per_element(9), 36);
        assert_eq!(bits_per_element(1), 1);
        assert_eq!(bits_per_element(2), 1);
        assert_eq!(bits_per_element(3), 2);
        assert_eq!(bits_per_element(8), 3);
        assert_eq!(bits_per_element(16), 4);
        assert_eq!(bits_per_element(17), 5);
    }
}
