#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The factorial number system (Section II of the paper) and the
//! rank/unrank maps it induces between indices and permutations.
//!
//! Every integer `N < n!` has a unique representation
//!
//! ```text
//! N = s_{n−1}·(n−1)! + s_{n−2}·(n−2)! + … + s_1·1! + s_0·0!,   0 ≤ s_i ≤ i
//! ```
//!
//! (`s_0` is always 0 and is retained as a placeholder, exactly as in the
//! paper). The digit vector `s_{n−1} … s_0`, read most-significant first,
//! is the Lehmer code of the `N`-th permutation in lexicographic order —
//! Table I of the paper lists all 24 for `n = 4`.
//!
//! Two digit-extraction algorithms are provided:
//! - [`digits::to_digits`] — conventional div/mod (what the paper's C
//!   baseline computes);
//! - [`digits::to_digits_greedy`] — the paper's *hardware* algorithm:
//!   greedy comparison against multiples `i·(r−1)!` followed by a single
//!   subtraction per stage, no division anywhere. This is the exact
//!   dataflow of the Fig. 1 circuit and is differentially tested against
//!   the div/mod form.
//!
//! On top of the digits sit [`rank()`](rank::rank)/[`unrank()`](rank::unrank) (permutations),
//! [`combinadic`] (the companion paper's index → constant-weight-codeword
//! conversion), and [`iter::IndexedPermutations`] for streaming blocks.
//! [`shard`] splits index ranges (or any work) across threads, either
//! into contiguous ordered blocks or through a shared work cursor.
//!
//! ```
//! use hwperm_factoradic::{unrank_u64, rank};
//!
//! // Table I, N = 11: digits 1 2 1 0, permutation 1 3 2 0.
//! let p = unrank_u64(4, 11);
//! assert_eq!(p.as_slice(), &[1, 3, 2, 0]);
//! assert_eq!(rank(&p).to_u64(), Some(11));
//! ```

pub mod block;
pub mod combinadic;
pub mod digits;
pub mod iter;
pub mod rank;
pub mod shard;
pub mod variations;

pub use block::BlockDecoder;
pub use combinadic::{binomial, rank_combination, to_codeword, unrank_combination};
pub use digits::{
    factorials_u64, from_digits, from_digits_u64, to_digits, to_digits_greedy, to_digits_u64,
};
pub use iter::IndexedPermutations;
pub use rank::{rank, rank_u64, try_unrank, unrank, unrank_u64, Unranker};
pub use shard::{fan_out, pull, shard_ranges};
pub use variations::{falling_factorial, rank_variation, unrank_variation};
