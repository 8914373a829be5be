//! Software-oracle table generation for the differential sweeps.
//!
//! Every exhaustive check in this crate compares the netlist against an
//! expectation table — element `i` is the packed word of the
//! permutation at factoradic index `i`. The gate-level side is fast
//! (lanes × threads); this module makes the *software* side match:
//! tables are produced by the block-decoding engine
//! ([`BlockDecoder`] — one true unranking per block, in-place
//! lexicographic successor stepping for the rest) instead of a full
//! factoradic decode per index, and can be sharded across worker
//! threads.
//!
//! **Determinism argument for the sharded path:** the table is a pure
//! function of `n` — entry `i` depends only on `i`. Shards are
//! contiguous, ascending index ranges ([`crate::shard_ranges`], the
//! same balanced split as `hwperm_core::ParallelPlan` and the sweeps'
//! batch shards); each worker decodes its range independently (base
//! unranked once, successors after), and the reduction concatenates
//! the per-shard vectors in shard order. Every index lands in exactly
//! one shard at its original offset order, so the output is
//! byte-identical to the sequential table for *every* worker count —
//! asserted by the `oracle_parity` test suite. The repository benchmark
//! times the n = 9 table as `factoradic.table_ms`, inside `verify_ms`
//! on its `computed` workload (see `benchmark/README.md`).

use crate::parallel::fan_out;
use hwperm_factoradic::BlockDecoder;

fn check_supported_n(n: usize) {
    assert!((1..=9).contains(&n), "n = {n} out of the supported 1..=9");
}

/// The expectation table for the Fig. 1 converter: element `i` is the
/// packed word of the permutation at factoradic index `i`, for every
/// `i` in `[0, n!)`.
///
/// Generated by block decoding: the whole table costs one true
/// unranking plus `n! − 1` in-place lexicographic successor steps,
/// instead of a factoradic decode (and a heap allocation) per index.
///
/// # Panics
/// Panics if `n` is 0 or large enough that the table or the packed word
/// would not fit (`n > 9` — 9! = 362 880 entries is already far past
/// every circuit this workspace generates).
pub fn expected_permutation_words(n: usize) -> Vec<u64> {
    check_supported_n(n);
    let mut decoder = BlockDecoder::new(n);
    let total = decoder.total();
    let mut out = Vec::with_capacity(total as usize);
    decoder.decode_words_into(0..total, &mut out);
    out
}

/// Sharded [`expected_permutation_words`]: splits `[0, n!)` into
/// `workers` contiguous balanced blocks, block-decodes each on its own
/// worker (the first on the calling thread), and concatenates in shard
/// order. Byte-identical to the sequential table for every worker count
/// (see the module docs for the determinism argument).
///
/// # Panics
/// Panics if `workers == 0` or `n` is outside the supported `1..=9`.
pub fn expected_permutation_words_parallel(n: usize, workers: usize) -> Vec<u64> {
    check_supported_n(n);
    let total = BlockDecoder::new(n).total();
    let mut out = Vec::with_capacity(total as usize);
    for chunk in fan_out(total as usize, workers, |shard| {
        BlockDecoder::new(n).decode_words(shard.start as u64..shard.end as u64)
    }) {
        out.extend_from_slice(&chunk);
    }
    out
}

/// The expectation table for the index → combination converter:
/// element `i` is the `n`-bit codeword (bit `n−1−c` ⟺ element `c`
/// chosen, matching `hwperm_factoradic::to_codeword` and the netlist's
/// `codeword` port) of the `i`-th `k`-combination.
///
/// # Panics
/// Panics if `k > n`, `n > 9`, or `n` is 0.
pub fn expected_combination_words(n: usize, k: usize) -> Vec<u64> {
    check_supported_n(n);
    assert!(k <= n, "k = {k} exceeds n = {n}");
    let total = hwperm_factoradic::binomial(n as u64, k as u64)
        .to_u64()
        .expect("C(n, k) fits u64 for n <= 9");
    (0..total)
        .map(|i| {
            let elems = hwperm_factoradic::unrank_combination(n, k, &hwperm_bignum::Ubig::from(i));
            hwperm_factoradic::to_codeword(n, &elems)
                .to_u64()
                .expect("n-bit codeword fits u64")
        })
        .collect()
}

/// The expectation table for the index → variation converter: element
/// `i` is the packed word of the `i`-th ordered `k`-selection from
/// `{0..n−1}` (position 0 in the most significant field, matching the
/// netlist's `out` port).
///
/// # Panics
/// Panics if `k > n`, `n > 9`, or `n` is 0.
pub fn expected_variation_words(n: usize, k: usize) -> Vec<u64> {
    check_supported_n(n);
    assert!(k <= n, "k = {k} exceeds n = {n}");
    let bits = hwperm_perm::bits_per_element(n);
    let total = hwperm_factoradic::falling_factorial(n as u64, k as u64)
        .to_u64()
        .expect("n!/(n-k)! fits u64 for n <= 9");
    (0..total)
        .map(|i| {
            let elems = hwperm_factoradic::unrank_variation(n, k, &hwperm_bignum::Ubig::from(i));
            elems.iter().enumerate().fold(0u64, |acc, (p, &e)| {
                acc | ((e as u64) << ((k - 1 - p) * bits))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_factoradic::unrank_u64;

    #[test]
    fn expected_words_match_identity_at_index_zero() {
        // Index 0 unranks to the identity permutation.
        let words = expected_permutation_words(4);
        assert_eq!(words.len(), 24);
        let identity = unrank_u64(4, 0).pack().to_u64().unwrap();
        assert_eq!(words[0], identity);
        // All 24 words are distinct (a converter that collapses two
        // indices would be caught by *some* entry).
        let set: std::collections::HashSet<u64> = words.iter().copied().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn parallel_table_identical_for_small_n() {
        let sequential = expected_permutation_words(5);
        for workers in [1usize, 2, 3, 8, 130] {
            assert_eq!(
                expected_permutation_words_parallel(5, workers),
                sequential,
                "workers = {workers}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of the supported 1..=9")]
    fn oversized_n_rejected() {
        expected_permutation_words(10);
    }

    #[test]
    fn combination_and_variation_tables_match_circuit_sweeps() {
        use hwperm_circuits::{IndexToCombinationConverter, IndexToVariationConverter};
        let expect = expected_combination_words(5, 2);
        assert_eq!(expect.len(), 10);
        let nl = IndexToCombinationConverter::new(5, 2).netlist().clone();
        let golden = crate::golden_output_words(&nl, "index", "codeword");
        assert_eq!(&golden[..expect.len()], &expect[..]);

        let expect = expected_variation_words(5, 3);
        assert_eq!(expect.len(), 60);
        let nl = IndexToVariationConverter::new(5, 3).netlist().clone();
        let golden = crate::golden_output_words(&nl, "index", "out");
        assert_eq!(&golden[..expect.len()], &expect[..]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        expected_permutation_words_parallel(4, 0);
    }
}
