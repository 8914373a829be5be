//! Parallel block generation over the index space.
//!
//! The paper's converter exists so "parallel machines interact through a
//! shared memory" can each derive their own permutations. The software
//! analogue: split `[0, n!)` into contiguous per-worker blocks
//! ([`hwperm_factoradic::fan_out`]), unrank each block's start once
//! (`O(n²)`), then walk lexicographic successors (`O(n)` amortized).
//! Workers share nothing but the final reduction.

use hwperm_bignum::Ubig;
use hwperm_factoradic::{factorials_u64, fan_out, IndexedPermutations};
use hwperm_perm::Permutation;

/// Counts permutations of `n` elements satisfying `predicate`, fanned
/// out over `workers` threads.
///
/// # Panics
/// Panics if `workers == 0` or `n > 20` (21! exceeds 64 bits).
pub fn parallel_count<F>(n: usize, workers: usize, predicate: F) -> u64
where
    F: Fn(&Permutation) -> bool + Sync,
{
    parallel_reduce(
        n,
        workers,
        |block| block.filter(|(_, p)| predicate(p)).count() as u64,
        0u64,
        |a, b| a + b,
    )
}

/// General fork–join reduction: `[0, n!)` is split into `workers`
/// contiguous, ascending blocks, `map` runs once per block (block 0 on
/// the calling thread), and the results are folded with `combine` in
/// block order.
///
/// # Panics
/// Panics if `workers == 0` or `n > 20` (21! exceeds 64 bits); a
/// panicking block's payload is resumed on the caller.
pub fn parallel_reduce<T, M, C>(n: usize, workers: usize, map: M, init: T, combine: C) -> T
where
    T: Send,
    M: Fn(IndexedPermutations) -> T + Sync,
    C: Fn(T, T) -> T,
{
    assert!(n <= 20, "n = {n} is past 20: {n}! exceeds 64 bits");
    let total = usize::try_from(factorials_u64(n)[n]).expect("n! fits in usize");
    fan_out(total, workers, |block| {
        map(IndexedPermutations::new(
            n,
            Ubig::from(block.start as u64),
            Ubig::from(block.end as u64),
        ))
    })
    .into_iter()
    .fold(init, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_count_matches_serial_derangements() {
        // Known: d_3 = 2 and d_6 = 265 derangements. Eight workers over
        // the 6 permutations of S_3 leave two blocks empty.
        for (n, derangements) in [(3usize, 2u64), (6, 265)] {
            let serial = IndexedPermutations::all(n)
                .filter(|(_, p)| p.is_derangement())
                .count() as u64;
            assert_eq!(serial, derangements);
            for workers in [1usize, 2, 3, 8] {
                assert_eq!(
                    parallel_count(n, workers, |p| p.is_derangement()),
                    derangements,
                    "n = {n}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_reduce_collects_extremes() {
        // Max inversions over all of S_5 must be 10 regardless of split.
        let max_inv = parallel_reduce(
            5,
            3,
            |block| block.map(|(_, p)| p.inversions()).max().unwrap_or(0),
            0,
            u64::max,
        );
        assert_eq!(max_inv, 10);
    }

    #[test]
    fn parallel_reduce_blocks_are_contiguous_and_ordered() {
        // Each block reports the indices it walked; folded in block
        // order they must be the balanced shards of 0, 1, …, n! − 1.
        for n in 1..=5usize {
            let total = factorials_u64(n)[n] as usize;
            for workers in 1..=9usize {
                let blocks = parallel_reduce(
                    n,
                    workers,
                    |block| vec![block.map(|(i, _)| i.to_u64().unwrap() as usize).collect()],
                    Vec::new(),
                    |mut acc: Vec<Vec<usize>>, block| {
                        acc.extend(block);
                        acc
                    },
                );
                let want: Vec<Vec<usize>> = hwperm_factoradic::shard_ranges(total, workers)
                    .into_iter()
                    .map(|shard| shard.collect())
                    .collect();
                assert_eq!(blocks, want, "n = {n} x {workers}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "n = 21 is past 20")]
    fn n_past_20_rejected() {
        parallel_count(21, 2, |_| true);
    }
}
