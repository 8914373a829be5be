//! Splitting work across threads.
//!
//! Every sharded job in the workspace takes one of two shapes:
//!
//! - **Contiguous ordered shards** ([`shard_ranges`], [`fan_out`]): the
//!   item range is cut into one balanced, ascending block per worker.
//!   This is the split the paper's converter exists for — parallel
//!   machines sharing a memory each turn a private index range into
//!   permutations, and [`BlockDecoder`](crate::BlockDecoder) and
//!   [`IndexedPermutations`](crate::IndexedPermutations) make it cheap:
//!   one true unranking at the block's first index, then lexicographic
//!   successors. Because blocks ascend, "the first result in shard
//!   order" is "the result for the lowest index", which is what makes
//!   sharded sweeps report the same witness at every worker count.
//! - **A shared work cursor** ([`pull`]): workers take the next
//!   unclaimed item off one counter, so items of very uneven cost (store
//!   chunks racing disk writes, proof obligations whose solve times
//!   differ by orders of magnitude) balance themselves.
//!
//! Both run worker 0 on the calling thread and the rest on scoped
//! threads, return results in order, and resume a panicking worker's
//! payload on the caller unchanged. One worker therefore spawns no
//! thread and is exactly the sequential loop.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Splits `items` into `workers` contiguous, ascending ranges whose
/// sizes differ by at most one (the remainder spread over the leading
/// ranges). Ranges beyond the item count are empty.
///
/// Shard boundaries are part of the determinism contracts of the
/// components built on them (batched sweeps in `hwperm-verify`, block
/// serving in `hwperm-serve`).
///
/// # Panics
/// Panics if `workers == 0`.
pub fn shard_ranges(items: usize, workers: usize) -> Vec<Range<usize>> {
    assert!(workers >= 1, "need at least one worker");
    let per = items / workers;
    let rem = items % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut cursor = 0usize;
    for i in 0..workers {
        let len = per + usize::from(i < rem);
        shards.push(cursor..cursor + len);
        cursor += len;
    }
    shards
}

/// Runs `work` on every range of [`shard_ranges`]`(items, workers)` and
/// returns the results in shard order. Shard 0 runs on the calling
/// thread, the others on scoped threads.
///
/// # Panics
/// Panics if `workers == 0`; if a shard panics, the first panicking
/// shard's payload is resumed on the caller unchanged.
pub fn fan_out<T: Send>(
    items: usize,
    workers: usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let mut shards = shard_ranges(items, workers).into_iter();
    let first = shards.next().expect("one shard per worker");
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = shards
            .map(|shard| scope.spawn(move || work(shard)))
            .collect();
        let mut results = Vec::with_capacity(workers);
        results.push(work(first));
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        results
    })
}

/// Runs `work` on every item in `0..items` over at most `workers`
/// threads that each take the next unclaimed item off one shared
/// cursor, and returns the results in item order. Worker 0 runs on the
/// calling thread; no more workers start than there are items.
///
/// # Panics
/// Panics if `workers == 0`; if an item panics, its payload is resumed
/// on the caller unchanged.
pub fn pull<T: Send>(items: usize, workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let claim = || {
        // Relaxed: the cursor publishes no data; results travel back
        // through the thread joins.
        let item = next.fetch_add(1, Ordering::Relaxed);
        (item < items).then(|| (item, work(item)))
    };
    let workers = workers.min(items.max(1));
    let mut done: Vec<(usize, T)> = fan_out(workers, workers, |_| {
        std::iter::from_fn(&claim).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(item, _)| item);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Worker counts every primitive is pinned at: sequential (1), even
    /// splits (2, 8) and an odd count (3) whose remainder lands on the
    /// leading shards.
    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn shard_ranges_tile_and_balance() {
        for workers in 1..=9usize {
            for items in 0..=120usize {
                let shards = shard_ranges(items, workers);
                assert_eq!(shards.len(), workers);
                let (per, rem) = (items / workers, items % workers);
                let mut cursor = 0;
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.start, cursor, "{items} x {workers}: shard {i} contiguous");
                    assert_eq!(
                        s.len(),
                        per + usize::from(i < rem),
                        "{items} x {workers}: shard {i} size, remainder on the leading shards"
                    );
                    cursor = s.end;
                }
                assert_eq!(
                    cursor, items,
                    "{items} x {workers}: shards cover every item"
                );
            }
        }
    }

    #[test]
    fn fan_out_runs_shard_zero_on_the_caller_in_shard_order() {
        let caller = thread::current().id();
        for workers in WORKER_COUNTS {
            // 5 items leave 8 workers with empty trailing shards.
            for items in [0usize, 5, 64] {
                let results = fan_out(items, workers, |shard| (shard, thread::current().id()));
                let shards: Vec<Range<usize>> = results.iter().map(|(s, _)| s.clone()).collect();
                assert_eq!(shards, shard_ranges(items, workers), "{items} x {workers}");
                assert_eq!(results[0].1, caller, "shard 0 runs on the calling thread");
                assert!(
                    results[1..].iter().all(|(_, id)| *id != caller),
                    "{items} x {workers}: later shards run on spawned threads"
                );
            }
        }
    }

    #[test]
    fn fan_out_resumes_the_panicking_shards_own_payload() {
        // Shard 0 panics on the caller; a later shard panics on its own
        // thread. Either way the caller sees that shard's message.
        for (workers, bad) in [(1usize, 0usize), (2, 1), (3, 0), (3, 2), (8, 5)] {
            let payload = std::panic::catch_unwind(|| {
                fan_out(workers, workers, |shard| {
                    if shard.start == bad {
                        panic!("shard {bad} of {workers} failed");
                    }
                })
            })
            .unwrap_err();
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&format!("shard {bad} of {workers} failed"))
            );
        }
    }

    #[test]
    fn pull_returns_results_in_item_order() {
        for workers in WORKER_COUNTS {
            for items in [0usize, 1, 5, 64] {
                let results = pull(items, workers, |item| item * item);
                let want: Vec<usize> = (0..items).map(|item| item * item).collect();
                assert_eq!(results, want, "{items} items x {workers} workers");
            }
        }
    }

    #[test]
    fn pull_resumes_the_panicking_items_own_payload() {
        for (workers, items, bad) in [(1usize, 3usize, 0usize), (2, 4, 3), (3, 9, 4), (8, 3, 2)] {
            let payload = std::panic::catch_unwind(|| {
                pull(items, workers, |item| {
                    if item == bad {
                        panic!("item {bad} of {items} failed");
                    }
                })
            })
            .unwrap_err();
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&format!("item {bad} of {items} failed"))
            );
        }
    }
}
