//! Exhaustive combinatorial search over the index space: brute-force
//! TSP by scanning permutations in disjoint index blocks across worker
//! threads — the "parallel machines" pattern the paper's converter
//! exists to feed (each worker derives its own permutations from a
//! private index range; no shared state).
//!
//! ```text
//! cargo run --release --example tsp_search
//! ```

use hwperm_core::parallel_reduce;
use hwperm_perm::Permutation;
use hwperm_rng::XorShift64Star;

/// Tour length for city order `perm` on a distance matrix (closed tour
/// fixing city 0 as the depot; `perm` orders the remaining cities).
fn tour_length(dist: &[Vec<u32>], perm: &Permutation) -> u64 {
    let mut total = 0u64;
    let mut prev = 0usize; // depot
    for &c in perm.as_slice() {
        let city = c as usize + 1;
        total += dist[prev][city] as u64;
        prev = city;
    }
    total + dist[prev][0] as u64
}

fn main() {
    // 10 cities (9! = 362,880 tours with the depot fixed).
    let cities = 10usize;
    let mut rng = XorShift64Star::new(2026);
    let coords: Vec<(f64, f64)> = (0..cities)
        .map(|_| (rng.below(1000) as f64, rng.below(1000) as f64))
        .collect();
    let dist: Vec<Vec<u32>> = (0..cities)
        .map(|i| {
            (0..cities)
                .map(|j| {
                    let dx = coords[i].0 - coords[j].0;
                    let dy = coords[i].1 - coords[j].1;
                    (dx * dx + dy * dy).sqrt().round() as u32
                })
                .collect()
        })
        .collect();

    let free = cities - 1;
    let workers = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .max(2);
    println!("brute-force TSP over {free}! = 362,880 tours, {workers} workers");

    let start = std::time::Instant::now();
    let best = parallel_reduce(
        free,
        workers,
        |block| {
            let mut best: Option<(u64, Permutation)> = None;
            for (_, perm) in block {
                let len = tour_length(&dist, &perm);
                if best.as_ref().is_none_or(|(b, _)| len < *b) {
                    best = Some((len, perm));
                }
            }
            best
        },
        None,
        |a, b| match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
        },
    )
    .expect("at least one tour");
    let elapsed = start.elapsed();

    let (length, tour) = best;
    println!("optimal tour length: {length}");
    // The tour orders the free cities 1..cities, stored 0-based.
    let order: Vec<String> = tour
        .as_slice()
        .iter()
        .map(|&c| (c + 1).to_string())
        .collect();
    println!("city order: 0 -> {} -> 0", order.join(" "));
    println!(
        "searched in {:.2?} ({:.0} tours/s)",
        elapsed,
        362_880.0 / elapsed.as_secs_f64()
    );

    // Sanity: a random tour is worse (or equal) — brute force found a
    // certified optimum because the index space was covered exactly.
    let random_len = tour_length(&dist, &hwperm_perm::shuffle::knuth_shuffle(free, &mut rng));
    println!("a random tour for comparison: {random_len}");
    assert!(length <= random_len);
}
