//! Monte-Carlo estimation of the matrix permanent with the random
//! permutation generators — the "useful in Monte Carlo simulations"
//! claim of Section III exercised on a genuinely #P-hard quantity.
//!
//! For an `n×n` matrix `A`,
//! `perm(A) = Σ_π Π_i A[i, π(i)] = n! · E_π[ Π_i A[i, π(i)] ]`
//! over uniformly random permutations π, so sampling π with the Knuth
//! shuffle gives an unbiased estimator. The exact value (via Ryser's
//! formula, O(2^n·n)) validates it.
//!
//! ```text
//! cargo run --release --example permanent_estimate
//! ```

use hwperm_circuits::{KnuthShuffleModel, ShuffleOptions};
use hwperm_factoradic::IndexedPermutations;
use hwperm_rng::XorShift64Star;

/// Exact permanent by Ryser's inclusion–exclusion formula.
fn permanent_ryser(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    let mut total = 0.0f64;
    for subset in 1u32..(1 << n) {
        let mut prod = 1.0;
        for row in a {
            let mut sum = 0.0;
            for (j, &v) in row.iter().enumerate() {
                if (subset >> j) & 1 == 1 {
                    sum += v;
                }
            }
            prod *= sum;
        }
        let sign = if (n as u32 - subset.count_ones()).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        total += sign * prod;
    }
    total
}

/// Exact permanent by brute-force enumeration (cross-check for Ryser).
fn permanent_enumerate(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    IndexedPermutations::all(n)
        .map(|(_, p)| (0..n).map(|i| a[i][p.at(i) as usize]).product::<f64>())
        .sum()
}

fn main() {
    let n = 9usize;
    // Random 0/1-ish matrix with some structure.
    let mut rng = XorShift64Star::new(77);
    let a: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| (rng.below(4) != 0) as u64 as f64).collect())
        .collect();

    let exact_ryser = permanent_ryser(&a);
    let exact_enum = permanent_enumerate(&a);
    assert!(
        (exact_ryser - exact_enum).abs() < 1e-6 * exact_enum.abs().max(1.0),
        "Ryser and enumeration disagree: {exact_ryser} vs {exact_enum}"
    );
    println!("exact permanent (Ryser, cross-checked by full enumeration): {exact_ryser}");

    // Monte Carlo with the hardware-faithful shuffle mirror.
    let nfact: f64 = (1..=n as u64).map(|x| x as f64).product();
    let mut shuffle = KnuthShuffleModel::with_options(
        n,
        ShuffleOptions {
            lfsr_width: 31,
            pipelined: false,
            seed: 0xACC,
        },
    );
    println!("\nMonte-Carlo estimates (Knuth-shuffle generator, circuit-exact sequence):");
    for &samples in &[1_000u64, 10_000, 100_000, 1_000_000] {
        let mut acc = 0.0f64;
        for _ in 0..samples {
            let p = shuffle.next_permutation();
            acc += (0..n).map(|i| a[i][p.at(i) as usize]).product::<f64>();
        }
        let estimate = nfact * acc / samples as f64;
        println!(
            "  {samples:>9} samples: {estimate:>14.0}  (error {:>6.2}%)",
            100.0 * (estimate - exact_ryser).abs() / exact_ryser
        );
    }
    println!("\nthe estimator converges to the exact #P-hard value — one permutation");
    println!("per clock is precisely what such samplers consume.");
}
