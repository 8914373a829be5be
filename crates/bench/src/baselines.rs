//! Baselines and ablations: the intro's naive generator, the sorting
//! network demonstration, and the parallel-generation scaling table.

use crate::with_commas;
use hwperm_bignum::Ubig;
use hwperm_circuits::SortingNetwork;
use hwperm_core::parallel_count;
use hwperm_factoradic::{factorials_u64, unrank_u64};
use hwperm_perm::{bits_per_element, Permutation};
use std::fmt::Write as _;
use std::time::Instant;

/// The intro's strawman: "generate all n·⌈log₂n⌉-bit binary numbers, one
/// per clock, discarding those that are not permutations. However, this
/// produces permutations at a rate that is much slower than one
/// permutation per clock." Enumerates all words and counts the yield.
pub fn naive_baseline() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Intro baseline — enumerate-and-discard vs direct conversion"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>14}  {:>10}  {:>14}  {:>14}",
        "n", "words scanned", "perms", "yield", "clocks/perm"
    )
    .unwrap();
    for n in 2..=6usize {
        let bits = n * bits_per_element(n);
        let words = 1u64 << bits;
        let mut perms = 0u64;
        for w in 0..words {
            if Permutation::unpack(n, &Ubig::from(w)).is_ok() {
                perms += 1;
            }
        }
        assert_eq!(perms, factorials_u64(n)[n]);
        writeln!(
            out,
            "{:>3}  {:>14}  {:>10}  {:>13.6}%  {:>14.1}",
            n,
            with_commas(words),
            with_commas(perms),
            100.0 * perms as f64 / words as f64,
            words as f64 / perms as f64
        )
        .unwrap();
    }
    writeln!(
        out,
        "(the converter emits 1 perm/clock; the naive scan needs 2^(n·⌈log₂n⌉)/n! clocks each)"
    )
    .unwrap();
    out
}

/// The conclusion's sorting-network demonstration.
pub fn sorter_demo() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Conclusion remark — converter datapath as a sorting network"
    )
    .unwrap();
    let mut sorter = SortingNetwork::new(8, 12);
    let inputs: [[u64; 8]; 3] = [
        [3000, 7, 512, 7, 0, 4095, 100, 99],
        [8, 7, 6, 5, 4, 3, 2, 1],
        [1, 1, 2, 2, 3, 3, 4, 4],
    ];
    for keys in inputs {
        let sorted = sorter.sort(&keys);
        writeln!(out, "  {keys:?} -> {sorted:?}").unwrap();
    }
    let report = sorter.report();
    writeln!(out, "  resources: {report}").unwrap();
    out
}

/// Parallel block-generation scaling: counts derangements of `n` over
/// `[0, n!)` with 1, 2, 4, 8 workers (the paper's parallel-machines
/// motivation as a software ablation).
pub fn parallel_scaling(n: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Parallel block generation — derangement count over all {n}! permutations"
    )
    .unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    writeln!(
        out,
        "(host exposes {cores} core(s); wall-clock speedup is bounded by that — the"
    )
    .unwrap();
    writeln!(
        out,
        " invariant checked here is that every split returns the identical count)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>8}  {:>12}  {:>10}  {:>8}",
        "workers", "count", "ms", "speedup"
    )
    .unwrap();
    let mut base_ms = None;
    for workers in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let count = parallel_count(n, workers, |p| p.is_derangement());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let base = *base_ms.get_or_insert(ms);
        writeln!(
            out,
            "{:>8}  {:>12}  {:>10.1}  {:>7.2}x",
            workers,
            with_commas(count),
            ms,
            base / ms
        )
        .unwrap();
    }
    out
}

/// Correctness spot check exposed to the binary: the converter's whole
/// n = 4 table against software, printed as confirmation.
pub fn verify_all() -> String {
    let mut out = String::new();
    let mut conv = hwperm_circuits::IndexToPermConverter::new(4);
    let mut ok = true;
    for i in 0..24u64 {
        ok &= conv.convert_u64(i) == unrank_u64(4, i);
    }
    writeln!(
        out,
        "cross-check: netlist vs software over all 24 permutations of n=4 → {}",
        if ok { "MATCH" } else { "MISMATCH" }
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_baseline_counts_are_exact() {
        let text = naive_baseline();
        assert!(text.contains("24"), "n=4 yields 24 perms");
        assert!(text.contains("720"), "n=6 yields 720 perms");
    }

    #[test]
    fn sorter_demo_shows_sorted_output() {
        let text = sorter_demo();
        assert!(text.contains("[1, 2, 3, 4, 5, 6, 7, 8]"));
        assert!(text.contains("[0, 7, 7, 99, 100, 512, 3000, 4095]"));
    }

    #[test]
    fn parallel_scaling_counts_match() {
        let text = parallel_scaling(7);
        // d_7 = 1854.
        assert_eq!(text.matches("1,854").count(), 4, "{text}");
    }

    #[test]
    fn verify_all_matches() {
        assert!(verify_all().contains("MATCH"));
    }
}
