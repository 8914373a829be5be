//! Figures 1–4 and the Section III experiments.

use crate::with_commas;
use hwperm_circuits::{
    converter_comparator_count, converter_netlist, shuffle_crossover_count, shuffle_netlist,
    ConverterOptions, KnuthShuffleCircuit, KnuthShuffleModel, ShuffleOptions,
};
use hwperm_core::{chi_square_uniform, derangement_experiment, fig4_histogram, RandomPermSource};
use hwperm_perm::Permutation;
use hwperm_rng::BiasReport;
use std::fmt::Write as _;

/// Fig. 1: structural description of the converter for a given `n`.
pub fn fig1(n: usize) -> String {
    let nl = converter_netlist(n, ConverterOptions::default());
    let mut out = String::new();
    writeln!(out, "Fig. 1 — index to permutation converter, n = {n}").unwrap();
    writeln!(out, "  stages: {n} (one per output position)").unwrap();
    writeln!(
        out,
        "  constant comparators: {} (= n(n-1)/2, the paper's O(n²) count)",
        converter_comparator_count(n)
    )
    .unwrap();
    writeln!(
        out,
        "  index input: {} bits (⌈log₂ {n}!⌉); output word: {} bits",
        nl.input_port("index").unwrap().nets.len(),
        nl.output_port("perm").unwrap().nets.len()
    )
    .unwrap();
    writeln!(out, "  {nl}").unwrap();
    out
}

/// Fig. 3: structural description of the Knuth shuffle circuit.
pub fn fig3(n: usize) -> String {
    let opts = ShuffleOptions {
        lfsr_width: 31,
        pipelined: false,
        seed: 1,
    };
    let nl = shuffle_netlist(n, opts);
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 3 — Knuth shuffle random permutation generator, n = {n}"
    )
    .unwrap();
    writeln!(out, "  stages: {} (one crossover per position)", n - 1).unwrap();
    writeln!(
        out,
        "  crossover choices: {} (= n(n-1)/2, identical to the converter)",
        shuffle_crossover_count(n)
    )
    .unwrap();
    writeln!(
        out,
        "  per-stage RNG: 31-bit LFSR + shift-add multiplier (Fig. 2 block)"
    )
    .unwrap();
    writeln!(out, "  {nl}").unwrap();
    out
}

/// Section III.A: the pigeonhole bias of the Fig. 2 random-integer block.
pub fn bias() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 2 / Section III.A — random-integer bias (k = 24 outputs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>12} {:>12}  {:>10}  {:>14}",
        "m", "min count", "max count", "max/min", "difference %"
    )
    .unwrap();
    for m in [5usize, 8, 12, 16, 23, 31] {
        let r = BiasReport::analytic(m, 24);
        writeln!(
            out,
            "{:>3}  {:>12} {:>12}  {:>10.6}  {:>14.8}",
            m,
            with_commas(r.min_count),
            with_commas(r.max_count),
            r.probability_ratio(),
            r.difference_percent()
        )
        .unwrap();
    }
    let r5 = BiasReport::analytic(5, 24);
    writeln!(
        out,
        "paper check: m = 5 → {} outputs occur twice, {} once (paper: 7 and 17)",
        r5.outputs_at_max(),
        r5.counts.iter().filter(|&&c| c == 1).count()
    )
    .unwrap();
    out
}

/// Fig. 4: distribution of random 4-element permutations from the Knuth
/// shuffle circuit. `samples` defaults to the paper's 2²⁰ in the binary.
pub fn fig4(samples: u64, use_netlist: bool) -> String {
    let opts = ShuffleOptions {
        lfsr_width: 31,
        pipelined: false,
        seed: 0xF164,
    };
    let mut source: Box<dyn RandomPermSource> = if use_netlist {
        Box::new(NetlistShuffle(KnuthShuffleCircuit::with_options(4, opts)))
    } else {
        Box::new(MirrorShuffle(KnuthShuffleModel::with_options(4, opts)))
    };
    let hist = fig4_histogram(source.as_mut(), samples);
    let counts: Vec<u64> = hist.values().copied().collect();
    let chi2 = chi_square_uniform(&counts);
    let expected = samples as f64 / 24.0;

    let mut out = String::new();
    writeln!(
        out,
        "Fig. 4 — distribution of {} random 4-element permutations ({})",
        with_commas(samples),
        if use_netlist {
            "gate-level netlist"
        } else {
            "bit-exact circuit mirror"
        }
    )
    .unwrap();
    writeln!(out, "{:>5}  {:^6}  {:>9}  bar", "value", "perm", "count").unwrap();
    let max = counts.iter().copied().max().unwrap_or(1);
    for (&word, &count) in &hist {
        let perm = Permutation::unpack(4, &hwperm_bignum::Ubig::from(word)).unwrap();
        let perm_str: String = perm.as_slice().iter().map(|e| e.to_string()).collect();
        let bar_len = (count * 50 / max) as usize;
        writeln!(
            out,
            "{:>5}  {:^6}  {:>9}  {}",
            word,
            perm_str,
            with_commas(count),
            "#".repeat(bar_len)
        )
        .unwrap();
    }
    writeln!(
        out,
        "chi² = {chi2:.1} over 23 dof (95th pct = 35.2); expected per bar = {expected:.0}"
    )
    .unwrap();
    writeln!(out, "(paper reports ≈43,400–43,900 per bar at 2²⁰ samples)").unwrap();
    out
}

/// Section III.C: the derangement experiment for n = 4, 8, 16
/// (gate-level netlist for n ≤ 8, bit-exact mirror for n = 16 when
/// `use_netlist_for_n4` is set; mirror everywhere otherwise).
pub fn derangements(samples: u64, use_netlist_for_n4: bool) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Section III.C — estimating e from derangement counts ({} samples each)",
        with_commas(samples)
    )
    .unwrap();
    writeln!(
        out,
        "{:>3}  {:>12}  {:>10}  {:>8}  {:>8}",
        "n", "derangement", "e est.", "error", "source"
    )
    .unwrap();
    for n in [4usize, 8, 16] {
        let opts = ShuffleOptions {
            lfsr_width: 31,
            pipelined: false,
            seed: 0xDE7A + n as u64,
        };
        let netlist = use_netlist_for_n4 && n <= 8;
        let mut source: Box<dyn RandomPermSource> = if netlist {
            Box::new(NetlistShuffle(KnuthShuffleCircuit::with_options(n, opts)))
        } else {
            Box::new(MirrorShuffle(KnuthShuffleModel::with_options(n, opts)))
        };
        let result = derangement_experiment(source.as_mut(), samples);
        writeln!(
            out,
            "{:>3}  {:>12}  {:>10.4}  {:>7.3}%  {:>8}",
            n,
            with_commas(result.derangements),
            result.e_estimate,
            100.0 * (result.e_estimate - std::f64::consts::E).abs() / std::f64::consts::E,
            if netlist { "netlist" } else { "mirror" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: e ≈ 2.7185 at n = 4, 2.7177 at n = 8, 2.7187 at n = 16 — our mirror is the"
    )
    .unwrap();
    writeln!(
        out,
        " same sequence the netlist produces; equivalence is proven in the test suite)"
    )
    .unwrap();
    out
}

/// Adapter: circuit as a [`RandomPermSource`].
struct NetlistShuffle(KnuthShuffleCircuit);

impl RandomPermSource for NetlistShuffle {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_permutation(&mut self) -> Permutation {
        self.0.next_permutation()
    }
}

/// Adapter: bit-exact software mirror as a [`RandomPermSource`].
struct MirrorShuffle(KnuthShuffleModel);

impl RandomPermSource for MirrorShuffle {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_permutation(&mut self) -> Permutation {
        self.0.next_permutation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reports_structure() {
        let text = fig1(4);
        assert!(text.contains("stages: 4"));
        assert!(text.contains("comparators: 6"));
        assert!(text.contains("5 bits"), "{text}");
    }

    #[test]
    fn fig3_reports_structure() {
        let text = fig3(4);
        assert!(text.contains("stages: 3"));
        assert!(text.contains("crossover choices: 6"));
    }

    #[test]
    fn bias_table_matches_paper_example() {
        let text = bias();
        assert!(text.contains("7 outputs occur twice, 17 once"));
    }

    #[test]
    fn fig4_small_run_is_uniformish() {
        let text = fig4(12_000, false);
        assert!(text.contains("chi²"));
        // All 24 bars present.
        assert!(text.contains('#'));
        assert!(text.contains("0123"));
        assert!(text.contains("3210"));
    }

    #[test]
    fn fig4_netlist_and_mirror_agree() {
        let a = fig4(500, true);
        let b = fig4(500, false);
        // Same counts, different header line.
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn derangements_small_run() {
        let text = derangements(4_000, false);
        assert!(text.contains("n"), "{text}");
        // e estimates in a plausible band.
        for line in text.lines().skip(2).take(3) {
            let e: f64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
            assert!((2.3..=3.2).contains(&e), "{line}");
        }
    }
}
