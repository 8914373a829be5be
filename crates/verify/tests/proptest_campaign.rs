//! Property tests for the stuck-at campaign engine: the per-fault
//! verdict list must be byte-identical no matter how the fault
//! universe is sharded across workers. Verdicts are a pure function of
//! (netlist, fault, expectation), so 1, 2, 3, and 8 workers — and the
//! scalar reference path — must all agree on every registered circuit
//! family a campaign can sweep.

use hwperm_circuits::{converter_netlist, families, sweep_ports, ConverterOptions};
use hwperm_perm::packed_is_permutation_u64;
use hwperm_verify::{
    expected_permutation_words, golden_output_words, stuck_at_campaign_scalar,
    stuck_at_campaign_wide,
};
use proptest::prelude::*;

proptest! {
    // Each case runs five full campaigns at four worker counts plus
    // the scalar reference; small case counts already sweep hundreds
    // of faults per family.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign verdicts are identical across 1, 2, 3, and 8 workers
    /// for every family with sweep ports (purely combinational, one
    /// input and one output port — sequential families are excluded
    /// because a campaign exhaustively enumerates the input space of a
    /// stateless tape), and match the scalar one-fault-at-a-time
    /// reference engine.
    #[test]
    fn verdicts_identical_across_worker_counts(n in 2usize..=4) {
        for family in families() {
            let netlist = (family.build)(n);
            let Some((input, output)) = sweep_ports(&netlist) else {
                continue;
            };
            let family = family.name;
            let expected = golden_output_words(&netlist, input, output);
            let baseline =
                stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, None, 1);
            for workers in [2usize, 3, 8] {
                let report =
                    stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, None, workers);
                prop_assert_eq!(
                    &report.verdicts,
                    &baseline.verdicts,
                    "{} verdicts differ between 1 and {} workers",
                    family,
                    workers
                );
            }
            let scalar = stuck_at_campaign_scalar(&netlist, input, output, &expected, None);
            prop_assert_eq!(
                &scalar.verdicts,
                &baseline.verdicts,
                "{} scalar engine disagrees with the batched engine",
                family
            );
        }
    }

    /// With the permutation-validity predicate in play (the converter's
    /// silent-fault classification), sharding still must not change a
    /// single verdict: silent witnesses are defined as lowest-index,
    /// independent of chunk boundaries.
    #[test]
    fn converter_predicate_verdicts_shard_invariant(n in 2usize..=5) {
        let netlist = converter_netlist(n, ConverterOptions::default());
        let (input, output) = ("index", "perm");
        let expected = expected_permutation_words(n);
        let valid = move |word: u64| packed_is_permutation_u64(n, word);
        let baseline = stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, Some(&valid), 1);
        for workers in [2usize, 3, 8] {
            let report =
                stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, Some(&valid), workers);
            prop_assert_eq!(
                &report.verdicts,
                &baseline.verdicts,
                "predicate verdicts differ between 1 and {} workers",
                workers
            );
        }
        let scalar =
            stuck_at_campaign_scalar(&netlist, input, output, &expected, Some(&valid));
        prop_assert_eq!(
            &scalar.verdicts,
            &baseline.verdicts,
            "scalar predicate engine disagrees with the batched engine"
        );
    }
}
