//! Determinism parity of the sharded sweep against the scalar
//! reference, over the mutation suite.
//!
//! The deterministic-reporting guarantee in `hwperm_verify` says
//! [`exhaustive_check_parallel_wide`] returns *byte-identical* results
//! to the scalar reference sweep [`exhaustive_check_scalar`] at every
//! lane width and worker count. A clean netlist only exercises the `Ok`
//! side of that claim, so this suite drives the interesting side with
//! the same fault-injection population the circuits crate uses: every
//! fanin-preserving single-gate mutation of the Fig. 1 converter, each
//! checked for identical verdict AND identical first-mismatch witness
//! (index, port, got, want) at `u64`/`W256`/`W512` × 1, 2, 3 and 8
//! workers — plus the same parity for the one-hot bank sweep and a
//! property test over randomly corrupted expectation tables.

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{Gate, Netlist, W256, W512};
use hwperm_verify::{
    exhaustive_check_parallel_wide, exhaustive_check_scalar, expected_permutation_words,
    find_one_hot_violation_parallel, ExhaustiveMismatch,
};
use proptest::prelude::*;

/// Worker counts the parity claims are pinned at: sequential (1), even
/// splits (2, 8) and an odd count (3) whose remainder lands on the
/// leading shards.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

type Sweep = fn(&Netlist, &str, &str, &[u64], usize) -> Result<(), ExhaustiveMismatch>;

/// The lane widths the parity claims are pinned at.
const WIDTHS: [(&str, Sweep); 3] = [
    ("u64", exhaustive_check_parallel_wide::<u64>),
    ("W256", exhaustive_check_parallel_wide::<W256>),
    ("W512", exhaustive_check_parallel_wide::<W512>),
];

/// A gate with the same fanin but a different function, if one exists —
/// the same mutation operator as the circuits crate's fault-injection
/// suite. Fanin preservation keeps every mutant structurally valid
/// (defined-before-use), so the levelizing tape compiler accepts all of
/// them.
fn mutate(gate: Gate) -> Option<Gate> {
    match gate {
        Gate::And(a, b) => Some(Gate::Or(a, b)),
        Gate::Or(a, b) => Some(Gate::And(a, b)),
        Gate::Xor(a, b) => Some(Gate::Or(a, b)),
        Gate::Not(a) => Some(Gate::And(a, a)), // identity instead of inversion
        Gate::Mux { sel, a, b } => Some(Gate::Mux { sel, a: b, b: a }),
        Gate::Const(v) => Some(Gate::Const(!v)),
        Gate::Input | Gate::Dff { .. } => None,
    }
}

/// Every single-gate mutant of a netlist, tagged with the mutated gate
/// index. Dead gates are included: a mutation there must yield `Ok`
/// from every oracle, which is parity worth checking too.
fn mutants(netlist: &Netlist) -> Vec<(usize, Netlist)> {
    (0..netlist.len())
        .filter_map(|i| {
            let mutated = mutate(netlist.gates()[i])?;
            (mutated != netlist.gates()[i]).then(|| (i, netlist.with_gate_replaced(i, mutated)))
        })
        .collect()
}

#[test]
fn parallel_first_mismatch_matches_sequential_on_every_mutant() {
    let netlist = converter_netlist(4, ConverterOptions::default());
    let expected = expected_permutation_words(4);

    // Ok-side parity first: the pristine converter passes every sweep.
    for (width, sweep) in WIDTHS {
        for workers in WORKER_COUNTS {
            assert_eq!(
                sweep(&netlist, "index", "perm", &expected, workers),
                Ok(()),
                "pristine netlist, {width}, {workers} workers"
            );
        }
    }

    let population = mutants(&netlist);
    assert!(
        population.len() > 40,
        "mutant population too small: {}",
        population.len()
    );
    let mut killed = 0usize;
    for (gate, mutant) in &population {
        let scalar = exhaustive_check_scalar(mutant, "index", "perm", &expected);
        if scalar.is_err() {
            killed += 1;
        }
        for (width, sweep) in WIDTHS {
            for workers in WORKER_COUNTS {
                assert_eq!(
                    sweep(mutant, "index", "perm", &expected, workers),
                    scalar,
                    "gate {gate}, {width}, {workers} workers: sharded sweep diverges from scalar"
                );
            }
        }
    }
    // The Err side must actually occur (the pristine check above covers
    // Ok), or the witness-parity sweep would be vacuous. The n = 4
    // converter has no dead gates, so in fact every mutant is killed;
    // asserting only the floor keeps the test robust to generator
    // changes that introduce dead logic.
    assert!(
        killed > 0,
        "no mutant was killed; the parity check is vacuous"
    );
}

#[test]
fn one_hot_parallel_matches_sequential_on_every_mutant() {
    // The converter's one-hot MUX select banks are recorded in the
    // netlist; mutations inside the decoder cones break exactly-one for
    // some swept input, and every worker count must report the one-worker
    // scan's lowest witness (or its None).
    let netlist = converter_netlist(4, ConverterOptions::default());
    assert!(
        !netlist.one_hot_banks().is_empty(),
        "converter should record its one-hot select banks"
    );
    let mut violating = 0usize;
    for (gate, mutant) in &mutants(&netlist) {
        let sequential = find_one_hot_violation_parallel(mutant, "index", 1);
        if sequential.is_some() {
            violating += 1;
        }
        for workers in WORKER_COUNTS {
            assert_eq!(
                find_one_hot_violation_parallel(mutant, "index", workers),
                sequential,
                "gate {gate}, {workers} workers: one-hot witness diverges"
            );
        }
    }
    assert!(
        violating > 0,
        "no mutant violated a one-hot bank; the parity check is vacuous"
    );
}

proptest! {
    // Each case runs the scalar sweep and 15 sharded sweeps over all
    // 120 indices of the n = 5 converter, so modest case counts cover
    // thousands of cross-checked vectors.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomly corrupted expectation tables: whatever the lowest
    /// corrupted-and-detected index turns out to be (including none,
    /// when xor pairs cancel), every sweep must report the scalar
    /// result exactly, at every width and an arbitrary worker count.
    #[test]
    fn corrupted_tables_report_identically(
        corruptions in prop::collection::vec((0usize..120, 1u64..16), 0..6),
        workers in 1usize..10,
    ) {
        let netlist = converter_netlist(5, ConverterOptions::default());
        let mut expected = expected_permutation_words(5);
        for &(index, mask) in &corruptions {
            expected[index] ^= mask;
        }
        let scalar = exhaustive_check_scalar(&netlist, "index", "perm", &expected);
        for (_, sweep) in WIDTHS {
            for workers in [1, 2, 3, 8, workers] {
                let sharded = sweep(&netlist, "index", "perm", &expected, workers);
                prop_assert_eq!(&sharded, &scalar);
            }
        }
    }
}
