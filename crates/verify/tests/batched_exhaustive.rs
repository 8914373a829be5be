//! Exhaustive word-level differential checks of the Fig. 1 converter:
//! every index in `[0, n!)` through the gate-level netlist, at every
//! lane width (`u64`/`W256`/`W512`) and worker count (1/2/3/8), against
//! the software unranker — plus mismatch-reporting parity with the
//! scalar sweep on deliberately broken netlists.

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{BatchSim, Gate, Netlist, W256, W512};
use hwperm_verify::{
    exhaustive_check_parallel_wide, exhaustive_check_scalar, expected_permutation_words,
    ExhaustiveMismatch,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

type Sweep = fn(&Netlist, &str, &str, &[u64], usize) -> Result<(), ExhaustiveMismatch>;

const WIDTHS: [(&str, Sweep); 3] = [
    ("u64", exhaustive_check_parallel_wide::<u64>),
    ("W256", exhaustive_check_parallel_wide::<W256>),
    ("W512", exhaustive_check_parallel_wide::<W512>),
];

fn converter(n: usize) -> Netlist {
    converter_netlist(n, ConverterOptions::default())
}

/// Asserts that every width × worker-count sweep of `expected` returns
/// `want`.
fn assert_every_sweep(
    netlist: &Netlist,
    expected: &[u64],
    want: &Result<(), ExhaustiveMismatch>,
    what: &str,
) {
    for (width, sweep) in WIDTHS {
        for workers in WORKER_COUNTS {
            assert_eq!(
                &sweep(netlist, "index", "perm", expected, workers),
                want,
                "{what}, {width}, {workers} workers"
            );
        }
    }
}

#[test]
fn converter_n4_to_n6_pass_the_batched_sweep() {
    for n in 4..=6 {
        let expected = expected_permutation_words(n);
        assert_every_sweep(&converter(n), &expected, &Ok(()), &format!("n = {n}"));
    }
}

#[test]
#[ignore = "n = 7 sweeps 5040 indices through a ~300-gate netlist; run with --ignored"]
fn converter_n7_passes_the_batched_sweep() {
    let expected = expected_permutation_words(7);
    assert_every_sweep(&converter(7), &expected, &Ok(()), "n = 7");
}

/// The minimal mismatching index found by a third, independent walk:
/// one scalar simulation per index, no batching, no early-out state.
fn brute_force_first_mismatch(netlist: &Netlist, expected: &[u64]) -> Option<u64> {
    let mut sim = BatchSim::<bool>::new(netlist.clone());
    (0u64..expected.len() as u64).find(|&i| {
        sim.set_input_u64("index", i);
        sim.eval();
        sim.read_output("perm").to_u64() != Some(expected[i as usize])
    })
}

/// Swap every And for an Or (and vice versa), one gate at a time, and
/// demand that every word-level sweep returns the exact same verdict as
/// the scalar sweep on each mutant — including which index and output
/// the first mismatch is reported at. The word-level path scans its
/// difference words lowest-lane-first, so ties must break identically.
#[test]
fn first_mismatch_report_is_lane_exact_on_mutants() {
    let netlist = converter(4);
    let expected = expected_permutation_words(4);
    let mut detected = 0usize;
    for (i, gate) in netlist.gates().iter().enumerate() {
        let swapped = match gate {
            Gate::And(a, b) => Gate::Or(*a, *b),
            Gate::Or(a, b) => Gate::And(*a, *b),
            _ => continue,
        };
        let mutant = netlist.with_gate_replaced(i, swapped);
        let scalar = exhaustive_check_scalar(&mutant, "index", "perm", &expected);
        assert_every_sweep(&mutant, &expected, &scalar, &format!("mutant of gate {i}"));
        if let Err(m) = scalar {
            detected += 1;
            assert_eq!(
                Some(m.index),
                brute_force_first_mismatch(&mutant, &expected),
                "gate {i}: the sweeps did not report the minimal index"
            );
            assert_eq!(m.port, "perm");
            assert_ne!(m.got, m.want);
            assert_eq!(m.want, expected[m.index as usize]);
        }
    }
    assert!(
        detected >= 5,
        "only {detected} gate swaps were caught; the oracle has gone soft"
    );
}

/// A mismatch seeded in a specific lane of a specific batch: n = 5 has
/// 120 indices, so the 64-lane sweep's batch 0 covers 0..64 and batch 1
/// covers 64..120, while one W256 or W512 batch holds them all. Forcing
/// the expectation wrong at one index must surface exactly that index.
#[test]
fn seeded_expectation_error_pinpoints_its_lane() {
    let netlist = converter(5);
    for &bad in &[0u64, 37, 63, 64, 100, 119] {
        let mut expected = expected_permutation_words(5);
        expected[bad as usize] ^= 1; // poison one index's expectation
        let err = exhaustive_check_scalar(&netlist, "index", "perm", &expected)
            .expect_err("poisoned table must fail");
        assert_eq!(err.index, bad, "wrong index surfaced");
        assert_eq!(err.got, err.want ^ 1);
        assert_every_sweep(
            &netlist,
            &expected,
            &Err(err),
            &format!("poisoned index {bad}"),
        );
    }
}
