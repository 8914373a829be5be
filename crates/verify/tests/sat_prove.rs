//! SAT-backed theorems: the CDCL miter discharges the same obligations
//! the BDD engine proves in `prove_converter.rs`, and — the part BDDs
//! cannot do cheaply — *refutes* every single-gate mutant of the
//! converter with a decoded counterexample that replays on the scalar
//! simulator.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, ConverterOptions, PermToIndexConverter};
use hwperm_logic::{BatchSim, Gate};
use hwperm_verify::{
    expected_permutation_words, prove_against_table, prove_equivalent, prove_inverse_identity,
    prove_pipelined_equivalent, ProveOutcome,
};

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

#[test]
fn converter_n5_table_conformance_proved() {
    let netlist = converter_netlist(5, ConverterOptions::default());
    let expected = expected_permutation_words(5);
    let out = prove_against_table(&netlist, "index", "perm", &expected).unwrap();
    let ProveOutcome::Proved(stats) = out else {
        panic!("converter n = 5 not proved: {out:?}");
    };
    assert!(stats.vars > 0 && stats.clauses > stats.vars);
}

#[test]
fn converter_n6_table_conformance_proved() {
    let netlist = converter_netlist(6, ConverterOptions::default());
    let expected = expected_permutation_words(6);
    let out = prove_against_table(&netlist, "index", "perm", &expected).unwrap();
    assert!(matches!(out, ProveOutcome::Proved(_)), "{out:?}");
}

#[test]
fn rank_unrank_roundtrip_identity_proved() {
    let conv = converter_netlist(5, ConverterOptions::default());
    let rank = PermToIndexConverter::new(5).netlist().clone();
    let out = prove_inverse_identity(
        &conv,
        "index",
        "perm",
        &rank,
        "perm",
        "index",
        factorial(5),
        None,
    )
    .unwrap();
    assert!(matches!(out, ProveOutcome::Proved(_)), "{out:?}");
}

#[test]
fn pipelined_converter_bmc_equals_combinational_twin() {
    let pipe = converter_netlist(
        4,
        ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        },
    );
    let comb = converter_netlist(4, ConverterOptions::default());
    let out =
        prove_pipelined_equivalent(&pipe, &comb, "index", "perm", 3, factorial(4), None).unwrap();
    assert!(matches!(out, ProveOutcome::Proved(_)), "{out:?}");
}

#[test]
fn independent_converter_builds_proved_equivalent() {
    let a = converter_netlist(5, ConverterOptions::default());
    let b = converter_netlist(5, ConverterOptions::default());
    let out = prove_equivalent(&a, &b).unwrap();
    assert!(matches!(out, ProveOutcome::Proved(_)), "{out:?}");
}

/// The same-fanin gate corruption corpus as
/// `crates/circuits/tests/mutation.rs`.
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

#[test]
fn every_live_mutant_is_refuted_with_a_replayable_counterexample() {
    // The acceptance bar of this PR: SAT refutes every live single-gate
    // mutant the exhaustive sweep catches, and each counterexample
    // *replays* — simulating the mutant at the witness index reproduces
    // `got`, and the oracle table pins `want`. This makes the decoded
    // witness as trustworthy as an exhaustive-sweep first mismatch.
    let netlist = converter_netlist(4, ConverterOptions::default());
    let expected = expected_permutation_words(4);
    let live = netlist.live_mask();
    let mut mutants = 0;
    for (i, &gate) in netlist.gates().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let Some(mutated_gate) = mutate(gate) else {
            continue;
        };
        if mutated_gate == gate {
            continue;
        }
        mutants += 1;
        let mutant = netlist.with_gate_replaced(i, mutated_gate);
        let out = prove_against_table(&mutant, "index", "perm", &expected).unwrap();
        let ProveOutcome::Refuted(cx, _) = out else {
            panic!("mutant at gate {i} was not refuted: {out:?}");
        };
        assert_eq!(cx.port, "perm", "gate {i}");
        assert!(cx.index < expected.len() as u64, "gate {i}: {cx:?}");
        assert_eq!(cx.want, expected[cx.index as usize], "gate {i}: {cx:?}");
        assert_ne!(cx.got, cx.want, "gate {i}: vacuous counterexample {cx:?}");
        // Replay the witness on the scalar simulator.
        let mut sim = BatchSim::<bool>::new(mutant);
        sim.set_input("index", &Ubig::from(cx.index));
        sim.eval();
        assert_eq!(
            sim.read_output("perm").to_u64(),
            Some(cx.got),
            "gate {i}: counterexample does not replay: {cx:?}"
        );
    }
    assert!(mutants > 40, "mutant population too small: {mutants}");
}

#[test]
fn counterexample_display_matches_the_exhaustive_sweep_format() {
    // Corrupt one oracle entry: the SAT witness must land on exactly
    // that index, and its Display must use the exhaustive-sweep
    // first-mismatch wording so CLI output stays uniform across the
    // simulation and formal paths.
    let netlist = converter_netlist(4, ConverterOptions::default());
    let mut expected = expected_permutation_words(4);
    expected[17] ^= 1;
    let out = prove_against_table(&netlist, "index", "perm", &expected).unwrap();
    let ProveOutcome::Refuted(cx, _) = out else {
        panic!("corrupted table not refuted: {out:?}");
    };
    assert_eq!(cx.index, 17);
    let shown = cx.to_string();
    assert!(
        shown.contains("index 17") && shown.contains("expected"),
        "unexpected witness format: {shown}"
    );
}
