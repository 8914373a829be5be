//! Mutation (fault-injection) tests: flip individual gates in the
//! generated converter and check that the exhaustive differential
//! comparison against software unranking *detects* the fault. This
//! validates that the correctness tests elsewhere in the workspace have
//! actual discriminating power over the netlists — a silent simulator
//! or a vacuous comparison would pass them without this guarantee.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{BatchSim, Gate, Netlist};
use hwperm_perm::Permutation;
use hwperm_verify::{
    exhaustive_check_parallel_wide, exhaustive_check_scalar, expected_permutation_words,
};

/// Packed expectation table for the n = 4 sweep: `pack(unrank(4, i))`
/// for all 24 indices.
fn n4_expected() -> Vec<u64> {
    expected_permutation_words(4)
}

/// Runs the n = 4 exhaustive differential check on a netlist; returns
/// `true` iff every index produces the correct permutation. Uses the
/// one-worker 64-lane sweep — all 24 indices settle in one netlist walk
/// — so the full mutant population below stays cheap.
fn behaves_correctly(netlist: Netlist) -> bool {
    exhaustive_check_parallel_wide::<u64>(&netlist, "index", "perm", &n4_expected(), 1).is_ok()
}

/// A gate with the same fanin but different function, if one exists.
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
fn pristine_netlist_passes_the_oracle() {
    let netlist = converter_netlist(4, ConverterOptions::default());
    assert!(behaves_correctly(netlist));
}

#[test]
fn every_live_mutation_is_caught() {
    // Flipping ANY live combinational gate must be detected by the
    // exhaustive oracle. (A mutation that survived would mean either
    // undetected dead logic in the generator or a blind spot in the
    // oracle.) Dead gates — e.g. the subtractors' unread borrow-out
    // cones, which synthesis sweeps — are excluded via the same
    // liveness analysis the resource estimator uses.
    let netlist = converter_netlist(4, ConverterOptions::default());
    let live = netlist.live_mask();
    let mut mutants = 0;
    let mut caught = 0;
    let mut survivors = Vec::new();
    for (i, &alive) in live.iter().enumerate() {
        if !alive {
            continue;
        }
        let Some(mutated_gate) = mutate(netlist.gates()[i]) else {
            continue;
        };
        if mutated_gate == netlist.gates()[i] {
            continue;
        }
        mutants += 1;
        if behaves_correctly(netlist.with_gate_replaced(i, mutated_gate)) {
            survivors.push(i);
        } else {
            caught += 1;
        }
    }
    assert!(
        mutants > 40,
        "expected a substantial mutant population, got {mutants}"
    );
    assert_eq!(
        caught, mutants,
        "mutants at gates {survivors:?} survived the exhaustive oracle"
    );
}

#[test]
fn batched_oracle_matches_scalar_on_every_mutant() {
    // Survivor-set parity: the batched 64-lane oracle and the scalar
    // reference oracle must agree mutant-by-mutant — same verdict AND,
    // on detection, the same first-mismatch witness (index, port, got,
    // want). A divergence in either direction would mean the fast path
    // changed what the test suite proves.
    let netlist = converter_netlist(4, ConverterOptions::default());
    let expected = n4_expected();
    let mut scalar_survivors = Vec::new();
    let mut batched_survivors = Vec::new();
    let mut mutants = 0;
    for i in 0..netlist.len() {
        let Some(mutated_gate) = mutate(netlist.gates()[i]) else {
            continue;
        };
        if mutated_gate == netlist.gates()[i] {
            continue;
        }
        mutants += 1;
        let mutant = netlist.with_gate_replaced(i, mutated_gate);
        let scalar = exhaustive_check_scalar(&mutant, "index", "perm", &expected);
        let batched = exhaustive_check_parallel_wide::<u64>(&mutant, "index", "perm", &expected, 1);
        assert_eq!(
            scalar, batched,
            "oracle divergence at gate {i}: scalar {scalar:?} vs batched {batched:?}"
        );
        if scalar.is_ok() {
            scalar_survivors.push(i);
        }
        if batched.is_ok() {
            batched_survivors.push(i);
        }
    }
    // Dead gates are included here (unlike the detection test above), so
    // survivors exist — and the two sets must be bit-identical.
    assert!(mutants > 40, "mutant population too small: {mutants}");
    assert_eq!(scalar_survivors, batched_survivors);
}

#[test]
fn shuffle_circuit_mutations_are_mostly_caught() {
    // Sequential case: mutate live gates of the Knuth shuffle circuit
    // and compare one full LFSR period of output permutations against
    // the software mirror. Sequential faults can hide behind inputs the
    // datapath never produces, so the detection bar is high-but-not-total.
    use hwperm_circuits::{shuffle_netlist, KnuthShuffleModel, ShuffleOptions};

    let opts = ShuffleOptions {
        lfsr_width: 8,
        pipelined: false,
        seed: 0xFEED,
    };
    let netlist = shuffle_netlist(3, opts);
    let live = netlist.live_mask();

    // One full LFSR period so every reachable state is exercised.
    let behaves = |netlist: Netlist| -> bool {
        let mut sim = BatchSim::<bool>::new(netlist);
        let mut model = KnuthShuffleModel::with_options(3, opts);
        for _ in 0..255 {
            sim.eval();
            let word = sim.read_output("perm");
            let expected = model.next_permutation();
            match Permutation::unpack(3, &word) {
                Ok(p) if p == expected => {}
                _ => return false,
            }
            sim.step();
        }
        true
    };

    let mut mutants = 0;
    let mut caught = 0;
    for (i, &alive) in live.iter().enumerate() {
        if !alive {
            continue;
        }
        let Some(mutated_gate) = mutate(netlist.gates()[i]) else {
            continue;
        };
        if mutated_gate == netlist.gates()[i] {
            continue;
        }
        mutants += 1;
        if !behaves(netlist.with_gate_replaced(i, mutated_gate)) {
            caught += 1;
        }
    }
    assert!(mutants > 30, "mutant population too small: {mutants}");
    let rate = caught as f64 / mutants as f64;
    // 100% is unreachable here even over the full period: some gates are
    // only distinguishable under input patterns the datapath can never
    // produce (e.g. decoder minterms for offsets ⌊r·x/2^m⌋ ≥ r —
    // reachability don't-cares, the sequential analogue of untestable
    // faults). Empirically 39/45 are caught; require ≥ 85%.
    assert!(
        rate >= 0.85,
        "only {caught}/{mutants} shuffle mutants detected over a full LFSR period"
    );
}

#[test]
fn single_sample_oracle_is_weaker_than_exhaustive() {
    // Sanity check on the methodology: an oracle that only looks at
    // index 0 (whose output is the identity permutation) must miss some
    // mutants that the exhaustive oracle catches — demonstrating why
    // the test suite sweeps the whole index space.
    let netlist = converter_netlist(4, ConverterOptions::default());
    let weak_oracle = |netlist: Netlist| {
        let mut sim = BatchSim::<bool>::new(netlist);
        sim.set_input("index", &Ubig::zero());
        sim.eval();
        Permutation::unpack(4, &sim.read_output("perm")) == Ok(Permutation::identity(4))
    };
    let mut survived_weak = 0;
    for i in 0..netlist.len() {
        let Some(mutated_gate) = mutate(netlist.gates()[i]) else {
            continue;
        };
        if mutated_gate == netlist.gates()[i] {
            continue;
        }
        if weak_oracle(netlist.with_gate_replaced(i, mutated_gate)) {
            survived_weak += 1;
        }
    }
    assert!(
        survived_weak > 0,
        "the single-sample oracle should miss some faults; exhaustive coverage is load-bearing"
    );
}
