//! Differential property tests for the fault overlay: with an empty
//! fault list, the scalar `OverlaySim<bool>` and the 64-lane
//! `OverlaySim<u64>` must be bit-identical to the bare scalar
//! [`Simulator`] on the same netlist — for every registered circuit
//! family, combinational and sequential alike. The overlay's forcing
//! masks are all zero in this configuration, so any divergence means
//! the overlay machinery itself (segmented execution, latch order,
//! reset) disagrees with the reference tape.

use hwperm_bignum::Ubig;
use hwperm_circuits::families;
use hwperm_faults::OverlaySim;
use hwperm_logic::{Netlist, SimProgram, Simulator};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random `width`-bit word. Arbitrary patterns are fair game: the
/// property is overlay/reference equivalence, not functional
/// correctness, so e.g. the rank family's `perm` port may legitimately
/// see non-permutations.
fn rand_word(rng: &mut u64, width: usize) -> u64 {
    assert!(width <= 64, "family port too wide for the u64 overlay IO");
    let word = xorshift(rng);
    if width == 64 {
        word
    } else {
        word & ((1u64 << width) - 1)
    }
}

/// One cycle's worth of input data: for each input port, one u64 word.
fn random_cycle(netlist: &Netlist, rng: &mut u64) -> Vec<(String, u64)> {
    netlist
        .input_ports()
        .iter()
        .map(|p| (p.name.clone(), rand_word(rng, p.nets.len())))
        .collect()
}

fn ubig_of(word: u64) -> Ubig {
    Ubig::from(word)
}

fn ubig_to_u64(v: &Ubig) -> u64 {
    v.to_u64().expect("family output port wider than 64 bits")
}

/// Combinational check: one fault-free scalar overlay eval and one
/// fault-free batched overlay eval (same word broadcast to all 64
/// lanes) against the reference simulator.
fn assert_eval_parity(family: &str, netlist: &Netlist, seed: u64) {
    let mut rng = seed | 1;
    let cycle = random_cycle(netlist, &mut rng);
    let program = SimProgram::compile_shared(netlist.clone());

    let mut reference = Simulator::new(netlist.clone());
    let mut scalar = OverlaySim::<bool>::new(program.clone(), &[]);
    let mut batch = OverlaySim::<u64>::batched(program.clone(), &[]);
    for (name, word) in &cycle {
        reference.set_input(name, &ubig_of(*word));
        scalar.set_input_u64(name, *word);
        batch.set_input_all_lanes_u64(name, *word);
    }
    reference.eval();
    scalar.eval();
    batch.eval();

    for port in netlist.output_ports() {
        let want = ubig_to_u64(&reference.read_output(&port.name));
        assert_eq!(
            scalar.read_output_u64(&port.name),
            want,
            "{family}: scalar overlay diverges on output {:?}",
            port.name
        );
        for lane in 0..64 {
            assert_eq!(
                batch.read_output_lane_u64(&port.name, lane),
                want,
                "{family}: batched overlay diverges on output {:?} lane {lane}",
                port.name
            );
        }
    }
}

/// Sequential check: a multi-cycle step schedule run in lockstep on
/// the reference simulator and both fault-free overlays; every cycle's
/// post-step outputs must agree, and a reset must bring all three back
/// into agreement from the power-on state.
fn assert_step_parity(family: &str, netlist: &Netlist, cycles: usize, seed: u64) {
    let mut rng = seed | 1;
    let schedule: Vec<Vec<(String, u64)>> = (0..cycles)
        .map(|_| random_cycle(netlist, &mut rng))
        .collect();
    let program = SimProgram::compile_shared(netlist.clone());

    let mut reference = Simulator::new(netlist.clone());
    let mut scalar = OverlaySim::<bool>::new(program.clone(), &[]);
    let mut batch = OverlaySim::<u64>::batched(program.clone(), &[]);

    for round in 0..2 {
        for (c, cycle) in schedule.iter().enumerate() {
            for (name, word) in cycle {
                reference.set_input(name, &ubig_of(*word));
                scalar.set_input_u64(name, *word);
                batch.set_input_all_lanes_u64(name, *word);
            }
            reference.step();
            reference.eval();
            scalar.step();
            scalar.eval();
            batch.step();
            batch.eval();
            for port in netlist.output_ports() {
                let want = ubig_to_u64(&reference.read_output(&port.name));
                assert_eq!(
                    scalar.read_output_u64(&port.name),
                    want,
                    "{family}: scalar overlay diverges on {:?} at cycle {c} (round {round})",
                    port.name
                );
                assert_eq!(
                    batch.read_output_lane_u64(&port.name, 63),
                    want,
                    "{family}: batched overlay diverges on {:?} at cycle {c} (round {round})",
                    port.name
                );
            }
        }
        // Round 1 replays the same schedule after a reset: the overlay
        // reset path must restore the same power-on state the
        // reference simulator starts from.
        reference.reset();
        scalar.reset();
        batch.reset();
    }
}

proptest! {
    // Each case covers every family; the sequential families run a
    // 4-cycle schedule twice (pre- and post-reset).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fault-free overlay is bit-identical to the bare tape for every
    /// registered circuit family.
    #[test]
    fn fault_free_overlay_matches_reference(n in 2usize..=5, seed in any::<u64>()) {
        for family in families() {
            let netlist = (family.build)(n);
            if netlist.register_count() == 0 {
                assert_eval_parity(family.name, &netlist, seed);
            } else {
                assert_step_parity(family.name, &netlist, 4, seed);
            }
        }
    }
}
