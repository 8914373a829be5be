//! Differential property tests for the fault overlay: with an empty
//! fault list, a scalar `FaultOverlay<bool>` and a 64-lane
//! `FaultOverlay<u64>`, each applied around a `BatchSim` over the
//! shared tape, must be bit-identical to a bare `BatchSim<bool>` on the
//! same netlist — for every registered circuit family, combinational
//! and sequential alike. The overlay's forcing masks are all zero in
//! this configuration, so any divergence means the overlay machinery
//! itself (segmented execution, latch order) disagrees with the
//! reference tape.

use hwperm_bignum::Ubig;
use hwperm_circuits::families;
use hwperm_faults::FaultOverlay;
use hwperm_logic::{BatchSim, Netlist, SimProgram};
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

fn ubig_to_u64(v: &Ubig) -> u64 {
    v.to_u64().expect("family output port wider than 64 bits")
}

/// A `cycles`-long step schedule run in lockstep on the reference
/// simulator and on both fault-free overlays (every batch lane driven
/// alike); after every cycle each output must agree in every lane, and
/// a reset must bring all three back into agreement from the power-on
/// state. On a combinational netlist a step is a settle, so a
/// one-cycle schedule is the eval check.
fn assert_parity(family: &str, netlist: &Netlist, cycles: usize, seed: u64) {
    let mut rng = seed | 1;
    let schedule: Vec<Vec<(String, u64)>> = (0..cycles)
        .map(|_| random_cycle(netlist, &mut rng))
        .collect();
    let program = SimProgram::compile_shared(netlist.clone());
    let mut reference = BatchSim::<bool>::new(netlist.clone());
    let scalar = FaultOverlay::new(program.clone(), &[]);
    let mut scalar_sim = BatchSim::from_program(program.clone());
    let batch = FaultOverlay::<u64>::batched(program.clone(), &[]);
    let mut batch_sim = BatchSim::from_program(program);

    for round in 0..2 {
        for (c, cycle) in schedule.iter().enumerate() {
            for (name, word) in cycle {
                reference.set_input(name, &Ubig::from(*word));
                scalar_sim.set_input_u64(name, *word);
                batch_sim.set_input_u64(name, *word);
            }
            reference.step();
            reference.eval();
            scalar.step(&mut scalar_sim);
            scalar.eval(&mut scalar_sim);
            batch.step(&mut batch_sim);
            batch.eval(&mut batch_sim);
            for port in netlist.output_ports() {
                let want = ubig_to_u64(&reference.read_output(&port.name));
                assert_eq!(
                    scalar_sim.read_output_lane_u64(&port.name, 0),
                    want,
                    "{family}: scalar overlay diverges on {:?} at cycle {c} (round {round})",
                    port.name
                );
                for lane in 0..64 {
                    assert_eq!(
                        batch_sim.read_output_lane_u64(&port.name, lane),
                        want,
                        "{family}: batched overlay diverges on {:?} lane {lane} at cycle {c} \
                         (round {round})",
                        port.name
                    );
                }
            }
        }
        // Round 1 replays the same schedule after a reset, which must
        // restore the power-on state the reference starts from.
        reference.reset();
        scalar_sim.reset();
        batch_sim.reset();
    }
}

proptest! {
    // Each case covers every family, each schedule run twice (pre- and
    // post-reset): one cycle for combinational families, four for the
    // sequential ones.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fault-free overlay is bit-identical to the bare tape for every
    /// registered circuit family.
    #[test]
    fn fault_free_overlay_matches_reference(n in 2usize..=5, seed in any::<u64>()) {
        for family in families() {
            let netlist = (family.build)(n);
            let cycles = if netlist.register_count() == 0 { 1 } else { 4 };
            assert_parity(family.name, &netlist, cycles, seed);
        }
    }
}
