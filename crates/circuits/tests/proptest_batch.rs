//! Differential property tests between the scalar `BatchSim<bool>` and
//! the word-level `BatchSim<W>` at every compiled width: lane `l` of a
//! batched run must be indistinguishable from a scalar run fed lane
//! `l`'s input vector (or input *sequence*, for the registered
//! families) — whether the word carries 64 (`u64`), 256 (`W256`) or
//! 512 (`W512`) lanes. Covers every registered circuit family,
//! combinational and sequential alike.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, families, ConverterOptions};
use hwperm_logic::{BatchSim, Netlist, SimWord, W256, W512};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A uniformly random value that fits a `width`-bit port. Arbitrary bit
/// patterns are fair game: the property is lane equivalence of the two
/// simulators, not functional correctness of the circuit, so e.g. the
/// rank family's `perm` port may legitimately see non-permutations.
fn rand_value(rng: &mut u64, width: usize) -> Ubig {
    let mut v = Ubig::zero();
    let mut bit = 0;
    while bit < width {
        let word = xorshift(rng);
        let take = (width - bit).min(64);
        for b in 0..take {
            if word >> b & 1 == 1 {
                v.set_bit(bit + b, true);
            }
        }
        bit += take;
    }
    v
}

/// One cycle's worth of input data: for each input port, one value per
/// lane.
fn random_cycle(netlist: &Netlist, lanes: usize, rng: &mut u64) -> Vec<(String, Vec<Ubig>)> {
    netlist
        .input_ports()
        .iter()
        .map(|p| {
            let width = p.nets.len();
            let values: Vec<Ubig> = (0..lanes).map(|_| rand_value(rng, width)).collect();
            (p.name.clone(), values)
        })
        .collect()
}

/// Combinational check: one batched `eval` at width `W` against
/// `W::LANES` scalar `eval`s.
fn assert_eval_lane_equivalent<W: SimWord>(family: &str, netlist: &Netlist, seed: u64) {
    let mut rng = seed | 1;
    let cycle = random_cycle(netlist, W::LANES, &mut rng);
    let mut batch = BatchSim::<W>::new(netlist.clone());
    for (name, lanes) in &cycle {
        batch.set_input_lanes(name, lanes);
    }
    batch.eval();

    let mut scalar = BatchSim::<bool>::new(netlist.clone());
    for lane in 0..W::LANES {
        for (name, lanes) in &cycle {
            scalar.set_input(name, &lanes[lane]);
        }
        scalar.eval();
        for port in netlist.output_ports() {
            assert_eq!(
                batch.read_output_lane(&port.name, lane),
                scalar.read_output(&port.name),
                "{family}: output {:?} diverges in lane {lane} of {}",
                port.name,
                W::LANES
            );
        }
    }
}

/// Sequential check: a multi-cycle `step` schedule, batched once at
/// width `W`, then replayed lane by lane on a scalar simulator reset
/// between lanes. Every cycle's post-step outputs must agree in every
/// lane.
fn assert_step_lane_equivalent<W: SimWord>(
    family: &str,
    netlist: &Netlist,
    cycles: usize,
    seed: u64,
) {
    let mut rng = seed | 1;
    let schedule: Vec<Vec<(String, Vec<Ubig>)>> = (0..cycles)
        .map(|_| random_cycle(netlist, W::LANES, &mut rng))
        .collect();

    let mut batch = BatchSim::<W>::new(netlist.clone());
    // [cycle][port][lane] snapshots of every output after each step.
    let mut snapshots: Vec<Vec<Vec<Ubig>>> = Vec::with_capacity(cycles);
    for cycle in &schedule {
        for (name, lanes) in cycle {
            batch.set_input_lanes(name, lanes);
        }
        batch.step();
        batch.eval();
        snapshots.push(
            netlist
                .output_ports()
                .iter()
                .map(|p| {
                    (0..W::LANES)
                        .map(|l| batch.read_output_lane(&p.name, l))
                        .collect()
                })
                .collect(),
        );
    }

    let mut scalar = BatchSim::<bool>::new(netlist.clone());
    for lane in 0..W::LANES {
        scalar.reset();
        for (c, cycle) in schedule.iter().enumerate() {
            for (name, lanes) in cycle {
                scalar.set_input(name, &lanes[lane]);
            }
            scalar.step();
            scalar.eval();
            for (pi, port) in netlist.output_ports().iter().enumerate() {
                assert_eq!(
                    snapshots[c][pi][lane],
                    scalar.read_output(&port.name),
                    "{family}: output {:?} diverges in lane {lane} of {} at cycle {c}",
                    port.name,
                    W::LANES
                );
            }
        }
    }
}

/// Cross-width check: the first 64 lanes of a wide batched run, fed
/// the exact inputs of a `u64` run, must read back bit-identical
/// outputs — the wide words are transposition-compatible with the
/// narrow one, not merely scalar-equivalent.
fn assert_wide_matches_u64<W: SimWord>(family: &str, netlist: &Netlist, seed: u64) {
    let mut rng = seed | 1;
    let cycle = random_cycle(netlist, 64, &mut rng);
    let mut narrow = BatchSim::<u64>::new(netlist.clone());
    let mut wide = BatchSim::<W>::new(netlist.clone());
    for (name, lanes) in &cycle {
        narrow.set_input_lanes(name, lanes);
        wide.set_input_lanes(name, lanes);
    }
    narrow.step();
    narrow.eval();
    wide.step();
    wide.eval();
    for port in netlist.output_ports() {
        for lane in 0..64 {
            assert_eq!(
                wide.read_output_lane(&port.name, lane),
                narrow.read_output_lane(&port.name, lane),
                "{family}: output {:?} diverges between u64 and {}-lane words in lane {lane}",
                port.name,
                W::LANES
            );
        }
    }
}

proptest! {
    // Each case sweeps 64 lanes x all output bits, so modest case
    // counts already cover thousands of vectors per family.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lane equivalence across every registered family, dispatching on
    /// whether the family's netlist holds registered state.
    #[test]
    fn all_families_lane_equivalent(n in 3usize..=5, seed in any::<u64>()) {
        for family in families() {
            let (family, netlist) = (family.name, (family.build)(n));
            if netlist.register_count() == 0 {
                assert_eval_lane_equivalent::<u64>(family, &netlist, seed);
            } else {
                assert_step_lane_equivalent::<u64>(family, &netlist, 4, seed);
            }
        }
    }

    /// The same property for every family at the wide widths: each of
    /// the 256 / 512 lanes must match its scalar replay (comb and
    /// multi-cycle step alike), and the first 64 lanes must be
    /// bit-identical to a `u64` run fed the same inputs. Fewer cases
    /// than the narrow sweep — each one replays up to 512 scalar
    /// simulations per family.
    #[test]
    fn all_families_lane_equivalent_wide(n in 3usize..=4, seed in any::<u64>()) {
        for family in families() {
            let (family, netlist) = (family.name, (family.build)(n));
            if netlist.register_count() == 0 {
                assert_eval_lane_equivalent::<W256>(family, &netlist, seed);
                assert_eval_lane_equivalent::<W512>(family, &netlist, seed);
            } else {
                // n + 3 cycles: deeper than the pipelined families'
                // DFF depth at these sizes, so latching is exercised.
                assert_step_lane_equivalent::<W256>(family, &netlist, n + 3, seed);
                assert_step_lane_equivalent::<W512>(family, &netlist, n + 3, seed);
            }
            assert_wide_matches_u64::<W256>(family, &netlist, seed);
            assert_wide_matches_u64::<W512>(family, &netlist, seed);
        }
    }

    /// The pipelined converter gets a deeper dedicated schedule: enough
    /// cycles for values to traverse the whole DFF pipeline, so
    /// per-lane latching (not just combinational agreement) is what is
    /// actually exercised.
    #[test]
    fn pipelined_converter_multi_cycle_lane_equivalent(
        n in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let netlist = converter_netlist(
            n,
            ConverterOptions { pipelined: true, perm_input_port: false },
        );
        prop_assert!(netlist.register_count() > 0);
        // n + 3 cycles: strictly more than the pipeline depth, so every
        // lane's first vector has flushed all the way through.
        assert_step_lane_equivalent::<u64>("converter-pipelined", &netlist, n + 3, seed);
    }
}
