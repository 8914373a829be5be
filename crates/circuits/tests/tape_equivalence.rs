//! Golden-output equivalence of the compiled simulation tape.
//!
//! The tape refactor replaced the simulators' direct index-order
//! netlist walk with a levelized `SimProgram` opcode stream. This suite
//! pins the refactor to the *pre-refactor* semantics: `ReferenceSim`
//! below is a verbatim replica of the old scalar simulator (creation-order
//! gate walk, separate DFF state array), and every registered circuit
//! family must produce identical outputs through the
//! tape-backed scalar and 64-lane batched paths — exhaustively for the
//! converter at n = 4..6 (cross-checked against software unranking as
//! an independent golden), property-tested elsewhere, including
//! multi-cycle `step` schedules through the pipelined converters.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, families, ConverterOptions};
use hwperm_logic::{BatchSim, Gate, Netlist, LANES};
use hwperm_verify::expected_permutation_words;
use proptest::prelude::*;

/// Verbatim replica of the pre-refactor scalar simulator: one `bool`
/// per net, gates evaluated in creation (index) order, DFFs reading a
/// separate state array that latches on `step`. This is the golden
/// semantics the compiled tape must reproduce bit for bit.
struct ReferenceSim {
    netlist: Netlist,
    values: Vec<bool>,
    state: Vec<bool>,
}

impl ReferenceSim {
    fn new(netlist: Netlist) -> Self {
        let n = netlist.len();
        let mut state = vec![false; n];
        for (i, g) in netlist.gates().iter().enumerate() {
            if let Gate::Dff { init, .. } = g {
                state[i] = *init;
            }
        }
        ReferenceSim {
            netlist,
            values: vec![false; n],
            state,
        }
    }

    fn set_input(&mut self, name: &str, value: &Ubig) {
        let port = self.netlist.input_port(name).expect("input port").clone();
        for (i, net) in port.nets.iter().enumerate() {
            self.values[net.index()] = value.bit(i);
        }
    }

    fn eval(&mut self) {
        for i in 0..self.netlist.len() {
            let v = match self.netlist.gates()[i] {
                Gate::Const(c) => c,
                Gate::Input => continue, // externally driven
                Gate::Not(x) => !self.values[x.index()],
                Gate::And(x, y) => self.values[x.index()] & self.values[y.index()],
                Gate::Or(x, y) => self.values[x.index()] | self.values[y.index()],
                Gate::Xor(x, y) => self.values[x.index()] ^ self.values[y.index()],
                Gate::Mux { sel, a, b } => {
                    if self.values[sel.index()] {
                        self.values[b.index()]
                    } else {
                        self.values[a.index()]
                    }
                }
                Gate::Dff { .. } => self.state[i],
            };
            self.values[i] = v;
        }
    }

    fn step(&mut self) {
        self.eval();
        for i in 0..self.netlist.len() {
            if let Gate::Dff { d, .. } = self.netlist.gates()[i] {
                self.state[i] = self.values[d.index()];
            }
        }
    }

    fn reset(&mut self) {
        for (i, g) in self.netlist.gates().iter().enumerate() {
            if let Gate::Dff { init, .. } = g {
                self.state[i] = *init;
            }
        }
    }

    fn read_output(&self, name: &str) -> Ubig {
        let port = self.netlist.output_port(name).expect("output port");
        let mut out = Ubig::zero();
        for (i, net) in port.nets.iter().enumerate() {
            if self.values[net.index()] {
                out.set_bit(i, true);
            }
        }
        out
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A uniformly random value that fits a `width`-bit port.
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
fn random_cycle(netlist: &Netlist, rng: &mut u64) -> Vec<(String, Vec<Ubig>)> {
    netlist
        .input_ports()
        .iter()
        .map(|p| {
            let width = p.nets.len();
            let lanes: Vec<Ubig> = (0..LANES).map(|_| rand_value(rng, width)).collect();
            (p.name.clone(), lanes)
        })
        .collect()
}

/// Drives a multi-cycle schedule through the reference walk, the
/// tape-backed scalar simulator (lane by lane) and the tape-backed
/// batch simulator (all lanes at once); every post-step output of every
/// cycle must be identical across all three.
fn assert_schedule_matches_reference(family: &str, netlist: &Netlist, cycles: usize, seed: u64) {
    let mut rng = seed | 1;
    let schedule: Vec<Vec<(String, Vec<Ubig>)>> = (0..cycles)
        .map(|_| random_cycle(netlist, &mut rng))
        .collect();

    let mut batch = BatchSim::<u64>::new(netlist.clone());
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
                    (0..LANES)
                        .map(|l| batch.read_output_lane(&p.name, l))
                        .collect()
                })
                .collect(),
        );
    }

    let mut golden = ReferenceSim::new(netlist.clone());
    let mut tape = BatchSim::<bool>::new(netlist.clone());
    for lane in 0..LANES {
        golden.reset();
        tape.reset();
        for (c, cycle) in schedule.iter().enumerate() {
            for (name, lanes) in cycle {
                golden.set_input(name, &lanes[lane]);
                tape.set_input(name, &lanes[lane]);
            }
            golden.step();
            golden.eval();
            tape.step();
            tape.eval();
            for (pi, port) in netlist.output_ports().iter().enumerate() {
                let want = golden.read_output(&port.name);
                assert_eq!(
                    tape.read_output(&port.name),
                    want,
                    "{family}: tape scalar diverges from pre-refactor walk, \
                     output {:?}, lane {lane}, cycle {c}",
                    port.name
                );
                assert_eq!(
                    snapshots[c][pi][lane], want,
                    "{family}: tape batch diverges from pre-refactor walk, \
                     output {:?}, lane {lane}, cycle {c}",
                    port.name
                );
            }
        }
    }
}

/// Exhaustive converter check at one n: every index through the
/// reference walk, the tape scalar, the tape batch and the software
/// unranker — four-way agreement on every output word.
fn assert_converter_exhaustive(n: usize) {
    let netlist = converter_netlist(n, ConverterOptions::default());
    let golden_words = expected_permutation_words(n);
    let mut golden = ReferenceSim::new(netlist.clone());
    let mut tape = BatchSim::<bool>::new(netlist.clone());
    let mut batch = BatchSim::<u64>::new(netlist.clone());
    let total = golden_words.len();
    let mut base = 0usize;
    while base < total {
        let count = (total - base).min(LANES);
        let lanes: Vec<u64> = (0..count).map(|l| (base + l) as u64).collect();
        batch.set_input_lanes_u64("index", &lanes);
        batch.eval();
        for (lane, &index) in lanes.iter().enumerate() {
            let value = Ubig::from(index);
            golden.set_input("index", &value);
            golden.eval();
            tape.set_input("index", &value);
            tape.eval();
            let want = golden.read_output("perm");
            assert_eq!(
                want.to_u64(),
                Some(golden_words[index as usize]),
                "n={n}: pre-refactor walk disagrees with software unranking at index {index}"
            );
            assert_eq!(
                tape.read_output("perm"),
                want,
                "n={n}: tape scalar diverges at index {index}"
            );
            assert_eq!(
                batch.read_output_lane("perm", lane),
                want,
                "n={n}: tape batch diverges at index {index}"
            );
        }
        base += count;
    }
}

#[test]
fn converter_exhaustive_matches_pre_refactor_golden_n4_to_n6() {
    for n in 4..=6 {
        assert_converter_exhaustive(n);
    }
}

proptest! {
    // Each case compares 64 lanes x all output bits x all cycles across
    // three simulators, so modest case counts cover thousands of
    // vectors per family.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every family: tape-backed scalar and batched runs equal the
    /// pre-refactor reference walk. Combinational families get a
    /// 1-cycle schedule (step on a register-free netlist is just eval);
    /// registered families get a real multi-cycle schedule.
    #[test]
    fn all_families_match_pre_refactor_golden(n in 3usize..=5, seed in any::<u64>()) {
        for family in families() {
            let netlist = (family.build)(n);
            let cycles = if netlist.register_count() == 0 { 1 } else { 4 };
            assert_schedule_matches_reference(family.name, &netlist, cycles, seed);
        }
    }

    /// The pipelined converter gets a schedule deeper than its DFF
    /// pipeline, so latching order (not just combinational agreement)
    /// is what the tape is held to.
    #[test]
    fn pipelined_converter_deep_schedule_matches_golden(
        n in 3usize..=6,
        seed in any::<u64>(),
    ) {
        let netlist = converter_netlist(
            n,
            ConverterOptions { pipelined: true, perm_input_port: false },
        );
        prop_assert!(netlist.register_count() > 0);
        assert_schedule_matches_reference("converter-pipelined", &netlist, n + 3, seed);
    }
}
