//! Word-level bit-parallel netlist simulation: 64, 256 or 512 lanes
//! per pass.
//!
//! The scalar [`crate::Simulator`] settles one `bool` per net per input
//! vector, so an exhaustive differential check pays one full netlist
//! walk per index. This module packs independent test vectors into a
//! single [`SimWord`] per net — lane `l` of every word is one complete
//! simulation — so the same forward pass evaluates
//! [`SimWord::LANES`] vectors at once: 64 for `u64`, 256 for
//! [`crate::W256`], 512 for [`crate::W512`]. Gate semantics map
//! directly onto word ops (`Not` → `!`, `And` → `&`, `Mux` →
//! `(sel & b) | (!sel & a)`), and DFFs latch per-lane: lane `l` of the
//! register word is the state of lane `l`'s machine, so all multi-cycle
//! simulations of the pipelined converter advance in lockstep under one
//! [`BatchSim::step`].
//!
//! Since the tape refactor, a forward pass executes the compiled
//! [`SimProgram`] — the same levelized opcode tape the scalar simulator
//! runs, instantiated at the batch word instead of `bool` — so batch
//! and scalar evaluation cannot diverge, and many batch instances (one
//! per worker thread in `hwperm-verify`'s sharded sweeps) share one
//! compilation through `Arc<SimProgram>`.
//!
//! `BatchSim<u64>`, the 64-lane instantiation, is the default
//! throughout the workspace; `BatchSim<W256>` and `BatchSim<W512>` are
//! the wide ones. The API mirrors the scalar simulator lane-wise:
//! [`BatchSim::set_input_lanes`] / [`BatchSim::eval`] /
//! [`BatchSim::step`] / [`BatchSim::read_output_lanes`], plus fast
//! paths for ports of at most 64 bits, which the batched exhaustive
//! checks in `hwperm-verify` use to avoid per-index allocations on the
//! hot path.

use crate::netlist::{NetId, Netlist};
use crate::program::{SimProgram, SimWord};
use crate::sim::assert_input_fits;
use hwperm_bignum::Ubig;
use std::sync::Arc;

/// Number of independent simulation lanes of the default
/// `BatchSim<u64>`: one per bit of the word stored for each net.
/// Width-generic code should use [`SimWord::LANES`] instead.
pub const LANES: usize = 64;

/// Evaluates a [`Netlist`] on [`SimWord::LANES`] independent input
/// vectors per forward pass: 64 for `BatchSim<u64>`, 256 / 512 for
/// `BatchSim<W256>` / `BatchSim<W512>`.
#[derive(Debug, Clone)]
pub struct BatchSim<W: SimWord> {
    program: Arc<SimProgram>,
    /// Current word of every slot; lane `l` is the slot's value in
    /// simulation `l`.
    values: Vec<W>,
    /// Reusable two-phase latch buffer (one entry per DFF).
    scratch: Vec<W>,
}

impl<W: SimWord> BatchSim<W> {
    /// Compiles the netlist and creates a batch simulator with all
    /// inputs at 0 in every lane and DFFs at their reset values
    /// (replicated across lanes). To share one compilation across many
    /// instances (or threads), compile once with
    /// [`SimProgram::compile_shared`] (or
    /// [`SimProgram::compile_fused_shared`] for the opcode-fused tape)
    /// and use [`BatchSim::from_program`].
    pub fn new(netlist: Netlist) -> Self {
        Self::from_program(SimProgram::compile_shared(netlist))
    }

    /// A batch simulator over an already-compiled (possibly shared)
    /// tape. Per-instance cost is one flat word array — this is what
    /// each worker thread of a sharded exhaustive sweep constructs.
    pub fn from_program(program: Arc<SimProgram>) -> Self {
        let values = program.initial_values();
        BatchSim {
            program,
            values,
            scratch: Vec::new(),
        }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.program.netlist()
    }

    /// The compiled tape this simulator executes.
    pub fn program(&self) -> &Arc<SimProgram> {
        &self.program
    }

    /// Drives an input port with one value per lane (LSB-first per
    /// value, lane `l` takes `values[l]`). Lanes at and beyond
    /// `values.len()` are driven to 0.
    ///
    /// # Panics
    /// Panics if the port does not exist, more than [`SimWord::LANES`]
    /// values are supplied, or any value does not fit the port width.
    /// The panic messages are identical to the scalar
    /// [`crate::Simulator::set_input`].
    pub fn set_input_lanes(&mut self, name: &str, values: &[Ubig]) {
        assert!(
            values.len() <= W::LANES,
            "{} lane values exceed the {}-lane batch width",
            values.len(),
            W::LANES
        );
        let slots = self.program.input_slots(name);
        for value in values {
            assert_input_fits(name, slots.len(), value.bit_len(), || value.to_string());
        }
        for (bit, &slot) in slots.iter().enumerate() {
            let mut word = W::zero();
            for (lane, value) in values.iter().enumerate() {
                if value.bit(bit) {
                    word.set_lane(lane, true);
                }
            }
            self.values[slot as usize] = word;
        }
    }

    /// `u64` fast path of [`BatchSim::set_input_lanes`]: drives lane
    /// `l` with `values[l]`, avoiding per-lane allocations.
    ///
    /// # Panics
    /// Same conditions (and messages) as [`BatchSim::set_input_lanes`].
    pub fn set_input_lanes_u64(&mut self, name: &str, values: &[u64]) {
        assert!(
            values.len() <= W::LANES,
            "{} lane values exceed the {}-lane batch width",
            values.len(),
            W::LANES
        );
        let slots = self.program.input_slots(name);
        let width = slots.len();
        for &value in values {
            let bits = (u64::BITS - value.leading_zeros()) as usize;
            assert_input_fits(name, width, bits, || value.to_string());
        }
        for (bit, &slot) in slots.iter().enumerate() {
            let mut word = W::zero();
            for (lane, &value) in values.iter().enumerate() {
                if (value >> bit) & 1 == 1 {
                    word.set_lane(lane, true);
                }
            }
            self.values[slot as usize] = word;
        }
    }

    /// Drives an input port directly in the word domain: `words[b]` is
    /// the lane word of port bit `b` (lane `l` of `words[b]` = port bit
    /// `b` in simulation `l`). This is the zero-transposition path for
    /// callers that already hold lane-transposed data — e.g. the
    /// exhaustive sweeps in `hwperm-verify`, whose consecutive-index
    /// batches have precomputable bit patterns.
    ///
    /// # Panics
    /// Panics if the port does not exist or `words.len()` differs from
    /// the port width.
    pub fn set_input_words(&mut self, name: &str, words: &[W]) {
        let slots = self.program.input_slots(name);
        assert!(
            words.len() == slots.len(),
            "{} words do not match input port {name:?} ({} bits)",
            words.len(),
            slots.len()
        );
        for (&slot, &word) in slots.iter().zip(words) {
            self.values[slot as usize] = word;
        }
    }

    /// Reads an output port directly in the word domain: element `b` of
    /// the result is the lane word of port bit `b` — the inverse of
    /// [`BatchSim::set_input_words`].
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn read_output_words(&self, name: &str) -> Vec<W> {
        self.program
            .output_slots(name)
            .iter()
            .map(|&s| self.values[s as usize])
            .collect()
    }

    /// Drives an input port in a single lane, leaving the other lanes'
    /// bits untouched.
    ///
    /// # Panics
    /// Panics if `lane >= W::LANES`, the port does not exist, or the
    /// value does not fit the port width.
    pub fn set_input_lane(&mut self, lane: usize, name: &str, value: &Ubig) {
        assert!(
            lane < W::LANES,
            "lane {lane} out of range (batch has {} lanes)",
            W::LANES
        );
        let slots = self.program.input_slots(name);
        assert_input_fits(name, slots.len(), value.bit_len(), || value.to_string());
        for (bit, &slot) in slots.iter().enumerate() {
            self.values[slot as usize].set_lane(lane, value.bit(bit));
        }
    }

    /// Combinational settle: one pass over the compiled tape, all
    /// lanes at once. Input slots keep whatever was last driven; DFF
    /// slots present their registered state.
    pub fn eval(&mut self) {
        self.program.exec(&mut self.values);
    }

    /// One clock cycle: combinational settle, then every DFF latches
    /// its `d` input — independently per lane, so lane `l` advances
    /// exactly as a scalar simulator fed lane `l`'s input sequence.
    pub fn step(&mut self) {
        self.eval();
        self.program.latch(&mut self.values, &mut self.scratch);
    }

    /// Resets all DFFs to their `init` values in every lane (values
    /// stay stale until the next [`BatchSim::eval`]).
    pub fn reset(&mut self) {
        self.program.reset(&mut self.values);
    }

    /// Reads an output port in one lane (LSB-first). Call after
    /// [`BatchSim::eval`] or [`BatchSim::step`].
    ///
    /// # Panics
    /// Panics if the port does not exist or `lane >= W::LANES`.
    pub fn read_output_lane(&self, name: &str, lane: usize) -> Ubig {
        assert!(
            lane < W::LANES,
            "lane {lane} out of range (batch has {} lanes)",
            W::LANES
        );
        let slots = self.program.output_slots(name);
        let mut out = Ubig::zero();
        for (i, &slot) in slots.iter().enumerate() {
            if self.values[slot as usize].lane(lane) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Reads an output port in every lane: element `l` of the result is
    /// lane `l`'s value.
    pub fn read_output_lanes(&self, name: &str) -> Vec<Ubig> {
        (0..W::LANES)
            .map(|lane| self.read_output_lane(name, lane))
            .collect()
    }

    /// Reads a single net's current word (lane `l` = simulation `l`),
    /// for structural probing — e.g. word-parallel exactly-one checks
    /// over recorded one-hot select banks.
    ///
    /// # Panics
    /// Panics if the tape was compiled with opcode fusion and the net
    /// was elided (see [`SimProgram::compile_fused`]).
    pub fn probe(&self, net: NetId) -> W {
        self.values[self.program.slot(net)]
    }
}

impl BatchSim<u64> {
    /// `u64` fast path of [`BatchSim::read_output_lanes`] for ports of
    /// at most 64 bits: element `l` is lane `l`'s value.
    ///
    /// # Panics
    /// Panics if the port does not exist or is wider than 64 bits.
    pub fn read_output_lanes_u64(&self, name: &str) -> [u64; LANES] {
        let slots = self.program.output_slots(name);
        assert!(
            slots.len() <= 64,
            "output port {name:?} ({} bits) exceeds the 64-bit u64 fast path",
            slots.len()
        );
        let mut out = [0u64; LANES];
        for (bit, &slot) in slots.iter().enumerate() {
            let word = self.values[slot as usize];
            for (lane, dst) in out.iter_mut().enumerate() {
                *dst |= (word >> lane & 1) << bit;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, Simulator, W256, W512};

    #[test]
    fn lanes_are_independent_passthrough() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        b.output_bus("y", &x);
        let mut sim = BatchSim::<u64>::new(b.finish());
        let values: Vec<u64> = (0..64).map(|l| (l * 3) & 0xFF).collect();
        sim.set_input_lanes_u64("x", &values);
        sim.eval();
        let out = sim.read_output_lanes_u64("y");
        assert_eq!(&out[..], &values[..]);
    }

    #[test]
    fn ubig_and_u64_lane_inputs_agree() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let nl = b.finish();

        let xs: Vec<u64> = (0..64).map(|l| (l * 7 + 3) & 0xFF).collect();
        let ys: Vec<u64> = (0..64).map(|l| (l * 13 + 91) & 0xFF).collect();
        let mut fast = BatchSim::<u64>::new(nl.clone());
        fast.set_input_lanes_u64("x", &xs);
        fast.set_input_lanes_u64("y", &ys);
        fast.eval();
        let mut slow = BatchSim::<u64>::new(nl);
        let xb: Vec<Ubig> = xs.iter().map(|&v| Ubig::from(v)).collect();
        let yb: Vec<Ubig> = ys.iter().map(|&v| Ubig::from(v)).collect();
        slow.set_input_lanes("x", &xb);
        slow.set_input_lanes("y", &yb);
        slow.eval();
        for lane in 0..LANES {
            assert_eq!(
                fast.read_output_lane("s", lane),
                slow.read_output_lane("s", lane)
            );
            let sum = (xs[lane] + ys[lane]) & 0xFF;
            assert_eq!(fast.read_output_lane("s", lane).to_u64(), Some(sum));
        }
        assert_eq!(fast.read_output_lanes("s"), slow.read_output_lanes("s"));
    }

    #[test]
    fn every_lane_matches_scalar_adder() {
        let build = || {
            let mut b = Builder::new();
            let x = b.input_bus("x", 6);
            let y = b.input_bus("y", 6);
            let (s, c) = b.add(&x, &y);
            b.output_bus("s", &s);
            b.output_bus("c", &[c]);
            b.finish()
        };
        let xs: Vec<u64> = (0..64).map(|l| (l * 5) & 0x3F).collect();
        let ys: Vec<u64> = (0..64).map(|l| (l * 11 + 1) & 0x3F).collect();
        let mut batch = BatchSim::<u64>::new(build());
        batch.set_input_lanes_u64("x", &xs);
        batch.set_input_lanes_u64("y", &ys);
        batch.eval();
        let mut scalar = Simulator::new(build());
        for lane in 0..LANES {
            scalar.set_input_u64("x", xs[lane]);
            scalar.set_input_u64("y", ys[lane]);
            scalar.eval();
            assert_eq!(batch.read_output_lane("s", lane), scalar.read_output("s"));
            assert_eq!(batch.read_output_lane("c", lane), scalar.read_output("c"));
        }
    }

    #[test]
    fn scalar_and_batch_share_one_program() {
        use crate::program::SimProgram;
        use std::sync::Arc;
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let program = SimProgram::compile_shared(b.finish());
        let mut scalar = Simulator::from_program(Arc::clone(&program));
        let mut batch = BatchSim::<u64>::from_program(Arc::clone(&program));
        scalar.set_input_u64("x", 5);
        scalar.eval();
        batch.set_input_lanes_u64("x", &[5; LANES]);
        batch.eval();
        assert_eq!(
            batch.read_output_lane("y", 11),
            scalar.read_output("y"),
            "one tape, two execution widths"
        );
        assert!(Arc::ptr_eq(scalar.program(), batch.program()));
    }

    #[test]
    fn dffs_latch_per_lane() {
        // x -> DFF -> DFF -> y: each lane sees its own value arrive
        // after exactly two steps, with distinct values per lane.
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let r1 = b.register_bus(&x, false);
        let r2 = b.register_bus(&r1, false);
        b.output_bus("y", &r2);
        let mut sim = BatchSim::<u64>::new(b.finish());

        let first: Vec<u64> = (0..64).map(|l| l & 0x3F).collect();
        let second: Vec<u64> = (0..64).map(|l| (63 - l) & 0x3F).collect();
        sim.set_input_lanes_u64("x", &first);
        sim.step();
        sim.set_input_lanes_u64("x", &second);
        sim.step();
        sim.eval();
        assert_eq!(&sim.read_output_lanes_u64("y")[..], &first[..]);
        sim.step();
        sim.eval();
        assert_eq!(&sim.read_output_lanes_u64("y")[..], &second[..]);
    }

    #[test]
    fn dff_init_and_reset_replicate_across_lanes() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let r = b.dff(x[0], true);
        b.output_bus("y", &[r]);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.eval();
        assert_eq!(sim.read_output_lanes_u64("y"), [1u64; LANES]);
        // Half the lanes pull the flop low, half keep it high.
        let half: Vec<u64> = (0..64).map(|l| (l as u64) & 1).collect();
        sim.set_input_lanes_u64("x", &half);
        sim.step();
        sim.eval();
        assert_eq!(&sim.read_output_lanes_u64("y")[..], &half[..]);
        sim.reset();
        sim.eval();
        assert_eq!(sim.read_output_lanes_u64("y"), [1u64; LANES]);
    }

    #[test]
    fn set_input_lane_touches_only_its_lane() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let mut sim = BatchSim::<u64>::new(b.finish());
        let values: Vec<u64> = (0..64).map(|l| l & 0xF).collect();
        sim.set_input_lanes_u64("x", &values);
        sim.set_input_lane(7, "x", &Ubig::from(0xAu64));
        sim.eval();
        let out = sim.read_output_lanes_u64("y");
        for (lane, &v) in values.iter().enumerate() {
            let want = if lane == 7 { 0xA } else { v };
            assert_eq!(out[lane], want, "lane {lane}");
        }
    }

    #[test]
    fn partial_lane_vectors_zero_the_rest() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.set_input_lanes_u64("x", &[0xF; LANES]);
        sim.eval();
        sim.set_input_lanes_u64("x", &[5, 9]);
        sim.eval();
        let out = sim.read_output_lanes_u64("y");
        assert_eq!(out[0], 5);
        assert_eq!(out[1], 9);
        assert!(out[2..].iter().all(|&v| v == 0), "stale lanes must clear");
    }

    #[test]
    fn word_domain_round_trips_through_lane_domain() {
        // set_input_words is the transposed twin of set_input_lanes:
        // driving the same data through either must be indistinguishable.
        let mut b = Builder::new();
        let x = b.input_bus("x", 5);
        let y = b.input_bus("y", 5);
        let (s, _) = b.add(&x, &y);
        b.output_bus("s", &s);
        let nl = b.finish();

        let xs: Vec<u64> = (0..64).map(|l| (l * 3 + 1) & 0x1F).collect();
        let mut by_lanes = BatchSim::<u64>::new(nl.clone());
        by_lanes.set_input_lanes_u64("x", &xs);
        by_lanes.set_input_lanes_u64("y", &[7; LANES]);
        by_lanes.eval();

        // Transpose xs by hand into per-bit words.
        let words: Vec<u64> = (0..5)
            .map(|b| {
                xs.iter()
                    .enumerate()
                    .fold(0u64, |w, (l, &v)| w | (((v >> b) & 1) << l))
            })
            .collect();
        let mut by_words = BatchSim::<u64>::new(nl);
        by_words.set_input_words("x", &words);
        by_words.set_input_lanes_u64("y", &[7; LANES]);
        by_words.eval();

        assert_eq!(
            by_lanes.read_output_lanes_u64("s"),
            by_words.read_output_lanes_u64("s")
        );
        // And reading back in the word domain matches a hand transpose
        // of the lane-domain view.
        let out_words = by_words.read_output_words("s");
        let lanes = by_words.read_output_lanes_u64("s");
        for (b, &w) in out_words.iter().enumerate() {
            let expect = lanes
                .iter()
                .enumerate()
                .fold(0u64, |acc, (l, &v)| acc | (((v >> b) & 1) << l));
            assert_eq!(w, expect, "output bit {b}");
        }
    }

    #[test]
    fn wide_batches_match_u64_lanes_past_lane_64() {
        // A W256 batch drives 200 distinct adder vectors; every lane
        // must agree with the scalar simulator, including lanes the
        // u64 path cannot reach.
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let y = b.input_bus("y", 6);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let nl = b.finish();
        let xs: Vec<u64> = (0..200).map(|l| (l * 5 + 2) & 0x3F).collect();
        let ys: Vec<u64> = (0..200).map(|l| (l * 11 + 7) & 0x3F).collect();
        let mut wide: BatchSim<W256> = BatchSim::new(nl.clone());
        wide.set_input_lanes_u64("x", &xs);
        wide.set_input_lanes_u64("y", &ys);
        wide.eval();
        let mut scalar = Simulator::new(nl);
        for lane in 0..200 {
            scalar.set_input_u64("x", xs[lane]);
            scalar.set_input_u64("y", ys[lane]);
            scalar.eval();
            assert_eq!(
                wide.read_output_lane("s", lane),
                scalar.read_output("s"),
                "lane {lane}"
            );
            assert_eq!(wide.read_output_lane("c", lane), scalar.read_output("c"));
        }
    }

    #[test]
    fn wide_dffs_latch_per_lane_past_lane_64() {
        // 512-lane two-stage pipeline: values injected in lanes 0, 77
        // and 500 arrive after exactly two steps, independently.
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let r1 = b.register_bus(&x, false);
        let r2 = b.register_bus(&r1, false);
        b.output_bus("y", &r2);
        let mut sim: BatchSim<W512> = BatchSim::new(b.finish());
        for (lane, v) in [(0usize, 13u64), (77, 42), (500, 63)] {
            sim.set_input_lane(lane, "x", &Ubig::from(v));
        }
        sim.step();
        sim.set_input_lanes_u64("x", &[0]);
        sim.step();
        sim.eval();
        for (lane, v) in [(0usize, 13u64), (77, 42), (500, 63)] {
            assert_eq!(sim.read_output_lane("y", lane).to_u64(), Some(v));
        }
        assert_eq!(sim.read_output_lane("y", 1).to_u64(), Some(0));
    }

    #[test]
    #[should_panic(expected = "words do not match input port")]
    fn word_count_must_match_port_width() {
        let mut b = Builder::new();
        b.input_bus("x", 3);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.set_input_words("x", &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit input port")]
    fn lane_width_checked_like_scalar() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.set_input_lanes_u64("x", &[1, 9]);
    }

    #[test]
    #[should_panic(expected = "no input port named")]
    fn unknown_port_panics_like_scalar() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.set_input_lanes_u64("y", &[0]);
    }

    #[test]
    #[should_panic(expected = "exceed the 64-lane batch width")]
    fn more_than_64_lane_values_rejected() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let mut sim = BatchSim::<u64>::new(b.finish());
        sim.set_input_lanes_u64("x", &[0u64; 65]);
    }

    #[test]
    #[should_panic(expected = "257 lane values exceed the 256-lane batch width")]
    fn wide_lane_overflow_names_the_wide_width() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let mut sim: BatchSim<W256> = BatchSim::new(b.finish());
        sim.set_input_lanes_u64("x", &[0u64; 257]);
    }
}
