//! Bit-accurate netlist simulation at any lane width: 1, 64, 256 or
//! 512 independent simulations per pass.
//!
//! A [`BatchSim`] executes the compiled [`SimProgram`] over one flat
//! array of [`SimWord`]s, one word per value slot; lane `l` of every
//! word is one complete simulation. `BatchSim<bool>` is the scalar
//! simulator, `BatchSim<u64>` settles 64 input vectors per forward
//! pass, and [`crate::W256`] / [`crate::W512`] settle 256 / 512. Gate
//! semantics map directly onto word ops (`Not` → `!`, `And` → `&`,
//! `Mux` → `(sel & b) | (!sel & a)`), and DFFs latch per lane: lane `l`
//! of a register word is the state of lane `l`'s machine. One
//! [`BatchSim::step`] models a rising clock edge (combinational settle,
//! then every DFF latches its `d` input), which is what lets the
//! pipelined converter show the paper's one permutation per clock
//! period after a latency of `n`, in every lane at once.
//!
//! Every width runs the same tape, so scalar and batch evaluation
//! cannot diverge, and many instances (one per worker thread in
//! `hwperm-verify`'s sharded sweeps) share one compilation through
//! `Arc<SimProgram>`. This is the only type that owns a tape value
//! array: the fault overlays in `hwperm-faults` interpose on a
//! `BatchSim`'s wave through [`BatchSim::tape_mut`], and the SAT
//! counterexample replays in `hwperm-verify` run on `BatchSim<bool>`.
//!
//! Ports are driven in every lane at once ([`BatchSim::set_input`],
//! [`BatchSim::set_input_u64`]), one value per lane
//! ([`BatchSim::set_input_lanes`], [`BatchSim::set_input_lanes_u64`])
//! or one word per port bit ([`BatchSim::set_input_words`]), and read
//! back one lane at a time ([`BatchSim::read_output_lane`],
//! [`BatchSim::read_output_lane_u64`], and `read_output` on
//! `BatchSim<bool>`) or 64 lanes per call
//! ([`BatchSim::read_output_lanes_u64`] on `BatchSim<u64>`). The `u64`
//! paths avoid per-index allocations on the hot loops in
//! `hwperm-verify`.

use crate::netlist::{NetId, Netlist};
use crate::program::{SimProgram, SimWord};
use hwperm_bignum::Ubig;
use std::sync::Arc;

/// Number of independent simulation lanes of the default
/// `BatchSim<u64>`: one per bit of the word stored for each net.
/// Width-generic code should use [`SimWord::LANES`] instead.
pub const LANES: usize = 64;

/// Checks that a driven value fits its port, panicking with the port
/// name and both widths otherwise. `value` is rendered lazily so the
/// hot path pays nothing for it.
fn assert_input_fits(name: &str, width: usize, value_bits: usize, value: impl FnOnce() -> String) {
    if value_bits > width {
        panic!(
            "value {} ({value_bits} bits) does not fit input port {name:?} ({width} bits)",
            value()
        );
    }
}

/// Bit `i` of `value`, `false` past bit 63 (ports may be wider than
/// the `u64` that drives them).
fn u64_bit(value: u64, i: usize) -> bool {
    i < 64 && (value >> i) & 1 == 1
}

/// Evaluates a [`Netlist`] on [`SimWord::LANES`] independent input
/// vectors per forward pass: 1 for `BatchSim<bool>`, 64 for
/// `BatchSim<u64>`, 256 / 512 for `BatchSim<W256>` / `BatchSim<W512>`.
#[derive(Debug, Clone)]
pub struct BatchSim<W: SimWord> {
    program: Arc<SimProgram>,
    /// Current word of every slot (inputs, constants and DFF state in
    /// the state region; one slot per tape op above it); lane `l` is
    /// the slot's value in simulation `l`.
    values: Vec<W>,
    /// Reusable two-phase latch buffer (one entry per DFF).
    scratch: Vec<W>,
}

impl<W: SimWord> BatchSim<W> {
    /// Compiles the netlist and creates a simulator with all inputs at
    /// 0 in every lane and DFFs at their reset values (replicated
    /// across lanes). To share one compilation across many instances
    /// (or threads), compile once with [`SimProgram::compile_shared`]
    /// (or [`SimProgram::compile_fused_shared`] for the opcode-fused
    /// tape) and use [`BatchSim::from_program`].
    pub fn new(netlist: Netlist) -> Self {
        Self::from_program(SimProgram::compile_shared(netlist))
    }

    /// A simulator over an already-compiled (possibly shared) tape.
    /// Per-instance cost is one flat word array — this is what each
    /// worker thread of a sharded exhaustive sweep constructs.
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

    /// Lends the compiled tape and this simulator's value array
    /// together, for an external driver that interposes on the wave —
    /// the fault overlays in `hwperm-faults` force slots between
    /// [`SimProgram::exec_range`] segments. Element `s` of the array is
    /// slot `s` of the tape (see [`SimProgram::slot`]).
    pub fn tape_mut(&mut self) -> (&SimProgram, &mut [W]) {
        (&self.program, &mut self.values)
    }

    /// The read-only twin of [`BatchSim::tape_mut`]: the compiled tape
    /// and this simulator's value array, slot-indexed. A fault campaign
    /// keeps a copy of a fault-free settle from here to undo each
    /// fault's cone evaluation.
    pub fn tape(&self) -> (&SimProgram, &[W]) {
        (&self.program, &self.values)
    }

    /// Drives an input port with the low bits of `value` (LSB-first),
    /// the same value in every lane.
    ///
    /// # Panics
    /// Panics if the port does not exist or `value` does not fit its
    /// width.
    pub fn set_input(&mut self, name: &str, value: &Ubig) {
        let slots = self.program.input_slots(name);
        assert_input_fits(name, slots.len(), value.bit_len(), || value.to_string());
        for (bit, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = W::splat(value.bit(bit));
        }
    }

    /// `u64` fast path of [`BatchSim::set_input`]: drives every lane
    /// with `value`, without allocating.
    ///
    /// # Panics
    /// Same conditions (and messages) as [`BatchSim::set_input`].
    pub fn set_input_u64(&mut self, name: &str, value: u64) {
        let slots = self.program.input_slots(name);
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        assert_input_fits(name, slots.len(), bits, || value.to_string());
        for (bit, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = W::splat(u64_bit(value, bit));
        }
    }

    /// Panics unless `count` lane values fit the batch width.
    fn assert_lane_count(count: usize) {
        assert!(
            count <= W::LANES,
            "{count} lane values exceed the {}-lane batch width",
            W::LANES
        );
    }

    /// Drives an input port with one value per lane (LSB-first per
    /// value, lane `l` takes `values[l]`). Lanes at and beyond
    /// `values.len()` are driven to 0.
    ///
    /// # Panics
    /// Panics if the port does not exist, more than [`SimWord::LANES`]
    /// values are supplied, or any value does not fit the port width
    /// (with the same message as [`BatchSim::set_input`]).
    pub fn set_input_lanes(&mut self, name: &str, values: &[Ubig]) {
        Self::assert_lane_count(values.len());
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
        Self::assert_lane_count(values.len());
        let slots = self.program.input_slots(name);
        for &value in values {
            let bits = (u64::BITS - value.leading_zeros()) as usize;
            assert_input_fits(name, slots.len(), bits, || value.to_string());
        }
        for (bit, &slot) in slots.iter().enumerate() {
            let mut word = W::zero();
            for (lane, &value) in values.iter().enumerate() {
                if u64_bit(value, bit) {
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

    /// Combinational settle: one pass over the compiled tape, all
    /// lanes at once. Input slots keep whatever was last driven; DFF
    /// slots present their registered state.
    pub fn eval(&mut self) {
        self.program.exec(&mut self.values);
    }

    /// Clock edge without a settle: every DFF latches its `d` slot as
    /// last settled, independently per lane.
    pub fn latch(&mut self) {
        self.program.latch(&mut self.values, &mut self.scratch);
    }

    /// One clock cycle: [`BatchSim::eval`], then [`BatchSim::latch`].
    /// Inputs should be set *before* the call (they are what the flops
    /// sample at the edge); lane `l` advances exactly as a scalar
    /// simulator fed lane `l`'s input sequence.
    pub fn step(&mut self) {
        self.eval();
        self.latch();
    }

    /// Resets all DFFs to their `init` values in every lane (other
    /// slots stay stale until the next [`BatchSim::eval`]).
    pub fn reset(&mut self) {
        self.program.reset(&mut self.values);
    }

    /// Panics unless `lane` is a lane of this width.
    fn assert_lane(lane: usize) {
        assert!(
            lane < W::LANES,
            "lane {lane} out of range (batch has {} lanes)",
            W::LANES
        );
    }

    /// Slots of an output port read through a `u64` path.
    fn output_slots_u64(&self, name: &str) -> &[u32] {
        let slots = self.program.output_slots(name);
        assert!(
            slots.len() <= 64,
            "output port {name:?} ({} bits) exceeds the 64-bit u64 fast path",
            slots.len()
        );
        slots
    }

    /// Reads an output port in one lane (LSB-first). Call after
    /// [`BatchSim::eval`] or [`BatchSim::step`].
    ///
    /// # Panics
    /// Panics if the port does not exist or `lane >= W::LANES`.
    pub fn read_output_lane(&self, name: &str, lane: usize) -> Ubig {
        Self::assert_lane(lane);
        let mut out = Ubig::zero();
        for (bit, &slot) in self.program.output_slots(name).iter().enumerate() {
            if self.values[slot as usize].lane(lane) {
                out.set_bit(bit, true);
            }
        }
        out
    }

    /// `u64` fast path of [`BatchSim::read_output_lane`] for ports of
    /// at most 64 bits.
    ///
    /// # Panics
    /// Panics if the port does not exist, is wider than 64 bits, or
    /// `lane >= W::LANES`.
    pub fn read_output_lane_u64(&self, name: &str, lane: usize) -> u64 {
        Self::assert_lane(lane);
        self.output_slots_u64(name)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (bit, &slot)| {
                acc | (u64::from(self.values[slot as usize].lane(lane)) << bit)
            })
    }

    /// Reads a single net's current word (lane `l` = simulation `l`),
    /// for structural probing — e.g. word-parallel exactly-one checks
    /// over recorded one-hot select banks, or VCD tracing.
    ///
    /// # Panics
    /// Panics if the tape was compiled with opcode fusion and the net
    /// was elided (see [`SimProgram::compile_fused`]).
    pub fn probe(&self, net: NetId) -> W {
        self.values[self.program.slot(net)]
    }
}

impl BatchSim<bool> {
    /// Reads an output port as an integer (LSB-first) — the scalar
    /// simulator's [`BatchSim::read_output_lane`]. Call after
    /// [`BatchSim::eval`] or [`BatchSim::step`].
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn read_output(&self, name: &str) -> Ubig {
        self.read_output_lane(name, 0)
    }
}

impl BatchSim<u64> {
    /// Reads a port of at most 64 bits in every lane: element `l` is
    /// lane `l`'s value.
    ///
    /// # Panics
    /// Panics if the port does not exist or is wider than 64 bits.
    pub fn read_output_lanes_u64(&self, name: &str) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        for (bit, &slot) in self.output_slots_u64(name).iter().enumerate() {
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
    use crate::{Builder, W256, W512};

    /// `x` (`width` bits) wired straight to `y`.
    fn passthrough(width: usize) -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", width);
        b.output_bus("y", &x);
        b.finish()
    }

    /// Every lane's value of a port of at most 64 bits.
    fn lanes_u64<W: SimWord>(sim: &BatchSim<W>, name: &str) -> Vec<u64> {
        (0..W::LANES)
            .map(|lane| sim.read_output_lane_u64(name, lane))
            .collect()
    }

    /// Captures the panic message from `f`, which must panic with a
    /// `String` or `&str` payload.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("closure should panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload should be a string")
    }

    #[test]
    fn combinational_passthrough() {
        let mut sim = BatchSim::<bool>::new(passthrough(8));
        sim.set_input_u64("x", 0xA5);
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(0xA5));
    }

    #[test]
    fn lanes_are_independent_passthrough() {
        let mut sim = BatchSim::<u64>::new(passthrough(8));
        let values: Vec<u64> = (0..64).map(|l| (l * 3) & 0xFF).collect();
        sim.set_input_lanes_u64("x", &values);
        sim.eval();
        let out = sim.read_output_lanes_u64("y");
        assert_eq!(&out[..], &values[..]);
    }

    #[test]
    fn set_input_drives_every_lane() {
        let mut sim = BatchSim::<u64>::new(passthrough(4));
        let values: Vec<u64> = (0..64).map(|l| l & 0xF).collect();
        sim.set_input_lanes_u64("x", &values);
        sim.eval();
        assert_eq!(&sim.read_output_lanes_u64("y")[..], &values[..]);
        sim.set_input("x", &Ubig::from(0xAu64));
        sim.eval();
        assert_eq!(sim.read_output_lanes_u64("y"), [0xA; LANES]);
        sim.set_input_u64("x", 5);
        sim.eval();
        assert_eq!(sim.read_output_lanes_u64("y"), [5; LANES]);
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
            assert_eq!(fast.read_output_lane_u64("s", lane), sum);
        }
    }

    /// Drives `lanes` distinct vectors through a 6-bit adder in one
    /// batch; every lane must agree with the scalar simulator.
    fn adder_lanes_match_scalar<W: SimWord>(lanes: usize) {
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let y = b.input_bus("y", 6);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let nl = b.finish();
        let xs: Vec<u64> = (0..lanes as u64).map(|l| (l * 5 + 2) & 0x3F).collect();
        let ys: Vec<u64> = (0..lanes as u64).map(|l| (l * 11 + 7) & 0x3F).collect();
        let mut batch = BatchSim::<W>::new(nl.clone());
        batch.set_input_lanes_u64("x", &xs);
        batch.set_input_lanes_u64("y", &ys);
        batch.eval();
        let mut scalar = BatchSim::<bool>::new(nl);
        for lane in 0..lanes {
            scalar.set_input_u64("x", xs[lane]);
            scalar.set_input_u64("y", ys[lane]);
            scalar.eval();
            for port in ["s", "c"] {
                assert_eq!(
                    batch.read_output_lane(port, lane),
                    scalar.read_output(port),
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    fn every_lane_matches_scalar_adder() {
        adder_lanes_match_scalar::<u64>(LANES);
        // 200 W256 lanes, past anything a u64 batch can reach.
        adder_lanes_match_scalar::<W256>(200);
    }

    #[test]
    fn scalar_and_batch_share_one_program() {
        let program = SimProgram::compile_shared(passthrough(4));
        let mut a = BatchSim::<bool>::from_program(Arc::clone(&program));
        let mut c = BatchSim::<bool>::from_program(Arc::clone(&program));
        let mut batch = BatchSim::<u64>::from_program(Arc::clone(&program));
        a.set_input_u64("x", 3);
        c.set_input_u64("x", 9);
        batch.set_input_u64("x", 5);
        a.eval();
        c.eval();
        batch.eval();
        assert_eq!(a.read_output("y").to_u64(), Some(3));
        assert_eq!(c.read_output("y").to_u64(), Some(9));
        assert_eq!(
            batch.read_output_lane_u64("y", 11),
            5,
            "one tape, two execution widths"
        );
        assert!(Arc::ptr_eq(a.program(), c.program()));
        assert!(Arc::ptr_eq(a.program(), batch.program()));
        assert_eq!(Arc::strong_count(&program), 4);
    }

    /// x -> DFF -> DFF -> y: each lane sees its own value arrive after
    /// exactly two steps, with distinct values per lane.
    fn two_stage_pipeline_latches_per_lane<W: SimWord>() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let r1 = b.register_bus(&x, false);
        let r2 = b.register_bus(&r1, false);
        b.output_bus("y", &r2);
        let mut sim = BatchSim::<W>::new(b.finish());

        let first: Vec<u64> = (0..W::LANES as u64).map(|l| (l + 7) & 0x3F).collect();
        let second: Vec<u64> = (0..W::LANES as u64).map(|l| (63 - l) & 0x3F).collect();
        sim.set_input_lanes_u64("x", &first);
        sim.step(); // r1 <- first
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), vec![0; W::LANES]);
        sim.set_input_lanes_u64("x", &second);
        sim.step(); // r1 <- second, r2 <- first
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), first);
        sim.step(); // r2 <- second
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), second);
    }

    #[test]
    fn dffs_latch_per_lane() {
        two_stage_pipeline_latches_per_lane::<bool>();
        two_stage_pipeline_latches_per_lane::<u64>();
    }

    #[test]
    fn one_result_per_clock_throughput() {
        // A 3-deep pipeline fed a new value every cycle emits a new value
        // every cycle after the fill latency — the paper's headline
        // property.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let mut bus = x;
        for _ in 0..3 {
            bus = b.register_bus(&bus, false);
        }
        b.output_bus("y", &bus);
        let mut sim = BatchSim::<bool>::new(b.finish());

        let feed: Vec<u64> = (10..30).collect();
        let mut seen = Vec::new();
        for (cycle, &v) in feed.iter().enumerate() {
            sim.set_input_u64("x", v);
            sim.step();
            sim.eval();
            if cycle >= 3 {
                seen.push(sim.read_output("y").to_u64().unwrap());
            }
        }
        // After the 3-cycle fill, outputs track inputs exactly one per clock.
        assert_eq!(seen, feed[1..feed.len() - 2].to_vec());
    }

    /// A flop with init 1: every lane starts high, lanes driven low
    /// drop after one step, and a reset restores every lane.
    fn dff_init_and_reset_replicate<W: SimWord>() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let r = b.dff(x[0], true);
        b.output_bus("y", &[r]);
        let mut sim = BatchSim::<W>::new(b.finish());
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), vec![1; W::LANES]);
        // Even lanes (the scalar lane among them) pull the flop low.
        let half: Vec<u64> = (0..W::LANES as u64).map(|l| l & 1).collect();
        sim.set_input_lanes_u64("x", &half);
        sim.step();
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), half);
        sim.reset();
        sim.eval();
        assert_eq!(lanes_u64(&sim, "y"), vec![1; W::LANES]);
    }

    #[test]
    fn dff_init_and_reset_replicate_across_lanes() {
        dff_init_and_reset_replicate::<bool>();
        dff_init_and_reset_replicate::<u64>();
    }

    #[test]
    fn dff_feedback_toggle() {
        // Classic divide-by-two: q <- NOT q every clock, built with the
        // deferred-DFF pattern the LFSRs use.
        let mut b = Builder::new();
        let q = b.dff_deferred(false);
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output_bus("q", &[q]);
        let mut sim = BatchSim::<bool>::new(b.finish());
        let mut seen = Vec::new();
        for _ in 0..6 {
            sim.eval();
            seen.push(sim.read_output("q").to_u64().unwrap());
            sim.step();
        }
        assert_eq!(seen, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn deferred_dff_holds_until_connected() {
        let mut b = Builder::new();
        let q = b.dff_deferred(true);
        b.output_bus("q", &[q]);
        let mut sim = BatchSim::<bool>::new(b.finish());
        for _ in 0..3 {
            sim.step();
            sim.eval();
            assert_eq!(sim.read_output("q").to_u64(), Some(1));
        }
    }

    #[test]
    fn partial_lane_vectors_zero_the_rest() {
        let mut sim = BatchSim::<u64>::new(passthrough(4));
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
        let injected = [(0usize, 13u64), (77, 42), (500, 63)];
        let mut first = vec![0u64; 512];
        for (lane, v) in injected {
            first[lane] = v;
        }
        sim.set_input_lanes_u64("x", &first);
        sim.step();
        sim.set_input_lanes_u64("x", &[0]);
        sim.step();
        sim.eval();
        for (lane, v) in injected {
            assert_eq!(sim.read_output_lane("y", lane).to_u64(), Some(v));
        }
        assert_eq!(sim.read_output_lane("y", 1).to_u64(), Some(0));
    }

    #[test]
    #[should_panic(expected = "words do not match input port")]
    fn word_count_must_match_port_width() {
        let mut sim = BatchSim::<u64>::new(passthrough(3));
        sim.set_input_words("x", &[0, 0]);
    }

    #[test]
    fn set_input_checks_width() {
        // The every-lane and per-lane drivers share one check, with one
        // message, at every width.
        let nl = passthrough(2);
        let scalar = {
            let nl = nl.clone();
            panic_message(move || BatchSim::<bool>::new(nl).set_input_u64("x", 9))
        };
        let batch =
            panic_message(move || BatchSim::<u64>::new(nl).set_input_lanes_u64("x", &[1, 9]));
        assert!(scalar.contains("does not fit input port"), "{scalar}");
        assert_eq!(scalar, batch);
    }

    #[test]
    fn unknown_port_panics() {
        let nl = passthrough(2);
        let scalar = {
            let nl = nl.clone();
            panic_message(move || BatchSim::<bool>::new(nl).set_input_u64("z", 0))
        };
        let batch = panic_message(move || BatchSim::<u64>::new(nl).set_input_lanes_u64("z", &[0]));
        assert!(scalar.contains("no input port named"), "{scalar}");
        assert_eq!(scalar, batch);
    }

    #[test]
    fn set_input_panic_messages_name_port_and_width() {
        // Both failure paths must identify the offending port and its
        // width so a misdriven testbench is diagnosable from the message
        // alone. Pin the exact text: every input driver shares these
        // checks, so a drift here would silently change them all.
        let mut b = Builder::new();
        b.input_bus("x", 2);
        b.input_bus("sel", 1);
        let nl = b.finish();

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let oversize = {
            let nl = nl.clone();
            panic_message(move || BatchSim::<bool>::new(nl).set_input_u64("x", 9))
        };
        let missing = {
            let nl = nl.clone();
            panic_message(move || BatchSim::<bool>::new(nl).set_input_u64("y", 0))
        };
        std::panic::set_hook(hook);

        assert_eq!(
            oversize,
            "value 9 (4 bits) does not fit input port \"x\" (2 bits)"
        );
        assert_eq!(
            missing,
            "no input port named \"y\" (inputs: \"x\" (2 bits), \"sel\" (1 bits))"
        );
    }

    #[test]
    #[should_panic(expected = "exceed the 64-lane batch width")]
    fn more_than_64_lane_values_rejected() {
        let mut sim = BatchSim::<u64>::new(passthrough(2));
        sim.set_input_lanes_u64("x", &[0u64; 65]);
    }

    #[test]
    #[should_panic(expected = "257 lane values exceed the 256-lane batch width")]
    fn wide_lane_overflow_names_the_wide_width() {
        let mut sim: BatchSim<W256> = BatchSim::new(passthrough(2));
        sim.set_input_lanes_u64("x", &[0u64; 257]);
    }
}
