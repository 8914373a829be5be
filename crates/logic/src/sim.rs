//! Bit-accurate netlist simulation.
//!
//! Since the tape refactor, the scalar simulator is a thin front-end
//! over the compiled [`SimProgram`]: construction lowers the netlist
//! once (levelized opcode stream, flat net slots), and per-instance
//! state is a single flat `bool` value array. A combinational settle is
//! one tape execution. DFFs read their *state slot* during the pass and
//! latch their `d` slot on [`Simulator::step`], which models one rising
//! clock edge — this is what lets the pipelined converter demonstrate
//! the paper's "one permutation per clock period" behaviour with
//! latency `n`.

use crate::netlist::{Netlist, Port};
use crate::program::SimProgram;
use hwperm_bignum::Ubig;
use std::sync::Arc;

/// Looks up an input port, panicking with the port name and the
/// available ports (with widths) on a miss. Shared by the scalar
/// [`Simulator`], the word-level [`crate::BatchSim`] and the
/// [`SimProgram`] slot maps so the front-ends can never drift apart on
/// their diagnostics.
pub(crate) fn lookup_input_port<'a>(netlist: &'a Netlist, name: &str) -> &'a Port {
    netlist.input_port(name).unwrap_or_else(|| {
        let known: Vec<String> = netlist
            .input_ports()
            .iter()
            .map(|p| format!("{:?} ({} bits)", p.name, p.nets.len()))
            .collect();
        let known = if known.is_empty() {
            "none".to_string()
        } else {
            known.join(", ")
        };
        panic!("no input port named {name:?} (inputs: {known})")
    })
}

/// Checks that a driven value fits its port, panicking with the port
/// name and both widths otherwise. `value` is rendered lazily so the
/// hot path pays nothing for it.
pub(crate) fn assert_input_fits(
    name: &str,
    width: usize,
    value_bits: usize,
    value: impl FnOnce() -> String,
) {
    if value_bits > width {
        panic!(
            "value {} ({value_bits} bits) does not fit input port {name:?} ({width} bits)",
            value()
        );
    }
}

/// Evaluates a [`Netlist`] by executing its compiled [`SimProgram`].
#[derive(Debug, Clone)]
pub struct Simulator {
    program: Arc<SimProgram>,
    /// Current value of every slot (inputs, constants and DFF state in
    /// the state region; one slot per tape op above it).
    values: Vec<bool>,
    /// Reusable two-phase latch buffer (one entry per DFF).
    scratch: Vec<bool>,
}

impl Simulator {
    /// Compiles the netlist and creates a simulator with all inputs at
    /// 0 and DFFs at their reset values. To share one compilation
    /// across many instances (or threads), compile once with
    /// [`SimProgram::compile_shared`] and use
    /// [`Simulator::from_program`].
    pub fn new(netlist: Netlist) -> Self {
        Self::from_program(SimProgram::compile_shared(netlist))
    }

    /// A simulator over an already-compiled (possibly shared) tape.
    /// Per-instance cost is one flat value array.
    pub fn from_program(program: Arc<SimProgram>) -> Self {
        let values = program.initial_values();
        Simulator {
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

    /// Drives an input port with the low bits of `value` (LSB-first).
    ///
    /// # Panics
    /// Panics if the port does not exist or `value` does not fit its width.
    pub fn set_input(&mut self, name: &str, value: &Ubig) {
        let slots = self.program.input_slots(name);
        assert_input_fits(name, slots.len(), value.bit_len(), || value.to_string());
        for (i, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = value.bit(i);
        }
    }

    /// Convenience wrapper over [`Simulator::set_input`] for small values.
    pub fn set_input_u64(&mut self, name: &str, value: u64) {
        self.set_input(name, &Ubig::from(value));
    }

    /// Combinational settle: one pass over the compiled tape. Input
    /// slots keep whatever was last driven; DFF slots present their
    /// registered state.
    pub fn eval(&mut self) {
        self.program.exec(&mut self.values);
    }

    /// One clock cycle: combinational settle, then every DFF latches its
    /// `d` input. Inputs should be set *before* the call (they are what
    /// the flops sample at the edge).
    pub fn step(&mut self) {
        self.eval();
        self.program.latch(&mut self.values, &mut self.scratch);
    }

    /// Resets all DFFs to their `init` values (other slots stay stale
    /// until the next [`Simulator::eval`]).
    pub fn reset(&mut self) {
        self.program.reset(&mut self.values);
    }

    /// Reads an output port as an integer (LSB-first). Call after
    /// [`Simulator::eval`] or [`Simulator::step`].
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn read_output(&self, name: &str) -> Ubig {
        let slots = self.program.output_slots(name);
        let mut out = Ubig::zero();
        for (i, &slot) in slots.iter().enumerate() {
            if self.values[slot as usize] {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Reads a single net's current value (for structural debugging).
    pub fn probe(&self, net: crate::NetId) -> bool {
        self.values[self.program.slot(net)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    #[test]
    fn combinational_passthrough() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        b.output_bus("y", &x);
        let mut sim = Simulator::new(b.finish());
        sim.set_input_u64("x", 0xA5);
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(0xA5));
    }

    #[test]
    fn pipeline_latency_two_stages() {
        // x -> DFF -> DFF -> y : value appears after exactly two steps.
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let r1 = b.register_bus(&x, false);
        let r2 = b.register_bus(&r1, false);
        b.output_bus("y", &r2);
        let mut sim = Simulator::new(b.finish());

        sim.set_input_u64("x", 7);
        sim.step(); // r1 <- 7
        assert_eq!(sim.read_output("y").to_u64(), Some(0));
        sim.set_input_u64("x", 3);
        sim.step(); // r1 <- 3, r2 <- 7
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(7));
        sim.step(); // r2 <- 3
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(3));
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
        let mut sim = Simulator::new(b.finish());

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

    #[test]
    fn dff_init_values_respected() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let r = b.dff(x[0], true);
        b.output_bus("y", &[r]);
        let mut sim = Simulator::new(b.finish());
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(1));
        sim.set_input_u64("x", 0);
        sim.step();
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(0));
        sim.reset();
        sim.eval();
        assert_eq!(sim.read_output("y").to_u64(), Some(1));
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
        let mut sim = Simulator::new(b.finish());
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
        let mut sim = Simulator::new(b.finish());
        for _ in 0..3 {
            sim.step();
            sim.eval();
            assert_eq!(sim.read_output("q").to_u64(), Some(1));
        }
    }

    #[test]
    fn instances_share_one_compiled_program() {
        use crate::program::SimProgram;
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let program = SimProgram::compile_shared(b.finish());
        let mut a = Simulator::from_program(Arc::clone(&program));
        let mut c = Simulator::from_program(Arc::clone(&program));
        a.set_input_u64("x", 3);
        c.set_input_u64("x", 9);
        a.eval();
        c.eval();
        assert_eq!(a.read_output("y").to_u64(), Some(3));
        assert_eq!(c.read_output("y").to_u64(), Some(9));
        assert!(Arc::ptr_eq(a.program(), c.program()));
        assert_eq!(Arc::strong_count(&program), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit input port")]
    fn set_input_checks_width() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let nl = b.finish();
        let mut sim = Simulator::new(nl);
        sim.set_input_u64("x", 9);
    }

    #[test]
    #[should_panic(expected = "no input port")]
    fn unknown_port_panics() {
        let mut b = Builder::new();
        b.input_bus("x", 2);
        let mut sim = Simulator::new(b.finish());
        sim.set_input_u64("y", 0);
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
    fn set_input_panic_messages_name_port_and_width() {
        // Both failure paths must identify the offending port and its
        // width so a misdriven testbench is diagnosable from the message
        // alone. Pin the exact text: batch.rs shares these helpers, so a
        // drift here would silently change two APIs at once.
        let mut b = Builder::new();
        b.input_bus("x", 2);
        b.input_bus("sel", 1);
        let nl = b.finish();

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let oversize = {
            let nl = nl.clone();
            panic_message(move || Simulator::new(nl).set_input_u64("x", 9))
        };
        let missing = {
            let nl = nl.clone();
            panic_message(move || Simulator::new(nl).set_input_u64("y", 0))
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
}
