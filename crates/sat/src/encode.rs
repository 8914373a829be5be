//! Tseitin lowering of the compiled simulation tape
//! ([`hwperm_logic::SimProgram`]) to CNF.
//!
//! The tape is already exactly what an encoder wants: levelized,
//! slot-resolved, constants baked, DFFs reduced to `(q, d)` slot
//! pairs. Encoding is therefore a single linear walk — op `j` defines
//! the literal for slot `comb_base + j` from already-defined operand
//! literals, through the memoized gate helpers of [`Cnf`] so shared
//! structure (and, in a miter, the whole shared circuit) collapses.
//!
//! Two entry points:
//!
//! - [`encode_combinational`] — one frame; input bits and DFF outputs
//!   become free variables (a register-free netlist has none of the
//!   latter, making this the plain combinational encoding; for a
//!   sequential netlist it encodes the single-cycle transition
//!   relation, which is what cone-of-influence style queries want).
//! - [`encode_unrolled`] — bounded model checking: `k + 1` frames with
//!   frame 0's registers pinned to their reset values and frame
//!   `t + 1`'s register slots equated to frame `t`'s settled `d`
//!   literals. Inputs are fresh per frame unless the caller ties them.
//!
//! Both return a [`FrameLits`] per frame: the full slot → literal map,
//! so ports resolve through the tape's own slot maps
//! (`program.input_slots(name)[bit]` indexes straight into it).

use crate::cnf::Cnf;
use crate::solver::Lit;
use hwperm_logic::{SimProgram, TapeOp};

/// The literal for every value-array slot of one encoded frame.
/// Index with the tape's slot numbers (e.g.
/// `frame.slots[program.output_slots("perm")[bit] as usize]`).
#[derive(Debug, Clone)]
pub struct FrameLits {
    /// Slot → literal, length `program.slot_count()`.
    pub slots: Vec<Lit>,
}

impl FrameLits {
    /// Literals of a named input port, LSB first.
    pub fn input(&self, program: &SimProgram, name: &str) -> Vec<Lit> {
        program
            .input_slots(name)
            .iter()
            .map(|&s| self.slots[s as usize])
            .collect()
    }

    /// Literals of a named output port, LSB first.
    pub fn output(&self, program: &SimProgram, name: &str) -> Vec<Lit> {
        program
            .output_slots(name)
            .iter()
            .map(|&s| self.slots[s as usize])
            .collect()
    }
}

/// Encodes the combinational wave of one frame given literals for the
/// state region (`state[slot]` must be `Some` for every input, DFF and
/// constant slot; constants are filled in by the callers below).
fn encode_wave(program: &SimProgram, cnf: &mut Cnf, state: Vec<Option<Lit>>) -> FrameLits {
    let comb_base = program.comb_base();
    let mut slots: Vec<Lit> = Vec::with_capacity(program.slot_count());
    for (slot, lit) in state.iter().enumerate().take(comb_base) {
        match lit {
            Some(l) => slots.push(*l),
            None => unreachable!("state slot {slot} left undefined"),
        }
    }
    for j in 0..program.op_count() {
        let lit = match program.op(j) {
            TapeOp::Not { a } => !slots[a as usize],
            TapeOp::And { a, b } => cnf.and(slots[a as usize], slots[b as usize]),
            TapeOp::Or { a, b } => cnf.or(slots[a as usize], slots[b as usize]),
            TapeOp::Xor { a, b } => cnf.xor(slots[a as usize], slots[b as usize]),
            TapeOp::Mux { sel, a, b } => {
                cnf.mux(slots[sel as usize], slots[a as usize], slots[b as usize])
            }
            // Fused opcodes (tapes from `SimProgram::compile_fused`)
            // re-expand through the memoized helpers: negations are
            // free literal flips in CNF, so a fused tape encodes to
            // the same clause set as its canonical twin.
            TapeOp::AndNot { a, b } => cnf.and(slots[a as usize], !slots[b as usize]),
            TapeOp::OrNot { a, b } => cnf.or(slots[a as usize], !slots[b as usize]),
            TapeOp::Nand { a, b } => !cnf.and(slots[a as usize], slots[b as usize]),
            TapeOp::Nor { a, b } => !cnf.or(slots[a as usize], slots[b as usize]),
            TapeOp::Xnor { a, b } => !cnf.xor(slots[a as usize], slots[b as usize]),
            TapeOp::And3 { a, b, c } => {
                let ab = cnf.and(slots[a as usize], slots[b as usize]);
                cnf.and(ab, slots[c as usize])
            }
            TapeOp::Or3 { a, b, c } => {
                let ab = cnf.or(slots[a as usize], slots[b as usize]);
                cnf.or(ab, slots[c as usize])
            }
        };
        debug_assert_eq!(slots.len(), comb_base + j);
        slots.push(lit);
    }
    FrameLits { slots }
}

/// The shared state-region scaffold: constants baked, everything else
/// (inputs, DFF outputs) left to the caller.
fn state_scaffold(program: &SimProgram, cnf: &mut Cnf) -> Vec<Option<Lit>> {
    let mut state: Vec<Option<Lit>> = vec![None; program.comb_base()];
    for (slot, value) in program.const_slots() {
        state[slot as usize] = Some(cnf.constant(value));
    }
    state
}

/// Fills every still-undefined state slot with a fresh variable.
fn fill_free(state: &mut [Option<Lit>], cnf: &mut Cnf) {
    for slot in state.iter_mut() {
        if slot.is_none() {
            *slot = Some(cnf.new_var());
        }
    }
}

/// Encodes one combinational frame: constants baked, inputs and DFF
/// output slots free variables. For a register-free netlist this is
/// the complete input/output relation of the circuit.
pub fn encode_combinational(program: &SimProgram, cnf: &mut Cnf) -> FrameLits {
    encode_combinational_with(program, cnf, &[])
}

/// [`encode_combinational`] with selected input ports bound to
/// caller-supplied literals instead of fresh variables — the miter
/// construction: encode circuit A, then encode circuit B with A's
/// input literals, and the shared inputs (plus the gate memo) collapse
/// the common structure. Ports not named in `bound` get fresh
/// variables.
///
/// # Panics
/// Panics if a bound name is not an input port of the program's
/// netlist or its literal count does not match the port width.
pub fn encode_combinational_with(
    program: &SimProgram,
    cnf: &mut Cnf,
    bound: &[(String, Vec<Lit>)],
) -> FrameLits {
    let mut state = state_scaffold(program, cnf);
    for (name, lits) in bound {
        let slots = program.input_slots(name);
        assert_eq!(
            slots.len(),
            lits.len(),
            "bound port {name:?}: {} literals for a {}-bit port",
            lits.len(),
            slots.len()
        );
        for (&slot, &lit) in slots.iter().zip(lits) {
            state[slot as usize] = Some(lit);
        }
    }
    fill_free(&mut state, cnf);
    encode_wave(program, cnf, state)
}

/// Bounded model checking unroll: `frames` copies of the combinational
/// wave chained through the DFF slot pairs. Frame 0's registers hold
/// their reset values; frame `t + 1`'s register slot takes frame `t`'s
/// settled `d` literal (the tape analogue of
/// [`SimProgram::latch`]). Inputs are fresh variables in every frame;
/// when `tie_inputs` is set, all frames share frame 0's input literals
/// instead (the "hold the input steady and let the pipeline drain"
/// query shape).
///
/// # Panics
/// Panics if `frames == 0`.
pub fn encode_unrolled(
    program: &SimProgram,
    cnf: &mut Cnf,
    frames: usize,
    tie_inputs: bool,
) -> Vec<FrameLits> {
    assert!(frames > 0, "BMC unroll needs at least one frame");
    let mut out: Vec<FrameLits> = Vec::with_capacity(frames);
    for t in 0..frames {
        let mut state = state_scaffold(program, cnf);
        for pair in program.dff_slot_pairs() {
            state[pair.q as usize] = Some(match out.last() {
                // Frame 0: reset values, exactly like `initial_values`.
                None => cnf.constant(pair.init),
                // Later frames: latch the previous frame's settled d.
                Some(prev) => prev.slots[pair.d as usize],
            });
        }
        if tie_inputs && t > 0 {
            for port in program.netlist().input_ports() {
                let name = port.name.clone();
                for &slot in program.input_slots(&name) {
                    state[slot as usize] = Some(out[0].slots[slot as usize]);
                }
            }
        }
        fill_free(&mut state, cnf);
        out.push(encode_wave(program, cnf, state));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{lit_value, read_word};
    use crate::solver::SatResult;
    use hwperm_logic::{Builder, SimProgram};

    fn adder_program() -> SimProgram {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        SimProgram::compile(b.finish())
    }

    #[test]
    fn adder_encoding_matches_arithmetic() {
        let p = adder_program();
        for (xv, yv) in [(0u64, 0u64), (3, 5), (9, 9), (15, 15), (7, 12)] {
            let mut cnf = Cnf::new();
            let frame = encode_combinational(&p, &mut cnf);
            for (bits, v) in [(frame.input(&p, "x"), xv), (frame.input(&p, "y"), yv)] {
                for (i, &l) in bits.iter().enumerate() {
                    cnf.assert_lit(if (v >> i) & 1 == 1 { l } else { !l });
                }
            }
            let (res, _) = cnf.solve();
            let m = res.model().expect("pinned inputs are satisfiable");
            let s = read_word(m, &frame.output(&p, "s"));
            let c = read_word(m, &frame.output(&p, "c"));
            assert_eq!(s | (c << 4), xv + yv, "{xv} + {yv}");
        }
    }

    #[test]
    fn impossible_output_is_unsat() {
        // 4-bit x + y with both inputs ≤ 15 can never carry out of bit
        // 4 while the low sum bits are all 1 — 31 is the max total.
        let p = adder_program();
        let mut cnf = Cnf::new();
        let frame = encode_combinational(&p, &mut cnf);
        for &l in &frame.output(&p, "s") {
            cnf.assert_lit(l);
        }
        cnf.assert_lit(frame.output(&p, "c")[0]);
        let (res, _) = cnf.solve();
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn unrolled_shift_register_delays_by_k() {
        // x -> q1 -> q2, so frame t's output equals frame t-2's input.
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q1 = b.dff(x[0], false);
        let q2 = b.dff(q1, true);
        b.output_bus("y", &[q2]);
        let p = SimProgram::compile(b.finish());
        let mut cnf = Cnf::new();
        let frames = encode_unrolled(&p, &mut cnf, 4, false);
        // Frame 0 output is the q2 reset value (true), frame 1 output
        // is q1's reset (false), regardless of inputs.
        let (res, _) = cnf.solve();
        let m = res.model().expect("free inputs are satisfiable").to_vec();
        assert!(lit_value(&m, frames[0].output(&p, "y")[0]));
        assert!(!lit_value(&m, frames[1].output(&p, "y")[0]));
        // Frame 3's output differing from frame 1's input is UNSAT.
        let mut q = cnf.clone();
        let want = q.xor(frames[1].input(&p, "x")[0], frames[3].output(&p, "y")[0]);
        q.assert_lit(want);
        let (res, _) = q.solve();
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn tied_inputs_share_frame0_vars() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let q0 = b.dff(x[0], false);
        let q1 = b.dff(x[1], false);
        b.output_bus("y", &[q0, q1]);
        let p = SimProgram::compile(b.finish());
        let mut cnf = Cnf::new();
        let frames = encode_unrolled(&p, &mut cnf, 3, true);
        for t in 1..3 {
            assert_eq!(frames[t].input(&p, "x"), frames[0].input(&p, "x"));
        }
        // With tied inputs, frame 2's output must equal the input.
        let mut q = cnf.clone();
        let miter = {
            let a = q.xor(frames[0].input(&p, "x")[0], frames[2].output(&p, "y")[0]);
            let b2 = q.xor(frames[0].input(&p, "x")[1], frames[2].output(&p, "y")[1]);
            q.or(a, b2)
        };
        q.assert_lit(miter);
        let (res, _) = q.solve();
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn encoding_agrees_with_simulator_on_a_mixed_netlist() {
        use hwperm_logic::BatchSim;
        let build = || {
            let mut b = Builder::new();
            let x = b.input_bus("x", 3);
            let y = b.input_bus("y", 3);
            let t = b.constant(true);
            let n0 = b.not(x[0]);
            let a0 = b.and(n0, y[0]);
            let o0 = b.or(a0, x[1]);
            let x0 = b.xor(o0, y[1]);
            let m0 = b.mux(x[2], x0, t);
            let m1 = b.mux(y[2], m0, a0);
            b.output_bus("z", &[x0, m0, m1]);
            b.finish()
        };
        let p = SimProgram::compile(build());
        let mut sim = BatchSim::<bool>::new(build());
        for xv in 0..8u64 {
            for yv in 0..8u64 {
                let mut cnf = Cnf::new();
                let frame = encode_combinational(&p, &mut cnf);
                for (bits, v) in [(frame.input(&p, "x"), xv), (frame.input(&p, "y"), yv)] {
                    for (i, &l) in bits.iter().enumerate() {
                        cnf.assert_lit(if (v >> i) & 1 == 1 { l } else { !l });
                    }
                }
                let (res, _) = cnf.solve();
                let m = res.model().expect("sat");
                sim.set_input_u64("x", xv);
                sim.set_input_u64("y", yv);
                sim.eval();
                let want = sim.read_output("z").to_u64().unwrap();
                assert_eq!(read_word(m, &frame.output(&p, "z")), want, "x={xv} y={yv}");
            }
        }
    }
}
