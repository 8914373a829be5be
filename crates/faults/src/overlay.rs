//! Non-destructive fault overlays on a shared simulation tape.
//!
//! A [`FaultOverlay`] owns only its force tables and the
//! `Arc<SimProgram>` they were resolved against; the value array
//! belongs to the caller's [`BatchSim`], and the tape itself stays an
//! immutable program shared with every healthy simulator and every
//! other overlay. Faults are applied *around* the tape:
//!
//! - stuck-at faults on combinational nets interpose on the wave by
//!   segmented execution (`exec_range` up to the faulted op, force its
//!   output slot, continue) — the netlist is never rewritten;
//! - stuck-at faults on state nets (inputs, constants, DFF outputs)
//!   force the state slot before every settle;
//! - DFF flips invert the register slot after every capture edge;
//! - input bridges wire-AND two primary-input slots before every
//!   settle.
//!
//! The overlay is generic over [`SimWord`], with per-lane fault masks:
//! the scalar `FaultOverlay<bool>` (every fault on the one lane, built
//! by [`FaultOverlay::new`]) and the batched overlays built by
//! [`FaultOverlay::batched`] (**one fault per lane**,
//! [`SimWord::LANES`] lanes — 64 for `u64`, 256 or 512 for the wide
//! words) share the same force/flip/bridge machinery, so a campaign
//! sweeps up to `LANES` distinct faults per tape walk. Ports, reset
//! and probes are the simulator's own.

use crate::spec::{resolve, FaultSpec, ResolvedFault};
use hwperm_logic::{BatchSim, SimProgram, SimWord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Force applied to a combinational op's output slot, mid-wave.
#[derive(Debug, Clone, Copy)]
struct CombForce<W> {
    op: usize,
    slot: usize,
    mask: W,
    /// Forced bits, pre-masked (`value ⊆ mask`).
    value: W,
}

/// Force applied to a state slot before every settle.
#[derive(Debug, Clone, Copy)]
struct StateForce<W> {
    slot: usize,
    mask: W,
    value: W,
}

/// Register-slot inversion applied after every capture edge.
#[derive(Debug, Clone, Copy)]
struct Flip<W> {
    slot: usize,
    mask: W,
}

/// Wired-AND of two input slots, applied before every settle.
#[derive(Debug, Clone, Copy)]
struct Bridge<W> {
    a_slot: usize,
    b_slot: usize,
    mask: W,
}

/// Fault force tables resolved against one shared tape, applied
/// around a caller's [`BatchSim`] over that same tape. See the module
/// docs; construct one with [`FaultOverlay::new`] (scalar) or
/// [`FaultOverlay::batched`].
#[derive(Debug)]
pub struct FaultOverlay<W: SimWord> {
    program: Arc<SimProgram>,
    /// Sorted by op (one merged entry per faulted op), so the eval loop
    /// walks ascending contiguous segments as `exec_range` requires.
    comb: Vec<CombForce<W>>,
    state: Vec<StateForce<W>>,
    flips: Vec<Flip<W>>,
    bridges: Vec<Bridge<W>>,
}

/// Builds the merged force tables from `(fault, lane mask)` pairs.
/// Forces on the same slot merge mask-wise; where scalar masks collide,
/// the later fault wins (documented on [`FaultOverlay::new`]).
fn build<W: SimWord>(
    program: Arc<SimProgram>,
    faults: impl Iterator<Item = (FaultSpec, W)>,
) -> FaultOverlay<W> {
    let mut comb: BTreeMap<usize, CombForce<W>> = BTreeMap::new();
    let mut state: BTreeMap<usize, StateForce<W>> = BTreeMap::new();
    let mut flips: BTreeMap<usize, Flip<W>> = BTreeMap::new();
    let mut bridges: Vec<Bridge<W>> = Vec::new();
    let merge = |mask: &mut W, value: &mut W, m: W, v: bool| {
        *mask = *mask | m;
        *value = (*value & !m) | (W::splat(v) & m);
    };
    for (fault, m) in faults {
        match resolve(&program, &fault) {
            ResolvedFault::CombForce { op, slot, value } => {
                let e = comb.entry(op).or_insert(CombForce {
                    op,
                    slot,
                    mask: W::splat(false),
                    value: W::splat(false),
                });
                merge(&mut e.mask, &mut e.value, m, value);
            }
            ResolvedFault::StateForce { slot, value } => {
                let e = state.entry(slot).or_insert(StateForce {
                    slot,
                    mask: W::splat(false),
                    value: W::splat(false),
                });
                merge(&mut e.mask, &mut e.value, m, value);
            }
            ResolvedFault::DffFlip { slot } => {
                let e = flips.entry(slot).or_insert(Flip {
                    slot,
                    mask: W::splat(false),
                });
                e.mask = e.mask | m;
            }
            ResolvedFault::InputBridge { a_slot, b_slot } => {
                bridges.push(Bridge {
                    a_slot,
                    b_slot,
                    mask: m,
                });
            }
        }
    }
    FaultOverlay {
        program,
        comb: comb.into_values().collect(),
        state: state.into_values().collect(),
        flips: flips.into_values().collect(),
        bridges,
    }
}

impl<W: SimWord> FaultOverlay<W> {
    /// A batched overlay with fault `k` assigned to lane `k`. Lanes
    /// beyond `faults.len()` are fault-free (useful as a golden lane).
    ///
    /// # Panics
    /// Panics if `faults.len() > W::LANES` or on malformed specs.
    pub fn batched(program: Arc<SimProgram>, faults: &[FaultSpec]) -> FaultOverlay<W> {
        assert!(
            faults.len() <= W::LANES,
            "{} faults exceed the {}-lane batch width",
            faults.len(),
            W::LANES
        );
        build(
            program,
            faults.iter().enumerate().map(|(k, &f)| (f, W::lane_one(k))),
        )
    }

    /// The shared tape the faults were resolved against.
    pub fn program(&self) -> &Arc<SimProgram> {
        &self.program
    }

    /// The tape and value array of `sim`, checked to be this overlay's
    /// program (fault slots mean nothing on another tape).
    fn tape<'a>(&self, sim: &'a mut BatchSim<W>) -> (&'a SimProgram, &'a mut [W]) {
        let (program, values) = sim.tape_mut();
        assert!(
            std::ptr::eq(program, Arc::as_ptr(&self.program)),
            "fault overlay applied to a BatchSim over a different SimProgram \
             (build the simulator from the overlay's program)"
        );
        (program, values)
    }

    /// Combinational settle of `sim` under the fault overlay. Note that
    /// bridge faults overwrite the bridged input slots, so drive input
    /// ports before *every* `eval`, as a hardware testbench would.
    ///
    /// # Panics
    /// Panics if `sim` does not run [`FaultOverlay::program`].
    pub fn eval(&self, sim: &mut BatchSim<W>) {
        let (program, values) = self.tape(sim);
        for br in &self.bridges {
            let and = (values[br.a_slot] & values[br.b_slot]) & br.mask;
            values[br.a_slot] = (values[br.a_slot] & !br.mask) | and;
            values[br.b_slot] = (values[br.b_slot] & !br.mask) | and;
        }
        for sf in &self.state {
            values[sf.slot] = (values[sf.slot] & !sf.mask) | sf.value;
        }
        let mut start = 0;
        for cf in &self.comb {
            program.exec_range(values, start..cf.op + 1);
            values[cf.slot] = (values[cf.slot] & !cf.mask) | cf.value;
            start = cf.op + 1;
        }
        program.exec_range(values, start..program.op_count());
    }

    /// One clock of `sim`: faulted settle, capture every DFF, then
    /// invert flipped register slots (the upset rides the capture path,
    /// so it recurs on every edge). A plain [`BatchSim::reset`] is the
    /// faulted reset too: the upset model corrupts captures, not the
    /// asynchronous reset network.
    ///
    /// # Panics
    /// Panics if `sim` does not run [`FaultOverlay::program`].
    pub fn step(&self, sim: &mut BatchSim<W>) {
        self.eval(sim);
        sim.latch();
        let (_, values) = self.tape(sim);
        for fl in &self.flips {
            values[fl.slot] = values[fl.slot] ^ fl.mask;
        }
    }
}

impl FaultOverlay<bool> {
    /// A scalar overlay applying all of `faults` at once, every fault
    /// to the single lane. Where two stuck-at faults force the same
    /// net, the later one in the spec list wins.
    ///
    /// # Panics
    /// Panics on malformed specs (see [`FaultSpec`]).
    pub fn new(program: Arc<SimProgram>, faults: &[FaultSpec]) -> Self {
        build(program, faults.iter().map(|&f| (f, true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::{Builder, NetId};

    /// 4-bit adder with a carry-out — pure combinational.
    fn adder() -> Arc<SimProgram> {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        SimProgram::compile_shared(b.finish())
    }

    fn adder_sum(program: &Arc<SimProgram>, faults: &[FaultSpec], x: u64, y: u64) -> u64 {
        let overlay = FaultOverlay::new(Arc::clone(program), faults);
        let mut sim = BatchSim::from_program(Arc::clone(program));
        sim.set_input_u64("x", x);
        sim.set_input_u64("y", y);
        overlay.eval(&mut sim);
        sim.read_output_lane_u64("s", 0) | (sim.read_output_lane_u64("c", 0) << 4)
    }

    #[test]
    fn fault_free_overlay_matches_plain_tape() {
        let program = adder();
        for (x, y) in [(0u64, 0u64), (3, 5), (9, 9), (15, 15)] {
            assert_eq!(adder_sum(&program, &[], x, y), x + y, "{x} + {y}");
        }
    }

    #[test]
    fn input_stuck_at_forces_the_state_slot() {
        let program = adder();
        // x's bit 0 is net 0; stuck-at-1 turns x = 0b0000 into 0b0001.
        let fault = FaultSpec::StuckAt {
            net: NetId::forged(0),
            value: true,
        };
        assert_eq!(adder_sum(&program, &[fault], 0, 0), 1);
        assert_eq!(
            adder_sum(&program, &[fault], 1, 0),
            1,
            "already set: no change"
        );
    }

    #[test]
    fn comb_stuck_at_interposes_mid_wave() {
        let program = adder();
        // Find the net feeding sum bit 0 (an XOR at some comb slot) via
        // the output port: force it to 1 and expect bit 0 set always.
        let s0_slot = program.output_slots("s")[0] as usize;
        let net = (0..program.netlist().len())
            .map(|i| NetId::forged(i as u32))
            .find(|&n| program.slot(n) == s0_slot)
            .unwrap();
        let fault = FaultSpec::StuckAt { net, value: true };
        assert_eq!(adder_sum(&program, &[fault], 0, 0), 1);
        assert_eq!(adder_sum(&program, &[fault], 2, 2), 5);
        assert_eq!(
            adder_sum(&program, &[fault], 1, 0),
            1,
            "masked when already 1"
        );
    }

    #[test]
    fn input_bridge_wire_ands_both_nets() {
        let program = adder();
        // Bridge x bit 0 (net 0) with y bit 0 (net 4).
        let fault = FaultSpec::InputBridge {
            a: NetId::forged(0),
            b: NetId::forged(4),
        };
        // 1 + 0: the AND pulls both low — sum 0.
        assert_eq!(adder_sum(&program, &[fault], 1, 0), 0);
        // 1 + 1: both stay high — unchanged.
        assert_eq!(adder_sum(&program, &[fault], 1, 1), 2);
    }

    #[test]
    fn dff_flip_inverts_after_every_capture() {
        // One DFF shifting its input; flip inverts the captured bit.
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q = b.dff(x[0], false);
        b.output_bus("y", &[q]);
        let program = SimProgram::compile_shared(b.finish());
        let dff_net = NetId::forged(1);
        let overlay =
            FaultOverlay::new(Arc::clone(&program), &[FaultSpec::DffFlip { net: dff_net }]);
        let mut sim = BatchSim::from_program(program);
        sim.set_input_u64("x", 1);
        overlay.step(&mut sim);
        overlay.eval(&mut sim);
        assert_eq!(
            sim.read_output_lane_u64("y", 0),
            0,
            "captured 1, flipped to 0"
        );
        sim.set_input_u64("x", 0);
        overlay.step(&mut sim);
        overlay.eval(&mut sim);
        assert_eq!(
            sim.read_output_lane_u64("y", 0),
            1,
            "captured 0, flipped to 1"
        );
        sim.reset();
        assert_eq!(sim.read_output_lane_u64("y", 0), 0, "reset is not flipped");
    }

    #[test]
    fn batched_lanes_match_scalar_single_fault_runs() {
        let program = adder();
        let faults = [
            FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: true,
            },
            FaultSpec::StuckAt {
                net: NetId::forged(5),
                value: false,
            },
            FaultSpec::InputBridge {
                a: NetId::forged(1),
                b: NetId::forged(5),
            },
        ];
        let overlay = FaultOverlay::<u64>::batched(Arc::clone(&program), &faults);
        let mut batch = BatchSim::from_program(Arc::clone(&program));
        for (x, y) in [(0u64, 0u64), (5, 10), (15, 1), (7, 7)] {
            batch.set_input_u64("x", x);
            batch.set_input_u64("y", y);
            overlay.eval(&mut batch);
            for (k, fault) in faults.iter().enumerate() {
                let got =
                    batch.read_output_lane_u64("s", k) | (batch.read_output_lane_u64("c", k) << 4);
                assert_eq!(
                    got,
                    adder_sum(&program, &[*fault], x, y),
                    "lane {k} ({fault}), x = {x}, y = {y}"
                );
            }
            // Unfaulted lane 3 stays golden.
            let golden =
                batch.read_output_lane_u64("s", 3) | (batch.read_output_lane_u64("c", 3) << 4);
            assert_eq!(golden, x + y, "golden lane, x = {x}, y = {y}");
        }
    }

    #[test]
    fn later_scalar_fault_wins_on_the_same_net() {
        let program = adder();
        let net = NetId::forged(0);
        let sa0 = FaultSpec::StuckAt { net, value: false };
        let sa1 = FaultSpec::StuckAt { net, value: true };
        assert_eq!(adder_sum(&program, &[sa0, sa1], 0, 0), 1);
        assert_eq!(adder_sum(&program, &[sa1, sa0], 1, 0), 0);
    }

    #[test]
    #[should_panic(expected = "65 faults exceed the 64-lane batch width")]
    fn batch_width_overflow_message_pinned() {
        let program = adder();
        let faults: Vec<FaultSpec> = (0..65)
            .map(|_| FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: false,
            })
            .collect();
        let _ = FaultOverlay::<u64>::batched(program, &faults);
    }

    #[test]
    fn wide_batched_lanes_match_scalar_past_lane_64() {
        use hwperm_logic::W256;
        // More faults than any u64 batch can hold: the whole stuck-at
        // universe of an 8-bit adder (2 faults per net), one W256 lane
        // each, cross-checked against one scalar overlay per fault.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let program = SimProgram::compile_shared(b.finish());
        let nets = program.netlist().len();
        let faults: Vec<FaultSpec> = (0..nets as u32)
            .flat_map(|i| {
                [false, true].map(|value| FaultSpec::StuckAt {
                    net: NetId::forged(i),
                    value,
                })
            })
            .collect();
        assert!(faults.len() > 64, "universe must overflow a u64 batch");
        let overlay = FaultOverlay::<W256>::batched(Arc::clone(&program), &faults);
        let mut batch = BatchSim::from_program(Arc::clone(&program));
        for (x, y) in [(0u64, 0u64), (137, 66), (255, 255)] {
            batch.set_input_u64("x", x);
            batch.set_input_u64("y", y);
            overlay.eval(&mut batch);
            for (k, fault) in faults.iter().enumerate() {
                let got =
                    batch.read_output_lane_u64("s", k) | (batch.read_output_lane_u64("c", k) << 8);
                let mut scalar = BatchSim::<bool>::from_program(Arc::clone(&program));
                scalar.set_input_u64("x", x);
                scalar.set_input_u64("y", y);
                FaultOverlay::new(Arc::clone(&program), &[*fault]).eval(&mut scalar);
                let want = scalar.read_output_lane_u64("s", 0)
                    | (scalar.read_output_lane_u64("c", 0) << 8);
                assert_eq!(got, want, "lane {k} ({fault}), x = {x}, y = {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "257 faults exceed the 256-lane batch width")]
    fn wide_batch_overflow_names_the_wide_width() {
        use hwperm_logic::W256;
        let program = adder();
        let faults: Vec<FaultSpec> = (0..257)
            .map(|_| FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: false,
            })
            .collect();
        let _ = FaultOverlay::<W256>::batched(program, &faults);
    }

    #[test]
    #[should_panic(
        expected = "fault overlay applied to a BatchSim over a different SimProgram \
                               (build the simulator from the overlay's program)"
    )]
    fn overlay_rejects_a_simulator_over_another_program() {
        // Two compiles of one netlist are equal tapes but not the same
        // program: fault slots are only meaningful on the tape they
        // were resolved against, so the overlay demands that one.
        let program = adder();
        let overlay = FaultOverlay::new(Arc::clone(&program), &[]);
        let mut sim = BatchSim::<bool>::new(program.netlist().clone());
        overlay.eval(&mut sim);
    }
}
