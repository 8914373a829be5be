//! Non-destructive fault overlays on a shared simulation tape.
//!
//! A [`FaultOverlay`] owns only its force tables and the
//! `Arc<SimProgram>` they were resolved against; the value array
//! belongs to the caller's [`BatchSim`], and the tape itself stays an
//! immutable program shared with every healthy simulator and every
//! other overlay. Faults are applied *around* the tape, in every lane:
//!
//! - stuck-at faults on combinational nets interpose on the wave by
//!   segmented execution (`exec_range` up to the faulted op, write the
//!   stuck value in its place, continue) — the netlist is never
//!   rewritten;
//! - stuck-at faults on state nets (inputs, constants, DFF outputs)
//!   force the state slot before every settle;
//! - DFF flips invert the register slot after every capture edge;
//! - input bridges wire-AND two primary-input slots before every
//!   settle.
//!
//! The overlay works at every [`SimWord`] width, so the lanes carry
//! different inputs under the same faults. [`FaultOverlay::eval`]
//! settles the whole tape. [`FaultOverlay::eval_cone`] starts from a
//! wave the caller has already settled fault-free and re-runs only the
//! ops the fault sites reach ([`SimProgram::fanout_cone`]);
//! [`FaultOverlay::restore`] then puts that wave back. Together they
//! are parallel-pattern single-fault propagation: a campaign settles a
//! word of input patterns once and pays, per fault, only the fault's
//! cone. Ports, reset and probes are the simulator's own.

use crate::spec::{resolve, FaultSpec, ResolvedFault};
use hwperm_logic::{BatchSim, SimProgram, SimWord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Stuck value written over a combinational op's output slot, mid-wave.
#[derive(Debug, Clone, Copy)]
struct CombForce<W> {
    op: usize,
    slot: usize,
    value: W,
    /// Position of `op` in the overlay's cone list.
    cone_pos: usize,
}

/// Stuck value written over a state slot before every settle.
#[derive(Debug, Clone, Copy)]
struct StateForce<W> {
    slot: usize,
    value: W,
}

/// Fault force tables resolved against one shared tape, applied in
/// every lane around a caller's [`BatchSim`] over that same tape. See
/// the module docs; construct one with [`FaultOverlay::new`].
#[derive(Debug)]
pub struct FaultOverlay<W: SimWord> {
    program: Arc<SimProgram>,
    /// Sorted by op (one entry per faulted op), so the eval loops walk
    /// ascending contiguous segments.
    comb: Vec<CombForce<W>>,
    state: Vec<StateForce<W>>,
    /// DFF state slots inverted after every capture edge.
    flips: Vec<usize>,
    /// Input slot pairs wired-AND before every settle.
    bridges: Vec<(usize, usize)>,
    /// Every op a settle under the faults can change, ascending: the
    /// faulted ops and the fan-out cones of every forced or bridged
    /// slot.
    cone: Vec<u32>,
}

impl<W: SimWord> FaultOverlay<W> {
    /// An overlay applying all of `faults` at once, each in every lane.
    /// Where two stuck-at faults force the same net, the later one in
    /// the spec list wins.
    ///
    /// # Panics
    /// Panics on malformed specs (see [`FaultSpec`]).
    pub fn new(program: Arc<SimProgram>, faults: &[FaultSpec]) -> Self {
        let mut comb = BTreeMap::new();
        let mut state = BTreeMap::new();
        let mut flips = BTreeSet::new();
        let mut bridges = Vec::new();
        for fault in faults {
            match resolve(&program, fault) {
                ResolvedFault::CombForce { op, slot, value } => {
                    comb.insert(op, (slot, value));
                }
                ResolvedFault::StateForce { slot, value } => {
                    state.insert(slot, value);
                }
                ResolvedFault::DffFlip { slot } => {
                    flips.insert(slot);
                }
                ResolvedFault::InputBridge { a_slot, b_slot } => bridges.push((a_slot, b_slot)),
            }
        }
        let forced = comb.values().map(|&(slot, _)| slot);
        let state_slots = state.keys().copied();
        let bridged = bridges.iter().flat_map(|&(a, b)| [a, b]);
        let mut cone: Vec<u32> = comb.keys().map(|&op| op as u32).collect();
        for slot in forced.chain(state_slots).chain(bridged) {
            cone.extend(program.fanout_cone(slot));
        }
        cone.sort_unstable();
        cone.dedup();
        let comb = comb
            .into_iter()
            .map(|(op, (slot, value))| CombForce {
                op,
                slot,
                value: W::splat(value),
                cone_pos: cone
                    .binary_search(&(op as u32))
                    .expect("every faulted op is in the cone"),
            })
            .collect();
        let state = state
            .into_iter()
            .map(|(slot, value)| StateForce {
                slot,
                value: W::splat(value),
            })
            .collect();
        FaultOverlay {
            program,
            comb,
            state,
            flips: flips.into_iter().collect(),
            bridges,
            cone,
        }
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

    /// Applies the bridges, then the state forces, to the value array.
    fn force_state(&self, values: &mut [W]) {
        for &(a, b) in &self.bridges {
            let and = values[a] & values[b];
            values[a] = and;
            values[b] = and;
        }
        for sf in &self.state {
            values[sf.slot] = sf.value;
        }
    }

    /// Combinational settle of `sim` under the fault overlay. Note that
    /// bridge faults overwrite the bridged input slots, so drive input
    /// ports before *every* `eval`, as a hardware testbench would.
    ///
    /// # Panics
    /// Panics if `sim` does not run [`FaultOverlay::program`].
    pub fn eval(&self, sim: &mut BatchSim<W>) {
        let (program, values) = self.tape(sim);
        self.force_state(values);
        let mut start = 0;
        for cf in &self.comb {
            program.exec_range(values, start..cf.op);
            values[cf.slot] = cf.value;
            start = cf.op + 1;
        }
        program.exec_range(values, start..program.op_count());
    }

    /// [`FaultOverlay::eval`] limited to the fault sites' fan-out cones.
    /// `sim` must hold a fault-free settle ([`BatchSim::eval`]) of its
    /// current inputs and state; every op outside the cones reads only
    /// unchanged slots, so afterwards the wave equals `eval`'s. Undo it
    /// with [`FaultOverlay::restore`] before the next overlay's
    /// `eval_cone` on the same wave.
    ///
    /// # Panics
    /// Panics if `sim` does not run [`FaultOverlay::program`].
    pub fn eval_cone(&self, sim: &mut BatchSim<W>) {
        let (program, values) = self.tape(sim);
        self.force_state(values);
        let mut start = 0;
        for cf in &self.comb {
            program.exec_ops(values, &self.cone[start..cf.cone_pos]);
            values[cf.slot] = cf.value;
            start = cf.cone_pos + 1;
        }
        program.exec_ops(values, &self.cone[start..]);
    }

    /// Undoes [`FaultOverlay::eval_cone`]: copies every slot it wrote —
    /// the forced and bridged state slots and every cone slot — back
    /// from `settled`, the value array of the fault-free settle it
    /// started from (see [`BatchSim::tape`]).
    ///
    /// # Panics
    /// Panics if `sim` does not run [`FaultOverlay::program`] or
    /// `settled` is not one value per slot.
    pub fn restore(&self, sim: &mut BatchSim<W>, settled: &[W]) {
        let (program, values) = self.tape(sim);
        assert!(
            settled.len() == values.len(),
            "{} settled values do not match the {}-slot tape",
            settled.len(),
            values.len()
        );
        for &(a, b) in &self.bridges {
            values[a] = settled[a];
            values[b] = settled[b];
        }
        for sf in &self.state {
            values[sf.slot] = settled[sf.slot];
        }
        let base = program.comb_base();
        for &j in &self.cone {
            let slot = base + j as usize;
            values[slot] = settled[slot];
        }
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
        for &slot in &self.flips {
            values[slot] = !values[slot];
        }
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
        let overlay = FaultOverlay::<bool>::new(Arc::clone(program), faults);
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
            FaultOverlay::<bool>::new(Arc::clone(&program), &[FaultSpec::DffFlip { net: dff_net }]);
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
    fn all_lane_overlays_match_scalar_runs_lane_by_lane() {
        // One fault per overlay, applied in every lane, each lane a
        // different input pair.
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
        let xs: Vec<u64> = (0..64).map(|l| l & 15).collect();
        let ys: Vec<u64> = (0..64).map(|l| (l * 7 + 3) & 15).collect();
        for fault in faults {
            let overlay = FaultOverlay::<u64>::new(Arc::clone(&program), &[fault]);
            let mut batch = BatchSim::from_program(Arc::clone(&program));
            batch.set_input_lanes_u64("x", &xs);
            batch.set_input_lanes_u64("y", &ys);
            overlay.eval(&mut batch);
            for lane in 0..64 {
                let got = batch.read_output_lane_u64("s", lane)
                    | (batch.read_output_lane_u64("c", lane) << 4);
                let (x, y) = (xs[lane], ys[lane]);
                assert_eq!(
                    got,
                    adder_sum(&program, &[fault], x, y),
                    "lane {lane} ({fault}), x = {x}, y = {y}"
                );
            }
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

    /// 8-bit adder with a carry-out, its whole single-stuck-at
    /// universe (2 faults per net), and 256 different input pairs.
    fn adder8_universe() -> (Arc<SimProgram>, Vec<FaultSpec>, Vec<u64>, Vec<u64>) {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let program = SimProgram::compile_shared(b.finish());
        let faults: Vec<FaultSpec> = (0..program.netlist().len() as u32)
            .flat_map(|i| {
                [false, true].map(|value| FaultSpec::StuckAt {
                    net: NetId::forged(i),
                    value,
                })
            })
            .collect();
        let xs: Vec<u64> = (0..256).collect();
        let ys: Vec<u64> = (0..256).map(|l| (l * 37 + 11) & 255).collect();
        (program, faults, xs, ys)
    }

    #[test]
    fn wide_overlays_match_scalar_past_lane_64() {
        // Every fault of the 8-bit adder, applied in all 256 lanes of a
        // W256 word, each lane cross-checked against a scalar run.
        use hwperm_logic::W256;
        let (program, faults, xs, ys) = adder8_universe();
        let mut scalar = BatchSim::<bool>::from_program(Arc::clone(&program));
        for fault in &faults {
            let overlay = FaultOverlay::<W256>::new(Arc::clone(&program), &[*fault]);
            let mut wide = BatchSim::from_program(Arc::clone(&program));
            wide.set_input_lanes_u64("x", &xs);
            wide.set_input_lanes_u64("y", &ys);
            overlay.eval(&mut wide);
            let one = FaultOverlay::new(Arc::clone(&program), &[*fault]);
            for lane in 0..256 {
                let got = wide.read_output_lane_u64("s", lane)
                    | (wide.read_output_lane_u64("c", lane) << 8);
                scalar.set_input_u64("x", xs[lane]);
                scalar.set_input_u64("y", ys[lane]);
                one.eval(&mut scalar);
                let want = scalar.read_output_lane_u64("s", 0)
                    | (scalar.read_output_lane_u64("c", 0) << 8);
                assert_eq!(got, want, "lane {lane} ({fault})");
            }
        }
    }

    #[test]
    fn cone_eval_equals_full_eval_and_restore_undoes_it() {
        // Over one fault-free W256 settle of 256 input pairs, every
        // single stuck-at fault's cone evaluation must leave exactly
        // the wave a full faulted settle computes, and the restore must
        // bring back every slot of the fault-free wave. Multi-fault
        // overlays (a bridge plus neighbouring stuck-ats, whose sites
        // sit in each other's cones) take the same checks.
        use hwperm_logic::W256;
        let (program, faults, xs, ys) = adder8_universe();
        let mut sim = BatchSim::<W256>::from_program(Arc::clone(&program));
        sim.set_input_lanes_u64("x", &xs);
        sim.set_input_lanes_u64("y", &ys);
        sim.eval();
        let settled = sim.tape().1.to_vec();
        let bridge = FaultSpec::InputBridge {
            a: NetId::forged(0),
            b: NetId::forged(8),
        };
        let sets = faults
            .iter()
            .map(|&fault| vec![fault])
            .chain(faults.chunks(3).map(|c| [c, &[bridge]].concat()));
        for set in sets {
            let overlay = FaultOverlay::new(Arc::clone(&program), &set);
            let mut full = sim.clone();
            overlay.eval(&mut full);
            overlay.eval_cone(&mut sim);
            assert!(sim.tape().1 == full.tape().1, "cone eval of {set:?}");
            overlay.restore(&mut sim, &settled);
            assert!(sim.tape().1 == &settled[..], "restore after {set:?}");
        }
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
