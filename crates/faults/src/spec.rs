//! Fault models and their resolution against a compiled tape.

use hwperm_logic::{Gate, NetId, SimProgram};
use std::fmt;

/// One injectable hardware fault, named by nets of the source netlist.
///
/// The three models cover the classic single-fault menagerie:
///
/// - [`FaultSpec::StuckAt`] — a gate output (any net: combinational,
///   input, constant, or DFF) permanently reads 0 or 1;
/// - [`FaultSpec::DffFlip`] — a single-event upset on a register: the
///   DFF's state bit is inverted after every capture edge;
/// - [`FaultSpec::InputBridge`] — two primary-input nets are shorted
///   and both read the wired-AND of the driven values.
///
/// Bridges are restricted to primary inputs because the tape executes
/// each level exactly once: a mid-tape bridge would need re-evaluation
/// of consumers scheduled before the bridged pair settles, which the
/// single-pass levelized wave cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Net `net` permanently drives `value`.
    StuckAt {
        /// The faulted net (any gate output).
        net: NetId,
        /// The value the net is stuck at.
        value: bool,
    },
    /// The DFF whose output is `net` inverts its state after every
    /// capture edge (a persistent upset on the capture path).
    DffFlip {
        /// The faulted net (must be a DFF output).
        net: NetId,
    },
    /// Primary inputs `a` and `b` are shorted wired-AND.
    InputBridge {
        /// First bridged input net.
        a: NetId,
        /// Second bridged input net (distinct from `a`).
        b: NetId,
    },
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSpec::StuckAt { net, value } => {
                write!(f, "stuck-at-{} on net {}", u8::from(value), net.index())
            }
            FaultSpec::DffFlip { net } => write!(f, "dff-flip on net {}", net.index()),
            FaultSpec::InputBridge { a, b } => {
                write!(
                    f,
                    "input-bridge between nets {} and {}",
                    a.index(),
                    b.index()
                )
            }
        }
    }
}

/// A [`FaultSpec`] translated into tape coordinates, ready for the
/// fault overlays.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolvedFault {
    /// Force a combinational op's output slot right after the op runs.
    CombForce {
        /// Tape op position (`slot - comb_base`).
        op: usize,
        /// The op's output slot.
        slot: usize,
        /// Forced value.
        value: bool,
    },
    /// Force a state slot (input / constant / DFF output) before every
    /// combinational settle.
    StateForce {
        /// The state slot.
        slot: usize,
        /// Forced value.
        value: bool,
    },
    /// Invert a DFF state slot after every capture edge.
    DffFlip {
        /// The DFF's `q` state slot.
        slot: usize,
    },
    /// Wired-AND two primary-input state slots before every settle.
    InputBridge {
        /// First bridged input slot.
        a_slot: usize,
        /// Second bridged input slot.
        b_slot: usize,
    },
}

/// Checks that `net` names a gate of `program`'s netlist.
fn in_range(program: &SimProgram, net: NetId) -> usize {
    let len = program.netlist().len();
    assert!(
        net.index() < len,
        "fault targets out-of-range net {} (netlist has {len} nets)",
        net.index()
    );
    net.index()
}

/// Resolves a fault against the tape, panicking on malformed specs.
///
/// # Panics
/// Panics if any referenced net is out of range, if a [`FaultSpec::DffFlip`]
/// targets a non-DFF net, if a [`FaultSpec::InputBridge`] endpoint is not a
/// primary input, or if a bridge shorts a net to itself.
pub(crate) fn resolve(program: &SimProgram, fault: &FaultSpec) -> ResolvedFault {
    match *fault {
        FaultSpec::StuckAt { net, value } => {
            in_range(program, net);
            let slot = program.slot(net);
            let base = program.comb_base();
            if slot >= base {
                ResolvedFault::CombForce {
                    op: slot - base,
                    slot,
                    value,
                }
            } else {
                ResolvedFault::StateForce { slot, value }
            }
        }
        FaultSpec::DffFlip { net } => {
            let idx = in_range(program, net);
            assert!(
                program.is_dff_net(net),
                "dff-flip fault targets net {idx}, which is not a DFF output"
            );
            ResolvedFault::DffFlip {
                slot: program.slot(net),
            }
        }
        FaultSpec::InputBridge { a, b } => {
            let ai = in_range(program, a);
            let bi = in_range(program, b);
            assert!(ai != bi, "input-bridge fault shorts net {ai} to itself");
            for (what, idx) in [(a, ai), (b, bi)] {
                assert!(
                    matches!(program.netlist().gates()[idx], Gate::Input),
                    "input-bridge fault targets net {}, which is not a primary input",
                    what.index()
                );
            }
            ResolvedFault::InputBridge {
                a_slot: program.slot(a),
                b_slot: program.slot(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;
    use std::sync::Arc;

    fn small_program() -> Arc<SimProgram> {
        // net 0,1: inputs; net 2: AND; net 3: DFF.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        let q = b.dff(g, false);
        b.output_bus("y", &[q]);
        SimProgram::compile_shared(b.finish())
    }

    #[test]
    fn display_names_the_model_and_nets() {
        assert_eq!(
            FaultSpec::StuckAt {
                net: NetId::forged(17),
                value: false
            }
            .to_string(),
            "stuck-at-0 on net 17"
        );
        assert_eq!(
            FaultSpec::DffFlip {
                net: NetId::forged(3)
            }
            .to_string(),
            "dff-flip on net 3"
        );
        assert_eq!(
            FaultSpec::InputBridge {
                a: NetId::forged(0),
                b: NetId::forged(1)
            }
            .to_string(),
            "input-bridge between nets 0 and 1"
        );
    }

    #[test]
    fn resolves_each_model_to_tape_coordinates() {
        let p = small_program();
        assert!(matches!(
            resolve(
                &p,
                &FaultSpec::StuckAt {
                    net: NetId::forged(2),
                    value: true
                }
            ),
            ResolvedFault::CombForce {
                op: 0,
                value: true,
                ..
            }
        ));
        assert!(matches!(
            resolve(
                &p,
                &FaultSpec::StuckAt {
                    net: NetId::forged(0),
                    value: false
                }
            ),
            ResolvedFault::StateForce { value: false, .. }
        ));
        assert!(matches!(
            resolve(
                &p,
                &FaultSpec::DffFlip {
                    net: NetId::forged(3)
                }
            ),
            ResolvedFault::DffFlip { .. }
        ));
        assert!(matches!(
            resolve(
                &p,
                &FaultSpec::InputBridge {
                    a: NetId::forged(0),
                    b: NetId::forged(1)
                }
            ),
            ResolvedFault::InputBridge { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "fault targets out-of-range net 99 (netlist has 4 nets)")]
    fn stuck_at_out_of_range_net_message_pinned() {
        resolve(
            &small_program(),
            &FaultSpec::StuckAt {
                net: NetId::forged(99),
                value: false,
            },
        );
    }

    #[test]
    #[should_panic(expected = "dff-flip fault targets net 2, which is not a DFF output")]
    fn dff_flip_on_non_dff_net_message_pinned() {
        resolve(
            &small_program(),
            &FaultSpec::DffFlip {
                net: NetId::forged(2),
            },
        );
    }

    #[test]
    #[should_panic(expected = "input-bridge fault targets net 3, which is not a primary input")]
    fn bridge_on_non_input_net_message_pinned() {
        resolve(
            &small_program(),
            &FaultSpec::InputBridge {
                a: NetId::forged(0),
                b: NetId::forged(3),
            },
        );
    }

    #[test]
    #[should_panic(expected = "input-bridge fault shorts net 1 to itself")]
    fn bridge_to_self_message_pinned() {
        resolve(
            &small_program(),
            &FaultSpec::InputBridge {
                a: NetId::forged(1),
                b: NetId::forged(1),
            },
        );
    }
}
