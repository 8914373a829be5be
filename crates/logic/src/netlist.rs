//! The netlist data model: primitive gates and named ports.

use std::fmt;

/// Identifier of a net (the output of one gate). Nets are dense indices
/// into [`Netlist::gates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A net id from a raw index, with no range or ordering check —
    /// the id may point anywhere, including past the end of the gate
    /// array. Exists for fault injection (pairing with
    /// [`Netlist::with_gate_replaced`] to build deliberately broken
    /// netlists); normal construction goes through the builder, which
    /// only ever hands out ids of gates it created.
    #[inline]
    pub fn forged(raw: u32) -> NetId {
        NetId(raw)
    }
}

/// A primitive gate. Every gate drives exactly one net.
///
/// The set is deliberately small — it is what the paper's comparator /
/// subtractor / one-hot-MUX structures decompose into, and it keeps the
/// LUT mapper honest (no macro-gates that would dodge technology mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant 0 or 1.
    Const(bool),
    /// Primary input bit (value supplied by the testbench).
    Input,
    /// Inverter.
    Not(NetId),
    /// 2-input AND.
    And(NetId, NetId),
    /// 2-input OR.
    Or(NetId, NetId),
    /// 2-input XOR.
    Xor(NetId, NetId),
    /// 2:1 multiplexer: output = if `sel` { `b` } else { `a` }.
    Mux {
        /// Select line.
        sel: NetId,
        /// Value when `sel = 0`.
        a: NetId,
        /// Value when `sel = 1`.
        b: NetId,
    },
    /// D flip-flop: output is the registered value; `d` is latched on
    /// every [`crate::BatchSim::step`]. Reset value is `init`.
    Dff {
        /// Data input.
        d: NetId,
        /// Power-on / reset value.
        init: bool,
    },
}

impl Gate {
    /// The nets this gate reads.
    pub fn fanin(&self) -> impl Iterator<Item = NetId> {
        let (a, b, c) = match *self {
            Gate::Const(_) | Gate::Input => (None, None, None),
            Gate::Not(x) => (Some(x), None, None),
            Gate::And(x, y) | Gate::Or(x, y) | Gate::Xor(x, y) => (Some(x), Some(y), None),
            Gate::Mux { sel, a, b } => (Some(sel), Some(a), Some(b)),
            Gate::Dff { d, .. } => (Some(d), None, None),
        };
        [a, b, c].into_iter().flatten()
    }

    /// `true` for combinational gates (everything except `Input`, `Const`
    /// and `Dff`, whose outputs do not depend on the current-cycle wave).
    pub fn is_combinational(&self) -> bool {
        !matches!(self, Gate::Const(_) | Gate::Input | Gate::Dff { .. })
    }
}

/// A named bus port (list of nets, LSB first).
#[derive(Debug, Clone)]
pub struct Port {
    /// Port name, unique within its direction.
    pub name: String,
    /// Nets, least-significant bit first.
    pub nets: Vec<NetId>,
}

/// A structural defect found by [`Netlist::check_structure`].
///
/// `validate()` reports the first of these as an error string; the lint
/// engine maps each variant to its own diagnostic. Keeping a single
/// enumeration here means the two front-ends can never drift apart on
/// what counts as structurally broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralIssue {
    /// A gate's fanin references a net index `>= len()`.
    OutOfRangeRef {
        /// Index of the offending gate.
        gate: usize,
        /// The out-of-range net index it references.
        net: usize,
    },
    /// A combinational gate references a net at or after its own index,
    /// breaking topological order (only `Dff.d` may look forward).
    ForwardRef {
        /// Index of the offending combinational gate.
        gate: usize,
        /// The non-earlier net index it references.
        net: usize,
    },
    /// A port bit references a net index `>= len()`.
    PortNetOutOfRange {
        /// `true` for an output port, `false` for an input port.
        output: bool,
        /// Port name.
        port: String,
        /// Bit position within the port (LSB first).
        bit: usize,
    },
    /// An input port bit maps to a gate that is not `Gate::Input`.
    InputPortNonInput {
        /// Port name.
        port: String,
        /// Bit position within the port.
        bit: usize,
        /// The offending net.
        net: NetId,
    },
    /// Two ports of the same direction share a name.
    DuplicatePortName {
        /// `true` for output ports.
        output: bool,
        /// The duplicated name.
        name: String,
    },
    /// A port with zero bits.
    ZeroWidthPort {
        /// `true` for an output port.
        output: bool,
        /// Port name.
        name: String,
    },
    /// A port whose name is the empty string.
    EmptyPortName {
        /// `true` for an output port.
        output: bool,
    },
    /// The same `Input` gate is claimed by two different input port bits,
    /// so a testbench write through one port aliases the other.
    SharedInputBit {
        /// The doubly-claimed net.
        net: NetId,
        /// Name of the second port claiming it.
        port: String,
    },
    /// An `Input` gate is read (by gate fanin or an output port) but
    /// belongs to no input port, so nothing can ever drive it.
    OrphanInputGate {
        /// The undriven input net.
        net: NetId,
    },
}

impl fmt::Display for StructuralIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn dir(output: bool) -> &'static str {
            if output {
                "output"
            } else {
                "input"
            }
        }
        match self {
            StructuralIssue::OutOfRangeRef { gate, net } => {
                write!(f, "gate {gate} references out-of-range net {net}")
            }
            StructuralIssue::ForwardRef { gate, net } => write!(
                f,
                "combinational gate {gate} references non-earlier net {net} (cycle?)"
            ),
            StructuralIssue::PortNetOutOfRange { output, port, bit } => write!(
                f,
                "{} port {port} bit {bit} references out-of-range net",
                dir(*output)
            ),
            StructuralIssue::InputPortNonInput { port, bit, net } => write!(
                f,
                "input port {port} bit {bit} maps to non-Input gate at net {}",
                net.index()
            ),
            StructuralIssue::DuplicatePortName { output, name } => {
                write!(f, "duplicate {} port name {name}", dir(*output))
            }
            StructuralIssue::ZeroWidthPort { output, name } => {
                write!(f, "zero-width {} port {name}", dir(*output))
            }
            StructuralIssue::EmptyPortName { output } => {
                write!(f, "{} port with empty name", dir(*output))
            }
            StructuralIssue::SharedInputBit { net, port } => write!(
                f,
                "input port {port} re-claims net {} already owned by another input port",
                net.index()
            ),
            StructuralIssue::OrphanInputGate { net } => write!(
                f,
                "Input gate at net {} is read but belongs to no input port",
                net.index()
            ),
        }
    }
}

/// A complete circuit: gates in topological creation order plus named
/// input/output ports.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<Port>,
    pub(crate) outputs: Vec<Port>,
    /// Nets that belong to a dedicated carry chain (set by the builder's
    /// adder/subtractor combinators). The timing model charges these a
    /// fraction of a LUT delay, like the hardened carry logic of real
    /// FPGAs; everything else about them (simulation, LUT mapping) is
    /// unchanged.
    pub(crate) carry_nets: Vec<NetId>,
    /// Select banks that the generator *intended* to be one-hot (each
    /// bank is the select vector of a [`crate::Builder::one_hot_mux`]
    /// call). Pure metadata: simulation and mapping ignore it; the lint
    /// engine's one-hot checker proves or refutes the intent.
    pub(crate) onehot_banks: Vec<Vec<NetId>>,
}

impl Netlist {
    /// All gates, in topological (creation) order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (= number of nets).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Named input ports.
    pub fn input_ports(&self) -> &[Port] {
        &self.inputs
    }

    /// Named output ports.
    pub fn output_ports(&self) -> &[Port] {
        &self.outputs
    }

    /// Looks up an input port by name.
    pub fn input_port(&self, name: &str) -> Option<&Port> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output port by name.
    pub fn output_port(&self, name: &str) -> Option<&Port> {
        self.outputs.iter().find(|p| p.name == name)
    }

    /// Nets marked as carry-chain members by the builder.
    pub fn carry_nets(&self) -> &[NetId] {
        &self.carry_nets
    }

    /// Select banks recorded as intended-one-hot by the builder's
    /// [`crate::Builder::one_hot_mux`] combinator (one entry per bank,
    /// nets in digit order). Metadata for the lint engine's one-hot
    /// checker; empty for hand-built netlists.
    pub fn one_hot_banks(&self) -> &[Vec<NetId>] {
        &self.onehot_banks
    }

    /// Number of D flip-flops (the "registers" column of Tables III/IV).
    pub fn register_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Dff { .. }))
            .count()
    }

    /// Number of combinational gates.
    pub fn combinational_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_combinational()).count()
    }

    /// Liveness mask: a gate is live iff its value can reach an output
    /// port, possibly through registers. Dead gates still simulate but
    /// are excluded from resource estimation (synthesis tools sweep
    /// them), and the mutation tests skip them.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<usize> = Vec::new();
        for port in &self.outputs {
            for net in &port.nets {
                stack.push(net.index());
            }
        }
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut live[i], true) {
                continue;
            }
            for f in self.gates[i].fanin() {
                stack.push(f.index());
            }
        }
        live
    }

    /// Fanout count per net (how many gate inputs plus output-port bits
    /// read it).
    pub fn fanout(&self) -> Vec<u32> {
        let mut fanout = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for f in g.fanin() {
                fanout[f.index()] += 1;
            }
        }
        for port in &self.outputs {
            for net in &port.nets {
                fanout[net.index()] += 1;
            }
        }
        fanout
    }

    /// Combinational logic depth in *gate* levels: inputs, constants and
    /// DFF outputs are level 0; every combinational gate is one more than
    /// its deepest fanin. (LUT-level depth, which drives the Fmax model,
    /// lives in [`crate::tech`].)
    pub fn gate_depth(&self) -> usize {
        let mut level = vec![0usize; self.gates.len()];
        let mut max = 0;
        for (i, g) in self.gates.iter().enumerate() {
            if g.is_combinational() {
                level[i] = 1 + g.fanin().map(|f| level[f.index()]).max().unwrap_or(0);
                max = max.max(level[i]);
            }
        }
        max
    }

    /// Returns a copy with gate `i` replaced — the fault-injection hook
    /// used by the mutation tests to prove the differential harness (and
    /// the lint engine) actually detect broken circuits.
    ///
    /// The result is *not* re-validated: mutation tests deliberately
    /// build structurally invalid netlists (forward references, orphaned
    /// inputs) to prove the checkers flag them. Run [`Self::validate`]
    /// before simulating if the mutation must stay well-formed.
    pub fn with_gate_replaced(&self, i: usize, gate: Gate) -> Netlist {
        let mut mutated = self.clone();
        mutated.gates[i] = gate;
        mutated
    }

    /// Enumerates every structural defect: out-of-range or forward fanin
    /// references (only `Dff.d` may look forward — state breaks the
    /// cycle), port nets out of range, input ports mapping to non-Input
    /// gates, duplicate port names per direction, zero-width ports,
    /// input bits claimed twice, and `Input` gates that are read but
    /// belong to no input port.
    ///
    /// [`Self::validate`] and the lint engine's error passes are both
    /// thin views over this list.
    pub fn check_structure(&self) -> Vec<StructuralIssue> {
        let mut issues = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            let allows_forward = matches!(g, Gate::Dff { .. });
            for f in g.fanin() {
                if f.index() >= self.gates.len() {
                    issues.push(StructuralIssue::OutOfRangeRef {
                        gate: i,
                        net: f.index(),
                    });
                } else if !allows_forward && f.index() >= i {
                    issues.push(StructuralIssue::ForwardRef {
                        gate: i,
                        net: f.index(),
                    });
                }
            }
        }
        for (output, ports) in [(false, &self.inputs), (true, &self.outputs)] {
            let mut seen = std::collections::HashSet::new();
            for port in ports.iter() {
                if !seen.insert(port.name.as_str()) {
                    issues.push(StructuralIssue::DuplicatePortName {
                        output,
                        name: port.name.clone(),
                    });
                }
                if port.nets.is_empty() {
                    issues.push(StructuralIssue::ZeroWidthPort {
                        output,
                        name: port.name.clone(),
                    });
                }
                if port.name.is_empty() {
                    issues.push(StructuralIssue::EmptyPortName { output });
                }
                for (bit, net) in port.nets.iter().enumerate() {
                    if net.index() >= self.gates.len() {
                        issues.push(StructuralIssue::PortNetOutOfRange {
                            output,
                            port: port.name.clone(),
                            bit,
                        });
                    }
                }
            }
        }
        // Input-gate ownership: each Input gate read by the circuit must
        // be driven through exactly one input-port bit.
        let mut owner = vec![false; self.gates.len()];
        for port in &self.inputs {
            for (bit, net) in port.nets.iter().enumerate() {
                if net.index() >= self.gates.len() {
                    continue; // already reported as PortNetOutOfRange
                }
                if !matches!(self.gates[net.index()], Gate::Input) {
                    issues.push(StructuralIssue::InputPortNonInput {
                        port: port.name.clone(),
                        bit,
                        net: *net,
                    });
                } else if std::mem::replace(&mut owner[net.index()], true) {
                    issues.push(StructuralIssue::SharedInputBit {
                        net: *net,
                        port: port.name.clone(),
                    });
                }
            }
        }
        let mut read = vec![false; self.gates.len()];
        for g in &self.gates {
            for f in g.fanin() {
                if f.index() < self.gates.len() {
                    read[f.index()] = true;
                }
            }
        }
        for port in &self.outputs {
            for net in &port.nets {
                if net.index() < self.gates.len() {
                    read[net.index()] = true;
                }
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if matches!(g, Gate::Input) && read[i] && !owner[i] {
                issues.push(StructuralIssue::OrphanInputGate {
                    net: NetId(i as u32),
                });
            }
        }
        issues
    }

    /// Internal consistency check: `Ok` iff [`Self::check_structure`]
    /// finds nothing; otherwise the first defect, formatted. Used by
    /// tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        match self.check_structure().into_iter().next() {
            None => Ok(()),
            Some(issue) => Err(issue.to_string()),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist: {} gates ({} comb, {} regs), depth {} gate levels",
            self.len(),
            self.combinational_count(),
            self.register_count(),
            self.gate_depth()
        )?;
        for p in &self.inputs {
            writeln!(f, "  in  {:<12} [{}]", p.name, p.nets.len())?;
        }
        for p in &self.outputs {
            writeln!(f, "  out {:<12} [{}]", p.name, p.nets.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    #[test]
    fn fanin_iteration() {
        let g = Gate::Mux {
            sel: NetId(0),
            a: NetId(1),
            b: NetId(2),
        };
        let fanin: Vec<_> = g.fanin().collect();
        assert_eq!(fanin, vec![NetId(0), NetId(1), NetId(2)]);
        assert_eq!(Gate::Input.fanin().count(), 0);
        assert_eq!(Gate::Not(NetId(5)).fanin().count(), 1);
    }

    #[test]
    fn netlist_counts() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let reg = b.register_bus(&x, false);
        b.output_bus("y", &reg);
        let n = b.finish();
        assert_eq!(n.register_count(), 4);
        assert_eq!(n.combinational_count(), 0);
        assert_eq!(n.gate_depth(), 0);
        n.validate().unwrap();
    }

    #[test]
    fn depth_counts_longest_chain() {
        // XOR chain over distinct inputs (NOT chains would constant-fold).
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let mut cur = x[0];
        for &bit in &x[1..] {
            cur = b.xor(cur, bit);
        }
        b.output_bus("y", &[cur]);
        assert_eq!(b.finish().gate_depth(), 5);
    }

    #[test]
    fn validate_catches_forward_reference() {
        // Hand-build a broken netlist.
        let n = Netlist {
            gates: vec![Gate::Not(NetId(1)), Gate::Input],
            ..Netlist::default()
        };
        assert!(n.validate().is_err());
        // Both the forward reference and the unowned Input gate it reads.
        let issues = n.check_structure();
        assert!(issues.contains(&StructuralIssue::ForwardRef { gate: 0, net: 1 }));
        assert!(issues.contains(&StructuralIssue::OrphanInputGate { net: NetId(1) }));
    }

    #[test]
    fn validate_catches_duplicate_port_names() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        b.output_bus("y", &[x[0]]);
        let mut n = b.finish();
        n.outputs.push(Port {
            name: "y".into(),
            nets: vec![x[1]],
        });
        assert!(matches!(
            n.check_structure()[..],
            [StructuralIssue::DuplicatePortName { output: true, .. }]
        ));
        // Same name across directions is fine.
        n.outputs[1].name = "x".into();
        assert!(n.validate().is_ok());
    }

    #[test]
    fn validate_catches_zero_width_port() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        b.output_bus("y", &x);
        let mut n = b.finish();
        n.outputs.push(Port {
            name: "empty".into(),
            nets: vec![],
        });
        assert!(matches!(
            n.check_structure()[..],
            [StructuralIssue::ZeroWidthPort { output: true, .. }]
        ));
    }

    #[test]
    fn validate_catches_orphan_and_shared_inputs() {
        // Output reads an Input gate that no input port owns.
        let mut orphan = Netlist {
            gates: vec![Gate::Input, Gate::Input],
            inputs: vec![Port {
                name: "a".into(),
                nets: vec![NetId(0)],
            }],
            outputs: vec![Port {
                name: "y".into(),
                nets: vec![NetId(1)],
            }],
            ..Netlist::default()
        };
        assert!(matches!(
            orphan.check_structure()[..],
            [StructuralIssue::OrphanInputGate { net: NetId(1) }]
        ));
        // Claiming the same Input bit from two ports is also rejected.
        orphan.inputs.push(Port {
            name: "b".into(),
            nets: vec![NetId(0), NetId(1)],
        });
        assert!(orphan
            .check_structure()
            .iter()
            .any(|i| matches!(i, StructuralIssue::SharedInputBit { net: NetId(0), .. })));
    }

    #[test]
    fn with_gate_replaced_allows_invalid_results() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let y = b.and(x[0], x[1]);
        b.output_bus("y", &[y]);
        let n = b.finish();
        // Deliberately corrupt: the And now forward-references itself.
        let broken = n.with_gate_replaced(y.index(), Gate::And(y, y));
        assert!(broken.validate().is_err());
    }

    #[test]
    fn display_summary_mentions_ports() {
        let mut b = Builder::new();
        let x = b.input_bus("index", 5);
        b.output_bus("out", &x);
        let text = b.finish().to_string();
        assert!(text.contains("index"));
        assert!(text.contains("out"));
    }
}
