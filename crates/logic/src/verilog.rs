//! Structural Verilog export.
//!
//! The paper's circuits were implemented as "a Verilog program … on an
//! SRC-6 reconfigurable computer". This module closes the loop: any
//! generated [`Netlist`] can be emitted as synthesizable structural
//! Verilog-2001 (one `assign` per combinational gate, one clocked
//! `always` block for the registers), so the exact circuits this repo
//! simulates and measures can be handed to a real FPGA flow.

use crate::netlist::{Gate, Netlist};
use std::fmt::Write as _;

/// Renders a netlist as a synthesizable Verilog module.
///
/// Conventions:
/// - every input port becomes a `[w-1:0] input`, every output an
///   `output`; a `clk` input is added iff the netlist has registers;
/// - internal nets are named `n<i>`; port bits are wired to them with
///   `assign`s, keeping the body uniform;
/// - DFF reset values are folded into `initial` (FPGA-style power-on
///   initialization, matching the simulator's reset semantics).
///
/// # Panics
/// Panics if `module_name` is not a valid Verilog identifier.
pub fn to_verilog(netlist: &Netlist, module_name: &str) -> String {
    assert!(
        !module_name.is_empty()
            && module_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !module_name.chars().next().unwrap().is_ascii_digit(),
        "invalid Verilog module name {module_name:?}"
    );
    let has_regs = netlist.register_count() > 0;
    let mut out = String::new();

    // Header.
    writeln!(out, "// Generated by hwperm-logic from a verified netlist.").unwrap();
    write!(out, "module {module_name}(").unwrap();
    let mut ports: Vec<String> = Vec::new();
    if has_regs {
        ports.push("clk".to_string());
    }
    for p in netlist.input_ports() {
        ports.push(p.name.clone());
    }
    for p in netlist.output_ports() {
        ports.push(p.name.clone());
    }
    write!(out, "{}", ports.join(", ")).unwrap();
    writeln!(out, ");").unwrap();

    if has_regs {
        writeln!(out, "  input clk;").unwrap();
    }
    for p in netlist.input_ports() {
        writeln!(out, "  input [{}:0] {};", p.nets.len() - 1, p.name).unwrap();
    }
    for p in netlist.output_ports() {
        writeln!(out, "  output [{}:0] {};", p.nets.len() - 1, p.name).unwrap();
    }
    writeln!(out).unwrap();

    // Net declarations.
    for (i, g) in netlist.gates().iter().enumerate() {
        match g {
            Gate::Dff { .. } => writeln!(out, "  reg n{i};").unwrap(),
            _ => writeln!(out, "  wire n{i};").unwrap(),
        }
    }
    writeln!(out).unwrap();

    // Input port bits drive their nets.
    for p in netlist.input_ports() {
        for (bit, net) in p.nets.iter().enumerate() {
            writeln!(out, "  assign n{} = {}[{bit}];", net.index(), p.name).unwrap();
        }
    }

    // Gate bodies.
    let mut dffs: Vec<(usize, u32, bool)> = Vec::new(); // (q, d, init)
    for (i, g) in netlist.gates().iter().enumerate() {
        match *g {
            Gate::Input => {}
            Gate::Const(v) => {
                writeln!(out, "  assign n{i} = 1'b{};", v as u8).unwrap();
            }
            Gate::Not(a) => writeln!(out, "  assign n{i} = ~n{};", a.index()).unwrap(),
            Gate::And(a, b) => {
                writeln!(out, "  assign n{i} = n{} & n{};", a.index(), b.index()).unwrap()
            }
            Gate::Or(a, b) => {
                writeln!(out, "  assign n{i} = n{} | n{};", a.index(), b.index()).unwrap()
            }
            Gate::Xor(a, b) => {
                writeln!(out, "  assign n{i} = n{} ^ n{};", a.index(), b.index()).unwrap()
            }
            Gate::Mux { sel, a, b } => writeln!(
                out,
                "  assign n{i} = n{} ? n{} : n{};",
                sel.index(),
                b.index(),
                a.index()
            )
            .unwrap(),
            Gate::Dff { d, init } => dffs.push((i, d.0, init)),
        }
    }

    // Registers.
    if has_regs {
        writeln!(out, "\n  initial begin").unwrap();
        for &(q, _, init) in &dffs {
            writeln!(out, "    n{q} = 1'b{};", init as u8).unwrap();
        }
        writeln!(out, "  end").unwrap();
        writeln!(out, "\n  always @(posedge clk) begin").unwrap();
        for &(q, d, _) in &dffs {
            writeln!(out, "    n{q} <= n{d};").unwrap();
        }
        writeln!(out, "  end").unwrap();
    }

    // Output port bits.
    writeln!(out).unwrap();
    for p in netlist.output_ports() {
        for (bit, net) in p.nets.iter().enumerate() {
            writeln!(out, "  assign {}[{bit}] = n{};", p.name, net.index()).unwrap();
        }
    }
    writeln!(out, "endmodule").unwrap();
    out
}

/// One testbench stimulus vector: `(inputs, expected_outputs)`, each a
/// list of `(port_name, value)` pairs.
pub type TestVector = (Vec<(String, u64)>, Vec<(String, u64)>);

/// Generates a self-checking Verilog testbench for a netlist from
/// concrete stimulus: each entry of `vectors` assigns every input port
/// and states the expected value of every output port (as produced by
/// the bit-accurate simulator). Combinational modules are checked after
/// a settle delay; sequential ones after one clock per vector.
pub fn to_testbench(netlist: &Netlist, module_name: &str, vectors: &[TestVector]) -> String {
    let has_regs = netlist.register_count() > 0;
    let mut out = String::new();
    writeln!(out, "`timescale 1ns/1ps").unwrap();
    writeln!(out, "module {module_name}_tb;").unwrap();
    if has_regs {
        writeln!(out, "  reg clk = 0;").unwrap();
        writeln!(out, "  always #5 clk = ~clk;").unwrap();
    }
    for p in netlist.input_ports() {
        writeln!(out, "  reg [{}:0] {};", p.nets.len() - 1, p.name).unwrap();
    }
    for p in netlist.output_ports() {
        writeln!(out, "  wire [{}:0] {};", p.nets.len() - 1, p.name).unwrap();
    }
    write!(out, "  {module_name} dut(").unwrap();
    let mut conns: Vec<String> = Vec::new();
    if has_regs {
        conns.push(".clk(clk)".to_string());
    }
    for p in netlist.input_ports().iter().chain(netlist.output_ports()) {
        conns.push(format!(".{0}({0})", p.name));
    }
    writeln!(out, "{});", conns.join(", ")).unwrap();

    writeln!(out, "  integer errors = 0;").unwrap();
    writeln!(out, "  initial begin").unwrap();
    for (inputs, outputs) in vectors {
        for (port, value) in inputs {
            writeln!(out, "    {port} = {value};").unwrap();
        }
        if has_regs {
            writeln!(out, "    @(posedge clk); #1;").unwrap();
        } else {
            writeln!(out, "    #1;").unwrap();
        }
        for (port, value) in outputs {
            writeln!(
                out,
                "    if ({port} !== {value}) begin errors = errors + 1; \
                 $display(\"FAIL: {port} = %0d, expected {value}\", {port}); end"
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "    if (errors == 0) $display(\"PASS: all {} vectors\"); $finish;",
        vectors.len()
    )
    .unwrap();
    writeln!(out, "  end").unwrap();
    writeln!(out, "endmodule").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;
    use hwperm_bignum::Ubig;

    fn adder_netlist() -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let s = b.add_expand(&x, &y);
        b.output_bus("s", &s);
        b.finish()
    }

    #[test]
    fn combinational_module_structure() {
        let v = to_verilog(&adder_netlist(), "adder4");
        assert!(v.starts_with("// Generated"));
        assert!(v.contains("module adder4(x, y, s);"));
        assert!(v.contains("input [3:0] x;"));
        assert!(v.contains("output [4:0] s;"));
        assert!(v.contains("endmodule"));
        assert!(!v.contains("clk"), "no clock for pure combinational logic");
        assert!(!v.contains("always"));
    }

    #[test]
    fn registered_module_gets_clock_and_always_block() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let q = b.register_bus(&x, true);
        b.output_bus("y", &q);
        let v = to_verilog(&b.finish(), "pipe");
        assert!(v.contains("module pipe(clk, x, y);"));
        assert!(v.contains("input clk;"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("initial begin"));
        assert!(v.contains("= 1'b1;"), "init value present");
        assert_eq!(v.matches("<=").count(), 2, "one nonblocking assign per DFF");
    }

    #[test]
    fn every_gate_kind_renders() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        let n = b.not(x[0]);
        let a = b.and(n, x[1]);
        let o = b.or(a, x[2]);
        let xo = b.xor(o, x[0]);
        let m = b.mux(x[1], xo, o);
        let q = b.dff(m, false);
        b.output_bus("y", &[q]);
        let v = to_verilog(&b.finish(), "kinds");
        for op in ["~n", " & ", " | ", " ^ ", " ? "] {
            assert!(v.contains(op), "missing {op:?} in:\n{v}");
        }
    }

    #[test]
    fn assignments_reference_declared_nets_only() {
        // Structural sanity: every `nK` on a right-hand side is declared.
        let v = to_verilog(&adder_netlist(), "adder4");
        let declared: std::collections::HashSet<String> = v
            .lines()
            .filter(|l| l.trim_start().starts_with("wire") || l.trim_start().starts_with("reg"))
            .map(|l| {
                l.trim()
                    .trim_end_matches(';')
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .to_string()
            })
            .collect();
        for token in v.split(|c: char| !c.is_ascii_alphanumeric()) {
            if token.starts_with('n')
                && token[1..].chars().all(|c| c.is_ascii_digit())
                && token.len() > 1
            {
                assert!(declared.contains(token), "undeclared net {token}");
            }
        }
    }

    #[test]
    fn converter_sized_export_is_plausible() {
        // The real deliverable: export a circuit netlist and sanity-check
        // scale (one assign per combinational gate).
        let mut b = Builder::new();
        let x = b.input_bus("index", 5);
        let ge = b.ge_const(&x, &Ubig::from(12u64));
        b.output_bus("t", &[ge]);
        let nl = b.finish();
        let comb = nl.combinational_count();
        let consts = nl
            .gates()
            .iter()
            .filter(|g| matches!(g, crate::Gate::Const(_)))
            .count();
        let v = to_verilog(&nl, "cmp");
        let assigns = v.matches("  assign n").count();
        // One assign per combinational gate and constant, plus the five
        // input-bit wires.
        assert_eq!(assigns, comb + consts + 5);
    }

    #[test]
    #[should_panic(expected = "invalid Verilog module name")]
    fn bad_module_name_rejected() {
        to_verilog(&adder_netlist(), "9bad name");
    }

    #[test]
    fn testbench_from_simulated_vectors() {
        use crate::BatchSim;
        let nl = adder_netlist();
        let mut sim = BatchSim::<bool>::new(nl.clone());
        let vectors: Vec<_> = [(3u64, 4u64), (15, 15), (0, 0)]
            .iter()
            .map(|&(x, y)| {
                sim.set_input_u64("x", x);
                sim.set_input_u64("y", y);
                sim.eval();
                let s = sim.read_output("s").to_u64().unwrap();
                (
                    vec![("x".to_string(), x), ("y".to_string(), y)],
                    vec![("s".to_string(), s)],
                )
            })
            .collect();
        let tb = to_testbench(&nl, "adder4", &vectors);
        assert!(tb.contains("module adder4_tb;"));
        assert!(tb.contains("adder4 dut(.x(x), .y(y), .s(s));"));
        assert!(tb.contains("if (s !== 7)"), "3+4 check present:\n{tb}");
        assert!(tb.contains("if (s !== 30)"), "15+15 check present");
        assert!(tb.contains("PASS: all 3 vectors"));
        assert!(!tb.contains("clk"), "combinational bench has no clock");
    }

    #[test]
    fn sequential_testbench_has_clock() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let q = b.register_bus(&x, false);
        b.output_bus("y", &q);
        let nl = b.finish();
        let tb = to_testbench(
            &nl,
            "pipe",
            &[(vec![("x".to_string(), 2)], vec![("y".to_string(), 2)])],
        );
        assert!(tb.contains("always #5 clk = ~clk;"));
        assert!(tb.contains("@(posedge clk)"));
        assert!(tb.contains(".clk(clk)"));
    }
}
