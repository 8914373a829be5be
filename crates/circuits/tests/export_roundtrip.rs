//! Interchange-format round trips: every registered circuit family
//! exports to both structural Verilog and BLIF, and the BLIF of each
//! *combinational* family parses back into a netlist that is
//! simulation-identical to the original over its full input space —
//! proving the exporter's gate covers encode exactly the functions the
//! simulator computes, not just well-formed syntax.

use hwperm_circuits::{families, sweep_ports};
use hwperm_logic::{to_blif, to_verilog, Builder, NetId, Netlist};
use hwperm_verify::golden_output_words;
use std::collections::HashMap;

/// Every registered family at n = 4, named by its module name.
fn all_families() -> Vec<(&'static str, Netlist)> {
    families()
        .iter()
        .map(|f| (f.module, (f.build)(4)))
        .collect()
}

/// A minimal BLIF reader for the dialect `to_blif` emits: buffers,
/// the fixed covers for Not/And/Or/Xor/Mux, constant covers, and
/// `.latch`. Rebuilds through `Builder`, so the round trip also
/// survives the builder's folding and structural hashing.
fn parse_blif(text: &str) -> Netlist {
    let mut b = Builder::new();
    // Signal name ("x[0]" or "n17") → net in the rebuilt netlist.
    let mut net_of: HashMap<String, NetId> = HashMap::new();

    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let mut outputs_decl: Vec<String> = Vec::new();
    // (.names header tokens, cover lines) in file order.
    let mut covers: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    let mut latches: Vec<(String, String, bool)> = Vec::new(); // (d, q, init)

    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        match tokens.first().map(String::as_str) {
            Some(".inputs") => {
                // Group per-bit signals "name[i]" into ordered buses.
                let mut buses: Vec<(String, usize)> = Vec::new();
                for t in &tokens[1..] {
                    let name = t.split('[').next().unwrap().to_string();
                    match buses.last_mut() {
                        Some((last, w)) if *last == name => *w += 1,
                        _ => buses.push((name, 1)),
                    }
                }
                for (name, w) in buses {
                    let bus = b.input_bus(&name, w);
                    for (bit, net) in bus.iter().enumerate() {
                        net_of.insert(format!("{name}[{bit}]"), *net);
                    }
                }
                i += 1;
            }
            Some(".outputs") => {
                outputs_decl = tokens[1..].to_vec();
                i += 1;
            }
            Some(".names") => {
                let mut cover = Vec::new();
                i += 1;
                while i < lines.len() && !lines[i].starts_with('.') {
                    cover.push(lines[i].to_string());
                    i += 1;
                }
                covers.push((tokens[1..].to_vec(), cover));
            }
            Some(".latch") => {
                // ".latch d q re clk init"
                latches.push((tokens[1].clone(), tokens[2].clone(), tokens[5] == "1"));
                i += 1;
            }
            _ => i += 1, // .model / .end / blank
        }
    }

    // DFF feedback can reference nets defined later in the file, so
    // latch outputs are created deferred first and wired to their `d`
    // signals once every cover has been rebuilt.
    for (_, q, init) in &latches {
        let dff = b.dff_deferred(*init);
        net_of.insert(q.clone(), dff);
    }

    for (sig, cover) in covers {
        let (target, ins) = sig.split_last().expect(".names has a target");
        let get = |name: &String| {
            *net_of
                .get(name)
                .unwrap_or_else(|| panic!("undefined {name}"))
        };
        let cover: Vec<&str> = cover.iter().map(String::as_str).collect();
        let net = match (ins, cover.as_slice()) {
            ([], ["1"]) => b.constant(true),
            ([], []) => b.constant(false),
            ([a], ["1 1"]) => get(a), // buffer: alias
            ([a], ["0 1"]) => {
                let a = get(a);
                b.not(a)
            }
            ([a, c], ["11 1"]) => {
                let (a, c) = (get(a), get(c));
                b.and(a, c)
            }
            ([a, c], ["1- 1", "-1 1"]) => {
                let (a, c) = (get(a), get(c));
                b.or(a, c)
            }
            ([a, c], ["10 1", "01 1"]) => {
                let (a, c) = (get(a), get(c));
                b.xor(a, c)
            }
            ([s, a, c], ["01- 1", "1-1 1"]) => {
                let (s, a, c) = (get(s), get(a), get(c));
                b.mux(s, a, c)
            }
            other => panic!("unrecognized cover {other:?}"),
        };
        net_of.insert(target.clone(), net);
    }

    // Close the feedback: every `d` signal is resolvable now.
    for (d, q, _) in &latches {
        let d = *net_of
            .get(d)
            .unwrap_or_else(|| panic!("undefined latch d {d}"));
        b.connect_dff(net_of[q], d);
    }

    // Output buses in declaration order.
    let mut buses: Vec<(String, Vec<NetId>)> = Vec::new();
    for t in &outputs_decl {
        let name = t.split('[').next().unwrap().to_string();
        let net = *net_of
            .get(t)
            .unwrap_or_else(|| panic!("undriven output {t}"));
        match buses.last_mut() {
            Some((last, bits)) if *last == name => bits.push(net),
            _ => buses.push((name, vec![net])),
        }
    }
    for (name, bits) in buses {
        b.output_bus(&name, &bits);
    }
    b.finish()
}

#[test]
fn every_family_exports_wellformed_verilog() {
    for (family, netlist) in all_families() {
        let v = to_verilog(&netlist, family);
        assert!(v.contains(&format!("module {family}(")), "{family}");
        assert!(v.trim_end().ends_with("endmodule"), "{family}");
        let sequential = netlist.register_count() > 0;
        assert_eq!(v.contains("always @(posedge clk)"), sequential, "{family}");
        assert_eq!(v.contains("  input clk;"), sequential, "{family}");
        for p in netlist.input_ports() {
            let decl = format!("  input [{}:0] {};", p.nets.len() - 1, p.name);
            assert!(v.contains(&decl), "{family}: missing {decl:?}");
        }
        for p in netlist.output_ports() {
            let decl = format!("  output [{}:0] {};", p.nets.len() - 1, p.name);
            assert!(v.contains(&decl), "{family}: missing {decl:?}");
            for bit in 0..p.nets.len() {
                assert!(
                    v.contains(&format!("  assign {}[{bit}] = n", p.name)),
                    "{family}: output bit {}[{bit}] undriven",
                    p.name
                );
            }
        }
    }
}

#[test]
fn every_family_exports_wellformed_blif() {
    for (family, netlist) in all_families() {
        let blif = to_blif(&netlist, family);
        assert!(blif.contains(&format!(".model {family}")), "{family}");
        assert!(blif.trim_end().ends_with(".end"), "{family}");
        let latches = blif.matches(".latch").count();
        assert_eq!(latches, netlist.register_count(), "{family}");
        for p in netlist.input_ports().iter().chain(netlist.output_ports()) {
            assert!(
                blif.contains(&format!("{}[0]", p.name)),
                "{family}: port {} absent",
                p.name
            );
        }
    }
}

#[test]
fn combinational_blif_roundtrips_simulation_identical() {
    for (family, netlist) in &all_families() {
        let Some((input, output)) = sweep_ports(netlist) else {
            continue;
        };
        let parsed = parse_blif(&to_blif(netlist, family));
        assert_eq!(
            golden_output_words(netlist, input, output),
            golden_output_words(&parsed, input, output),
            "{family}: BLIF round trip changed the circuit's function"
        );
    }
}

#[test]
fn sequential_blif_parses_with_latches_intact() {
    // The sequential families round-trip structurally: same latch
    // count, same ports. (Cycle-accurate replay is covered by the
    // combinational sweep above plus the simulator's own DFF tests.)
    for (family, netlist) in &all_families() {
        if netlist.register_count() == 0 {
            continue;
        }
        let parsed = parse_blif(&to_blif(netlist, family));
        assert_eq!(
            parsed.register_count(),
            netlist.register_count(),
            "{family}"
        );
        for p in netlist.output_ports() {
            let q = parsed
                .output_port(&p.name)
                .unwrap_or_else(|| panic!("{family}: round trip lost output port {}", p.name));
            assert_eq!(q.nets.len(), p.nets.len(), "{family}:{}", p.name);
        }
    }
}

#[test]
fn tiny_netlist_verilog_and_blif_golden_snapshot() {
    // An exact-text golden: a half adder. Any formatting or encoding
    // change to the exporters must be a conscious edit of this test.
    let mut b = Builder::new();
    let x = b.input_bus("x", 2);
    let s = b.xor(x[0], x[1]);
    let c = b.and(x[0], x[1]);
    b.output_bus("sum", &[s]);
    b.output_bus("carry", &[c]);
    let nl = b.finish();

    let verilog = to_verilog(&nl, "half_adder");
    assert_eq!(
        verilog,
        "// Generated by hwperm-logic from a verified netlist.\n\
         module half_adder(x, sum, carry);\n\
         \x20 input [1:0] x;\n\
         \x20 output [0:0] sum;\n\
         \x20 output [0:0] carry;\n\
         \n\
         \x20 wire n0;\n\
         \x20 wire n1;\n\
         \x20 wire n2;\n\
         \x20 wire n3;\n\
         \n\
         \x20 assign n0 = x[0];\n\
         \x20 assign n1 = x[1];\n\
         \x20 assign n2 = n0 ^ n1;\n\
         \x20 assign n3 = n0 & n1;\n\
         \n\
         \x20 assign sum[0] = n2;\n\
         \x20 assign carry[0] = n3;\n\
         endmodule\n"
    );

    let blif = to_blif(&nl, "half_adder");
    assert_eq!(
        blif,
        "# Generated by hwperm-logic\n\
         .model half_adder\n\
         .inputs x[0] x[1]\n\
         .outputs sum[0] carry[0]\n\
         .names x[0] n0\n\
         1 1\n\
         .names x[1] n1\n\
         1 1\n\
         .names n0 n1 n2\n\
         10 1\n\
         01 1\n\
         .names n0 n1 n3\n\
         11 1\n\
         .names n2 sum[0]\n\
         1 1\n\
         .names n3 carry[0]\n\
         1 1\n\
         .end\n"
    );
}
