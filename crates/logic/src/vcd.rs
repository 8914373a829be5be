//! VCD (Value Change Dump) waveform export.
//!
//! The standard interchange format hardware engineers inspect pipelines
//! with (IEEE 1364 §18). [`Tracer`] samples named ports of a simulated
//! netlist once per clock and renders a VCD file showing, e.g., the
//! pipelined converter filling and then sustaining one permutation per
//! clock — the visual counterpart of the paper's throughput claim.

use crate::netlist::Port;
use crate::{BatchSim, NetId, Netlist};
use std::fmt::Write as _;

/// Records per-cycle values of selected ports for VCD export.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Traced buses: (name, nets, VCD id code).
    signals: Vec<(String, Vec<NetId>, String)>,
    /// One sample per [`Tracer::sample`] call: bit values per signal,
    /// MSB-first strings as VCD wants them.
    samples: Vec<Vec<String>>,
}

/// Generates the short identifier codes VCD uses (`!`, `"`, `#`, …).
fn id_code(i: usize) -> String {
    let mut i = i;
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

impl Tracer {
    /// Traces the named ports (inputs or outputs) of `netlist`.
    ///
    /// # Panics
    /// Panics if a named port does not exist.
    pub fn new(netlist: &Netlist, ports: &[&str]) -> Self {
        let find = |name: &str| -> &Port {
            netlist
                .input_port(name)
                .or_else(|| netlist.output_port(name))
                .unwrap_or_else(|| panic!("no port named {name:?}"))
        };
        let signals = ports
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let port = find(name);
                (name.to_string(), port.nets.clone(), id_code(i))
            })
            .collect();
        Tracer {
            signals,
            samples: Vec::new(),
        }
    }

    /// Records the current value of every traced port. Call once per
    /// clock, after `sim.eval()`.
    pub fn sample(&mut self, sim: &BatchSim<bool>) {
        let row = self
            .signals
            .iter()
            .map(|(_, nets, _)| {
                // VCD binary vectors are written MSB first.
                nets.iter()
                    .rev()
                    .map(|&n| if sim.probe(n) { '1' } else { '0' })
                    .collect()
            })
            .collect();
        self.samples.push(row);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the recording as a VCD document (1 ns per sample).
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        writeln!(out, "$date reproduction run $end").unwrap();
        writeln!(out, "$version hwperm-logic tracer $end").unwrap();
        writeln!(out, "$timescale 1ns $end").unwrap();
        writeln!(out, "$scope module dut $end").unwrap();
        for (name, nets, id) in &self.signals {
            writeln!(out, "$var wire {} {} {} $end", nets.len(), id, name).unwrap();
        }
        writeln!(out, "$upscope $end").unwrap();
        writeln!(out, "$enddefinitions $end").unwrap();
        let mut last: Vec<Option<&String>> = vec![None; self.signals.len()];
        for (t, row) in self.samples.iter().enumerate() {
            let mut stamped = false;
            for (i, value) in row.iter().enumerate() {
                if last[i] == Some(value) {
                    continue; // VCD records changes only
                }
                if !stamped {
                    writeln!(out, "#{t}").unwrap();
                    stamped = true;
                }
                let (_, nets, id) = &self.signals[i];
                if nets.len() == 1 {
                    writeln!(out, "{value}{id}").unwrap();
                } else {
                    writeln!(out, "b{value} {id}").unwrap();
                }
                last[i] = Some(value);
            }
        }
        writeln!(out, "#{}", self.samples.len()).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn toggler() -> (BatchSim<bool>, Tracer) {
        let mut b = Builder::new();
        let q = b.dff_deferred(false);
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output_bus("q", &[q]);
        let x = b.input_bus("x", 4);
        b.output_bus("y", &x);
        let nl = b.finish();
        let tracer = Tracer::new(&nl, &["q", "y"]);
        (BatchSim::<bool>::new(nl), tracer)
    }

    #[test]
    fn header_declares_all_signals() {
        let (_, tracer) = toggler();
        let vcd = tracer.to_vcd();
        assert!(vcd.contains("$var wire 1 ! q $end"));
        assert!(vcd.contains("$var wire 4 \" y $end"));
        assert!(vcd.contains("$enddefinitions"));
    }

    #[test]
    fn records_toggle_waveform() {
        let (mut sim, mut tracer) = toggler();
        sim.set_input_u64("x", 0b1010);
        for _ in 0..4 {
            sim.eval();
            tracer.sample(&sim);
            sim.step();
        }
        assert_eq!(tracer.len(), 4);
        let vcd = tracer.to_vcd();
        // q toggles 0,1,0,1 → changes at t = 0,1,2,3.
        assert!(vcd.contains("#0\n0!"), "{vcd}");
        assert!(vcd.contains("#1\n1!"), "{vcd}");
        // y is constant after t0: exactly one vector record.
        assert_eq!(vcd.matches("b1010 \"").count(), 1, "{vcd}");
    }

    #[test]
    fn change_only_encoding() {
        let (mut sim, mut tracer) = toggler();
        sim.set_input_u64("x", 3);
        for _ in 0..6 {
            sim.eval();
            tracer.sample(&sim);
            // No step: nothing changes.
        }
        let vcd = tracer.to_vcd();
        // Only the initial timestamp plus the trailing end marker.
        assert_eq!(vcd.matches('#').count(), 2, "{vcd}");
    }

    #[test]
    fn id_codes_are_printable_and_distinct() {
        let ids: Vec<String> = (0..200).map(id_code).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 200);
        assert!(ids
            .iter()
            .all(|s| s.chars().all(|c| ('!'..='~').contains(&c))));
    }

    #[test]
    #[should_panic(expected = "no port named")]
    fn unknown_port_rejected() {
        let b = Builder::new();
        Tracer::new(&b.finish(), &["nope"]);
    }
}
