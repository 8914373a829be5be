//! Cross-engine property tests on random combinational netlists. The
//! golden table (the 64-lane tape over the full input space) must be
//! matched by the scalar `BatchSim<bool>` sweep on the canonical tape,
//! the 512-lane sweep on the fused tape, an empty-fault overlay, and
//! the SAT proof — the Tseitin encoding, the CDCL solver and the model
//! decoder checked against simulation — and the word-level stuck-at
//! campaign must match its scalar reference. Random structure reaches
//! the fusion rewrites, the overlay path and the fan-out cones that the
//! registry families alone leave narrow.

use hwperm_faults::FaultOverlay;
use hwperm_logic::{BatchSim, Builder, NetId, Netlist, SimProgram, W256, W512};
use hwperm_verify::{
    exhaustive_check_parallel_wide, exhaustive_check_scalar, golden_output_words,
    prove_against_table, stuck_at_campaign_scalar, stuck_at_campaign_wide, ProveOutcome,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One random gate: an opcode plus operand selectors, resolved against
/// the nets built so far (modulo indexing keeps every choice in range).
#[derive(Debug, Clone)]
struct GateSpec {
    op: u8,
    a: usize,
    b: usize,
    sel: usize,
}

fn gate_spec() -> impl Strategy<Value = GateSpec> {
    (0u8..6, any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(op, a, b, sel)| GateSpec {
        op,
        a,
        b,
        sel,
    })
}

/// Builds a random combinational netlist over a `w`-bit input bus.
/// The output bus exposes the most recently created nets, so late
/// gates (deep logic) stay observable.
fn random_netlist(w: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new();
    let mut nets: Vec<NetId> = b.input_bus("in", w);
    for s in specs {
        let pick = |i: usize| nets[i % nets.len()];
        let (x, y, sel) = (pick(s.a), pick(s.b), pick(s.sel));
        let net = match s.op {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.xor(x, y),
            3 => b.not(x),
            4 => b.mux(sel, x, y),
            _ => b.constant(s.a % 2 == 1),
        };
        nets.push(net);
    }
    let out_w = nets.len().min(8);
    let out: Vec<NetId> = nets[nets.len() - out_w..].to_vec();
    b.output_bus("out", &out);
    b.finish()
}

/// The output word at every input through an empty-fault overlay
/// around a 64-lane simulator, 64 inputs (one per lane) per pass.
fn fault_free_overlay_words(netlist: &Netlist, w: usize) -> Vec<u64> {
    let program = SimProgram::compile_shared(netlist.clone());
    let overlay = FaultOverlay::<u64>::new(Arc::clone(&program), &[]);
    let mut sim = BatchSim::from_program(program);
    let inputs: Vec<u64> = (0..1u64 << w).collect();
    let mut words = Vec::with_capacity(inputs.len());
    for pass in inputs.chunks(64) {
        sim.set_input_lanes_u64("in", pass);
        overlay.eval(&mut sim);
        words.extend_from_slice(&sim.read_output_lanes_u64("out")[..pass.len()]);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_netlists_prove_equal_to_their_own_simulation(
        w in 2usize..=10,
        specs in prop::collection::vec(gate_spec(), 1..40),
    ) {
        // The table is what the 64-lane tape computes over the full
        // input space; every other engine must reproduce it, and
        // CNF-encode + solve must close it as a theorem. Past 8 input
        // bits the proof spans several 256-index blocks.
        let netlist = random_netlist(w, &specs);
        let table = golden_output_words(&netlist, "in", "out");
        prop_assert_eq!(exhaustive_check_scalar(&netlist, "in", "out", &table), Ok(()));
        prop_assert_eq!(
            exhaustive_check_parallel_wide::<W512>(&netlist, "in", "out", &table, 2),
            Ok(())
        );
        prop_assert_eq!(fault_free_overlay_words(&netlist, w), table.clone());
        let out = prove_against_table(&netlist, "in", "out", &table).unwrap();
        prop_assert!(
            matches!(out, ProveOutcome::Proved(_)),
            "SAT disagrees with the simulator: {:?}", out
        );
    }

    #[test]
    fn corrupted_tables_are_refuted_at_the_corrupted_index(
        w in 2usize..=10,
        specs in prop::collection::vec(gate_spec(), 1..40),
        corrupt in any::<u64>(),
    ) {
        // Flip one bit of one table entry: the only satisfying
        // assignment of the miter is that index, in whichever
        // 256-index block holds it, and the decoded counterexample must
        // replay against the simulator's word.
        let netlist = random_netlist(w, &specs);
        let mut table = golden_output_words(&netlist, "in", "out");
        let out_bits = netlist.output_port("out").unwrap().nets.len();
        let idx = (corrupt % table.len() as u64) as usize;
        let bit = (corrupt >> 32) as usize % out_bits;
        table[idx] ^= 1u64 << bit;
        let out = prove_against_table(&netlist, "in", "out", &table).unwrap();
        let ProveOutcome::Refuted(cx, _) = out else {
            panic!("not refuted: {out:?}");
        };
        prop_assert_eq!(cx.index, idx as u64);
        prop_assert_eq!(cx.got, table[idx] ^ (1u64 << bit), "witness must be the simulated word");
        prop_assert_eq!(cx.want, table[idx]);
    }

    #[test]
    fn campaigns_match_the_scalar_reference_at_every_width_and_worker_count(
        w in 2usize..=10,
        specs in prop::collection::vec(gate_spec(), 1..40),
        corrupt in any::<u64>(),
    ) {
        // Random structure brings stuck constants, outputs wired
        // straight to inputs or constants (empty cones) and reconvergent
        // fan-out. The corrupted table is one the fault-free netlist
        // misses: a fault whose net already holds its stuck value still
        // diverges there. Up to 10 input bits span several batches at
        // every width.
        let netlist = random_netlist(w, &specs);
        let golden = golden_output_words(&netlist, "in", "out");
        let mut missed = golden.clone();
        let out_bits = netlist.output_port("out").unwrap().nets.len();
        let idx = (corrupt % golden.len() as u64) as usize;
        missed[idx] ^= 1u64 << ((corrupt >> 32) as usize % out_bits);
        let even = |word: u64| word.count_ones().is_multiple_of(2);
        for table in [&golden, &missed] {
            for valid in [None, Some(&even as &(dyn Fn(u64) -> bool + Sync))] {
                let scalar = stuck_at_campaign_scalar(&netlist, "in", "out", table, valid);
                for workers in 1..=3 {
                    let label = format!(
                        "table corrupted: {}, predicate: {}, {workers} workers",
                        table == &missed,
                        valid.is_some()
                    );
                    prop_assert_eq!(
                        &stuck_at_campaign_wide::<u64>(&netlist, "in", "out", table, valid, workers),
                        &scalar,
                        "u64, {}", label
                    );
                    prop_assert_eq!(
                        &stuck_at_campaign_wide::<W256>(&netlist, "in", "out", table, valid, workers),
                        &scalar,
                        "W256, {}", label
                    );
                    prop_assert_eq!(
                        &stuck_at_campaign_wide::<W512>(&netlist, "in", "out", table, valid, workers),
                        &scalar,
                        "W512, {}", label
                    );
                }
            }
        }
    }
}
