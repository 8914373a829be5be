//! Thread × lane sharded exhaustive verification.
//!
//! A word-level sweep settles one word of test vectors per netlist walk
//! — 64 (`u64`), 256 ([`W256`](hwperm_logic::W256)) or 512
//! ([`W512`](hwperm_logic::W512)) lanes. This module adds the second
//! axis: the index space `[0, 2^w)` / `[0, n!)` is split into contiguous
//! per-worker blocks of word-sized batches, and each worker sweeps its
//! block, so throughput scales as *threads × lanes*.
//!
//! Every sharded job in this crate — these sweeps, the stuck-at
//! campaign and the sharded oracle table — runs through
//! [`hwperm_factoradic::fan_out`]: shard 0 runs on the calling thread
//! and the rest on scoped threads, results come back in shard order,
//! and a panicking shard's payload reaches the caller unchanged.
//! `workers = 1` therefore spawns no thread and is exactly the
//! sequential sweep.
//!
//! Workers share exactly one thing: the compiled
//! [`SimProgram`](hwperm_logic::SimProgram) behind an `Arc`. Each
//! worker's [`BatchSim`] is just a flat word value array over that
//! shared tape, so spinning up a worker costs one allocation, not one
//! netlist compilation.
//!
//! **Deterministic reporting guarantee:** results are *byte-identical*
//! for every width and worker count — [`exhaustive_check_parallel_wide`]
//! reports the same lowest-index first mismatch (same index, port, got,
//! want) as [`crate::exhaustive_check_scalar`], and
//! [`find_one_hot_violation_parallel`] the same lowest violating input
//! as a one-worker scan. Shards are contiguous and ascending, every
//! worker reports the lowest divergence *within its shard*, and the
//! reduction takes the first report in shard order, which is therefore
//! the globally lowest index. Lanes are independent (combinational
//! words never mix bits across lanes), so the got/want words cannot
//! depend on which batch companions an index happens to ride with.
//!
//! The repository benchmark (`benchmark/README.md`) times the n = 9
//! sweep end to end as `verify_ms`, and its transpose and steady state
//! per layer as `verify.transpose_ms` and `verify.sweep_steady_ms`.

use crate::exhaustive::{
    check_batch_range, one_hot_sweep_total, port_width_checked, scan_one_hot_range,
    ExhaustiveMismatch, WideExpectation,
};
use hwperm_factoradic::fan_out;
use hwperm_logic::{BatchSim, Netlist, SimProgram, SimWord, LANES};
use std::sync::Arc;

/// Exhaustive differential sweep: drives `input` with `0, 1, …,
/// expected.len() - 1`, compares `output` against `expected`, and
/// returns the first mismatch in index order, if any.
///
/// Each of `workers` shards settles [`SimWord::LANES`] indices per pass
/// of the opcode-fused tape
/// ([`SimProgram::compile_fused`](hwperm_logic::SimProgram::compile_fused))
/// — 64 at `u64`, 256 at [`W256`](hwperm_logic::W256), 512 at
/// [`W512`](hwperm_logic::W512). Fusion never elides output ports, so
/// the verdict and witness equal [`crate::exhaustive_check_scalar`]'s
/// at every width and worker count. A trailing partial batch leaves its
/// unused lanes at zero and never reads them; workers beyond the batch
/// count get empty shards.
///
/// # Panics
/// Panics if `workers == 0`, either port is missing, the input port
/// cannot represent every index, either port exceeds the 64-bit `u64`
/// value domain, or a table word has bits above the output port.
pub fn exhaustive_check_parallel_wide<W: SimWord + Send + Sync>(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    workers: usize,
) -> Result<(), ExhaustiveMismatch> {
    let in_w = port_width_checked(netlist, input, output, expected);
    let out_w = netlist.output_port(output).unwrap().nets.len();
    let table = WideExpectation::<W>::new(in_w, out_w, expected);
    let program = SimProgram::compile_fused_shared(netlist.clone());
    exhaustive_check_parallel_with(&program, input, output, &table, workers)
}

/// Steady-state core of [`exhaustive_check_parallel_wide`]: sweeps a
/// pre-transposed table over an already-compiled shared tape, so
/// compilation and transposition are paid once for many sweeps (the
/// serve verify cache keeps both per `n`).
///
/// # Panics
/// Panics if `workers == 0` or the tape's output port width disagrees
/// with the table.
pub fn exhaustive_check_parallel_with<W: SimWord + Send + Sync>(
    program: &Arc<SimProgram>,
    input: &str,
    output: &str,
    table: &WideExpectation<W>,
    workers: usize,
) -> Result<(), ExhaustiveMismatch> {
    // Shards ascend and each reports its own lowest mismatch, so the
    // first error in shard order is the globally lowest index.
    fan_out(table.batches(), workers, |shard| {
        let mut sim = BatchSim::<W>::from_program(Arc::clone(program));
        check_batch_range(&mut sim, input, output, table, shard)
    })
    .into_iter()
    .collect()
}

/// Ground-truth-by-simulation check of every recorded one-hot bank:
/// sweeps all `2^w` values of the named input port, 64 per pass, over
/// `workers` contiguous batch-aligned shards, and returns the lowest
/// input value under which some bank is *not* exactly one-hot (`None`
/// when all banks hold everywhere). Deterministic for every worker
/// count, by the same shard-order argument as the exhaustive sweep.
/// This is the simulation cross-check the lint mutation sweep uses to
/// validate BDD verdicts.
///
/// # Panics
/// Panics if `workers == 0`, the port is missing, or the port is 64+
/// bits wide.
pub fn find_one_hot_violation_parallel(
    netlist: &Netlist,
    input: &str,
    workers: usize,
) -> Option<u64> {
    assert!(workers >= 1, "need at least one worker");
    let banks = netlist.one_hot_banks();
    if banks.is_empty() {
        return None;
    }
    let total = one_hot_sweep_total(netlist, input);
    let batches = total.div_ceil(LANES as u64) as usize;
    let program = SimProgram::compile_shared(netlist.clone());
    fan_out(batches, workers, |shard| {
        let mut sim = BatchSim::<u64>::from_program(Arc::clone(&program));
        let start = (shard.start * LANES) as u64;
        let end = ((shard.end * LANES) as u64).min(total);
        scan_one_hot_range(&mut sim, banks, input, start, end)
    })
    .into_iter()
    .flatten()
    .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive_check_scalar;
    use hwperm_logic::{Builder, Gate, W256, W512};

    /// Worker counts every sweep is pinned at: sequential (1), even
    /// splits (2, 8) and an odd count (3) whose remainder lands on the
    /// leading shards.
    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

    fn passthrough(bits: usize) -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", bits);
        b.output_bus("y", &x);
        b.finish()
    }

    type Sweep = fn(&Netlist, &str, &str, &[u64], usize) -> Result<(), ExhaustiveMismatch>;

    /// The lane widths every sweep is pinned at.
    const WIDTHS: [(&str, Sweep); 3] = [
        ("u64", exhaustive_check_parallel_wide::<u64>),
        ("W256", exhaustive_check_parallel_wide::<W256>),
        ("W512", exhaustive_check_parallel_wide::<W512>),
    ];

    #[test]
    #[should_panic(expected = "does not match the 4-bit expectation table")]
    fn sweep_panics_surface_with_their_own_message() {
        let table = WideExpectation::<u64>::new(3, 4, &[0; 8]);
        let program = SimProgram::compile_shared(passthrough(3));
        let _ = exhaustive_check_parallel_with(&program, "x", "y", &table, 3);
    }

    #[test]
    #[should_panic(expected = "table word 5 (0x85) has bits above output port \"y\" (3 bits)")]
    fn wide_sweep_rejects_table_words_wider_than_the_port() {
        // The W512 sweep compares only the port's bits, so without the
        // check it would pass a table the scalar sweep refutes.
        let (nl, table) = crate::exhaustive::tests::passthrough_with_a_wide_word();
        let _ = exhaustive_check_parallel_wide::<W512>(&nl, "x", "y", &table, 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let expected: Vec<u64> = (0..8).collect();
        let _ = exhaustive_check_parallel_wide::<u64>(&passthrough(3), "x", "y", &expected, 0);
    }

    #[test]
    fn every_width_and_worker_count_reports_the_scalar_witness() {
        // (port bits, table length, corrupted (index, want) entries).
        // Lengths cover a single partial batch (8), partial u64 / W256 /
        // W512 batches (100), and whole batches at every width (256,
        // 512); corruptions sit past lane 64, on the last lane of a
        // partial or final batch, and across prospective shards.
        type Case = (usize, u64, &'static [(usize, u64)]);
        let cases: [Case; 10] = [
            (3, 8, &[]),
            (3, 8, &[(5, 0), (6, 0)]),
            (3, 8, &[(6, 0)]),
            (7, 100, &[]),
            (7, 100, &[(99, 42)]),
            (7, 100, &[(67, 3), (99, 1)]),
            (8, 256, &[]),
            (8, 256, &[(70, 69), (71, 68), (130, 129), (255, 252)]),
            (8, 256, &[(255, 0)]),
            (9, 512, &[(200, 205), (201, 204), (400, 405), (511, 506)]),
        ];
        for (bits, len, corrupted) in cases {
            let nl = passthrough(bits);
            let mut expected: Vec<u64> = (0..len).collect();
            for &(index, want) in corrupted {
                expected[index] = want;
            }
            // A passthrough outputs its index, so the witness is the
            // lowest corrupted entry.
            let witness = corrupted.first().map(|&(index, want)| ExhaustiveMismatch {
                index: index as u64,
                port: "y".into(),
                got: index as u64,
                want,
            });
            let scalar = exhaustive_check_scalar(&nl, "x", "y", &expected);
            assert_eq!(scalar.clone().err(), witness, "{bits}-bit scalar sweep");
            for (width, sweep) in WIDTHS {
                for workers in WORKER_COUNTS {
                    assert_eq!(
                        sweep(&nl, "x", "y", &expected, workers),
                        scalar,
                        "{bits}-bit table of {len}, {width}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_state_sweep_over_a_shared_tape_matches_the_scalar_witness() {
        // The canonical (unfused) tape and a table transposed once.
        let nl = passthrough(7);
        let mut expected: Vec<u64> = (0..100).collect();
        expected[99] = 1;
        let scalar = exhaustive_check_scalar(&nl, "x", "y", &expected);
        assert_eq!(scalar.as_ref().unwrap_err().index, 99);
        let program = SimProgram::compile_shared(nl);
        let table = WideExpectation::<u64>::new(7, 7, &expected);
        for workers in WORKER_COUNTS {
            assert_eq!(
                exhaustive_check_parallel_with(&program, "x", "y", &table, workers),
                scalar,
                "workers = {workers}"
            );
        }
    }

    fn decoder_bank(sel_bits: usize, lines: usize) -> Netlist {
        let mut b = Builder::new();
        let sel = b.input_bus("sel", sel_bits);
        let lines = b.decoder(&sel, lines);
        b.record_one_hot_bank(&lines);
        b.output_bus("hot", &lines);
        b.finish()
    }

    #[test]
    fn one_hot_scan_reports_the_lowest_witness_at_every_worker_count() {
        // 13 of 16 lines: sel in {13, 14, 15} drives zero of them.
        let truncated = decoder_bank(4, 13);
        // A 2-bit select (a single partial batch of 4 lanes) with one
        // line stuck high: two-hot whenever another line fires.
        let stuck = {
            let nl = decoder_bank(2, 4);
            let lines = nl.output_port("hot").unwrap().nets.clone();
            nl.with_gate_replaced(lines[3].index(), Gate::Const(true))
        };
        let cases = [
            ("healthy decoder", decoder_bank(4, 16), "sel", None),
            ("truncated decoder", truncated, "sel", Some(13)),
            ("stuck line", stuck, "sel", Some(0)),
            ("no recorded banks", passthrough(3), "x", None),
        ];
        for (label, nl, port, want) in cases {
            for workers in WORKER_COUNTS {
                assert_eq!(
                    find_one_hot_violation_parallel(&nl, port, workers),
                    want,
                    "{label}, {workers} workers"
                );
            }
        }
    }
}
