//! Exhaustive differential checking: what every sweep shares.
//!
//! BDD equivalence (the rest of this crate) proves properties
//! symbolically; the sweeps are the *simulation* side of the house:
//! drive every index through the gate-level netlist and compare against
//! a precomputed expectation table. This module holds the witness type,
//! the pre-transposed [`WideExpectation`] table, the range cores that
//! the sharded entry points run per shard, and the scalar reference
//! sweep [`exhaustive_check_scalar`] — one full netlist walk per index,
//! the baseline every word-level sweep is checked against. A word-level
//! range drives a [`BatchSim`] with [`SimWord::LANES`] consecutive
//! indices per pass, so one walk settles 64 (`u64`), 256 ([`W256`]) or
//! 512 ([`W512`]) simulations.
//!
//! All sweeps report the *first* mismatching index (word-level: lowest
//! batch, then lowest lane — i.e. the same index order as the scalar
//! sweep, at every lane width), so a fault has one canonical witness
//! regardless of path.
//!
//! The expectation table is data, not a closure, so software unranking
//! is paid once, outside the sweep. Table generation itself lives in
//! the oracle module ([`crate::expected_permutation_words`] —
//! block-decoded, with a thread-sharded variant).

use hwperm_logic::{BatchSim, Netlist, SimWord, LANES};
use std::fmt;

#[cfg(doc)]
use hwperm_logic::{W256, W512};

/// First divergence found by an exhaustive differential sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveMismatch {
    /// The lowest input index whose output diverges.
    pub index: u64,
    /// The output port that diverged.
    pub port: String,
    /// What the netlist produced at that index.
    pub got: u64,
    /// What the expectation table said it should produce.
    pub want: u64,
}

impl fmt::Display for ExhaustiveMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "index {}: output {:?} = {:#x}, expected {:#x}",
            self.index, self.port, self.got, self.want
        )
    }
}

impl std::error::Error for ExhaustiveMismatch {}

pub(crate) fn port_width_checked(
    netlist: &Netlist,
    input: &str,
    output: &str,
    total: usize,
) -> usize {
    let in_w = netlist
        .input_port(input)
        .unwrap_or_else(|| panic!("no input port named {input:?}"))
        .nets
        .len();
    let out_w = netlist
        .output_port(output)
        .unwrap_or_else(|| panic!("no output port named {output:?}"))
        .nets
        .len();
    assert!(
        in_w < 64 && out_w <= 64,
        "ports {input:?} ({in_w} bits) / {output:?} ({out_w} bits) exceed the u64 sweep"
    );
    assert!(
        in_w == 63 || (total as u64) <= 1u64 << in_w,
        "{total} indices do not fit input port {input:?} ({in_w} bits)"
    );
    in_w
}

/// An expectation table pre-transposed into the word domain: per batch
/// of [`SimWord::LANES`] consecutive indices, the lane words of every
/// input bit (the indices themselves) and every expected output bit.
///
/// Transposing is pure data preparation — it depends only on the table,
/// not the netlist — so hoisting it out of the sweep leaves
/// [`crate::exhaustive_check_parallel_with`]'s steady state at one
/// word-level netlist walk plus `out_bits` XOR/AND ops per `LANES`
/// indices. Prepare once, sweep many netlists or requests against it
/// (the serve verify cache keeps one per `n`).
///
/// The word type is the lane width: `WideExpectation<u64>` packs 64
/// indices per batch, `WideExpectation<W256>` 256,
/// `WideExpectation<W512>` 512. Index values themselves stay `u64` at
/// every width — the lane count and the value domain are independent
/// axes.
#[derive(Debug, Clone)]
pub struct WideExpectation<W: SimWord> {
    /// The original per-index table (witness extraction on mismatch).
    per_index: Vec<u64>,
    in_bits: usize,
    out_bits: usize,
    /// Batch-major `[batch][in_bit]` lane words of the index values.
    in_words: Vec<W>,
    /// Batch-major `[batch][out_bit]` lane words of the expected outputs.
    want_words: Vec<W>,
    /// Per-batch mask of lanes that carry a real index.
    live: Vec<W>,
}

impl<W: SimWord> WideExpectation<W> {
    /// Transposes `expected` (element `i` = expected output word at
    /// input index `i`) for ports of `in_bits` input and `out_bits`
    /// output bits.
    ///
    /// # Panics
    /// Panics if the widths exceed the `u64` sweep or the input port
    /// cannot represent every index.
    pub fn new(in_bits: usize, out_bits: usize, expected: &[u64]) -> Self {
        assert!(
            in_bits < 64 && out_bits <= 64,
            "{in_bits}-bit input / {out_bits}-bit output exceed the u64 sweep"
        );
        assert!(
            in_bits == 63 || (expected.len() as u64) <= 1u64 << in_bits,
            "{} indices do not fit a {in_bits}-bit input port",
            expected.len()
        );
        let batches = expected.len().div_ceil(W::LANES);
        let mut in_words = vec![W::zero(); batches * in_bits];
        let mut want_words = vec![W::zero(); batches * out_bits];
        let mut live = vec![W::zero(); batches];
        for (index, &want) in expected.iter().enumerate() {
            let (batch, lane) = (index / W::LANES, index % W::LANES);
            live[batch].set_lane(lane, true);
            for (b, word) in in_words[batch * in_bits..][..in_bits]
                .iter_mut()
                .enumerate()
            {
                word.set_lane(lane, (index >> b) & 1 == 1);
            }
            for (b, word) in want_words[batch * out_bits..][..out_bits]
                .iter_mut()
                .enumerate()
            {
                word.set_lane(lane, (want >> b) & 1 == 1);
            }
        }
        WideExpectation {
            per_index: expected.to_vec(),
            in_bits,
            out_bits,
            in_words,
            want_words,
            live,
        }
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        self.per_index.len()
    }

    /// `true` iff the table covers no indices.
    pub fn is_empty(&self) -> bool {
        self.per_index.is_empty()
    }

    /// Number of lanes per batch — [`SimWord::LANES`] of the word type.
    pub fn lanes(&self) -> usize {
        W::LANES
    }

    /// Number of [`SimWord::LANES`]-lane batches covering the table
    /// (the granularity at which the sharded sweep splits work).
    pub fn batches(&self) -> usize {
        self.live.len()
    }

    /// Width of the input port the table was transposed for.
    pub fn in_bits(&self) -> usize {
        self.in_bits
    }

    /// Width of the output port the table was transposed for.
    pub fn out_bits(&self) -> usize {
        self.out_bits
    }
}

/// Range core of the word-level sweep: checks the batches in `range`
/// (each covering [`SimWord::LANES`] consecutive indices) and reports
/// the first mismatch *within that range* in index order. Each worker
/// gets a contiguous sub-range, so its result is its lowest mismatch
/// and the earliest-shard reduction is the global one.
///
/// # Panics
/// Panics if the simulator's port widths disagree with the table.
pub(crate) fn check_batch_range<W: SimWord>(
    sim: &mut BatchSim<W>,
    input: &str,
    output: &str,
    table: &WideExpectation<W>,
    range: std::ops::Range<usize>,
) -> Result<(), ExhaustiveMismatch> {
    let out_nets = sim
        .netlist()
        .output_port(output)
        .unwrap_or_else(|| panic!("no output port named {output:?}"))
        .nets
        .clone();
    assert!(
        out_nets.len() == table.out_bits,
        "output port {output:?} ({} bits) does not match the {}-bit expectation table",
        out_nets.len(),
        table.out_bits
    );
    for batch in range {
        let live = table.live[batch];
        sim.set_input_words(
            input,
            &table.in_words[batch * table.in_bits..][..table.in_bits],
        );
        sim.eval();
        let want = &table.want_words[batch * table.out_bits..][..table.out_bits];
        let mut diff = W::zero();
        for (net, &want_word) in out_nets.iter().zip(want) {
            diff = diff | ((sim.probe(*net) ^ want_word) & live);
        }
        if let Some(lane) = diff.first_lane() {
            // Cold path: pinpoint the lowest mismatching lane and
            // re-extract its output word bit by bit.
            let index = batch * W::LANES + lane;
            let got = out_nets.iter().enumerate().fold(0u64, |acc, (b, net)| {
                acc | ((sim.probe(*net).lane(lane) as u64) << b)
            });
            return Err(ExhaustiveMismatch {
                index: index as u64,
                port: output.to_string(),
                got,
                want: table.per_index[index],
            });
        }
    }
    Ok(())
}

/// Scalar reference sweep: drives `input` with `0, 1, …,
/// expected.len() - 1` through a `BatchSim<bool>` on the canonical
/// (unfused) tape, one tape walk per index, and compares `output`
/// against `expected`. The word-level sweeps must report exactly its
/// verdict and first-mismatch witness.
///
/// # Panics
/// Panics if either port is missing, the input port cannot represent
/// every index, or either port exceeds the 64-bit `u64` value domain.
pub fn exhaustive_check_scalar(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Result<(), ExhaustiveMismatch> {
    port_width_checked(netlist, input, output, expected.len());
    let mut sim = BatchSim::<bool>::new(netlist.clone());
    for (index, &want) in expected.iter().enumerate() {
        sim.set_input_u64(input, index as u64);
        sim.eval();
        let got = sim.read_output_lane_u64(output, 0);
        if got != want {
            return Err(ExhaustiveMismatch {
                index: index as u64,
                port: output.to_string(),
                got,
                want,
            });
        }
    }
    Ok(())
}

/// Validates the swept input port and returns the sweep bound `2^w`.
///
/// # Panics
/// Panics if the port is missing or 64+ bits wide (the sweep would not
/// terminate in this universe anyway).
pub(crate) fn one_hot_sweep_total(netlist: &Netlist, input: &str) -> u64 {
    let width = netlist
        .input_port(input)
        .unwrap_or_else(|| panic!("no input port named {input:?}"))
        .nets
        .len();
    assert!(
        width < 64,
        "input port {input:?} too wide to sweep ({width} bits)"
    );
    1u64 << width
}

/// Range core of the one-hot sweep: scans input values `[start, end)`
/// 64 per pass and returns the lowest violating value *within that
/// range*. The trailing pass of a range that is not a multiple of
/// [`LANES`] masks its unused lanes, so shards of any alignment compose
/// without phantom witnesses.
///
/// The per-lane exactly-one predicate is computed word-parallel: for a
/// bank with line words `w`, the chain `one = (one & !w) | (none & w);
/// none &= !w` leaves bit `l` of `one` set iff lane `l` saw exactly one
/// hot line — the 64-wide analogue of the BDD chain in
/// [`crate::check_one_hot_bank`].
pub(crate) fn scan_one_hot_range(
    sim: &mut BatchSim<u64>,
    banks: &[Vec<hwperm_logic::NetId>],
    input: &str,
    start: u64,
    end: u64,
) -> Option<u64> {
    let mut lanes = [0u64; LANES];
    let mut base = start;
    while base < end {
        let count = ((end - base) as usize).min(LANES);
        for (lane, slot) in lanes[..count].iter_mut().enumerate() {
            *slot = base + lane as u64;
        }
        sim.set_input_lanes_u64(input, &lanes[..count]);
        sim.eval();
        let live = if count == LANES {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let mut violated = 0u64;
        for bank in banks {
            let mut one = 0u64;
            let mut none = u64::MAX;
            for &net in bank {
                let w = sim.probe(net);
                one = (one & !w) | (none & w);
                none &= !w;
            }
            violated |= !one & live;
        }
        if violated != 0 {
            return Some(base + violated.trailing_zeros() as u64);
        }
        base += count as u64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    #[test]
    fn mismatch_display_names_port_and_index() {
        let m = ExhaustiveMismatch {
            index: 7,
            port: "perm".into(),
            got: 0x1b,
            want: 0x1e,
        };
        assert_eq!(
            m.to_string(),
            "index 7: output \"perm\" = 0x1b, expected 0x1e"
        );
    }

    #[test]
    fn wide_tables_transpose_like_the_u64_table() {
        use hwperm_logic::W256;
        let expected: Vec<u64> = (0..100).map(|i| i * 3 % 128).collect();
        let narrow = WideExpectation::<u64>::new(7, 7, &expected);
        let wide = WideExpectation::<W256>::new(7, 7, &expected);
        assert_eq!(narrow.len(), wide.len());
        assert_eq!(narrow.batches(), 2);
        assert_eq!(wide.batches(), 1);
        assert_eq!(narrow.lanes(), 64);
        assert_eq!(wide.lanes(), 256);
        assert_eq!(narrow.in_bits(), wide.in_bits());
        assert_eq!(narrow.out_bits(), wide.out_bits());
    }

    #[test]
    #[should_panic(expected = "do not fit input port")]
    fn oversized_table_rejected() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        b.output_bus("y", &x);
        let expected: Vec<u64> = (0..9).collect(); // 9 > 2^3
        let _ = crate::exhaustive_check_parallel_wide::<u64>(&b.finish(), "x", "y", &expected, 1);
    }
}
