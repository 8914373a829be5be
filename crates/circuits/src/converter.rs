//! The Fig. 1 index → permutation converter.
//!
//! `n` cascaded stages. Stage `j` holds `r = n − j` still-unassigned
//! elements and the running index (known `< r!`). It:
//!
//! 1. compares the index against the multiples `i·(r−1)!` (thermometer
//!    comparator bank — these are the "`>6 >12 >18`"-style boxes of
//!    Fig. 1);
//! 2. converts the thermometer to a one-hot digit `s_{r−1} = d`;
//! 3. subtracts `d·(r−1)!` with the stage's `A−B` block, narrowing the
//!    index bus to `⌈log₂ (r−1)!⌉` bits;
//! 4. routes the `d`-th remaining element to output position `j` through
//!    the one-hot MUX, and compacts the remaining elements (thermometer-
//!    controlled 2:1 muxes).
//!
//! With [`ConverterOptions::pipelined`], a register rank is inserted
//! after every stage: latency `n − 1` clocks, throughput one permutation
//! per clock — the paper's headline operating mode.

use hwperm_bignum::Ubig;
use hwperm_logic::{BatchSim, Builder, Bus, Netlist, ResourceReport};
use hwperm_perm::{bits_per_element, Permutation};

/// Build-time options for [`IndexToPermConverter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConverterOptions {
    /// Insert a pipeline register rank after every stage (the paper's
    /// "easily pipelined" variant; latency `n − 1`, one permutation per
    /// clock).
    pub pipelined: bool,
    /// Expose the input permutation as a port named `inperm` instead of
    /// hard-wiring the identity. The paper notes the input permutation
    /// "is typically fixed (e.g. as the identity permutation)".
    pub perm_input_port: bool,
}

/// The paper's index → permutation converter (Fig. 1) wrapped in a
/// simulator.
///
/// ```
/// use hwperm_circuits::IndexToPermConverter;
/// use hwperm_bignum::Ubig;
///
/// let mut conv = IndexToPermConverter::new(4);
/// // Table I, N = 11 → permutation 1 3 2 0.
/// let p = conv.convert(&Ubig::from(11u64));
/// assert_eq!(p.as_slice(), &[1, 3, 2, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct IndexToPermConverter {
    sim: BatchSim<bool>,
    n: usize,
    index_width: usize,
    options: ConverterOptions,
    latency: usize,
}

impl IndexToPermConverter {
    /// Combinational converter with the identity input permutation.
    ///
    /// # Panics
    /// Panics if `n < 2` (there is nothing to convert below that; the
    /// software path in `hwperm-factoradic` handles degenerate sizes).
    pub fn new(n: usize) -> Self {
        Self::with_options(n, ConverterOptions::default())
    }

    /// Converter with explicit [`ConverterOptions`].
    pub fn with_options(n: usize, options: ConverterOptions) -> Self {
        let netlist = build_converter(n, options);
        let index_width = index_width(n);
        let latency = if options.pipelined { n - 1 } else { 0 };
        IndexToPermConverter {
            sim: BatchSim::<bool>::new(netlist),
            n,
            index_width,
            options,
            latency,
        }
    }

    /// Number of permutation elements `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Width of the `index` input port: `⌈log₂ n!⌉` bits.
    pub fn index_width(&self) -> usize {
        self.index_width
    }

    /// Pipeline latency in clocks (0 for the combinational build).
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate (a Tables III/IV row).
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    fn drive_identity_if_ported(&mut self) {
        if self.options.perm_input_port {
            let id = Permutation::identity(self.n).pack();
            self.sim.set_input("inperm", &id);
        }
    }

    /// Converts one index. Combinational: a single settle. Pipelined:
    /// feeds the index and clocks the pipe `latency` times (use
    /// [`IndexToPermConverter::convert_stream`] for full throughput).
    ///
    /// # Panics
    /// Panics if `index >= n!`.
    pub fn convert(&mut self, index: &Ubig) -> Permutation {
        assert!(
            *index < Ubig::factorial(self.n as u64),
            "index out of range for n = {}",
            self.n
        );
        self.drive_identity_if_ported();
        self.sim.set_input("index", index);
        if self.options.pipelined {
            for _ in 0..self.latency {
                self.sim.step();
            }
        }
        self.sim.eval();
        self.read_perm()
    }

    /// `u64` convenience wrapper over [`IndexToPermConverter::convert`].
    pub fn convert_u64(&mut self, index: u64) -> Permutation {
        self.convert(&Ubig::from(index))
    }

    /// Converts a permutation with an explicit input permutation (only
    /// for builds with [`ConverterOptions::perm_input_port`]). The output
    /// is `input_perm` reordered by the `index`-th permutation.
    pub fn convert_with_input(&mut self, index: &Ubig, input: &Permutation) -> Permutation {
        assert!(
            self.options.perm_input_port,
            "converter was built without an input permutation port"
        );
        assert_eq!(input.n(), self.n);
        self.sim.set_input("inperm", &input.pack());
        self.sim.set_input("index", index);
        if self.options.pipelined {
            for _ in 0..self.latency {
                self.sim.step();
            }
        }
        self.sim.eval();
        self.read_perm()
    }

    /// Streams indices through the pipeline at one permutation per clock,
    /// demonstrating the paper's throughput claim. Also valid (but
    /// unremarkable) for combinational builds.
    pub fn convert_stream(&mut self, indices: &[Ubig]) -> Vec<Permutation> {
        self.drive_identity_if_ported();
        if !self.options.pipelined {
            return indices.iter().map(|i| self.convert(i)).collect();
        }
        // A value fed before the step at cycle c crosses one register rank
        // per step, so it appears at the output after cycle c + latency − 1.
        let mut out = Vec::with_capacity(indices.len());
        let total_cycles = indices.len() + self.latency - 1;
        for cycle in 0..total_cycles {
            if cycle < indices.len() {
                self.sim.set_input("index", &indices[cycle]);
            }
            self.sim.step();
            self.sim.eval();
            if cycle + 1 >= self.latency {
                out.push(self.read_perm());
            }
        }
        out
    }

    fn read_perm(&self) -> Permutation {
        let word = self.sim.read_output("perm");
        Permutation::unpack(self.n, &word).expect("converter output is always a permutation")
    }
}

/// Index bus width: `⌈log₂ n!⌉` (bit length of `n! − 1`).
pub(crate) fn index_width(n: usize) -> usize {
    index_width_for(&Ubig::factorial(n as u64))
}

/// Bus width covering indices `[0, total)`.
pub(crate) fn index_width_for(total: &Ubig) -> usize {
    (total - &Ubig::one()).bit_len().max(1)
}

/// One still-unassigned element flowing between stages.
type Element = Bus;

/// Generates the Fig. 1 netlist.
fn build_converter(n: usize, options: ConverterOptions) -> Netlist {
    assert!(n >= 2, "converter requires n >= 2");
    let mut builder = Builder::new();
    let b = &mut builder;
    let bits = bits_per_element(n);
    let w0 = index_width(n);
    let index: Bus = b.input_bus("index", w0);

    // Input permutation: identity constants or an unpacked port.
    let remaining: Vec<Element> = if options.perm_input_port {
        let word = b.input_bus("inperm", n * bits);
        // Field for position p sits at bit base (n-1-p)·bits, LSB-first.
        (0..n)
            .map(|p| {
                let base = (n - 1 - p) * bits;
                word[base..base + bits].to_vec()
            })
            .collect()
    } else {
        (0..n)
            .map(|e| b.constant_bus(bits, &Ubig::from(e as u64)))
            .collect()
    };

    let outputs = emit_converter_stages(b, index, remaining, options.pipelined);
    emit_packed_output(b, &outputs, bits);
    builder.finish()
}

/// Packs per-position element buses into the paper's single output word
/// (position 0 = most significant field) on port `perm`.
pub(crate) fn emit_packed_output(b: &mut Builder, outputs: &[Element], bits: usize) {
    let n = outputs.len();
    let mut word = vec![b.constant(false); n * bits];
    for (p, elem) in outputs.iter().enumerate() {
        let base = (n - 1 - p) * bits;
        for (i, &net) in elem.iter().enumerate() {
            word[base + i] = net;
        }
    }
    b.output_bus("perm", &word);
}

/// Emits the n-stage Fig. 1 cascade on an existing builder: consumes the
/// running index bus and the vector of unassigned elements, returns the
/// per-position output element buses. Shared between the converter and
/// the Fig. 2 random-index generator.
pub(crate) fn emit_converter_stages(
    b: &mut Builder,
    index: Bus,
    remaining: Vec<Element>,
    pipelined: bool,
) -> Vec<Element> {
    let n = remaining.len();
    let blocks: Vec<Ubig> = (0..n)
        .map(|j| Ubig::factorial((n - 1 - j) as u64))
        .collect();
    emit_selection_stages(b, index, remaining, pipelined, &blocks)
}

/// The generalized select-and-compact cascade. Stage `j` extracts digit
/// `d = ⌊index / blocks[j]⌋` by thermometer comparison against the
/// multiples of `blocks[j]`, subtracts `d·blocks[j]`, and routes the
/// `d`-th remaining element out. With `blocks[j] = (n−1−j)!` this is the
/// paper's converter; with falling factorials it enumerates variations
/// (the truncated cascade); a single stage with block 1 is a plain
/// selector.
///
/// `blocks.len()` determines how many elements are emitted; it may be
/// shorter than `remaining.len()` (truncated cascade).
pub(crate) fn emit_selection_stages(
    b: &mut Builder,
    mut index: Bus,
    mut remaining: Vec<Element>,
    pipelined: bool,
    blocks: &[Ubig],
) -> Vec<Element> {
    let n = remaining.len();
    let stages = blocks.len();
    assert!(stages <= n, "more stages than elements");
    let mut outputs: Vec<Element> = Vec::with_capacity(stages);

    for (j, f) in blocks.iter().enumerate() {
        let r = n - j; // elements still unassigned
        if r == 1 {
            outputs.push(remaining.pop().expect("one element left"));
            break;
        }
        let f = f.clone();

        // 1. Thermometer comparator bank: t[i] = (index >= i*f), i = 1..r-1.
        let thermo: Vec<_> = (1..r)
            .map(|i| {
                let c = f.mul_u64(i as u64);
                b.ge_const(&index, &c)
            })
            .collect();

        // 2. One-hot digit.
        let mut onehot = Vec::with_capacity(r);
        for d in 0..r {
            let net = if d == 0 {
                b.not(thermo[0])
            } else if d == r - 1 {
                thermo[r - 2]
            } else {
                let hi = b.not(thermo[d]);
                b.and(thermo[d - 1], hi)
            };
            onehot.push(net);
        }

        // 3. Subtract the selected multiple (the stage's A−B block) and
        //    narrow the index bus for the next stage. Because the true
        //    difference is < blocks[j], the subtraction can be performed
        //    modulo 2^next_width on truncated operands — no logic is
        //    spent on high bits that provably cancel. The final stage
        //    with remaining choices skips the subtract entirely (nothing
        //    downstream reads the index).
        let next_stage_reads_index = j + 1 < stages && n - (j + 1) > 1;
        if next_stage_reads_index {
            let next_width = (&f - &Ubig::one()).bit_len().max(1);
            let trunc = next_width.min(index.len());
            let index_low: Bus = index[..trunc].to_vec();
            let multiples: Vec<Bus> = (0..r)
                .map(|d| {
                    let c = f.mul_u64(d as u64).low_bits(next_width);
                    b.constant_bus(next_width, &c)
                })
                .collect();
            let multiple_refs: Vec<&[_]> = multiples.iter().map(|m| m.as_slice()).collect();
            let subtrahend = b.one_hot_mux(&onehot, &multiple_refs);
            let diff = b.sub_mod(&index_low, &subtrahend);
            index = diff[..next_width.min(diff.len())].to_vec();
        } else {
            index = Vec::new();
        }

        // 4. Route the selected element to output position j...
        let remaining_refs: Vec<&[_]> = remaining.iter().map(|e| e.as_slice()).collect();
        let out_elem = b.one_hot_mux(&onehot, &remaining_refs);
        outputs.push(out_elem);

        // ...and compact the remaining vector: slot i keeps cur[i] while
        // the removed position is still to the right (t[i+1] high),
        // otherwise shifts cur[i+1] down.
        let mut next_remaining = Vec::with_capacity(r - 1);
        for i in 0..r - 1 {
            let keep_cur = thermo[i]; // t_{i+1} in 1-based digit terms
            let shifted = &remaining[i + 1];
            let cur = &remaining[i];
            next_remaining.push(b.mux_bus(keep_cur, shifted, cur));
        }
        remaining = next_remaining;

        // Pipeline rank after each stage except the last.
        if pipelined && j < stages - 1 {
            index = b.register_bus(&index, false);
            remaining = remaining.iter().map(|e| b.register_bus(e, false)).collect();
            outputs = outputs.iter().map(|e| b.register_bus(e, false)).collect();
        }
    }
    outputs
}

/// Pure netlist generation (for resource analysis without a simulator).
pub fn converter_netlist(n: usize, options: ConverterOptions) -> Netlist {
    build_converter(n, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_factoradic::{unrank, unrank_u64};

    #[test]
    fn matches_table_i_exhaustively() {
        let mut conv = IndexToPermConverter::new(4);
        for i in 0..24u64 {
            assert_eq!(conv.convert_u64(i), unrank_u64(4, i), "N = {i}");
        }
    }

    #[test]
    fn matches_software_exhaustively_n5_n6() {
        for n in [5usize, 6] {
            let mut conv = IndexToPermConverter::new(n);
            let total: u64 = (1..=n as u64).product();
            for i in 0..total {
                assert_eq!(conv.convert_u64(i), unrank_u64(n, i), "n = {n}, N = {i}");
            }
        }
    }

    #[test]
    fn spot_checks_larger_n() {
        let mut conv = IndexToPermConverter::new(9);
        for i in [0u64, 1, 12345, 362_879, 362_880 - 1] {
            assert_eq!(conv.convert_u64(i), unrank_u64(9, i), "N = {i}");
        }
    }

    #[test]
    fn very_wide_converter_n32() {
        // n = 32: 118-bit index bus, 496 comparators, multi-limb
        // constants throughout. One differential conversion proves the
        // generator scales structurally.
        let mut conv = IndexToPermConverter::new(32);
        assert_eq!(conv.index_width(), 118);
        let index = Ubig::factorial(32).divrem_u64(7).0;
        assert_eq!(conv.convert(&index), unrank(32, &index));
    }

    #[test]
    fn big_index_n22() {
        // n = 22: index needs 70 bits — beyond u64.
        let mut conv = IndexToPermConverter::new(22);
        let nfact = Ubig::factorial(22);
        for index in [
            Ubig::zero(),
            Ubig::from(123_456_789u64),
            &nfact - &Ubig::one(),
        ] {
            assert_eq!(conv.convert(&index), unrank(22, &index));
        }
    }

    #[test]
    fn pipelined_matches_combinational() {
        let options = ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        };
        let mut pipe = IndexToPermConverter::with_options(5, options);
        assert_eq!(pipe.latency(), 4);
        for i in [0u64, 7, 59, 119] {
            assert_eq!(pipe.convert_u64(i), unrank_u64(5, i), "N = {i}");
        }
    }

    #[test]
    fn pipelined_stream_one_per_clock() {
        let options = ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        };
        let mut pipe = IndexToPermConverter::with_options(4, options);
        let indices: Vec<Ubig> = (0..24u64).map(Ubig::from).collect();
        let perms = pipe.convert_stream(&indices);
        assert_eq!(perms.len(), 24);
        for (i, p) in perms.iter().enumerate() {
            assert_eq!(p, &unrank_u64(4, i as u64), "N = {i}");
        }
    }

    #[test]
    fn input_permutation_port_routes_data() {
        let options = ConverterOptions {
            pipelined: false,
            perm_input_port: true,
        };
        let mut conv = IndexToPermConverter::with_options(4, options);
        let input = Permutation::try_from_slice(&[3, 1, 0, 2]).unwrap();
        for i in 0..24u64 {
            let got = conv.convert_with_input(&Ubig::from(i), &input);
            // The circuit applies the index-selected permutation to the
            // provided element vector.
            let expected_elems = unrank_u64(4, i).apply(input.as_slice());
            assert_eq!(got.as_slice(), expected_elems.as_slice(), "N = {i}");
        }
    }

    #[test]
    fn index_width_matches_paper_examples() {
        assert_eq!(index_width(4), 5); // paper: "index be a 5-bit quantity"
        assert_eq!(index_width(64), 296); // ⌈log₂ 64!⌉
    }

    #[test]
    fn comparator_count_structure() {
        // Thermometer comparators per stage = r−1 → n(n−1)/2 comparators,
        // each O(W) gates with W = ⌈log₂ n!⌉ = O(n log n); total gate
        // count is O(n³ log n), so doubling n multiplies gates by ~8–10.
        let small = converter_netlist(6, ConverterOptions::default()).combinational_count();
        let large = converter_netlist(12, ConverterOptions::default()).combinational_count();
        let ratio = large as f64 / small as f64;
        assert!(
            (4.0..=14.0).contains(&ratio),
            "super-quadratic gate growth expected, ratio = {ratio}"
        );
    }

    #[test]
    fn pipelined_register_count_grows_quadratically() {
        let opts = ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        };
        let r6 = converter_netlist(6, opts).register_count();
        let r12 = converter_netlist(12, opts).register_count();
        assert!(r6 > 0);
        let ratio = r12 as f64 / r6 as f64;
        assert!((2.5..=8.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_index_at_n_factorial() {
        IndexToPermConverter::new(4).convert_u64(24);
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn rejects_n_below_two() {
        IndexToPermConverter::new(1);
    }
}
