//! Unified permutation sources.

use hwperm_bignum::Ubig;
use hwperm_circuits::{
    ConverterOptions, IndexToPermConverter, KnuthShuffleCircuit, RandomIndexGenerator,
    ShuffleOptions,
};
use hwperm_factoradic::unrank;
use hwperm_perm::{
    shuffle::{knuth_shuffle, knuth_shuffle_in_place},
    Permutation,
};
use hwperm_rng::XorShift64Star;

/// Anything that maps an index in `[0, n!)` to the corresponding
/// permutation in lexicographic order.
pub trait PermutationSource {
    /// Number of elements `n`.
    fn n(&self) -> usize;

    /// The `index`-th permutation.
    ///
    /// # Panics
    /// Implementations panic if `index >= n!`.
    fn permutation(&mut self, index: &Ubig) -> Permutation;

    /// Convenience for small indices.
    fn permutation_u64(&mut self, index: u64) -> Permutation {
        self.permutation(&Ubig::from(index))
    }
}

/// Pure-software unranking (the paper's microprocessor baseline).
#[derive(Debug, Clone)]
pub struct SoftwareSource {
    n: usize,
}

impl SoftwareSource {
    /// A software source for `n`-element permutations.
    pub fn new(n: usize) -> Self {
        SoftwareSource { n }
    }
}

impl PermutationSource for SoftwareSource {
    fn n(&self) -> usize {
        self.n
    }

    fn permutation(&mut self, index: &Ubig) -> Permutation {
        unrank(self.n, index)
    }
}

/// The Fig. 1 netlist, simulated bit-accurately.
#[derive(Debug, Clone)]
pub struct CircuitSource {
    converter: IndexToPermConverter,
}

impl CircuitSource {
    /// Combinational circuit source.
    pub fn new(n: usize) -> Self {
        CircuitSource {
            converter: IndexToPermConverter::new(n),
        }
    }

    /// Pipelined circuit source (latency `n − 1`, 1 permutation/clock).
    pub fn pipelined(n: usize) -> Self {
        CircuitSource {
            converter: IndexToPermConverter::with_options(
                n,
                ConverterOptions {
                    pipelined: true,
                    perm_input_port: false,
                },
            ),
        }
    }
}

impl PermutationSource for CircuitSource {
    fn n(&self) -> usize {
        self.converter.n()
    }

    fn permutation(&mut self, index: &Ubig) -> Permutation {
        self.converter.convert(index)
    }
}

/// The memory-based (LUT cascade) realization — Section II.B's remark.
#[derive(Debug, Clone)]
pub struct CascadeSource {
    cascade: hwperm_circuits::LutCascadeConverter,
}

impl CascadeSource {
    /// A cascade source (practical for `n ≤ 10`; see
    /// [`hwperm_circuits::LutCascadeConverter`]).
    pub fn new(n: usize) -> Self {
        CascadeSource {
            cascade: hwperm_circuits::LutCascadeConverter::new(n),
        }
    }

    /// Total ROM bits of the cascade.
    pub fn memory_bits(&self) -> u64 {
        self.cascade.memory_bits()
    }
}

impl PermutationSource for CascadeSource {
    fn n(&self) -> usize {
        self.cascade.n()
    }

    fn permutation(&mut self, index: &Ubig) -> Permutation {
        self.cascade.convert(index)
    }
}

/// Anything that emits a stream of (approximately) uniform random
/// permutations.
pub trait RandomPermSource {
    /// Number of elements `n`.
    fn n(&self) -> usize;

    /// The next random permutation.
    fn next_permutation(&mut self) -> Permutation;

    /// The next random permutation as the paper's packed
    /// `n·⌈log₂n⌉`-bit word. Draws from the same random sequence as
    /// [`RandomPermSource::next_permutation`] (interleaving the two is
    /// well-defined); sources with an allocation-free path override
    /// this, the default packs the allocating result.
    ///
    /// # Panics
    /// Panics if `n > 16` (the packed word would not fit a `u64`).
    fn next_packed_u64(&mut self) -> u64 {
        self.next_permutation().pack_u64()
    }

    /// Fills `out` with consecutive packed draws — exactly
    /// `out.len()` calls' worth of [`RandomPermSource::next_packed_u64`]
    /// randomness, so chunked and one-at-a-time consumption of a source
    /// see the same sequence. Bulk consumers (the serve data plane)
    /// call this once per outbound chunk.
    ///
    /// # Panics
    /// Panics if `n > 16` (the packed word would not fit a `u64`).
    fn fill_packed_u64(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_packed_u64();
        }
    }
}

/// Software Knuth shuffle over an unbiased host RNG.
#[derive(Debug, Clone)]
pub struct SoftwareRandomSource {
    n: usize,
    rng: XorShift64Star,
    /// Reused by the packed fast path (reset to identity per draw).
    scratch: Permutation,
}

impl SoftwareRandomSource {
    /// A software random source.
    pub fn new(n: usize, seed: u64) -> Self {
        SoftwareRandomSource {
            n,
            rng: XorShift64Star::new(seed),
            scratch: Permutation::identity(n),
        }
    }
}

impl RandomPermSource for SoftwareRandomSource {
    fn n(&self) -> usize {
        self.n
    }

    fn next_permutation(&mut self) -> Permutation {
        knuth_shuffle(self.n, &mut self.rng)
    }

    fn next_packed_u64(&mut self) -> u64 {
        // Same RNG consumption as `next_permutation` (shuffle of the
        // identity), but shuffling a reused scratch permutation —
        // allocation-free, and seed-for-seed identical to packing the
        // allocating path.
        self.scratch.reset_identity();
        knuth_shuffle_in_place(&mut self.scratch, &mut self.rng);
        self.scratch.pack_u64()
    }
}

/// The Fig. 3 Knuth shuffle circuit (bit-accurate netlist simulation).
#[derive(Debug, Clone)]
pub struct CircuitRandomSource {
    circuit: KnuthShuffleCircuit,
}

impl CircuitRandomSource {
    /// Default-configured circuit source.
    pub fn new(n: usize) -> Self {
        CircuitRandomSource {
            circuit: KnuthShuffleCircuit::new(n),
        }
    }

    /// Circuit source with explicit options.
    pub fn with_options(n: usize, options: ShuffleOptions) -> Self {
        CircuitRandomSource {
            circuit: KnuthShuffleCircuit::with_options(n, options),
        }
    }
}

impl RandomPermSource for CircuitRandomSource {
    fn n(&self) -> usize {
        self.circuit.n()
    }

    fn next_permutation(&mut self) -> Permutation {
        self.circuit.next_permutation()
    }
}

/// The Fig. 2 random-index method (LFSR → ×n! → ≫m → converter).
#[derive(Debug, Clone)]
pub struct RandomIndexSource {
    generator: RandomIndexGenerator,
}

impl RandomIndexSource {
    /// Default-width generator.
    pub fn new(n: usize, seed: u64) -> Self {
        RandomIndexSource {
            generator: RandomIndexGenerator::new(n, seed),
        }
    }
}

impl RandomPermSource for RandomIndexSource {
    fn n(&self) -> usize {
        self.generator.n()
    }

    fn next_permutation(&mut self) -> Permutation {
        self.generator.next_permutation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_and_circuit_sources_agree() {
        let mut sw = SoftwareSource::new(6);
        let mut hw = CircuitSource::new(6);
        for index in [0u64, 1, 100, 719] {
            assert_eq!(sw.permutation_u64(index), hw.permutation_u64(index));
        }
    }

    #[test]
    fn all_three_realizations_agree() {
        // Software, gate-level comparator circuit, and memory cascade.
        let mut backends: Vec<Box<dyn PermutationSource>> = vec![
            Box::new(SoftwareSource::new(6)),
            Box::new(CircuitSource::new(6)),
            Box::new(CascadeSource::new(6)),
        ];
        for index in [0u64, 3, 359, 719] {
            let results: Vec<_> = backends
                .iter_mut()
                .map(|b| b.permutation_u64(index))
                .collect();
            assert_eq!(results[0], results[1]);
            assert_eq!(results[1], results[2]);
        }
    }

    #[test]
    fn pipelined_source_agrees_too() {
        let mut sw = SoftwareSource::new(5);
        let mut hw = CircuitSource::pipelined(5);
        for index in [0u64, 42, 119] {
            assert_eq!(sw.permutation_u64(index), hw.permutation_u64(index));
        }
    }

    #[test]
    fn random_sources_emit_valid_permutations() {
        let sources: Vec<Box<dyn RandomPermSource>> = vec![
            Box::new(SoftwareRandomSource::new(6, 1)),
            Box::new(CircuitRandomSource::new(6)),
            Box::new(RandomIndexSource::new(6, 1)),
        ];
        for mut src in sources {
            for _ in 0..20 {
                let p = src.next_permutation();
                assert_eq!(p.n(), 6);
                assert!(Permutation::try_from_slice(p.as_slice()).is_ok());
            }
        }
    }

    #[test]
    fn packed_fast_path_matches_allocating_path_seed_for_seed() {
        // Both paths must consume the RNG identically, so two sources
        // with the same seed stay in lockstep draw for draw — and
        // interleaving the two methods on one source is well-defined.
        let mut packed = SoftwareRandomSource::new(8, 33);
        let mut alloc = SoftwareRandomSource::new(8, 33);
        for draw in 0..200 {
            assert_eq!(
                packed.next_packed_u64(),
                alloc.next_permutation().pack_u64(),
                "draw {draw}"
            );
        }
        // Interleave on a single source against a pure packed replay.
        let mut mixed = SoftwareRandomSource::new(6, 5);
        let mut replay = SoftwareRandomSource::new(6, 5);
        for draw in 0..50 {
            let want = replay.next_packed_u64();
            let got = if draw % 2 == 0 {
                mixed.next_packed_u64()
            } else {
                mixed.next_permutation().pack_u64()
            };
            assert_eq!(got, want, "draw {draw}");
        }
    }

    #[test]
    fn default_packed_path_agrees_across_sources() {
        // Sources without an override use the default (pack the
        // allocating result); spot-check it yields valid packed words.
        let mut src = RandomIndexSource::new(5, 3);
        for _ in 0..10 {
            let word = src.next_packed_u64();
            let mut seen = 0u32;
            for field in 0..5 {
                let v = (word >> (field * 3)) & 0b111;
                assert!(v < 5);
                seen |= 1 << v;
            }
            assert_eq!(seen, 0b11111, "word {word:#x} is not a permutation");
        }
    }

    #[test]
    fn software_random_source_is_seeded() {
        let seq = |seed| {
            let mut s = SoftwareRandomSource::new(8, seed);
            (0..5).map(|_| s.next_permutation()).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    fn fill_packed_u64_matches_one_at_a_time_draws() {
        // Chunked consumption must be invisible: filling 100 slots in
        // uneven chunks yields the same sequence as 100 single draws.
        let mut single = SoftwareRandomSource::new(7, 42);
        let expected: Vec<u64> = (0..100).map(|_| single.next_packed_u64()).collect();
        let mut chunked = SoftwareRandomSource::new(7, 42);
        let mut got = vec![0u64; 100];
        let mut base = 0usize;
        for size in [1usize, 13, 32, 54] {
            chunked.fill_packed_u64(&mut got[base..base + size]);
            base += size;
        }
        assert_eq!(base, 100);
        assert_eq!(got, expected);
    }
}
