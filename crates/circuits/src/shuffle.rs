//! The Fig. 3 Knuth shuffle random permutation generator.
//!
//! A cascade of `n − 1` crossover stages. Stage `j` draws a random
//! integer `i ∈ [0, n−j)` from its own embedded random-integer generator
//! (an LFSR through the Fig. 2 multiply-shift block — the paper: "a
//! 31-bit random integer generator similar to that shown in Fig. 2 was
//! included in each stage") and swaps element `j` with element `j + i`.
//! After the last stage the output is a uniformly random permutation
//! (up to the LFSR bias analysed in `hwperm_rng::randint`).

use hwperm_bignum::Ubig;
use hwperm_logic::{BatchSim, Builder, Bus, Netlist, ResourceReport};
use hwperm_perm::{bits_per_element, Permutation};
use hwperm_rng::lfsr::build_lfsr;
use hwperm_rng::{random_integer, Lfsr};

/// Build-time options for [`KnuthShuffleCircuit`].
#[derive(Debug, Clone, Copy)]
pub struct ShuffleOptions {
    /// LFSR width per stage (the paper uses 31/32-bit generators; smaller
    /// widths increase the Fig. 2 bias but shrink the circuit).
    pub lfsr_width: usize,
    /// Insert a pipeline rank after every crossover stage.
    pub pipelined: bool,
    /// Base seed; per-stage seeds are derived by splitmix64.
    pub seed: u64,
}

impl Default for ShuffleOptions {
    fn default() -> Self {
        ShuffleOptions {
            lfsr_width: 31,
            pipelined: false,
            seed: 0x5EED0F1B75,
        }
    }
}

/// splitmix64 — used only to derive independent per-stage LFSR seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The Fig. 3 circuit wrapped in a simulator; every call to
/// [`KnuthShuffleCircuit::next_permutation`] is one clock and yields one
/// fresh random permutation.
///
/// ```
/// use hwperm_circuits::KnuthShuffleCircuit;
///
/// let mut gen = KnuthShuffleCircuit::new(4);
/// let a = gen.next_permutation();
/// let b = gen.next_permutation();
/// assert_eq!(a.n(), 4);
/// assert_ne!(a.pack(), b.pack()); // overwhelmingly likely
/// ```
#[derive(Debug, Clone)]
pub struct KnuthShuffleCircuit {
    sim: BatchSim<bool>,
    n: usize,
    options: ShuffleOptions,
}

impl KnuthShuffleCircuit {
    /// Default-configured generator (31-bit LFSRs, combinational).
    pub fn new(n: usize) -> Self {
        Self::with_options(n, ShuffleOptions::default())
    }

    /// Generator with explicit options.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn with_options(n: usize, options: ShuffleOptions) -> Self {
        let netlist = build_shuffle(n, options);
        let mut sim = BatchSim::<bool>::new(netlist);
        let mut gen = KnuthShuffleCircuit {
            n,
            options,
            sim: {
                sim.eval();
                sim
            },
        };
        if options.pipelined {
            // Fill the pipe so every subsequent clock emits a permutation.
            for _ in 0..n - 1 {
                gen.sim.step();
            }
            gen.sim.eval();
        }
        gen
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The options this circuit was built with.
    pub fn options(&self) -> ShuffleOptions {
        self.options
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate (a Table IV row).
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    /// One clock: reads the permutation formed by the current LFSR
    /// states, then advances every stage's LFSR.
    pub fn next_permutation(&mut self) -> Permutation {
        let word = self.sim.read_output("perm");
        let perm =
            Permutation::unpack(self.n, &word).expect("shuffle output is always a permutation");
        self.sim.step();
        self.sim.eval();
        perm
    }

    /// Derangement Monte-Carlo (Section III.C): generates `samples`
    /// permutations and returns `(derangement_count, e_estimate)` where
    /// `e ≈ samples / derangements` since `d_n = ⌊n!/e⌉`.
    pub fn estimate_e(&mut self, samples: u64) -> (u64, f64) {
        let mut derangements = 0u64;
        for _ in 0..samples {
            if self.next_permutation().is_derangement() {
                derangements += 1;
            }
        }
        (derangements, samples as f64 / derangements as f64)
    }
}

/// Software mirror of the circuit: same per-stage LFSRs, same Fig. 2
/// truncation, same crossover order — used for differential testing and
/// for the fast Monte-Carlo harnesses (identical output sequence at
/// ~100× the simulation speed).
#[derive(Debug, Clone)]
pub struct KnuthShuffleModel {
    lfsrs: Vec<Lfsr>,
    n: usize,
    m: usize,
}

impl KnuthShuffleModel {
    /// Mirror of [`KnuthShuffleCircuit::with_options`].
    pub fn with_options(n: usize, options: ShuffleOptions) -> Self {
        assert!(n >= 2);
        let lfsrs = (0..n - 1)
            .map(|j| {
                Lfsr::new(
                    options.lfsr_width,
                    splitmix64(options.seed.wrapping_add(j as u64)),
                )
            })
            .collect();
        KnuthShuffleModel {
            lfsrs,
            n,
            m: options.lfsr_width,
        }
    }

    /// Mirror of [`KnuthShuffleCircuit::new`].
    pub fn new(n: usize) -> Self {
        Self::with_options(n, ShuffleOptions::default())
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Next permutation: stage `j` swaps positions `j` and `j + offset_j`
    /// with `offset_j = ⌊(n−j)·x_j / 2^m⌋` from the current LFSR state.
    pub fn next_permutation(&mut self) -> Permutation {
        let mut perm = Permutation::identity(self.n);
        for j in 0..self.n - 1 {
            let x = self.lfsrs[j].state();
            let offset = random_integer(self.m, x, (self.n - j) as u64);
            perm.swap_positions(j, j + offset as usize);
            self.lfsrs[j].step();
        }
        perm
    }
}

/// Generates the Fig. 3 netlist.
fn build_shuffle(n: usize, options: ShuffleOptions) -> Netlist {
    assert!(n >= 2, "shuffle requires n >= 2");
    let mut builder = Builder::new();
    let b = &mut builder;
    let bits = bits_per_element(n);
    let m = options.lfsr_width;

    // Input permutation: the identity, as in the paper's experiment.
    let mut elems: Vec<Bus> = (0..n)
        .map(|e| b.constant_bus(bits, &Ubig::from(e as u64)))
        .collect();

    for j in 0..n - 1 {
        let r = n - j;
        // Per-stage random integer generator (Fig. 2): LFSR -> x*r >> m.
        let seed = splitmix64(options.seed.wrapping_add(j as u64));
        let lfsr = build_lfsr(b, m, seed);
        let offset = hwperm_rng::randint::build_random_integer(b, &lfsr, r as u64);
        let onehot = b.decoder(&offset, r);

        // Crossover: out[j] = elems[j + offset]; the displaced slot gets
        // the old elems[j]; everything else passes through.
        let choices: Vec<&[_]> = elems[j..].iter().map(|e| e.as_slice()).collect();
        let new_j = b.one_hot_mux(&onehot, &choices);
        let old_j = elems[j].clone();
        for i in 1..r {
            let swapped = b.mux_bus(onehot[i], &elems[j + i], &old_j);
            elems[j + i] = swapped;
        }
        elems[j] = new_j;

        if options.pipelined && j < n - 2 {
            elems = elems.iter().map(|e| b.register_bus(e, false)).collect();
        }
    }

    // Pack (position 0 = most significant field).
    let mut word = vec![b.constant(false); n * bits];
    for (p, elem) in elems.iter().enumerate() {
        let base = (n - 1 - p) * bits;
        for (i, &net) in elem.iter().enumerate() {
            word[base + i] = net;
        }
    }
    b.output_bus("perm", &word);
    builder.finish()
}

/// Pure netlist generation (for resource analysis).
pub fn shuffle_netlist(n: usize, options: ShuffleOptions) -> Netlist {
    build_shuffle(n, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn circuit_matches_software_model() {
        for n in [2usize, 3, 4, 6] {
            let opts = ShuffleOptions {
                lfsr_width: 16,
                pipelined: false,
                seed: 0xABCD + n as u64,
            };
            let mut hw = KnuthShuffleCircuit::with_options(n, opts);
            let mut sw = KnuthShuffleModel::with_options(n, opts);
            for cycle in 0..200 {
                assert_eq!(
                    hw.next_permutation(),
                    sw.next_permutation(),
                    "n = {n}, cycle = {cycle}"
                );
            }
        }
    }

    #[test]
    fn outputs_are_valid_permutations() {
        let mut gen = KnuthShuffleCircuit::new(5);
        for _ in 0..100 {
            let p = gen.next_permutation();
            assert!(Permutation::try_from_slice(p.as_slice()).is_ok());
        }
    }

    #[test]
    fn distribution_roughly_uniform_n3() {
        let mut gen = KnuthShuffleCircuit::with_options(
            3,
            ShuffleOptions {
                lfsr_width: 16,
                pipelined: false,
                seed: 99,
            },
        );
        let trials = 3000u64;
        let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
        for _ in 0..trials {
            *counts.entry(gen.next_permutation().into_vec()).or_default() += 1;
        }
        assert_eq!(counts.len(), 6);
        let expected = trials as f64 / 6.0;
        let chi2: f64 = counts
            .values()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 20.5, "chi2 = {chi2}"); // 5 dof, 99.9th pct
    }

    #[test]
    fn pipelined_variant_produces_valid_permutations() {
        let opts = ShuffleOptions {
            lfsr_width: 12,
            pipelined: true,
            seed: 7,
        };
        let mut gen = KnuthShuffleCircuit::with_options(5, opts);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..60 {
            let p = gen.next_permutation();
            assert!(Permutation::try_from_slice(p.as_slice()).is_ok());
            distinct.insert(p.into_vec());
        }
        assert!(distinct.len() > 20, "pipelined outputs should vary");
    }

    #[test]
    fn lfsr_registers_dominate_resource_count() {
        let opts = ShuffleOptions {
            lfsr_width: 31,
            pipelined: false,
            seed: 1,
        };
        let nl = shuffle_netlist(6, opts);
        // 5 stages × 31-bit LFSRs.
        assert_eq!(nl.register_count(), 5 * 31);
    }

    #[test]
    fn crossover_structure_grows_quadratically() {
        let opts = ShuffleOptions {
            lfsr_width: 8,
            pipelined: false,
            seed: 1,
        };
        let g6 = shuffle_netlist(6, opts).combinational_count();
        let g12 = shuffle_netlist(12, opts).combinational_count();
        let ratio = g12 as f64 / g6 as f64;
        assert!((2.0..=8.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn e_estimate_is_plausible() {
        let mut gen = KnuthShuffleCircuit::with_options(
            4,
            ShuffleOptions {
                lfsr_width: 16,
                pipelined: false,
                seed: 3,
            },
        );
        let (derangements, e) = gen.estimate_e(4000);
        assert!(derangements > 0);
        // P(derangement, n=4) = 9/24 = 0.375; e ≈ 2.718 ± sampling noise.
        assert!((2.4..=3.1).contains(&e), "e = {e}");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a: Vec<_> = {
            let mut g = KnuthShuffleModel::with_options(
                5,
                ShuffleOptions {
                    lfsr_width: 16,
                    pipelined: false,
                    seed: 1,
                },
            );
            (0..10).map(|_| g.next_permutation()).collect()
        };
        let b: Vec<_> = {
            let mut g = KnuthShuffleModel::with_options(
                5,
                ShuffleOptions {
                    lfsr_width: 16,
                    pipelined: false,
                    seed: 2,
                },
            );
            (0..10).map(|_| g.next_permutation()).collect()
        };
        assert_ne!(a, b);
    }
}
