//! Linear feedback shift registers: software step and netlist construction.

use crate::taps::max_len_taps;
use hwperm_logic::{Builder, Bus};

/// A Fibonacci LFSR of width `m ≤ 64` with maximal-length taps.
///
/// State transition per clock: `fb = XOR of tapped bits;
/// state = ((state << 1) | fb) & mask`. With a nonzero seed, the state
/// visits all `2^m − 1` nonzero values before repeating — the paper's
/// "the LFSR random number generator generates all 31 5-bit numbers
/// except 0" for `m = 5`.
#[derive(Debug, Clone)]
pub struct Lfsr {
    state: u64,
    mask: u64,
    m: usize,
    tap_mask: u64,
}

impl Lfsr {
    /// Creates an `m`-bit LFSR seeded with `seed` (reduced to `m` bits;
    /// a zero seed is mapped to 1, since zero is the lock-up state).
    ///
    /// # Panics
    /// Panics if `m` is outside `2..=64`.
    pub fn new(m: usize, seed: u64) -> Self {
        let taps = max_len_taps(m);
        let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        let mut tap_mask = 0u64;
        for &t in taps {
            tap_mask |= 1u64 << (t - 1);
        }
        let state = match seed & mask {
            0 => 1,
            s => s,
        };
        Lfsr {
            state,
            mask,
            m,
            tap_mask,
        }
    }

    /// Register width `m`.
    pub fn width(&self) -> usize {
        self.m
    }

    /// Current state (the paper's random number `x`, `1 ≤ x < 2^m`).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one clock and returns the *new* state.
    pub fn step(&mut self) -> u64 {
        let fb = ((self.state & self.tap_mask).count_ones() & 1) as u64;
        self.state = ((self.state << 1) | fb) & self.mask;
        debug_assert_ne!(self.state, 0, "LFSR entered the lock-up state");
        self.state
    }

    /// The sequence period: `2^m − 1` for a maximal-length LFSR.
    pub fn period(&self) -> u64 {
        self.mask
    }
}

/// A Galois-form LFSR over the *reciprocal* characteristic polynomial —
/// produces a maximal-length sequence with cheaper software steps; used
/// to cross-check that maximality is a property of the polynomial, not
/// the implementation.
#[derive(Debug, Clone)]
pub struct GaloisLfsr {
    state: u64,
    poly: u64,
    mask: u64,
}

impl GaloisLfsr {
    /// Creates an `m`-bit Galois LFSR from the same tap table.
    pub fn new(m: usize, seed: u64) -> Self {
        let taps = max_len_taps(m);
        let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        // Galois form shifting right: on output of bit 0, XOR the taps in.
        let mut poly = 0u64;
        for &t in taps {
            poly |= 1u64 << (m - t as usize);
        }
        // Bit m-1 (the fed-back bit) corresponds to tap m, always present
        // at position 0 of poly; shift pattern places it at the MSB.
        poly = (poly >> 1) | (1u64 << (m - 1));
        let state = match seed & mask {
            0 => 1,
            s => s,
        };
        GaloisLfsr { state, poly, mask }
    }

    /// Advances one clock and returns the new state.
    pub fn step(&mut self) -> u64 {
        let out = self.state & 1;
        self.state >>= 1;
        if out == 1 {
            self.state ^= self.poly;
        }
        self.state &= self.mask;
        self.state
    }

    /// Current state.
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// Builds the same Fibonacci LFSR as hardware: `m` DFFs in a shift ring
/// with an XOR-tree feedback into bit 0. Returns the state bus
/// (LSB-first). Each [`hwperm_logic::BatchSim::step`] advances the
/// register exactly like [`Lfsr::step`].
pub fn build_lfsr(b: &mut Builder, m: usize, seed: u64) -> Bus {
    let taps = max_len_taps(m);
    let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    let seed = match seed & mask {
        0 => 1,
        s => s,
    };
    // Registers with per-bit reset values from the seed.
    let q: Bus = (0..m)
        .map(|i| b.dff_deferred((seed >> i) & 1 == 1))
        .collect();
    // Feedback: XOR of tapped bits.
    let mut fb = None;
    for &t in taps {
        let bit = q[t as usize - 1];
        fb = Some(match fb {
            None => bit,
            Some(acc) => b.xor(acc, bit),
        });
    }
    let fb = fb.expect("taps nonempty");
    // Shift: bit 0 <- fb, bit i <- bit i-1.
    b.connect_dff(q[0], fb);
    for i in 1..m {
        b.connect_dff(q[i], q[i - 1]);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::BatchSim;

    #[test]
    fn full_period_small_widths() {
        for m in 2..=16usize {
            let mut lfsr = Lfsr::new(m, 1);
            let period = lfsr.period();
            let start = lfsr.state();
            let mut count = 0u64;
            loop {
                lfsr.step();
                count += 1;
                if lfsr.state() == start {
                    break;
                }
                assert!(count <= period, "width {m} cycle longer than 2^m - 1");
            }
            assert_eq!(count, period, "width {m} not maximal");
        }
    }

    #[test]
    fn full_period_width_20() {
        let mut lfsr = Lfsr::new(20, 0xBEEF);
        let start = lfsr.state();
        let mut count = 0u64;
        loop {
            lfsr.step();
            count += 1;
            if lfsr.state() == start {
                break;
            }
        }
        assert_eq!(count, (1 << 20) - 1);
    }

    #[test]
    fn galois_full_period_small_widths() {
        for m in 2..=14usize {
            let mut lfsr = GaloisLfsr::new(m, 1);
            let start = lfsr.state();
            let mut count = 0u64;
            let period = if m == 64 { u64::MAX } else { (1 << m) - 1 };
            loop {
                lfsr.step();
                count += 1;
                if lfsr.state() == start {
                    break;
                }
                assert!(count <= period, "width {m} cycle too long");
            }
            assert_eq!(count, period, "Galois width {m} not maximal");
        }
    }

    #[test]
    fn zero_seed_is_coerced() {
        let lfsr = Lfsr::new(8, 0);
        assert_ne!(lfsr.state(), 0);
        let lfsr = Lfsr::new(8, 256); // == 0 mod 2^8
        assert_ne!(lfsr.state(), 0);
    }

    #[test]
    fn never_hits_zero() {
        let mut lfsr = Lfsr::new(5, 7);
        for _ in 0..100 {
            assert_ne!(lfsr.step(), 0);
        }
    }

    #[test]
    fn m5_visits_all_31_values() {
        // The paper's example: all 31 5-bit numbers except 0.
        let mut lfsr = Lfsr::new(5, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..31 {
            seen.insert(lfsr.step());
        }
        assert_eq!(seen.len(), 31);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn circuit_matches_software_bit_for_bit() {
        for m in [3usize, 5, 8, 16, 31] {
            let seed = 0x1234_5678_9abc_def0u64;
            let mut b = Builder::new();
            let q = build_lfsr(&mut b, m, seed);
            b.output_bus("x", &q);
            let mut sim = BatchSim::<bool>::new(b.finish());
            let mut sw = Lfsr::new(m, seed);
            // Reset state equals the seed.
            sim.eval();
            assert_eq!(
                sim.read_output("x").to_u64(),
                Some(sw.state()),
                "m={m} reset"
            );
            for cycle in 0..200 {
                sim.step();
                sim.eval();
                let hw = sim.read_output("x").to_u64().unwrap();
                let expected = sw.step();
                assert_eq!(hw, expected, "m = {m}, cycle = {cycle}");
            }
        }
    }

    #[test]
    fn circuit_resource_shape() {
        // An m-bit LFSR costs m registers and O(taps) LUTs.
        let mut b = Builder::new();
        let q = build_lfsr(&mut b, 32, 1);
        b.output_bus("x", &q);
        let report = hwperm_logic::ResourceReport::of(&b.finish());
        assert_eq!(report.registers, 32);
        assert!(report.total_luts <= 4, "{report}");
    }
}
