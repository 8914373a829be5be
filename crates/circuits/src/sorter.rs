//! The conclusion's remark, made concrete: "The alert reader will note
//! that the factorial number system circuit and the Knuth shuffle
//! circuit can also serve as a sorting network."
//!
//! The converter's datapath is a cascade of select-one-and-compact
//! stages; replacing the index-comparator bank with *key* comparators
//! turns it into a hardware selection sort. Stage `j` finds the minimum
//! of the `r = n − j` remaining keys (comparator scan), raises a
//! priority one-hot on its first occurrence (so duplicate keys stay
//! well-defined — a stable selection), routes it to output `j` through
//! the same one-hot MUX, and compacts the remainder with the same
//! thermometer-controlled 2:1 muxes. `O(n²)` comparators, `O(n)` stage
//! delay — the converter's complexity exactly.

use hwperm_bignum::Ubig;
use hwperm_logic::{BatchSim, Builder, Bus, Netlist, ResourceReport};

/// An `n`-input, `w`-bit-key sorting network built from the converter's
/// stage datapath.
///
/// ```
/// use hwperm_circuits::SortingNetwork;
///
/// let mut sorter = SortingNetwork::new(5, 8);
/// assert_eq!(sorter.sort(&[9, 3, 200, 3, 0]), vec![0, 3, 3, 9, 200]);
/// ```
#[derive(Debug, Clone)]
pub struct SortingNetwork {
    sim: BatchSim<bool>,
    n: usize,
    w: usize,
}

impl SortingNetwork {
    /// Builds the network for `n` keys of `w` bits each.
    ///
    /// # Panics
    /// Panics if `n < 2` or `w == 0` or `w > 63`.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(n >= 2, "sorting fewer than 2 keys is trivial");
        assert!((1..=63).contains(&w), "key width must be 1..=63 bits");
        let netlist = build_sorter(n, w);
        SortingNetwork {
            sim: BatchSim::<bool>::new(netlist),
            n,
            w,
        }
    }

    /// Number of keys.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Key width in bits.
    pub fn key_width(&self) -> usize {
        self.w
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Resource estimate.
    pub fn report(&self) -> ResourceReport {
        ResourceReport::of(self.sim.netlist())
    }

    /// Sorts `keys` ascending through the netlist.
    ///
    /// # Panics
    /// Panics if `keys.len() != n` or any key exceeds `w` bits.
    pub fn sort(&mut self, keys: &[u64]) -> Vec<u64> {
        assert_eq!(keys.len(), self.n, "expected exactly {} keys", self.n);
        let mut word = Ubig::zero();
        for (i, &key) in keys.iter().enumerate() {
            assert!(key < (1u64 << self.w), "key {key} exceeds {} bits", self.w);
            for bit in 0..self.w {
                if (key >> bit) & 1 == 1 {
                    word.set_bit(i * self.w + bit, true);
                }
            }
        }
        self.sim.set_input("data", &word);
        self.sim.eval();
        let out = self.sim.read_output("sorted");
        (0..self.n)
            .map(|i| {
                let mut v = 0u64;
                for bit in 0..self.w {
                    if out.bit(i * self.w + bit) {
                        v |= 1 << bit;
                    }
                }
                v
            })
            .collect()
    }
}

/// Generates the selection-sort netlist.
fn build_sorter(n: usize, w: usize) -> Netlist {
    let mut builder = Builder::new();
    let b = &mut builder;
    let data = b.input_bus("data", n * w);
    let mut remaining: Vec<Bus> = (0..n).map(|i| data[i * w..(i + 1) * w].to_vec()).collect();
    let mut outputs: Vec<Bus> = Vec::with_capacity(n);

    for _stage in 0..n {
        let r = remaining.len();
        if r == 1 {
            outputs.push(remaining.pop().unwrap());
            break;
        }
        // Minimum scan: the converter's comparator bank, keyed on data.
        let mut min = remaining[0].clone();
        for item in remaining.iter().skip(1) {
            let keep = b.ge(item, &min); // item >= min → keep current min
            min = b.mux_bus(keep, item, &min);
        }
        // Priority one-hot on the first occurrence of the minimum.
        let mut onehot = Vec::with_capacity(r);
        let mut taken = b.constant(false);
        for item in remaining.iter() {
            let is_min = b.eq(item, &min);
            let not_taken = b.not(taken);
            onehot.push(b.and(is_min, not_taken));
            taken = b.or(taken, is_min);
        }
        // The priority encoding is exactly one-hot for every input (the
        // minimum always occurs at least once); declare the intent so
        // the lint engine's one-hot checker verifies it.
        b.record_one_hot_bank(&onehot);
        outputs.push(min);
        // Compaction, exactly as in the converter: slot i keeps its value
        // while the removed position is still to the right.
        // "selected index ≥ i+1" ⟺ none of onehot[0..=i].
        let mut any_before = onehot[0];
        let mut next = Vec::with_capacity(r - 1);
        for i in 0..r - 1 {
            let keep_cur = b.not(any_before); // removal strictly right of i
            let shifted = &remaining[i + 1];
            let cur = &remaining[i];
            next.push(b.mux_bus(keep_cur, shifted, cur));
            any_before = b.or(any_before, onehot[i + 1]);
        }
        remaining = next;
    }

    let mut out_bus = Vec::with_capacity(n * w);
    for bus in &outputs {
        out_bus.extend_from_slice(bus);
    }
    b.output_bus("sorted", &out_bus);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(sorter: &mut SortingNetwork, keys: &[u64]) {
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(sorter.sort(keys), expected, "keys = {keys:?}");
    }

    #[test]
    fn sorts_exhaustively_n4_w2() {
        let mut sorter = SortingNetwork::new(4, 2);
        for a in 0..4u64 {
            for c in 0..4u64 {
                for d in 0..4u64 {
                    for e in 0..4u64 {
                        check(&mut sorter, &[a, c, d, e]);
                    }
                }
            }
        }
    }

    #[test]
    fn sorts_random_vectors() {
        let mut sorter = SortingNetwork::new(8, 16);
        let mut state = 0x1357_9BDFu64;
        for _ in 0..50 {
            let keys: Vec<u64> = (0..8)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 0xFFFF
                })
                .collect();
            check(&mut sorter, &keys);
        }
    }

    #[test]
    fn handles_duplicates_and_extremes() {
        let mut sorter = SortingNetwork::new(5, 8);
        check(&mut sorter, &[7, 7, 7, 7, 7]);
        check(&mut sorter, &[255, 0, 255, 0, 128]);
        check(&mut sorter, &[0, 0, 0, 0, 1]);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let mut sorter = SortingNetwork::new(6, 8);
        check(&mut sorter, &[1, 2, 3, 4, 5, 6]);
        check(&mut sorter, &[6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn comparator_complexity_matches_converter_claim() {
        // O(n²) growth, like the converter.
        let g4 = SortingNetwork::new(4, 8).netlist().combinational_count();
        let g8 = SortingNetwork::new(8, 8).netlist().combinational_count();
        let ratio = g8 as f64 / g4 as f64;
        assert!((2.5..=7.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_key_rejected() {
        SortingNetwork::new(3, 4).sort(&[16, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "expected exactly")]
    fn wrong_arity_rejected() {
        SortingNetwork::new(3, 4).sort(&[1, 2]);
    }
}
