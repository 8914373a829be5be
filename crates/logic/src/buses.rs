//! Bus-level combinators: the arithmetic and steering blocks the paper's
//! circuits are drawn with (adders, `A−B` subtractors, constant
//! comparators, one-hot MUXes, decoders, shift-and-add constant
//! multipliers).

use crate::builder::{Builder, Bus};
use crate::netlist::NetId;
use hwperm_bignum::Ubig;

impl Builder {
    /// Zero-extends `bus` to `width` bits.
    pub fn zext(&mut self, bus: &[NetId], width: usize) -> Bus {
        assert!(width >= bus.len(), "zext cannot shrink a bus");
        let zero = self.constant(false);
        let mut out = bus.to_vec();
        out.resize(width, zero);
        out
    }

    /// Full adder: returns `(sum, carry_out)`. The carry-out net is
    /// marked as a carry-chain member for the timing model (real FPGAs
    /// route ripple carries through hardened logic an order of magnitude
    /// faster than general LUT hops).
    fn full_add(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        // Normalize a constant operand into the `b` slot (addition is
        // commutative), then fold the two-constants case outright: the
        // sum is `a` or `¬a` and the carry is a constant or `a`. Going
        // through the general xor chain instead would build `¬a` and
        // immediately fold it back out, stranding the inverter.
        let (a, b) = if self.const_value(a).is_some() && self.const_value(b).is_none() {
            (b, a)
        } else {
            (a, b)
        };
        if let (Some(bv), Some(cv)) = (self.const_value(b), self.const_value(cin)) {
            let sum = if bv == cv { a } else { self.not(a) };
            let cout = if bv == cv { self.constant(bv) } else { a };
            return (sum, cout);
        }
        // Constant carry-ins (the +1 of two's-complement subtraction,
        // the 0 into an adder's LSB) get the specialized half-adder
        // forms — the general expression would contain redundant
        // (untestable-fault) structure like cout = (a∧b) ∨ (a⊕b).
        let (sum, cout) = match self.const_value(cin) {
            Some(false) => {
                let sum = self.xor(a, b);
                let cout = self.and(a, b);
                (sum, cout)
            }
            Some(true) => {
                let axb = self.xor(a, b);
                let sum = self.not(axb);
                let cout = self.or(a, b);
                (sum, cout)
            }
            None => {
                let axb = self.xor(a, b);
                let sum = self.xor(axb, cin);
                let t1 = self.and(a, b);
                let t2 = self.and(axb, cin);
                let cout = self.or(t1, t2);
                (sum, cout)
            }
        };
        self.mark_carry(cout);
        (sum, cout)
    }

    /// Ripple-carry addition of equal-or-unequal width buses; the result
    /// has the width of the wider operand and the final carry is returned
    /// separately.
    pub fn add(&mut self, a: &[NetId], b: &[NetId]) -> (Bus, NetId) {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        let mut carry = self.constant(false);
        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            let (s, c) = self.full_add(a[i], b[i], carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Addition with the carry kept: result is one bit wider than the
    /// wider operand, so no overflow is possible.
    pub fn add_expand(&mut self, a: &[NetId], b: &[NetId]) -> Bus {
        let (mut sum, carry) = self.add(a, b);
        sum.push(carry);
        sum
    }

    /// The paper's `A−B` block: two's-complement subtraction
    /// `a − b`, returning `(difference, no_borrow)` where `no_borrow = 1`
    /// iff `a ≥ b` (the difference is valid).
    pub fn sub(&mut self, a: &[NetId], b: &[NetId]) -> (Bus, NetId) {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        let mut carry = self.constant(true); // +1 of the two's complement
        let mut diff = Vec::with_capacity(width);
        for i in 0..width {
            let nb = self.not(b[i]);
            let (d, c) = self.full_add(a[i], nb, carry);
            diff.push(d);
            carry = c;
        }
        (diff, carry)
    }

    /// Wrapping subtraction `a − b mod 2^width`. Same ripple as
    /// [`Builder::sub`] but the final carry-out is not observable, so
    /// its gates are never built — use this when the borrow is known
    /// dead (e.g. the Fig. 1 stage subtract, where the true difference
    /// provably fits the truncated width).
    pub fn sub_mod(&mut self, a: &[NetId], b: &[NetId]) -> Bus {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        let mut carry = self.constant(true);
        let mut diff = Vec::with_capacity(width);
        for i in 0..width {
            let nb = self.not(b[i]);
            if i + 1 == width {
                diff.push(self.sum3(a[i], nb, carry));
            } else {
                let (d, c) = self.full_add(a[i], nb, carry);
                diff.push(d);
                carry = c;
            }
        }
        diff
    }

    /// Three-input sum `a ⊕ b ⊕ cin` with the two-constants case folded
    /// up front (two constant operands cancel or reduce to a single
    /// inversion; chaining two xors instead would strand an inverter).
    fn sum3(&mut self, a: NetId, b: NetId, cin: NetId) -> NetId {
        let (a, b) = if self.const_value(a).is_some() && self.const_value(b).is_none() {
            (b, a)
        } else {
            (a, b)
        };
        if let (Some(bv), Some(cv)) = (self.const_value(b), self.const_value(cin)) {
            return if bv == cv { a } else { self.not(a) };
        }
        let axb = self.xor(a, b);
        self.xor(axb, cin)
    }

    /// Comparator `a ≥ c` against a build-time constant — the primitive
    /// of the Fig. 1 comparator bank. Constant bits specialize the chain:
    /// a 0-bit costs an OR, a 1-bit an AND.
    pub fn ge_const(&mut self, a: &[NetId], c: &Ubig) -> NetId {
        if c.bit_len() > a.len() {
            // The bus can never reach the constant.
            return self.constant(false);
        }
        let mut ge = self.constant(true);
        for (i, &bit) in a.iter().enumerate() {
            ge = if c.bit(i) {
                self.and(bit, ge)
            } else {
                self.or(bit, ge)
            };
            // Comparison is subtraction: the recurrence maps onto the
            // same hardened carry chain in real devices.
            self.mark_carry(ge);
        }
        ge
    }

    /// Comparator `a ≥ b` for two buses (LSB-first suffix recurrence).
    pub fn ge(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        let mut ge = self.constant(true);
        for i in 0..width {
            // ge_i = (a_i & !b_i) | ((a_i ⊕ b_i)' & ge_{i-1})
            let gt = {
                let nb = self.not(b[i]);
                self.and(a[i], nb)
            };
            let eq = {
                let x = self.xor(a[i], b[i]);
                self.not(x)
            };
            let keep = self.and(eq, ge);
            ge = self.or(gt, keep);
            self.mark_carry(ge);
        }
        ge
    }

    /// Equality of two buses (zero-extended to the wider width).
    pub fn eq(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        let mut acc = self.constant(true);
        for i in 0..width {
            let x = self.xor(a[i], b[i]);
            let same = self.not(x);
            acc = self.and(acc, same);
        }
        acc
    }

    /// Equality with a constant.
    pub fn eq_const(&mut self, a: &[NetId], c: &Ubig) -> NetId {
        if c.bit_len() > a.len() {
            return self.constant(false);
        }
        let mut acc = self.constant(true);
        for (i, &bit) in a.iter().enumerate() {
            let term = if c.bit(i) { bit } else { self.not(bit) };
            acc = self.and(acc, term);
        }
        acc
    }

    /// Bitwise 2:1 mux over buses: `sel ? b : a`.
    pub fn mux_bus(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Bus {
        let width = a.len().max(b.len());
        let a = self.zext(a, width);
        let b = self.zext(b, width);
        (0..width).map(|i| self.mux(sel, a[i], b[i])).collect()
    }

    /// The paper's one-hot MUX: `out = OR_i (choices[i] AND onehot[i])`.
    /// Exactly one select line is expected to be high; if none is, the
    /// output is zero.
    pub fn one_hot_mux(&mut self, onehot: &[NetId], choices: &[&[NetId]]) -> Bus {
        assert_eq!(onehot.len(), choices.len(), "one_hot_mux arity mismatch");
        self.record_one_hot_bank(onehot);
        let width = choices.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut out = vec![self.constant(false); width];
        for (&sel, &choice) in onehot.iter().zip(choices) {
            for (i, &bit) in choice.iter().enumerate() {
                let masked = self.and(sel, bit);
                out[i] = self.or(out[i], masked);
            }
        }
        out
    }

    /// Binary-select mux tree: `choices[sel]`. Missing high choices
    /// (when `choices.len()` is not a power of two) read as zero.
    pub fn binary_mux(&mut self, sel: &[NetId], choices: &[&[NetId]]) -> Bus {
        assert!(!choices.is_empty());
        let width = choices.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut layer: Vec<Bus> = choices.iter().map(|c| self.zext(c, width)).collect();
        for &s in sel {
            let zero_bus = vec![self.constant(false); width];
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                let low = &pair[0];
                let high = pair.get(1).unwrap_or(&zero_bus);
                next.push(self.mux_bus(s, low, high));
            }
            layer = next;
            if layer.len() == 1 {
                break;
            }
        }
        assert_eq!(layer.len(), 1, "select bus too narrow for choice count");
        layer.pop().unwrap()
    }

    /// Decoder: one-hot lines `out[v] = (sel == v)` for `v < count`.
    pub fn decoder(&mut self, sel: &[NetId], count: usize) -> Vec<NetId> {
        (0..count)
            .map(|v| self.eq_const(sel, &Ubig::from(v as u64)))
            .collect()
    }

    /// Shift-and-add constant multiplier (the paper's Fig. 2 note: "a
    /// shift-and-add multiplier with little delay"): `a · k`, output
    /// width `a.len() + k.bit_len()`.
    pub fn mul_const(&mut self, a: &[NetId], k: &Ubig) -> Bus {
        let out_width = a.len() + k.bit_len();
        if k.is_zero() || a.is_empty() {
            return vec![self.constant(false); out_width.max(1)];
        }
        let zero = self.constant(false);
        let mut acc: Option<Bus> = None;
        for bit in 0..k.bit_len() {
            if !k.bit(bit) {
                continue;
            }
            // a << bit
            let mut shifted = vec![zero; bit];
            shifted.extend_from_slice(a);
            acc = Some(match acc {
                None => shifted,
                Some(prev) => self.add_expand(&prev, &shifted),
            });
        }
        let mut out = acc.expect("k has at least one set bit");
        out.resize(out_width, zero);
        out
    }

    /// Population count: an adder tree summing the bits of `bus` into a
    /// `⌈log₂(len+1)⌉`-bit result (the digit extractor of the hardware
    /// rank converter).
    pub fn popcount(&mut self, bus: &[NetId]) -> Bus {
        if bus.is_empty() {
            return vec![self.constant(false)];
        }
        // Balanced tree of widening adders over 1-bit leaves.
        let mut layer: Vec<Bus> = bus.iter().map(|&b| vec![b]).collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut iter = layer.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next.push(self.add_expand(&a, &b)),
                    None => next.push(a),
                }
            }
            layer = next;
        }
        layer.pop().unwrap()
    }

    /// OR-reduction of a bus.
    pub fn or_reduce(&mut self, bus: &[NetId]) -> NetId {
        let mut acc = self.constant(false);
        for &b in bus {
            acc = self.or(acc, b);
        }
        acc
    }

    /// AND-reduction of a bus.
    pub fn and_reduce(&mut self, bus: &[NetId]) -> NetId {
        let mut acc = self.constant(true);
        for &b in bus {
            acc = self.and(acc, b);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchSim;

    /// Builds a 2-input combinational fixture, evaluates it on `(a, b)`,
    /// and returns the `out` port value.
    fn eval2(
        wa: usize,
        wb: usize,
        f: impl Fn(&mut Builder, &Bus, &Bus) -> Bus,
        a: u64,
        b: u64,
    ) -> u64 {
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", wa);
        let bb = builder.input_bus("b", wb);
        let out = f(&mut builder, &ba, &bb);
        builder.output_bus("out", &out);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input("a", &Ubig::from(a));
        sim.set_input("b", &Ubig::from(b));
        sim.eval();
        sim.read_output("out").to_u64().unwrap()
    }

    #[test]
    fn adder_exhaustive_6x6() {
        for a in 0..64u64 {
            for b in 0..64u64 {
                let got = eval2(6, 6, |bl, x, y| bl.add_expand(x, y), a, b);
                assert_eq!(got, a + b, "{a} + {b}");
            }
        }
    }

    #[test]
    fn adder_mixed_widths() {
        let got = eval2(3, 8, |bl, x, y| bl.add_expand(x, y), 7, 200);
        assert_eq!(got, 207);
    }

    #[test]
    fn subtractor_exhaustive_5x5() {
        for a in 0..32u64 {
            for b in 0..32u64 {
                let mut builder = Builder::new();
                let ba = builder.input_bus("a", 5);
                let bb = builder.input_bus("b", 5);
                let (diff, ok) = builder.sub(&ba, &bb);
                builder.output_bus("diff", &diff);
                builder.output_bus("ok", &[ok]);
                let mut sim = BatchSim::<bool>::new(builder.finish());
                sim.set_input("a", &Ubig::from(a));
                sim.set_input("b", &Ubig::from(b));
                sim.eval();
                let ok_v = sim.read_output("ok").to_u64().unwrap();
                assert_eq!(ok_v == 1, a >= b, "{a} - {b} borrow");
                if a >= b {
                    assert_eq!(sim.read_output("diff").to_u64(), Some(a - b));
                }
            }
        }
    }

    #[test]
    fn ge_const_exhaustive() {
        for c in 0..16u64 {
            let mut builder = Builder::new();
            let ba = builder.input_bus("a", 4);
            let cmp = builder.ge_const(&ba, &Ubig::from(c));
            builder.output_bus("out", &[cmp]);
            let mut sim = BatchSim::<bool>::new(builder.finish());
            for a in 0..16u64 {
                sim.set_input("a", &Ubig::from(a));
                sim.eval();
                assert_eq!(
                    sim.read_output("out").to_u64().unwrap() == 1,
                    a >= c,
                    "a={a} c={c}"
                );
            }
        }
    }

    #[test]
    fn ge_const_wider_constant_is_false() {
        let got = eval2(
            3,
            1,
            |bl, x, _| {
                let g = bl.ge_const(x, &Ubig::from(9u64));
                vec![g]
            },
            7,
            0,
        );
        assert_eq!(got, 0);
    }

    #[test]
    fn ge_bus_exhaustive_4x4() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let got = eval2(4, 4, |bl, x, y| vec![bl.ge(x, y)], a, b);
                assert_eq!(got == 1, a >= b, "{a} >= {b}");
            }
        }
    }

    #[test]
    fn eq_const_and_decoder() {
        let mut builder = Builder::new();
        let sel = builder.input_bus("sel", 3);
        let onehot = builder.decoder(&sel, 6);
        builder.output_bus("oh", &onehot);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        for v in 0..8u64 {
            sim.set_input("sel", &Ubig::from(v));
            sim.eval();
            let oh = sim.read_output("oh").to_u64().unwrap();
            if v < 6 {
                assert_eq!(oh, 1 << v, "one-hot for {v}");
            } else {
                assert_eq!(oh, 0, "out of range select {v}");
            }
        }
    }

    #[test]
    fn one_hot_mux_selects() {
        let mut builder = Builder::new();
        let sel = builder.input_bus("sel", 3); // one-hot lines directly
        let c0 = builder.constant_bus(4, &Ubig::from(5u64));
        let c1 = builder.constant_bus(4, &Ubig::from(9u64));
        let c2 = builder.constant_bus(4, &Ubig::from(14u64));
        let out = builder.one_hot_mux(&sel, &[&c0, &c1, &c2]);
        builder.output_bus("out", &out);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        for (hot, expect) in [(0b001u64, 5u64), (0b010, 9), (0b100, 14), (0b000, 0)] {
            sim.set_input("sel", &Ubig::from(hot));
            sim.eval();
            assert_eq!(sim.read_output("out").to_u64(), Some(expect));
        }
    }

    #[test]
    fn binary_mux_non_power_of_two() {
        let mut builder = Builder::new();
        let sel = builder.input_bus("sel", 2);
        let choices: Vec<Bus> = (0..3u64)
            .map(|v| builder.constant_bus(4, &Ubig::from(v * 3 + 1)))
            .collect();
        let refs: Vec<&[NetId]> = choices.iter().map(|c| c.as_slice()).collect();
        let out = builder.binary_mux(&sel, &refs);
        builder.output_bus("out", &out);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        for v in 0..3u64 {
            sim.set_input("sel", &Ubig::from(v));
            sim.eval();
            assert_eq!(sim.read_output("out").to_u64(), Some(v * 3 + 1));
        }
        // Out-of-range select reads zero.
        sim.set_input("sel", &Ubig::from(3u64));
        sim.eval();
        assert_eq!(sim.read_output("out").to_u64(), Some(0));
    }

    #[test]
    fn mul_const_matches_software() {
        for k in [0u64, 1, 2, 3, 5, 10, 24, 255] {
            let mut builder = Builder::new();
            let a = builder.input_bus("a", 8);
            let p = builder.mul_const(&a, &Ubig::from(k));
            builder.output_bus("out", &p);
            let mut sim = BatchSim::<bool>::new(builder.finish());
            for a_val in [0u64, 1, 7, 100, 255] {
                sim.set_input("a", &Ubig::from(a_val));
                sim.eval();
                assert_eq!(
                    sim.read_output("out").to_u64(),
                    Some(a_val * k),
                    "{a_val} * {k}"
                );
            }
        }
    }

    #[test]
    fn popcount_exhaustive_8_bits() {
        let mut builder = Builder::new();
        let a = builder.input_bus("a", 8);
        let pc = builder.popcount(&a);
        builder.output_bus("pc", &pc);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        for v in 0..256u64 {
            sim.set_input("a", &Ubig::from(v));
            sim.eval();
            assert_eq!(
                sim.read_output("pc").to_u64(),
                Some(v.count_ones() as u64),
                "v = {v:#b}"
            );
        }
    }

    #[test]
    fn popcount_edge_widths() {
        for w in [1usize, 2, 3, 5, 7] {
            let mut builder = Builder::new();
            let a = builder.input_bus("a", w);
            let pc = builder.popcount(&a);
            builder.output_bus("pc", &pc);
            let mut sim = BatchSim::<bool>::new(builder.finish());
            let all = (1u64 << w) - 1;
            sim.set_input("a", &Ubig::from(all));
            sim.eval();
            assert_eq!(sim.read_output("pc").to_u64(), Some(w as u64));
        }
    }

    #[test]
    fn reductions() {
        let mut builder = Builder::new();
        let a = builder.input_bus("a", 4);
        let any = builder.or_reduce(&a);
        let all = builder.and_reduce(&a);
        builder.output_bus("any", &[any]);
        builder.output_bus("all", &[all]);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        for v in 0..16u64 {
            sim.set_input("a", &Ubig::from(v));
            sim.eval();
            assert_eq!(sim.read_output("any").to_u64().unwrap() == 1, v != 0);
            assert_eq!(sim.read_output("all").to_u64().unwrap() == 1, v == 15);
        }
    }
}
