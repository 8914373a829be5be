//! Property tests: generated arithmetic netlists must agree with host
//! integer arithmetic on random operands and widths.

use hwperm_bignum::Ubig;
use hwperm_logic::{BatchSim, Builder};
use proptest::prelude::*;

proptest! {
    #[test]
    fn adder_matches_host(w in 1usize..=32, a in any::<u64>(), b in any::<u64>()) {
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let (a, b) = (a & mask, b & mask);
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", w);
        let bb = builder.input_bus("b", w);
        let sum = builder.add_expand(&ba, &bb);
        builder.output_bus("s", &sum);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input_u64("a", a);
        sim.set_input_u64("b", b);
        sim.eval();
        prop_assert_eq!(sim.read_output("s").to_u64(), Some(a + b));
    }

    #[test]
    fn subtractor_matches_host(w in 1usize..=32, a in any::<u64>(), b in any::<u64>()) {
        let mask = (1u64 << w) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", w);
        let bb = builder.input_bus("b", w);
        let (diff, ok) = builder.sub(&ba, &bb);
        builder.output_bus("d", &diff);
        builder.output_bus("ok", &[ok]);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input_u64("a", a);
        sim.set_input_u64("b", b);
        sim.eval();
        prop_assert_eq!(sim.read_output("ok").to_u64().unwrap() == 1, a >= b);
        if a >= b {
            prop_assert_eq!(sim.read_output("d").to_u64(), Some(a - b));
        }
    }

    #[test]
    fn comparators_match_host(w in 1usize..=24, a in any::<u64>(), c in any::<u64>()) {
        let mask = (1u64 << w) - 1;
        let (a, c) = (a & mask, c & mask);
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", w);
        let ge_c = builder.ge_const(&ba, &Ubig::from(c));
        let eq_c = builder.eq_const(&ba, &Ubig::from(c));
        builder.output_bus("ge", &[ge_c]);
        builder.output_bus("eq", &[eq_c]);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input_u64("a", a);
        sim.eval();
        prop_assert_eq!(sim.read_output("ge").to_u64().unwrap() == 1, a >= c);
        prop_assert_eq!(sim.read_output("eq").to_u64().unwrap() == 1, a == c);
    }

    #[test]
    fn mul_const_matches_host(w in 1usize..=16, a in any::<u64>(), k in 0u64..=1000) {
        let mask = (1u64 << w) - 1;
        let a = a & mask;
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", w);
        let p = builder.mul_const(&ba, &Ubig::from(k));
        builder.output_bus("p", &p);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input_u64("a", a);
        sim.eval();
        prop_assert_eq!(sim.read_output("p").to_u64(), Some(a * k));
    }

    #[test]
    fn binary_mux_selects_correctly(
        w in 1usize..=8,
        count in 1usize..=9,
        sel in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mask = (1u64 << w) - 1;
        let choices: Vec<u64> = (0..count as u64)
            .map(|i| seed.rotate_left(i as u32 * 7) & mask)
            .collect();
        let sel_width = (usize::BITS - (count - 1).leading_zeros()).max(1) as usize;
        let sel = sel % count as u64;

        let mut builder = Builder::new();
        let bsel = builder.input_bus("sel", sel_width);
        let buses: Vec<Vec<_>> = choices
            .iter()
            .map(|&c| builder.constant_bus(w, &Ubig::from(c)))
            .collect();
        let refs: Vec<&[hwperm_logic::NetId]> = buses.iter().map(|b| b.as_slice()).collect();
        let out = builder.binary_mux(&bsel, &refs);
        builder.output_bus("out", &out);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input_u64("sel", sel);
        sim.eval();
        prop_assert_eq!(sim.read_output("out").to_u64(), Some(choices[sel as usize]));
    }

    #[test]
    fn wide_ubig_adder(limbs_a in prop::collection::vec(any::<u64>(), 1..3),
                       limbs_b in prop::collection::vec(any::<u64>(), 1..3)) {
        // Exercise >64-bit datapaths, as needed for big-n index buses.
        let a = Ubig::from_limbs(limbs_a);
        let b = Ubig::from_limbs(limbs_b);
        let w = a.bit_len().max(b.bit_len()).max(1);
        let mut builder = Builder::new();
        let ba = builder.input_bus("a", w);
        let bb = builder.input_bus("b", w);
        let sum = builder.add_expand(&ba, &bb);
        builder.output_bus("s", &sum);
        let mut sim = BatchSim::<bool>::new(builder.finish());
        sim.set_input("a", &a);
        sim.set_input("b", &b);
        sim.eval();
        prop_assert_eq!(sim.read_output("s"), &a + &b);
    }
}
