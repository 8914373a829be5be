//! FPGA technology estimation: the substitute for the Quartus synthesis
//! reports behind the paper's Tables III and IV.
//!
//! Three estimates are produced from a [`Netlist`]:
//!
//! 1. **LUT mapping** — greedy cone packing: walking gates in topological
//!    order, each combinational gate tries to absorb any single-fanout
//!    combinational fanin whose support keeps the merged cone within `K`
//!    inputs (`K = 6` for the Stratix IV's fracturable ALUT). The result
//!    is a LUT count and the per-input-count histogram the paper's
//!    tables break out ("# of LUTs of Various Inputs").
//! 2. **ALM packing** — a Stratix IV ALM holds one 6-input function, or
//!    a 5-input + an independent 3-input function, or two independent
//!    ≤4-input functions. The estimate packs the histogram greedily under
//!    those rules ("Est. # of Packed ALMs").
//! 3. **Fmax** — a levelized LUT-depth delay model
//!    `T = t_lut·depth + t_route·(depth−1) + t_reg`; the paper's tables
//!    show Fmax falling with `n` because the per-stage comparator and
//!    subtractor chains deepen, which the model reproduces.
//!
//! These are *estimates of shape*, not Quartus replays: absolute counts
//! differ from the paper's, growth rates and orderings should not.

use crate::netlist::Netlist;
use std::fmt;

/// Maximum LUT input count for the modeled device (Stratix IV ALUT).
pub const LUT_K: usize = 6;

// The delay model, loosely calibrated to a mid-speed-grade Stratix IV:
// ~0.4 ns through one LUT, ~0.6 ns per LUT-to-LUT routing hop and
// ~0.7 ns of register clock-to-out plus setup put shallow pipelines in
// the several-hundred-MHz range, matching the magnitude of Tables III/IV.
const T_LUT: f64 = 0.4;
const T_ROUTE: f64 = 0.6;
const T_REG: f64 = 0.7;

/// Modeled maximum clock frequency in MHz for a (possibly fractional,
/// carry-aware) LUT depth.
fn fmax_mhz(lut_depth: f64) -> f64 {
    let hops = (lut_depth - 1.0).max(0.0);
    let period = T_REG + T_LUT * lut_depth + T_ROUTE * hops;
    1000.0 / period
}

/// Resource usage summary for one netlist — the row format of the
/// paper's Tables III/IV.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// LUT count by input arity; index `i` holds the number of `i`-input
    /// LUTs (indices 0 and 1 are merged into index 1: buffers/inverters
    /// that survive mapping).
    pub luts_by_inputs: [usize; LUT_K + 1],
    /// Total mapped LUTs.
    pub total_luts: usize,
    /// Estimated packed ALMs (Stratix IV pairing rules).
    pub est_alms: usize,
    /// D flip-flop count.
    pub registers: usize,
    /// Critical path in LUT levels (register/input to register/output).
    pub lut_depth: usize,
    /// Critical path with carry chains at [`CARRY_LEVEL_COST`] per hop.
    pub carry_aware_depth: f64,
    /// Modeled maximum clock frequency (MHz), every hop at full cost.
    pub fmax_mhz: f64,
    /// Modeled Fmax with hardened carry chains — closer to what Quartus
    /// reports for arithmetic-heavy designs like these.
    pub fmax_carry_mhz: f64,
    /// Raw gate count before mapping (structural size).
    pub gate_count: usize,
}

impl ResourceReport {
    /// Analyzes a netlist.
    pub fn of(netlist: &Netlist) -> ResourceReport {
        let live = netlist.live_mask();
        let registers = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(i, g)| matches!(g, crate::Gate::Dff { .. }) && live[*i])
            .count();
        let mapping = map_luts(netlist);
        let mut luts_by_inputs = [0usize; LUT_K + 1];
        for support in mapping.roots.values() {
            let arity = support.len().clamp(1, LUT_K);
            luts_by_inputs[arity] += 1;
        }
        let total_luts = mapping.roots.len();
        let est_alms = pack_alms(&luts_by_inputs);
        let lut_depth = mapping.depth;
        let carry_aware_depth = mapping.carry_aware_depth;
        ResourceReport {
            luts_by_inputs,
            total_luts,
            est_alms,
            registers,
            lut_depth,
            carry_aware_depth,
            fmax_mhz: fmax_mhz(lut_depth.max(1) as f64),
            fmax_carry_mhz: fmax_mhz(carry_aware_depth.max(0.5)),
            gate_count: netlist.len(),
        }
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LUTs: {} (by inputs:", self.total_luts)?;
        for arity in 1..=LUT_K {
            if self.luts_by_inputs[arity] > 0 {
                write!(f, " {}x{}-in", self.luts_by_inputs[arity], arity)?;
            }
        }
        write!(
            f,
            "), ALMs ≈ {}, regs {}, depth {} LUT levels ({:.1} carry-aware), Fmax ≈ {:.0} MHz ({:.0} with carry chains)",
            self.est_alms,
            self.registers,
            self.lut_depth,
            self.carry_aware_depth,
            self.fmax_mhz,
            self.fmax_carry_mhz
        )
    }
}

/// Result of LUT cone packing.
struct LutMapping {
    /// LUT roots: gate index → support (input nets: PIs, constants, DFF
    /// outputs, or other roots).
    roots: std::collections::BTreeMap<usize, Vec<u32>>,
    /// Critical path in LUT levels.
    depth: usize,
    /// Critical path where carry-chain roots cost [`CARRY_LEVEL_COST`]
    /// levels instead of 1 (hardened carry logic).
    carry_aware_depth: f64,
}

/// Fraction of a LUT+routing hop charged to a carry-chain element
/// (Stratix-class dedicated carry: ~70 ps vs ~1 ns for a general hop).
pub const CARRY_LEVEL_COST: f64 = 0.08;

/// Greedy topological cone packing into ≤`LUT_K`-input LUTs. Dead gates
/// (unreachable from any output) are skipped, matching the sweep every
/// synthesis tool performs.
fn map_luts(netlist: &Netlist) -> LutMapping {
    use std::collections::BTreeMap;
    let gates = netlist.gates();
    let fanout = netlist.fanout();
    let live = netlist.live_mask();
    // For each gate: the support of the LUT whose *internal* logic ends at
    // this gate (sorted, deduplicated net indices).
    let mut support: Vec<Vec<u32>> = vec![Vec::new(); gates.len()];
    // Whether the gate was absorbed into a consumer's LUT.
    let mut absorbed = vec![false; gates.len()];

    for (i, g) in gates.iter().enumerate() {
        if !g.is_combinational() || !live[i] {
            continue;
        }
        let fanins: Vec<usize> = g.fanin().map(|f| f.index()).collect();
        let mergeable: Vec<bool> = fanins
            .iter()
            .map(|&fi| gates[fi].is_combinational() && fanout[fi] == 1)
            .collect();
        let mut sup: Vec<u32> = Vec::new();
        // Non-mergeable fanins are direct LUT inputs.
        for (&fi, &m) in fanins.iter().zip(&mergeable) {
            if !m && !sup.contains(&(fi as u32)) {
                sup.push(fi as u32);
            }
        }
        // Mergeable fanins: absorb the cone only if the merged support,
        // plus one reserved slot per mergeable fanin still to come, stays
        // within K (otherwise a later fanin could overflow the LUT).
        let merge_order: Vec<usize> = (0..fanins.len()).filter(|&j| mergeable[j]).collect();
        for (pos, &j) in merge_order.iter().enumerate() {
            let fi = fanins[j];
            let reserve = merge_order.len() - pos - 1;
            let mut merged = sup.clone();
            for &s in &support[fi] {
                if !merged.contains(&s) {
                    merged.push(s);
                }
            }
            if merged.len() + reserve <= LUT_K {
                sup = merged;
                absorbed[fi] = true;
            } else if !sup.contains(&(fi as u32)) {
                sup.push(fi as u32);
            }
        }
        sup.sort_unstable();
        debug_assert!(sup.len() <= LUT_K, "packed LUT exceeds {LUT_K} inputs");
        support[i] = sup;
    }

    // Roots = live combinational gates not absorbed.
    let mut roots: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for (i, g) in gates.iter().enumerate() {
        if g.is_combinational() && live[i] && !absorbed[i] {
            roots.insert(i, support[i].clone());
        }
    }

    // LUT-level depth: level of a root = 1 + max level of its support
    // (support entries are PIs/consts/DFFs at level 0, or earlier roots).
    // The carry-aware variant charges carry-chain roots a fraction of a
    // level, modeling hardened carry logic.
    let mut is_carry = vec![false; gates.len()];
    for c in netlist.carry_nets() {
        is_carry[c.index()] = true;
    }
    let mut level = vec![0usize; gates.len()];
    let mut wlevel = vec![0f64; gates.len()];
    let mut depth = 0;
    let mut carry_aware_depth = 0f64;
    for (&i, sup) in &roots {
        let base = sup.iter().map(|&s| level[s as usize]).max().unwrap_or(0);
        level[i] = 1 + base;
        depth = depth.max(level[i]);
        let wbase = sup.iter().map(|&s| wlevel[s as usize]).fold(0f64, f64::max);
        wlevel[i] = wbase + if is_carry[i] { CARRY_LEVEL_COST } else { 1.0 };
        carry_aware_depth = carry_aware_depth.max(wlevel[i]);
    }
    LutMapping {
        roots,
        depth,
        carry_aware_depth,
    }
}

/// Greedy Stratix-IV-style ALM packing from a LUT-arity histogram:
/// a 6-LUT fills an ALM; a 5-LUT pairs with a ≤3-LUT; ≤4-LUTs pair up.
fn pack_alms(hist: &[usize; LUT_K + 1]) -> usize {
    let mut alms = hist[6];
    let mut fives = hist[5];
    let mut small = hist[1] + hist[2] + hist[3]; // can share with a 5-LUT
    let mut fours = hist[4];
    // Pair each 5-LUT with a small LUT when available.
    let paired = fives.min(small);
    alms += paired;
    fives -= paired;
    small -= paired;
    // Remaining 5-LUTs each take a whole ALM.
    alms += fives;
    // Remaining ≤4-input LUTs pack two per ALM.
    let rest = small + fours;
    alms += rest.div_ceil(2);
    fours = 0;
    let _ = fours;
    alms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;
    use hwperm_bignum::Ubig;

    #[test]
    fn empty_netlist_report() {
        let b = Builder::new();
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.total_luts, 0);
        assert_eq!(r.registers, 0);
        assert_eq!(r.lut_depth, 0);
    }

    #[test]
    fn single_and_gate_is_one_two_input_lut() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let y = b.and(x[0], x[1]);
        b.output_bus("y", &[y]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.total_luts, 1);
        assert_eq!(r.luts_by_inputs[2], 1);
        assert_eq!(r.lut_depth, 1);
    }

    #[test]
    fn chain_of_ands_packs_into_single_lut() {
        // 5 chained 2-input ANDs over 6 inputs: exactly one 6-LUT.
        let mut b = Builder::new();
        let x = b.input_bus("x", 6);
        let mut acc = x[0];
        for &bit in &x[1..] {
            acc = b.and(acc, bit);
        }
        b.output_bus("y", &[acc]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.total_luts, 1, "{r}");
        assert_eq!(r.luts_by_inputs[6], 1);
        assert_eq!(r.lut_depth, 1);
    }

    #[test]
    fn seven_input_chain_needs_two_luts_two_levels() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 7);
        let mut acc = x[0];
        for &bit in &x[1..] {
            acc = b.and(acc, bit);
        }
        b.output_bus("y", &[acc]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.total_luts, 2, "{r}");
        assert_eq!(r.lut_depth, 2);
    }

    #[test]
    fn shared_fanout_is_not_duplicated() {
        // g = a&b feeds two consumers: it must be its own LUT, not be
        // absorbed twice.
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        let g = b.and(x[0], x[1]);
        let y1 = b.or(g, x[2]);
        let y2 = b.xor(g, x[2]);
        b.output_bus("y1", &[y1]);
        b.output_bus("y2", &[y2]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.total_luts, 3, "{r}");
    }

    #[test]
    fn registers_break_combinational_cones() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        let q = b.dff(g, false);
        let h = b.or(q, x[0]);
        b.output_bus("y", &[h]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.registers, 1);
        assert_eq!(r.total_luts, 2);
        assert_eq!(r.lut_depth, 1, "each side of the register is depth 1");
    }

    #[test]
    fn fmax_decreases_with_depth() {
        assert!(fmax_mhz(1.0) > fmax_mhz(3.0));
        assert!(fmax_mhz(3.0) > fmax_mhz(10.0));
        // Single-level logic lands in the plausible FPGA range.
        let f1 = fmax_mhz(1.0);
        assert!((300.0..1000.0).contains(&f1), "{f1}");
    }

    #[test]
    fn alm_packing_rules() {
        // 2 six-LUTs = 2 ALMs.
        assert_eq!(pack_alms(&[0, 0, 0, 0, 0, 0, 2]), 2);
        // A 5-LUT + a 3-LUT share one ALM.
        assert_eq!(pack_alms(&[0, 0, 0, 1, 0, 1, 0]), 1);
        // Two 4-LUTs share one ALM; three need two.
        assert_eq!(pack_alms(&[0, 0, 0, 0, 2, 0, 0]), 1);
        assert_eq!(pack_alms(&[0, 0, 0, 0, 3, 0, 0]), 2);
        // A lone 5-LUT still takes an ALM.
        assert_eq!(pack_alms(&[0, 0, 0, 0, 0, 1, 0]), 1);
    }

    #[test]
    fn carry_chains_flatten_adder_depth() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 32);
        let y = b.input_bus("y", 32);
        let (s, _) = b.add(&x, &y);
        b.output_bus("s", &s);
        let r = ResourceReport::of(&b.finish());
        // Plain depth walks the whole 32-bit ripple; carry-aware depth
        // collapses it to ~1 LUT + 32 cheap carry hops.
        assert!(r.lut_depth >= 30, "{r}");
        assert!(r.carry_aware_depth < 8.0, "{r}");
        assert!(r.fmax_carry_mhz > 2.0 * r.fmax_mhz, "{r}");
    }

    #[test]
    fn comparator_chain_is_carry_marked() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 24);
        let c = b.ge_const(&x, &Ubig::from(0xABCDEFu64));
        b.output_bus("c", &[c]);
        let nl = b.finish();
        assert!(!nl.carry_nets().is_empty());
        let r = ResourceReport::of(&nl);
        assert!(r.carry_aware_depth < r.lut_depth as f64, "{r}");
    }

    #[test]
    fn non_arithmetic_logic_has_equal_depths() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let mut acc = x[0];
        for &bit in &x[1..] {
            acc = b.xor(acc, bit);
        }
        b.output_bus("y", &[acc]);
        let r = ResourceReport::of(&b.finish());
        assert_eq!(r.carry_aware_depth, r.lut_depth as f64);
    }

    #[test]
    fn adder_resources_scale_linearly() {
        let luts_for = |w: usize| {
            let mut b = Builder::new();
            let x = b.input_bus("x", w);
            let y = b.input_bus("y", w);
            let (s, _) = b.add(&x, &y);
            b.output_bus("s", &s);
            ResourceReport::of(&b.finish()).total_luts
        };
        let l8 = luts_for(8);
        let l16 = luts_for(16);
        let l32 = luts_for(32);
        assert!(l16 > l8 && l32 > l16);
        // Ripple adders are O(w): doubling width should roughly double LUTs.
        let ratio = l32 as f64 / l16 as f64;
        assert!((1.5..=2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn comparator_counts_grow_with_constant_width() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 16);
        let c = b.ge_const(&x, &Ubig::from(12345u64));
        b.output_bus("c", &[c]);
        let r = ResourceReport::of(&b.finish());
        assert!(r.total_luts >= 2, "{r}");
        assert!(r.total_luts <= 16, "chain should pack well: {r}");
    }

    #[test]
    fn report_display_is_informative() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, _) = b.add(&x, &y);
        let reg = b.register_bus(&s, false);
        b.output_bus("s", &reg);
        let text = ResourceReport::of(&b.finish()).to_string();
        assert!(text.contains("LUTs"));
        assert!(text.contains("regs 4"));
        assert!(text.contains("MHz"));
    }
}
