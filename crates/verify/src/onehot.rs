//! Bounded one-hot proofs over combinational cones.
//!
//! The converter's correctness hinges on every MUX select bank being
//! exactly one-hot (Fig. 1 of the paper: each selection stage routes
//! one remaining element through a one-hot MUX). This module proves
//! that property for a recorded bank without encoding the whole
//! netlist: only the *cone* feeding the bank is Tseitin-encoded
//! ([`hwperm_sat::Cnf`]), cut at register boundaries (DFF outputs
//! become free variables — sound for proofs, since holding over all
//! register states implies holding over the reachable ones). A CDCL
//! search then looks for an assignment that drives zero or at least
//! two bank lines: UNSAT is a proof ([`OneHotStatus::ProvedSat`]), a
//! model is a refuting witness ([`OneHotStatus::Refuted`]).
//!
//! The search respects a conflict budget; exhausting it yields an
//! explicit [`OneHotStatus::Skipped`] rather than an unbounded search —
//! callers can always distinguish *proved* from *gave up*.
//!
//! [`check_one_hot_bank`] additionally accepts an input-range
//! constraint (`port < bound`), which proves *range don't-care safety*:
//! a bank refutable only by out-of-range inputs (e.g. converter indices
//! `≥ n!`) is safe in any system that respects the range contract.

use hwperm_logic::{Gate, NetId, Netlist};
use hwperm_sat::{lit_value, Cnf, Lit, SatResult};

/// Default cap on CDCL conflicts for one one-hot query. The real
/// generator banks close in well under a thousand conflicts; a million
/// bounds adversarial cones to fractions of a second while leaving
/// three orders of magnitude of headroom.
pub const DEFAULT_SAT_CONFLICT_BUDGET: u64 = 1 << 20;

/// Outcome of [`check_one_hot_bank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OneHotStatus {
    /// Proven one-hot by an UNSAT result over the Tseitin-encoded cone.
    ProvedSat,
    /// Not one-hot: some assignment of the cone's free nets drives a
    /// number of bank lines different from one.
    Refuted {
        /// `(net index, value)` pairs of one refuting assignment over
        /// the cone's free nets (unlisted nets may take any value).
        assignment: Vec<(usize, bool)>,
    },
    /// The SAT search exhausted its conflict budget: the property is
    /// unknown and the check was explicitly skipped.
    Skipped {
        /// The conflict budget the SAT search exhausted.
        sat_conflicts: u64,
    },
    /// The cone is not a well-formed combinational region (dangling or
    /// forward references), so no query was attempted.
    ConeInvalid(String),
}

/// Result of a bounded one-hot proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotReport {
    /// The verdict.
    pub status: OneHotStatus,
    /// Free variables (Input and DFF nets) feeding the bank.
    pub cone_inputs: usize,
    /// Combinational gates in the bank's cone.
    pub cone_gates: usize,
}

impl OneHotReport {
    /// `true` iff the bank was proven one-hot.
    pub fn proved(&self) -> bool {
        self.status == OneHotStatus::ProvedSat
    }
}

/// The combinational cone feeding a set of root nets, cut at `Input`,
/// `Const` and `Dff` gates.
struct Cone {
    /// All cone nets, ascending (a valid topological order).
    nets: Vec<usize>,
    /// The cut: `Input`/`Dff` nets, ascending. Each becomes one free
    /// SAT variable, in this order.
    free: Vec<usize>,
}

fn collect_cone(netlist: &Netlist, roots: &[NetId]) -> Result<Cone, String> {
    let gates = netlist.gates();
    let mut in_cone = vec![false; gates.len()];
    let mut stack: Vec<usize> = Vec::new();
    for net in roots {
        if net.index() >= gates.len() {
            return Err(format!("bank references out-of-range net {}", net.index()));
        }
        stack.push(net.index());
    }
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut in_cone[i], true) {
            continue;
        }
        match gates[i] {
            Gate::Input | Gate::Const(_) | Gate::Dff { .. } => {}
            ref g => {
                for f in g.fanin() {
                    if f.index() >= gates.len() {
                        return Err(format!(
                            "gate {i} references out-of-range net {}",
                            f.index()
                        ));
                    }
                    if f.index() >= i {
                        return Err(format!(
                            "combinational gate {i} references non-earlier net {} (cycle)",
                            f.index()
                        ));
                    }
                    stack.push(f.index());
                }
            }
        }
    }
    let nets: Vec<usize> = (0..gates.len()).filter(|&i| in_cone[i]).collect();
    let free: Vec<usize> = nets
        .iter()
        .copied()
        .filter(|&i| matches!(gates[i], Gate::Input | Gate::Dff { .. }))
        .collect();
    Ok(Cone { nets, free })
}

/// Tseitin-encodes the cone into `cnf`, returning a literal per net
/// (free nets become fresh variables, constants fold into the pinned
/// constant, `Not` is a free polarity flip).
fn encode_cone_cnf(netlist: &Netlist, cone: &Cone, cnf: &mut Cnf) -> Vec<Lit> {
    let gates = netlist.gates();
    let mut lit_of: Vec<Lit> = vec![Lit::positive(0); gates.len()];
    for &i in &cone.free {
        lit_of[i] = cnf.new_var();
    }
    for &i in &cone.nets {
        lit_of[i] = match gates[i] {
            Gate::Input | Gate::Dff { .. } => lit_of[i],
            Gate::Const(v) => cnf.constant(v),
            Gate::Not(a) => !lit_of[a.index()],
            Gate::And(a, b) => cnf.and(lit_of[a.index()], lit_of[b.index()]),
            Gate::Or(a, b) => cnf.or(lit_of[a.index()], lit_of[b.index()]),
            Gate::Xor(a, b) => cnf.xor(lit_of[a.index()], lit_of[b.index()]),
            Gate::Mux { sel, a, b } => {
                cnf.mux(lit_of[sel.index()], lit_of[a.index()], lit_of[b.index()])
            }
        };
    }
    lit_of
}

/// A literal true iff `lines` is *not* exactly one-hot: either no line
/// is hot, or some pair is simultaneously hot. Pairwise encoding —
/// select banks are at most `n ≤ 9` lines wide, and the structural
/// hash dedups repeated pair terms.
fn exactly_one_violation(cnf: &mut Cnf, lines: &[Lit]) -> Lit {
    let negated: Vec<Lit> = lines.iter().map(|&l| !l).collect();
    let none_hot = cnf.and_many(&negated);
    let mut pairs = Vec::new();
    for i in 0..lines.len() {
        for j in i + 1..lines.len() {
            pairs.push(cnf.and(lines[i], lines[j]));
        }
    }
    let two_hot = cnf.or_many(&pairs);
    cnf.or(none_hot, two_hot)
}

/// Decides whether `bank` is exactly one-hot for every assignment of
/// its cone's free nets (primary inputs and register outputs) by SAT
/// search over the Tseitin-encoded cone, spending at most
/// `max_conflicts` CDCL conflicts (`None` = unbounded).
///
/// `range` optionally constrains the query to in-range inputs: given
/// `(port_nets, bound)`, only assignments where the little-endian word
/// over `port_nets` is strictly below `bound` are considered. A
/// refutation then carries an in-range witness; a proof means any
/// violation requires an out-of-range input — the *range don't-care
/// safety* property (converter index ports only carry values below
/// `n!` by contract, so violations confined to `≥ n!` are unreachable).
/// Port bits outside the bank's cone are treated as free variables,
/// which is exact for `Input`-gate port bits (the only well-formed
/// kind).
///
/// Verdicts: [`OneHotStatus::ProvedSat`], [`OneHotStatus::Refuted`]
/// (witness over the cone's free nets plus any off-cone range bits), or
/// [`OneHotStatus::Skipped`] when the conflict budget runs out.
pub fn check_one_hot_bank(
    netlist: &Netlist,
    bank: &[NetId],
    range: Option<(&[NetId], u64)>,
    max_conflicts: Option<u64>,
) -> OneHotReport {
    let cone = match collect_cone(netlist, bank) {
        Ok(c) => c,
        Err(e) => {
            return OneHotReport {
                status: OneHotStatus::ConeInvalid(e),
                cone_inputs: 0,
                cone_gates: 0,
            }
        }
    };
    let cone_inputs = cone.free.len();
    let cone_gates = cone
        .nets
        .iter()
        .filter(|&&i| netlist.gates()[i].is_combinational())
        .count();
    let report = |status| OneHotReport {
        status,
        cone_inputs,
        cone_gates,
    };

    let mut cnf = Cnf::new();
    let lit_of = encode_cone_cnf(netlist, &cone, &mut cnf);
    // The witness maps net indices to model literals: every cone free
    // net, plus fresh variables for range-port bits the cone ignores.
    let mut witness: Vec<(usize, Lit)> = cone.free.iter().map(|&i| (i, lit_of[i])).collect();
    if let Some((port_nets, bound)) = range {
        let mut bits = Vec::with_capacity(port_nets.len());
        for net in port_nets {
            let i = net.index();
            if i >= netlist.gates().len() {
                return report(OneHotStatus::ConeInvalid(format!(
                    "range port references out-of-range net {i}"
                )));
            }
            let lit = if cone.nets.binary_search(&i).is_ok() {
                lit_of[i]
            } else {
                let fresh = cnf.new_var();
                witness.push((i, fresh));
                fresh
            };
            bits.push(lit);
        }
        let in_range = cnf.less_than_const(&bits, bound);
        cnf.assert_lit(in_range);
    }
    let bank_lits: Vec<Lit> = bank.iter().map(|n| lit_of[n.index()]).collect();
    let violation = exactly_one_violation(&mut cnf, &bank_lits);
    cnf.assert_lit(violation);

    match cnf.solve_budgeted(max_conflicts) {
        (SatResult::Unsat, _) => report(OneHotStatus::ProvedSat),
        (SatResult::Sat(model), _) => {
            let assignment = witness
                .into_iter()
                .map(|(net, lit)| (net, lit_value(&model, lit)))
                .collect();
            report(OneHotStatus::Refuted { assignment })
        }
        (SatResult::Unknown, _) => report(OneHotStatus::Skipped {
            sat_conflicts: max_conflicts.unwrap_or(u64::MAX),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    fn report(netlist: &Netlist, bank: &[NetId]) -> OneHotReport {
        check_one_hot_bank(netlist, bank, None, Some(DEFAULT_SAT_CONFLICT_BUDGET))
    }

    #[test]
    fn decoder_bank_proved() {
        // eq_const lines over a 2-bit select: always exactly one-hot.
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 2);
        let lines = b.decoder(&sel, 4);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        // `finish()` compacts net ids; re-fetch the bank from the port.
        let lines = nl.output_port("hot").unwrap().nets.clone();
        let r = report(&nl, &lines);
        assert!(r.proved(), "{:?}", r.status);
        assert_eq!(r.cone_inputs, 2);
    }

    #[test]
    fn truncated_decoder_refuted() {
        // Only 3 of 4 lines: sel == 3 drives zero of them.
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 2);
        let lines = b.decoder(&sel, 3);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        let lines = nl.output_port("hot").unwrap().nets.clone();
        match report(&nl, &lines).status {
            OneHotStatus::Refuted { assignment } => {
                // The witness must set both select bits high.
                assert!(assignment.iter().all(|&(_, v)| v));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn thermometer_bank_proved() {
        // ge_const thermometer over a 4-bit index, decoded as the
        // converter builds its select banks: monotone, so one-hot.
        let mut b = Builder::new();
        let index = b.input_bus("index", 4);
        let thermo: Vec<_> = (1..4u64)
            .map(|i| b.ge_const(&index, &hwperm_bignum::Ubig::from(4 * i)))
            .collect();
        let mut bank = vec![b.not(thermo[0])];
        for d in 1..3 {
            let inv = b.not(thermo[d]);
            bank.push(b.and(thermo[d - 1], inv));
        }
        bank.push(thermo[2]);
        b.output_bus("hot", &bank);
        let nl = b.finish();
        let bank = nl.output_port("hot").unwrap().nets.clone();
        assert_eq!(report(&nl, &bank).status, OneHotStatus::ProvedSat);
    }

    #[test]
    fn two_hot_bank_refuted() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let inv = b.not(x[0]);
        // [x, x, !x]: two lines hot when x = 1.
        let bank = vec![x[0], x[0], inv];
        b.output_bus("hot", &bank);
        let nl = b.finish();
        let bank = nl.output_port("hot").unwrap().nets.clone();
        assert!(matches!(
            report(&nl, &bank).status,
            OneHotStatus::Refuted { .. }
        ));
    }

    #[test]
    fn register_cut_makes_sequential_banks_checkable() {
        // A decoder fed by registered state: the DFF outputs become free
        // variables, so the proof covers every register state.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let q = b.register_bus(&x, false);
        let lines = b.decoder(&q, 4);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        let lines = nl.output_port("hot").unwrap().nets.clone();
        let r = report(&nl, &lines);
        assert!(r.proved(), "{:?}", r.status);
        assert_eq!(r.cone_inputs, 2); // the two DFFs, not the inputs
    }

    /// An 8-line decoder fed through an adder: always one-hot, over a
    /// cone that needs a real search rather than unit propagation.
    fn adder_decoder() -> (Netlist, Vec<NetId>) {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, _) = b.add(&x, &y);
        let lines = b.decoder(&s[..3], 8);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        let lines = nl.output_port("hot").unwrap().nets.clone();
        (nl, lines)
    }

    #[test]
    fn adder_decoder_bank_proved() {
        let (nl, lines) = adder_decoder();
        let r = report(&nl, &lines);
        assert_eq!(r.status, OneHotStatus::ProvedSat);
        assert!(r.proved());
        // The low three sum bits see x[0..3] and y[0..3].
        assert_eq!(r.cone_inputs, 6);
    }

    #[test]
    fn broken_adder_decoder_bank_refuted() {
        // Drop the last decoder line: sum ≡ 7 (mod 8) hits zero lines.
        let (nl, lines) = adder_decoder();
        let r = report(&nl, &lines[..7]);
        assert!(
            matches!(r.status, OneHotStatus::Refuted { .. }),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn exhausted_conflict_budget_is_explicitly_skipped() {
        let (nl, lines) = adder_decoder();
        let r = check_one_hot_bank(&nl, &lines, None, Some(0));
        assert_eq!(r.status, OneHotStatus::Skipped { sat_conflicts: 0 });
        assert!(!r.proved());
    }

    #[test]
    fn range_constraint_proves_dont_care_safety() {
        // 3 of 4 decoder lines: only sel == 3 violates, so the bank is
        // safe under the range contract sel < 3 and unsafe under
        // sel < 4.
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 2);
        let lines = b.decoder(&sel, 3);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        let lines = nl.output_port("hot").unwrap().nets.clone();
        let port = nl.input_port("sel").unwrap().nets.clone();
        let safe = check_one_hot_bank(&nl, &lines, Some((&port, 3)), None);
        assert_eq!(safe.status, OneHotStatus::ProvedSat);
        let wide = check_one_hot_bank(&nl, &lines, Some((&port, 4)), None);
        match wide.status {
            OneHotStatus::Refuted { assignment } => {
                // The only in-range witness is sel == 3.
                for net in &port {
                    assert_eq!(
                        assignment.iter().find(|&&(n, _)| n == net.index()),
                        Some(&(net.index(), true))
                    );
                }
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn range_port_bits_outside_the_cone_still_constrain() {
        // Bank [s0, s0, ¬s0] violates exactly-one iff s0 = 1 (two
        // hot); its cone never sees s1, but the range constraint
        // sel < 2 must still pin s1 = 0 in the witness.
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 2);
        let inv = b.not(sel[0]);
        let bank = vec![sel[0], sel[0], inv];
        b.output_bus("hot", &bank);
        let nl = b.finish();
        let bank = nl.output_port("hot").unwrap().nets.clone();
        let port = nl.input_port("sel").unwrap().nets.clone();
        let r = check_one_hot_bank(&nl, &bank, Some((&port, 2)), None);
        match r.status {
            OneHotStatus::Refuted { assignment } => {
                let value_of = |net: NetId| {
                    assignment
                        .iter()
                        .find(|&&(n, _)| n == net.index())
                        .map(|&(_, v)| v)
                };
                assert_eq!(value_of(port[0]), Some(true));
                assert_eq!(value_of(port[1]), Some(false));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
        // sel < 1 forces s0 = 0, which excludes the only violation:
        // range don't-care safety through an off-cone port bit.
        let r = check_one_hot_bank(&nl, &bank, Some((&port, 1)), None);
        assert_eq!(r.status, OneHotStatus::ProvedSat);
    }

    #[test]
    fn invalid_cone_reported() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        b.output_bus("y", &[g]);
        let nl = b.finish();
        // Corrupt the And into a self-reference.
        let broken = nl.with_gate_replaced(g.index(), Gate::And(g, g));
        assert!(matches!(
            report(&broken, &[g]).status,
            OneHotStatus::ConeInvalid(_)
        ));
    }
}
