#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Formal verification of generated netlists.
//!
//! Simulation-based testing samples the input space; this crate proves
//! properties over *all* inputs by compiling a combinational netlist
//! into ROBDDs (one per output bit) and exploiting canonicity: two
//! functions are equivalent iff their BDD node handles coincide.
//!
//! Used by the test suite to *prove* that the generated Fig. 1
//! converter equals software unranking for every index (not just the
//! sampled ones), with out-of-range indices treated as don't-cares.
//!
//! The symbolic layer is complemented by a *simulation* layer:
//! exhaustive sweeps through the word-level `BatchSim`, one word of
//! indices per netlist walk — 64 lanes at `u64`, 256/512 at the wide
//! words — used where a concrete first-mismatch witness (or a
//! BDD-independent cross-check) is wanted. The sweeps
//! ([`exhaustive_check_parallel_wide`], its steady-state core
//! [`exhaustive_check_parallel_with`], and
//! [`find_one_hot_violation_parallel`]) shard the index space into
//! contiguous per-worker blocks over one shared compiled tape, with the
//! same deterministic lowest-index witness as the scalar reference
//! [`exhaustive_check_scalar`] at every lane width and worker count;
//! `workers = 1` runs on the calling thread alone.
//!
//! ```
//! use hwperm_logic::Builder;
//! use hwperm_verify::CompiledNetlist;
//!
//! // Prove x + y == y + x for all 8-bit x, y, structurally different
//! // netlists notwithstanding.
//! let build = |swap: bool| {
//!     let mut b = Builder::new();
//!     let x = b.input_bus("x", 8);
//!     let y = b.input_bus("y", 8);
//!     let s = if swap { b.add_expand(&y, &x) } else { b.add_expand(&x, &y) };
//!     b.output_bus("s", &s);
//!     b.finish()
//! };
//! let a = CompiledNetlist::compile(&build(false)).unwrap();
//! let c = CompiledNetlist::compile(&build(true)).unwrap();
//! assert!(a.equivalent(&c).unwrap());
//! ```

//!
//! A third layer turns the sweeps inward: [`stuck_at_campaign_wide`]
//! runs the single-stuck-at fault universe of a netlist through
//! word-level fault overlays (`hwperm-faults`), classifying every fault
//! as detected, silent, or masked against the golden table — the
//! measurement side of the robustness story whose runtime side is
//! `hwperm_core`'s guarded streams.
//!
//! Performance of these paths is tracked by the repository benchmark
//! (`benchmark/README.md`): the n = 9 sweep as `verify_ms`, the n = 8
//! campaign as `campaign_ms`, and the n = 7 table proof as `prove_ms`.

mod campaign;
mod exhaustive;
mod miter;
mod onehot;
mod oracle;
mod parallel;

pub use campaign::{
    golden_output_words, single_stuck_at_universe, stuck_at_campaign_scalar,
    stuck_at_campaign_wide, CampaignReport, FaultOutcome, FaultVerdict,
};
pub use exhaustive::{exhaustive_check_scalar, ExhaustiveMismatch, WideExpectation};
pub use miter::{
    prove_against_table, prove_against_table_budgeted, prove_equivalent, prove_equivalent_budgeted,
    prove_inverse_identity, prove_pipelined_equivalent, ProofStats, ProveOutcome,
};
pub use onehot::{
    check_one_hot_bank, check_one_hot_bank_escalated, check_one_hot_bank_sat, OneHotReport,
    OneHotStatus, DEFAULT_NODE_BUDGET, DEFAULT_SAT_CONFLICT_BUDGET,
};
pub use oracle::{
    expected_combination_words, expected_permutation_words, expected_permutation_words_parallel,
    expected_variation_words,
};
pub use parallel::{
    exhaustive_check_parallel_wide, exhaustive_check_parallel_with,
    find_one_hot_violation_parallel, shard_ranges,
};

use hwperm_bdd::{Manager, NodeId};
use hwperm_bignum::Ubig;
use hwperm_logic::{Gate, Netlist};
use std::collections::BTreeMap;
use std::fmt;

/// Why a netlist could not be compiled or compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The netlist contains registers; only combinational logic can be
    /// compiled to BDDs directly.
    Sequential,
    /// The two netlists' port shapes differ.
    PortMismatch(String),
    /// The netlist has more input bits than the configured variable cap
    /// (BDD blow-up guard).
    TooManyInputs {
        /// Input bits found.
        bits: usize,
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sequential => write!(f, "netlist contains registers"),
            VerifyError::PortMismatch(what) => write!(f, "port mismatch: {what}"),
            VerifyError::TooManyInputs { bits, cap } => {
                write!(f, "{bits} input bits exceed the {cap}-variable cap")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Default cap on BDD variables (input bits).
pub const DEFAULT_VAR_CAP: usize = 24;

/// A combinational netlist compiled to one ROBDD per output bit.
#[derive(Debug)]
pub struct CompiledNetlist {
    manager: Manager,
    /// Port name → BDDs for its bits (LSB first).
    outputs: BTreeMap<String, Vec<NodeId>>,
    /// Port name → width, in declaration order, for shape comparison.
    input_shape: Vec<(String, usize)>,
}

impl CompiledNetlist {
    /// Compiles with the default variable cap.
    pub fn compile(netlist: &Netlist) -> Result<Self, VerifyError> {
        Self::compile_capped(netlist, DEFAULT_VAR_CAP)
    }

    /// Compiles a combinational netlist, assigning BDD variables to
    /// input port bits in declaration order (LSB of the first port is
    /// variable 0).
    pub fn compile_capped(netlist: &Netlist, cap: usize) -> Result<Self, VerifyError> {
        if netlist.register_count() > 0 {
            return Err(VerifyError::Sequential);
        }
        let total_bits: usize = netlist.input_ports().iter().map(|p| p.nets.len()).sum();
        if total_bits > cap {
            return Err(VerifyError::TooManyInputs {
                bits: total_bits,
                cap,
            });
        }
        let mut manager = Manager::new(total_bits);
        // Variable for each input net.
        let mut node_of: Vec<NodeId> = vec![NodeId::FALSE; netlist.len()];
        let mut var = 0usize;
        for port in netlist.input_ports() {
            for net in &port.nets {
                node_of[net.index()] = manager.var(var);
                var += 1;
            }
        }
        // Topological sweep.
        for (i, gate) in netlist.gates().iter().enumerate() {
            node_of[i] = match *gate {
                Gate::Input => node_of[i],
                Gate::Const(v) => {
                    if v {
                        NodeId::TRUE
                    } else {
                        NodeId::FALSE
                    }
                }
                Gate::Not(a) => manager.not(node_of[a.index()]),
                Gate::And(a, b) => manager.and(node_of[a.index()], node_of[b.index()]),
                Gate::Or(a, b) => manager.or(node_of[a.index()], node_of[b.index()]),
                Gate::Xor(a, b) => manager.xor(node_of[a.index()], node_of[b.index()]),
                Gate::Mux { sel, a, b } => {
                    manager.ite(node_of[sel.index()], node_of[b.index()], node_of[a.index()])
                }
                Gate::Dff { .. } => unreachable!("checked above"),
            };
        }
        let outputs = netlist
            .output_ports()
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.nets.iter().map(|n| node_of[n.index()]).collect(),
                )
            })
            .collect();
        let input_shape = netlist
            .input_ports()
            .iter()
            .map(|p| (p.name.clone(), p.nets.len()))
            .collect();
        Ok(CompiledNetlist {
            manager,
            outputs,
            input_shape,
        })
    }

    /// Number of BDD variables (input bits).
    pub fn num_vars(&self) -> usize {
        self.manager.num_vars()
    }

    /// Evaluates an output port under a concrete input assignment (bit
    /// `i` of the flattened input vector = variable `i`). Mostly for
    /// sanity cross-checks against the gate-level simulator.
    pub fn eval_output(&self, port: &str, inputs: &Ubig) -> Ubig {
        let assignment: Vec<bool> = (0..self.num_vars()).map(|i| inputs.bit(i)).collect();
        let mut out = Ubig::zero();
        for (bit, &node) in self.outputs[port].iter().enumerate() {
            if self.manager.eval(node, &assignment) {
                out.set_bit(bit, true);
            }
        }
        out
    }

    /// Proves (or refutes) unconditional equivalence with another
    /// compiled netlist: same port shapes, and every output bit's BDD
    /// identical. Complete over all `2^vars` inputs.
    ///
    /// Both netlists must have been compiled by this crate so variable
    /// numbering agrees; callers are responsible for matching input port
    /// order.
    pub fn equivalent(&self, other: &CompiledNetlist) -> Result<bool, VerifyError> {
        if self.input_shape != other.input_shape {
            return Err(VerifyError::PortMismatch(format!(
                "inputs {:?} vs {:?}",
                self.input_shape, other.input_shape
            )));
        }
        if self.outputs.len() != other.outputs.len() {
            return Err(VerifyError::PortMismatch("output port count".into()));
        }
        for (name, bdds) in &self.outputs {
            let Some(theirs) = other.outputs.get(name) else {
                return Err(VerifyError::PortMismatch(format!("missing port {name}")));
            };
            if bdds.len() != theirs.len() {
                return Err(VerifyError::PortMismatch(format!("width of {name}")));
            }
        }
        // Both compilations number variables identically (input port
        // declaration order), so per-bit functions can be compared by
        // synchronized descent over the two reduced DAGs — canonicity
        // makes that sound and linear in the smaller BDD.
        for (name, bdds) in &self.outputs {
            let theirs = &other.outputs[name];
            for (&a, &b) in bdds.iter().zip(theirs) {
                if !equal_functions(&self.manager, a, &other.manager, b) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Proves conditional equivalence against a specification closure:
    /// for every input `x` with `precondition(x)` true, each output port
    /// must equal `spec(x)` for that port. Complete (exhaustive over the
    /// BDD domain, which the cap keeps tractable).
    ///
    /// Returns the first counterexample input found, if any.
    pub fn verify_against_spec(
        &self,
        precondition: impl Fn(&Ubig) -> bool,
        spec: impl Fn(&Ubig) -> BTreeMap<String, Ubig>,
    ) -> Option<Ubig> {
        // The BDDs make per-input evaluation cheap and exact; sweeping
        // the domain is complete because the variable cap bounds it.
        let vars = self.num_vars();
        for x in 0u64..(1u64 << vars) {
            let input = Ubig::from(x);
            if !precondition(&input) {
                continue;
            }
            let expected = spec(&input);
            for (port, want) in &expected {
                if &self.eval_output(port, &input) != want {
                    return Some(input);
                }
            }
        }
        None
    }
}

/// Semantic equality of two BDDs living in different managers with the
/// same variable numbering, by synchronized structural descent with
/// memoization.
fn equal_functions(ma: &Manager, a: NodeId, mb: &Manager, b: NodeId) -> bool {
    fn rec(
        ma: &Manager,
        a: NodeId,
        mb: &Manager,
        b: NodeId,
        seen: &mut std::collections::HashSet<(NodeId, NodeId)>,
    ) -> bool {
        if a == NodeId::FALSE || a == NodeId::TRUE || b == NodeId::FALSE || b == NodeId::TRUE {
            // Terminals share ids across managers; a terminal can never
            // equal an internal node (reduced BDDs have no redundant
            // tests).
            return a == b;
        }
        if !seen.insert((a, b)) {
            // BDDs are DAGs: a revisited pair was already proven equal
            // (any mismatch returns false immediately).
            return true;
        }
        let (la, a0, a1) = ma.node_triple(a);
        let (lb, b0, b1) = mb.node_triple(b);
        la == lb && rec(ma, a0, mb, b0, seen) && rec(ma, a1, mb, b1, seen)
    }
    let mut seen = std::collections::HashSet::new();
    rec(ma, a, mb, b, &mut seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    #[test]
    fn compile_rejects_sequential() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q = b.dff(x[0], false);
        b.output_bus("y", &[q]);
        assert_eq!(
            CompiledNetlist::compile(&b.finish()).unwrap_err(),
            VerifyError::Sequential
        );
    }

    #[test]
    fn compile_rejects_oversized() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 30);
        b.output_bus("y", &x);
        assert!(matches!(
            CompiledNetlist::compile(&b.finish()),
            Err(VerifyError::TooManyInputs { bits: 30, .. })
        ));
    }

    #[test]
    fn bdd_eval_matches_simulator() {
        use hwperm_logic::BatchSim;
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let nl = b.finish();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let mut sim = BatchSim::<bool>::new(nl);
        for xv in 0..16u64 {
            for yv in 0..16u64 {
                sim.set_input_u64("x", xv);
                sim.set_input_u64("y", yv);
                sim.eval();
                let flat = Ubig::from(xv | (yv << 4));
                assert_eq!(compiled.eval_output("s", &flat), sim.read_output("s"));
                assert_eq!(compiled.eval_output("c", &flat), sim.read_output("c"));
            }
        }
    }

    #[test]
    fn structurally_different_equal_adders_proven_equivalent() {
        let build = |reverse: bool| {
            let mut b = Builder::new();
            let x = b.input_bus("x", 6);
            let y = b.input_bus("y", 6);
            let s = if reverse {
                b.add_expand(&y, &x)
            } else {
                b.add_expand(&x, &y)
            };
            b.output_bus("s", &s);
            b.finish()
        };
        let a = CompiledNetlist::compile(&build(false)).unwrap();
        let c = CompiledNetlist::compile(&build(true)).unwrap();
        assert_eq!(a.equivalent(&c), Ok(true));
    }

    #[test]
    fn inequivalence_detected() {
        let build = |sub: bool| {
            let mut b = Builder::new();
            let x = b.input_bus("x", 4);
            let y = b.input_bus("y", 4);
            let out = if sub {
                b.sub(&x, &y).0
            } else {
                b.add(&x, &y).0
            };
            b.output_bus("o", &out);
            b.finish()
        };
        let a = CompiledNetlist::compile(&build(false)).unwrap();
        let s = CompiledNetlist::compile(&build(true)).unwrap();
        assert_eq!(a.equivalent(&s), Ok(false));
    }

    #[test]
    fn port_mismatch_reported() {
        let mk = |w: usize| {
            let mut b = Builder::new();
            let x = b.input_bus("x", w);
            b.output_bus("y", &x);
            CompiledNetlist::compile(&b.finish()).unwrap()
        };
        assert!(matches!(
            mk(3).equivalent(&mk(4)),
            Err(VerifyError::PortMismatch(_))
        ));
    }
}
