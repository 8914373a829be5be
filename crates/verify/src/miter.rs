//! SAT-backed proof obligations: miter equivalence, table conformance,
//! inverse-composition identities, and bounded model checking of the
//! pipelined families.
//!
//! This is the third proof engine in the crate, complementing the BDD
//! layer (canonicity-based, capped at [`crate::DEFAULT_VAR_CAP`] input
//! bits) and the exhaustive simulation sweeps (concrete, linear in the
//! input space). The SAT route encodes the compiled simulation tape to
//! CNF through `hwperm-sat` and asks for a *refutation witness*; UNSAT
//! is the proof. Its cost tracks circuit structure rather than raw
//! input-space size, which is what lets the converter be verified at
//! n = 8–9 where the sweeps' oracle tables and the BDD sweep loop
//! become the bottleneck.
//!
//! Every refutation is decoded back through the tape: the witness
//! index is replayed on a `BatchSim<bool>` over the encoded program
//! (settled, and for sequential checks clocked) and reported as the
//! same [`ExhaustiveMismatch`] the exhaustive sweeps emit, so a SAT
//! counterexample and a sweep counterexample for the same fault read
//! identically.

use crate::exhaustive::ExhaustiveMismatch;
use crate::VerifyError;
use hwperm_logic::{BatchSim, Netlist, SimProgram};
use hwperm_sat::{
    encode_combinational, encode_combinational_with, encode_unrolled, read_word, Cnf, FrameLits,
    Lit, SatResult, SolverStats,
};
use std::sync::Arc;

/// Size and search statistics of one SAT proof obligation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// CNF variables in the encoded obligation.
    pub vars: usize,
    /// CNF clauses in the encoded obligation.
    pub clauses: usize,
    /// Conflicts the solver went through.
    pub conflicts: u64,
    /// Decisions the solver took.
    pub decisions: u64,
    /// Literals the solver propagated.
    pub propagations: u64,
}

impl ProofStats {
    fn new(cnf: &Cnf, stats: SolverStats) -> ProofStats {
        ProofStats {
            vars: cnf.num_vars(),
            clauses: cnf.num_clauses(),
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
        }
    }
}

/// Verdict of a SAT proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveOutcome {
    /// The property holds for every input in scope (UNSAT miter).
    Proved(ProofStats),
    /// A concrete counterexample, decoded through the tape into the
    /// exhaustive sweeps' first-mismatch format.
    Refuted(ExhaustiveMismatch, ProofStats),
    /// The conflict budget ran out before a verdict.
    Unknown(ProofStats),
}

impl ProveOutcome {
    /// `true` iff the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProveOutcome::Proved(_))
    }

    /// The proof statistics, whatever the verdict.
    pub fn stats(&self) -> ProofStats {
        match self {
            ProveOutcome::Proved(s) | ProveOutcome::Refuted(_, s) | ProveOutcome::Unknown(s) => *s,
        }
    }
}

/// One literal per output-bit disagreement, OR-ed into the miter root.
fn miter_root(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "miter over unequal widths");
    let diffs: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| cnf.xor(x, y)).collect();
    cnf.or_many(&diffs)
}

/// Checks the two netlists expose identical port shapes (same names,
/// widths and declaration order on both sides).
fn check_port_shapes(a: &Netlist, b: &Netlist) -> Result<(), VerifyError> {
    let shape = |nl: &Netlist, out: bool| -> Vec<(String, usize)> {
        let ports = if out {
            nl.output_ports()
        } else {
            nl.input_ports()
        };
        ports
            .iter()
            .map(|p| (p.name.clone(), p.nets.len()))
            .collect()
    };
    if shape(a, false) != shape(b, false) {
        return Err(VerifyError::PortMismatch(format!(
            "inputs {:?} vs {:?}",
            shape(a, false),
            shape(b, false)
        )));
    }
    if shape(a, true) != shape(b, true) {
        return Err(VerifyError::PortMismatch(format!(
            "outputs {:?} vs {:?}",
            shape(a, true),
            shape(b, true)
        )));
    }
    Ok(())
}

/// Flattened input literals of a frame, input ports in declaration
/// order, LSB first — the same numbering `CompiledNetlist` gives BDD
/// variables, so witness words read across engines.
fn flat_inputs(program: &SimProgram, frame: &FrameLits) -> Vec<Lit> {
    program
        .netlist()
        .input_ports()
        .iter()
        .flat_map(|p| {
            let name = p.name.clone();
            frame.input(program, &name)
        })
        .collect()
}

/// Replays one combinational frame of `program` with its flattened
/// input vector driven to `index` (ports in declaration order, LSB
/// first), returning each output port's packed word (declaration
/// order).
fn replay_flat(program: &Arc<SimProgram>, index: u64) -> Vec<(String, u64)> {
    let mut sim = BatchSim::<bool>::from_program(Arc::clone(program));
    let mut next_bit = 0;
    for port in program.netlist().input_ports() {
        let end = next_bit + port.nets.len();
        let bits: Vec<bool> = (next_bit..end)
            .map(|b| b < 64 && (index >> b) & 1 == 1)
            .collect();
        sim.set_input_words(&port.name, &bits);
        next_bit = end;
    }
    sim.eval();
    program
        .netlist()
        .output_ports()
        .iter()
        .map(|p| (p.name.clone(), sim.read_output_lane_u64(&p.name, 0)))
        .collect()
}

/// Proves (or refutes) unconditional combinational equivalence of two
/// netlists by a SAT miter: shared input variables, per-output-bit
/// XOR, one satisfiability query. UNSAT over the whole input space is
/// the proof; a model is decoded through both tapes into the
/// exhaustive first-mismatch format (`got` from `a`, `want` from `b`).
///
/// The gate-helper memo in the CNF builder structurally hashes the two
/// encodings against each other, so proving a builder-optimized
/// netlist against its unoptimized twin mostly collapses at encode
/// time.
///
/// Requires combinational netlists with identical port shapes and at
/// most 64 total input bits / 64 bits per output port (witness words
/// are `u64`, like the sweeps).
pub fn prove_equivalent(a: &Netlist, b: &Netlist) -> Result<ProveOutcome, VerifyError> {
    prove_equivalent_budgeted(a, b, None)
}

/// [`prove_equivalent`] with a conflict budget; exceeding it yields
/// [`ProveOutcome::Unknown`].
pub fn prove_equivalent_budgeted(
    a: &Netlist,
    b: &Netlist,
    max_conflicts: Option<u64>,
) -> Result<ProveOutcome, VerifyError> {
    if a.register_count() > 0 || b.register_count() > 0 {
        return Err(VerifyError::Sequential);
    }
    check_port_shapes(a, b)?;
    let total_bits: usize = a.input_ports().iter().map(|p| p.nets.len()).sum();
    if total_bits > 64 {
        return Err(VerifyError::TooManyInputs {
            bits: total_bits,
            cap: 64,
        });
    }
    let pa = SimProgram::compile_shared(a.clone());
    let pb = SimProgram::compile_shared(b.clone());
    let mut cnf = Cnf::new();
    let fa = encode_combinational(&pa, &mut cnf);
    let bound: Vec<(String, Vec<Lit>)> = pa
        .netlist()
        .input_ports()
        .iter()
        .map(|p| (p.name.clone(), fa.input(&pa, &p.name)))
        .collect();
    let fb = encode_combinational_with(&pb, &mut cnf, &bound);
    let mut diffs: Vec<Lit> = Vec::new();
    for port in pa.netlist().output_ports() {
        let name = port.name.clone();
        let oa = fa.output(&pa, &name);
        let ob = fb.output(&pb, &name);
        diffs.push(miter_root(&mut cnf, &oa, &ob));
    }
    let root = cnf.or_many(&diffs);
    cnf.assert_lit(root);
    let (result, stats) = cnf.solve_budgeted(max_conflicts);
    let proof = ProofStats::new(&cnf, stats);
    Ok(match result {
        SatResult::Unsat => ProveOutcome::Proved(proof),
        SatResult::Unknown => ProveOutcome::Unknown(proof),
        SatResult::Sat(model) => {
            let index = read_word(&model, &flat_inputs(&pa, &fa));
            let got = replay_flat(&pa, index);
            let want = replay_flat(&pb, index);
            let (port, g, w) = got
                .iter()
                .zip(&want)
                .find(|((_, g), (_, w))| g != w)
                .map(|((p, g), (_, w))| (p.clone(), *g, *w))
                .expect("SAT model must witness a differing output");
            ProveOutcome::Refuted(
                ExhaustiveMismatch {
                    index,
                    port,
                    got: g,
                    want: w,
                },
                proof,
            )
        }
    })
}

/// Proves (or refutes) that a combinational netlist matches a packed
/// expectation table on every in-range index: `expected[i]` is the
/// required word on `output` when `input` is driven with `i`, for all
/// `i < expected.len()` (out-of-range inputs are don't-cares — the
/// paper's convention for the converter).
///
/// The table is encoded as one clause per (index, output bit): "input
/// differs from `i`, or the bit has its table polarity", defining a
/// `want` vector the miter compares against; the range guard is a
/// ripple comparator. UNSAT proves conformance. A model is decoded
/// through the tape into exactly the sweeps' [`ExhaustiveMismatch`]
/// (`got` by replaying the witness index, `want` from the table).
///
/// # Panics
/// Panics if either port is missing, the input port cannot represent
/// every index, or a port exceeds the 64-bit witness path (the same
/// contract as [`crate::exhaustive_check_parallel_wide`]).
pub fn prove_against_table(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Result<ProveOutcome, VerifyError> {
    prove_against_table_budgeted(netlist, input, output, expected, None)
}

/// [`prove_against_table`] with a conflict budget.
pub fn prove_against_table_budgeted(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    max_conflicts: Option<u64>,
) -> Result<ProveOutcome, VerifyError> {
    if netlist.register_count() > 0 {
        return Err(VerifyError::Sequential);
    }
    crate::exhaustive::port_width_checked(netlist, input, output, expected.len());
    let program = SimProgram::compile_shared(netlist.clone());
    let mut cnf = Cnf::new();
    let frame = encode_combinational(&program, &mut cnf);
    let in_lits = frame.input(&program, input);
    let out_lits = frame.output(&program, output);
    // The table: a fresh `want` vector pinned, index by index, through
    // clauses of width |input| + 1 ("x ≠ i, or want bit = table bit").
    let want: Vec<Lit> = out_lits.iter().map(|_| cnf.new_var()).collect();
    let mut clause: Vec<Lit> = Vec::with_capacity(in_lits.len() + 1);
    for (i, &word) in expected.iter().enumerate() {
        clause.clear();
        for (j, &l) in in_lits.iter().enumerate() {
            // True exactly when input bit j differs from index bit j.
            clause.push(if (i >> j) & 1 == 1 { !l } else { l });
        }
        clause.push(Lit::positive(0)); // placeholder, patched per bit
        for (b, &w) in want.iter().enumerate() {
            *clause.last_mut().expect("placeholder") = if (word >> b) & 1 == 1 { w } else { !w };
            cnf.add_clause(&clause);
        }
    }
    let in_range = cnf.less_than_const(&in_lits, expected.len() as u64);
    cnf.assert_lit(in_range);
    let root = miter_root(&mut cnf, &out_lits, &want);
    cnf.assert_lit(root);
    let (result, stats) = cnf.solve_budgeted(max_conflicts);
    let proof = ProofStats::new(&cnf, stats);
    Ok(match result {
        SatResult::Unsat => ProveOutcome::Proved(proof),
        SatResult::Unknown => ProveOutcome::Unknown(proof),
        SatResult::Sat(model) => {
            let index = read_word(&model, &in_lits);
            let got = replay(&program, input, index, output, 0);
            ProveOutcome::Refuted(
                ExhaustiveMismatch {
                    index,
                    port: output.to_string(),
                    got,
                    want: expected[index as usize],
                },
                proof,
            )
        }
    })
}

/// Replays `program` from reset with only `input` driven, held at
/// `index` (other input ports, if any, stay at zero — matching the
/// sweeps, which drive a single port), for `cycles` clock cycles, and
/// reads `output` after a final settle. Combinational checks replay
/// zero cycles.
fn replay(program: &Arc<SimProgram>, input: &str, index: u64, output: &str, cycles: usize) -> u64 {
    let mut sim = BatchSim::<bool>::from_program(Arc::clone(program));
    sim.set_input_u64(input, index);
    for _ in 0..cycles {
        sim.step();
    }
    sim.eval();
    sim.read_output_lane_u64(output, 0)
}

/// Proves (or refutes) the inverse-composition identity
/// `g(f(i)) == i` for every `i < bound`: `f`'s output port `f_out`
/// feeds `g`'s input port `g_in` variable-for-variable, and `g_out`
/// is mitered against `f`'s input. This is the oracle-*free* converter
/// theorem — converter then rank circuit reproduce the index — whose
/// CNF never materializes an `n!`-entry table, so it stays affordable
/// past the table encoding's comfort zone.
///
/// # Panics
/// Panics if the named ports are missing, have mismatched widths
/// (`f_out` vs `g_in`, `g_out` vs `f_in`), or `f_in` exceeds 63 bits.
#[allow(clippy::too_many_arguments)] // two (netlist, in, out) triples + bound + budget
pub fn prove_inverse_identity(
    f: &Netlist,
    f_in: &str,
    f_out: &str,
    g: &Netlist,
    g_in: &str,
    g_out: &str,
    bound: u64,
    max_conflicts: Option<u64>,
) -> Result<ProveOutcome, VerifyError> {
    if f.register_count() > 0 || g.register_count() > 0 {
        return Err(VerifyError::Sequential);
    }
    let pf = SimProgram::compile_shared(f.clone());
    let pg = SimProgram::compile_shared(g.clone());
    let mut cnf = Cnf::new();
    let ff = encode_combinational(&pf, &mut cnf);
    let f_out_lits = ff.output(&pf, f_out);
    let fg = encode_combinational_with(&pg, &mut cnf, &[(g_in.to_string(), f_out_lits)]);
    let f_in_lits = ff.input(&pf, f_in);
    let g_out_lits = fg.output(&pg, g_out);
    assert!(
        f_in_lits.len() < 64,
        "input port {f_in:?} too wide for a u64 witness"
    );
    assert_eq!(
        f_in_lits.len(),
        g_out_lits.len(),
        "identity miter needs {f_in:?} and {g_out:?} to match widths"
    );
    let in_range = cnf.less_than_const(&f_in_lits, bound);
    cnf.assert_lit(in_range);
    let root = miter_root(&mut cnf, &g_out_lits, &f_in_lits);
    cnf.assert_lit(root);
    let (result, stats) = cnf.solve_budgeted(max_conflicts);
    let proof = ProofStats::new(&cnf, stats);
    Ok(match result {
        SatResult::Unsat => ProveOutcome::Proved(proof),
        SatResult::Unknown => ProveOutcome::Unknown(proof),
        SatResult::Sat(model) => {
            let index = read_word(&model, &f_in_lits);
            let mid = replay(&pf, f_in, index, f_out, 0);
            let got = replay(&pg, g_in, mid, g_out, 0);
            ProveOutcome::Refuted(
                ExhaustiveMismatch {
                    index,
                    port: g_out.to_string(),
                    got,
                    want: index,
                },
                proof,
            )
        }
    })
}

/// Bounded model check: proves (or refutes) that the pipelined netlist
/// `seq`, fed a held input from reset and clocked `latency` times,
/// settles `output` at cycle `latency` to exactly what the
/// combinational netlist `comb` produces on the same input — for every
/// input below `bound`. This is the `k`-step unrolling over the DFF
/// slot pairs: `latency + 1` frames, frame 0 registers at reset,
/// inputs tied across frames, miter on the last frame.
///
/// A counterexample is decoded by replaying the witness through the
/// sequential tape (settle + latch per cycle, like
/// `BatchSim::step`) and reported in the sweeps' format.
///
/// # Panics
/// Panics if ports are missing, widths mismatch, or `input` exceeds
/// 63 bits.
#[allow(clippy::too_many_arguments)]
pub fn prove_pipelined_equivalent(
    seq: &Netlist,
    comb: &Netlist,
    input: &str,
    output: &str,
    latency: usize,
    bound: u64,
    max_conflicts: Option<u64>,
) -> Result<ProveOutcome, VerifyError> {
    if comb.register_count() > 0 {
        return Err(VerifyError::Sequential);
    }
    let ps = SimProgram::compile_shared(seq.clone());
    let pc = SimProgram::compile_shared(comb.clone());
    let mut cnf = Cnf::new();
    let frames = encode_unrolled(&ps, &mut cnf, latency + 1, true);
    let first = &frames[0];
    let last = frames.last().expect("at least one frame");
    let in_lits = first.input(&ps, input);
    assert!(
        in_lits.len() < 64,
        "input port {input:?} too wide for a u64 witness"
    );
    let fc = encode_combinational_with(&pc, &mut cnf, &[(input.to_string(), in_lits.clone())]);
    let seq_out = last.output(&ps, output);
    let comb_out = fc.output(&pc, output);
    let in_range = cnf.less_than_const(&in_lits, bound);
    cnf.assert_lit(in_range);
    let root = miter_root(&mut cnf, &seq_out, &comb_out);
    cnf.assert_lit(root);
    let (result, stats) = cnf.solve_budgeted(max_conflicts);
    let proof = ProofStats::new(&cnf, stats);
    Ok(match result {
        SatResult::Unsat => ProveOutcome::Proved(proof),
        SatResult::Unknown => ProveOutcome::Unknown(proof),
        SatResult::Sat(model) => {
            let index = read_word(&model, &in_lits);
            let got = replay(&ps, input, index, output, latency);
            let want = replay(&pc, input, index, output, 0);
            ProveOutcome::Refuted(
                ExhaustiveMismatch {
                    index,
                    port: output.to_string(),
                    got,
                    want,
                },
                proof,
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    fn adder(optimized: bool) -> Netlist {
        let mut b = if optimized {
            Builder::new()
        } else {
            Builder::new_unoptimized()
        };
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        b.finish()
    }

    #[test]
    fn optimized_and_unoptimized_adders_equivalent() {
        let a = adder(true);
        let b = adder(false);
        let outcome = prove_equivalent(&a, &b).unwrap();
        assert!(outcome.is_proved(), "got {outcome:?}");
    }

    #[test]
    fn folding_heavy_build_proved_against_unoptimized_twin() {
        // x + 5: the constant operand gives the peephole rules real
        // work, so the two builds differ structurally.
        let incr = |optimized: bool| {
            let mut b = if optimized {
                Builder::new()
            } else {
                Builder::new_unoptimized()
            };
            let x = b.input_bus("x", 5);
            let k = b.constant_bus(5, &hwperm_bignum::Ubig::from(5u64));
            let (s, c) = b.add(&x, &k);
            b.output_bus("s", &s);
            b.output_bus("c", &[c]);
            b.finish()
        };
        let opt = incr(true);
        let raw = incr(false);
        assert!(
            raw.len() > opt.len(),
            "unoptimized build is genuinely bigger"
        );
        let outcome = prove_equivalent(&opt, &raw).unwrap();
        assert!(outcome.is_proved(), "got {outcome:?}");
    }

    #[test]
    fn inequivalent_netlists_refuted_with_decoded_witness() {
        let a = adder(true);
        let mut bb = Builder::new();
        let x = bb.input_bus("x", 4);
        let y = bb.input_bus("y", 4);
        let (s, c) = bb.sub(&x, &y);
        bb.output_bus("s", &s);
        bb.output_bus("c", &[c]);
        let b = bb.finish();
        let ProveOutcome::Refuted(mismatch, _) = prove_equivalent(&a, &b).unwrap() else {
            panic!("adder vs subtractor must be refuted");
        };
        // The witness must be a real divergence: replay both sides.
        let xv = mismatch.index & 0xf;
        let yv = (mismatch.index >> 4) & 0xf;
        if mismatch.port == "s" {
            assert_eq!(mismatch.got, (xv + yv) & 0xf);
            assert_eq!(mismatch.want, xv.wrapping_sub(yv) & 0xf);
        }
        assert_ne!(mismatch.got, mismatch.want);
    }

    #[test]
    fn port_shape_mismatch_is_an_error() {
        let a = adder(true);
        let mut bb = Builder::new();
        let x = bb.input_bus("x", 3);
        bb.output_bus("s", &x);
        assert!(matches!(
            prove_equivalent(&a, &bb.finish()),
            Err(VerifyError::PortMismatch(_))
        ));
    }

    #[test]
    fn table_proof_accepts_and_refutes() {
        // y = x + 1 over 3 bits (wrapping).
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        let one = b.constant_bus(3, &hwperm_bignum::Ubig::from(1u64));
        let (s, _) = b.add(&x, &one);
        b.output_bus("y", &s);
        let nl = b.finish();
        let table: Vec<u64> = (0..8).map(|i| (i + 1) & 7).collect();
        assert!(prove_against_table(&nl, "x", "y", &table)
            .unwrap()
            .is_proved());
        // Corrupt one entry: the proof must refute with that index.
        let mut bad = table.clone();
        bad[5] = 0;
        let ProveOutcome::Refuted(m, _) = prove_against_table(&nl, "x", "y", &bad).unwrap() else {
            panic!("corrupted table must refute");
        };
        assert_eq!(m.index, 5);
        assert_eq!(m.got, 6);
        assert_eq!(m.want, 0);
        assert_eq!(m.port, "y");
        // Don't-care beyond the table: a 5-entry prefix proves even
        // though entries 5..8 would mismatch.
        assert!(prove_against_table(&nl, "x", "y", &table[..5])
            .unwrap()
            .is_proved());
    }

    #[test]
    fn inverse_identity_on_tiny_circuits() {
        // f: y = x ^ 0b101 is its own inverse.
        let build = || {
            let mut b = Builder::new();
            let x = b.input_bus("x", 3);
            let k = b.constant_bus(3, &hwperm_bignum::Ubig::from(0b101u64));
            let y: Vec<_> = x.iter().zip(&k).map(|(&a, &c)| b.xor(a, c)).collect();
            b.output_bus("y", &y);
            b.finish()
        };
        let outcome =
            prove_inverse_identity(&build(), "x", "y", &build(), "x", "y", 8, None).unwrap();
        assert!(outcome.is_proved(), "got {outcome:?}");
        // And g = identity is *not* the inverse of f.
        let ident = {
            let mut b = Builder::new();
            let x = b.input_bus("x", 3);
            b.output_bus("y", &x);
            b.finish()
        };
        let ProveOutcome::Refuted(m, _) =
            prove_inverse_identity(&build(), "x", "y", &ident, "x", "y", 8, None).unwrap()
        else {
            panic!("identity is not f's inverse");
        };
        assert_eq!(m.got, m.index ^ 0b101);
        assert_eq!(m.want, m.index);
    }

    #[test]
    fn pipelined_register_chain_equals_wire() {
        // seq: x -> DFF -> DFF -> y (latency 2); comb: y = x.
        let mut sb = Builder::new();
        let x = sb.input_bus("x", 2);
        let r1 = sb.register_bus(&x, false);
        let r2 = sb.register_bus(&r1, false);
        sb.output_bus("y", &r2);
        let seq = sb.finish();
        let mut cb = Builder::new();
        let x = cb.input_bus("x", 2);
        cb.output_bus("y", &x);
        let comb = cb.finish();
        let outcome = prove_pipelined_equivalent(&seq, &comb, "x", "y", 2, 4, None).unwrap();
        assert!(outcome.is_proved(), "got {outcome:?}");
        // With the wrong latency the check must refute (output still
        // in flight: frame 1 shows the reset value for some input).
        let ProveOutcome::Refuted(m, _) =
            prove_pipelined_equivalent(&seq, &comb, "x", "y", 1, 4, None).unwrap()
        else {
            panic!("latency-1 read of a latency-2 pipe must refute");
        };
        assert_ne!(m.got, m.want);
        assert_eq!(m.want, m.index);
    }

    #[test]
    fn budget_zero_yields_unknown() {
        // A miter with real search space and no budget to explore it.
        let a = adder(true);
        let b = adder(false);
        match prove_equivalent_budgeted(&a, &b, Some(0)).unwrap() {
            ProveOutcome::Unknown(_) => {}
            // Encoding may collapse the miter at level 0, in which case
            // even a zero budget proves it — accept both, reject Refuted.
            ProveOutcome::Proved(_) => {}
            ProveOutcome::Refuted(m, _) => panic!("phantom refutation {m}"),
        }
    }
}
