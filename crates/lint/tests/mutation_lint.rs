//! Lint mutation tests: seed single-gate corruptions into generated
//! netlists with `Netlist::with_gate_replaced` and assert that the
//! analyzer *flags each one* — every pass is proven to fire, not just
//! to stay quiet on clean inputs.
//!
//! Port-level corruption (duplicate names, zero-width ports) cannot be
//! constructed through the public API — the `Builder` rejects it at
//! creation and `Netlist`'s fields are crate-private — so those paths
//! are exercised by `hwperm-logic`'s in-crate `check_structure` tests;
//! the `port-name` lint is a direct mapping of the same enumeration.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_lint::{lint_netlist, LintId, Severity};
use hwperm_logic::{Gate, NetId, Netlist};

/// The Fig. 1 converter at n = 4: combinational, lint-clean, with
/// recorded one-hot select banks — the canonical mutation substrate.
fn clean_converter() -> Netlist {
    let nl = converter_netlist(4, ConverterOptions::default());
    assert!(
        lint_netlist(&nl).is_clean(),
        "substrate must start lint-clean"
    );
    nl
}

/// Asserts `lint` fired on `netlist` at `severity` or stronger.
fn assert_fires(netlist: &Netlist, lint: LintId, at_least: Severity, what: &str) {
    let report = lint_netlist(netlist);
    let hit = report.of(lint).any(|d| d.severity >= at_least);
    assert!(
        hit,
        "{what}: expected {lint} at >= {at_least:?}, report was:\n{report}"
    );
}

/// An index into the gate array chosen so the mutation is observable:
/// the first live And gate (present in every converter stage).
fn first_live_and(netlist: &Netlist) -> usize {
    let live = netlist.live_mask();
    (0..netlist.len())
        .find(|&i| live[i] && matches!(netlist.gates()[i], Gate::And(..)))
        .expect("converter contains a live And")
}

#[test]
fn out_of_range_ref_fires_structure() {
    let nl = clean_converter();
    let i = first_live_and(&nl);
    let bogus = nl.with_gate_replaced(i, Gate::Not(NetId::forged(u32::MAX)));
    assert_fires(
        &bogus,
        LintId::Structure,
        Severity::Error,
        "out-of-range ref",
    );
}

#[test]
fn forward_ref_fires_structure() {
    let nl = clean_converter();
    let i = first_live_and(&nl);
    // Reference a net created *after* gate i: breaks the topological
    // creation-order invariant.
    let fwd = NetId::forged((i + 1) as u32);
    let bogus = nl.with_gate_replaced(i, Gate::Not(fwd));
    assert_fires(&bogus, LintId::Structure, Severity::Error, "forward ref");
}

#[test]
fn self_loop_fires_comb_cycle() {
    let nl = clean_converter();
    let i = first_live_and(&nl);
    let bogus = nl.with_gate_replaced(i, Gate::Not(NetId::forged(i as u32)));
    assert_fires(&bogus, LintId::CombCycle, Severity::Error, "self loop");
}

#[test]
fn input_port_corruption_fires_floating_input() {
    let nl = clean_converter();
    // Net 0 is the first bit of the "index" input port; replacing its
    // Input gate with a constant leaves the port bit floating.
    assert!(matches!(nl.gates()[0], Gate::Input));
    let bogus = nl.with_gate_replaced(0, Gate::Const(false));
    assert_fires(
        &bogus,
        LintId::Structure,
        Severity::Error,
        "input port bit no longer an Input gate",
    );
}

#[test]
fn orphaned_input_gate_fires_floating_input() {
    let nl = clean_converter();
    let i = first_live_and(&nl);
    // An Input gate that no input port owns: dangling stimulus.
    let bogus = nl.with_gate_replaced(i, Gate::Input);
    assert_fires(
        &bogus,
        LintId::FloatingInput,
        Severity::Error,
        "orphan Input gate",
    );
}

#[test]
fn stuck_select_fires_one_hot() {
    // The ISSUE's flagship mutation: force one line of a Fig. 1 select
    // bank high so two lines can be simultaneously hot. The BDD query
    // must refute one-hotness with a concrete witness.
    let nl = clean_converter();
    let banks = nl.one_hot_banks().to_vec();
    assert!(!banks.is_empty(), "converter records its select banks");
    let victim = banks[0][0].index();
    let bogus = nl.with_gate_replaced(victim, Gate::Const(true));
    let report = lint_netlist(&bogus);
    let diag = report
        .of(LintId::OneHot)
        .find(|d| d.severity == Severity::Error)
        .unwrap_or_else(|| panic!("stuck select line must refute one-hot:\n{report}"));
    assert!(
        diag.message.contains("witness"),
        "diagnostic should carry the refutation witness: {diag}"
    );
}

#[test]
fn inverted_select_fires_one_hot() {
    // Subtler than stuck-at: invert a thermometer-derived line, making
    // the bank all-cold for some index and two-hot for others.
    let nl = clean_converter();
    let banks = nl.one_hot_banks().to_vec();
    let bank = &banks[0];
    let victim = bank[bank.len() - 1].index();
    let g = nl.gates()[victim];
    let mutated = match g {
        Gate::Not(a) => Gate::And(a, a),
        Gate::And(a, b) => Gate::Or(a, b),
        Gate::Or(a, b) => Gate::And(a, b),
        other => panic!("unexpected select-line gate {other:?}"),
    };
    let bogus = nl.with_gate_replaced(victim, mutated);
    assert_fires(&bogus, LintId::OneHot, Severity::Error, "inverted select");
}

#[test]
fn unread_input_fires_unused_input() {
    let nl = clean_converter();
    // Cut every reader of input bit 0 by rerouting: replace each gate
    // that reads net 0 with the same gate reading net 1 instead.
    let readers: Vec<usize> = (0..nl.len())
        .filter(|&i| nl.gates()[i].fanin().any(|f| f.index() == 0))
        .collect();
    assert!(!readers.is_empty());
    let mut bogus = nl;
    for i in readers {
        let rerouted = match bogus.gates()[i] {
            Gate::Not(_) => Gate::Not(NetId::forged(1)),
            Gate::And(a, b) => {
                let f = |n: NetId| if n.index() == 0 { NetId::forged(1) } else { n };
                Gate::And(f(a), f(b))
            }
            Gate::Or(a, b) => {
                let f = |n: NetId| if n.index() == 0 { NetId::forged(1) } else { n };
                Gate::Or(f(a), f(b))
            }
            Gate::Xor(a, b) => {
                let f = |n: NetId| if n.index() == 0 { NetId::forged(1) } else { n };
                Gate::Xor(f(a), f(b))
            }
            Gate::Mux { sel, a, b } => {
                let f = |n: NetId| if n.index() == 0 { NetId::forged(1) } else { n };
                Gate::Mux {
                    sel: f(sel),
                    a: f(a),
                    b: f(b),
                }
            }
            other => other,
        };
        bogus = bogus.with_gate_replaced(i, rerouted);
    }
    assert_fires(
        &bogus,
        LintId::UnusedInput,
        Severity::Warn,
        "unread input bit",
    );
}

#[test]
fn severed_cone_fires_dead_gate() {
    let nl = clean_converter();
    // Pick a live gate whose fanin includes a combinational gate with
    // fanout exactly 1 and no port/bank observer: replacing the reader
    // with a constant strands that fanin.
    let live = nl.live_mask();
    let fanout = nl.fanout();
    let observed: std::collections::HashSet<usize> = nl
        .output_ports()
        .iter()
        .flat_map(|p| p.nets.iter())
        .chain(nl.one_hot_banks().iter().flatten())
        .map(|n| n.index())
        .collect();
    let (reader, _victim) = (0..nl.len())
        .filter(|&i| live[i])
        .find_map(|i| {
            nl.gates()[i].fanin().find_map(|f| {
                let fi = f.index();
                (fanout[fi] == 1 && nl.gates()[fi].is_combinational() && !observed.contains(&fi))
                    .then_some((i, fi))
            })
        })
        .expect("some live gate is the sole reader of an unobserved gate");
    let bogus = nl.with_gate_replaced(reader, Gate::Const(false));
    assert_fires(&bogus, LintId::DeadGate, Severity::Warn, "severed cone");
}

#[test]
fn constant_operand_fires_const_fold() {
    // Turn one operand of a live And into a constant: the And becomes
    // builder-foldable, which the const-fold pass must report.
    let nl = clean_converter();
    let (i, a) = {
        let live = nl.live_mask();
        (0..nl.len())
            .find_map(|i| match nl.gates()[i] {
                Gate::And(a, _) if live[i] && nl.gates()[a.index()].is_combinational() => {
                    Some((i, a))
                }
                _ => None,
            })
            .expect("a live And with a combinational operand exists")
    };
    let _ = i;
    let bogus = nl.with_gate_replaced(a.index(), Gate::Const(false));
    assert_fires(&bogus, LintId::ConstFold, Severity::Warn, "And with const0");
}

#[test]
fn skipped_register_fires_dff_rank() {
    // Pipelined substrate: bypass one register (replace Dff d with a
    // buffer of d) so one operand of a downstream gate arrives a rank
    // early — the classic retiming bug.
    let nl = converter_netlist(
        4,
        ConverterOptions {
            pipelined: true,
            ..ConverterOptions::default()
        },
    );
    assert!(lint_netlist(&nl).is_clean());
    let live = nl.live_mask();
    let mut fired = false;
    for (i, gate) in nl.gates().iter().enumerate() {
        let Gate::Dff { d, .. } = *gate else {
            continue;
        };
        if !live[i] || d.index() >= i {
            continue; // skip feedback registers (LFSR-style)
        }
        // A "buffer" standing in for the register: same value, no delay.
        let bogus = nl.with_gate_replaced(i, Gate::Or(d, d));
        let report = lint_netlist(&bogus);
        if report.of(LintId::DffRank).next().is_some() {
            fired = true;
            break;
        }
    }
    assert!(
        fired,
        "bypassing a pipeline register must skew ranks somewhere"
    );
}

#[test]
fn cloned_gate_fires_dup_gate() {
    let nl = clean_converter();
    let i = first_live_and(&nl);
    let clone_source = nl.gates()[i];
    // Find a later live gate whose replacement by a clone keeps the
    // netlist structurally valid (operands of the clone precede i < j).
    let live = nl.live_mask();
    let j = (i + 1..nl.len())
        .find(|&j| live[j] && nl.gates()[j].is_combinational())
        .expect("a later live gate exists");
    let bogus = nl.with_gate_replaced(j, clone_source);
    assert_fires(&bogus, LintId::DupGate, Severity::Info, "cloned gate");
}

#[test]
fn constant_output_bit_fires_const_output() {
    let nl = clean_converter();
    let out_net = nl.output_ports()[0].nets[0].index();
    let bogus = nl.with_gate_replaced(out_net, Gate::Const(false));
    assert_fires(
        &bogus,
        LintId::ConstOutput,
        Severity::Info,
        "const output bit",
    );
}

/// Exhaustively evaluates every index and reports whether each recorded
/// bank is exactly-one-hot for every input (ground truth by simulation).
/// Runs on the one-worker 64-lane sweep — the mutation sweep below
/// calls this once per mutant, so the 64× fewer netlist walks are what
/// keep the whole-netlist sweep affordable.
fn banks_truly_one_hot(netlist: &Netlist) -> bool {
    hwperm_verify::find_one_hot_violation_parallel(netlist, "index", 1).is_none()
}

#[test]
fn mutation_sweep_one_hot_verdicts_match_simulation() {
    // Exhaustive single-gate stuck-at-1 sweep over the n = 4 converter.
    // The linter must survive every mutant without panicking, and its
    // one-hot verdict must agree with ground-truth simulation: an Error
    // iff some input really drives a bank to zero or two hot lines.
    // (Agreement matters in both directions — a stuck line in a 2-line
    // complementary bank keeps the bank exactly-one-hot even though the
    // circuit is functionally wrong, and the lint must NOT claim a
    // one-hot violation there; the functional fault is the exhaustive
    // oracle's to catch, not the bank assertion's.)
    let nl = clean_converter();
    let bank_nets: std::collections::HashSet<usize> = nl
        .one_hot_banks()
        .iter()
        .flatten()
        .map(|n| n.index())
        .collect();
    let mut refuted = 0;
    for i in 0..nl.len() {
        if !nl.gates()[i].is_combinational() {
            continue;
        }
        let bogus = nl.with_gate_replaced(i, Gate::Const(true));
        let report = lint_netlist(&bogus); // must not panic
        let lint_says_broken = report
            .of(LintId::OneHot)
            .any(|d| d.severity == Severity::Error);
        let truly_broken = !banks_truly_one_hot(&bogus);
        assert_eq!(
            lint_says_broken,
            truly_broken,
            "one-hot verdict diverges from simulation for stuck net {i} \
             (bank member: {}):\n{report}",
            bank_nets.contains(&i)
        );
        refuted += usize::from(truly_broken);
    }
    assert!(
        refuted >= 5,
        "expected several genuine one-hot violations in the sweep, got {refuted}"
    );
}

/// Sanity: the oracle used by the sweep — mutating a gate genuinely
/// changes behaviour — still holds for the stuck-select case, tying
/// the lint verdict to a functional fault, not just a structural one.
#[test]
fn stuck_select_is_a_real_functional_fault() {
    use hwperm_logic::BatchSim;
    let nl = clean_converter();
    let victim = nl.one_hot_banks()[0][0].index();
    let bogus = nl.with_gate_replaced(victim, Gate::Const(true));
    let mut good = BatchSim::<bool>::new(clean_converter());
    let mut bad = BatchSim::<bool>::new(bogus);
    let mut differs = false;
    for i in 0..24u64 {
        good.set_input("index", &Ubig::from(i));
        bad.set_input("index", &Ubig::from(i));
        good.eval();
        bad.eval();
        if good.read_output("perm") != bad.read_output("perm") {
            differs = true;
            break;
        }
    }
    assert!(
        differs,
        "stuck select must corrupt at least one permutation"
    );
}
