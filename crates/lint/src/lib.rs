#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Multi-pass static analysis (lint) for generated netlists.
//!
//! The generators in `hwperm-circuits` emit netlists by construction
//! rules (topological creation order, builder-folded constants, one-hot
//! MUX routing). This crate checks those rules *after the fact*, so
//! that bugs in a generator — or a deliberately mutated netlist — are
//! caught as machine-readable diagnostics instead of downstream
//! simulation mismatches.
//!
//! Passes, in execution order:
//!
//! | lint id          | default severity | what it finds |
//! |------------------|------------------|---------------|
//! | `structure`      | Error | malformed references, ports mapping to the wrong gates (delegates to [`Netlist::check_structure`], so `validate()` and the linter can never disagree) |
//! | `port-name`      | Error | duplicate, empty, or zero-width port names |
//! | `floating-input` | Error | `Input` gates read by logic but driven by no input port |
//! | `comb-cycle`     | Error | combinational cycles, found by Tarjan SCC over the combinational subgraph (sound on post-[`Netlist::with_gate_replaced`] graphs, where creation order no longer implies topological order) |
//! | `one-hot`        | Error | recorded MUX select banks ([`Netlist::one_hot_banks`]) that are *not* exactly one-hot, proven or refuted by `hwperm-verify`'s bounded cone BDD query — with SAT escalation when the BDD budget is exhausted, and an explicit `skipped` finding when every budget runs out (never a silent pass) |
//! | `range-dont-care`| Error | banks the one-hot pass refuted (or skipped) re-queried under the configured input-range contract (`port < bound`, see [`LintConfig::with_range_bound`]): a violation reachable only by out-of-range inputs is range don't-care (Info); one reachable in range stays an error |
//! | `unused-input`   | Warn  | input port bits that fan out nowhere |
//! | `dead-gate`      | Warn  | gates whose value can never reach an output port |
//! | `const-fold`     | Warn  | gates the builder's folding rules would have simplified away (e.g. `And(x, 0)`) |
//! | `dff-rank`       | Warn  | combinational gates mixing pipeline ranks (a path crossing register-rank boundaries without a register) |
//! | `dup-gate`       | Info  | structurally identical gates (missed CSE) |
//! | `const-output`   | Info  | output port bits tied to constants |
//!
//! Every lint can be suppressed or promoted per run via [`LintConfig`].
//! [`LintReport`] renders human-readable text ([`std::fmt::Display`]);
//! `hwperm lint` in the CLI prints that, or renders each report as a
//! row of its shared `--json` envelope.

use hwperm_logic::{Gate, NetId, Netlist, StructuralIssue};
use hwperm_verify::{
    check_one_hot_bank_escalated, check_one_hot_bank_sat, OneHotStatus, DEFAULT_NODE_BUDGET,
    DEFAULT_SAT_CONFLICT_BUDGET,
};
use std::collections::HashMap;
use std::fmt;

/// Identifies one lint check. `Display` renders the kebab-case id used
/// in configs, JSON output and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Malformed gate/port references (see [`Netlist::check_structure`]).
    Structure,
    /// Duplicate, empty, or zero-width port names.
    PortName,
    /// `Input` gates read by logic but owned by no input port.
    FloatingInput,
    /// Combinational cycles.
    CombCycle,
    /// Recorded one-hot select banks that are not exactly one-hot.
    OneHot,
    /// One-hot violations re-judged under the input-range contract:
    /// reachable in range is an error, confined to the don't-care
    /// region is advisory.
    RangeDontCare,
    /// Input port bits with no fanout.
    UnusedInput,
    /// Gates unreachable from any output port.
    DeadGate,
    /// Gates foldable by the builder's simplification rules.
    ConstFold,
    /// Combinational gates mixing pipeline register ranks.
    DffRank,
    /// Structurally duplicate gates (missed CSE).
    DupGate,
    /// Output port bits tied to constants.
    ConstOutput,
}

/// All lints, in pass execution order.
pub const ALL_LINTS: [LintId; 12] = [
    LintId::Structure,
    LintId::PortName,
    LintId::FloatingInput,
    LintId::CombCycle,
    LintId::OneHot,
    LintId::RangeDontCare,
    LintId::UnusedInput,
    LintId::DeadGate,
    LintId::ConstFold,
    LintId::DffRank,
    LintId::DupGate,
    LintId::ConstOutput,
];

impl LintId {
    /// The kebab-case id.
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::Structure => "structure",
            LintId::PortName => "port-name",
            LintId::FloatingInput => "floating-input",
            LintId::CombCycle => "comb-cycle",
            LintId::OneHot => "one-hot",
            LintId::RangeDontCare => "range-dont-care",
            LintId::UnusedInput => "unused-input",
            LintId::DeadGate => "dead-gate",
            LintId::ConstFold => "const-fold",
            LintId::DffRank => "dff-rank",
            LintId::DupGate => "dup-gate",
            LintId::ConstOutput => "const-output",
        }
    }

    /// Parses a kebab-case id.
    pub fn parse(s: &str) -> Option<LintId> {
        ALL_LINTS.into_iter().find(|l| l.as_str() == s)
    }

    /// The built-in severity before any [`LintConfig`] override.
    pub fn default_severity(self) -> Severity {
        match self {
            LintId::Structure
            | LintId::PortName
            | LintId::FloatingInput
            | LintId::CombCycle
            | LintId::OneHot
            | LintId::RangeDontCare => Severity::Error,
            LintId::UnusedInput | LintId::DeadGate | LintId::ConstFold | LintId::DffRank => {
                Severity::Warn
            }
            LintId::DupGate | LintId::ConstOutput => Severity::Info,
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity, ordered `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never fails a lint run.
    Info,
    /// Suspicious but functional.
    Warn,
    /// The netlist violates a construction invariant.
    Error,
}

impl Severity {
    /// Lower-case label (`"error"`, `"warn"`, `"info"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a lint id, a severity, a message, and the offending
/// nets and/or ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: LintId,
    /// Severity after config overrides.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Offending net indices (capped per diagnostic; see message).
    pub nets: Vec<usize>,
    /// Offending port names.
    pub ports: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.lint, self.message)?;
        if !self.nets.is_empty() {
            let nets: Vec<String> = self.nets.iter().map(|n| n.to_string()).collect();
            write!(f, " (nets {})", nets.join(", "))?;
        }
        if !self.ports.is_empty() {
            write!(f, " (ports {})", self.ports.join(", "))?;
        }
        Ok(())
    }
}

/// Per-lint allow/deny configuration plus analysis budgets.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// BDD node budget for each one-hot bank query.
    pub node_budget: usize,
    /// CDCL conflict budget for each SAT escalation or range query.
    pub sat_conflict_budget: u64,
    /// Input-range contract `(input port name, exclusive bound)` for
    /// the `range-dont-care` pass; `None` disables the pass. The CLI
    /// supplies the converter contract (`"index"`, `n!`).
    pub range_bound: Option<(String, u64)>,
    /// `None` = suppressed; `Some(sev)` = overridden severity.
    overrides: HashMap<LintId, Option<Severity>>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            node_budget: DEFAULT_NODE_BUDGET,
            sat_conflict_budget: DEFAULT_SAT_CONFLICT_BUDGET,
            range_bound: None,
            overrides: HashMap::new(),
        }
    }
}

impl LintConfig {
    /// The default configuration (all lints at built-in severities).
    pub fn new() -> Self {
        Self::default()
    }

    /// Suppresses a lint entirely.
    pub fn allow(mut self, lint: LintId) -> Self {
        self.overrides.insert(lint, None);
        self
    }

    /// Promotes a lint to `Error`.
    pub fn deny(mut self, lint: LintId) -> Self {
        self.overrides.insert(lint, Some(Severity::Error));
        self
    }

    /// Sets an explicit severity for a lint.
    pub fn set_severity(mut self, lint: LintId, severity: Severity) -> Self {
        self.overrides.insert(lint, Some(severity));
        self
    }

    /// Sets the CDCL conflict budget for SAT escalation and range
    /// queries.
    pub fn with_sat_conflict_budget(mut self, conflicts: u64) -> Self {
        self.sat_conflict_budget = conflicts;
        self
    }

    /// Declares the input-range contract `port < bound`, enabling the
    /// `range-dont-care` pass.
    pub fn with_range_bound(mut self, port: impl Into<String>, bound: u64) -> Self {
        self.range_bound = Some((port.into(), bound));
        self
    }

    /// The effective severity of a lint, or `None` if suppressed.
    pub fn severity(&self, lint: LintId) -> Option<Severity> {
        match self.overrides.get(&lint) {
            Some(over) => *over,
            None => Some(lint.default_severity()),
        }
    }
}

/// The outcome of a lint run: all diagnostics, pass order preserved.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings that survived the config filter.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// `true` iff the run produced no `Error` diagnostics — the bar the
    /// generator test suites hold every family to.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Diagnostics from one lint.
    pub fn of(&self, lint: LintId) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.lint == lint)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "{} error(s), {} warning(s), {} info(s)",
            self.error_count(),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )
    }
}

/// How many offending nets a single diagnostic lists before truncating.
const NET_LIST_CAP: usize = 8;

/// Runs every pass over `netlist` under the default [`LintConfig`].
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    lint_netlist_with(netlist, &LintConfig::default())
}

/// Runs every pass over `netlist` under an explicit config.
pub fn lint_netlist_with(netlist: &Netlist, config: &LintConfig) -> LintReport {
    Linter::new(netlist, config).run()
}

struct Linter<'a> {
    netlist: &'a Netlist,
    config: &'a LintConfig,
    report: LintReport,
    /// Set when the structure pass saw out-of-range references: the
    /// graph passes would index out of bounds, so they are skipped.
    out_of_range: bool,
    /// Banks the one-hot pass could not prove unconditionally
    /// (refuted or skipped), queued for the range-don't-care pass.
    unproved_banks: Vec<(usize, Vec<NetId>)>,
}

impl<'a> Linter<'a> {
    fn new(netlist: &'a Netlist, config: &'a LintConfig) -> Self {
        Linter {
            netlist,
            config,
            report: LintReport::default(),
            out_of_range: false,
            unproved_banks: Vec::new(),
        }
    }

    fn emit(&mut self, lint: LintId, message: String, nets: Vec<usize>, ports: Vec<String>) {
        if let Some(severity) = self.config.severity(lint) {
            self.report.diagnostics.push(Diagnostic {
                lint,
                severity,
                message,
                nets,
                ports,
            });
        }
    }

    /// Like [`Self::emit`], but never above `cap` — for findings that
    /// report an *unknown* or advisory condition under a lint whose
    /// configured severity reflects its refutation case.
    fn emit_capped(
        &mut self,
        lint: LintId,
        cap: Severity,
        message: String,
        nets: Vec<usize>,
        ports: Vec<String>,
    ) {
        if let Some(severity) = self.config.severity(lint) {
            self.report.diagnostics.push(Diagnostic {
                lint,
                severity: severity.min(cap),
                message,
                nets,
                ports,
            });
        }
    }

    fn run(mut self) -> LintReport {
        self.pass_structure();
        if !self.out_of_range {
            self.pass_comb_cycle();
            self.pass_one_hot();
            self.pass_range_dont_care();
            self.pass_unused_input();
            self.pass_dead_gate();
            self.pass_const_fold();
            self.pass_dff_rank();
            self.pass_dup_gate();
            self.pass_const_output();
        }
        self.report
    }

    /// Structure, port-name and floating-input lints, all derived from
    /// the single [`Netlist::check_structure`] enumeration.
    fn pass_structure(&mut self) {
        for issue in self.netlist.check_structure() {
            let message = issue.to_string();
            match issue {
                StructuralIssue::OutOfRangeRef { gate, .. } => {
                    self.out_of_range = true;
                    self.emit(LintId::Structure, message, vec![gate], vec![]);
                }
                StructuralIssue::PortNetOutOfRange { port, .. } => {
                    self.out_of_range = true;
                    self.emit(LintId::Structure, message, vec![], vec![port]);
                }
                StructuralIssue::ForwardRef { gate, .. } => {
                    self.emit(LintId::Structure, message, vec![gate], vec![]);
                }
                StructuralIssue::InputPortNonInput { port, net, .. } => {
                    self.emit(LintId::Structure, message, vec![net.index()], vec![port]);
                }
                StructuralIssue::SharedInputBit { net, port } => {
                    self.emit(LintId::Structure, message, vec![net.index()], vec![port]);
                }
                StructuralIssue::DuplicatePortName { name, .. } => {
                    self.emit(LintId::PortName, message, vec![], vec![name]);
                }
                StructuralIssue::ZeroWidthPort { name, .. } => {
                    self.emit(LintId::PortName, message, vec![], vec![name]);
                }
                StructuralIssue::EmptyPortName { .. } => {
                    self.emit(LintId::PortName, message, vec![], vec![]);
                }
                StructuralIssue::OrphanInputGate { net } => {
                    self.emit(LintId::FloatingInput, message, vec![net.index()], vec![]);
                }
            }
        }
    }

    /// Combinational cycles via iterative Tarjan SCC over the
    /// combinational subgraph (a DFF output is a sequential boundary, so
    /// its fanin edge is not followed). Creation order proves acyclicity
    /// for builder output, but `with_gate_replaced` can produce forward
    /// references — this pass distinguishes a harmless forward wire from
    /// a genuine cycle.
    fn pass_comb_cycle(&mut self) {
        let gates = self.netlist.gates();
        let n = gates.len();
        // Tarjan, iteratively (netlists reach 10^5 gates; recursion
        // would overflow). Successors of net v: the fanins of v's gate,
        // if v is combinational.
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, next-successor cursor).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let succs = |v: usize| -> Vec<usize> {
            if gates[v].is_combinational() {
                gates[v].fanin().map(|f| f.index()).collect()
            } else {
                Vec::new()
            }
        };
        for root in 0..n {
            if index[root] != u32::MAX {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if *cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let ss = succs(v);
                if let Some(&w) = ss.get(*cursor) {
                    *cursor += 1;
                    if index[w] == u32::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    // v is done; pop and propagate lowlink.
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        // Single nodes are cycles only if self-looping.
                        if scc.len() > 1 || succs(v).contains(&v) {
                            sccs.push(scc);
                        }
                    }
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        for mut scc in sccs {
            scc.sort_unstable();
            let total = scc.len();
            scc.truncate(NET_LIST_CAP);
            self.emit(
                LintId::CombCycle,
                format!("combinational cycle through {total} gate(s)"),
                scc,
                vec![],
            );
        }
    }

    /// Proves every recorded one-hot select bank exactly one-hot via
    /// `hwperm-verify`'s tiered query: structural, then bounded BDD,
    /// then SAT escalation when the node budget is exhausted.
    /// Refutations are errors; a check that exhausts *every* budget is
    /// reported as an explicit `skipped` finding (capped at Warn — the
    /// property is unknown, not false), never passed silently.
    fn pass_one_hot(&mut self) {
        for (bank_idx, bank) in self.netlist.one_hot_banks().iter().enumerate() {
            let result = check_one_hot_bank_escalated(
                self.netlist,
                bank,
                self.config.node_budget,
                self.config.sat_conflict_budget,
            );
            let nets: Vec<usize> = bank.iter().take(NET_LIST_CAP).map(|n| n.index()).collect();
            match result.status {
                OneHotStatus::ProvedStructural
                | OneHotStatus::ProvedBdd
                | OneHotStatus::ProvedSat => {}
                OneHotStatus::Refuted { assignment } => {
                    let witness: Vec<String> = assignment
                        .iter()
                        .take(NET_LIST_CAP)
                        .map(|(net, v)| format!("net {net}={}", u8::from(*v)))
                        .collect();
                    self.emit(
                        LintId::OneHot,
                        format!(
                            "select bank {bank_idx} ({} lines) is not one-hot; witness: {}",
                            bank.len(),
                            witness.join(", ")
                        ),
                        nets,
                        vec![],
                    );
                    self.unproved_banks.push((bank_idx, bank.clone()));
                }
                // The escalated checker never returns a bare
                // `BudgetExceeded`, but the match stays total: fold it
                // into the skipped report.
                OneHotStatus::BudgetExceeded { nodes } => {
                    let (bdd_nodes, sat_conflicts) = (nodes, self.config.sat_conflict_budget);
                    self.emit_capped(
                        LintId::OneHot,
                        Severity::Warn,
                        format!(
                            "select bank {bank_idx} ({} lines) skipped: unverified after \
                             BDD budget ({bdd_nodes} nodes) and SAT budget ({sat_conflicts} \
                             conflicts) were exhausted",
                            bank.len()
                        ),
                        nets,
                        vec![],
                    );
                    self.unproved_banks.push((bank_idx, bank.clone()));
                }
                OneHotStatus::Skipped {
                    bdd_nodes,
                    sat_conflicts,
                } => {
                    self.emit_capped(
                        LintId::OneHot,
                        Severity::Warn,
                        format!(
                            "select bank {bank_idx} ({} lines) skipped: unverified after \
                             BDD budget ({bdd_nodes} nodes) and SAT budget ({sat_conflicts} \
                             conflicts) were exhausted",
                            bank.len()
                        ),
                        nets,
                        vec![],
                    );
                    self.unproved_banks.push((bank_idx, bank.clone()));
                }
                OneHotStatus::ConeInvalid(why) => {
                    self.emit(
                        LintId::OneHot,
                        format!("select bank {bank_idx} has an invalid fanin cone: {why}"),
                        nets,
                        vec![],
                    );
                }
            }
        }
    }

    /// Range don't-care safety: every bank the one-hot pass could not
    /// prove unconditionally is re-queried by SAT under the configured
    /// input-range contract `port < bound`. A proof means the
    /// violation needs an out-of-range input — advisory (Info), the
    /// circuit is safe wherever the contract holds (the converter's
    /// index port only carries values below `n!`). A refutation is an
    /// in-range violation and keeps the configured (Error) severity.
    fn pass_range_dont_care(&mut self) {
        let Some((port_name, bound)) = self.config.range_bound.clone() else {
            return;
        };
        let banks = std::mem::take(&mut self.unproved_banks);
        if banks.is_empty() {
            return;
        }
        let Some(port) = self.netlist.input_port(&port_name) else {
            self.emit(
                LintId::RangeDontCare,
                format!("range contract references missing input port {port_name}"),
                vec![],
                vec![port_name],
            );
            return;
        };
        let port_nets = port.nets.clone();
        for (bank_idx, bank) in banks {
            let result = check_one_hot_bank_sat(
                self.netlist,
                &bank,
                Some((&port_nets, bound)),
                Some(self.config.sat_conflict_budget),
            );
            let nets: Vec<usize> = bank.iter().take(NET_LIST_CAP).map(|n| n.index()).collect();
            match result.status {
                OneHotStatus::ProvedStructural
                | OneHotStatus::ProvedBdd
                | OneHotStatus::ProvedSat => {
                    self.emit_capped(
                        LintId::RangeDontCare,
                        Severity::Info,
                        format!(
                            "select bank {bank_idx} is one-hot for all {port_name} < {bound}: \
                             remaining violations are range don't-care",
                        ),
                        nets,
                        vec![port_name.clone()],
                    );
                }
                OneHotStatus::Refuted { assignment } => {
                    let witness: Vec<String> = assignment
                        .iter()
                        .take(NET_LIST_CAP)
                        .map(|(net, v)| format!("net {net}={}", u8::from(*v)))
                        .collect();
                    self.emit(
                        LintId::RangeDontCare,
                        format!(
                            "select bank {bank_idx} is not one-hot even within \
                             {port_name} < {bound}; witness: {}",
                            witness.join(", ")
                        ),
                        nets,
                        vec![port_name.clone()],
                    );
                }
                OneHotStatus::Skipped { sat_conflicts, .. } => {
                    self.emit_capped(
                        LintId::RangeDontCare,
                        Severity::Warn,
                        format!(
                            "select bank {bank_idx} skipped: range query exhausted the SAT \
                             budget ({sat_conflicts} conflicts)",
                        ),
                        nets,
                        vec![port_name.clone()],
                    );
                }
                OneHotStatus::BudgetExceeded { .. } => {
                    let sat_conflicts = self.config.sat_conflict_budget;
                    self.emit_capped(
                        LintId::RangeDontCare,
                        Severity::Warn,
                        format!(
                            "select bank {bank_idx} skipped: range query exhausted the SAT \
                             budget ({sat_conflicts} conflicts)",
                        ),
                        nets,
                        vec![port_name.clone()],
                    );
                }
                OneHotStatus::ConeInvalid(why) => {
                    self.emit(
                        LintId::RangeDontCare,
                        format!("select bank {bank_idx} has an invalid fanin cone: {why}"),
                        nets,
                        vec![port_name.clone()],
                    );
                }
            }
        }
    }

    /// Input port bits with zero fanout.
    fn pass_unused_input(&mut self) {
        let fanout = self.netlist.fanout();
        for port in self.netlist.input_ports() {
            let unused: Vec<usize> = port
                .nets
                .iter()
                .enumerate()
                .filter(|(_, net)| fanout[net.index()] == 0)
                .map(|(bit, _)| bit)
                .collect();
            if !unused.is_empty() {
                let bits: Vec<String> = unused
                    .iter()
                    .take(NET_LIST_CAP)
                    .map(usize::to_string)
                    .collect();
                self.emit(
                    LintId::UnusedInput,
                    format!(
                        "input port {} has {} unused bit(s): [{}]",
                        port.name,
                        unused.len(),
                        bits.join(", ")
                    ),
                    unused
                        .iter()
                        .take(NET_LIST_CAP)
                        .map(|&b| port.nets[b].index())
                        .collect(),
                    vec![port.name.clone()],
                );
            }
        }
    }

    /// Gates whose value can never reach an output port (extends
    /// [`Netlist::live_mask`] with a per-kind summary). Synthesis sweeps
    /// these, but a generator emitting them is doing wasted work — the
    /// converter's subtractors, for instance, compute borrow bits that
    /// the narrowing index bus never reads.
    fn pass_dead_gate(&mut self) {
        let mut live = self.netlist.live_mask();
        // Recorded one-hot banks are assertion points: their member nets
        // are observed by the one-hot pass even when every mux consumer
        // folded away (e.g. a select line whose choice column is all
        // constant zero). Treat them as liveness roots so an asserted
        // digit line is not reported dead.
        let mut work: Vec<usize> = self
            .netlist
            .one_hot_banks()
            .iter()
            .flatten()
            .map(|n| n.index())
            .filter(|&i| i < live.len() && !live[i])
            .collect();
        while let Some(i) = work.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            for f in self.netlist.gates()[i].fanin() {
                if !live[f.index()] {
                    work.push(f.index());
                }
            }
        }
        let dead: Vec<usize> = (0..self.netlist.len())
            .filter(|&i| !live[i] && self.netlist.gates()[i].is_combinational())
            .collect();
        if dead.is_empty() {
            return;
        }
        let total = dead.len();
        self.emit(
            LintId::DeadGate,
            format!("{total} combinational gate(s) unreachable from any output"),
            dead.into_iter().take(NET_LIST_CAP).collect(),
            vec![],
        );
    }

    /// Gates the builder's peephole rules would have folded: constant
    /// operands, idempotent or complementary operand pairs, `Mux` with a
    /// constant select or equal branches. Builder output contains none
    /// of these, so any hit means the netlist bypassed the builder.
    fn pass_const_fold(&mut self) {
        let gates = self.netlist.gates();
        let is_const = |n: hwperm_logic::NetId| matches!(gates[n.index()], Gate::Const(_));
        let complementary = |x: hwperm_logic::NetId, y: hwperm_logic::NetId| {
            gates[x.index()] == Gate::Not(y) || gates[y.index()] == Gate::Not(x)
        };
        for (i, g) in gates.iter().enumerate() {
            let foldable = match *g {
                Gate::Not(a) => is_const(a) || matches!(gates[a.index()], Gate::Not(_)),
                Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                    is_const(a) || is_const(b) || a == b || complementary(a, b)
                }
                Gate::Mux { sel, a, b } => is_const(sel) || a == b || (is_const(a) && is_const(b)),
                Gate::Const(_) | Gate::Input | Gate::Dff { .. } => false,
            };
            if foldable {
                self.emit(
                    LintId::ConstFold,
                    format!("gate {i} ({g:?}) is foldable by builder rules"),
                    vec![i],
                    vec![],
                );
            }
        }
    }

    /// Pipeline rank discipline: assigns each net a register rank
    /// (inputs are rank 0, a DFF is one more than its data) and flags
    /// combinational gates whose fanins carry *different* defined ranks
    /// — a combinational path spanning a register-rank boundary, which
    /// breaks the "one stage per clock" contract of pipelined
    /// netlists. Nets in register feedback loops (LFSRs) never
    /// stabilise and are excluded, as are constants.
    fn pass_dff_rank(&mut self) {
        let gates = self.netlist.gates();
        let n = gates.len();
        let mut rank: Vec<Option<u32>> = vec![None; n];
        // Iterate to fixpoint. Feed-forward pipelines settle in two
        // sweeps (DFF data normally references earlier nets); feedback
        // loops would grow forever, so divergence is cut off and the
        // still-changing nets are left unranked.
        const MAX_SWEEPS: usize = 4;
        for _ in 0..MAX_SWEEPS {
            let mut changed = false;
            for i in 0..n {
                let new = match gates[i] {
                    Gate::Input => Some(0),
                    Gate::Const(_) => None, // rank-agnostic
                    Gate::Dff { d, .. } => rank[d.index()].map(|r| r + 1),
                    ref g => {
                        // Max over defined fanin ranks; fully undefined
                        // fanins leave the gate unranked.
                        g.fanin().filter_map(|f| rank[f.index()]).max()
                    }
                };
                if new.is_some() && new != rank[i] {
                    rank[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // A rank that is still moving after the sweeps belongs to a
        // feedback loop; discard it rather than report phantom skew.
        let mut diverged = vec![false; n];
        for i in 0..n {
            let again = match gates[i] {
                Gate::Input => Some(0),
                Gate::Const(_) => None,
                Gate::Dff { d, .. } => rank[d.index()].map(|r| r + 1),
                ref g => g.fanin().filter_map(|f| rank[f.index()]).max(),
            };
            if again != rank[i] {
                diverged[i] = true;
            }
        }
        // Propagate divergence forward (and through DFF data edges).
        for _ in 0..2 {
            for i in 0..n {
                if gates[i].fanin().any(|f| diverged[f.index()]) {
                    diverged[i] = true;
                }
            }
        }
        let mut flagged = 0usize;
        let mut sample: Vec<usize> = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            if !g.is_combinational() || diverged[i] {
                continue;
            }
            let ranks: Vec<u32> = g
                .fanin()
                .filter(|f| !diverged[f.index()])
                .filter_map(|f| rank[f.index()])
                .collect();
            if ranks.iter().any(|&r| r != ranks[0]) {
                flagged += 1;
                if sample.len() < NET_LIST_CAP {
                    sample.push(i);
                }
            }
        }
        if flagged > 0 {
            self.emit(
                LintId::DffRank,
                format!("{flagged} combinational gate(s) mix pipeline register ranks"),
                sample,
                vec![],
            );
        }
    }

    /// Structural CSE: two gates computing the same function of the
    /// same nets (commutative operands canonicalised). Advisory — the
    /// builder does not CSE, so generators may legitimately repeat
    /// small terms.
    fn pass_dup_gate(&mut self) {
        #[derive(PartialEq, Eq, Hash)]
        enum Key {
            Unary(u8, usize),
            Binary(u8, usize, usize),
            Mux(usize, usize, usize),
        }
        let mut seen: HashMap<Key, usize> = HashMap::new();
        let mut dups: Vec<usize> = Vec::new();
        for (i, g) in self.netlist.gates().iter().enumerate() {
            let key = match *g {
                Gate::Not(a) => Key::Unary(0, a.index()),
                Gate::And(a, b) => {
                    Key::Binary(1, a.index().min(b.index()), a.index().max(b.index()))
                }
                Gate::Or(a, b) => {
                    Key::Binary(2, a.index().min(b.index()), a.index().max(b.index()))
                }
                Gate::Xor(a, b) => {
                    Key::Binary(3, a.index().min(b.index()), a.index().max(b.index()))
                }
                Gate::Mux { sel, a, b } => Key::Mux(sel.index(), a.index(), b.index()),
                Gate::Const(_) | Gate::Input | Gate::Dff { .. } => continue,
            };
            if seen.insert(key, i).is_some() {
                dups.push(i);
            }
        }
        if !dups.is_empty() {
            let total = dups.len();
            self.emit(
                LintId::DupGate,
                format!("{total} gate(s) duplicate an earlier identical gate (missed CSE)"),
                dups.into_iter().take(NET_LIST_CAP).collect(),
                vec![],
            );
        }
    }

    /// Output port bits wired to constants.
    fn pass_const_output(&mut self) {
        for port in self.netlist.output_ports() {
            let tied: Vec<usize> = port
                .nets
                .iter()
                .enumerate()
                .filter(|(_, net)| matches!(self.netlist.gates()[net.index()], Gate::Const(_)))
                .map(|(bit, _)| bit)
                .collect();
            if !tied.is_empty() {
                self.emit(
                    LintId::ConstOutput,
                    format!(
                        "output port {} has {} bit(s) tied to constants",
                        port.name,
                        tied.len()
                    ),
                    tied.iter()
                        .take(NET_LIST_CAP)
                        .map(|&b| port.nets[b].index())
                        .collect(),
                    vec![port.name.clone()],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    fn simple_netlist() -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let y = b.and(x[0], x[1]);
        b.output_bus("y", &[y]);
        b.finish()
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let report = lint_netlist(&simple_netlist());
        assert!(report.is_clean());
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn config_allow_suppresses_and_deny_promotes() {
        // `finish()` sweeps dead gates, so orphan one after the fact:
        // reroute the Xor to read the And twice, stranding the Or.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let y = b.and(x[0], x[1]);
        let w = b.or(x[0], x[1]);
        let z = b.xor(y, w);
        b.output_bus("y", &[y]);
        b.output_bus("z", &[z]);
        let nl = b.finish();
        let nl = nl.with_gate_replaced(z.index(), Gate::Xor(y, y));

        let default = lint_netlist(&nl);
        assert_eq!(default.of(LintId::DeadGate).count(), 1);
        assert!(default.is_clean());

        let allowed = lint_netlist_with(&nl, &LintConfig::new().allow(LintId::DeadGate));
        assert_eq!(allowed.of(LintId::DeadGate).count(), 0);

        let denied = lint_netlist_with(&nl, &LintConfig::new().deny(LintId::DeadGate));
        assert!(!denied.is_clean());
    }

    #[test]
    fn comb_cycle_detected_after_mutation() {
        let nl = simple_netlist();
        // Make the And feed on itself: a genuine combinational cycle.
        let and_net = nl.output_port("y").unwrap().nets[0];
        let broken = nl.with_gate_replaced(and_net.index(), Gate::And(and_net, and_net));
        let report = lint_netlist(&broken);
        assert!(report.of(LintId::CombCycle).count() >= 1, "{report}");
        assert!(!report.is_clean());
    }

    /// A decoder bank over adder sum bits with `record_one_hot_bank`:
    /// genuinely one-hot, but too wide for a 4-node BDD budget.
    /// `broken_lines` > 0 drops that many trailing lines, making the
    /// bank refutable (the dropped codes hit zero lines).
    fn adder_decoder_bank(broken_lines: usize) -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, _) = b.add(&x, &y);
        let lines = b.decoder(&s[..3], 8);
        let bank = &lines[..lines.len() - broken_lines];
        b.record_one_hot_bank(bank);
        b.output_bus("hot", bank);
        b.output_bus("sum", &s); // keep every input bit live
        b.finish()
    }

    #[test]
    fn sat_escalation_closes_bdd_budget_gap() {
        // Before the SAT tier this config produced an "unverified"
        // warning; now the escalated proof leaves a clean report.
        let nl = adder_decoder_bank(0);
        let config = LintConfig::new();
        let starved = LintConfig {
            node_budget: 4,
            ..config
        };
        let report = lint_netlist_with(&nl, &starved);
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn exhausted_budgets_emit_explicit_skipped_finding() {
        // Satellite pin: with every budget starved the pass must say
        // "skipped" out loud (capped at Warn), never pass silently.
        let nl = adder_decoder_bank(0);
        let starved = LintConfig {
            node_budget: 4,
            ..LintConfig::new()
        }
        .with_sat_conflict_budget(0);
        let report = lint_netlist_with(&nl, &starved);
        let findings: Vec<_> = report.of(LintId::OneHot).collect();
        assert_eq!(findings.len(), 1, "{report}");
        assert_eq!(findings[0].severity, Severity::Warn);
        assert!(findings[0].message.contains("skipped"), "{report}");
    }

    #[test]
    fn mutated_bank_is_refuted_by_escalation_not_skipped() {
        // The SAT tier must produce a real refutation when the BDD
        // budget is starved — a skip here would hide the mutation.
        let nl = adder_decoder_bank(1);
        let starved = LintConfig {
            node_budget: 4,
            ..LintConfig::new()
        };
        let report = lint_netlist_with(&nl, &starved);
        let findings: Vec<_> = report.of(LintId::OneHot).collect();
        assert_eq!(findings.len(), 1, "{report}");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("not one-hot"), "{report}");
        assert!(!report.is_clean());
    }

    /// Three decoder lines over a 2-bit port: violated only at
    /// `index == 3`.
    fn truncated_decoder_bank() -> Netlist {
        let mut b = Builder::new();
        let index = b.input_bus("index", 2);
        let lines = b.decoder(&index, 3);
        b.record_one_hot_bank(&lines);
        b.output_bus("hot", &lines);
        b.finish()
    }

    #[test]
    fn range_dont_care_downgrades_out_of_range_violation() {
        let nl = truncated_decoder_bank();
        let config = LintConfig::new().with_range_bound("index", 3);
        let report = lint_netlist_with(&nl, &config);
        // The unconditional refutation still fires as an error...
        assert_eq!(report.of(LintId::OneHot).count(), 1);
        // ...and the range pass proves it confined to the don't-care
        // region.
        let findings: Vec<_> = report.of(LintId::RangeDontCare).collect();
        assert_eq!(findings.len(), 1, "{report}");
        assert_eq!(findings[0].severity, Severity::Info);
        assert!(findings[0].message.contains("don't-care"), "{report}");
    }

    #[test]
    fn range_dont_care_keeps_in_range_violation_as_error() {
        let nl = truncated_decoder_bank();
        let config = LintConfig::new().with_range_bound("index", 4);
        let report = lint_netlist_with(&nl, &config);
        let findings: Vec<_> = report.of(LintId::RangeDontCare).collect();
        assert_eq!(findings.len(), 1, "{report}");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("even within"), "{report}");
    }

    #[test]
    fn range_dont_care_is_silent_without_a_contract() {
        let report = lint_netlist(&truncated_decoder_bank());
        assert_eq!(report.of(LintId::RangeDontCare).count(), 0);
        // The missing-port misconfiguration is reported, not ignored.
        let config = LintConfig::new().with_range_bound("no-such-port", 4);
        let report = lint_netlist_with(&truncated_decoder_bank(), &config);
        let findings: Vec<_> = report.of(LintId::RangeDontCare).collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("missing input port"));
    }

    #[test]
    fn lint_id_round_trips() {
        for lint in ALL_LINTS {
            assert_eq!(LintId::parse(lint.as_str()), Some(lint));
        }
        assert_eq!(LintId::parse("no-such-lint"), None);
    }
}
