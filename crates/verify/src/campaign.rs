//! Single-stuck-at fault campaigns over combinational netlists.
//!
//! A campaign answers the robustness question the exhaustive sweeps
//! cannot: *if a gate breaks, does the output betray it?* For every
//! fault in the single-stuck-at universe (each net stuck at 0 and at
//! 1), the campaign ([`stuck_at_campaign_wide`]) sweeps the whole index
//! space and classifies the fault against the golden expectation:
//!
//! - **detected** — the output diverges somewhere, and every divergence
//!   fails the cheap validity predicate (a runtime guard would always
//!   catch it);
//! - **silent** — some divergence passes the validity predicate: the
//!   output is a well-formed word that is simply *wrong* (the dangerous
//!   class a validity-only guard cannot see);
//! - **masked** — the output never diverges (logic downstream absorbs
//!   the fault).
//!
//! Without a validity predicate every divergence counts as detected,
//! so `detected + silent` is always "the fault is observable at the
//! output" — the classic fault-coverage numerator.
//!
//! The sweep is parallel-pattern single-fault propagation (PPSFP;
//! Waicukauski et al., "Fault simulation for structured VLSI", *VLSI
//! Systems Design*, 1985): **one index per lane**, so a batch of 64
//! (`u64`), 256 or 512 (the wide words) indices settles fault-free
//! once, and then each fault whose verdict is still open forces its net
//! through a `FaultOverlay`, re-runs only the tape ops in its fan-out
//! cone, and restores them. A fault retires from the sweep once its
//! verdict is final, in its own shard and in every later one.
//!
//! Each faulty circuit is simulated once. Structural fault collapsing
//! (Abramovici, Breuer and Friedman, *Digital Systems Testing and
//! Testable Design*, ch. 4) joins a stuck input of a `Not`, `And` or
//! `Or` whose only reader is that gate with the stuck output it forces;
//! one overlay runs per class, and the class verdict is copied to every
//! member. In a batch whose fault-free wave meets the table, a class
//! whose net already holds its stuck value on every live lane cannot
//! diverge, so it skips the cone (the excitation gate); in a batch the
//! wave misses, every open class runs.
//!
//! Witnesses are deterministic: each fault reports the lowest diverging
//! index (and, for silent faults, the lowest *validly* diverging
//! index). Sharding uses the exhaustive sweeps' split:
//! [`hwperm_factoradic::fan_out`] over contiguous ascending shards of
//! the index batches. Each shard reports its own lowest sightings, and
//! the first sighting in shard order is the lowest index; lanes never
//! mix, so the report is byte-identical for every worker count and
//! every `SimWord` width.
//!
//! Campaigns always run the canonical (unfused) tape: faults target
//! arbitrary nets, and opcode fusion elides nets, which would make the
//! fault universe unresolvable.

use crate::exhaustive::{port_width_checked, WideExpectation};
use hwperm_factoradic::fan_out;
use hwperm_faults::{FaultOverlay, FaultSpec};
use hwperm_logic::{BatchSim, Gate, NetId, Netlist, SimProgram, SimWord, LANES};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How one fault manifested over the exhaustive index sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Output diverged, and every divergence failed the validity
    /// predicate. `witness` is the lowest diverging index.
    Detected {
        /// Lowest index at which the faulted output diverges.
        witness: u64,
    },
    /// Some divergence passed the validity predicate — a well-formed
    /// but wrong word. `witness` is the lowest such index.
    Silent {
        /// Lowest index at which the faulted output is valid but wrong.
        witness: u64,
    },
    /// The output never diverged from the golden table.
    Masked,
}

/// One fault paired with its campaign verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultVerdict {
    /// The injected fault.
    pub fault: FaultSpec,
    /// What the sweep observed.
    pub outcome: FaultOutcome,
}

/// The full campaign result: one verdict per fault, in universe order
/// (net-major, stuck-at-0 before stuck-at-1).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-fault verdicts, in fault-universe order.
    pub verdicts: Vec<FaultVerdict>,
}

impl CampaignReport {
    /// Faults in the universe.
    pub fn total(&self) -> usize {
        self.verdicts.len()
    }

    /// Faults observable and always invalid at the output.
    pub fn detected(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.outcome, FaultOutcome::Detected { .. }))
            .count()
    }

    /// Faults observable as valid-but-wrong words.
    pub fn silent(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.outcome, FaultOutcome::Silent { .. }))
            .count()
    }

    /// Faults never observable at the output.
    pub fn masked(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.outcome == FaultOutcome::Masked)
            .count()
    }

    /// Classic fault coverage: observable faults (detected + silent)
    /// over the whole universe, in percent. 100 for an empty universe.
    pub fn coverage_percent(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 100.0;
        }
        (self.detected() + self.silent()) as f64 * 100.0 / self.total() as f64
    }

    /// How much of the observable universe a validity-only runtime
    /// guard catches: detected over (detected + silent), in percent.
    /// 100 when nothing is observable.
    pub fn guard_coverage_percent(&self) -> f64 {
        let observable = self.detected() + self.silent();
        if observable == 0 {
            return 100.0;
        }
        self.detected() as f64 * 100.0 / observable as f64
    }

    /// The silent faults, in universe order — the list a guard designer
    /// has to worry about.
    pub fn silent_faults(&self) -> impl Iterator<Item = &FaultVerdict> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.outcome, FaultOutcome::Silent { .. }))
    }
}

/// The single-stuck-at fault universe of a netlist: stuck-at-0 and
/// stuck-at-1 on every net, net-major (`2 · nets` faults).
pub fn single_stuck_at_universe(netlist: &Netlist) -> Vec<FaultSpec> {
    (0..netlist.len() as u32)
        .flat_map(|i| {
            [false, true].map(|value| FaultSpec::StuckAt {
                net: NetId::forged(i),
                value,
            })
        })
        .collect()
}

/// Structural equivalence classes of [`single_stuck_at_universe`]
/// (fault `2·net + value`), by fault collapsing (Abramovici, Breuer and
/// Friedman, *Digital Systems Testing and Testable Design*, ch. 4). A
/// net whose only reader is one gate input (`Netlist::fanout() == 1`,
/// which counts output-port bits, so a port bit never collapses) makes
/// the same faulty circuit as the gate's output `o` stuck at the value
/// it then forces:
///
/// - `Not(a)`: a/0 ≡ o/1 and a/1 ≡ o/0;
/// - `And(a, b)`, a ≠ b: x/0 ≡ o/0 for either input x;
/// - `Or(a, b)`, a ≠ b: x/1 ≡ o/1 for either input x.
///
/// `Xor` and `Mux` have no rule: no stuck input fixes their output.
/// Returns each fault's class root. Every edge joins an input fault to
/// its reader's output fault and each net has one reader, so a class is
/// a tree whose root is its most downstream fault, the one with the
/// smallest fan-out cone.
fn collapsed_stuck_at_classes(netlist: &Netlist) -> Vec<usize> {
    fn root(parent: &mut [usize], mut fault: usize) -> usize {
        while parent[fault] != fault {
            parent[fault] = parent[parent[fault]];
            fault = parent[fault];
        }
        fault
    }
    let fanout = netlist.fanout();
    let mut parent: Vec<usize> = (0..2 * netlist.len()).collect();
    for (o, gate) in netlist.gates().iter().enumerate() {
        // (input, its stuck value, the output's stuck value)
        let rules = match *gate {
            Gate::Not(a) => [(a, false, true), (a, true, false)],
            Gate::And(a, b) if a != b => [(a, false, false), (b, false, false)],
            Gate::Or(a, b) if a != b => [(a, true, true), (b, true, true)],
            _ => continue,
        };
        for (x, x_value, o_value) in rules {
            if fanout[x.index()] == 1 {
                let from = root(&mut parent, 2 * x.index() + usize::from(x_value));
                let to = root(&mut parent, 2 * o + usize::from(o_value));
                parent[from] = to;
            }
        }
    }
    (0..parent.len()).map(|f| root(&mut parent, f)).collect()
}

/// One structurally distinct faulty circuit of a campaign: the overlay
/// of its class representative, plus the slot that overlay forces and
/// the stuck value splat across every lane, which tell whether a batch
/// excites the fault at all.
struct FaultClass<W: SimWord> {
    overlay: FaultOverlay<W>,
    slot: usize,
    stuck: W,
    /// The lowest start of a shard that has made this class's verdict
    /// final (`usize::MAX` while none has).
    finalized: AtomicUsize,
}

impl<W: SimWord> FaultClass<W> {
    /// The class represented by fault `2·net + value` of the universe.
    fn new(program: &Arc<SimProgram>, fault: usize) -> Self {
        let (net, value) = (NetId::forged((fault / 2) as u32), fault % 2 == 1);
        FaultClass {
            overlay: FaultOverlay::new(Arc::clone(program), &[FaultSpec::StuckAt { net, value }]),
            slot: program.slot(net),
            stuck: W::splat(value),
            finalized: AtomicUsize::new(usize::MAX),
        }
    }
}

/// What one shard saw of one fault: its lowest diverging index and its
/// lowest validly diverging index.
#[derive(Debug, Clone, Copy, Default)]
struct Witnesses {
    diverge: Option<u64>,
    silent: Option<u64>,
}

impl Witnesses {
    /// Records what `batch` of `table` shows at the output slots of
    /// `values`, the batch's faulted wave. Lanes are visited lowest
    /// first, so the recorded witnesses are the lowest. Returns `true`
    /// once the verdict is final: at the first divergence without a
    /// validity predicate, at the first valid divergence with one.
    fn observe<W: SimWord>(
        &mut self,
        values: &[W],
        out_slots: &[u32],
        table: &WideExpectation<W>,
        batch: usize,
        valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
    ) -> bool {
        let mut diff = W::zero();
        for (&slot, &want) in out_slots.iter().zip(table.wants(batch)) {
            diff = diff | (values[slot as usize] ^ want);
        }
        let diff = diff & table.live(batch);
        let Some(lane) = diff.first_lane() else {
            return false;
        };
        let first = (batch * W::LANES) as u64;
        self.diverge.get_or_insert(first + lane as u64);
        let Some(valid) = valid else {
            return true;
        };
        // Read diverging lanes 64 at a time: transposing a limb of the
        // output words makes each lane's output word one load.
        for k in 0..W::LANES.div_ceil(64) {
            let mut lanes = diff.limb(k);
            if lanes == 0 {
                continue;
            }
            let mut words = [0u64; 64];
            for (word, &slot) in words.iter_mut().zip(out_slots) {
                *word = values[slot as usize].limb(k);
            }
            transpose64(&mut words);
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                if valid(words[lane]) {
                    self.silent = Some(first + (64 * k + lane) as u64);
                    return true;
                }
                lanes &= lanes - 1;
            }
        }
        false
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `j` of row `i` trades
/// places with bit `i` of row `j`. Six rounds swap the off-diagonal
/// blocks of every 2w × 2w tile, halving w from 32 to 1 (H. S. Warren,
/// *Hacker's Delight*, 2nd ed., §7-3).
fn transpose64(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while width != 0 {
        for tile in rows.chunks_exact_mut(2 * width) {
            let (top, bottom) = tile.split_at_mut(width);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> width) ^ *b) & mask;
                *a ^= t << width;
                *b ^= t;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Sweeps the index batches in `batches` against every fault class, one
/// index per lane (parallel-pattern single-fault propagation): each
/// batch settles fault-free once, then every class whose verdict is
/// still open re-runs only its fan-out cone over that wave
/// ([`FaultOverlay::eval_cone`]) and puts the wave back
/// ([`FaultOverlay::restore`]). Where the fault-free wave meets the
/// table on every live lane, a class whose net already holds its stuck
/// value on every live lane leaves the wave as it is, so it cannot
/// diverge and skips the batch. Where the wave misses the table, every
/// open class runs: an unexcited fault still diverges there. A shard
/// drops a class once an earlier shard has made its verdict final:
/// that shard's witnesses come first in shard order, so later
/// sightings never reach the report. Returns each class's witnesses
/// within the range, in class order.
fn campaign_shard<W: SimWord>(
    program: &Arc<SimProgram>,
    classes: &[FaultClass<W>],
    input: &str,
    output: &str,
    table: &WideExpectation<W>,
    valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
    batches: Range<usize>,
) -> Vec<Witnesses> {
    let out_slots = program.output_slots(output);
    let mut sim = BatchSim::<W>::from_program(Arc::clone(program));
    let mut settled = Vec::new();
    let mut found = vec![Witnesses::default(); classes.len()];
    // Classes whose verdict this range can still change.
    let mut open: Vec<usize> = (0..classes.len()).collect();
    let start = batches.start;
    for batch in batches {
        if open.is_empty() {
            break;
        }
        sim.set_input_words(input, table.inputs(batch));
        sim.eval();
        settled.clear();
        settled.extend_from_slice(sim.tape().1);
        let live = table.live(batch);
        let meets = out_slots
            .iter()
            .zip(table.wants(batch))
            .all(|(&slot, &want)| !((settled[slot as usize] ^ want) & live).any());
        open.retain(|&c| {
            let class = &classes[c];
            // Relaxed: a stale read only delays the drop; the witnesses
            // travel back through the thread joins.
            if class.finalized.load(Ordering::Relaxed) < start {
                return false;
            }
            if meets && !((settled[class.slot] ^ class.stuck) & live).any() {
                return true;
            }
            class.overlay.eval_cone(&mut sim);
            let done = found[c].observe(sim.tape().1, out_slots, table, batch, valid);
            class.overlay.restore(&mut sim, &settled);
            if done {
                class.finalized.fetch_min(start, Ordering::Relaxed);
            }
            !done
        });
    }
    found
}

/// Checks campaign preconditions and compiles the shared tape.
fn campaign_program(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Arc<SimProgram> {
    assert!(
        netlist.register_count() == 0,
        "stuck-at campaigns require a combinational netlist ({} DFFs present)",
        netlist.register_count()
    );
    port_width_checked(netlist, input, output, expected);
    SimProgram::compile_shared(netlist.clone())
}

/// Runs the single-stuck-at campaign over `netlist`, sweeping every
/// fault against `expected` (element `i` = golden output word at input
/// index `i`). `valid` is the optional cheap validity predicate a
/// runtime guard would apply (e.g. packed permutation validity); with
/// `None`, every observable fault counts as detected.
///
/// Faults that make the same faulty circuit are simulated once: the
/// universe collapses into structural equivalence classes (a stuck
/// input of a `Not`, `And` or `Or` whose only reader is that gate
/// equals a stuck output), one overlay runs per class, and each class's
/// verdict is copied back to every member. Each lane carries one index,
/// so a [`SimWord::LANES`]-index batch — 64 at `u64`, 256 at
/// [`W256`](hwperm_logic::W256), 512 at [`W512`](hwperm_logic::W512) —
/// settles fault-free once, and each class whose verdict is still open
/// then re-simulates only its fan-out cone, unless the batch meets the
/// table and never excites the class's fault. The batches split over
/// `workers` contiguous ascending shards of
/// [`WideExpectation::batches`]; each fault's witnesses are its first
/// sightings in shard order, which are the lowest indices. The report
/// is byte-identical across widths and worker counts, and equal to
/// [`stuck_at_campaign_scalar`]'s.
///
/// # Panics
/// Panics if `workers == 0`, the netlist has registers, either port is
/// missing, the input port cannot represent every index, either port
/// exceeds the 64-bit `u64` fast path, or a table word has bits above
/// the output port.
pub fn stuck_at_campaign_wide<W: SimWord + Send + Sync>(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
    workers: usize,
) -> CampaignReport {
    let program = campaign_program(netlist, input, output, expected);
    let (in_bits, out_bits) = (
        program.input_slots(input).len(),
        program.output_slots(output).len(),
    );
    let table = WideExpectation::<W>::new(in_bits, out_bits, expected);
    let universe = single_stuck_at_universe(netlist);
    let roots = collapsed_stuck_at_classes(netlist);
    let reps: Vec<usize> = (0..universe.len()).filter(|&f| roots[f] == f).collect();
    let classes: Vec<FaultClass<W>> = reps.iter().map(|&f| FaultClass::new(&program, f)).collect();
    let shards = fan_out(table.batches(), workers, |batches| {
        campaign_shard(&program, &classes, input, output, &table, valid, batches)
    });
    let verdicts = universe
        .iter()
        .zip(&roots)
        .map(|(&fault, root)| {
            let c = reps.binary_search(root).expect("every root is a class");
            let first =
                |pick: fn(&Witnesses) -> Option<u64>| shards.iter().find_map(|s| pick(&s[c]));
            let outcome = match (first(|w| w.diverge), first(|w| w.silent)) {
                (None, _) => FaultOutcome::Masked,
                (Some(_), Some(witness)) => FaultOutcome::Silent { witness },
                (Some(witness), None) => FaultOutcome::Detected { witness },
            };
            FaultVerdict { fault, outcome }
        })
        .collect();
    CampaignReport { verdicts }
}

/// Scalar reference implementation of [`stuck_at_campaign_wide`]: one
/// `FaultOverlay<bool>` and `BatchSim<bool>` per fault, one tape walk
/// per (fault, index) pair. Kept for verdict parity; the repository benchmark times the
/// word-level campaign as `campaign_ms` (see `benchmark/README.md`).
///
/// # Panics
/// Same conditions as [`stuck_at_campaign_wide`] (minus `workers`).
pub fn stuck_at_campaign_scalar(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
) -> CampaignReport {
    let program = campaign_program(netlist, input, output, expected);
    let verdicts = single_stuck_at_universe(netlist)
        .into_iter()
        .map(|fault| {
            let overlay = FaultOverlay::<bool>::new(Arc::clone(&program), &[fault]);
            let mut sim = BatchSim::from_program(Arc::clone(&program));
            let mut first_diverge = None;
            let mut first_silent = None;
            for (index, &want) in expected.iter().enumerate() {
                sim.set_input_u64(input, index as u64);
                overlay.eval(&mut sim);
                let got = sim.read_output_lane_u64(output, 0);
                if got != want {
                    if first_diverge.is_none() {
                        first_diverge = Some(index as u64);
                    }
                    match valid {
                        None => break,
                        Some(valid) if valid(got) => {
                            first_silent = Some(index as u64);
                            break;
                        }
                        Some(_) => {}
                    }
                }
            }
            let outcome = match (first_diverge, first_silent) {
                (None, _) => FaultOutcome::Masked,
                (Some(_), Some(witness)) => FaultOutcome::Silent { witness },
                (Some(witness), None) => FaultOutcome::Detected { witness },
            };
            FaultVerdict { fault, outcome }
        })
        .collect();
    CampaignReport { verdicts }
}

/// The fault-free output table of a combinational netlist: output word
/// for every input value `0..2^w` in order, swept 64 indices per walk.
/// This is the self-golden expectation for circuit families without an
/// independent oracle (the campaign then measures divergence from the
/// healthy circuit).
///
/// # Panics
/// Panics if the netlist has registers, either port is missing, the
/// input port is wider than 16 bits (the sweep would exceed 2¹⁶
/// indices), or the output port exceeds 64 bits.
pub fn golden_output_words(netlist: &Netlist, input: &str, output: &str) -> Vec<u64> {
    let w = netlist
        .input_port(input)
        .unwrap_or_else(|| panic!("no input port named {input:?}"))
        .nets
        .len();
    assert!(
        w <= 16,
        "golden sweep of the {w}-bit input port {input:?} is too wide (max 16 bits)"
    );
    let total = 1usize << w;
    let mut sim = BatchSim::<u64>::new(netlist.clone());
    let mut out = Vec::with_capacity(total);
    let mut lanes = Vec::with_capacity(LANES);
    for base in (0..total).step_by(LANES) {
        let len = LANES.min(total - base);
        lanes.clear();
        lanes.extend((base..base + len).map(|i| i as u64));
        sim.set_input_lanes_u64(input, &lanes);
        sim.eval();
        let words = sim.read_output_lanes_u64(output);
        out.extend_from_slice(&words[..len]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::expected_permutation_words;
    use hwperm_circuits::{converter_netlist, ConverterOptions};
    use hwperm_logic::Builder;
    use hwperm_perm::packed_is_permutation_u64;

    fn converter_campaign(n: usize, workers: usize) -> CampaignReport {
        let nl = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let valid = move |word: u64| packed_is_permutation_u64(n, word);
        stuck_at_campaign_wide::<u64>(&nl, "index", "perm", &expected, Some(&valid), workers)
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut rows = [0u64; 64];
        let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
        for row in rows.iter_mut() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            *row = seed;
        }
        let original = rows;
        transpose64(&mut rows);
        for (i, &row) in rows.iter().enumerate() {
            for (j, &col) in original.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "bit ({i}, {j})");
            }
        }
    }

    #[test]
    fn universe_is_net_major_sa0_first() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        b.output_bus("y", &[g]);
        let universe = single_stuck_at_universe(&b.finish());
        assert_eq!(universe.len(), 6);
        assert_eq!(
            universe[4],
            FaultSpec::StuckAt {
                net: NetId::forged(2),
                value: false
            }
        );
        assert_eq!(
            universe[5],
            FaultSpec::StuckAt {
                net: NetId::forged(2),
                value: true
            }
        );
    }

    #[test]
    fn single_and_gate_verdicts_are_exact() {
        // y = x0 & x1 over indices 0..4 (x = index bits).
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        b.output_bus("y", &[g]);
        let nl = b.finish();
        let expected = golden_output_words(&nl, "x", "y");
        assert_eq!(expected, [0, 0, 0, 1]);
        let report = stuck_at_campaign_wide::<u64>(&nl, "x", "y", &expected, None, 2);
        // Every fault in this tiny universe is observable.
        assert_eq!(report.total(), 6);
        assert_eq!(report.detected(), 6);
        assert_eq!(report.coverage_percent(), 100.0);
        // x0 stuck-at-0: first divergence at index 3 (1 & 1 → 0 & 1).
        assert_eq!(
            report.verdicts[0].outcome,
            FaultOutcome::Detected { witness: 3 }
        );
        // Output stuck-at-1: diverges immediately at index 0.
        assert_eq!(
            report.verdicts[5].outcome,
            FaultOutcome::Detected { witness: 0 }
        );
    }

    #[test]
    fn masked_faults_are_reported() {
        // y = x0 | (x0 & x1): the AND leg is redundant, so its output
        // stuck-at-0 is masked (x0=1 forces y=1 through the OR either
        // way; x0=0 makes the AND 0 anyway).
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let g = b.and(x[0], x[1]);
        let y = b.or(x[0], g);
        b.output_bus("y", &[y]);
        let nl = b.finish();
        let expected = golden_output_words(&nl, "x", "y");
        let report = stuck_at_campaign_wide::<u64>(&nl, "x", "y", &expected, None, 1);
        let and_sa0 = report
            .verdicts
            .iter()
            .find(|v| {
                v.fault
                    == FaultSpec::StuckAt {
                        net: NetId::forged(2),
                        value: false,
                    }
            })
            .unwrap();
        assert_eq!(and_sa0.outcome, FaultOutcome::Masked);
        assert!(report.masked() >= 1);
        assert!(report.coverage_percent() < 100.0);
    }

    #[test]
    fn campaign_matches_scalar_at_every_width_and_worker_count() {
        use hwperm_logic::{W256, W512};
        // The report — every verdict, every witness, in universe order —
        // must not depend on the lane width or the worker count, with
        // the validity predicate and without it (where the retirement
        // logic takes the other branch).
        let n = 4;
        let nl = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let packed = move |word: u64| packed_is_permutation_u64(n, word);
        for valid in [Some(&packed as &(dyn Fn(u64) -> bool + Sync)), None] {
            let scalar = stuck_at_campaign_scalar(&nl, "index", "perm", &expected, valid);
            for workers in [1usize, 2, 3, 8] {
                let run = (
                    stuck_at_campaign_wide::<u64>(&nl, "index", "perm", &expected, valid, workers),
                    stuck_at_campaign_wide::<W256>(&nl, "index", "perm", &expected, valid, workers),
                    stuck_at_campaign_wide::<W512>(&nl, "index", "perm", &expected, valid, workers),
                );
                let label = format!("predicate = {}, {workers} workers", valid.is_some());
                assert_eq!(run.0, scalar, "u64, {label}");
                assert_eq!(run.1, scalar, "W256, {label}");
                assert_eq!(run.2, scalar, "W512, {label}");
            }
        }
    }

    #[test]
    fn n7_w512_campaign_spans_ten_batches_at_every_worker_count() {
        // 5,040 indices fill ten W512 batches, the last with 432 live
        // lanes, so shards split a multi-batch sweep and the partial
        // batch carries witnesses. The scalar reference is too slow at
        // n = 7 for a debug test, so counts and witness sums are pinned.
        use hwperm_logic::W512;
        let n = 7;
        let nl = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let packed = move |word: u64| packed_is_permutation_u64(n, word);
        // (predicate, detected, their witness sum, silent, their
        // witness sum, largest witness)
        let pinned = [
            (
                Some(&packed as &(dyn Fn(u64) -> bool + Sync)),
                312,
                76_291,
                386,
                277_585,
                4_920,
            ),
            (None, 698, 303_366, 0, 0, 4_920),
        ];
        for (valid, detected, detected_sum, silent, silent_sum, largest) in pinned {
            for workers in 1..=3 {
                let report =
                    stuck_at_campaign_wide::<W512>(&nl, "index", "perm", &expected, valid, workers);
                let witnesses = |silent: bool| {
                    report.verdicts.iter().filter_map(move |v| match v.outcome {
                        FaultOutcome::Detected { witness } if !silent => Some(witness),
                        FaultOutcome::Silent { witness } if silent => Some(witness),
                        _ => None,
                    })
                };
                let got = (
                    report.total(),
                    report.detected(),
                    witnesses(false).sum::<u64>(),
                    report.silent(),
                    witnesses(true).sum::<u64>(),
                    report.masked(),
                    witnesses(false).chain(witnesses(true)).max(),
                );
                let want = (
                    698,
                    detected,
                    detected_sum,
                    silent,
                    silent_sum,
                    0,
                    Some(largest),
                );
                assert_eq!(
                    got,
                    want,
                    "predicate = {}, {workers} workers",
                    valid.is_some()
                );
            }
        }
    }

    #[test]
    fn n5_converter_coverage_meets_the_95_percent_floor() {
        // The acceptance criterion: ≥ 95% single-stuck-at coverage
        // against the exhaustive block-decoded oracle, every silent
        // fault carrying a deterministic witness.
        let report = converter_campaign(5, 4);
        let coverage = report.coverage_percent();
        assert!(
            coverage >= 95.0,
            "n = 5 converter coverage {coverage:.2}% below the 95% floor \
             ({} detected / {} silent / {} masked of {})",
            report.detected(),
            report.silent(),
            report.masked(),
            report.total()
        );
        for v in report.silent_faults() {
            assert!(
                matches!(v.outcome, FaultOutcome::Silent { witness } if witness < 120),
                "silent fault {} must carry an in-range witness",
                v.fault
            );
        }
    }

    #[test]
    fn silent_faults_exist_on_the_converter_and_pass_validity() {
        // Stuck-at faults inside the index datapath turn one valid
        // permutation into another: the campaign must classify at least
        // one of them as silent for the validity-guard story to matter.
        let report = converter_campaign(4, 2);
        assert!(
            report.silent() > 0,
            "expected silent faults on the converter"
        );
        assert!(report.guard_coverage_percent() < 100.0);
    }

    /// Sums the witnesses of the detected (`silent == false`) or the
    /// silent faults of `report`.
    fn witness_sum(report: &CampaignReport, silent: bool) -> u64 {
        report
            .verdicts
            .iter()
            .filter_map(|v| match v.outcome {
                FaultOutcome::Detected { witness } if !silent => Some(witness),
                FaultOutcome::Silent { witness } if silent => Some(witness),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn collapsing_joins_only_single_reader_not_and_or_inputs() {
        // Nets 0..6 are the input bits x0..x5; fault 2·net + value.
        let mut b = Builder::new_unoptimized();
        let x = b.input_bus("x", 6);
        let a = b.not(x[0]); // 6: x0 has one reader
        let n = b.not(a); // 7: a Not chain
        let c = b.and(n, x[1]); // 8: single readers, x1 an input-port bit
        let d = b.or(x[2], x[3]); // 9: single readers
        let e = b.xor(c, d); // 10: no rule
        let f = b.mux(x[4], e, x[5]); // 11: no rule; x4 is read twice
        let g = b.and(f, x[4]); // 12: f is also an output-port bit
        b.output_bus("y", &[f, g]);
        let nl = b.finish();
        let roots = collapsed_stuck_at_classes(&nl);
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for root in (0..roots.len()).filter(|&f| roots[f] == f) {
            classes.push((0..roots.len()).filter(|&f| roots[f] == root).collect());
        }
        // x0/0 ≡ a/1 ≡ n/0 ≡ c/0 ≡ x1/0; x0/1 ≡ a/0 ≡ n/1;
        // x2/1 ≡ x3/1 ≡ d/1; the other 15 faults stand alone.
        let joined: Vec<&Vec<usize>> = classes.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(
            joined,
            [&vec![1, 12, 15], &vec![0, 2, 13, 14, 16], &vec![5, 7, 19]]
        );
        assert_eq!((roots.len(), classes.len()), (26, 18));
        // Each class's root is its most downstream fault.
        assert_eq!((roots[0], roots[1], roots[5]), (16, 15, 19));
        // The uncollapsed reference gives every member its root's
        // verdict, on the golden table and on one the netlist misses.
        let golden = golden_output_words(&nl, "x", "y");
        let mut missed = golden.clone();
        missed[37] ^= 0b10;
        for table in [&golden, &missed] {
            let scalar = stuck_at_campaign_scalar(&nl, "x", "y", table, None);
            for (f, &root) in roots.iter().enumerate() {
                assert_eq!(
                    scalar.verdicts[f].outcome, scalar.verdicts[root].outcome,
                    "fault {f}"
                );
            }
            for workers in [1, 2] {
                let wide = stuck_at_campaign_wide::<u64>(&nl, "x", "y", table, None, workers);
                assert_eq!(wide, scalar, "{workers} workers");
            }
        }
    }

    #[test]
    fn n8_converter_collapses_to_789_classes() {
        let nl = converter_netlist(8, ConverterOptions::default());
        let roots = collapsed_stuck_at_classes(&nl);
        let classes = (0..roots.len()).filter(|&f| roots[f] == f).count();
        assert_eq!((roots.len(), classes), (1_120, 789));
    }

    #[test]
    fn n8_converter_campaign_matches_the_benchmark_pins() {
        // The benchmark's campaign (n = 8, W512, 2 workers, packed
        // validity) and the predicate-free one at 1 worker: counts and
        // witness sums over 79 batches.
        use hwperm_logic::W512;
        let n = 8;
        let nl = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let packed = move |word: u64| packed_is_permutation_u64(n, word);
        let pinned = [
            (
                Some(&packed as &(dyn Fn(u64) -> bool + Sync)),
                2,
                (433, 702_846, 687, 3_589_517),
            ),
            (None, 1, (1_120, 3_799_681, 0, 0)),
        ];
        for (valid, workers, want) in pinned {
            let report =
                stuck_at_campaign_wide::<W512>(&nl, "index", "perm", &expected, valid, workers);
            assert_eq!((report.total(), report.masked()), (1_120, 0));
            let got = (
                report.detected(),
                witness_sum(&report, false),
                report.silent(),
                witness_sum(&report, true),
            );
            assert_eq!(got, want, "predicate = {}", valid.is_some());
        }
    }

    #[test]
    fn unexcited_faults_still_diverge_where_the_table_is_wrong() {
        // y = low nibble + high nibble of an 8-bit x, over indices
        // 0..128, with the table corrupted at index 69 (batch 1 of 64
        // lanes). x7 is 0 at every index, so x7/0 never changes the
        // wave: batch 0 meets the table and may skip it, but batch 1
        // misses the table at 69, and there the fault must run and
        // report the divergence the fault-free circuit already shows.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.add_expand(&x[..4], &x[4..]);
        b.output_bus("y", &y);
        let nl = b.finish();
        let mut table = golden_output_words(&nl, "x", "y");
        table.truncate(128);
        table[69] ^= 1;
        let x7_sa0 = FaultSpec::StuckAt {
            net: nl.input_port("x").unwrap().nets[7],
            value: false,
        };
        let scalar = stuck_at_campaign_scalar(&nl, "x", "y", &table, None);
        for workers in [1, 2] {
            let report = stuck_at_campaign_wide::<u64>(&nl, "x", "y", &table, None, workers);
            let verdict = report.verdicts.iter().find(|v| v.fault == x7_sa0).unwrap();
            assert_eq!(verdict.outcome, FaultOutcome::Detected { witness: 69 });
            assert_eq!(report, scalar, "{workers} workers");
        }
    }

    #[test]
    fn golden_words_of_a_passthrough_are_the_identity() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 7);
        b.output_bus("y", &x);
        let nl = b.finish();
        let golden = golden_output_words(&nl, "x", "y");
        assert_eq!(golden.len(), 128);
        assert!(golden.iter().enumerate().all(|(i, &w)| w == i as u64));
    }

    #[test]
    #[should_panic(expected = "stuck-at campaigns require a combinational netlist")]
    fn sequential_netlists_are_rejected() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q = b.dff(x[0], false);
        b.output_bus("y", &[q]);
        let _ = stuck_at_campaign_wide::<u64>(&b.finish(), "x", "y", &[0, 0], None, 1);
    }

    #[test]
    #[should_panic(expected = "table word 5 (0x85) has bits above output port \"y\" (3 bits)")]
    fn wide_campaign_rejects_table_words_wider_than_the_port() {
        let (nl, table) = crate::exhaustive::tests::passthrough_with_a_wide_word();
        let _ = stuck_at_campaign_wide::<hwperm_logic::W512>(&nl, "x", "y", &table, None, 1);
    }

    #[test]
    #[should_panic(expected = "table word 5 (0x85) has bits above output port \"y\" (3 bits)")]
    fn scalar_campaign_rejects_table_words_wider_than_the_port() {
        let (nl, table) = crate::exhaustive::tests::passthrough_with_a_wide_word();
        let _ = stuck_at_campaign_scalar(&nl, "x", "y", &table, None);
    }
}
