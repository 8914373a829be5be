//! Single-stuck-at fault campaigns over combinational netlists.
//!
//! A campaign answers the robustness question the exhaustive sweeps
//! cannot: *if a gate breaks, does the output betray it?* For every
//! fault in the single-stuck-at universe (each net stuck at 0 and at
//! 1), the campaign ([`stuck_at_campaign_wide`]) sweeps the whole index
//! space through a batched fault overlay — **one fault per lane**, so
//! one tape walk retires 64 faults at `u64` and 256/512 at the wide
//! words — and classifies the fault against the golden expectation:
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
//! Witnesses are deterministic: each fault reports the lowest diverging
//! index (and, for silent faults, the lowest *validly* diverging
//! index). Sharding uses the exhaustive sweeps' fan-out over contiguous
//! ascending [`crate::shard_ranges`] of the universe; verdicts are
//! per-fault and independent of batch companions — and independent of
//! lane *width* — so the report is byte-identical for every worker
//! count and every `SimWord` width.
//!
//! Campaigns always run the canonical (unfused) tape: faults target
//! arbitrary nets, and opcode fusion elides nets, which would make the
//! fault universe unresolvable.

use crate::exhaustive::port_width_checked;
use crate::parallel::fan_out;
use hwperm_faults::{FaultOverlay, FaultSpec};
use hwperm_logic::{BatchSim, NetId, Netlist, SimProgram, SimWord, LANES};
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

/// Sweeps one contiguous slice of the fault universe,
/// [`SimWord::LANES`] faults per chunk, and returns its verdicts in
/// slice order. Verdicts and witnesses depend only on the per-fault
/// lane, never on batch companions, so every width produces the same
/// output.
fn campaign_range<W: SimWord>(
    program: &Arc<SimProgram>,
    faults: &[FaultSpec],
    input: &str,
    output: &str,
    expected: &[u64],
    valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
) -> Vec<FaultVerdict> {
    let mut out = Vec::with_capacity(faults.len());
    for chunk in faults.chunks(W::LANES) {
        let overlay = FaultOverlay::<W>::batched(Arc::clone(program), chunk);
        // A fresh value array per chunk: state forces (on constant
        // slots, say) must not leak into the next chunk's lanes.
        let mut sim = BatchSim::<W>::from_program(Arc::clone(program));
        let mut first_diverge: Vec<Option<u64>> = vec![None; chunk.len()];
        let mut first_silent: Vec<Option<u64>> = vec![None; chunk.len()];
        // Lanes that might still change their verdict: all of them at
        // first; a lane retires once its strongest classification is
        // settled (divergence seen, and — when a validity predicate is
        // in play — a valid divergence seen).
        let mut unresolved = W::mask_lanes(chunk.len());
        for (index, &want) in expected.iter().enumerate() {
            sim.set_input_u64(input, index as u64);
            overlay.eval(&mut sim);
            let got_words = sim.read_output_words(output);
            let mut diff = W::zero();
            for (bit, &got) in got_words.iter().enumerate() {
                diff = diff | (got ^ W::splat((want >> bit) & 1 == 1));
            }
            let mut pending = diff & unresolved;
            while let Some(lane) = pending.first_lane() {
                pending.set_lane(lane, false);
                if first_diverge[lane].is_none() {
                    first_diverge[lane] = Some(index as u64);
                }
                match valid {
                    None => unresolved.set_lane(lane, false),
                    Some(valid) => {
                        let got = got_words
                            .iter()
                            .enumerate()
                            .fold(0u64, |acc, (bit, &w)| acc | ((w.lane(lane) as u64) << bit));
                        if valid(got) {
                            first_silent[lane] = Some(index as u64);
                            unresolved.set_lane(lane, false);
                        }
                    }
                }
            }
            if !unresolved.any() {
                break;
            }
        }
        for (lane, &fault) in chunk.iter().enumerate() {
            let outcome = match (first_diverge[lane], first_silent[lane]) {
                (None, _) => FaultOutcome::Masked,
                (Some(_), Some(witness)) => FaultOutcome::Silent { witness },
                (Some(witness), None) => FaultOutcome::Detected { witness },
            };
            out.push(FaultVerdict { fault, outcome });
        }
    }
    out
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
    port_width_checked(netlist, input, output, expected.len());
    SimProgram::compile_shared(netlist.clone())
}

/// Runs the single-stuck-at campaign over `netlist`, sweeping every
/// fault against `expected` (element `i` = golden output word at input
/// index `i`) on `workers` contiguous shards of the fault universe.
/// `valid` is the optional cheap validity predicate a runtime guard
/// would apply (e.g. packed permutation validity); with `None`, every
/// observable fault counts as detected.
///
/// Each worker retires [`SimWord::LANES`] faults per tape walk — 64 at
/// `u64`, 256 at [`W256`](hwperm_logic::W256), 512 at
/// [`W512`](hwperm_logic::W512). The report is byte-identical across
/// widths and worker counts (verdicts and witnesses are per-lane, never
/// influenced by batch companions), and equal to
/// [`stuck_at_campaign_scalar`]'s.
///
/// # Panics
/// Panics if `workers == 0`, the netlist has registers, either port is
/// missing, the input port cannot represent every index, or either
/// port exceeds the 64-bit `u64` fast path.
pub fn stuck_at_campaign_wide<W: SimWord + Send + Sync>(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    valid: Option<&(dyn Fn(u64) -> bool + Sync)>,
    workers: usize,
) -> CampaignReport {
    let program = campaign_program(netlist, input, output, expected);
    let universe = single_stuck_at_universe(netlist);
    let verdicts = fan_out(universe.len(), workers, |shard| {
        campaign_range::<W>(&program, &universe[shard], input, output, expected, valid)
    })
    .concat();
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
            let overlay = FaultOverlay::new(Arc::clone(&program), &[fault]);
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
}
