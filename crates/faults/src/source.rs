//! A fault-injected Knuth-shuffle stream: the Fig. 3 generator run
//! under a scalar [`FaultOverlay`], exposed as a
//! [`RandomPermSource`] so the guarded-stream layer in `hwperm-core`
//! can be exercised against genuine circuit-level corruption.

use crate::overlay::FaultOverlay;
use crate::spec::FaultSpec;
use hwperm_circuits::{shuffle_netlist, ShuffleOptions};
use hwperm_core::RandomPermSource;
use hwperm_logic::{BatchSim, Gate, NetId, Netlist, SimProgram};
use hwperm_perm::Permutation;
use std::sync::Arc;

/// The Fig. 3 Knuth-shuffle generator with injected faults, streaming
/// packed permutation words that may be corrupt.
///
/// Clocking protocol matches `KnuthShuffleCircuit`: the constructor
/// settles once (and fills the pipe for pipelined builds); each draw
/// reads the `perm` output, then clocks and resettles.
///
/// Corrupt draws are observable only through
/// [`RandomPermSource::next_packed_u64`] — the allocation-free path the
/// guarded experiments run on. [`RandomPermSource::next_permutation`]
/// panics on a corrupt draw, because a [`Permutation`] cannot represent
/// a non-permutation.
#[derive(Debug)]
pub struct FaultyShuffleSource {
    sim: BatchSim<bool>,
    overlay: FaultOverlay<bool>,
    n: usize,
}

impl FaultyShuffleSource {
    /// A faulted shuffle stream over a freshly built Fig. 3 netlist.
    ///
    /// # Panics
    /// Panics if `n < 2` or `n > 16`, or on malformed `faults`.
    pub fn new(n: usize, options: ShuffleOptions, faults: &[FaultSpec]) -> FaultyShuffleSource {
        assert!(
            Permutation::packed_width(n) <= 64,
            "packed width {} exceeds the u64 fast path (n = {n})",
            Permutation::packed_width(n)
        );
        let program = SimProgram::compile_shared(shuffle_netlist(n, options));
        let overlay = FaultOverlay::new(Arc::clone(&program), faults);
        let mut sim = BatchSim::from_program(program);
        overlay.eval(&mut sim);
        if options.pipelined {
            for _ in 0..n - 1 {
                overlay.step(&mut sim);
            }
            overlay.eval(&mut sim);
        }
        FaultyShuffleSource { sim, overlay, n }
    }

    /// The nets of every element-pipeline register in a pipelined
    /// shuffle netlist: DFFs whose data input is a crossover `Mux`
    /// (as opposed to the LFSR shift registers, whose upsets reseed the
    /// random sequence but still emit valid permutations). Flipping any
    /// of these corrupts an element field of the output word.
    pub fn pipeline_dff_nets(netlist: &Netlist) -> Vec<NetId> {
        netlist
            .gates()
            .iter()
            .enumerate()
            .filter_map(|(i, g)| match *g {
                Gate::Dff { d, .. } => matches!(netlist.gates()[d.index()], Gate::Mux { .. })
                    .then_some(NetId::forged(i as u32)),
                _ => None,
            })
            .collect()
    }
}

impl RandomPermSource for FaultyShuffleSource {
    fn n(&self) -> usize {
        self.n
    }

    fn next_permutation(&mut self) -> Permutation {
        let word = self.next_packed_u64();
        Permutation::unpack(self.n, &hwperm_bignum::Ubig::from(word)).expect(
            "faulty shuffle emitted a non-permutation; draw via next_packed_u64 \
             to observe raw corrupt words",
        )
    }

    fn next_packed_u64(&mut self) -> u64 {
        let word = self.sim.read_output_lane_u64("perm", 0);
        self.overlay.step(&mut self.sim);
        self.overlay.eval(&mut self.sim);
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_circuits::KnuthShuffleCircuit;
    use hwperm_perm::packed_is_permutation_u64;

    const OPTS: ShuffleOptions = ShuffleOptions {
        lfsr_width: 16,
        pipelined: true,
        seed: 5,
    };

    #[test]
    fn fault_free_source_matches_the_healthy_circuit() {
        let mut faulty = FaultyShuffleSource::new(4, OPTS, &[]);
        let mut healthy = KnuthShuffleCircuit::with_options(4, OPTS);
        for i in 0..50 {
            assert_eq!(
                faulty.next_permutation(),
                healthy.next_permutation(),
                "draw {i}"
            );
        }
    }

    #[test]
    fn pipeline_dff_flip_corrupts_every_draw_for_n4() {
        // n = 4 packs 2-bit fields that cover 0..4 exactly, so flipping
        // one pipeline register bit always collides two elements.
        let netlist = shuffle_netlist(4, OPTS);
        let pipeline = FaultyShuffleSource::pipeline_dff_nets(&netlist);
        assert!(
            !pipeline.is_empty(),
            "pipelined build has element registers"
        );
        let fault = FaultSpec::DffFlip { net: pipeline[0] };
        let mut faulty = FaultyShuffleSource::new(4, OPTS, &[fault]);
        for i in 0..100 {
            assert!(
                !packed_is_permutation_u64(4, faulty.next_packed_u64()),
                "draw {i} should be corrupt"
            );
        }
    }

    #[test]
    fn lfsr_dff_flip_stays_a_valid_permutation_stream() {
        // Upsets in the random-number plumbing change *which*
        // permutation comes out, never its validity — the guard-silent
        // fault class.
        let netlist = shuffle_netlist(4, OPTS);
        let pipeline = FaultyShuffleSource::pipeline_dff_nets(&netlist);
        let lfsr_dff = netlist
            .gates()
            .iter()
            .enumerate()
            .find_map(|(i, g)| {
                let net = NetId::forged(i as u32);
                (matches!(g, Gate::Dff { .. }) && !pipeline.contains(&net)).then_some(net)
            })
            .expect("shuffle has LFSR registers");
        let mut faulty = FaultyShuffleSource::new(4, OPTS, &[FaultSpec::DffFlip { net: lfsr_dff }]);
        let mut healthy = KnuthShuffleCircuit::with_options(4, OPTS);
        let mut diverged = false;
        for _ in 0..100 {
            let word = faulty.next_packed_u64();
            assert!(packed_is_permutation_u64(4, word));
            diverged |= word != healthy.next_permutation().pack_u64();
        }
        assert!(diverged, "the upset must at least perturb the sequence");
    }
}
