//! Self-checking permutation streams with graceful degradation.
//!
//! A hardware permutation source can break mid-stream — a stuck-at
//! gate, an upset register — and a consumer that trusts it blindly
//! propagates garbage into every downstream statistic. The
//! [`GuardedPermSource`] wrapper closes that gap at runtime:
//!
//! - **cheap validity check** on every draw: the packed word must be a
//!   permutation ([`packed_is_permutation_u64`] — field range, high-bit
//!   zero, popcount of the seen-element bitboard);
//! - **rank-back spot check** at a configurable sampling rate: the word
//!   is unpacked, ranked, and re-unranked through the software
//!   [`Unranker`]; any disagreement flags the draw (this also catches
//!   corruption *within* the valid-permutation space when the paired
//!   rank stream is the ground truth — and, cheaply, exercises the
//!   whole software path as a self-test);
//! - a configurable [`FaultPolicy`] decides what a flagged draw costs:
//!   panic, bounded re-draw, or substitution from the software
//!   unranker;
//! - atomic [`GuardCounters`] (`detected` / `retried` / `fell_back`)
//!   expose what the guard saw without interrupting the stream.
//!
//! The guard is deterministic end to end: for a fixed inner source,
//! seed, and policy, the emitted stream and the final counter values
//! are reproducible.

use crate::sources::RandomPermSource;
use hwperm_factoradic::{rank_u64, Unranker};
use hwperm_perm::{packed_is_permutation_u64, Permutation};
use hwperm_rng::XorShift64Star;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a [`GuardedPermSource`] does when a draw fails its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Abort loudly: corrupt hardware must not be papered over.
    Panic,
    /// Re-draw from the inner source, up to `max_attempts` extra draws
    /// per emission; panics when the corruption persists past the
    /// budget (a permanent fault defeats retrying).
    Retry {
        /// Extra draws allowed per emission before giving up.
        max_attempts: u32,
    },
    /// Substitute the flagged draw with a software-unranked permutation
    /// at a guard-private random index — the stream stays alive and
    /// uniform while the hardware is sick.
    Fallback,
}

/// Monotonic observability counters shared out of a
/// [`GuardedPermSource`] via `Arc` (relaxed ordering: they are
/// statistics, not synchronization).
#[derive(Debug, Default)]
pub struct GuardCounters {
    detected: AtomicU64,
    retried: AtomicU64,
    fell_back: AtomicU64,
}

impl GuardCounters {
    /// Draws that failed a validity or spot check.
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed)
    }

    /// Extra draws taken under [`FaultPolicy::Retry`].
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Draws replaced by the software unranker under
    /// [`FaultPolicy::Fallback`].
    pub fn fell_back(&self) -> u64 {
        self.fell_back.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all three counters.
    pub fn snapshot(&self) -> GuardStats {
        GuardStats {
            detected: self.detected(),
            retried: self.retried(),
            fell_back: self.fell_back(),
        }
    }
}

/// A plain-value snapshot of [`GuardCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Draws that failed a validity or spot check.
    pub detected: u64,
    /// Extra draws taken under [`FaultPolicy::Retry`].
    pub retried: u64,
    /// Draws replaced by the software unranker.
    pub fell_back: u64,
}

/// Default seed for the fallback unranker's index RNG.
const DEFAULT_FALLBACK_SEED: u64 = 0xFA11_BACC_0E57_A71E;

/// A [`RandomPermSource`] wrapper that checks every draw and degrades
/// per its [`FaultPolicy`] instead of emitting garbage. See the module
/// docs for the check menu; `n` must be at most 16 (the packed-word
/// fast path) — the guard draws through
/// [`RandomPermSource::next_packed_u64`].
#[derive(Debug)]
pub struct GuardedPermSource<S: RandomPermSource> {
    inner: S,
    policy: FaultPolicy,
    counters: Arc<GuardCounters>,
    /// Rank-back spot check every this many draws (0 = never).
    spot_check_every: u64,
    draws: u64,
    unranker: Unranker,
    rng: XorShift64Star,
    /// `n!`, the fallback index range.
    total: u64,
    n: usize,
}

impl<S: RandomPermSource> GuardedPermSource<S> {
    /// Guards `inner` with validity checks only (no rank-back spot
    /// checks) and the default fallback seed.
    ///
    /// # Panics
    /// Panics if `inner.n() > 16`.
    pub fn new(inner: S, policy: FaultPolicy) -> GuardedPermSource<S> {
        Self::with_options(inner, policy, 0, DEFAULT_FALLBACK_SEED)
    }

    /// Guards `inner` with full control: `spot_check_every` enables the
    /// rank-back spot check on every k-th draw (0 disables it), and
    /// `fallback_seed` seeds the index RNG used by
    /// [`FaultPolicy::Fallback`] substitutions.
    ///
    /// # Panics
    /// Panics if `inner.n() > 16`.
    pub fn with_options(
        inner: S,
        policy: FaultPolicy,
        spot_check_every: u64,
        fallback_seed: u64,
    ) -> GuardedPermSource<S> {
        let n = inner.n();
        assert!(
            Permutation::packed_width(n) <= 64,
            "guarded streams need the packed u64 fast path (n = {n} exceeds 16)"
        );
        let total = (1..=n as u64).product();
        GuardedPermSource {
            inner,
            policy,
            counters: Arc::new(GuardCounters::default()),
            spot_check_every,
            draws: 0,
            unranker: Unranker::new(n),
            rng: XorShift64Star::new(fallback_seed),
            total,
            n,
        }
    }

    /// The shared counters (clone the `Arc` to watch from elsewhere).
    pub fn counters(&self) -> Arc<GuardCounters> {
        Arc::clone(&self.counters)
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> GuardStats {
        self.counters.snapshot()
    }

    /// The configured policy.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Unwraps the guard, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Full check battery for one packed draw.
    fn word_passes(&mut self, word: u64) -> bool {
        if !packed_is_permutation_u64(self.n, word) {
            return false;
        }
        if self.spot_check_every != 0 && self.draws.is_multiple_of(self.spot_check_every) {
            // Rank-back: word → permutation → rank → unrank → word.
            let perm = match Permutation::unpack(self.n, &word.into()) {
                Ok(p) => p,
                Err(_) => return false,
            };
            let index = rank_u64(&perm);
            if self.unranker.unrank(index).pack_u64() != word {
                return false;
            }
        }
        true
    }

    /// One guarded draw on the packed fast path.
    fn guarded_packed(&mut self) -> u64 {
        let mut attempt = 0u32;
        loop {
            let word = self.inner.next_packed_u64();
            self.draws += 1;
            if self.word_passes(word) {
                return word;
            }
            self.counters.detected.fetch_add(1, Ordering::Relaxed);
            match self.policy {
                FaultPolicy::Panic => panic!(
                    "guarded stream detected a corrupt permutation word {word:#x} (n = {})",
                    self.n
                ),
                FaultPolicy::Retry { max_attempts } => {
                    assert!(
                        attempt < max_attempts,
                        "corruption persisted through {max_attempts} redraws \
                         (last word {word:#x}, n = {})",
                        self.n
                    );
                    attempt += 1;
                    self.counters.retried.fetch_add(1, Ordering::Relaxed);
                }
                FaultPolicy::Fallback => {
                    self.counters.fell_back.fetch_add(1, Ordering::Relaxed);
                    let index = self.rng.below(self.total);
                    return self.unranker.unrank(index).pack_u64();
                }
            }
        }
    }
}

impl<S: RandomPermSource> RandomPermSource for GuardedPermSource<S> {
    fn n(&self) -> usize {
        self.n
    }

    fn next_permutation(&mut self) -> Permutation {
        let word = self.guarded_packed();
        Permutation::unpack(self.n, &word.into()).expect("guarded draws are valid by construction")
    }

    fn next_packed_u64(&mut self) -> u64 {
        self.guarded_packed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::derangement_experiment_packed;
    use crate::sources::SoftwareRandomSource;

    /// A deliberately sick source: every `period`-th packed draw has
    /// one bit XORed, which for n = 4 always collides two fields.
    struct CorruptingSource {
        inner: SoftwareRandomSource,
        period: u64,
        draws: u64,
    }

    impl CorruptingSource {
        fn new(n: usize, seed: u64, period: u64) -> CorruptingSource {
            CorruptingSource {
                inner: SoftwareRandomSource::new(n, seed),
                period,
                draws: 0,
            }
        }
    }

    impl RandomPermSource for CorruptingSource {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn next_permutation(&mut self) -> Permutation {
            unimplemented!("corruption is only representable on the packed path")
        }

        fn next_packed_u64(&mut self) -> u64 {
            self.draws += 1;
            let word = self.inner.next_packed_u64();
            if self.draws.is_multiple_of(self.period) {
                word ^ 1
            } else {
                word
            }
        }
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        let mut plain = SoftwareRandomSource::new(4, 99);
        let mut guarded =
            GuardedPermSource::new(SoftwareRandomSource::new(4, 99), FaultPolicy::Panic);
        for i in 0..200 {
            assert_eq!(
                guarded.next_packed_u64(),
                plain.next_packed_u64(),
                "draw {i}"
            );
        }
        assert_eq!(guarded.stats(), GuardStats::default());
    }

    #[test]
    fn spot_checks_accept_a_healthy_stream() {
        let mut guarded = GuardedPermSource::with_options(
            SoftwareRandomSource::new(5, 7),
            FaultPolicy::Panic,
            3,
            DEFAULT_FALLBACK_SEED,
        );
        for _ in 0..100 {
            let word = guarded.next_packed_u64();
            assert!(packed_is_permutation_u64(5, word));
        }
        assert_eq!(guarded.stats().detected, 0);
    }

    #[test]
    #[should_panic(expected = "guarded stream detected a corrupt permutation word")]
    fn panic_policy_aborts_on_corruption() {
        let mut guarded =
            GuardedPermSource::new(CorruptingSource::new(4, 1, 5), FaultPolicy::Panic);
        for _ in 0..5 {
            let _ = guarded.next_packed_u64();
        }
    }

    #[test]
    fn retry_policy_emits_only_valid_words_and_counts() {
        let mut guarded = GuardedPermSource::new(
            CorruptingSource::new(4, 8, 4),
            FaultPolicy::Retry { max_attempts: 2 },
        );
        for _ in 0..300 {
            assert!(packed_is_permutation_u64(4, guarded.next_packed_u64()));
        }
        let stats = guarded.stats();
        // Every 4th inner draw is corrupt; ~300/4+ detections, each
        // cured by exactly one redraw (period 4 never corrupts twice
        // in a row).
        assert!(stats.detected >= 75, "detected = {}", stats.detected);
        assert_eq!(stats.detected, stats.retried);
        assert_eq!(stats.fell_back, 0);
    }

    #[test]
    #[should_panic(expected = "corruption persisted through 3 redraws")]
    fn retry_budget_exhaustion_panics() {
        // Period 1: every draw corrupt — no retry budget survives.
        let mut guarded = GuardedPermSource::new(
            CorruptingSource::new(4, 3, 1),
            FaultPolicy::Retry { max_attempts: 3 },
        );
        let _ = guarded.next_packed_u64();
    }

    #[test]
    fn fallback_policy_substitutes_and_counts() {
        let mut guarded =
            GuardedPermSource::new(CorruptingSource::new(4, 21, 3), FaultPolicy::Fallback);
        for _ in 0..300 {
            assert!(packed_is_permutation_u64(4, guarded.next_packed_u64()));
        }
        let stats = guarded.stats();
        assert_eq!(stats.detected, 100, "every 3rd draw flagged");
        assert_eq!(stats.fell_back, 100);
        assert_eq!(stats.retried, 0);
    }

    #[test]
    fn retry_and_fallback_streams_are_seeded_deterministic() {
        // The satellite determinism requirement: same seed, same
        // injected fault, same policy ⇒ identical stream and counters.
        for policy in [
            FaultPolicy::Retry { max_attempts: 4 },
            FaultPolicy::Fallback,
        ] {
            let run = || {
                let mut guarded = GuardedPermSource::with_options(
                    CorruptingSource::new(4, 77, 6),
                    policy,
                    5,
                    1234,
                );
                let stream: Vec<u64> = (0..250).map(|_| guarded.next_packed_u64()).collect();
                (stream, guarded.stats())
            };
            let (stream_a, stats_a) = run();
            let (stream_b, stats_b) = run();
            assert_eq!(stream_a, stream_b, "{policy:?}");
            assert_eq!(stats_a, stats_b, "{policy:?}");
            assert!(stats_a.detected > 0, "{policy:?} must exercise the guard");
        }
    }

    #[test]
    fn fallback_keeps_the_derangement_experiment_honest() {
        // Even with every 2nd draw corrupt, the guarded stream's
        // derangement rate stays at the true 3/8 for n = 4.
        let mut guarded =
            GuardedPermSource::new(CorruptingSource::new(4, 5, 2), FaultPolicy::Fallback);
        let result = derangement_experiment_packed(&mut guarded, 40_000);
        let p = result.derangements as f64 / result.samples as f64;
        assert!((p - 0.375).abs() < 0.02, "p = {p}");
        assert_eq!(guarded.stats().fell_back, 20_000);
    }

    #[test]
    fn next_permutation_goes_through_the_guard() {
        let mut guarded =
            GuardedPermSource::new(CorruptingSource::new(4, 11, 2), FaultPolicy::Fallback);
        for _ in 0..50 {
            let p = guarded.next_permutation();
            assert_eq!(p.n(), 4);
        }
        assert!(guarded.stats().fell_back > 0);
    }

    #[test]
    #[should_panic(expected = "guarded streams need the packed u64 fast path (n = 17 exceeds 16)")]
    fn wide_n_rejected_with_pinned_message() {
        let _ = GuardedPermSource::new(SoftwareRandomSource::new(17, 1), FaultPolicy::Panic);
    }
}
