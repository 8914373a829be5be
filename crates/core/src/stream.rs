//! Producer/consumer streaming: a background thread generates
//! permutations "one per clock" into a bounded channel, decoupling
//! generation from consumption — the software analogue of the paper's
//! pipelined circuit feeding a downstream consumer (hash unit, BDD
//! evaluator) through a FIFO. [`PermutationStream`] yields
//! `(Ubig, Permutation)` pairs for any `n`.

use hwperm_bignum::Ubig;
use hwperm_factoradic::IndexedPermutations;
use hwperm_perm::Permutation;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// A stream of `(index, permutation)` pairs produced by a background
/// worker. Dropping the stream (or consuming it fully) shuts the
/// producer down cleanly.
pub struct PermutationStream {
    receiver: Option<Receiver<(Ubig, Permutation)>>,
    handle: Option<JoinHandle<()>>,
}

impl PermutationStream {
    /// Streams permutations with indices in `[start, end)` (clamped to
    /// `n!`) through a FIFO of `depth` entries.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `start > n!`.
    pub fn new(n: usize, start: Ubig, end: Ubig, depth: usize) -> Self {
        assert!(depth >= 1, "FIFO depth must be at least 1");
        let (sender, receiver) = sync_channel(depth);
        let handle = std::thread::spawn(move || {
            for item in IndexedPermutations::new(n, start, end) {
                if sender.send(item).is_err() {
                    break; // consumer hung up
                }
            }
        });
        PermutationStream {
            receiver: Some(receiver),
            handle: Some(handle),
        }
    }

    /// Streams the whole space `[0, n!)`.
    pub fn all(n: usize, depth: usize) -> Self {
        Self::new(n, Ubig::zero(), Ubig::factorial(n as u64), depth)
    }

    /// Receives the next permutation, or `None` when the range is
    /// exhausted.
    pub fn recv(&mut self) -> Option<(Ubig, Permutation)> {
        self.receiver.as_ref().and_then(|r| r.recv().ok())
    }
}

impl Iterator for PermutationStream {
    type Item = (Ubig, Permutation);

    fn next(&mut self) -> Option<Self::Item> {
        self.recv()
    }
}

impl Drop for PermutationStream {
    fn drop(&mut self) {
        // Disconnect, then join so the worker never outlives the stream.
        drop(self.receiver.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_factoradic::rank;

    #[test]
    fn streams_full_space_in_order() {
        let items: Vec<_> = PermutationStream::all(5, 8).collect();
        assert_eq!(items.len(), 120);
        for (i, (index, perm)) in items.iter().enumerate() {
            assert_eq!(index.to_u64(), Some(i as u64));
            assert_eq!(&rank(perm), index);
        }
    }

    #[test]
    fn streams_sub_range() {
        let items: Vec<_> =
            PermutationStream::new(5, Ubig::from(100u64), Ubig::from(110u64), 2).collect();
        assert_eq!(items.len(), 10);
        assert_eq!(items[0].0.to_u64(), Some(100));
    }

    #[test]
    fn early_drop_shuts_producer_down() {
        let mut stream = PermutationStream::all(8, 4); // 40,320 items
        let first = stream.recv().unwrap();
        assert!(first.1.is_identity());
        drop(stream); // must not hang or leak the producer
    }

    #[test]
    fn tiny_fifo_backpressure_preserves_order() {
        let items: Vec<_> = PermutationStream::all(4, 1).collect();
        assert_eq!(items.len(), 24);
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn empty_range_terminates_immediately() {
        let mut stream = PermutationStream::new(4, Ubig::from(5u64), Ubig::from(5u64), 3);
        assert!(stream.recv().is_none());
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        PermutationStream::all(3, 0);
    }
}
