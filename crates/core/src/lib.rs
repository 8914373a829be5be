#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! High-level API over the whole reproduction.
//!
//! This crate is the entry point a downstream user would depend on. It
//! unifies the software and hardware-simulated implementations behind
//! two small traits and adds the throughput machinery the paper's
//! motivation calls for:
//!
//! - [`PermutationSource`]: index → permutation, implemented by
//!   [`SoftwareSource`] (the paper's "Xeon" side) and [`CircuitSource`]
//!   (the Fig. 1 netlist, combinational or pipelined);
//! - [`RandomPermSource`]: streams of random permutations, implemented
//!   by the software Knuth shuffle, the Fig. 3 circuit, its exact
//!   software mirror, and the Fig. 2 random-index method;
//! - [`parallel`]: fork–join block generation over `[0, n!)` — the
//!   "parallel machines interacting through a shared memory" use case,
//!   on `hwperm_factoradic`'s contiguous block split;
//! - [`montecarlo`]: the paper's Section III experiments (Fig. 4
//!   uniformity histogram, derangement-based estimation of `e`).
//!
//! ```
//! use hwperm_core::{PermutationSource, SoftwareSource, CircuitSource};
//! use hwperm_bignum::Ubig;
//!
//! let mut sw = SoftwareSource::new(5);
//! let mut hw = CircuitSource::new(5);
//! let index = Ubig::from(77u64);
//! assert_eq!(sw.permutation(&index), hw.permutation(&index));
//! ```

//!
//! Robustness: [`GuardedPermSource`] wraps any [`RandomPermSource`]
//! with cheap output checking (packed permutation validity, optional
//! rank-back spot checks) and a [`FaultPolicy`] — panic, bounded
//! retry, or graceful fallback to the software unranker — with atomic
//! counters exposing what the guard saw.

pub mod guard;
pub mod montecarlo;
pub mod parallel;
mod sources;
pub mod stream;

pub use guard::{FaultPolicy, GuardCounters, GuardStats, GuardedPermSource};
pub use montecarlo::{
    chi_square_uniform, derangement_experiment, derangement_experiment_packed, fig4_histogram,
    DerangementResult,
};
pub use parallel::{parallel_count, parallel_reduce};
pub use sources::{
    CascadeSource, CircuitRandomSource, CircuitSource, PermutationSource, RandomIndexSource,
    RandomPermSource, SoftwareRandomSource, SoftwareSource,
};
pub use stream::PermutationStream;
