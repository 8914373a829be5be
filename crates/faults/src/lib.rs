#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Fault injection for the compiled simulation tape.
//!
//! Hardware reproductions are only trustworthy if their correctness is
//! measured *under faults*: a single stuck-at gate or flipped register
//! silently breaks the paper's one-hot MUX invariant (Fig. 1) and every
//! permutation downstream of it. This crate provides the fault models
//! and the overlays that the campaign engine in `hwperm-verify` and the
//! guarded streams in `hwperm-core` build on:
//!
//! - [`FaultSpec`] — stuck-at-0/1 on any gate output, single-event
//!   upsets on DFF state, and wired-AND bridges between primary inputs;
//! - [`FaultOverlay`] — force tables resolved against a shared
//!   `Arc<SimProgram>` and applied, in every lane, around a caller's
//!   `BatchSim` over that program at any `SimWord` width, without ever
//!   mutating the tape. Besides the full faulted settle it re-settles
//!   only the fault sites' fan-out cones over a fault-free wave and
//!   restores that wave ([`FaultOverlay::eval_cone`],
//!   [`FaultOverlay::restore`]), so a campaign settles 64 (`u64`), 256
//!   (`W256`) or 512 (`W512`) indices once and pays each fault only its
//!   cone;
//! - [`FaultyShuffleSource`] — the Fig. 3 generator with injected
//!   faults, for end-to-end graceful-degradation experiments.

mod overlay;
mod source;
mod spec;

pub use overlay::FaultOverlay;
pub use source::FaultyShuffleSource;
pub use spec::FaultSpec;
