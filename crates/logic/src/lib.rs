#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Gate-level hardware substrate.
//!
//! The paper evaluates its circuits on an SRC-6 reconfigurable computer
//! (Virtex-II Pro) and reports synthesis results from an Altera
//! Stratix IV. Neither is available, so this crate supplies the
//! substitute substrate (see DESIGN.md §2):
//!
//! - [`Netlist`]: a flat array of primitive gates (`Const`, `Input`,
//!   `Not`, `And`, `Or`, `Xor`, `Mux`, `Dff`) with named input/output
//!   bus ports. Construction order is topological by design — a gate can
//!   only reference already-created nets — so combinational evaluation
//!   is a single in-order pass.
//! - [`Builder`]: bus-level combinators (ripple adders/subtractors,
//!   constant comparators, one-hot and binary muxes, decoders, shift-add
//!   constant multipliers, register ranks) used by `hwperm-circuits` to
//!   assemble the paper's Fig. 1/2/3 structures gate-by-gate.
//! - [`SimProgram`]: a compile-once, run-anywhere simulation tape — the
//!   netlist lowered into an immutable, levelized structure-of-arrays
//!   opcode stream with flat value slots, precomputed port slot maps and
//!   DFF slot pairs. `Arc<SimProgram>` lets many simulators (including
//!   worker threads in `hwperm-verify`) share one compilation.
//! - [`BatchSim`]: bit-accurate evaluation of the tape at any
//!   [`SimWord`] width, each lane an independent test vector.
//!   `BatchSim<bool>` is the scalar simulator; one forward pass of
//!   `BatchSim<u64>` simulates [`LANES`] = 64 input vectors at once
//!   (256 or 512 with the wide words). [`BatchSim::step`] models one
//!   clock edge (combinational settle, then DFFs latch), so pipelined
//!   circuits exhibit their real latency and one-result-per-clock
//!   throughput. The exhaustive verification stack (`hwperm-verify`)
//!   and the fault overlays (`hwperm-faults`) are built on it.
//! - [`tech`]: the stand-in for the FPGA tool reports behind Tables
//!   III/IV — greedy ≤6-input LUT cone packing, a Stratix-IV-style ALM
//!   packing estimate, register counts, and a logic-depth-based Fmax
//!   model.
//!
//! ```
//! use hwperm_logic::{BatchSim, Builder};
//! use hwperm_bignum::Ubig;
//!
//! let mut b = Builder::new();
//! let a = b.input_bus("a", 8);
//! let c = b.input_bus("b", 8);
//! let (sum, _carry) = b.add(&a, &c);
//! b.output_bus("sum", &sum);
//!
//! let mut sim = BatchSim::<bool>::new(b.finish());
//! sim.set_input("a", &Ubig::from(37u64));
//! sim.set_input("b", &Ubig::from(5u64));
//! sim.eval();
//! assert_eq!(sim.read_output("sum").to_u64(), Some(42));
//! ```

mod batch;
pub mod blif;
mod builder;
mod buses;
mod netlist;
mod program;
pub mod tech;
pub mod vcd;
pub mod verilog;

pub use batch::{BatchSim, LANES};
pub use blif::to_blif;
pub use builder::{Builder, Bus};
pub use netlist::{Gate, NetId, Netlist, Port, StructuralIssue};
pub use program::{DffSlotPair, SimProgram, SimWord, TapeOp, TapeStats, Wide, W256, W512};
pub use tech::ResourceReport;
pub use vcd::Tracer;
pub use verilog::{to_testbench, to_verilog};
