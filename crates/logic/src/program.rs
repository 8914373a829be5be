//! The compiled simulation tape: a [`Netlist`] lowered once into an
//! immutable, levelized, structure-of-arrays gate program that
//! [`crate::BatchSim`] executes at every lane width.
//!
//! Motivation: the original simulators re-walked the `Netlist` on every
//! `eval`, paying a `Gate` enum match plus `NetId` indirection per gate
//! per pass, and each simulator instance owned a full `Netlist` clone.
//! The tape moves all of that to compile time:
//!
//! - **Levelized opcode stream** — combinational gates are stably
//!   sorted by logic level (then creation order), so the tape is a flat
//!   `while`-free instruction sequence; `Const`/`Input`/`Dff` gates are
//!   excluded entirely (constants are baked into the initial value
//!   array, inputs are written by the testbench, DFF outputs are state).
//! - **Flat net slots** — every net is renumbered into a dense slot
//!   space: state slots first (inputs, constants, DFF outputs, in
//!   creation order), then one slot per tape op *in tape order*, so op
//!   `j` always writes slot `comb_base + j` and the wave fills the
//!   value array sequentially.
//! - **Precomputed port slot maps** — input/output port names resolve
//!   to slot vectors once, at compile time.
//! - **DFF slot pairs** — `step` latches through a `(q, d)` slot-pair
//!   list; no gate array scan.
//!
//! Two axes push the tape further (ROADMAP item 2, "the next 3-5x"):
//!
//! - **Wide words** — the tape is generic over [`SimWord`], so the same
//!   op stream settles 1 (`bool`), 64 (`u64`), 256 ([`W256`]) or 512
//!   ([`W512`]) independent simulations per pass. The wide words are
//!   plain `[u64; N]` element-wise ops — safe code the compiler
//!   autovectorizes — so no `unsafe` and no SIMD intrinsics enter the
//!   crate.
//! - **Opcode fusion** — [`SimProgram::compile_fused`] runs a rewrite
//!   pass that folds `Not` gates into their consumers as negated-input
//!   opcodes (`AndNot`, `OrNot`, `Nand`, `Nor`, `Xnor`, `Mux` select
//!   inversion) and collapses one level of pure `And`/`Or` chains into
//!   three-input ops (`And3`, `Or3`), shrinking both the op count and
//!   the number of value slots the wave touches. Fusion only elides a
//!   net when it is *unobservable* (not an output-port bit, not a DFF
//!   data input) and every consumer can absorb it, so port reads and
//!   `step` are unaffected; probing an elided net panics. The default
//!   [`SimProgram::compile`] never fuses — analyzers that map nets to
//!   ops one-for-one (fault-site resolution in `hwperm-faults`, VCD
//!   tracing, CNF encoding of a specific netlist shape) keep the
//!   canonical tape.
//! - **Level-blocked execution** — a settle ([`crate::BatchSim::eval`])
//!   walks the tape in precomputed blocks of consecutive levels sized so
//!   one block's op metadata and wide-word operands fit in L1, instead of
//!   one monolithic sweep. Any ascending contiguous segmentation of the
//!   tape is semantically identical (see [`SimProgram::exec_range`]), so
//!   blocking is purely a locality decision; oversized levels are split
//!   at the budget boundary.
//!
//! The program is immutable after compilation and intended to be shared
//! across threads via `Arc<SimProgram>`: per-simulator state shrinks to
//! one flat value array (one [`SimWord`] per slot), so a thread-sharded
//! verifier spawns workers by cloning an `Arc` instead of a `Netlist`.
//!
//! Compilation requires a structurally valid netlist (see
//! [`Netlist::validate`]): gate fanin must be topologically ordered
//! (only `Dff.d` may look forward). Out-of-range references panic at
//! compile time; behaviour on combinational forward-references is
//! unspecified (the lint engine exists to reject those before they get
//! here).

use crate::netlist::{Gate, NetId, Netlist, Port};
use std::ops::{BitAnd, BitOr, BitXor, Not};
use std::sync::Arc;

/// A value domain the tape can execute over: `bool` (one simulation),
/// `u64` (64 bit-parallel lanes), or a [`Wide`] word ([`W256`]/[`W512`]
/// — 256/512 lanes). `Mux` lowers to `(sel & b) | (!sel & a)`, which is
/// exact in every domain.
///
/// Lane accessors let width-generic drivers (batch testbenches,
/// exhaustive sweeps, fault campaigns) pack per-simulation bits into a
/// word and pull individual lanes back out without knowing the concrete
/// width.
pub trait SimWord:
    Copy
    + PartialEq
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + 'static
{
    /// Number of independent simulation lanes a word carries.
    const LANES: usize;

    /// The value with every lane set to `bit`.
    fn splat(bit: bool) -> Self;

    /// The all-lanes-zero value.
    #[inline]
    fn zero() -> Self {
        Self::splat(false)
    }

    /// Reads one lane.
    ///
    /// # Panics
    /// Panics if `lane >= Self::LANES`.
    fn lane(self, lane: usize) -> bool;

    /// Writes one lane, leaving the others untouched.
    ///
    /// # Panics
    /// Panics if `lane >= Self::LANES`.
    fn set_lane(&mut self, lane: usize, bit: bool);

    /// The value with only `lane` set — a single-lane mask.
    ///
    /// # Panics
    /// Panics if `lane >= Self::LANES`.
    fn lane_one(lane: usize) -> Self {
        let mut w = Self::zero();
        w.set_lane(lane, true);
        w
    }

    /// The value with the low `count` lanes set — the live-lane mask of
    /// a partially filled batch.
    ///
    /// # Panics
    /// Panics if `count > Self::LANES`.
    fn mask_lanes(count: usize) -> Self;

    /// `true` if any lane is set.
    #[inline]
    fn any(self) -> bool {
        self != Self::zero()
    }

    /// Index of the lowest set lane, or `None` for an all-zero word.
    /// Deterministic lowest-first order is what keeps first-mismatch
    /// witnesses identical across widths and worker counts.
    fn first_lane(self) -> Option<usize>;
}

impl SimWord for bool {
    const LANES: usize = 1;

    #[inline]
    fn splat(bit: bool) -> bool {
        bit
    }

    #[inline]
    fn lane(self, lane: usize) -> bool {
        assert!(lane < 1, "lane {lane} out of range for a 1-lane bool");
        self
    }

    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(lane < 1, "lane {lane} out of range for a 1-lane bool");
        *self = bit;
    }

    #[inline]
    fn mask_lanes(count: usize) -> bool {
        assert!(count <= 1, "{count} lanes exceed a 1-lane bool");
        count == 1
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        if self {
            Some(0)
        } else {
            None
        }
    }
}

impl SimWord for u64 {
    const LANES: usize = 64;

    #[inline]
    fn splat(bit: bool) -> u64 {
        if bit {
            u64::MAX
        } else {
            0
        }
    }

    #[inline]
    fn lane(self, lane: usize) -> bool {
        assert!(lane < 64, "lane {lane} out of range for a 64-lane u64");
        (self >> lane) & 1 == 1
    }

    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(lane < 64, "lane {lane} out of range for a 64-lane u64");
        let mask = 1u64 << lane;
        if bit {
            *self |= mask;
        } else {
            *self &= !mask;
        }
    }

    #[inline]
    fn lane_one(lane: usize) -> u64 {
        assert!(lane < 64, "lane {lane} out of range for a 64-lane u64");
        1u64 << lane
    }

    #[inline]
    fn mask_lanes(count: usize) -> u64 {
        assert!(count <= 64, "{count} lanes exceed a 64-lane u64");
        if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        }
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        if self == 0 {
            None
        } else {
            Some(self.trailing_zeros() as usize)
        }
    }
}

/// A `64·N`-lane simulation word: `N` `u64` limbs combined element-wise
/// with plain safe array loops that LLVM autovectorizes (no `unsafe`,
/// no intrinsics). Lane `l` lives in bit `l % 64` of limb `l / 64`, so
/// a `Wide` word is layout-compatible with `N` consecutive `u64`
/// batches. Use the [`W256`]/[`W512`] aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wide<const N: usize>([u64; N]);

/// 256 simulation lanes per word (`[u64; 4]`).
pub type W256 = Wide<4>;

/// 512 simulation lanes per word (`[u64; 8]`).
pub type W512 = Wide<8>;

impl<const N: usize> Wide<N> {
    /// Builds a wide word from its `u64` limbs, limb `k` carrying lanes
    /// `64k .. 64k+64`.
    #[inline]
    pub fn from_limbs(limbs: [u64; N]) -> Self {
        Wide(limbs)
    }

    /// The `u64` limbs, limb `k` carrying lanes `64k .. 64k+64`.
    #[inline]
    pub fn limbs(self) -> [u64; N] {
        self.0
    }
}

impl<const N: usize> BitAnd for Wide<N> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a &= *b;
        }
        self
    }
}

impl<const N: usize> BitOr for Wide<N> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a |= *b;
        }
        self
    }
}

impl<const N: usize> BitXor for Wide<N> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a ^= *b;
        }
        self
    }
}

impl<const N: usize> Not for Wide<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

impl<const N: usize> SimWord for Wide<N> {
    const LANES: usize = 64 * N;

    #[inline]
    fn splat(bit: bool) -> Self {
        Wide([u64::splat(bit); N])
    }

    #[inline]
    fn lane(self, lane: usize) -> bool {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane wide word",
            Self::LANES
        );
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane wide word",
            Self::LANES
        );
        let mask = 1u64 << (lane % 64);
        if bit {
            self.0[lane / 64] |= mask;
        } else {
            self.0[lane / 64] &= !mask;
        }
    }

    #[inline]
    fn mask_lanes(count: usize) -> Self {
        assert!(
            count <= Self::LANES,
            "{count} lanes exceed a {}-lane wide word",
            Self::LANES
        );
        let mut w = [0u64; N];
        for (k, limb) in w.iter_mut().enumerate() {
            let low = k * 64;
            *limb = u64::mask_lanes(count.saturating_sub(low).min(64));
        }
        Wide(w)
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        for (k, &limb) in self.0.iter().enumerate() {
            if limb != 0 {
                return Some(k * 64 + limb.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Tape opcode. Only combinational gates are lowered; everything else
/// lives in the state region of the value array. The variants past
/// `Mux` only appear on fused tapes ([`SimProgram::compile_fused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpCode {
    Not,
    And,
    Or,
    Xor,
    Mux,
    AndNot,
    OrNot,
    Nand,
    Nor,
    Xnor,
    And3,
    Or3,
}

impl OpCode {
    /// Stable lower-case name, the key used by [`TapeStats`].
    fn name(self) -> &'static str {
        match self {
            OpCode::Not => "not",
            OpCode::And => "and",
            OpCode::Or => "or",
            OpCode::Xor => "xor",
            OpCode::Mux => "mux",
            OpCode::AndNot => "andnot",
            OpCode::OrNot => "ornot",
            OpCode::Nand => "nand",
            OpCode::Nor => "nor",
            OpCode::Xnor => "xnor",
            OpCode::And3 => "and3",
            OpCode::Or3 => "or3",
        }
    }

    /// Every opcode, in the stable order [`TapeStats::op_counts`] uses.
    const ALL: [OpCode; 12] = [
        OpCode::Not,
        OpCode::And,
        OpCode::Or,
        OpCode::Xor,
        OpCode::Mux,
        OpCode::AndNot,
        OpCode::OrNot,
        OpCode::Nand,
        OpCode::Nor,
        OpCode::Xnor,
        OpCode::And3,
        OpCode::Or3,
    ];
}

/// One tape op decoded for external analyzers (the CNF encoder in
/// `hwperm-sat`, fault-site enumeration, …). All operands are
/// value-array slots, already resolved — an analyzer walking
/// [`SimProgram::op`] in tape order sees exactly the data flow a
/// settle executes, with op `j` defining slot
/// `comb_base() + j`. The variants past `Mux` are fused opcodes and
/// only appear on tapes from [`SimProgram::compile_fused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeOp {
    /// `out = !a`.
    Not {
        /// Operand slot.
        a: u32,
    },
    /// `out = a & b`.
    And {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = a | b`.
    Or {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = a ^ b`.
    Xor {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = sel ? b : a`.
    Mux {
        /// Select slot.
        sel: u32,
        /// Slot taken when `sel` is 0.
        a: u32,
        /// Slot taken when `sel` is 1.
        b: u32,
    },
    /// `out = a & !b` (fused negated-input AND).
    AndNot {
        /// Positive operand slot.
        a: u32,
        /// Negated operand slot.
        b: u32,
    },
    /// `out = a | !b` (fused negated-input OR).
    OrNot {
        /// Positive operand slot.
        a: u32,
        /// Negated operand slot.
        b: u32,
    },
    /// `out = !(a & b)` (fused complemented AND).
    Nand {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = !(a | b)` (fused complemented OR).
    Nor {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = !(a ^ b)` (fused complemented XOR).
    Xnor {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `out = a & b & c` (fused AND chain).
    And3 {
        /// First operand slot.
        a: u32,
        /// Second operand slot.
        b: u32,
        /// Third operand slot.
        c: u32,
    },
    /// `out = a | b | c` (fused OR chain).
    Or3 {
        /// First operand slot.
        a: u32,
        /// Second operand slot.
        b: u32,
        /// Third operand slot.
        c: u32,
    },
}

/// One D flip-flop's slot pair, as exposed to external analyzers: the
/// state slot `q`, the slot `d` its next value settles into, and the
/// reset value. See [`SimProgram::dff_slot_pairs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DffSlotPair {
    /// The register's state slot (read by the combinational wave).
    pub q: u32,
    /// The slot holding the settled next-state value.
    pub d: u32,
    /// Reset/initial value.
    pub init: bool,
}

/// Aggregate tape statistics — op counts by kind, level/block shape,
/// and what opcode fusion saved. Produced by [`SimProgram::stats`];
/// `hwperm lint --json` reports it per circuit family so fusion wins
/// are observable without recompiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeStats {
    /// Tape ops after any fusion (= [`SimProgram::op_count`]).
    pub ops: usize,
    /// Logic levels in the tape.
    pub levels: usize,
    /// Level blocks a settle walks.
    pub blocks: usize,
    /// Combinational gate count of the source netlist — the op count
    /// an unfused compile of the same netlist produces.
    pub unfused_ops: usize,
    /// `(opcode name, count)` for every opcode, in a stable order,
    /// including zero counts (a stable schema for JSON reporting).
    pub op_counts: Vec<(&'static str, usize)>,
}

impl TapeStats {
    /// Ops eliminated by fusion (`0` for a canonical compile).
    pub fn fused_away(&self) -> usize {
        self.unfused_ops - self.ops
    }
}

/// A named port resolved to flat value-array slots (LSB first).
#[derive(Debug, Clone)]
struct SlotPort {
    name: String,
    slots: Vec<u32>,
}

/// One D flip-flop as a slot pair: `q` (its state slot) and `d` (the
/// slot its data input settles into).
#[derive(Debug, Clone, Copy)]
struct DffSlots {
    q: u32,
    d: u32,
    init: bool,
}

/// Sentinel slot for a net elided by opcode fusion.
const ELIDED: u32 = u32::MAX;

/// Per-op working form of the fusion rewriter: the original opcode
/// plus polarity flags on the two data operands (`na`/`nb` mean "read
/// complemented") and an optional third operand for collapsed chains.
/// Operand fields hold *net* indices until final lowering.
#[derive(Debug, Clone, Copy)]
struct Pending {
    code: OpCode,
    a: u32,
    na: bool,
    b: u32,
    nb: bool,
    sel: u32,
    c: u32,
    has_c: bool,
}

/// Level-block op budget: ops per block sized so a block's SoA
/// metadata (13 B/op) plus four touched [`W512`] operands per op
/// (4 × 64 B) stay within a conservative 32 KiB L1 working set:
/// `128 × (13 + 256) ≈ 34 KiB`. Narrower words under-fill the budget,
/// which only means more (still correct) block boundaries.
const BLOCK_OPS: u32 = 128;

/// A [`Netlist`] compiled to the flat simulation tape. See the module
/// docs for the layout; construct with [`SimProgram::compile`] (or
/// [`SimProgram::compile_fused`] for the opcode-fused variant) and
/// share across simulator instances (and threads) via
/// [`SimProgram::compile_shared`].
#[derive(Debug)]
pub struct SimProgram {
    /// The source netlist, retained for port metadata, diagnostics and
    /// structural probing ([`SimProgram::netlist`]).
    netlist: Netlist,
    /// Net index → value-array slot ([`ELIDED`] for fused-away nets).
    slot_of: Vec<u32>,
    /// First combinational slot; tape op `j` writes `comb_base + j`.
    comb_base: u32,
    /// Structure-of-arrays op stream, levelized (level, then creation
    /// order). `args_a[j]`/`args_b[j]` are operand slots (`b == a` for
    /// `Not`); `args_sel[j]` is the select slot (read for `Mux`) or the
    /// third operand (read for `And3`/`Or3`).
    opcodes: Vec<OpCode>,
    args_a: Vec<u32>,
    args_b: Vec<u32>,
    args_sel: Vec<u32>,
    /// Tape offset where each level starts; `level_starts.last()` is
    /// the op count. Level `k` (1-based) occupies
    /// `level_starts[k-1]..level_starts[k]`.
    level_starts: Vec<u32>,
    /// Tape offset where each execution block starts (see module docs
    /// on level-blocked execution); `block_starts.last()` is the op
    /// count.
    block_starts: Vec<u32>,
    /// Whether the fusion rewriter ran ([`SimProgram::compile_fused`]).
    fused: bool,
    /// Combinational gate count of the source netlist (= op count of
    /// an unfused compile).
    unfused_ops: u32,
    /// Constant slots and their baked values.
    consts: Vec<(u32, bool)>,
    /// DFF slot pairs, in creation order.
    dffs: Vec<DffSlots>,
    /// Input/output ports resolved to slots, in declaration order.
    inputs: Vec<SlotPort>,
    outputs: Vec<SlotPort>,
}

impl SimProgram {
    /// Lowers a validated netlist into the tape. `O(gates)` one-time
    /// cost; the result is immutable. Every net keeps a value slot —
    /// no fusion — so external analyzers can map nets to ops
    /// one-for-one; see [`SimProgram::compile_fused`] for the
    /// throughput-oriented variant.
    ///
    /// # Panics
    /// Panics if any gate or port references an out-of-range net.
    /// Combinational forward references (structurally invalid netlists)
    /// compile but execute in an unspecified order — run
    /// [`Netlist::validate`] first if provenance is in doubt.
    pub fn compile(netlist: Netlist) -> SimProgram {
        Self::compile_inner(netlist, false)
    }

    /// [`SimProgram::compile`] plus the opcode-fusion rewrite: `Not`
    /// gates are folded into consumers as negated-input opcodes
    /// (`AndNot`/`OrNot`/`Nand`/`Nor`/`Xnor`, `Mux` select inversion)
    /// and one level of pure `And`/`Or` chains collapses into
    /// `And3`/`Or3`. The fused tape computes bit-identical port values
    /// and DFF behaviour with fewer ops and fewer live slots.
    ///
    /// Nets elided by fusion no longer have a value slot:
    /// [`SimProgram::slot`] (and therefore simulator `probe`) panics
    /// for them. Use the canonical [`SimProgram::compile`] when
    /// arbitrary internal nets must stay observable (VCD tracing,
    /// fault injection, one-hot bank scans).
    ///
    /// # Panics
    /// As [`SimProgram::compile`].
    pub fn compile_fused(netlist: Netlist) -> SimProgram {
        Self::compile_inner(netlist, true)
    }

    /// [`SimProgram::compile`], wrapped for cross-thread sharing: every
    /// simulator built from the same `Arc` shares one tape.
    pub fn compile_shared(netlist: Netlist) -> Arc<SimProgram> {
        Arc::new(Self::compile(netlist))
    }

    /// [`SimProgram::compile_fused`], wrapped for cross-thread sharing.
    pub fn compile_fused_shared(netlist: Netlist) -> Arc<SimProgram> {
        Arc::new(Self::compile_fused(netlist))
    }

    fn compile_inner(netlist: Netlist, fuse: bool) -> SimProgram {
        let n = netlist.len();
        let in_range = |net: NetId, what: &str| {
            assert!(
                net.index() < n,
                "cannot compile: {what} references out-of-range net {}",
                net.index()
            );
            net
        };
        // Fanin validation, exactly as the pre-fusion compiler did it
        // while computing levels.
        for g in netlist.gates() {
            if g.is_combinational() {
                for f in g.fanin() {
                    in_range(f, "gate");
                }
            }
        }
        // Working form: one `Pending` per net (state nets hold a dummy
        // entry that is never read).
        let dummy = Pending {
            code: OpCode::Not,
            a: 0,
            na: false,
            b: 0,
            nb: false,
            sel: 0,
            c: 0,
            has_c: false,
        };
        let mut pending = vec![dummy; n];
        let mut unfused_ops = 0u32;
        for (i, g) in netlist.gates().iter().enumerate() {
            if !g.is_combinational() {
                continue;
            }
            unfused_ops += 1;
            let (code, a, b, sel) = match *g {
                Gate::Not(x) => (OpCode::Not, x, x, x),
                Gate::And(x, y) => (OpCode::And, x, y, x),
                Gate::Or(x, y) => (OpCode::Or, x, y, x),
                Gate::Xor(x, y) => (OpCode::Xor, x, y, x),
                Gate::Mux { sel, a, b } => (OpCode::Mux, a, b, sel),
                Gate::Const(_) | Gate::Input | Gate::Dff { .. } => {
                    unreachable!("state gates are never lowered to ops")
                }
            };
            pending[i] = Pending {
                code,
                a: a.index() as u32,
                na: false,
                b: b.index() as u32,
                nb: false,
                sel: sel.index() as u32,
                c: 0,
                has_c: false,
            };
        }
        let mut elided = vec![false; n];
        if fuse {
            Self::fuse(&netlist, &mut pending, &mut elided);
        }
        // Slot assignment: state region first (creation order), then
        // one slot per surviving op in (post-fusion) tape order.
        let mut slot_of = vec![ELIDED; n];
        let mut next_state = 0u32;
        for (i, g) in netlist.gates().iter().enumerate() {
            if !g.is_combinational() {
                slot_of[i] = next_state;
                next_state += 1;
            }
        }
        let comb_base = next_state;
        // Logic levels over the *surviving* ops: state nets are level
        // 0, each op one past its deepest read operand. Operand nets
        // always survive (fusion substitutes elided nets away), and
        // construction order is topological, so one ascending pass
        // settles every level.
        let mut level = vec![0u32; n];
        let mut max_level = 0u32;
        for i in 0..n {
            if !netlist.gates()[i].is_combinational() || elided[i] {
                continue;
            }
            let p = &pending[i];
            let mut deepest = level[p.a as usize];
            match p.code {
                OpCode::Not => {}
                OpCode::Mux => {
                    deepest = deepest.max(level[p.b as usize]).max(level[p.sel as usize]);
                }
                _ => {
                    deepest = deepest.max(level[p.b as usize]);
                    if p.has_c {
                        deepest = deepest.max(level[p.c as usize]);
                    }
                }
            }
            level[i] = deepest + 1;
            max_level = max_level.max(level[i]);
        }
        // Stable level-major order: bucket surviving ops by level,
        // creation order within a level.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize];
        for i in 0..n {
            if netlist.gates()[i].is_combinational() && !elided[i] {
                buckets[level[i] as usize - 1].push(i as u32);
            }
        }
        let mut level_starts = Vec::with_capacity(max_level as usize + 1);
        level_starts.push(0u32);
        let mut tape_order = Vec::new();
        for bucket in &buckets {
            for &i in bucket {
                slot_of[i as usize] = comb_base + tape_order.len() as u32;
                tape_order.push(i);
            }
            level_starts.push(tape_order.len() as u32);
        }
        // Lower the surviving ops now that every live net has a slot.
        let mut opcodes = Vec::with_capacity(tape_order.len());
        let mut args_a = Vec::with_capacity(tape_order.len());
        let mut args_b = Vec::with_capacity(tape_order.len());
        let mut args_sel = Vec::with_capacity(tape_order.len());
        for &i in &tape_order {
            let p = pending[i as usize];
            // Resolve polarity flags and chain operands to final
            // opcodes; operand columns switch from nets to slots here.
            let (code, a, b, sel) = match p.code {
                OpCode::Not => (OpCode::Not, p.a, p.a, p.a),
                OpCode::And if p.has_c => (OpCode::And3, p.a, p.b, p.c),
                OpCode::Or if p.has_c => (OpCode::Or3, p.a, p.b, p.c),
                OpCode::And => match (p.na, p.nb) {
                    (false, false) => (OpCode::And, p.a, p.b, p.a),
                    (false, true) => (OpCode::AndNot, p.a, p.b, p.a),
                    (true, false) => (OpCode::AndNot, p.b, p.a, p.b),
                    (true, true) => (OpCode::Nor, p.a, p.b, p.a),
                },
                OpCode::Or => match (p.na, p.nb) {
                    (false, false) => (OpCode::Or, p.a, p.b, p.a),
                    (false, true) => (OpCode::OrNot, p.a, p.b, p.a),
                    (true, false) => (OpCode::OrNot, p.b, p.a, p.b),
                    (true, true) => (OpCode::Nand, p.a, p.b, p.a),
                },
                OpCode::Xor => {
                    if p.na ^ p.nb {
                        (OpCode::Xnor, p.a, p.b, p.a)
                    } else {
                        (OpCode::Xor, p.a, p.b, p.a)
                    }
                }
                OpCode::Mux => (OpCode::Mux, p.a, p.b, p.sel),
                fused => unreachable!("{fused:?} cannot appear before lowering"),
            };
            opcodes.push(code);
            args_a.push(slot_of[a as usize]);
            args_b.push(slot_of[b as usize]);
            args_sel.push(slot_of[sel as usize]);
        }
        let block_starts = Self::compute_blocks(&level_starts);
        // State metadata: baked constants and DFF slot pairs.
        let mut consts = Vec::new();
        let mut dffs = Vec::new();
        for (i, g) in netlist.gates().iter().enumerate() {
            match *g {
                Gate::Const(c) => consts.push((slot_of[i], c)),
                Gate::Dff { d, init } => dffs.push(DffSlots {
                    q: slot_of[i],
                    d: slot_of[in_range(d, "DFF").index()],
                    init,
                }),
                _ => {}
            }
        }
        let resolve = |ports: &[Port], dir: &str| -> Vec<SlotPort> {
            ports
                .iter()
                .map(|p| SlotPort {
                    name: p.name.clone(),
                    slots: p
                        .nets
                        .iter()
                        .map(|&net| slot_of[in_range(net, dir).index()])
                        .collect(),
                })
                .collect()
        };
        let inputs = resolve(netlist.input_ports(), "input port");
        let outputs = resolve(netlist.output_ports(), "output port");
        SimProgram {
            netlist,
            slot_of,
            comb_base,
            opcodes,
            args_a,
            args_b,
            args_sel,
            level_starts,
            block_starts,
            fused: fuse,
            unfused_ops,
            consts,
            dffs,
            inputs,
            outputs,
        }
    }

    /// The fusion rewrite over the `Pending` working form. Three
    /// passes, each of which only elides a net that is unobservable
    /// (not an output-port bit, not a DFF data input) and fully
    /// absorbed by its consumers:
    ///
    /// 1. **NOT folding** — a `Not` whose every consumer is an
    ///    `And`/`Or`/`Xor` data operand or a `Mux` select is elided;
    ///    consumers flip the operand's polarity flag (`Mux` swaps its
    ///    data arms instead).
    /// 2. **Complement fusion** — `Not(g)` where `g` is a single-use
    ///    `And`/`Or`/`Xor` elides `g`: the `Not` becomes the De-Morgan
    ///    complement (`And ↔ Or` with flipped flags, `Xor` with one
    ///    flag flipped), lowering to `Nand`/`Nor`/`Xnor`.
    /// 3. **Chain collapse** — `And(And(a, b), c)` with a single-use,
    ///    flag-free inner gate becomes `And3(a, b, c)` (same for
    ///    `Or`); one level only, so the tape stays shallow-operand.
    fn fuse(netlist: &Netlist, pending: &mut [Pending], elided: &mut [bool]) {
        let n = netlist.len();
        let gates = netlist.gates();
        let is_comb = |i: usize| gates[i].is_combinational();
        // Observable nets must keep their value slots: output-port
        // bits are read by testbenches, DFF data inputs by `latch`.
        let mut observable = vec![false; n];
        for p in netlist.output_ports() {
            for &net in &p.nets {
                observable[net.index()] = true;
            }
        }
        for g in gates {
            if let Gate::Dff { d, .. } = *g {
                observable[d.index()] = true;
            }
        }
        // Combinational consumer gates per net (deduped; construction
        // order pushes a gate's operands consecutively).
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in gates.iter().enumerate() {
            if !g.is_combinational() {
                continue;
            }
            for f in g.fanin() {
                let v = &mut consumers[f.index()];
                if v.last() != Some(&(i as u32)) {
                    v.push(i as u32);
                }
            }
        }
        // Current read counts (combinational operands + DFF data
        // inputs + output-port bits) over the live pending ops.
        let recount = |pending: &[Pending], elided: &[bool]| -> Vec<u32> {
            let mut uses = vec![0u32; n];
            for i in 0..n {
                if !is_comb(i) || elided[i] {
                    continue;
                }
                let p = &pending[i];
                uses[p.a as usize] += 1;
                match p.code {
                    OpCode::Not => {}
                    OpCode::Mux => {
                        uses[p.b as usize] += 1;
                        uses[p.sel as usize] += 1;
                    }
                    _ => {
                        uses[p.b as usize] += 1;
                        if p.has_c {
                            uses[p.c as usize] += 1;
                        }
                    }
                }
            }
            for g in gates {
                if let Gate::Dff { d, .. } = *g {
                    uses[d.index()] += 1;
                }
            }
            for p in netlist.output_ports() {
                for &net in &p.nets {
                    uses[net.index()] += 1;
                }
            }
            uses
        };
        // Pass 1: fold NOT gates into absorbing consumers. Ascending
        // net order means a Not's source was already processed, so
        // substituted operands never point at an elided net.
        for t in 0..n {
            if !is_comb(t) || observable[t] || pending[t].code != OpCode::Not {
                continue;
            }
            let cons = &consumers[t];
            if cons.is_empty() {
                continue;
            }
            let t32 = t as u32;
            let absorbable = cons.iter().all(|&g| {
                let p = &pending[g as usize];
                match p.code {
                    OpCode::And | OpCode::Or | OpCode::Xor => true,
                    // A Mux absorbs a negated *select* (by swapping its
                    // data arms) but not a negated data operand.
                    OpCode::Mux => p.a != t32 && p.b != t32,
                    _ => false,
                }
            });
            if !absorbable {
                continue;
            }
            let src = pending[t].a;
            for &g in cons {
                let p = &mut pending[g as usize];
                if p.code == OpCode::Mux && p.sel == t32 {
                    std::mem::swap(&mut p.a, &mut p.b);
                    std::mem::swap(&mut p.na, &mut p.nb);
                    p.sel = src;
                }
                if p.a == t32 {
                    p.a = src;
                    p.na = !p.na;
                }
                if p.b == t32 {
                    p.b = src;
                    p.nb = !p.nb;
                }
            }
            elided[t] = true;
        }
        // Pass 2: complement fusion — the surviving Not over a
        // single-use And/Or/Xor takes over the gate as its De Morgan
        // complement.
        let uses = recount(pending, elided);
        for t in 0..n {
            if !is_comb(t) || elided[t] || pending[t].code != OpCode::Not {
                continue;
            }
            let src = pending[t].a as usize;
            if !is_comb(src) || elided[src] || observable[src] || uses[src] != 1 {
                continue;
            }
            let q = pending[src];
            pending[t] = match q.code {
                OpCode::And => Pending {
                    code: OpCode::Or,
                    na: !q.na,
                    nb: !q.nb,
                    ..q
                },
                OpCode::Or => Pending {
                    code: OpCode::And,
                    na: !q.na,
                    nb: !q.nb,
                    ..q
                },
                OpCode::Xor => Pending { na: !q.na, ..q },
                _ => continue,
            };
            elided[src] = true;
        }
        // Pass 3: collapse one level of pure (flag-free) And/Or chains
        // into three-input ops.
        let uses = recount(pending, elided);
        for t in 0..n {
            if !is_comb(t) || elided[t] {
                continue;
            }
            let p = pending[t];
            if !matches!(p.code, OpCode::And | OpCode::Or) || p.na || p.nb || p.has_c {
                continue;
            }
            if p.a == p.b {
                continue;
            }
            let collapsible = |inner: u32| -> bool {
                let i = inner as usize;
                is_comb(i) && !elided[i] && !observable[i] && uses[i] == 1 && {
                    let q = &pending[i];
                    q.code == p.code && !q.na && !q.nb && !q.has_c
                }
            };
            let (via_a, via_b) = (collapsible(p.a), collapsible(p.b));
            if via_a {
                let q = pending[p.a as usize];
                elided[p.a as usize] = true;
                pending[t] = Pending {
                    a: q.a,
                    na: false,
                    b: q.b,
                    nb: false,
                    c: p.b,
                    has_c: true,
                    ..p
                };
            } else if via_b {
                let q = pending[p.b as usize];
                elided[p.b as usize] = true;
                pending[t] = Pending {
                    a: p.a,
                    na: false,
                    b: q.a,
                    nb: false,
                    c: q.b,
                    has_c: true,
                    ..p
                };
            }
        }
    }

    /// Greedy level-block boundaries: consecutive levels accumulate
    /// into a block until it reaches [`BLOCK_OPS`]; a level larger than
    /// the whole budget is split at the budget boundary (any ascending
    /// contiguous segmentation is valid — see
    /// [`SimProgram::exec_range`]).
    fn compute_blocks(level_starts: &[u32]) -> Vec<u32> {
        let total = *level_starts.last().expect("level_starts is never empty");
        let mut blocks = vec![0u32];
        let mut start = 0u32;
        for &end in &level_starts[1..] {
            while end - start >= BLOCK_OPS {
                start = (start + BLOCK_OPS).min(end);
                blocks.push(start);
            }
        }
        if *blocks.last().expect("seeded with 0") != total {
            blocks.push(total);
        }
        blocks
    }

    /// The source netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of value-array slots: state slots plus one per tape op.
    /// Equal to the net count for a canonical compile; a fused tape
    /// has fewer (elided nets carry no slot).
    pub fn slot_count(&self) -> usize {
        self.comb_base as usize + self.opcodes.len()
    }

    /// Number of tape ops (= combinational gates, minus fusion).
    pub fn op_count(&self) -> usize {
        self.opcodes.len()
    }

    /// Number of logic levels in the tape (0 for a state-only netlist).
    pub fn level_count(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// Number of level blocks a settle ([`crate::BatchSim::eval`])
    /// walks.
    pub fn block_count(&self) -> usize {
        self.block_starts.len() - 1
    }

    /// Number of D flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// `true` if this tape came from [`SimProgram::compile_fused`].
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// Aggregate tape statistics: op counts by kind, level/block
    /// shape, and fusion savings versus the canonical compile.
    pub fn stats(&self) -> TapeStats {
        let mut counts = [0usize; OpCode::ALL.len()];
        for &code in &self.opcodes {
            counts[code as usize] += 1;
        }
        TapeStats {
            ops: self.op_count(),
            levels: self.level_count(),
            blocks: self.block_count(),
            unfused_ops: self.unfused_ops as usize,
            op_counts: OpCode::ALL
                .iter()
                .map(|&c| (c.name(), counts[c as usize]))
                .collect(),
        }
    }

    /// The value-array slot a net settles into.
    ///
    /// # Panics
    /// Panics if the net is out of range for the source netlist, or if
    /// opcode fusion elided it (fused tapes only keep slots for
    /// observable and unabsorbed nets — compile without fusion to
    /// probe arbitrary internal nets).
    #[inline]
    pub fn slot(&self, net: NetId) -> usize {
        let slot = self.slot_of[net.index()];
        assert!(
            slot != ELIDED,
            "net {} was elided by opcode fusion; compile without fusion to probe it",
            net.index()
        );
        slot as usize
    }

    /// First combinational slot: slots `0..comb_base()` hold state
    /// (inputs, constants, DFF outputs, in creation order), and tape op
    /// `j` writes slot `comb_base() + j`. External tape drivers (the
    /// fault overlays in `hwperm-faults`) use this to translate
    /// a combinational net's slot into its tape-op position.
    #[inline]
    pub fn comb_base(&self) -> usize {
        self.comb_base as usize
    }

    /// `true` iff the net is a DFF output (its slot is a register state
    /// slot that [`crate::BatchSim::latch`] overwrites on every clock
    /// edge).
    ///
    /// # Panics
    /// Panics if the net is out of range for the source netlist.
    pub fn is_dff_net(&self, net: NetId) -> bool {
        matches!(self.netlist.gates()[net.index()], Gate::Dff { .. })
    }

    /// A fresh per-instance value array: all-zero except baked
    /// constants and DFF reset values.
    pub(crate) fn initial_values<W: SimWord>(&self) -> Vec<W> {
        let mut values = vec![W::splat(false); self.slot_count()];
        for &(slot, c) in &self.consts {
            values[slot as usize] = W::splat(c);
        }
        for d in &self.dffs {
            values[d.q as usize] = W::splat(d.init);
        }
        values
    }

    /// Combinational settle: executes the tape once over `values`,
    /// walking the precomputed level blocks so each segment's op
    /// metadata and operand words stay cache-resident. Input and DFF
    /// slots are read, never written; constant slots were baked at
    /// construction.
    #[inline]
    pub(crate) fn exec<W: SimWord>(&self, values: &mut [W]) {
        for w in self.block_starts.windows(2) {
            self.exec_range(values, w[0] as usize..w[1] as usize);
        }
    }

    /// Executes tape ops `range` (op `j` writes slot
    /// `comb_base() + j`). Segmented execution is what lets an external
    /// driver interpose on the wave mid-tape: run `0..j+1`, overwrite op
    /// `j`'s output slot, then run `j+1..op_count()` — the mechanism
    /// behind `hwperm-faults`' non-destructive stuck-at overlays. The
    /// full-tape settle ([`crate::BatchSim::eval`]) is this over the
    /// level blocks.
    ///
    /// Correctness requires segments be executed in ascending,
    /// contiguous order starting at 0 (the tape is levelized, so op `j`
    /// only reads slots below `comb_base() + j`).
    ///
    /// # Panics
    /// Panics if `range` exceeds `0..op_count()`.
    #[inline]
    pub fn exec_range<W: SimWord>(&self, values: &mut [W], range: std::ops::Range<usize>) {
        assert!(
            range.end <= self.opcodes.len(),
            "tape range {range:?} exceeds the {}-op tape",
            self.opcodes.len()
        );
        let base = self.comb_base as usize;
        for j in range {
            let a = values[self.args_a[j] as usize];
            let v = match self.opcodes[j] {
                OpCode::Not => !a,
                OpCode::And => a & values[self.args_b[j] as usize],
                OpCode::Or => a | values[self.args_b[j] as usize],
                OpCode::Xor => a ^ values[self.args_b[j] as usize],
                OpCode::Mux => {
                    let s = values[self.args_sel[j] as usize];
                    (s & values[self.args_b[j] as usize]) | (!s & a)
                }
                OpCode::AndNot => a & !values[self.args_b[j] as usize],
                OpCode::OrNot => a | !values[self.args_b[j] as usize],
                OpCode::Nand => !(a & values[self.args_b[j] as usize]),
                OpCode::Nor => !(a | values[self.args_b[j] as usize]),
                OpCode::Xnor => !(a ^ values[self.args_b[j] as usize]),
                OpCode::And3 => {
                    a & values[self.args_b[j] as usize] & values[self.args_sel[j] as usize]
                }
                OpCode::Or3 => {
                    a | values[self.args_b[j] as usize] | values[self.args_sel[j] as usize]
                }
            };
            values[base + j] = v;
        }
    }

    /// Clock edge: every DFF latches its settled `d` slot into its `q`
    /// slot. Two-phase through `scratch` so flop-to-flop chains all
    /// sample the pre-edge wave, exactly like the gate-walking
    /// simulators did with their separate state array.
    pub(crate) fn latch<W: SimWord>(&self, values: &mut [W], scratch: &mut Vec<W>) {
        scratch.clear();
        scratch.extend(self.dffs.iter().map(|d| values[d.d as usize]));
        for (d, &v) in self.dffs.iter().zip(scratch.iter()) {
            values[d.q as usize] = v;
        }
    }

    /// Resets every DFF slot to its `init` value (other slots are left
    /// as they are, like the pre-tape simulators).
    pub(crate) fn reset<W: SimWord>(&self, values: &mut [W]) {
        for d in &self.dffs {
            values[d.q as usize] = W::splat(d.init);
        }
    }

    /// Decodes tape op `j` for external analyzers. The op defines slot
    /// `comb_base() + j`; operands are value-array slots strictly below
    /// that (the tape is levelized). Fused tapes decode to the fused
    /// [`TapeOp`] variants.
    ///
    /// # Panics
    /// Panics if `j >= op_count()`.
    #[inline]
    pub fn op(&self, j: usize) -> TapeOp {
        let (a, b, sel) = (self.args_a[j], self.args_b[j], self.args_sel[j]);
        match self.opcodes[j] {
            OpCode::Not => TapeOp::Not { a },
            OpCode::And => TapeOp::And { a, b },
            OpCode::Or => TapeOp::Or { a, b },
            OpCode::Xor => TapeOp::Xor { a, b },
            OpCode::Mux => TapeOp::Mux { sel, a, b },
            OpCode::AndNot => TapeOp::AndNot { a, b },
            OpCode::OrNot => TapeOp::OrNot { a, b },
            OpCode::Nand => TapeOp::Nand { a, b },
            OpCode::Nor => TapeOp::Nor { a, b },
            OpCode::Xnor => TapeOp::Xnor { a, b },
            OpCode::And3 => TapeOp::And3 { a, b, c: sel },
            OpCode::Or3 => TapeOp::Or3 { a, b, c: sel },
        }
    }

    /// Iterates the constant slots and their baked values, in creation
    /// order.
    pub fn const_slots(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.consts.iter().copied()
    }

    /// Iterates the DFF slot pairs, in creation order — the same order
    /// [`crate::BatchSim::latch`] processes them.
    pub fn dff_slot_pairs(&self) -> impl Iterator<Item = DffSlotPair> + '_ {
        self.dffs.iter().map(|d| DffSlotPair {
            q: d.q,
            d: d.d,
            init: d.init,
        })
    }

    /// Slots of the named input port.
    ///
    /// # Panics
    /// Panics if the port does not exist, naming every known input and
    /// its width — the diagnostic every `BatchSim` input driver gives.
    #[inline]
    pub fn input_slots(&self, name: &str) -> &[u32] {
        match self.inputs.iter().find(|p| p.name == name) {
            Some(p) => &p.slots,
            None => {
                let known: Vec<String> = self
                    .inputs
                    .iter()
                    .map(|p| format!("{:?} ({} bits)", p.name, p.slots.len()))
                    .collect();
                let known = if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                };
                panic!("no input port named {name:?} (inputs: {known})")
            }
        }
    }

    /// Slots of the named output port.
    ///
    /// # Panics
    /// Panics if the port does not exist.
    #[inline]
    pub fn output_slots(&self, name: &str) -> &[u32] {
        self.outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.slots[..])
            .unwrap_or_else(|| panic!("no output port named {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn adder() -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        b.finish()
    }

    #[test]
    fn tape_shape_matches_netlist() {
        let nl = adder();
        let comb = nl.combinational_count();
        let p = SimProgram::compile(nl.clone());
        assert_eq!(p.slot_count(), nl.len());
        assert_eq!(p.op_count(), comb);
        assert_eq!(p.dff_count(), 0);
        assert!(p.level_count() >= 1);
        assert_eq!(
            p.level_count(),
            nl.gate_depth(),
            "tape levels = combinational gate depth"
        );
        assert!(!p.is_fused());
    }

    #[test]
    fn slots_are_a_permutation_of_nets() {
        let p = SimProgram::compile(adder());
        let mut seen = vec![false; p.slot_count()];
        for i in 0..p.slot_count() {
            let s = p.slot(NetId::forged(i as u32));
            assert!(!std::mem::replace(&mut seen[s], true), "slot {s} reused");
        }
        assert!(seen.iter().all(|&v| v), "every slot assigned exactly once");
    }

    #[test]
    fn tape_is_levelized() {
        // Every op's operands live strictly below the op's own slot, so
        // the sequential exec order is a valid topological schedule.
        let p = SimProgram::compile(adder());
        let base = p.comb_base as usize;
        for j in 0..p.op_count() {
            let out = base + j;
            for arg in [p.args_a[j], p.args_b[j], p.args_sel[j]] {
                assert!(
                    (arg as usize) < out,
                    "op {j} reads slot {arg} at or above its own slot {out}"
                );
            }
        }
        // And level starts are monotonically non-decreasing.
        assert!(p.level_starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn constants_are_baked_into_initial_values() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let t = b.constant(true);
        let f = b.constant(false);
        let and = b.and(x[0], t);
        b.output_bus("y", &[and, f]);
        let p = SimProgram::compile(b.finish());
        let values: Vec<bool> = p.initial_values();
        for &(slot, c) in &p.consts {
            assert_eq!(values[slot as usize], c);
        }
    }

    #[test]
    fn dff_pairs_latch_two_phase() {
        // q1 -> q2 flop chain: one latch moves q1's value into q2 while
        // q1 simultaneously takes the input — no shoot-through.
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q1 = b.dff(x[0], false);
        let q2 = b.dff(q1, true);
        b.output_bus("y", &[q2]);
        let p = SimProgram::compile(b.finish());
        assert_eq!(p.dff_count(), 2);
        let mut values: Vec<bool> = p.initial_values();
        let x_slot = p.input_slots("x")[0] as usize;
        let y_slot = p.output_slots("y")[0] as usize;
        assert!(values[y_slot], "q2 resets to 1");
        values[x_slot] = true;
        let mut scratch = Vec::new();
        p.exec(&mut values);
        p.latch(&mut values, &mut scratch); // q1 <- 1, q2 <- old q1 (0)
        assert!(!values[y_slot]);
        p.exec(&mut values);
        p.latch(&mut values, &mut scratch); // q2 <- 1
        assert!(values[y_slot]);
        p.reset(&mut values);
        assert!(values[y_slot], "reset restores init");
    }

    #[test]
    fn segmented_exec_matches_full_exec() {
        // Splitting the tape at every position and overwriting nothing
        // must reproduce the one-shot wave exactly — the contract the
        // fault overlays rely on.
        let p = SimProgram::compile(adder());
        let mut reference: Vec<bool> = p.initial_values();
        let x = p.input_slots("x").to_vec();
        for (bit, &slot) in x.iter().enumerate() {
            reference[slot as usize] = (0b1011 >> bit) & 1 == 1;
        }
        let seeded = reference.clone();
        p.exec(&mut reference);
        for split in 0..=p.op_count() {
            let mut values = seeded.clone();
            p.exec_range(&mut values, 0..split);
            p.exec_range(&mut values, split..p.op_count());
            assert_eq!(values, reference, "split at op {split}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 17-op tape")]
    fn exec_range_rejects_out_of_range_ops() {
        let p = SimProgram::compile(adder());
        assert_eq!(p.op_count(), 17, "adder tape size drifted; fix the test");
        let mut values: Vec<bool> = p.initial_values();
        p.exec_range(&mut values, 0..p.op_count() + 1);
    }

    #[test]
    fn comb_base_separates_state_from_tape_slots() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let q = b.dff(x[0], false);
        let g = b.and(x[1], q);
        b.output_bus("y", &[g]);
        let nl = b.finish();
        let p = SimProgram::compile(nl.clone());
        for (i, gate) in nl.gates().iter().enumerate() {
            let net = NetId::forged(i as u32);
            assert_eq!(
                p.slot(net) >= p.comb_base(),
                gate.is_combinational(),
                "net {i}"
            );
            assert_eq!(
                p.is_dff_net(net),
                matches!(gate, Gate::Dff { .. }),
                "net {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out-of-range net")]
    fn out_of_range_fanin_rejected_at_compile_time() {
        let nl = Netlist {
            gates: vec![Gate::Input, Gate::Not(NetId::forged(7))],
            ..Netlist::default()
        };
        let _ = SimProgram::compile(nl);
    }

    #[test]
    fn port_slot_maps_resolve_by_name() {
        let p = SimProgram::compile(adder());
        assert_eq!(p.input_slots("x").len(), 4);
        assert_eq!(p.input_slots("y").len(), 4);
        assert_eq!(p.output_slots("s").len(), 4);
        assert_eq!(p.output_slots("c").len(), 1);
    }

    // ---- wide words --------------------------------------------------

    #[test]
    fn wide_words_match_u64_limbwise() {
        // Element-wise ops on Wide must equal per-limb u64 ops.
        let a = W256::from_limbs([0xDEAD_BEEF, 0x0123_4567_89AB_CDEF, u64::MAX, 0]);
        let b = W256::from_limbs([0xF0F0_F0F0, u64::MAX, 0x5555_5555_5555_5555, 7]);
        for (i, (&x, &y)) in a.limbs().iter().zip(b.limbs().iter()).enumerate() {
            assert_eq!((a & b).limbs()[i], x & y);
            assert_eq!((a | b).limbs()[i], x | y);
            assert_eq!((a ^ b).limbs()[i], x ^ y);
            assert_eq!((!a).limbs()[i], !x);
        }
    }

    #[test]
    fn lane_accessors_roundtrip_across_widths() {
        fn probe_width<W: SimWord + std::fmt::Debug>() {
            assert_eq!(W::zero(), W::splat(false));
            assert!(!W::zero().any());
            assert!(W::splat(true).any());
            assert_eq!(W::zero().first_lane(), None);
            assert_eq!(W::mask_lanes(0), W::zero());
            assert_eq!(W::mask_lanes(W::LANES), W::splat(true));
            for lane in [0, W::LANES / 2, W::LANES - 1] {
                let one = W::lane_one(lane);
                assert!(one.lane(lane), "lane {lane} of {}", W::LANES);
                assert_eq!(one.first_lane(), Some(lane));
                let mut w = W::splat(true);
                w.set_lane(lane, false);
                assert!(!w.lane(lane));
                w.set_lane(lane, true);
                assert_eq!(w, W::splat(true));
                // mask_lanes(l) covers exactly lanes 0..l.
                let m = W::mask_lanes(lane + 1);
                assert!(m.lane(lane));
                assert!((m & one) == one, "mask includes its top lane");
            }
        }
        probe_width::<bool>();
        probe_width::<u64>();
        probe_width::<W256>();
        probe_width::<W512>();
    }

    #[test]
    fn wide_first_lane_scans_limbs_in_order() {
        let mut w = W512::zero();
        w.set_lane(300, true);
        w.set_lane(450, true);
        assert_eq!(w.first_lane(), Some(300));
        w.set_lane(65, true);
        assert_eq!(w.first_lane(), Some(65));
        w.set_lane(0, true);
        assert_eq!(w.first_lane(), Some(0));
    }

    #[test]
    #[should_panic(expected = "lane 256 out of range for a 256-lane wide word")]
    fn wide_lane_out_of_range_panics() {
        let _ = W256::zero().lane(256);
    }

    #[test]
    fn wide_words_execute_the_tape_like_64_u64_batches() {
        // One W256 pass over the adder == four independent u64 passes.
        let p = SimProgram::compile(adder());
        let xs = p.input_slots("x").to_vec();
        let ys = p.input_slots("y").to_vec();
        let mut wide: Vec<W256> = p.initial_values();
        let mut narrow: Vec<Vec<u64>> = (0..4).map(|_| p.initial_values()).collect();
        for (bit, &slot) in xs.iter().chain(ys.iter()).enumerate() {
            let limbs = [
                0x0123_4567_89AB_CDEF_u64.rotate_left(bit as u32),
                0xFEDC_BA98_7654_3210_u64.rotate_right(bit as u32),
                0xAAAA_5555_F00F_0FF0 ^ (bit as u64),
                (bit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ];
            wide[slot as usize] = W256::from_limbs(limbs);
            for (k, values) in narrow.iter_mut().enumerate() {
                values[slot as usize] = limbs[k];
            }
        }
        p.exec(&mut wide);
        for values in narrow.iter_mut() {
            p.exec(values);
        }
        for (slot, w) in wide.iter().enumerate() {
            for (k, values) in narrow.iter().enumerate() {
                assert_eq!(w.limbs()[k], values[slot], "slot {slot} limb {k}");
            }
        }
    }

    // ---- opcode fusion -----------------------------------------------

    /// Exhaustive scalar equivalence of a fused vs canonical compile
    /// over every input assignment (combinational netlists, ≤16 input
    /// bits).
    fn assert_fused_equivalent(nl: Netlist) -> (usize, usize) {
        let canonical = SimProgram::compile(nl.clone());
        let fused = SimProgram::compile_fused(nl);
        assert!(fused.is_fused());
        let in_slots: Vec<(String, Vec<u32>)> = canonical
            .netlist()
            .input_ports()
            .iter()
            .map(|p| (p.name.clone(), canonical.input_slots(&p.name).to_vec()))
            .collect();
        let total_bits: usize = in_slots.iter().map(|(_, s)| s.len()).sum();
        assert!(total_bits <= 16, "too many input bits to sweep");
        let out_ports: Vec<String> = canonical
            .netlist()
            .output_ports()
            .iter()
            .map(|p| p.name.clone())
            .collect();
        for assignment in 0u32..(1u32 << total_bits) {
            let mut v_ref: Vec<bool> = canonical.initial_values();
            let mut v_fused: Vec<bool> = fused.initial_values();
            let mut bit = 0;
            for (name, slots) in &in_slots {
                for (k, &slot) in slots.iter().enumerate() {
                    let val = (assignment >> bit) & 1 == 1;
                    v_ref[slot as usize] = val;
                    v_fused[fused.input_slots(name)[k] as usize] = val;
                    bit += 1;
                }
            }
            canonical.exec(&mut v_ref);
            fused.exec(&mut v_fused);
            for name in &out_ports {
                let want: Vec<bool> = canonical
                    .output_slots(name)
                    .iter()
                    .map(|&s| v_ref[s as usize])
                    .collect();
                let got: Vec<bool> = fused
                    .output_slots(name)
                    .iter()
                    .map(|&s| v_fused[s as usize])
                    .collect();
                assert_eq!(got, want, "port {name} at assignment {assignment:#x}");
            }
        }
        (canonical.op_count(), fused.op_count())
    }

    #[test]
    fn fusion_folds_negated_inputs() {
        // y = a & !b: the Not disappears into an AndNot.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let nb = b.not(x[1]);
        let y = b.and(x[0], nb);
        b.output_bus("y", &[y]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert_eq!(before, 2);
        assert_eq!(after, 1, "Not folds into AndNot");
    }

    #[test]
    fn fusion_produces_nand_nor_xnor() {
        // Complemented two-input gates fuse into single complement ops.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let and = b.and(x[0], x[1]);
        let or = b.or(x[0], x[1]);
        let xor = b.xor(x[0], x[1]);
        let nand = b.not(and);
        let nor = b.not(or);
        let xnor = b.not(xor);
        b.output_bus("y", &[nand, nor, xnor]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert_eq!(before, 6);
        assert_eq!(after, 3, "each Not absorbs its single-use source");
    }

    #[test]
    fn fusion_collapses_and_or_chains() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        let a2 = b.and(x[0], x[1]);
        let a3 = b.and(a2, x[2]);
        let o2 = b.or(x[0], x[1]);
        let o3 = b.or(o2, x[2]);
        b.output_bus("y", &[a3, o3]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert_eq!(before, 4);
        assert_eq!(after, 2, "inner chain gates collapse into And3/Or3");
    }

    #[test]
    fn fusion_inverts_mux_selects_by_swapping_arms() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 3);
        let ns = b.not(x[2]);
        let y = b.mux(ns, x[0], x[1]);
        b.output_bus("y", &[y]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert_eq!(before, 2);
        assert_eq!(after, 1, "select inversion is free (arm swap)");
    }

    #[test]
    fn fusion_keeps_observable_nets() {
        // The Not feeds both an And and an output port: it must keep
        // its op and slot even though the And could absorb it.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let nb = b.not(x[1]);
        let y = b.and(x[0], nb);
        b.output_bus("y", &[y]);
        b.output_bus("nb", &[nb]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert_eq!(before, after, "observable Not cannot be elided");
    }

    #[test]
    fn fusion_shrinks_the_subtractor_tape() {
        // `sub` feeds `Not(b[i])` into each full-adder xor chain; the
        // fold turns those into Xnor ops and drops the inverters.
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (d, no_borrow) = b.sub(&x, &y);
        b.output_bus("d", &d);
        b.output_bus("ge", &[no_borrow]);
        let (before, after) = assert_fused_equivalent(b.finish());
        assert!(
            after < before,
            "fusion saved nothing on the subtractor ({before} -> {after})"
        );
    }

    #[test]
    fn fused_tapes_stay_levelized_and_blocked() {
        let p = SimProgram::compile_fused(adder());
        let base = p.comb_base as usize;
        for j in 0..p.op_count() {
            let out = base + j;
            for arg in [p.args_a[j], p.args_b[j], p.args_sel[j]] {
                assert!(
                    (arg as usize) < out,
                    "op {j} reads slot {arg} at or above its own slot {out}"
                );
            }
        }
        assert!(p.level_starts.windows(2).all(|w| w[0] <= w[1]));
        // Block boundaries tile the tape: first 0, last op_count,
        // strictly ascending, every block within the op budget.
        assert_eq!(p.block_starts[0], 0);
        assert_eq!(*p.block_starts.last().unwrap() as usize, p.op_count());
        assert!(p.block_starts.windows(2).all(|w| w[0] < w[1]));
        assert!(p
            .block_starts
            .windows(2)
            .all(|w| w[1] - w[0] <= super::BLOCK_OPS));
        assert_eq!(p.block_count(), p.block_starts.len() - 1);
    }

    #[test]
    fn blocked_exec_matches_monolithic_exec_on_large_tapes() {
        // A wide xor-reduction tree big enough to span several blocks.
        let mut b = Builder::new();
        let x = b.input_bus("x", 16);
        let mut acc = Vec::new();
        for i in 0..16 {
            for j in (i + 1)..16 {
                let g = b.xor(x[i], x[j]);
                let h = b.and(g, x[(i + j) % 16]);
                acc.push(h);
            }
        }
        let mut out = acc[0];
        for &g in &acc[1..] {
            out = b.or(out, g);
        }
        b.output_bus("y", &[out]);
        let p = SimProgram::compile(b.finish());
        assert!(p.block_count() > 1, "tape too small to exercise blocking");
        let mut blocked: Vec<u64> = p.initial_values();
        let mut monolithic: Vec<u64> = p.initial_values();
        for (bit, &slot) in p.input_slots("x").to_vec().iter().enumerate() {
            let w = (bit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            blocked[slot as usize] = w;
            monolithic[slot as usize] = w;
        }
        p.exec(&mut blocked);
        p.exec_range(&mut monolithic, 0..p.op_count());
        assert_eq!(blocked, monolithic);
    }

    #[test]
    #[should_panic(expected = "elided by opcode fusion; compile without fusion to probe it")]
    fn probing_an_elided_net_panics() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let nb = b.not(x[1]);
        let y = b.and(x[0], nb);
        b.output_bus("y", &[y]);
        let nl = b.finish();
        let p = SimProgram::compile_fused(nl);
        // Find the elided Not's net and probe its slot.
        let not_net = p
            .netlist()
            .gates()
            .iter()
            .position(|g| matches!(g, Gate::Not(_)))
            .expect("circuit contains a Not");
        let _ = p.slot(NetId::forged(not_net as u32));
    }

    #[test]
    fn stats_report_kinds_levels_and_savings() {
        let canonical = SimProgram::compile(adder());
        let s = canonical.stats();
        assert_eq!(s.ops, 17);
        assert_eq!(s.unfused_ops, 17);
        assert_eq!(s.fused_away(), 0);
        assert_eq!(s.levels, canonical.level_count());
        assert_eq!(s.blocks, canonical.block_count());
        assert_eq!(s.op_counts.len(), 12, "stable schema lists every opcode");
        let total: usize = s.op_counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, s.ops, "per-kind counts sum to the op count");

        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (d, _) = b.sub(&x, &y);
        b.output_bus("d", &d);
        let nl = b.finish();
        let unfused = nl.combinational_count();
        let fused = SimProgram::compile_fused(nl);
        let fs = fused.stats();
        assert_eq!(fs.unfused_ops, unfused);
        assert!(fs.fused_away() > 0);
        assert_eq!(fs.ops + fs.fused_away(), unfused);
        let fused_kinds: usize = fs
            .op_counts
            .iter()
            .filter(|(name, c)| {
                *c > 0
                    && matches!(
                        *name,
                        "andnot" | "ornot" | "nand" | "nor" | "xnor" | "and3" | "or3"
                    )
            })
            .count();
        assert!(fused_kinds > 0, "fused tape uses fused opcodes: {fs:?}");
    }

    #[test]
    fn fused_tapes_latch_like_canonical_tapes() {
        // Multi-cycle equivalence with a DFF whose data input hangs off
        // fusible logic: the d net is observable and must keep a slot.
        let mut b = Builder::new();
        let x = b.input_bus("x", 2);
        let nb = b.not(x[1]);
        let d = b.and(x[0], nb);
        let q = b.dff(d, false);
        let out = b.xor(q, x[0]);
        b.output_bus("y", &[out]);
        let nl = b.finish();
        let canonical = SimProgram::compile(nl.clone());
        let fused = SimProgram::compile_fused(nl);
        let mut v_ref: Vec<bool> = canonical.initial_values();
        let mut v_fused: Vec<bool> = fused.initial_values();
        let mut s_ref = Vec::new();
        let mut s_fused = Vec::new();
        let y_ref = canonical.output_slots("y")[0] as usize;
        let y_fused = fused.output_slots("y")[0] as usize;
        for step in 0..16u32 {
            for (k, &slot) in canonical.input_slots("x").iter().enumerate() {
                let val = (step >> k) & 1 == 1;
                v_ref[slot as usize] = val;
                v_fused[fused.input_slots("x")[k] as usize] = val;
            }
            canonical.exec(&mut v_ref);
            fused.exec(&mut v_fused);
            assert_eq!(v_fused[y_fused], v_ref[y_ref], "step {step}");
            canonical.latch(&mut v_ref, &mut s_ref);
            fused.latch(&mut v_fused, &mut s_fused);
        }
    }
}
