//! The circuit family registry: every circuit the tools generate by
//! name, in one table.
//!
//! Each [`Family`] entry fixes how its netlist is built at size `n` —
//! combination and variation take `k = ⌈n/2⌉`, the sorter's keys are
//! just wide enough for `n` distinct values, the random-index generator
//! is seeded with `0x5eed` — so the CLI's `lint`, `faults`, `prove`,
//! `resources` and `verilog` and every cross-family test build the same
//! netlists from one place. Which ports an exhaustive sweep drives is
//! not stored but derived from the netlist by [`sweep_ports`].

use crate::{
    converter_netlist, shuffle_netlist, ConverterOptions, IndexToCombinationConverter,
    IndexToVariationConverter, PermToIndexConverter, RandomIndexGenerator, ShuffleOptions,
    SortingNetwork,
};
use hwperm_bignum::Ubig;
use hwperm_factoradic::{binomial, falling_factorial};
use hwperm_logic::Netlist;

/// One generated circuit family.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The family's command-line name, e.g. `"converter-pipelined"`.
    pub name: &'static str,
    /// Base name of the exported Verilog module (`<module>_<n>`).
    pub module: &'static str,
    /// Builds the family's netlist at size `n` (`n ≥ 2`).
    pub build: fn(usize) -> Netlist,
    /// The range contract of the `index` input port: the environment
    /// only ever drives `index < bound(n)`. `None` for families without
    /// an index input.
    pub index_bound: Option<fn(usize) -> Ubig>,
}

static FAMILIES: [Family; 9] = [
    Family {
        name: "converter",
        module: "index_to_perm",
        build: |n| converter_netlist(n, ConverterOptions::default()),
        index_bound: Some(|n| Ubig::factorial(n as u64)),
    },
    Family {
        name: "converter-pipelined",
        module: "index_to_perm_pipe",
        build: |n| {
            converter_netlist(
                n,
                ConverterOptions {
                    pipelined: true,
                    perm_input_port: false,
                },
            )
        },
        index_bound: Some(|n| Ubig::factorial(n as u64)),
    },
    Family {
        name: "shuffle",
        module: "knuth_shuffle",
        build: |n| shuffle_netlist(n, ShuffleOptions::default()),
        index_bound: None,
    },
    Family {
        name: "shuffle-pipelined",
        module: "knuth_shuffle_pipe",
        build: |n| {
            shuffle_netlist(
                n,
                ShuffleOptions {
                    pipelined: true,
                    ..ShuffleOptions::default()
                },
            )
        },
        index_bound: None,
    },
    Family {
        name: "rank",
        module: "perm_to_index",
        build: |n| PermToIndexConverter::new(n).netlist().clone(),
        index_bound: None,
    },
    Family {
        name: "combination",
        module: "index_to_combination",
        build: |n| {
            IndexToCombinationConverter::new(n, n.div_ceil(2))
                .netlist()
                .clone()
        },
        index_bound: Some(|n| binomial(n as u64, n.div_ceil(2) as u64)),
    },
    Family {
        name: "variation",
        module: "index_to_variation",
        build: |n| {
            IndexToVariationConverter::new(n, n.div_ceil(2))
                .netlist()
                .clone()
        },
        index_bound: Some(|n| falling_factorial(n as u64, n.div_ceil(2) as u64)),
    },
    Family {
        name: "sort",
        module: "sorting_network",
        build: |n| {
            let key_width = usize::BITS - (n - 1).leading_zeros();
            SortingNetwork::new(n, (key_width as usize).max(2))
                .netlist()
                .clone()
        },
        index_bound: None,
    },
    Family {
        name: "random-index",
        module: "random_index",
        build: |n| RandomIndexGenerator::new(n, 0x5eed).netlist().clone(),
        index_bound: None,
    },
];

/// Every registered circuit family, in the order the tools report them.
pub fn families() -> &'static [Family] {
    &FAMILIES
}

/// The registered family called `name`.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// The `(input, output)` port pair an exhaustive sweep or fault
/// campaign drives: defined when the netlist holds no registers and has
/// exactly one input port and one output port, `None` otherwise.
pub fn sweep_ports(netlist: &Netlist) -> Option<(&str, &str)> {
    match (netlist.input_ports(), netlist.output_ports()) {
        ([input], [output]) if netlist.register_count() == 0 => Some((&input.name, &output.name)),
        _ => None,
    }
}
