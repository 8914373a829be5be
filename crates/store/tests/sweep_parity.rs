//! Acceptance regression: a store-backed sweep and a computed sweep
//! see byte-identical expectation words, and — when the netlist is
//! wrong — report the *identical* first-mismatch witness at every
//! simulation width (64/256/512 lanes) and worker count (1/2/3/8).

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{Netlist, W256, W512};
use hwperm_store::{build, BuildOptions, TableSource};
use hwperm_verify::{
    exhaustive_check_parallel_wide, expected_permutation_words, ExhaustiveMismatch,
};
use std::path::PathBuf;

const N: usize = 5;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

type Sweep = fn(&Netlist, &str, &str, &[u64], usize) -> Result<(), ExhaustiveMismatch>;

const WIDTHS: [(&str, Sweep); 3] = [
    ("u64", exhaustive_check_parallel_wide::<u64>),
    ("W256", exhaustive_check_parallel_wide::<W256>),
    ("W512", exhaustive_check_parallel_wide::<W512>),
];

/// Every width × worker-count sweep of `table`, labelled.
fn every_sweep(netlist: &Netlist, table: &[u64]) -> Vec<(String, Result<(), ExhaustiveMismatch>)> {
    let mut out = Vec::new();
    for (width, sweep) in WIDTHS {
        for workers in WORKER_COUNTS {
            let result = sweep(netlist, "index", "perm", table, workers);
            out.push((format!("{width}, {workers} workers"), result));
        }
    }
    out
}

fn warm_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hwperm-store-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build(
        &dir,
        N,
        &BuildOptions {
            jobs: 2,
            chunk_words: 48,
            max_chunks: None,
        },
    )
    .unwrap();
    dir
}

#[test]
fn store_backed_and_computed_tables_are_byte_identical() {
    let store = warm_store("bytes");
    let computed = TableSource::Computed { workers: 3 }
        .permutation_words(N)
        .unwrap();
    let loaded = TableSource::Store { dir: store.clone() }
        .permutation_words(N)
        .unwrap();
    assert_eq!(computed, loaded);
    assert_eq!(computed, expected_permutation_words(N));
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn correct_converter_passes_both_sources_at_every_width() {
    let store = warm_store("pass");
    let netlist = converter_netlist(N, ConverterOptions::default());
    for table in [
        TableSource::Computed { workers: 1 }
            .permutation_words(N)
            .unwrap(),
        TableSource::Store { dir: store.clone() }
            .permutation_words(N)
            .unwrap(),
    ] {
        for (label, result) in every_sweep(&netlist, &table) {
            assert_eq!(result, Ok(()), "{label}");
        }
    }
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn first_mismatch_witness_is_identical_across_sources_and_widths() {
    let store = warm_store("witness");
    let netlist = converter_netlist(N, ConverterOptions::default());

    // Poison the same two entries in both tables: the sweep must
    // report the lowest poisoned index, identically, regardless of
    // where the table came from or how wide the simulator batches.
    let poison = |mut table: Vec<u64>| {
        table[37] ^= 0b11;
        table[90] ^= 0b11;
        table
    };
    let computed = poison(
        TableSource::Computed { workers: 2 }
            .permutation_words(N)
            .unwrap(),
    );
    let loaded = poison(
        TableSource::Store { dir: store.clone() }
            .permutation_words(N)
            .unwrap(),
    );

    let mut witnesses = Vec::new();
    for (source, table) in [("computed", &computed), ("store", &loaded)] {
        for (label, result) in every_sweep(&netlist, table) {
            witnesses.push((format!("{source}, {label}"), result.unwrap_err()));
        }
    }
    let first = &witnesses[0].1;
    assert_eq!(first.index, 37, "lowest poisoned index wins: {first:?}");
    for (label, w) in &witnesses[1..] {
        assert_eq!(w, first, "witness diverged at {label}");
    }
    std::fs::remove_dir_all(&store).unwrap();
}
