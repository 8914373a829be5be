//! Cross-crate integration tests: the full stack (bignum → factoradic →
//! logic → circuits → core/apps) exercised together.

use hwperm_bignum::Ubig;
use hwperm_circuits::{
    ConverterOptions, IndexToCombinationConverter, IndexToPermConverter, KnuthShuffleCircuit,
    RandomIndexGenerator, ShuffleOptions, SortingNetwork,
};
use hwperm_core::{parallel_count, CircuitSource, PermutationSource, SoftwareSource};
use hwperm_factoradic::{rank, unrank, unrank_combination, IndexedPermutations};
use hwperm_hash::{ProbeTable, UniquePermTable};
use hwperm_perm::Permutation;

#[test]
fn full_table_i_through_every_layer() {
    // Software unranking, the gate-level circuit, the pipelined circuit
    // and the rank inverse must all agree on Table I.
    let mut comb = IndexToPermConverter::new(4);
    let mut pipe = IndexToPermConverter::with_options(
        4,
        ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        },
    );
    for i in 0..24u64 {
        let index = Ubig::from(i);
        let sw = unrank(4, &index);
        assert_eq!(comb.convert(&index), sw);
        assert_eq!(pipe.convert(&index), sw);
        assert_eq!(rank(&sw), index);
    }
}

#[test]
fn sources_trait_unifies_backends() {
    let mut backends: Vec<Box<dyn PermutationSource>> = vec![
        Box::new(SoftwareSource::new(7)),
        Box::new(CircuitSource::new(7)),
        Box::new(CircuitSource::pipelined(7)),
    ];
    for index in [0u64, 1_000, 5_039] {
        let results: Vec<Permutation> = backends
            .iter_mut()
            .map(|b| b.permutation_u64(index))
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }
}

#[test]
fn pipelined_stream_equals_block_iterator() {
    // The pipelined circuit streaming indices 40..80 must equal the
    // software block iterator over the same range.
    let opts = ConverterOptions {
        pipelined: true,
        perm_input_port: false,
    };
    let mut pipe = IndexToPermConverter::with_options(5, opts);
    let indices: Vec<Ubig> = (40..80u64).map(Ubig::from).collect();
    let streamed = pipe.convert_stream(&indices);
    let iterated: Vec<Permutation> =
        IndexedPermutations::new(5, Ubig::from(40u64), Ubig::from(80u64))
            .map(|(_, p)| p)
            .collect();
    assert_eq!(streamed, iterated);
}

#[test]
fn hash_probe_sequences_come_from_the_converter_math() {
    // The table's probe permutation must equal software unranking of the
    // hashed index — i.e. exactly what the paper's hardware would supply.
    let table = UniquePermTable::new(12);
    for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        let perm = table.probe_permutation(key);
        let seq = table.probe_sequence(key);
        assert_eq!(
            seq,
            perm.as_slice()
                .iter()
                .map(|&b| b as usize)
                .collect::<Vec<_>>()
        );
        assert!(Permutation::try_from_slice(perm.as_slice()).is_ok());
    }
}

#[test]
fn converter_with_input_port_sorts_via_inverse() {
    // Feeding data through the converter's input-permutation port with
    // the right index reorders arbitrarily: pick the permutation that
    // sorts a vector, apply it through the circuit.
    let data = [3u32, 0, 2, 1];
    // The permutation p with p.apply(data) sorted is the argsort.
    let mut order: Vec<u32> = (0..4).collect();
    order.sort_by_key(|&i| data[i as usize]);
    let p = Permutation::try_from_vec(order).unwrap();
    let index = rank(&p);

    let mut conv = IndexToPermConverter::with_options(
        4,
        ConverterOptions {
            pipelined: false,
            perm_input_port: true,
        },
    );
    let input = Permutation::try_from_slice(&data).unwrap();
    let routed = conv.convert_with_input(&index, &input);
    assert_eq!(
        routed.as_slice(),
        &[0, 1, 2, 3],
        "circuit routed data into sorted order"
    );
}

#[test]
fn sorter_and_converter_agree_on_permuted_identity() {
    // Sorting the packed elements of any permutation yields the identity.
    let mut sorter = SortingNetwork::new(6, 3);
    for index in (0..720u64).step_by(53) {
        let p = unrank(6, &Ubig::from(index));
        let keys: Vec<u64> = p.as_slice().iter().map(|&e| e as u64).collect();
        let sorted = sorter.sort(&keys);
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }
}

#[test]
fn combination_circuit_tiles_pascals_triangle() {
    // Sum over k of the number of k-combinations equals 2^n; convert one
    // index per (k, step) and validate against software.
    let n = 8;
    let mut total = Ubig::zero();
    for k in 0..=n {
        let mut conv = IndexToCombinationConverter::new(n, k);
        total += conv.total();
        let c = conv.total().to_u64().unwrap();
        for index in (0..c).step_by(7) {
            let idx = Ubig::from(index);
            assert_eq!(conv.convert(&idx), unrank_combination(n, k, &idx));
        }
    }
    assert_eq!(total.to_u64(), Some(256));
}

#[test]
fn parallel_derangement_count_matches_circuit_samples() {
    // Exact parallel count over S_6 (265 derangements = 36.8%) and the
    // Knuth shuffle circuit's empirical rate must land close.
    let exact = parallel_count(6, 4, |p| p.is_derangement());
    assert_eq!(exact, 265);
    let p_exact = exact as f64 / 720.0;

    let mut circuit = KnuthShuffleCircuit::with_options(
        6,
        ShuffleOptions {
            lfsr_width: 20,
            pipelined: false,
            seed: 404,
        },
    );
    let samples = 8_000;
    let (derangements, _) = circuit.estimate_e(samples);
    let p_circuit = derangements as f64 / samples as f64;
    assert!(
        (p_circuit - p_exact).abs() < 0.02,
        "circuit rate {p_circuit} vs exact {p_exact}"
    );
}

#[test]
fn random_index_generator_round_trips_through_rank() {
    let mut generator = RandomIndexGenerator::new(5, 99);
    for _ in 0..50 {
        let p = generator.next_permutation();
        let r = rank(&p);
        assert_eq!(unrank(5, &r), p);
    }
}

#[test]
fn big_n_consistency_across_layers() {
    // n = 30 (128-bit indices): software stack only, but every layer of
    // it — bignum arithmetic, digits, Lehmer, rank/unrank, successor.
    let n = 30;
    let index = Ubig::factorial(30).divrem_u64(7).0;
    let p = unrank(n, &index);
    assert_eq!(rank(&p), index);
    let next = p.next_lex().unwrap();
    assert_eq!(rank(&next), index.add_u64(1));
    let word = p.pack();
    assert_eq!(Permutation::unpack(n, &word).unwrap(), p);
}
