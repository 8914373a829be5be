//! Isolated probes, run only in a traced run: separate timed calls to a
//! finer public function on the same inputs the rounds use, each
//! reported as that layer's rate alone. Also the cost of tracing.

use crate::stats::trimmed_mean;
use crate::trace::Tracer;
use crate::workload::{Fixture, Run, Workload, SHUFFLE_DRAWS, WORKERS};
use hwperm_circuits::{
    converter_netlist, ConverterOptions, KnuthShuffleCircuit, KnuthShuffleModel,
};
use hwperm_core::{FaultPolicy, GuardedPermSource, RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::BlockDecoder;
use hwperm_logic::{SimProgram, W512};
use hwperm_serve::{
    encode_chunk, encode_frame, CHUNK_FLAG_LAST, DEFAULT_CHUNK, KIND_BLOCK, STREAM_SPOT_CHECK_EVERY,
};
use hwperm_store::{hash_words, OpenTable, TableSource, DEFAULT_CHUNK_WORDS};
use hwperm_verify::WideExpectation;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Timed calls per probe: the fewest a trimmed mean accepts.
const REPS: usize = 21;
/// Gate-level draws per scalar-simulator probe call.
const SCALAR_DRAWS: usize = 4096;
const STREAM_WORDS: usize = 65_536;
/// Spans per timed call of the tracing-cost probe.
const SPAN_PROBE: u64 = 10_000;

/// Trimmed-mean seconds of [`REPS`] timed calls of `f`.
fn timed(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        f()?;
        secs.push(start.elapsed().as_secs_f64());
    }
    trimmed_mean(&secs)
}

/// `[0, total)` in ranges of `chunk`.
fn chunk_ranges(total: u64, chunk: usize) -> impl Iterator<Item = Range<u64>> {
    (0..total)
        .step_by(chunk)
        .map(move |base| base..(base + chunk as u64).min(total))
}

/// Every isolated per-layer metric, plus `serve.wire_efficiency` and
/// `trace.overhead_pct`.
pub fn run(
    run: &mut Run,
    fx: &Fixture,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let serve_words_per_s = run.samples.serve_words_per_s()?;
    let table = &fx.table9;
    let total = table.len() as u64;
    let words = total as f64;
    let netlist = converter_netlist(9, ConverterOptions::default());
    let port = |name: &str, input: bool| {
        let port = if input {
            netlist.input_port(name)
        } else {
            netlist.output_port(name)
        };
        port.map(|p| p.nets.len())
            .ok_or(format!("converter has no port {name}"))
    };
    let (in_bits, out_bits) = (port("index", true)?, port("perm", false)?);

    let mirror = timed(|| {
        let mut model = KnuthShuffleModel::new(8);
        for _ in 0..SHUFFLE_DRAWS {
            black_box(model.next_permutation());
        }
        Ok(())
    })?;
    let scalar = timed(|| {
        let mut circuit = KnuthShuffleCircuit::new(8);
        for _ in 0..SCALAR_DRAWS {
            black_box(circuit.next_permutation());
        }
        Ok(())
    })?;

    let mut bytes = Vec::with_capacity(DEFAULT_CHUNK * 8);
    let decode = timed(|| {
        let mut decoder = BlockDecoder::new(9);
        for range in chunk_ranges(total, DEFAULT_CHUNK) {
            bytes.clear();
            decoder.decode_le_bytes_into(range, &mut bytes);
            black_box(&bytes);
        }
        Ok(())
    })?;

    let mut compile_secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let copy = netlist.clone();
        let start = Instant::now();
        black_box(SimProgram::compile_fused(copy));
        compile_secs.push(start.elapsed().as_secs_f64());
    }
    let compile = trimmed_mean(&compile_secs)?;
    let fused_ops = SimProgram::compile_fused(netlist.clone()).stats().ops;

    let transpose = timed(|| {
        black_box(WideExpectation::<W512>::new(in_bits, out_bits, table));
        Ok(())
    })?;
    let program = SimProgram::compile_fused_shared(netlist.clone());
    let wide = WideExpectation::<W512>::new(in_bits, out_bits, table);
    let steady = timed(|| {
        hwperm_verify::exhaustive_check_parallel_with(&program, "index", "perm", &wide, WORKERS)
            .map_err(|m| format!("steady sweep mismatch: {m}"))
    })?;

    // The table source the workload's verify does not use, timed as
    // spans of the same name so both workloads report both sources.
    for i in 0..REPS as u64 {
        let loaded = match run.workload {
            Workload::Store => tracer.span("factoradic.table", 0, i, |_| {
                TableSource::Computed { workers: 1 }.permutation_words(9)
            }),
            Workload::Computed => tracer.span("verify.table_store", 0, i, |_| {
                TableSource::Store {
                    dir: run.dirs.cold.clone(),
                }
                .permutation_words(9)
            }),
        };
        run.tally.check(match loaded {
            Ok(w) if w == *table => Ok(()),
            Ok(_) => Err("probe table differs from the BlockDecoder table".into()),
            Err(e) => Err(format!("probe table: {e}")),
        });
    }

    let mut drawn = vec![0u64; STREAM_WORDS];
    let stream = timed(|| {
        let mut source = GuardedPermSource::with_options(
            SoftwareRandomSource::new(8, 0x5EED),
            FaultPolicy::Fallback,
            STREAM_SPOT_CHECK_EVERY,
            0xFA11,
        );
        source.fill_packed_u64(&mut drawn);
        black_box(&drawn);
        Ok(())
    })?;

    let le: Vec<u8> = table.iter().flat_map(|w| w.to_le_bytes()).collect();
    let encode = timed(|| {
        for (seq, range) in chunk_ranges(total, DEFAULT_CHUNK).enumerate() {
            let flags = if range.end == total {
                CHUNK_FLAG_LAST
            } else {
                0
            };
            let body = &le[range.start as usize * 8..range.end as usize * 8];
            black_box(encode_frame(
                KIND_BLOCK,
                &encode_chunk(1, seq as u64, range.start, flags, body),
            ));
        }
        Ok(())
    })?;

    let hash = timed(|| {
        for chunk in table.chunks(DEFAULT_CHUNK_WORDS) {
            black_box(hash_words(chunk));
        }
        Ok(())
    })?;
    let opened = OpenTable::open(&run.dirs.cold, 9)
        .map_err(|e| e.to_string())?
        .ok_or("no complete table to read")?;
    let read = timed(|| {
        for range in chunk_ranges(total, DEFAULT_CHUNK) {
            bytes.clear();
            opened
                .read_le_bytes_into(range, &mut bytes)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;

    // Tracing overhead: what one span costs in isolation, times the
    // spans the rounds recorded, over the rounds' wall time.
    let recorded = tracer.spans();
    let rounds_ns: u64 = recorded
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.end - s.start)
        .sum();
    let probe_tracer = Tracer::new(true);
    let per_span = timed(|| {
        for i in 0..SPAN_PROBE {
            probe_tracer.span("probe", 0, i, black_box);
        }
        Ok(())
    })? / SPAN_PROBE as f64;
    let overhead_pct = per_span * recorded.len() as f64 / (rounds_ns as f64 / 1e9) * 100.0;

    let decode_rate = words / decode;
    let stream_rate = STREAM_WORDS as f64 / stream;
    let encode_rate = words / encode;
    let read_rate = words / read;
    let block_source_rate = match run.workload {
        Workload::Computed => decode_rate,
        Workload::Store => read_rate,
    };
    let slowest = block_source_rate.min(stream_rate).min(encode_rate);
    Ok(vec![
        ("circuits.mirror_draws_per_s", SHUFFLE_DRAWS as f64 / mirror),
        ("factoradic.decode_words_per_s", decode_rate),
        ("logic.compile_fused_ms", compile * 1e3),
        ("logic.fused_ops", fused_ops as f64),
        ("logic.scalar_draws_per_s", SCALAR_DRAWS as f64 / scalar),
        ("verify.transpose_ms", transpose * 1e3),
        ("verify.sweep_steady_ms", steady * 1e3),
        ("core.stream_words_per_s", stream_rate),
        ("serve.frame_encode_words_per_s", encode_rate),
        ("serve.wire_efficiency", serve_words_per_s / slowest),
        ("store.hash_words_per_s", words / hash),
        ("store.read_words_per_s", read_rate),
        ("trace.overhead_pct", overhead_pct),
    ])
}
