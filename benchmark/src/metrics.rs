//! Every metric the benchmark reports: name, unit, direction and what it
//! measures. Each per-layer entry also names the end-to-end metric it
//! should move and on which workload, so a later change can say in
//! advance which numbers it expects to move. `BENCHMARK.json` at the
//! repository root lists the same names in the same order (a test
//! checks it) and adds each end-to-end metric's regression bound.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is measured, and (per layer) which end-to-end metric it
    /// should move on which workload.
    pub about: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, about: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        about,
    }
}

const fn higher(name: &'static str, unit: &'static str, about: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        about,
    }
}

/// Measured with tracing off. A fixed-work timing is the mean of its
/// samples without the lowest and highest tenth (see
/// [`crate::stats::trimmed_mean`] for why not the median); a latency
/// distribution is reported at the percentile its name gives, with at
/// least ten samples beyond it. The run prints every sample count.
pub const END_TO_END: &[Metric] = &[
    lower(
        "setup_s",
        "s",
        "Median of three complete set-ups: fixture netlists and tables, the block reference table, \
         the store fixture (store workload), server spawn and client connects, and one untimed \
         warm-up pass of every operation. Three rather than 21 because each set-up runs every \
         operation once, so the ten-beyond rule is not applied to this median.",
    ),
    lower(
        "verify_ms",
        "ms",
        "One n = 9 exhaustive check from netlist to verdict, with the calls `verify --batch --jobs 2` \
         makes: converter_netlist, TableSource (Computed on `computed`, Store on `store`), then \
         exhaustive_check_parallel_wide::<W512> with 2 workers.",
    ),
    lower(
        "campaign_ms",
        "ms",
        "One n = 8 single-stuck-at campaign: stuck_at_campaign_wide::<W512>, 2 workers, \
         packed-validity predicate; 1120 faults, 433 detected, 687 silent, 0 masked.",
    ),
    lower("prove_ms", "ms", "One SAT table-conformance proof of the n = 7 converter (prove_against_table)."),
    lower(
        "shuffle_ms",
        "ms",
        "Building the clocked Fig. 3 netlist at n = 8 (KnuthShuffleCircuit, seed-drawn LFSR seed) \
         and drawing 16,384 permutations through the scalar Simulator. The draws are matched \
         bit-exactly against KnuthShuffleModel after timing.",
    ),
    higher(
        "serve_words_per_s",
        "words/s",
        "Packed words delivered to the bulk client per second of its request time over the run; \
         the client alternates full n = 9 blocks and n = 8 random streams of 65,536 words, 12 of \
         each per round.",
    ),
    lower(
        "block_ms",
        "ms",
        "Client round trip of a full n = 9 `block` request (no `chunk` field), trimmed mean: the \
         round trips split into a fast mode and one ~40 ms slower (delayed ACK), in shares near one \
         half, so a median would jump between them.",
    ),
    lower("block_p90_ms", "ms", "The same round trip, 90th percentile."),
    lower(
        "small_p50_us",
        "us",
        "Round trip of the interactive client's n = 12 `unrank`/`rank` requests, sent while the bulk \
         client runs, median.",
    ),
    lower(
        "small_p90_us",
        "us",
        "The same round trip, 90th percentile. Not the 99th: on a shared 2-thread host whole runs \
         turn slow and the 99th percentile then moved by 2-4x between runs (10-run spread 45%); \
         serve.small_server_us_p99 keeps the far tail per layer.",
    ),
    lower("store_build_ms", "ms", "One cold n = 9 store build with jobs = 2 into an empty directory."),
    lower(
        "store_load_ms",
        "ms",
        "One warm OpenTable::open plus load_words of the n = 9 table, which reads every chunk and \
         checks every hash.",
    ),
    lower("peak_rss_mb", "MiB", "Peak resident set (VmHWM) of the run."),
];

/// Measured in a traced run. "Isolated" entries are separate timed calls
/// to a finer public function on the same inputs (trimmed mean of 21),
/// each that layer's rate alone — never a split of an end-to-end time.
/// Span timings are trimmed means too.
pub const PER_LAYER: &[Metric] = &[
    lower(
        "circuits.netlist_ms",
        "ms",
        "Span around converter_netlist(9) inside verify. -> verify_ms on both workloads; expected flat.",
    ),
    higher(
        "circuits.mirror_draws_per_s",
        "draws/s",
        "Isolated KnuthShuffleModel draws at n = 8. -> shuffle_ms: none, the model checks the draws \
         after timing; a simulator change must leave it unmoved.",
    ),
    lower(
        "factoradic.table_ms",
        "ms",
        "TableSource::Computed { workers: 1 } at n = 9: a span inside verify on `computed`, isolated \
         calls on `store`. -> verify_ms on computed.",
    ),
    higher(
        "factoradic.decode_words_per_s",
        "words/s",
        "Isolated BlockDecoder::decode_le_bytes_into over the n = 9 table in DEFAULT_CHUNK ranges, \
         one thread. -> serve_words_per_s on computed and store_build_ms on both; not \
         serve_words_per_s on store, whose served blocks come from the store.",
    ),
    lower(
        "logic.compile_fused_ms",
        "ms",
        "Isolated SimProgram::compile_fused of the n = 9 converter. -> verify_ms on both.",
    ),
    lower(
        "logic.fused_ops",
        "count",
        "Exact op count of the fused n = 9 converter tape (SimProgram::stats). -> verify_ms on both.",
    ),
    higher(
        "logic.scalar_draws_per_s",
        "draws/s",
        "Isolated KnuthShuffleCircuit::next_permutation at n = 8 (scalar Simulator). -> shuffle_ms on both.",
    ),
    lower(
        "verify.sweep_wide_ms",
        "ms",
        "Span around exhaustive_check_parallel_wide::<W512> (transpose, fused compile and 2-worker \
         sweep) inside verify. -> verify_ms on both.",
    ),
    lower(
        "verify.transpose_ms",
        "ms",
        "Isolated WideExpectation::<W512>::new of the n = 9 table. -> verify_ms on both; no effect on \
         the serve metrics.",
    ),
    lower(
        "verify.sweep_steady_ms",
        "ms",
        "Isolated exhaustive_check_parallel_with, 2 workers, over an already compiled tape and \
         transposed table. -> verify_ms on both.",
    ),
    lower(
        "verify.table_store_ms",
        "ms",
        "TableSource::Store at n = 9 (open, read and hash every chunk): a span inside verify on \
         `store`, isolated calls on `computed`. -> verify_ms on store.",
    ),
    lower(
        "faults.universe",
        "count",
        "Exact size of the n = 8 single-stuck-at universe (1120). -> campaign_ms.",
    ),
    higher(
        "faults.faults_per_s",
        "faults/s",
        "faults.universe / the span around stuck_at_campaign_wide. -> campaign_ms.",
    ),
    lower("sat.vars", "count", "Exact ProofStats.vars of the n = 7 proof. -> prove_ms."),
    lower("sat.clauses", "count", "Exact ProofStats.clauses of the n = 7 proof. -> prove_ms."),
    lower("sat.conflicts", "count", "Exact ProofStats.conflicts of the n = 7 proof. -> prove_ms."),
    lower("sat.decisions", "count", "Exact ProofStats.decisions of the n = 7 proof. -> prove_ms."),
    lower("sat.propagations", "count", "Exact ProofStats.propagations of the n = 7 proof. -> prove_ms."),
    higher(
        "sat.propagations_per_s",
        "props/s",
        "sat.propagations / the span around prove_against_table. -> prove_ms.",
    ),
    higher(
        "core.stream_words_per_s",
        "words/s",
        "Isolated GuardedPermSource fill_packed_u64 of 65,536 n = 8 words with the server's policy \
         (Fallback, rank-back every STREAM_SPOT_CHECK_EVERY draws), one thread. -> serve_words_per_s \
         on both.",
    ),
    lower(
        "serve.block_server_ms_p50",
        "ms",
        "The envelope metrics trailer's `micros` of block requests, median. -> block_ms.",
    ),
    lower(
        "serve.block_transport_ms",
        "ms",
        "Block round trip minus the server's `micros`: socket, framing, client decode and Nagle \
         stalls, trimmed mean. -> block_ms.",
    ),
    lower("serve.block_transport_ms_p90", "ms", "The same, 90th percentile. -> block_p90_ms."),
    lower(
        "serve.small_server_us_p50",
        "us",
        "`micros` of unrank/rank requests, which includes queue wait behind block shards, median. \
         -> small_p50_us.",
    ),
    lower(
        "serve.small_server_us_p99",
        "us",
        "The same, 99th percentile. -> small_p90_us.",
    ),
    lower(
        "serve.small_transport_us_p50",
        "us",
        "unrank/rank round trip minus `micros`, median. -> small_p50_us.",
    ),
    lower(
        "serve.stream_server_ms_p50",
        "ms",
        "`micros` of random-stream requests, median. -> serve_words_per_s.",
    ),
    higher(
        "serve.frame_encode_words_per_s",
        "words/s",
        "Isolated encode_chunk + encode_frame of the n = 9 table in DEFAULT_CHUNK-word frames. \
         -> serve_words_per_s on both.",
    ),
    lower(
        "serve.bytes_per_word",
        "B/word",
        "ServeSummary.bytes_out / packed words the last server delivered, warm-up included. \
         -> serve_words_per_s.",
    ),
    higher(
        "serve.requests",
        "count",
        "ServeSummary.requests of the last server. -> failed / attempted; its `errors` and unjoined \
         threads are checked and counted as failures, and not reported because they are zero.",
    ),
    higher(
        "serve.wire_efficiency",
        "ratio",
        "serve_words_per_s / the slowest isolated rate on the bulk path (decode on computed, store \
         read on store; stream and frame encode on both). ROADMAP item 5's ratio. The server shards \
         blocks over 2 workers, so it can exceed 1. -> serve_words_per_s.",
    ),
    lower("store.build_bytes", "B", "BuildReport.bytes_written of one cold build. -> store_build_ms."),
    lower(
        "store.build_write_bytes",
        "B",
        "/proc/self/io wchar per cold build, manifest rewrites included. -> store_build_ms.",
    ),
    lower("store.load_read_bytes", "B", "/proc/self/io rchar per warm load. -> store_load_ms."),
    higher(
        "store.hash_words_per_s",
        "words/s",
        "Isolated hash_words over the n = 9 table in DEFAULT_CHUNK_WORDS chunks. -> store_load_ms and \
         store_build_ms on both, serve_words_per_s and verify_ms on store; nothing else on computed.",
    ),
    higher(
        "store.read_words_per_s",
        "words/s",
        "Isolated OpenTable::read_le_bytes_into over the n = 9 table in DEFAULT_CHUNK ranges. \
         -> serve_words_per_s on store.",
    ),
    lower(
        "store.serve_read_bytes_per_word",
        "B/word",
        "File bytes read (rchar) while serving per block word served; rchar leaves out the clients' \
         socket reads, which std makes with recv(2). About 8 on store (every word read from a chunk, \
         plus re-reads where block shards split a chunk), 0 on computed. -> serve_words_per_s and \
         block_ms on store.",
    ),
    lower(
        "trace.overhead_pct",
        "%",
        "Time tracing adds to a traced run: the isolated cost of one span times the spans the rounds \
         recorded, as a share of the rounds' wall time. -> every end-to-end metric of a traced run; \
         tracing must stay cheap.",
    ),
];

/// The result line: `correct`, `attempted`, `failed` and one
/// `{"value", "unit"}` object per metric of `defs`, in order. Every
/// metric must have a finite value.
pub fn result_line(
    defs: &[Metric],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_serve::Json;

    fn benchmark_json() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read(&path).unwrap();
        Json::parse(&text).unwrap()
    }

    fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_lists_every_metric_in_order() {
        let spec = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
            }
        }
        let bounds: Vec<(String, f64)> = spec
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| match e.get("bound") {
                Some(Json::Num(raw)) => (str_of(e, "name").to_string(), raw.parse().unwrap()),
                _ => panic!("end-to-end metric without a bound"),
            })
            .collect();
        let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert!(largest <= 0.25);
        assert!(bounds.iter().all(|b| b.1 > 0.0));
        assert_eq!(bounds.iter().find(|b| b.0 == "setup_s").unwrap().1, largest);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let defs = [lower("a_ms", "ms", ""), higher("b", "words/s", "")];
        let line = result_line(&defs, &[("b", 2.5), ("a_ms", 1.25)], 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.25,\
             \"unit\":\"ms\"},\"b\":{\"value\":2.5,\"unit\":\"words/s\"}}}"
        );
        assert!(Json::parse(line.as_bytes()).is_ok());
        assert!(result_line(&defs, &[("a_ms", 1.0)], 1, 0).is_err());
        assert!(result_line(&defs, &[("a_ms", 1.0), ("b", f64::NAN)], 1, 0).is_err());
        assert!(result_line(&defs, &[("a_ms", 1.0), ("b", 1.0)], 2, 1)
            .unwrap()
            .starts_with("{\"correct\":false"));
    }
}
