//! Concurrency soak: four clients pipeline interleaved request mixes
//! at pool sizes 1 / 2 / 4 / 8 and every response must be byte-
//! identical to what the libraries produce in-process. Block words are
//! additionally compared *across* pool sizes — sharding may change how
//! chunks are cut, never what they carry.

use hwperm_core::{FaultPolicy, GuardedPermSource, RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::{rank_u64, shard_ranges, BlockDecoder, Unranker};
use hwperm_serve::{
    envelope, envelope_id, error_result, spawn, BlockChunk, Client, Endpoint, Listener, Message,
    ServeOptions, CHUNK_FLAG_LAST, STREAM_SPOT_CHECK_EVERY,
};
use std::collections::HashMap;

/// One pipelined request and everything the server must send back.
struct Step {
    id: u64,
    req: String,
    /// The exact envelope payload, built with the exported
    /// `protocol::envelope` from library-computed results.
    env: Vec<u8>,
    /// For block / random-stream: the packed words, in base order.
    words: Option<Vec<u64>>,
    /// For block / random-stream: how many chunks carry them.
    chunks: Option<u64>,
}

fn render_perm(perm: &[u32]) -> String {
    let body = perm
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

/// The server's own shard arithmetic, reproduced from the exported
/// `shard_ranges`: at most one shard per worker, never more shards
/// than chunks, chunk count summed over non-empty shards.
fn expected_block_chunks(workers: usize, count: u64, chunk: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let shard_count = (workers as u64).min(count.div_ceil(chunk)).max(1) as usize;
    shard_ranges(count as usize, shard_count)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| ((r.end - r.start) as u64).div_ceil(chunk))
        .sum()
}

fn direct_block_words(n: usize, start: u64, end: u64) -> Vec<u64> {
    let mut bytes = Vec::new();
    BlockDecoder::new(n).decode_le_bytes_into(start..end, &mut bytes);
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte word")))
        .collect()
}

fn unrank_step(id: u64, n: usize, index: u64) -> Step {
    let req = format!("{{\"id\":{id},\"cmd\":\"unrank\",\"n\":{n},\"index\":{index}}}");
    let perm = Unranker::new(n).unrank(index);
    let results = format!(
        "{{\"type\":\"unrank\",\"n\":{n},\"index\":{index},\"perm\":{},\"packed\":{}}}",
        render_perm(perm.as_slice()),
        perm.pack_u64(),
    );
    let env = envelope("unrank", true, &results, id, 0, (req.len() + 5) as u64);
    Step {
        id,
        req,
        env,
        words: None,
        chunks: None,
    }
}

fn rank_step(id: u64, n: usize, index: u64) -> Step {
    let perm = Unranker::new(n).unrank(index);
    let req = format!(
        "{{\"id\":{id},\"cmd\":\"rank\",\"perm\":{}}}",
        render_perm(perm.as_slice()),
    );
    let results = format!(
        "{{\"type\":\"rank\",\"n\":{n},\"perm\":{},\"index\":{}}}",
        render_perm(perm.as_slice()),
        rank_u64(&perm),
    );
    let env = envelope("rank", true, &results, id, 0, (req.len() + 5) as u64);
    Step {
        id,
        req,
        env,
        words: None,
        chunks: None,
    }
}

fn block_step(id: u64, workers: usize, n: usize, start: u64, end: u64, chunk: u64) -> Step {
    let req = format!(
        "{{\"id\":{id},\"cmd\":\"block\",\"n\":{n},\"start\":{start},\"end\":{end},\
         \"chunk\":{chunk}}}"
    );
    let chunks = expected_block_chunks(workers, end - start, chunk);
    let results = format!(
        "{{\"type\":\"block\",\"n\":{n},\"start\":{start},\"end\":{end},\"chunk\":{chunk},\
         \"chunks\":{chunks},\"words\":{}}}",
        end - start,
    );
    let env = envelope("block", true, &results, id, 0, (req.len() + 5) as u64);
    Step {
        id,
        req,
        env,
        words: Some(direct_block_words(n, start, end)),
        chunks: Some(chunks),
    }
}

fn stream_step(id: u64, n: usize, count: u64, seed: u64, chunk: u64) -> Step {
    let req = format!(
        "{{\"id\":{id},\"cmd\":\"random-stream\",\"n\":{n},\"count\":{count},\"seed\":{seed},\
         \"chunk\":{chunk}}}"
    );
    let mut source = GuardedPermSource::with_options(
        SoftwareRandomSource::new(n, seed),
        FaultPolicy::Fallback,
        STREAM_SPOT_CHECK_EVERY,
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
    );
    let mut words = vec![0u64; count as usize];
    source.fill_packed_u64(&mut words);
    let guard = source.stats();
    let chunks = count.div_ceil(chunk);
    let results = format!(
        "{{\"type\":\"random-stream\",\"n\":{n},\"count\":{count},\"seed\":{seed},\
         \"chunk\":{chunk},\"chunks\":{chunks},\"words\":{count},\
         \"guard\":{{\"detected\":{},\"retried\":{},\"fell_back\":{}}}}}",
        guard.detected, guard.retried, guard.fell_back,
    );
    let env = envelope(
        "random-stream",
        true,
        &results,
        id,
        0,
        (req.len() + 5) as u64,
    );
    Step {
        id,
        req,
        env,
        words: Some(words),
        chunks: Some(chunks),
    }
}

fn verify_step(id: u64, n: usize, jobs: usize, total: u64) -> Step {
    let req = format!("{{\"id\":{id},\"cmd\":\"verify\",\"n\":{n},\"jobs\":{jobs}}}");
    let results = format!(
        "{{\"type\":\"verify\",\"n\":{n},\"workers\":{jobs},\"total\":{total},\"verdict\":\"ok\"}}"
    );
    let env = envelope("verify", true, &results, id, 0, (req.len() + 5) as u64);
    Step {
        id,
        req,
        env,
        words: None,
        chunks: None,
    }
}

fn bad_cmd_step(id: u64) -> Step {
    let req = format!("{{\"id\":{id},\"cmd\":\"frobnicate\"}}");
    let results = error_result(
        "unknown cmd \"frobnicate\" (commands: unrank | rank | block | random-stream | \
         verify | stats | shutdown)",
    );
    let env = envelope("error", false, &results, id, 0, (req.len() + 5) as u64);
    Step {
        id,
        req,
        env,
        words: None,
        chunks: None,
    }
}

/// Each client's mix: every request type, a deliberate error, and
/// block / stream parameters that vary per client so concurrent work
/// never accidentally aliases.
fn client_steps(c: u64, workers: usize) -> Vec<Step> {
    vec![
        unrank_step(1, 5, (17 * c + 3) % 120),
        rank_step(2, 5, (31 * c + 7) % 120),
        block_step(3, workers, 4, c, 24, 5),
        stream_step(4, 5, 10 + c, 1000 + c, 4),
        unrank_step(5, 3, c),
        block_step(6, workers, 5, 0, 120, 16),
        bad_cmd_step(7),
        rank_step(8, 3, 0),
        stream_step(9, 4, 3, c, 8),
        block_step(10, workers, 3, 1, 6, 2),
        unrank_step(11, 6, (101 * c) % 720),
        verify_step(12, 3, 2, 6),
    ]
}

/// Pipelines every step, demultiplexes the interleaved responses by
/// request id, and checks envelopes byte-for-byte and chunk payloads
/// word-for-word. Returns the words per request id for cross-pool
/// comparison.
fn run_client(endpoint: &Endpoint, steps: &[Step]) -> HashMap<u64, Vec<u64>> {
    let mut client = Client::connect(endpoint).expect("connect");
    for step in steps {
        client.send_json(&step.req).expect("send");
    }
    let mut envelopes: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut chunks: HashMap<u64, Vec<BlockChunk>> = HashMap::new();
    while envelopes.len() < steps.len() {
        match client
            .read_message()
            .expect("read")
            .expect("connection open until all responses arrive")
        {
            Message::Envelope(env) => {
                let id = envelope_id(&env).expect("envelope carries metrics.id");
                assert!(envelopes.insert(id, env).is_none(), "duplicate envelope");
            }
            Message::Chunk(chunk) => chunks.entry(chunk.id).or_default().push(chunk),
        }
    }

    let mut words_by_id = HashMap::new();
    for step in steps {
        let env = &envelopes[&step.id];
        assert_eq!(
            env,
            &step.env,
            "id {}: envelope diverges from in-process result\n got: {}\nwant: {}",
            step.id,
            String::from_utf8_lossy(env),
            String::from_utf8_lossy(&step.env),
        );
        let Some(expected_words) = &step.words else {
            assert!(!chunks.contains_key(&step.id), "unexpected chunks");
            continue;
        };
        let mut got = chunks.remove(&step.id).unwrap_or_default();
        got.sort_by_key(|c| c.base);
        assert_eq!(got.len() as u64, step.chunks.expect("chunk count"));
        let last = got
            .iter()
            .filter(|c| c.flags & CHUNK_FLAG_LAST != 0)
            .count();
        assert_eq!(last, 1, "exactly one chunk carries the LAST flag");
        assert!(
            got.last().expect("at least one chunk").flags & CHUNK_FLAG_LAST != 0,
            "LAST flag sits on the highest-base chunk"
        );
        let mut seqs: Vec<u64> = got.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (0..got.len() as u64).collect::<Vec<_>>(),
            "chunk sequence numbers are a permutation of 0..chunks"
        );
        let got_words: Vec<u64> = got.iter().flat_map(|c| c.words.iter().copied()).collect();
        assert_eq!(&got_words, expected_words, "id {}: words diverge", step.id);
        words_by_id.insert(step.id, got_words);
    }
    assert!(chunks.is_empty(), "chunks for an id that sent none");
    words_by_id
}

#[test]
fn soak_pool_sizes_are_byte_identical_to_direct_calls() {
    let mut reference: Option<Vec<HashMap<u64, Vec<u64>>>> = None;
    for workers in [1usize, 2, 4, 8] {
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let options = ServeOptions {
            workers,
            fixed_micros: Some(0),
            ..ServeOptions::default()
        };
        let server = spawn(listener, options).expect("spawn");
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                let endpoint = server.endpoint().clone();
                std::thread::spawn(move || run_client(&endpoint, &client_steps(c, workers)))
            })
            .collect();
        let words: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let summary = server.stop().expect("stop");
        assert_eq!(summary.connections, 5, "four clients + the stop client");
        assert_eq!(summary.requests, 4 * 12 + 1, "48 soak requests + shutdown");
        assert_eq!(summary.errors, 4, "one deliberate error per client");
        match &reference {
            None => reference = Some(words),
            Some(first) => assert_eq!(
                first, &words,
                "pool size {workers} changed the delivered words"
            ),
        }
    }
}
