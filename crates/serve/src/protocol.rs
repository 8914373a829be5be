//! Request parsing, response envelopes, and binary chunk encoding.
//!
//! ## Requests (JSON frames, client → server)
//!
//! Every request is one [`KIND_JSON`](crate::frame::KIND_JSON) frame
//! holding an object with an `"id"` (echoed back for multiplexing, 0
//! if absent) and a `"cmd"`:
//!
//! | cmd             | fields                                   |
//! |-----------------|------------------------------------------|
//! | `unrank`        | `n` (1..=16), `index` (< n!)             |
//! | `rank`          | `perm` (array, a permutation of 0..n−1)  |
//! | `block`         | `n`, `start`, `end` (≤ n!), `chunk`?     |
//! | `random-stream` | `n`, `count`, `seed`?, `chunk`?          |
//! | `verify`        | `n` (2..=8), `jobs`? (1..=64)            |
//! | `stats`         | —                                        |
//! | `shutdown`      | —                                        |
//!
//! ## Responses (server → client)
//!
//! Every request gets exactly one JSON *envelope* frame — the same
//! `{"tool","version","command","status","exit","errors","results"}`
//! shape the `lint`/`faults`/`prove` subcommands pin, extended with a
//! `"metrics"` trailer carrying the request id, service latency and
//! request payload size. Bulk data (`block`, `random-stream`) arrives
//! *before* the envelope as [`KIND_BLOCK`](crate::frame::KIND_BLOCK)
//! binary frames ([`BlockChunk`]): 40-byte header (id, seq, base,
//! count, flags — all little-endian `u64`) followed by `count` packed
//! permutation words. Chunks of one request may arrive in any base
//! order when the worker pool shards the range; the envelope always
//! arrives last.

use crate::json::{escape, Json};

/// Cap on the `chunk` request field (packed words per binary frame):
/// 65 536 words = 512 KiB of payload, comfortably under the frame cap.
pub const CHUNK_CAP: usize = 65_536;

/// Default `chunk` when a request omits it.
pub const DEFAULT_CHUNK: usize = 8_192;

/// Byte length of the [`BlockChunk`] header (5 little-endian `u64`s).
pub const CHUNK_HEADER: usize = 40;

/// Flag bit: this chunk is the final one of its request.
pub const CHUNK_FLAG_LAST: u64 = 1;

/// A validated request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Unrank one index.
    Unrank {
        /// Permutation size (1..=16).
        n: usize,
        /// Lexicographic index, `< n!`.
        index: u64,
    },
    /// Rank one permutation.
    Rank {
        /// The permutation's elements.
        perm: Vec<u32>,
    },
    /// Stream a contiguous index range as packed words.
    Block {
        /// Permutation size (1..=16).
        n: usize,
        /// First index (inclusive).
        start: u64,
        /// Last index (exclusive), `≤ n!`.
        end: u64,
        /// Packed words per binary chunk frame.
        chunk: usize,
    },
    /// Stream seeded random permutations through the guarded source.
    RandomStream {
        /// Permutation size (1..=16).
        n: usize,
        /// Number of draws.
        count: u64,
        /// RNG seed (deterministic stream per seed).
        seed: u64,
        /// Packed words per binary chunk frame.
        chunk: usize,
    },
    /// Exhaustively verify the Fig. 1 converter netlist at size `n`.
    Verify {
        /// Permutation size (2..=8).
        n: usize,
        /// Worker threads for the sharded sweep.
        jobs: usize,
    },
    /// Server-wide counters.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

impl Request {
    /// The wire name of this request's command.
    pub fn command(&self) -> &'static str {
        match self {
            Request::Unrank { .. } => "unrank",
            Request::Rank { .. } => "rank",
            Request::Block { .. } => "block",
            Request::RandomStream { .. } => "random-stream",
            Request::Verify { .. } => "verify",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request that failed validation: the id and command to echo (both
/// best-effort) plus the error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Echoed request id (0 when unparseable).
    pub id: u64,
    /// Echoed command (`"error"` when unparseable).
    pub command: String,
    /// Human-readable reason.
    pub message: String,
}

fn fail(id: u64, command: &str, message: impl Into<String>) -> RequestError {
    RequestError {
        id,
        command: command.to_string(),
        message: message.into(),
    }
}

/// `n!` for the packed-word sizes (`n ≤ 16` keeps it within `u64`).
pub fn factorial_u64(n: usize) -> u64 {
    (1..=n as u64).product()
}

fn field_u64(
    doc: &Json,
    id: u64,
    cmd: &str,
    key: &str,
    default: Option<u64>,
) -> Result<u64, RequestError> {
    match doc.get(key) {
        None => default.ok_or_else(|| fail(id, cmd, format!("missing field {key:?}"))),
        Some(v) => v.as_u64().ok_or_else(|| {
            fail(
                id,
                cmd,
                format!("field {key:?} must be a non-negative integer"),
            )
        }),
    }
}

fn field_n(doc: &Json, id: u64, cmd: &str, lo: usize, hi: usize) -> Result<usize, RequestError> {
    let n = field_u64(doc, id, cmd, "n", None)? as usize;
    if !(lo..=hi).contains(&n) {
        return Err(fail(id, cmd, format!("n must be {lo}..={hi}")));
    }
    Ok(n)
}

fn field_chunk(doc: &Json, id: u64, cmd: &str, default: usize) -> Result<usize, RequestError> {
    let chunk = field_u64(doc, id, cmd, "chunk", Some(default as u64))? as usize;
    if !(1..=CHUNK_CAP).contains(&chunk) {
        return Err(fail(id, cmd, format!("chunk must be 1..={CHUNK_CAP}")));
    }
    Ok(chunk)
}

/// The `"attempt"` counter a retrying client stamps on replayed
/// requests (0 or absent on first sends). Servers tally non-zero
/// attempts as `retries_observed`; the field is otherwise ignored, so
/// stamped requests parse identically to fresh ones. Unparseable
/// payloads report 0 — they are counted through the error path, not
/// the retry path.
pub fn request_attempt(payload: &[u8]) -> u64 {
    // Cheap pre-filter: almost every request carries no "attempt" key,
    // and those skip the second JSON parse entirely.
    if !payload
        .windows(b"\"attempt\"".len())
        .any(|w| w == b"\"attempt\"")
    {
        return 0;
    }
    Json::parse(payload)
        .ok()
        .and_then(|doc| doc.get("attempt")?.as_u64())
        .unwrap_or(0)
}

/// Parses and validates one request payload; `default_chunk` is the
/// chunk size used when a request omits `"chunk"` (the server passes
/// [`DEFAULT_CHUNK`]).
/// On failure the error carries the best-effort id/command echo for
/// the error envelope.
pub fn parse_request(payload: &[u8], default_chunk: usize) -> Result<(u64, Request), RequestError> {
    let doc = Json::parse(payload).map_err(|e| fail(0, "error", e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(fail(0, "error", "request must be a JSON object"));
    }
    let id = match doc.get("id") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| fail(0, "error", "field \"id\" must be a non-negative integer"))?,
    };
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(id, "error", "missing string field \"cmd\""))?
        .to_string();
    let request = match cmd.as_str() {
        "unrank" => {
            let n = field_n(&doc, id, &cmd, 1, 16)?;
            let index = field_u64(&doc, id, &cmd, "index", None)?;
            if index >= factorial_u64(n) {
                return Err(fail(id, &cmd, format!("index must be below {n}!")));
            }
            Request::Unrank { n, index }
        }
        "rank" => {
            let elems = doc
                .get("perm")
                .and_then(Json::as_array)
                .ok_or_else(|| fail(id, &cmd, "missing array field \"perm\""))?;
            if elems.is_empty() || elems.len() > 16 {
                return Err(fail(id, &cmd, "perm must have 1..=16 elements"));
            }
            let mut perm = Vec::with_capacity(elems.len());
            for e in elems {
                let v = e
                    .as_u64()
                    .filter(|&v| v < 16)
                    .ok_or_else(|| fail(id, &cmd, "perm elements must be integers below 16"))?;
                perm.push(v as u32);
            }
            Request::Rank { perm }
        }
        "block" => {
            let n = field_n(&doc, id, &cmd, 1, 16)?;
            let start = field_u64(&doc, id, &cmd, "start", Some(0))?;
            let end = field_u64(&doc, id, &cmd, "end", Some(factorial_u64(n)))?;
            if end > factorial_u64(n) {
                return Err(fail(id, &cmd, format!("end must be at most {n}!")));
            }
            if start > end {
                return Err(fail(id, &cmd, "start must not exceed end"));
            }
            let chunk = field_chunk(&doc, id, &cmd, default_chunk)?;
            Request::Block {
                n,
                start,
                end,
                chunk,
            }
        }
        "random-stream" => {
            let n = field_n(&doc, id, &cmd, 1, 16)?;
            let count = field_u64(&doc, id, &cmd, "count", None)?;
            let seed = field_u64(&doc, id, &cmd, "seed", Some(0xD1CE))?;
            let chunk = field_chunk(&doc, id, &cmd, default_chunk)?;
            Request::RandomStream {
                n,
                count,
                seed,
                chunk,
            }
        }
        "verify" => {
            let n = field_n(&doc, id, &cmd, 2, 8)?;
            let jobs = field_u64(&doc, id, &cmd, "jobs", Some(1))? as usize;
            if !(1..=64).contains(&jobs) {
                return Err(fail(id, &cmd, "jobs must be 1..=64"));
            }
            Request::Verify { n, jobs }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(fail(
                id,
                "error",
                format!(
                    "unknown cmd {other:?} (commands: unrank | rank | block | \
                     random-stream | verify | stats | shutdown)"
                ),
            ))
        }
    };
    Ok((id, request))
}

/// Builds the response envelope — the shared
/// `{"tool","version","command","status","exit","errors","results"}`
/// schema of `lint --json` / `faults --json` / `prove --json`, plus the
/// serve-specific `"metrics"` trailer `{id, micros, bytes_in}`.
pub fn envelope(
    command: &str,
    ok: bool,
    results: &str,
    id: u64,
    micros: u64,
    bytes_in: u64,
) -> Vec<u8> {
    let (status, exit, errors) = if ok { ("ok", 0, 0) } else { ("error", 2, 1) };
    format!(
        "{{\"tool\":\"hwperm\",\"version\":\"{}\",\"command\":\"{command}\",\
         \"status\":\"{status}\",\"exit\":{exit},\"errors\":{errors},\
         \"results\":[{results}],\"metrics\":{{\"id\":{id},\"micros\":{micros},\
         \"bytes_in\":{bytes_in}}}}}\n",
        env!("CARGO_PKG_VERSION"),
    )
    .into_bytes()
}

/// The error-envelope result object for `message`.
pub fn error_result(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape(message))
}

/// One decoded binary chunk frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChunk {
    /// The request this chunk answers.
    pub id: u64,
    /// Production sequence number within the request.
    pub seq: u64,
    /// Index of the first word (block) or draw offset (random-stream).
    pub base: u64,
    /// Flag bits ([`CHUNK_FLAG_LAST`]).
    pub flags: u64,
    /// The packed permutation words.
    pub words: Vec<u64>,
}

/// Encodes a chunk frame payload from already-serialized word bytes
/// (little-endian `u64`s — [`BlockDecoder::decode_le_bytes_into`]'s
/// output feeds this directly).
///
/// [`BlockDecoder::decode_le_bytes_into`]:
///     hwperm_factoradic::BlockDecoder::decode_le_bytes_into
///
/// # Panics
/// Panics if `word_bytes` is not a multiple of 8 long — the server
/// owns every outbound chunk, so a ragged buffer is a bug.
pub fn encode_chunk(id: u64, seq: u64, base: u64, flags: u64, word_bytes: &[u8]) -> Vec<u8> {
    assert!(
        word_bytes.len().is_multiple_of(8),
        "chunk payload of {} bytes is not a whole number of words",
        word_bytes.len()
    );
    let count = (word_bytes.len() / 8) as u64;
    let mut out = Vec::with_capacity(CHUNK_HEADER + word_bytes.len());
    for v in [id, seq, base, count, flags] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(word_bytes);
    out
}

/// Decodes a chunk frame payload, validating the header against the
/// actual length.
pub fn decode_chunk(payload: &[u8]) -> Result<BlockChunk, String> {
    if payload.len() < CHUNK_HEADER {
        return Err(format!(
            "chunk frame of {} bytes is shorter than the {CHUNK_HEADER}-byte header",
            payload.len()
        ));
    }
    let word = |i: usize| {
        u64::from_le_bytes(
            payload[i * 8..(i + 1) * 8]
                .try_into()
                .expect("8-byte slice"),
        )
    };
    let (id, seq, base, count, flags) = (word(0), word(1), word(2), word(3), word(4));
    let body = &payload[CHUNK_HEADER..];
    if !body.len().is_multiple_of(8) {
        return Err(format!(
            "chunk body of {} bytes is not a whole number of words",
            body.len()
        ));
    }
    if (body.len() / 8) as u64 != count {
        return Err(format!(
            "chunk header declares {count} words but the body carries {}",
            body.len() / 8
        ));
    }
    let words = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    Ok(BlockChunk {
        id,
        seq,
        base,
        flags,
        words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<(u64, Request), RequestError> {
        parse_request(s.as_bytes(), DEFAULT_CHUNK)
    }

    #[test]
    fn parses_every_request_type() {
        assert_eq!(
            parse(r#"{"id":1,"cmd":"unrank","n":4,"index":11}"#).unwrap(),
            (1, Request::Unrank { n: 4, index: 11 })
        );
        assert_eq!(
            parse(r#"{"id":2,"cmd":"rank","perm":[1,3,2,0]}"#).unwrap(),
            (
                2,
                Request::Rank {
                    perm: vec![1, 3, 2, 0]
                }
            )
        );
        assert_eq!(
            parse(r#"{"id":3,"cmd":"block","n":5,"start":10,"end":50,"chunk":16}"#).unwrap(),
            (
                3,
                Request::Block {
                    n: 5,
                    start: 10,
                    end: 50,
                    chunk: 16
                }
            )
        );
        // block defaults: start 0, end n!, chunk DEFAULT_CHUNK.
        assert_eq!(
            parse(r#"{"cmd":"block","n":4}"#).unwrap(),
            (
                0,
                Request::Block {
                    n: 4,
                    start: 0,
                    end: 24,
                    chunk: DEFAULT_CHUNK
                }
            )
        );
        assert_eq!(
            parse(r#"{"id":4,"cmd":"random-stream","n":6,"count":100,"seed":9}"#).unwrap(),
            (
                4,
                Request::RandomStream {
                    n: 6,
                    count: 100,
                    seed: 9,
                    chunk: DEFAULT_CHUNK
                }
            )
        );
        assert_eq!(
            parse(r#"{"id":5,"cmd":"verify","n":6,"jobs":4}"#).unwrap(),
            (5, Request::Verify { n: 6, jobs: 4 })
        );
        assert_eq!(
            parse(r#"{"id":6,"cmd":"stats"}"#).unwrap().1,
            Request::Stats
        );
        assert_eq!(
            parse(r#"{"id":7,"cmd":"shutdown"}"#).unwrap().1,
            Request::Shutdown
        );
    }

    #[test]
    fn default_chunk_is_server_configured() {
        let (_, req) = parse_request(br#"{"cmd":"block","n":4}"#, 64).unwrap();
        assert!(matches!(req, Request::Block { chunk: 64, .. }));
        // An explicit chunk still wins over the server default.
        let (_, req) = parse_request(br#"{"cmd":"block","n":4,"chunk":7}"#, 64).unwrap();
        assert!(matches!(req, Request::Block { chunk: 7, .. }));
    }

    #[test]
    fn validation_rejects_hostile_fields() {
        // (payload, expected message fragment)
        for (bad, frag) in [
            ("[]", "must be a JSON object"),
            ("{\"cmd\":\"unrank\"}", "missing field \"n\""),
            (
                "{\"cmd\":\"unrank\",\"n\":0,\"index\":0}",
                "n must be 1..=16",
            ),
            (
                "{\"cmd\":\"unrank\",\"n\":17,\"index\":0}",
                "n must be 1..=16",
            ),
            (
                "{\"cmd\":\"unrank\",\"n\":4,\"index\":24}",
                "index must be below 4!",
            ),
            (
                "{\"cmd\":\"unrank\",\"n\":4,\"index\":-1}",
                "non-negative integer",
            ),
            ("{\"cmd\":\"rank\",\"perm\":[]}", "1..=16 elements"),
            ("{\"cmd\":\"rank\",\"perm\":[0,99]}", "integers below 16"),
            (
                "{\"cmd\":\"block\",\"n\":4,\"start\":5,\"end\":3}",
                "start must not exceed end",
            ),
            (
                "{\"cmd\":\"block\",\"n\":4,\"end\":25}",
                "end must be at most 4!",
            ),
            (
                "{\"cmd\":\"block\",\"n\":4,\"chunk\":0}",
                "chunk must be 1..=65536",
            ),
            (
                "{\"cmd\":\"block\",\"n\":4,\"chunk\":1000000}",
                "chunk must be 1..=65536",
            ),
            ("{\"cmd\":\"verify\",\"n\":9}", "n must be 2..=8"),
            (
                "{\"cmd\":\"verify\",\"n\":4,\"jobs\":0}",
                "jobs must be 1..=64",
            ),
            ("{\"cmd\":\"frobnicate\"}", "unknown cmd"),
            ("{\"n\":4}", "missing string field \"cmd\""),
            ("{\"id\":\"x\",\"cmd\":\"stats\"}", "\"id\" must be"),
            ("not json at all", "invalid JSON"),
        ] {
            let e = parse(bad).unwrap_err();
            assert!(
                e.message.contains(frag),
                "{bad}: got {:?}, want fragment {frag:?}",
                e.message
            );
        }
    }

    #[test]
    fn error_echo_carries_id_and_command() {
        let e = parse(r#"{"id":42,"cmd":"unrank","n":99,"index":0}"#).unwrap_err();
        assert_eq!(e.id, 42);
        assert_eq!(e.command, "unrank");
        // Unparseable documents echo id 0 / command "error".
        let e = parse("{{{{").unwrap_err();
        assert_eq!((e.id, e.command.as_str()), (0, "error"));
    }

    #[test]
    fn envelope_matches_the_cli_schema_prefix() {
        let env = envelope("unrank", true, "{\"x\":1}", 7, 0, 33);
        let text = String::from_utf8(env).unwrap();
        let prefix = format!(
            "{{\"tool\":\"hwperm\",\"version\":\"{}\",\"command\":\"unrank\",\
             \"status\":\"ok\",\"exit\":0,\"errors\":0,\"results\":[",
            env!("CARGO_PKG_VERSION")
        );
        assert!(text.starts_with(&prefix), "{text}");
        assert!(
            text.trim_end()
                .ends_with("],\"metrics\":{\"id\":7,\"micros\":0,\"bytes_in\":33}}"),
            "{text}"
        );
        let err = String::from_utf8(envelope(
            "error",
            false,
            &error_result("boom \"x\""),
            0,
            0,
            4,
        ))
        .unwrap();
        assert!(
            err.contains("\"status\":\"error\",\"exit\":2,\"errors\":1"),
            "{err}"
        );
        assert!(err.contains("{\"error\":\"boom \\\"x\\\"\"}"), "{err}");
    }

    #[test]
    fn chunk_roundtrip_and_hostile_decodes() {
        let words: Vec<u64> = (0..5u64).map(|i| i * 1000).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let payload = encode_chunk(9, 2, 100, CHUNK_FLAG_LAST, &bytes);
        assert_eq!(payload.len(), CHUNK_HEADER + 40);
        let chunk = decode_chunk(&payload).unwrap();
        assert_eq!(
            chunk,
            BlockChunk {
                id: 9,
                seq: 2,
                base: 100,
                flags: CHUNK_FLAG_LAST,
                words
            }
        );
        // Hostile: short header, ragged body, count mismatch.
        assert!(decode_chunk(&payload[..CHUNK_HEADER - 1])
            .unwrap_err()
            .contains("shorter"));
        assert!(decode_chunk(&payload[..CHUNK_HEADER + 3])
            .unwrap_err()
            .contains("whole number"));
        let mut lying = payload.clone();
        lying[24] = 99; // count field
        assert!(decode_chunk(&lying).unwrap_err().contains("declares"));
    }
}
