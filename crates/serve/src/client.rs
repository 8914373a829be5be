//! A blocking client for the serve protocol.
//!
//! Three usage levels:
//!
//! - [`Client::request`] — one request, collect its binary chunks,
//!   return when the envelope arrives. What the CLI examples, most
//!   tests and the repository benchmark's serve burst use
//!   (`benchmark/README.md`; gated by `serve_words_per_s`).
//! - [`Client::send_json`] + [`Client::read_message`] — raw pipelining:
//!   push several requests, then demultiplex the interleaved responses
//!   yourself by request id ([`BlockChunk::id`] on chunks,
//!   [`envelope_id`] on envelopes). What the soak, chaos and hardening
//!   tests use.
//! - [`RetryClient`] — a [`Client`] wrapped in a [`RetryPolicy`]: on a
//!   transport failure it reconnects and replays the request with
//!   exponential backoff and deterministic seeded jitter, but only for
//!   *idempotent* commands (`unrank` / `rank` / `block` / `verify` /
//!   `stats` — see [`request_is_replayable`]). What hostile-network
//!   callers (and the chaos harness) use.

use crate::frame::{read_frame, write_frame, FrameError, KIND_BLOCK, KIND_JSON};
use crate::json::Json;
use crate::protocol::{decode_chunk, BlockChunk};
use crate::server::{Endpoint, Stream};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Everything that can go wrong on the client side of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport-level failure while sending.
    Io(String),
    /// Framing failure while receiving.
    Frame(FrameError),
    /// The frames arrived but violated the protocol (bad chunk header,
    /// connection closed before the envelope, ...).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "client framing error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// One inbound frame, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A response envelope, as raw bytes (kept raw so transcript tests
    /// can compare byte-for-byte; parse on demand with [`Json`]).
    Envelope(Vec<u8>),
    /// A binary packed-permutation chunk.
    Chunk(BlockChunk),
}

/// A collected response: every chunk of the request plus its envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The raw envelope bytes.
    pub envelope: Vec<u8>,
    /// The request's binary chunks, in arrival order.
    pub chunks: Vec<BlockChunk>,
}

impl Response {
    /// Parses the envelope.
    pub fn json(&self) -> Result<Json, ClientError> {
        Json::parse(&self.envelope).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Whether the envelope reports `"status":"ok"`.
    pub fn is_ok(&self) -> bool {
        matches!(
            self.json().ok().and_then(|j| match j.get("status") {
                Some(Json::Str(s)) => Some(s == "ok"),
                _ => None,
            }),
            Some(true)
        )
    }

    /// All chunk words reassembled in `base` order — the shard-count-
    /// independent view of a `block` or `random-stream` payload.
    pub fn words(&self) -> Vec<u64> {
        let mut chunks: Vec<&BlockChunk> = self.chunks.iter().collect();
        chunks.sort_by_key(|c| c.base);
        chunks
            .iter()
            .flat_map(|c| c.words.iter().copied())
            .collect()
    }
}

/// The request id an envelope's metrics trailer echoes.
pub fn envelope_id(envelope: &[u8]) -> Option<u64> {
    Json::parse(envelope)
        .ok()?
        .get("metrics")?
        .get("id")?
        .as_u64()
}

/// A blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let stream = Stream::connect(endpoint)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Sends one JSON request frame (flushes immediately).
    pub fn send_json(&mut self, body: &str) -> io::Result<()> {
        write_frame(&mut self.writer, KIND_JSON, body.as_bytes())?;
        self.writer.flush()
    }

    /// Sends one raw frame of arbitrary kind — the fuzz tests' hatch
    /// for hostile traffic.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one frame; `Ok(None)` when the server closed cleanly.
    pub fn read_message(&mut self) -> Result<Option<Message>, ClientError> {
        match read_frame(&mut self.reader)? {
            None => Ok(None),
            Some((KIND_BLOCK, payload)) => Ok(Some(Message::Chunk(
                decode_chunk(&payload).map_err(ClientError::Protocol)?,
            ))),
            Some((_, payload)) => Ok(Some(Message::Envelope(payload))),
        }
    }

    /// Sends `body` and collects the full response: binary chunks
    /// until the envelope arrives. Only valid when this request is the
    /// sole one in flight (chunks of other ids are a protocol error);
    /// pipeline manually via [`Client::send_json`] /
    /// [`Client::read_message`] otherwise.
    pub fn request(&mut self, body: &str) -> Result<Response, ClientError> {
        self.send_json(body)?;
        let mut chunks = Vec::new();
        loop {
            match self.read_message()? {
                None => {
                    return Err(ClientError::Protocol(
                        "connection closed before the envelope arrived".into(),
                    ))
                }
                Some(Message::Chunk(chunk)) => chunks.push(chunk),
                Some(Message::Envelope(envelope)) => return Ok(Response { envelope, chunks }),
            }
        }
    }

    /// Half-closes the write side, telling the server this client is
    /// done submitting (its reader sees a clean EOF).
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)
    }
}

/// How a [`RetryClient`] reacts to transport failures. The analogue of
/// `hwperm_core::FaultPolicy` one layer down the stack: `max_attempts
/// = 1` is `Panic` (fail loudly on the first fault), larger values are
/// `Retry` with exponential backoff. (`Fallback` has no transport
/// analogue — there is no degraded data source to switch to.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry k (0-based) averages
    /// `backoff_ms << k`, capped at [`RetryPolicy::max_backoff_ms`].
    pub backoff_ms: u64,
    /// Hard cap on one backoff sleep.
    pub max_backoff_ms: u64,
    /// Jitter seed: the exact sleep for attempt k is a pure function
    /// of `(seed, k)`, so a fault schedule replays identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 50,
            max_backoff_ms: 2_000,
            seed: 0xC0FF_EE00,
        }
    }
}

/// splitmix64 — the workspace's stock seed scrambler.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The deterministic backoff before 0-based retry `attempt`:
    /// half the capped exponential step plus seeded jitter over the
    /// other half, so concurrent clients sharing a policy but not a
    /// seed spread out instead of thundering back together.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let step = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms)
            .max(1);
        let half = step / 2;
        half + splitmix64(self.seed.wrapping_add(attempt as u64)) % (step - half).max(1)
    }
}

/// Honest counters of everything a [`RetryClient`] did — mirrors the
/// `GuardedPermSource` guard-stats discipline: every recovery is
/// tallied, never silent.
#[derive(Debug, Default)]
pub struct RetryCounters {
    attempts: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    gave_up: AtomicU64,
}

/// A snapshot of [`RetryCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests sent over the wire, including replays.
    pub attempts: u64,
    /// Replays after a transport fault.
    pub retries: u64,
    /// Connections re-established (the first connect is not counted).
    pub reconnects: u64,
    /// Requests that exhausted every attempt (or faulted on a
    /// non-replayable command) and surfaced the error.
    pub gave_up: u64,
}

/// Whether a request body names an idempotent command a retry may
/// safely replay. `unrank` / `rank` / `block` / `verify` / `stats`
/// replay (same input, same answer, no side effect); `random-stream`
/// does **not** (a replayed stream re-draws and the caller may have
/// consumed chunks of the first attempt), `shutdown` does not (a retry
/// would kill a freshly restarted server), and unparseable bodies do
/// not.
pub fn request_is_replayable(body: &str) -> bool {
    matches!(
        Json::parse(body.as_bytes())
            .ok()
            .as_ref()
            .and_then(|doc| doc.get("cmd"))
            .and_then(Json::as_str),
        Some("unrank" | "rank" | "block" | "verify" | "stats")
    )
}

/// Stamps the 0-based `attempt` counter into a request body so the
/// server can tally `retries_observed`. The body must be a JSON
/// object (every valid request is).
fn stamp_attempt(body: &str, attempt: u32) -> String {
    let trimmed = body.trim_end();
    match trimmed.strip_suffix('}') {
        Some(head) if head.trim_end().ends_with('{') => format!("{head}\"attempt\":{attempt}}}"),
        Some(head) => format!("{head},\"attempt\":{attempt}}}"),
        None => trimmed.to_string(),
    }
}

/// A [`Client`] with automatic reconnect and idempotent-only replay
/// under a [`RetryPolicy`]. Connections are (re-)established lazily,
/// so constructing one against a dead server is not an error — the
/// first request is.
pub struct RetryClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    conn: Option<Client>,
    counters: RetryCounters,
}

impl RetryClient {
    /// Wraps `endpoint` in `policy`. No connection is made yet.
    pub fn new(endpoint: Endpoint, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            endpoint,
            policy,
            conn: None,
            counters: RetryCounters::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Snapshot of the recovery counters.
    pub fn stats(&self) -> RetryStats {
        RetryStats {
            attempts: self.counters.attempts.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            gave_up: self.counters.gave_up.load(Ordering::Relaxed),
        }
    }

    fn connect_if_needed(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let fresh = Client::connect(&self.endpoint)?;
            if self.counters.attempts.load(Ordering::Relaxed) > 0 {
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            self.conn = Some(fresh);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// Sends `body` and collects the full response, retrying through
    /// transport faults per the policy. A response envelope that
    /// *reports* an error (`"status":"error"`) is a successful
    /// round-trip and is returned, never retried — only connect,
    /// framing and protocol failures count as faults. Non-replayable
    /// commands surface the first fault immediately.
    pub fn request(&mut self, body: &str) -> Result<Response, ClientError> {
        let replayable = request_is_replayable(body);
        let mut attempt: u32 = 0;
        loop {
            self.counters.attempts.fetch_add(1, Ordering::Relaxed);
            let wire = if attempt == 0 {
                body.to_string()
            } else {
                stamp_attempt(body, attempt)
            };
            let result = self
                .connect_if_needed()
                .and_then(|conn| conn.request(&wire));
            match result {
                Ok(response) => return Ok(response),
                Err(e) => {
                    // Whatever failed, the connection's framing state
                    // is unknowable — never reuse it.
                    self.conn = None;
                    if !replayable || attempt + 1 >= self.policy.max_attempts.max(1) {
                        self.counters.gave_up.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(self.policy.delay_ms(attempt)));
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_ms: 100,
            max_backoff_ms: 1_000,
            seed: 42,
        };
        let delays: Vec<u64> = (0..6).map(|k| policy.delay_ms(k)).collect();
        // Replayed exactly.
        assert_eq!(
            delays,
            (0..6).map(|k| policy.delay_ms(k)).collect::<Vec<_>>()
        );
        // Each delay sits in [step/2, step) for step = min(100 << k, 1000).
        for (k, &d) in delays.iter().enumerate() {
            let step = (100u64 << k).min(1_000);
            assert!(
                (step / 2..step.max(step / 2 + 1)).contains(&d),
                "attempt {k}: delay {d} outside [{}, {})",
                step / 2,
                step
            );
        }
        // A different seed jitters differently (with overwhelming
        // likelihood for this fixed pair).
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(
            (0..6).map(|k| policy.delay_ms(k)).collect::<Vec<_>>(),
            (0..6).map(|k| other.delay_ms(k)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn replayability_is_idempotent_only() {
        for (body, want) in [
            (r#"{"id":1,"cmd":"unrank","n":4,"index":3}"#, true),
            (r#"{"cmd":"rank","perm":[0,1]}"#, true),
            (r#"{"cmd":"block","n":5}"#, true),
            (r#"{"cmd":"verify","n":3}"#, true),
            (r#"{"cmd":"stats"}"#, true),
            (r#"{"cmd":"random-stream","n":4,"count":5}"#, false),
            (r#"{"cmd":"shutdown"}"#, false),
            (r#"{"cmd":"frobnicate"}"#, false),
            ("not json", false),
        ] {
            assert_eq!(request_is_replayable(body), want, "{body}");
        }
    }

    #[test]
    fn attempt_stamp_keeps_the_body_parseable() {
        assert_eq!(
            stamp_attempt(r#"{"id":1,"cmd":"stats"}"#, 2),
            r#"{"id":1,"cmd":"stats","attempt":2}"#
        );
        assert_eq!(stamp_attempt("{}", 1), r#"{"attempt":1}"#);
        assert_eq!(
            crate::protocol::request_attempt(stamp_attempt(r#"{"cmd":"stats"}"#, 3).as_bytes()),
            3
        );
        assert_eq!(crate::protocol::request_attempt(br#"{"cmd":"stats"}"#), 0);
    }
}
