//! The chaos soak: four retrying clients drive the full request mix
//! through a fault-injecting proxy, under every seeded fault schedule,
//! and the delivered bytes must converge to exactly what the libraries
//! produce in-process — or a pinned loud error, never a hang (every
//! test runs under a hard watchdog) and never a leaked thread (both
//! the proxy and the server prove `threads_spawned == threads_joined`).
//!
//! Convergence is guaranteed by construction, not luck: schedules are
//! finite (after the last faulted connection everything is clean
//! forever) and the retry budget exceeds the fault count, so whichever
//! client draws whichever fault, its replay eventually lands on a
//! clean connection.

mod common;

use common::watchdog;
use hwperm_core::{FaultPolicy, GuardedPermSource, RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::{rank_u64, shard_ranges, BlockDecoder, Unranker};
use hwperm_serve::{
    envelope, error_result, spawn, BlockChunk, ChaosProxy, Client, ClientError, Endpoint, Fault,
    Listener, RetryClient, RetryPolicy, ServeOptions, CHUNK_FLAG_LAST, STREAM_SPOT_CHECK_EVERY,
};

const WORKERS: usize = 2;

/// Retry budget comfortably above every schedule's fault count.
fn soak_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        backoff_ms: 5,
        max_backoff_ms: 50,
        seed,
    }
}

/// One request and everything the server must eventually deliver.
struct Step {
    req: String,
    command: &'static str,
    ok: bool,
    id: u64,
    results: String,
    words: Option<Vec<u64>>,
    /// Whether [`RetryClient`] replays this command on transport
    /// faults; non-replayable steps are re-issued by the *harness*
    /// (a fresh request is the application's decision, never the
    /// client's).
    replayable: bool,
}

impl Step {
    /// The envelopes this step may legitimately produce: attempt 0 is
    /// the bare request; replayed attempts carry the `"attempt"` stamp
    /// and therefore a different `metrics.bytes_in`. All candidates
    /// are exact byte strings — nothing is fuzzy-matched.
    fn envelope_candidates(&self, max_attempts: u32) -> Vec<Vec<u8>> {
        (0..max_attempts)
            .map(|k| {
                let body = if k == 0 {
                    self.req.clone()
                } else {
                    format!("{},\"attempt\":{k}}}", &self.req[..self.req.len() - 1])
                };
                envelope(
                    self.command,
                    self.ok,
                    &self.results,
                    self.id,
                    0,
                    (body.len() + 5) as u64,
                )
            })
            .collect()
    }
}

fn render_perm(perm: &[u32]) -> String {
    let body = perm
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

fn expected_block_chunks(count: u64, chunk: u64) -> u64 {
    let shard_count = (WORKERS as u64).min(count.div_ceil(chunk)).max(1) as usize;
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
    let perm = Unranker::new(n).unrank(index);
    Step {
        req: format!("{{\"id\":{id},\"cmd\":\"unrank\",\"n\":{n},\"index\":{index}}}"),
        command: "unrank",
        ok: true,
        id,
        results: format!(
            "{{\"type\":\"unrank\",\"n\":{n},\"index\":{index},\"perm\":{},\"packed\":{}}}",
            render_perm(perm.as_slice()),
            perm.pack_u64(),
        ),
        words: None,
        replayable: true,
    }
}

fn rank_step(id: u64, n: usize, index: u64) -> Step {
    let perm = Unranker::new(n).unrank(index);
    Step {
        req: format!(
            "{{\"id\":{id},\"cmd\":\"rank\",\"perm\":{}}}",
            render_perm(perm.as_slice()),
        ),
        command: "rank",
        ok: true,
        id,
        results: format!(
            "{{\"type\":\"rank\",\"n\":{n},\"perm\":{},\"index\":{}}}",
            render_perm(perm.as_slice()),
            rank_u64(&perm),
        ),
        words: None,
        replayable: true,
    }
}

fn block_step(id: u64, n: usize, start: u64, end: u64, chunk: u64) -> Step {
    Step {
        req: format!(
            "{{\"id\":{id},\"cmd\":\"block\",\"n\":{n},\"start\":{start},\"end\":{end},\
             \"chunk\":{chunk}}}"
        ),
        command: "block",
        ok: true,
        id,
        results: format!(
            "{{\"type\":\"block\",\"n\":{n},\"start\":{start},\"end\":{end},\"chunk\":{chunk},\
             \"chunks\":{},\"words\":{}}}",
            expected_block_chunks(end - start, chunk),
            end - start,
        ),
        words: Some(direct_block_words(n, start, end)),
        replayable: true,
    }
}

fn stream_step(id: u64, n: usize, count: u64, seed: u64, chunk: u64) -> Step {
    let mut source = GuardedPermSource::with_options(
        SoftwareRandomSource::new(n, seed),
        FaultPolicy::Fallback,
        STREAM_SPOT_CHECK_EVERY,
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
    );
    let mut words = vec![0u64; count as usize];
    source.fill_packed_u64(&mut words);
    let guard = source.stats();
    Step {
        req: format!(
            "{{\"id\":{id},\"cmd\":\"random-stream\",\"n\":{n},\"count\":{count},\
             \"seed\":{seed},\"chunk\":{chunk}}}"
        ),
        command: "random-stream",
        ok: true,
        id,
        results: format!(
            "{{\"type\":\"random-stream\",\"n\":{n},\"count\":{count},\"seed\":{seed},\
             \"chunk\":{chunk},\"chunks\":{},\"words\":{count},\
             \"guard\":{{\"detected\":{},\"retried\":{},\"fell_back\":{}}}}}",
            count.div_ceil(chunk),
            guard.detected,
            guard.retried,
            guard.fell_back,
        ),
        words: Some(words),
        replayable: false,
    }
}

fn bad_cmd_step(id: u64) -> Step {
    Step {
        req: format!("{{\"id\":{id},\"cmd\":\"frobnicate\"}}"),
        command: "error",
        ok: false,
        id,
        results: error_result(
            "unknown cmd \"frobnicate\" (commands: unrank | rank | block | random-stream | \
             verify | stats | shutdown)",
        ),
        words: None,
        replayable: false,
    }
}

/// Each client's mix: every verifiable request type, a deliberate
/// protocol error, parameters varied per client so concurrent work
/// never aliases. (`verify`/`stats` are exercised elsewhere; their
/// results are cache/time dependent and would not pin.)
fn client_steps(c: u64) -> Vec<Step> {
    vec![
        unrank_step(1, 5, (17 * c + 3) % 120),
        rank_step(2, 5, (31 * c + 7) % 120),
        block_step(3, 4, c, 24, 5),
        stream_step(4, 5, 10 + c, 1000 + c, 4),
        bad_cmd_step(5),
        block_step(6, 5, 0, 120, 16),
        unrank_step(7, 6, (101 * c) % 720),
        rank_step(8, 3, c % 6),
    ]
}

/// Runs one client's steps through a retrying client. Replayable steps
/// ride the client's own retry loop; non-replayable ones that hit a
/// fault are *re-issued* by the harness — bounded, because the
/// schedule is finite.
fn run_soak_client(endpoint: &Endpoint, c: u64, policy: RetryPolicy) -> u64 {
    let mut client = RetryClient::new(endpoint.clone(), policy);
    for step in client_steps(c) {
        assert_eq!(
            hwperm_serve::request_is_replayable(&step.req),
            step.replayable,
            "replay matrix drifted for {}",
            step.req
        );
        let mut reissues = 0u32;
        let response = loop {
            match client.request(&step.req) {
                Ok(response) => break response,
                Err(e) if !step.replayable => {
                    // The pinned loud error, surfaced immediately —
                    // never a silent replay. The harness decides to
                    // re-issue, as a real application would.
                    assert!(
                        matches!(
                            e,
                            ClientError::Io(_) | ClientError::Frame(_) | ClientError::Protocol(_)
                        ),
                        "non-replayable fault must be a typed transport error: {e}"
                    );
                    reissues += 1;
                    assert!(
                        reissues <= 16,
                        "client {c}: schedule should have drained long ago"
                    );
                }
                Err(e) => panic!(
                    "client {c}: replayable {} exhausted its retry budget: {e}",
                    step.command
                ),
            }
        };
        let candidates = step.envelope_candidates(policy.max_attempts);
        assert!(
            candidates.contains(&response.envelope),
            "client {c} id {}: envelope not byte-identical to any legitimate attempt\n got: {}\
             \nwant attempt 0: {}",
            step.id,
            String::from_utf8_lossy(&response.envelope),
            String::from_utf8_lossy(&candidates[0]),
        );
        if let Some(expected_words) = &step.words {
            let mut chunks: Vec<BlockChunk> = response.chunks.clone();
            chunks.sort_by_key(|chunk| chunk.base);
            assert_eq!(
                chunks
                    .iter()
                    .filter(|chunk| chunk.flags & CHUNK_FLAG_LAST != 0)
                    .count(),
                1,
                "exactly one LAST chunk"
            );
            let got: Vec<u64> = chunks
                .iter()
                .flat_map(|chunk| chunk.words.iter().copied())
                .collect();
            assert_eq!(
                &got, expected_words,
                "client {c} id {}: words diverge from direct library call",
                step.id
            );
        } else {
            assert!(response.chunks.is_empty(), "unexpected chunks");
        }
    }
    let stats = client.stats();
    stats.retries
}

/// Every named fault schedule the soak must converge under.
fn schedules() -> Vec<(&'static str, Vec<Fault>)> {
    vec![
        ("clean", vec![]),
        (
            "reset",
            vec![Fault::Reset { after: 9 }, Fault::Reset { after: 100 }],
        ),
        ("delay", vec![Fault::Delay { ms: 40 }]),
        (
            "truncate",
            vec![Fault::Truncate { after: 3 }, Fault::Truncate { after: 0 }],
        ),
        (
            // Framing bytes only: offset 0 is the length prefix MSB
            // (0x80 forces an Oversized reject before any allocation),
            // offset 4 is the kind byte (an UnknownKind reject). The
            // payload carries no checksum, so flipping payload bytes
            // would be silent — the module doc explains the rule.
            "corrupt",
            vec![
                Fault::Corrupt { at: 0, mask: 0x80 },
                Fault::Corrupt { at: 4, mask: 0x07 },
            ],
        ),
        ("trickle", vec![Fault::Trickle { delay_us: 100 }]),
        (
            "mixed",
            vec![
                Fault::Reset { after: 5 },
                Fault::Corrupt { at: 0, mask: 0xFF },
                Fault::Truncate { after: 12 },
                Fault::Delay { ms: 20 },
            ],
        ),
    ]
}

#[test]
fn chaos_soak_converges_byte_identical_under_every_schedule() {
    watchdog(300, "chaos-soak", || {
        for (name, schedule) in schedules() {
            let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
            let server = spawn(
                listener,
                ServeOptions {
                    workers: WORKERS,
                    fixed_micros: Some(0),
                    ..ServeOptions::default()
                },
            )
            .expect("spawn server");
            let proxy =
                ChaosProxy::spawn(server.endpoint().clone(), &schedule).expect("spawn proxy");
            let handles: Vec<_> = (0..4u64)
                .map(|c| {
                    let endpoint = proxy.endpoint().clone();
                    std::thread::spawn(move || {
                        run_soak_client(&endpoint, c, soak_policy(0xDEAD_0000 + c))
                    })
                })
                .collect();
            let retries: u64 = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("{name}: client panicked"))
                })
                .sum();
            let report = proxy.stop();
            assert_eq!(
                report.threads_spawned, report.threads_joined,
                "{name}: proxy leaked threads: {report:?}"
            );
            let summary = server.stop().expect("stop server");
            assert_eq!(
                summary.threads_spawned, summary.threads_joined,
                "{name}: server leaked threads: {summary}"
            );
            if schedule.is_empty() {
                assert_eq!(retries, 0, "clean network must need no retries");
                assert_eq!(report.faults_injected, 0);
            } else {
                assert_eq!(report.faults_injected as usize, schedule.len());
            }
        }
    });
}

#[test]
fn server_death_mid_block_stream_is_pinned_error_then_retry_succeeds() {
    watchdog(120, "mid-stream-death", || {
        // Phase 1: the connection dies in the middle of the block
        // stream (Reset lands inside the second chunk frame). A
        // plain no-retry client must surface a typed loud error —
        // never hang, never fabricate a partial success.
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let server_a = spawn(
            listener,
            ServeOptions {
                workers: WORKERS,
                fixed_micros: Some(0),
                ..ServeOptions::default()
            },
        )
        .expect("spawn A");
        let proxy = ChaosProxy::spawn(server_a.endpoint().clone(), &[Fault::Reset { after: 600 }])
            .expect("proxy");
        let req = r#"{"id":1,"cmd":"block","n":5,"start":0,"end":120,"chunk":8}"#;
        let mut bare = Client::connect(proxy.endpoint()).expect("connect");
        let err = bare.request(req).expect_err("mid-stream death must error");
        assert!(
            matches!(
                err,
                ClientError::Frame(_) | ClientError::Io(_) | ClientError::Protocol(_)
            ),
            "pinned transport error expected, got: {err}"
        );
        drop(bare);

        // Phase 2: the server is "restarted" — the original instance
        // goes away entirely, a fresh one comes up, and the proxy
        // (standing in for the stable address) points at it. The
        // retrying client recovers without the caller doing anything.
        server_a.stop().expect("stop A");
        let listener_b = Listener::bind_tcp("127.0.0.1:0").expect("bind B");
        let server_b = spawn(
            listener_b,
            ServeOptions {
                workers: WORKERS,
                fixed_micros: Some(0),
                ..ServeOptions::default()
            },
        )
        .expect("spawn B");
        proxy.set_upstream(server_b.endpoint().clone());
        let mut retrying = RetryClient::new(proxy.endpoint().clone(), soak_policy(7));
        let response = retrying
            .request(req)
            .expect("retry against the restarted server must succeed");
        let mut chunks = response.chunks.clone();
        chunks.sort_by_key(|chunk| chunk.base);
        let words: Vec<u64> = chunks
            .iter()
            .flat_map(|chunk| chunk.words.iter().copied())
            .collect();
        assert_eq!(
            words,
            direct_block_words(5, 0, 120),
            "recovered block words must match the direct library call"
        );

        let report = proxy.stop();
        assert_eq!(report.threads_spawned, report.threads_joined);
        let summary = server_b.stop().expect("stop B");
        assert_eq!(summary.threads_spawned, summary.threads_joined);
    });
}

#[test]
fn client_that_stops_reading_cannot_pin_the_server() {
    watchdog(60, "slow-reader", || {
        // A client requests a response far bigger than the socket
        // buffers, then never reads a byte. The writer must hit its
        // write deadline, shed the connection, and the server must
        // still stop promptly with every thread joined — a reader
        // that went away cannot pin the drain.
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let server = spawn(
            listener,
            ServeOptions {
                workers: WORKERS,
                idle_timeout_ms: Some(50),
                fixed_micros: Some(0),
                ..ServeOptions::default()
            },
        )
        .expect("spawn");
        // 40 320 words = ~322 KiB of chunks, well past kernel buffers.
        let mut mute = Client::connect(server.endpoint()).expect("connect");
        mute.send_json(r#"{"id":1,"cmd":"block","n":8,"start":0,"end":40320,"chunk":512}"#)
            .expect("send");
        // Never read. Give the writer time to fill the buffers and
        // trip its deadline, then demand a prompt, leak-free stop.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let summary = server.stop().expect("stop despite the mute reader");
        assert_eq!(
            summary.threads_spawned, summary.threads_joined,
            "mute reader pinned a thread: {summary}"
        );
        drop(mute);
    });
}
