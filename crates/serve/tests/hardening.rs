//! Server-side hostile-network hardening: the accept gate, idle
//! reaping, slow-loris defense, request deadlines, graceful drain, and
//! Unix-socket hygiene. Every failure mode must be a *pinned loud
//! error*, never a hang — so every test runs under a hard watchdog.

mod common;

use common::watchdog;
use hwperm_factoradic::BlockDecoder;
use hwperm_serve::{
    envelope, error_result, spawn, Client, Endpoint, Listener, Message, ServeOptions, DEADLINE_MSG,
    KIND_JSON,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn tcp_server(options: ServeOptions) -> hwperm_serve::ServerHandle {
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    spawn(listener, options).expect("spawn")
}

fn raw_connect(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("tcp test endpoints only");
    };
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

#[test]
fn accept_gate_sheds_with_pinned_busy_envelope() {
    watchdog(30, "accept-gate", || {
        let server = tcp_server(ServeOptions {
            max_conns: 1,
            fixed_micros: Some(0),
            ..ServeOptions::default()
        });
        // Occupy the single slot — and prove it is *admitted* (a
        // served request), not just queued, before testing the gate.
        let mut admitted = Client::connect(server.endpoint()).expect("connect 1");
        assert!(admitted
            .request(r#"{"id":1,"cmd":"unrank","n":4,"index":0}"#)
            .expect("request")
            .is_ok());

        // The second connection is shed: one pinned busy envelope,
        // then EOF. No request needs to be sent — shedding happens at
        // accept time.
        let mut shed = Client::connect(server.endpoint()).expect("connect 2");
        let Some(Message::Envelope(env)) = shed.read_message().expect("read busy") else {
            panic!("expected the busy envelope");
        };
        let expected = envelope(
            "busy",
            false,
            &error_result("server busy: connection limit of 1 reached, retry later"),
            0,
            0,
            0,
        );
        assert_eq!(
            env,
            expected,
            "busy envelope diverged\n got: {}\nwant: {}",
            String::from_utf8_lossy(&env),
            String::from_utf8_lossy(&expected),
        );
        assert!(
            shed.read_message().expect("EOF after busy").is_none(),
            "shed connection must be closed after the busy envelope"
        );

        // Free the slot; the gate reopens (poll briefly — the server
        // notices the close asynchronously).
        drop(admitted);
        let mut reopened = None;
        for _ in 0..200 {
            let mut candidate = Client::connect(server.endpoint()).expect("reconnect");
            match candidate.read_message_timeout_probe() {
                Ok(()) => {
                    reopened = Some(candidate);
                    break;
                }
                Err(()) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let mut client = reopened.expect("gate must reopen after the slot frees");
        assert!(client
            .request(r#"{"id":2,"cmd":"rank","perm":[1,0]}"#)
            .expect("request after reopen")
            .is_ok());
        drop(client);

        let summary = server.stop().expect("stop");
        assert!(
            summary.conns_rejected >= 1,
            "the gate must have shed at least the probed connection: {summary}"
        );
        assert_eq!(
            summary.threads_spawned, summary.threads_joined,
            "server leaked threads: {summary}"
        );
    });
}

/// A tiny admission probe used by the gate test: sends a cheap request
/// and reports whether the connection was admitted (envelope for *our*
/// id) or shed (busy envelope / EOF).
trait AdmissionProbe {
    fn read_message_timeout_probe(&mut self) -> Result<(), ()>;
}

impl AdmissionProbe for Client {
    fn read_message_timeout_probe(&mut self) -> Result<(), ()> {
        self.send_json(r#"{"id":99,"cmd":"stats"}"#)
            .map_err(|_| ())?;
        match self.read_message() {
            Ok(Some(Message::Envelope(env))) => {
                let text = String::from_utf8_lossy(&env);
                if text.contains("\"command\":\"busy\"") {
                    Err(())
                } else {
                    Ok(())
                }
            }
            _ => Err(()),
        }
    }
}

#[test]
fn idle_timeout_reaps_silent_connection_with_pinned_envelope() {
    watchdog(30, "idle-reap", || {
        let server = tcp_server(ServeOptions {
            idle_timeout_ms: Some(60),
            fixed_micros: Some(0),
            ..ServeOptions::default()
        });
        // Connect and say nothing. The read deadline fires and the
        // server answers the pinned idle-timeout envelope, then closes.
        let mut silent = Client::connect(server.endpoint()).expect("connect");
        let Some(Message::Envelope(env)) = silent.read_message().expect("read timeout env") else {
            panic!("expected the idle-timeout envelope");
        };
        let expected = envelope(
            "error",
            false,
            &error_result("idle timeout: no complete frame arrived before the deadline"),
            0,
            0,
            0,
        );
        assert_eq!(
            env,
            expected,
            "idle-timeout envelope diverged: {}",
            String::from_utf8_lossy(&env)
        );
        assert!(silent.read_message().expect("EOF").is_none());
        let summary = server.stop().expect("stop");
        assert_eq!(summary.threads_spawned, summary.threads_joined);
    });
}

#[test]
fn slow_loris_trickle_is_reaped_not_serviced_forever() {
    watchdog(30, "slow-loris", || {
        let server = tcp_server(ServeOptions {
            idle_timeout_ms: Some(60),
            fixed_micros: Some(0),
            ..ServeOptions::default()
        });
        // Drip a frame that never completes: declare 1000 bytes, then
        // one byte every 10 ms. Each byte lands within the socket read
        // deadline, so only the idle sweep (keyed on *completed*
        // frames) can catch this.
        let mut loris = raw_connect(server.endpoint());
        loris
            .write_all(&1000u32.to_be_bytes())
            .expect("length prefix");
        loris.write_all(&[KIND_JSON]).expect("kind byte");
        let mut reply = Vec::new();
        loop {
            if loris.write_all(b" ").and_then(|()| loris.flush()).is_err() {
                break; // reaped: the server closed on us
            }
            std::thread::sleep(Duration::from_millis(10));
            // Poll the read side without blocking the drip.
            loris
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("poll timeout");
            let mut buf = [0u8; 4096];
            match std::io::Read::read(&mut loris, &mut buf) {
                Ok(0) => break, // clean close after the error envelope
                Ok(n) => reply.extend_from_slice(&buf[..n]),
                Err(_) => {} // nothing yet
            }
        }
        // Drain whatever is left of the reply.
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("drain timeout");
        let mut buf = [0u8; 4096];
        while let Ok(n) = std::io::Read::read(&mut loris, &mut buf) {
            if n == 0 {
                break;
            }
            reply.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.contains("truncated frame: stream ended"),
            "the reaped trickler must get the loud truncation envelope, got: {text:?}"
        );
        assert!(text.contains("\"status\":\"error\""));
        let summary = server.stop().expect("stop");
        assert_eq!(summary.threads_spawned, summary.threads_joined);
    });
}

#[test]
fn request_deadline_cancels_long_block_with_pinned_error() {
    watchdog(60, "request-deadline", || {
        let server = tcp_server(ServeOptions {
            workers: 2,
            request_deadline_ms: Some(1),
            fixed_micros: Some(0),
            ..ServeOptions::default()
        });
        let mut client = Client::connect(server.endpoint()).expect("connect");
        // A block big enough that its shards *must* hit a between-chunk
        // checkpoint after the 1 ms deadline.
        let req = r#"{"id":7,"cmd":"block","n":12,"start":0,"end":1000000,"chunk":4096}"#;
        let response = client.request(req).expect("request");
        let expected = envelope(
            "block",
            false,
            &error_result(DEADLINE_MSG),
            7,
            0,
            (req.len() + 5) as u64,
        );
        assert_eq!(
            response.envelope,
            expected,
            "deadline envelope diverged: {}",
            String::from_utf8_lossy(&response.envelope)
        );
        drop(client);
        let summary = server.stop().expect("stop");
        assert!(
            summary.requests_timed_out >= 1,
            "the winning shard must count the timeout exactly once: {summary}"
        );
        assert_eq!(summary.threads_spawned, summary.threads_joined);
    });
}

#[test]
fn graceful_drain_flushes_inflight_block_responses() {
    watchdog(60, "graceful-drain", || {
        let server = tcp_server(ServeOptions {
            workers: 2,
            fixed_micros: Some(0),
            ..ServeOptions::default()
        });
        let endpoint = server.endpoint().clone();
        // Pipeline a sizeable block, then immediately shut the server
        // down from another connection. The in-flight response must
        // still arrive complete — drain flushes, never drops.
        let reader = std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            client
                .request(r#"{"id":1,"cmd":"block","n":8,"start":0,"end":40320,"chunk":512}"#)
                .expect("in-flight response must be flushed during drain")
        });
        // Give the request a moment to be in flight, then drain.
        std::thread::sleep(Duration::from_millis(5));
        let summary = server.stop().expect("stop");
        let response = reader.join().expect("reader thread");
        assert!(response.is_ok(), "drained response must be the real one");
        // Chunks may interleave across shards; compare as words in
        // base order.
        let mut by_base = response.chunks.clone();
        by_base.sort_by_key(|c| c.base);
        let words: Vec<u64> = by_base
            .iter()
            .flat_map(|c| c.words.iter().copied())
            .collect();
        let mut bytes = Vec::new();
        BlockDecoder::new(8).decode_le_bytes_into(0..40320, &mut bytes);
        let expected: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("word")))
            .collect();
        assert_eq!(words, expected, "drained block words diverge");
        assert_eq!(summary.threads_spawned, summary.threads_joined);
    });
}

#[cfg(unix)]
mod unix_sockets {
    use super::*;
    use std::path::PathBuf;

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hwperm-hardening-{tag}-{}.sock",
            std::process::id()
        ))
    }

    #[test]
    fn socket_file_removed_on_graceful_shutdown() {
        watchdog(30, "unix-cleanup", || {
            let path = socket_path("cleanup");
            let _ = std::fs::remove_file(&path);
            let listener = Listener::bind_unix(&path).expect("bind");
            let server = spawn(listener, ServeOptions::default()).expect("spawn");
            assert!(path.exists(), "socket file exists while serving");
            server.stop().expect("stop");
            assert!(
                !path.exists(),
                "graceful shutdown must unlink the socket file"
            );
        });
    }

    #[test]
    fn binding_over_live_server_fails_loudly() {
        watchdog(30, "unix-live-bind", || {
            let path = socket_path("live");
            let _ = std::fs::remove_file(&path);
            let listener = Listener::bind_unix(&path).expect("bind");
            let server = spawn(listener, ServeOptions::default()).expect("spawn");
            let err = match Listener::bind_unix(&path) {
                Ok(_) => panic!("second bind over a live server must fail"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
            assert!(
                err.to_string().contains("refusing to bind")
                    && err.to_string().contains("live server"),
                "the error must say *why*: {err}"
            );
            // The probe connection counts as one served connection but
            // must not have disturbed the server.
            let mut client = Client::connect(server.endpoint()).expect("connect");
            assert!(client
                .request(r#"{"id":1,"cmd":"unrank","n":3,"index":5}"#)
                .expect("request")
                .is_ok());
            drop(client);
            server.stop().expect("stop");
            assert!(!path.exists());
        });
    }

    #[test]
    fn binding_over_stale_socket_succeeds() {
        watchdog(30, "unix-stale-bind", || {
            let path = socket_path("stale");
            let _ = std::fs::remove_file(&path);
            // Fake a crash: bind raw, then drop the listener without
            // unlinking — the file stays behind, answering nobody.
            let stale = std::os::unix::net::UnixListener::bind(&path).expect("raw bind");
            drop(stale);
            assert!(path.exists(), "stale socket file left behind");
            let listener = Listener::bind_unix(&path).expect("bind over stale must succeed");
            let server = spawn(listener, ServeOptions::default()).expect("spawn");
            let mut client = Client::connect(server.endpoint()).expect("connect");
            assert!(client
                .request(r#"{"id":1,"cmd":"rank","perm":[2,0,1]}"#)
                .expect("request")
                .is_ok());
            drop(client);
            server.stop().expect("stop");
            assert!(!path.exists());
        });
    }
}
