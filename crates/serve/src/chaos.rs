//! An in-process chaos proxy for hostile-network testing.
//!
//! [`ChaosProxy`] sits between a client and a real server, forwarding
//! TCP bytes verbatim — except that each accepted connection draws the
//! next [`Fault`] from a *seeded, finite schedule* and applies it to
//! the server→client direction:
//!
//! | fault                         | what the client experiences        |
//! |-------------------------------|------------------------------------|
//! | [`Fault::Clean`]              | a perfect network                  |
//! | [`Fault::Reset`]              | connection torn down mid-frame     |
//! | [`Fault::Delay`]              | a fixed stall before the response  |
//! | [`Fault::Truncate`]           | response cut short, then EOF       |
//! | [`Fault::Corrupt`]            | one framing byte flipped           |
//! | [`Fault::Trickle`]            | bytes dripping in one at a time    |
//!
//! Two design rules keep the harness deterministic:
//!
//! 1. **Schedules are finite.** Once the queue drains, every later
//!    connection is clean forever. A retrying client whose attempt
//!    budget exceeds the number of faulted connections therefore
//!    *provably* converges, whatever the interleaving.
//! 2. **Corruption targets framing bytes only.** The wire format is
//!    frozen (golden transcripts pin it) and carries no payload
//!    checksum, so a flipped payload byte would be silent. Flipping
//!    the length prefix or kind byte instead guarantees a pinned
//!    [`crate::FrameError`] — loud, typed, and testable.
//!
//! The proxy mirrors the server's own thread-accounting discipline:
//! [`ChaosProxy::stop`] joins every thread it spawned and the returned
//! [`ChaosReport`] proves it (`threads_spawned == threads_joined`).

use crate::server::{Endpoint, Listener, Stream};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One per-connection fault, applied to the server→client byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything untouched.
    Clean,
    /// Forward `after` bytes toward the client, then abort both
    /// directions — the client sees its response die mid-frame.
    Reset {
        /// Server→client bytes forwarded before the teardown.
        after: usize,
    },
    /// Sleep once, before the first server→client byte, then forward
    /// cleanly. Long enough delays trip read deadlines.
    Delay {
        /// The one-time stall, in milliseconds.
        ms: u64,
    },
    /// Forward `after` bytes toward the client, then half-close the
    /// client-facing write side — a clean EOF in the middle of a frame.
    Truncate {
        /// Server→client bytes forwarded before the EOF.
        after: usize,
    },
    /// XOR one byte of the server→client stream, then keep forwarding.
    /// Aim `at` at framing bytes (length prefix offsets 0–3, kind byte
    /// offset 4) so the damage is *detectable* — the payload carries no
    /// checksum.
    Corrupt {
        /// Absolute offset into the server→client byte stream.
        at: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Forward server→client bytes one at a time with a pause between
    /// each — the slow-loris read pattern.
    Trickle {
        /// Pause between bytes, in microseconds.
        delay_us: u64,
    },
}

/// What a [`ChaosProxy`] did over its lifetime, returned by
/// [`ChaosProxy::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Client connections accepted.
    pub conns_accepted: u64,
    /// Connections that drew a non-[`Fault::Clean`] schedule entry.
    pub faults_injected: u64,
    /// Threads the proxy spawned (pumps + accept loop).
    pub threads_spawned: u64,
    /// Threads [`ChaosProxy::stop`] actually joined — must equal
    /// [`ChaosReport::threads_spawned`] or the proxy leaked.
    pub threads_joined: u64,
}

struct ProxyShared {
    upstream: Mutex<Endpoint>,
    schedule: Mutex<VecDeque<Fault>>,
    stop: AtomicBool,
    conns_accepted: AtomicU64,
    faults_injected: AtomicU64,
    threads_spawned: AtomicU64,
    threads_joined: AtomicU64,
    /// Clones of every live stream (both legs of every conn), so
    /// `stop` can shoot down blocked pumps. Never pruned — entries for
    /// finished conns are just dead fds; a test-lifetime proxy carries
    /// at most a few dozen.
    streams: Mutex<Vec<Stream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// The fault-injecting TCP proxy. See the [module docs](self).
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listens on an ephemeral localhost TCP port and proxies every
    /// accepted connection to `upstream`, consuming one `schedule`
    /// entry per connection (then [`Fault::Clean`] forever).
    pub fn spawn(upstream: Endpoint, schedule: &[Fault]) -> io::Result<ChaosProxy> {
        let listener = Listener::bind_tcp("127.0.0.1:0")?;
        let endpoint = listener.endpoint()?;
        let shared = Arc::new(ProxyShared {
            upstream: Mutex::new(upstream),
            schedule: Mutex::new(schedule.iter().copied().collect()),
            stop: AtomicBool::new(false),
            conns_accepted: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            threads_spawned: AtomicU64::new(0),
            threads_joined: AtomicU64::new(0),
            streams: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        shared.threads_spawned.fetch_add(1, Ordering::Relaxed);
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(ChaosProxy {
            shared,
            endpoint,
            accept: Some(accept),
        })
    }

    /// The endpoint clients should connect to (the proxy's own).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Repoints *future* connections at a new upstream — how the
    /// server-restart tests splice in a replacement server without the
    /// client learning a new address. Established connections keep
    /// their original upstream.
    pub fn set_upstream(&self, upstream: Endpoint) {
        *self.shared.upstream.lock().expect("upstream lock") = upstream;
    }

    /// Stops accepting, shoots down every live connection, joins every
    /// thread, and reports. Idempotent teardown: safe even when every
    /// pump already exited.
    pub fn stop(mut self) -> ChaosReport {
        self.shutdown();
        self.report()
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept(); the accept loop sees the flag and
        // drops the wake connection without proxying it.
        let _ = Stream::connect(&self.endpoint);
        if let Some(accept) = self.accept.take() {
            if accept.join().is_ok() {
                self.shared.threads_joined.fetch_add(1, Ordering::Relaxed);
            }
        }
        for stream in self.shared.streams.lock().expect("streams lock").drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let pumps: Vec<_> = self
            .shared
            .pumps
            .lock()
            .expect("pumps lock")
            .drain(..)
            .collect();
        for pump in pumps {
            if pump.join().is_ok() {
                self.shared.threads_joined.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn report(&self) -> ChaosReport {
        ChaosReport {
            conns_accepted: self.shared.conns_accepted.load(Ordering::Relaxed),
            faults_injected: self.shared.faults_injected.load(Ordering::Relaxed),
            threads_spawned: self.shared.threads_spawned.load(Ordering::Relaxed),
            threads_joined: self.shared.threads_joined.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(shared: &Arc<ProxyShared>, listener: &Listener) {
    loop {
        let Ok(client) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let fault = shared
            .schedule
            .lock()
            .expect("schedule lock")
            .pop_front()
            .unwrap_or(Fault::Clean);
        if fault != Fault::Clean {
            shared.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        let upstream = shared.upstream.lock().expect("upstream lock").clone();
        let Ok(server) = Stream::connect(&upstream) else {
            // Upstream is down: the client sees an immediate EOF —
            // exactly what a dead server looks like through a real
            // network — and its next frame read fails loudly.
            let _ = client.shutdown(std::net::Shutdown::Both);
            continue;
        };
        spawn_pumps(shared, client, server, fault);
    }
}

/// Registers both legs for teardown and spawns the two pump threads:
/// client→server always clean, server→client through the fault.
fn spawn_pumps(shared: &Arc<ProxyShared>, client: Stream, server: Stream, fault: Fault) {
    let (Ok(client_reg), Ok(server_reg)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(std::net::Shutdown::Both);
        let _ = server.shutdown(std::net::Shutdown::Both);
        return;
    };
    let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(std::net::Shutdown::Both);
        let _ = server.shutdown(std::net::Shutdown::Both);
        return;
    };
    {
        let mut streams = shared.streams.lock().expect("streams lock");
        streams.push(client_reg);
        streams.push(server_reg);
    }
    let mut pumps = shared.pumps.lock().expect("pumps lock");
    shared.threads_spawned.fetch_add(2, Ordering::Relaxed);
    if let Ok(up) = std::thread::Builder::new()
        .name("chaos-up".into())
        .spawn(move || pump_clean(client_rx, server))
    {
        pumps.push(up);
    } else {
        shared.threads_spawned.fetch_sub(1, Ordering::Relaxed);
    }
    if let Ok(down) = std::thread::Builder::new()
        .name("chaos-down".into())
        .spawn(move || pump_faulted(server_rx, client, fault))
    {
        pumps.push(down);
    } else {
        shared.threads_spawned.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Forwards `from` into `to` verbatim until EOF or error, then
/// half-closes the write side so EOFs propagate end to end.
fn pump_clean(mut from: Stream, mut to: Stream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
    let _ = from.shutdown(std::net::Shutdown::Read);
}

/// The server→client pump: applies one [`Fault`] to the byte stream.
fn pump_faulted(mut from: Stream, mut to: Stream, fault: Fault) {
    let mut offset = 0usize; // absolute position in the server→client stream
    let mut delayed = false;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = buf[..n].to_vec();
        match fault {
            Fault::Clean => {}
            Fault::Delay { ms } => {
                if !delayed {
                    delayed = true;
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
            Fault::Reset { after } => {
                if offset + n > after {
                    let keep = after.saturating_sub(offset);
                    let _ = to.write_all(&chunk[..keep]).and_then(|()| to.flush());
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    let _ = from.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
            Fault::Truncate { after } => {
                if offset + n > after {
                    let keep = after.saturating_sub(offset);
                    let _ = to.write_all(&chunk[..keep]).and_then(|()| to.flush());
                    let _ = to.shutdown(std::net::Shutdown::Write);
                    let _ = from.shutdown(std::net::Shutdown::Read);
                    return;
                }
            }
            Fault::Corrupt { at, mask } => {
                if (offset..offset + n).contains(&at) {
                    chunk[at - offset] ^= mask;
                }
            }
            Fault::Trickle { delay_us } => {
                let mut failed = false;
                for &byte in &chunk {
                    std::thread::sleep(Duration::from_micros(delay_us));
                    if to.write_all(&[byte]).and_then(|()| to.flush()).is_err() {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    break;
                }
                offset += n;
                continue;
            }
        }
        if to.write_all(&chunk).and_then(|()| to.flush()).is_err() {
            break;
        }
        offset += n;
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
    let _ = from.shutdown(std::net::Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection echo upstream: reads lines, echoes them back.
    fn echo_upstream() -> (Endpoint, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr"));
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if line.trim_end() == "quit" {
                                return; // stop the whole upstream
                            }
                            if writer.write_all(line.as_bytes()).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (endpoint, handle)
    }

    fn roundtrip(endpoint: &Endpoint, line: &str) -> io::Result<String> {
        let mut stream = match Stream::connect(endpoint)? {
            Stream::Tcp(s) => s,
            #[cfg(unix)]
            Stream::Unix(_) => unreachable!("proxy is TCP-only"),
        };
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        Ok(reply)
    }

    #[test]
    fn clean_schedule_forwards_verbatim_and_joins_all_threads() {
        let (upstream, echo) = echo_upstream();
        let proxy = ChaosProxy::spawn(upstream.clone(), &[]).expect("proxy");
        for msg in ["hello", "world"] {
            assert_eq!(
                roundtrip(proxy.endpoint(), msg).expect("roundtrip"),
                format!("{msg}\n")
            );
        }
        let _ = roundtrip(proxy.endpoint(), "quit");
        let report = proxy.stop();
        assert_eq!(report.conns_accepted, 3);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(
            report.threads_spawned, report.threads_joined,
            "proxy leaked threads: {report:?}"
        );
        echo.join().expect("echo upstream");
    }

    #[test]
    fn faults_fire_in_schedule_order_then_clean_forever() {
        let (upstream, echo) = echo_upstream();
        let proxy = ChaosProxy::spawn(
            upstream.clone(),
            &[
                Fault::Truncate { after: 2 },
                Fault::Corrupt { at: 0, mask: 0xFF },
            ],
        )
        .expect("proxy");
        // Conn 1: truncated after 2 bytes — reply is cut short.
        assert_eq!(roundtrip(proxy.endpoint(), "abcdef").expect("read"), "ab");
        // Conn 2: first reply byte XORed with 0xFF (raw read — the
        // flipped byte is deliberately not valid UTF-8).
        let mut stream = match Stream::connect(proxy.endpoint()).expect("connect") {
            Stream::Tcp(s) => s,
            #[cfg(unix)]
            Stream::Unix(_) => unreachable!("proxy is TCP-only"),
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(b"abc\n").expect("send");
        let mut first = [0u8; 1];
        stream.read_exact(&mut first).expect("read corrupted byte");
        assert_eq!(first[0], b'a' ^ 0xFF);
        drop(stream);
        // Conn 3: schedule drained — clean forever.
        assert_eq!(roundtrip(proxy.endpoint(), "abc").expect("read"), "abc\n");
        let _ = roundtrip(proxy.endpoint(), "quit");
        let report = proxy.stop();
        assert_eq!(report.faults_injected, 2);
        assert_eq!(report.threads_spawned, report.threads_joined);
        echo.join().expect("echo upstream");
    }

    #[test]
    fn dead_upstream_is_immediate_eof_not_a_hang() {
        // Bind-then-drop guarantees a dead address.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            Endpoint::Tcp(l.local_addr().expect("addr"))
        };
        let proxy = ChaosProxy::spawn(dead, &[]).expect("proxy");
        // The proxy closes without reading our bytes, so the teardown
        // may surface as a clean EOF or as ECONNRESET — either is an
        // immediate loud failure; a hang is the only wrong answer.
        match roundtrip(proxy.endpoint(), "anyone home") {
            Ok(reply) => assert_eq!(reply, "", "dead upstream must not produce data"),
            Err(e) => assert_ne!(
                e.kind(),
                io::ErrorKind::WouldBlock,
                "must fail fast, not time out: {e}"
            ),
        }
        let report = proxy.stop();
        assert_eq!(report.conns_accepted, 1);
        assert_eq!(report.threads_spawned, report.threads_joined);
    }
}
