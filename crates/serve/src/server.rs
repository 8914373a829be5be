//! The server: listeners, the sharded worker pool, per-connection
//! reader/writer threads, and the request handlers.
//!
//! ## Threading model
//!
//! One *accept* thread (the caller of [`serve`]) plus:
//!
//! - a **worker pool** of [`ServeOptions::workers`] threads draining a
//!   shared job queue — every parsed request becomes one job, and a
//!   `block` request fans further shard jobs into the same pool;
//! - per connection, one **reader** thread (frame decode → job
//!   submission) and one **writer** thread draining a *bounded*
//!   channel of pre-encoded frames. The bound is the backpressure: a
//!   slow client blocks the worker producing its chunks, not the whole
//!   server, and never more than [`WRITE_QUEUE_DEPTH`] frames of its
//!   output are buffered.
//!
//! ## Block sharding
//!
//! A `block` request over `[start, end)` is split with
//! [`hwperm_verify::shard_ranges`] — the same contiguous balanced
//! split as `hwperm_core::ParallelPlan` — into at most
//! [`ServeOptions::workers`] sub-ranges. Each shard pays one true
//! unrank and then walks lexicographic successors
//! ([`BlockDecoder`]), emitting binary chunk frames as it goes. The
//! parsing worker runs shard 0 *inline* (so a one-worker pool cannot
//! deadlock waiting for itself) and the last shard to finish emits the
//! envelope. Chunk frames of one request may therefore interleave
//! arbitrarily with other traffic; their `base` fields are the
//! reassembly key.
//!
//! ## Shutdown
//!
//! A `shutdown` request answers its envelope, then: sets the stop
//! flag, half-closes (read side) every registered connection so
//! readers stop minting jobs, and self-connects to wake the accept
//! loop. [`serve`] then drains the pool, joins the connection
//! threads (writers flush their queues first), and returns the
//! aggregate [`ServeSummary`].

use crate::client::Client;
use crate::frame::{encode_frame, read_frame, KIND_BLOCK, KIND_JSON};
use crate::protocol::{
    encode_chunk, envelope, error_result, parse_request, Request, CHUNK_FLAG_LAST, DEFAULT_CHUNK,
};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_core::{FaultPolicy, GuardedPermSource, RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::{rank_u64, BlockDecoder, Unranker};
use hwperm_logic::{SimProgram, W512};
use hwperm_perm::Permutation;
use hwperm_store::OpenTable;
use hwperm_verify::{
    exhaustive_check_parallel_with, expected_permutation_words, shard_ranges, WideExpectation,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Bound on the per-connection writer queue, in frames. With the
/// default chunk size this caps buffered output near 2 MiB per
/// connection; a worker producing faster than the client reads blocks
/// here instead of growing the heap.
pub const WRITE_QUEUE_DEPTH: usize = 32;

/// Per-draw spot-check cadence of the `random-stream` guard (every
/// k-th draw is ranked back; see `hwperm_core::GuardedPermSource`).
pub const STREAM_SPOT_CHECK_EVERY: u64 = 64;

/// Drain budget at shutdown when no idle timeout is configured: how
/// long a straggling writer may keep flushing to a slow client before
/// its socket write is deadlined.
pub const DEFAULT_DRAIN_MS: u64 = 5_000;

/// The pinned error message a request past its execution deadline
/// answers with (see [`ServeOptions::request_deadline_ms`]).
pub const DEADLINE_MSG: &str = "request deadline exceeded";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker-pool threads executing requests and block shards.
    pub workers: usize,
    /// Chunk size (packed words per binary frame) when a request omits
    /// `"chunk"`.
    pub default_chunk: usize,
    /// When set, every envelope reports this latency instead of the
    /// measured one. Golden-transcript tests pin `Some(0)` so response
    /// bytes are reproducible (the `stats` `uptime_ms` field is pinned
    /// to the same value); production leaves it `None`.
    pub fixed_micros: Option<u64>,
    /// When set, `verify` expectation tables and `block` chunk words
    /// are streamed from the persisted oracle store under this
    /// directory whenever the table is warm (built and complete),
    /// making those paths I/O-bound instead of recompute-bound. Cold
    /// tables fall back to computing; *broken* tables fail the request
    /// loudly. The wire bytes are identical either way.
    pub store_dir: Option<PathBuf>,
    /// Accept gate: connections beyond this many concurrent ones are
    /// *shed* — they receive one pinned `busy` error envelope and are
    /// closed, instead of queueing unboundedly. `0` disables the gate.
    pub max_conns: usize,
    /// Per-connection idle deadline, in milliseconds. A connection
    /// that completes no frame for this long — silent, half-open, or
    /// trickling bytes without ever finishing a frame — is reaped: the
    /// socket read times out (silent peers) and a background sweep
    /// half-closes connections whose frame has stalled (slow-loris
    /// trickles), so the reader answers a pinned truncation/timeout
    /// error and exits. Socket writes are deadlined with the same
    /// budget, so a client that stops reading cannot pin a writer
    /// forever. `None` disables both (the pre-hardening contract).
    pub idle_timeout_ms: Option<u64>,
    /// Per-request execution deadline, in milliseconds, measured from
    /// the moment the request is read off the wire. Long-running
    /// streaming requests (`block`, `random-stream`) checkpoint a
    /// cancel flag between chunks and answer the pinned
    /// [`DEADLINE_MSG`] error once past the deadline; `verify` checks
    /// before starting its sweep. Single-shot requests (`unrank`,
    /// `rank`, `stats`, `shutdown`) have no checkpoint and always
    /// complete. `None` disables deadlines.
    pub request_deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            default_chunk: DEFAULT_CHUNK,
            fixed_micros: None,
            store_dir: None,
            max_conns: 0,
            idle_timeout_ms: None,
            request_deadline_ms: None,
        }
    }
}

/// Where a server is reachable — what a [`Client`] connects to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

/// A bound-but-not-yet-serving listener. Binding is separate from
/// [`serve`] so the caller can learn the actual endpoint (ephemeral
/// TCP ports!) before the accept loop starts.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus its path (needed for the shutdown
    /// self-connect and the unlink at exit).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a TCP listener; `addr` may use port 0 for an ephemeral
    /// port (read it back via [`Listener::endpoint`]).
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain listener at `path`.
    ///
    /// A leftover socket file is handled by *probing* it: if something
    /// answers, a live server owns the path and binding fails loudly
    /// (instead of the bare `AddrInUse` that cannot distinguish live
    /// from stale); if nothing answers, the file is a stale remnant of
    /// a crash and is removed before binding. Graceful shutdown
    /// unlinks the file, so the stale path only arises after a kill.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>) -> io::Result<Listener> {
        let path = path.into();
        if path.exists() {
            match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "refusing to bind {}: a live server already answers on this socket",
                            path.display()
                        ),
                    ))
                }
                Err(_) => std::fs::remove_file(&path)?,
            }
        }
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// The endpoint clients should connect to.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?)),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

/// A connected socket of either family.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(TcpStream::connect(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    pub(crate) fn shutdown(&self, how: std::net::Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        }
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Command slots of the `stats` per-command counters, in render order.
/// Slot 7 ("error") also absorbs unparseable commands.
const COMMANDS: [&str; 8] = [
    "unrank",
    "rank",
    "block",
    "random-stream",
    "verify",
    "stats",
    "shutdown",
    "error",
];

fn command_slot(cmd: &str) -> usize {
    COMMANDS.iter().position(|c| *c == cmd).unwrap_or(7)
}

/// Server-wide counters. All relaxed: the values are monotone tallies,
/// never used to synchronize.
#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    chunks: AtomicU64,
    micros: AtomicU64,
    conns_rejected: AtomicU64,
    requests_timed_out: AtomicU64,
    retries_observed: AtomicU64,
    threads_spawned: AtomicU64,
    threads_joined: AtomicU64,
    commands: [AtomicU64; 8],
}

impl Stats {
    /// The `stats` result object. `bytes_out` counts frames at
    /// *enqueue* time (when the worker hands them to the writer), so
    /// the snapshot is deterministic on a single-worker server — it
    /// does not race the writer thread's progress. `uptime_ms` is the
    /// caller-supplied wall clock (pinned by `fixed_micros` in the
    /// golden transcripts).
    fn render(&self, uptime_ms: u64) -> String {
        let commands = COMMANDS
            .iter()
            .zip(&self.commands)
            .map(|(name, count)| format!("\"{name}\":{}", count.load(Ordering::Relaxed)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"type\":\"stats\",\"connections\":{},\"requests\":{},\"errors\":{},\
             \"bytes_in\":{},\"bytes_out\":{},\"chunks\":{},\"micros\":{},\
             \"uptime_ms\":{uptime_ms},\"conns_rejected\":{},\"requests_timed_out\":{},\
             \"retries_observed\":{},\"commands\":{{{commands}}}}}",
            self.connections.load(Ordering::Relaxed),
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
            self.chunks.load(Ordering::Relaxed),
            self.micros.load(Ordering::Relaxed),
            self.conns_rejected.load(Ordering::Relaxed),
            self.requests_timed_out.load(Ordering::Relaxed),
            self.retries_observed.load(Ordering::Relaxed),
        )
    }
}

/// What [`serve`] returns after a graceful shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted (including the shutdown self-connect).
    pub connections: u64,
    /// Frames received that got a response.
    pub requests: u64,
    /// Error envelopes sent.
    pub errors: u64,
    /// Bytes received (frames, including prefixes).
    pub bytes_in: u64,
    /// Bytes enqueued for sending (frames, including prefixes).
    pub bytes_out: u64,
    /// Connections shed by the [`ServeOptions::max_conns`] gate.
    pub conns_rejected: u64,
    /// Requests that answered the pinned [`DEADLINE_MSG`] error.
    pub requests_timed_out: u64,
    /// Threads this server spawned (workers, readers, writers, the
    /// idle sweep). Leak accounting: equals `threads_joined` after a
    /// graceful shutdown, whatever the clients did.
    pub threads_spawned: u64,
    /// Threads joined before [`serve`] returned.
    pub threads_joined: u64,
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served {} request(s) ({} error(s)) over {} connection(s), {} B in / {} B out, \
             {} rejected, {} timed out, {}/{} thread(s) joined",
            self.requests,
            self.errors,
            self.connections,
            self.bytes_in,
            self.bytes_out,
            self.conns_rejected,
            self.requests_timed_out,
            self.threads_joined,
            self.threads_spawned,
        )
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The worker pool's shared half: a queue plus the stop latch. Workers
/// drain the queue fully before honoring stop, so jobs enqueued during
/// shutdown (e.g. trailing block shards) still run.
#[derive(Default)]
struct PoolShared {
    queue: Mutex<PoolQueue>,
    cond: Condvar,
}

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

fn spawn_pool_workers(pool: &Arc<PoolShared>, workers: usize) -> Vec<JoinHandle<()>> {
    (0..workers)
        .map(|_| {
            let pool = Arc::clone(pool);
            thread::spawn(move || loop {
                let job = {
                    let mut q = pool.queue.lock().expect("pool lock");
                    loop {
                        if let Some(job) = q.jobs.pop_front() {
                            break job;
                        }
                        if q.stop {
                            return;
                        }
                        q = pool.cond.wait(q).expect("pool lock");
                    }
                };
                job();
            })
        })
        .collect()
}

fn pool_submit(pool: &Arc<PoolShared>, job: Job) {
    pool.queue.lock().expect("pool lock").jobs.push_back(job);
    pool.cond.notify_one();
}

fn pool_join(pool: &Arc<PoolShared>, workers: Vec<JoinHandle<()>>) {
    pool.queue.lock().expect("pool lock").stop = true;
    pool.cond.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
}

/// Everything the `verify` handler needs for one `n`, built once and
/// cached: the compiled simulation tape (shared across worker threads
/// by `Arc`, exactly like the CLI's sharded sweep) and the
/// pre-transposed expectation table. The cache runs the fastest
/// configuration — the opcode-fused tape at 512 lanes per pass — which
/// is wire-transparent: verdicts and witnesses are byte-identical to
/// the canonical 64-lane sweep at every width.
struct VerifyEntry {
    program: Arc<SimProgram>,
    table: WideExpectation<W512>,
    total: u64,
}

/// One live connection in the registry: a socket clone the sweep and
/// shutdown paths can half-close, plus its activity clock.
struct ConnEntry {
    stream: Stream,
    /// Milliseconds since server start at the last *completed* frame
    /// (not the last byte — a slow-loris trickle that never finishes a
    /// frame does not count as progress).
    last_activity_ms: Arc<AtomicU64>,
}

/// State shared by every thread of one server.
struct Shared {
    options: ServeOptions,
    stats: Stats,
    stop: AtomicBool,
    /// Milliseconds since start when the stop flag was raised (drain
    /// deadline anchor; meaningless until `stop` is set).
    stopped_at_ms: AtomicU64,
    started: Instant,
    endpoint: Endpoint,
    /// Live connections by id, half-closed at shutdown or when the
    /// idle sweep reaps them.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    /// Connections currently being served — the accept gate's count.
    /// Only the accept thread increments, so the gate cannot over-admit.
    live_conns: AtomicUsize,
    pool: Arc<PoolShared>,
    verify_cache: Mutex<HashMap<usize, Arc<VerifyEntry>>>,
    store_cache: Mutex<HashMap<usize, Arc<OpenTable>>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn uptime_ms(&self) -> u64 {
        self.options.fixed_micros.unwrap_or_else(|| self.now_ms())
    }

    /// The warm store table for `n`, if the server has a store dir and
    /// the table is built. `None` is the normal cold path (no store
    /// configured, `n` beyond what stores hold, or table not built);
    /// `Err` means the store is *broken* and the request must fail.
    fn open_store(&self, n: usize) -> Result<Option<Arc<OpenTable>>, hwperm_store::StoreError> {
        let Some(dir) = &self.options.store_dir else {
            return Ok(None);
        };
        if !(1..=hwperm_store::MAX_STORE_N).contains(&n) {
            return Ok(None);
        }
        let mut cache = self.store_cache.lock().expect("store cache lock");
        if let Some(table) = cache.get(&n) {
            return Ok(Some(Arc::clone(table)));
        }
        match OpenTable::open(dir, n)? {
            Some(table) => {
                let table = Arc::new(table);
                cache.insert(n, Arc::clone(&table));
                Ok(Some(table))
            }
            None => Ok(None),
        }
    }

    fn verify_entry(&self, n: usize) -> Result<Arc<VerifyEntry>, hwperm_store::StoreError> {
        {
            let cache = self.verify_cache.lock().expect("verify cache lock");
            if let Some(entry) = cache.get(&n) {
                return Ok(Arc::clone(entry));
            }
        }
        // Expectation words come from the store when warm — cold-start
        // cost becomes a sequential read — and are computed otherwise;
        // the words are byte-identical either way, so the cached entry
        // (and every verdict) is too. Built outside the cache lock so
        // a slow build doesn't serialize unrelated verifies.
        let expected = match self.open_store(n)? {
            Some(table) => table.load_words()?,
            None => expected_permutation_words(n),
        };
        let netlist = converter_netlist(n, ConverterOptions::default());
        let in_bits = netlist.input_port("index").expect("index port").nets.len();
        let out_bits = netlist.output_port("perm").expect("perm port").nets.len();
        let entry = Arc::new(VerifyEntry {
            table: WideExpectation::<W512>::new(in_bits, out_bits, &expected),
            total: expected.len() as u64,
            program: SimProgram::compile_fused_shared(netlist),
        });
        let mut cache = self.verify_cache.lock().expect("verify cache lock");
        Ok(Arc::clone(cache.entry(n).or_insert(entry)))
    }

    /// The drain / idle budget in effect: the configured idle timeout,
    /// or [`DEFAULT_DRAIN_MS`] where only the shutdown path needs one.
    fn drain_budget_ms(&self) -> u64 {
        self.options.idle_timeout_ms.unwrap_or(DEFAULT_DRAIN_MS)
    }

    fn trigger_stop(self: &Arc<Self>) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stopped_at_ms.store(self.now_ms(), Ordering::SeqCst);
        // Half-close every reader so no new requests are minted; the
        // write sides stay open for the responses still draining — but
        // deadlined, so a client that stopped reading cannot pin a
        // straggling writer beyond the drain budget.
        let drain = Duration::from_millis(self.drain_budget_ms().max(1));
        for conn in self.conns.lock().expect("conns lock").values() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Read);
            let _ = conn.stream.set_write_timeout(Some(drain));
        }
        // Wake the accept loop so `serve` can move on to the joins.
        let _ = Stream::connect(&self.endpoint);
    }

    /// One pass of the idle sweep. The per-call socket read timeout
    /// already catches a *blocked* reader at one idle budget (pinned
    /// timeout envelope); the sweep exists for the one case that
    /// timeout cannot see — a trickler whose bytes keep every `read`
    /// call short of its deadline while the frame never completes. So
    /// the sweep fires only from **twice** the budget (no completed
    /// frame for 2×idle), deliberately past the socket timeout, so the
    /// two mechanisms never race on the same connection: a half-closed
    /// read mid-frame yields the pinned truncation envelope. From
    /// 4×idle (or past the drain deadline once stopping) the
    /// connection is force-closed outright, which also unblocks a
    /// writer the write timeout somehow missed.
    fn sweep_idle(&self) {
        let Some(idle) = self.options.idle_timeout_ms else {
            return;
        };
        let now = self.now_ms();
        let stopping = self.stop.load(Ordering::SeqCst);
        let drain_deadline = self.stopped_at_ms.load(Ordering::SeqCst) + self.drain_budget_ms();
        for conn in self.conns.lock().expect("conns lock").values() {
            let last = conn.last_activity_ms.load(Ordering::Relaxed);
            let stale = now.saturating_sub(last);
            if stale > 4 * idle || (stopping && now > drain_deadline) {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            } else if stale > 2 * idle {
                let _ = conn.stream.shutdown(std::net::Shutdown::Read);
            }
        }
    }
}

/// Per-request context: where responses go, what the envelope's
/// metrics trailer reports, and the request's execution deadline.
struct ReqCtx {
    sender: SyncSender<Vec<u8>>,
    shared: Arc<Shared>,
    start: Instant,
    /// Execution deadline ([`ServeOptions::request_deadline_ms`] past
    /// `start`); streaming handlers checkpoint it between chunks.
    deadline: Option<Instant>,
    bytes_in: u64,
}

impl ReqCtx {
    fn new(sender: SyncSender<Vec<u8>>, shared: Arc<Shared>, bytes_in: u64) -> ReqCtx {
        let start = Instant::now();
        let deadline = shared
            .options
            .request_deadline_ms
            .map(|ms| start + Duration::from_millis(ms));
        ReqCtx {
            sender,
            shared,
            start,
            deadline,
            bytes_in,
        }
    }

    /// Whether this request blew its execution deadline. Checked
    /// between chunks, never mid-computation.
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Answers the pinned deadline error and counts it.
    fn respond_deadline(&self, command: &str, id: u64) {
        self.shared
            .stats
            .requests_timed_out
            .fetch_add(1, Ordering::Relaxed);
        self.respond(command, false, &error_result(DEADLINE_MSG), id);
    }

    fn micros(&self) -> u64 {
        self.shared
            .options
            .fixed_micros
            .unwrap_or_else(|| self.start.elapsed().as_micros() as u64)
    }

    /// Builds and enqueues the envelope; counts latency, errors and
    /// outbound bytes. Send failures mean the connection died — the
    /// work is simply dropped.
    fn respond(&self, command: &str, ok: bool, results: &str, id: u64) {
        let micros = self.micros();
        let stats = &self.shared.stats;
        stats.micros.fetch_add(micros, Ordering::Relaxed);
        if !ok {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        let wire = encode_frame(
            KIND_JSON,
            &envelope(command, ok, results, id, micros, self.bytes_in),
        );
        stats
            .bytes_out
            .fetch_add(wire.len() as u64, Ordering::Relaxed);
        let _ = self.sender.send(wire);
    }

    fn send_chunk(&self, payload: &[u8]) {
        let wire = encode_frame(KIND_BLOCK, payload);
        let stats = &self.shared.stats;
        stats
            .bytes_out
            .fetch_add(wire.len() as u64, Ordering::Relaxed);
        stats.chunks.fetch_add(1, Ordering::Relaxed);
        let _ = self.sender.send(wire);
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

/// One `block` request in flight: the context every shard shares plus
/// the countdown that decides who emits the envelope.
struct BlockState {
    ctx: ReqCtx,
    id: u64,
    n: usize,
    start: u64,
    end: u64,
    chunk: usize,
    chunks_total: u64,
    seq: AtomicU64,
    remaining: AtomicUsize,
    /// Set once any shard fails or blows the deadline: the other
    /// shards checkpoint it between chunks and stop early.
    cancelled: AtomicBool,
    /// Warm store table to stream chunk words from; `None` decodes.
    /// Either way the chunk bytes on the wire are identical.
    table: Option<Arc<OpenTable>>,
    /// First failure, reported verbatim by the closing envelope.
    failed: Mutex<Option<String>>,
}

impl BlockState {
    /// Records the first failure message (later ones lose the race and
    /// are dropped) and cancels the remaining shards. Returns whether
    /// this call won the race to set the message.
    fn fail(&self, message: String) -> bool {
        let mut slot = self.failed.lock().expect("block failure lock");
        let won = slot.is_none();
        slot.get_or_insert(message);
        self.cancelled.store(true, Ordering::Relaxed);
        won
    }
}

fn run_block_shard(state: &Arc<BlockState>, range: std::ops::Range<u64>) {
    // The decoder is only built (and only pays its unrank) on the
    // computed path; a warm store shard is pure sequential I/O.
    let mut decoder = state.table.is_none().then(|| BlockDecoder::new(state.n));
    let mut bytes = Vec::with_capacity(state.chunk * 8);
    let mut base = range.start;
    while base < range.end {
        // The cancel-flag checkpoint: a shard past the request
        // deadline (or racing a failed sibling) stops between chunks
        // rather than decoding the rest of its range into a void.
        if state.cancelled.load(Ordering::Relaxed) {
            break;
        }
        if state.ctx.expired() {
            if state.fail(DEADLINE_MSG.to_string()) {
                state
                    .ctx
                    .shared
                    .stats
                    .requests_timed_out
                    .fetch_add(1, Ordering::Relaxed);
            }
            break;
        }
        let top = (base + state.chunk as u64).min(range.end);
        bytes.clear();
        match (&state.table, &mut decoder) {
            (Some(table), _) => {
                if let Err(e) = table.read_le_bytes_into(base..top, &mut bytes) {
                    state.fail(format!("store error: {e}"));
                    break;
                }
            }
            (None, Some(decoder)) => decoder.decode_le_bytes_into(base..top, &mut bytes),
            (None, None) => unreachable!("computed path always has a decoder"),
        }
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        let flags = if top == state.end { CHUNK_FLAG_LAST } else { 0 };
        state
            .ctx
            .send_chunk(&encode_chunk(state.id, seq, base, flags, &bytes));
        base = top;
    }
    // The LAST finishing shard (which saw remaining == 1) answers.
    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_block(state);
    }
}

fn finish_block(state: &Arc<BlockState>) {
    if let Some(message) = state.failed.lock().expect("block failure lock").take() {
        state
            .ctx
            .respond("block", false, &error_result(&message), state.id);
        return;
    }
    let results = format!(
        "{{\"type\":\"block\",\"n\":{},\"start\":{},\"end\":{},\"chunk\":{},\
         \"chunks\":{},\"words\":{}}}",
        state.n,
        state.start,
        state.end,
        state.chunk,
        state.chunks_total,
        state.end - state.start,
    );
    state.ctx.respond("block", true, &results, state.id);
}

/// Parses and executes one request. Runs on a pool worker.
fn handle_request(ctx: ReqCtx, payload: Vec<u8>) {
    let stats = &ctx.shared.stats;
    // Replayed requests carry an `"attempt"` field (the retrying
    // client stamps it); tally them so `stats` reports how much client
    // retry traffic this server absorbed.
    if crate::protocol::request_attempt(&payload) > 0 {
        stats.retries_observed.fetch_add(1, Ordering::Relaxed);
    }
    let (id, request) = match parse_request(&payload, ctx.shared.options.default_chunk) {
        Ok(parsed) => parsed,
        Err(e) => {
            stats.commands[command_slot(&e.command)].fetch_add(1, Ordering::Relaxed);
            ctx.respond(&e.command, false, &error_result(&e.message), e.id);
            return;
        }
    };
    stats.commands[command_slot(request.command())].fetch_add(1, Ordering::Relaxed);
    match request {
        Request::Unrank { n, index } => {
            let perm = Unranker::new(n).unrank(index);
            let results = format!(
                "{{\"type\":\"unrank\",\"n\":{n},\"index\":{index},\"perm\":{},\"packed\":{}}}",
                render_perm(perm.as_slice()),
                perm.pack_u64(),
            );
            ctx.respond("unrank", true, &results, id);
        }
        Request::Rank { perm } => match Permutation::try_from_vec(perm) {
            Ok(perm) => {
                let results = format!(
                    "{{\"type\":\"rank\",\"n\":{},\"perm\":{},\"index\":{}}}",
                    perm.n(),
                    render_perm(perm.as_slice()),
                    rank_u64(&perm),
                );
                ctx.respond("rank", true, &results, id);
            }
            Err(e) => ctx.respond(
                "rank",
                false,
                &error_result(&format!("perm is not a permutation: {e}")),
                id,
            ),
        },
        Request::Block {
            n,
            start,
            end,
            chunk,
        } => {
            let count = end - start;
            // At most one shard per pool worker, and never more shards
            // than chunks (a shard below one chunk just wastes a true
            // unrank).
            let shard_count = (ctx.shared.options.workers as u64)
                .min(count.div_ceil(chunk as u64))
                .max(1) as usize;
            let shards: Vec<std::ops::Range<u64>> = shard_ranges(count as usize, shard_count)
                .into_iter()
                .filter(|r| !r.is_empty())
                .map(|r| start + r.start as u64..start + r.end as u64)
                .collect();
            let chunks_total = shards
                .iter()
                .map(|r| (r.end - r.start).div_ceil(chunk as u64))
                .sum();
            let table = match ctx.shared.open_store(n) {
                Ok(table) => table,
                Err(e) => {
                    ctx.respond(
                        "block",
                        false,
                        &error_result(&format!("store error: {e}")),
                        id,
                    );
                    return;
                }
            };
            let state = Arc::new(BlockState {
                ctx,
                id,
                n,
                start,
                end,
                chunk,
                chunks_total,
                seq: AtomicU64::new(0),
                remaining: AtomicUsize::new(shards.len().max(1)),
                cancelled: AtomicBool::new(false),
                table,
                failed: Mutex::new(None),
            });
            let Some((first, rest)) = shards.split_first() else {
                // Empty range: no chunks, envelope only.
                finish_block(&state);
                return;
            };
            for shard in rest {
                let state = Arc::clone(&state);
                let shard = shard.clone();
                pool_submit(
                    &Arc::clone(&state.ctx.shared.pool),
                    Box::new(move || run_block_shard(&state, shard)),
                );
            }
            // Shard 0 runs inline on this worker: a one-worker pool
            // must not park the only thread waiting for a queue only
            // it can drain.
            run_block_shard(&state, first.clone());
        }
        Request::RandomStream {
            n,
            count,
            seed,
            chunk,
        } => {
            let mut source = GuardedPermSource::with_options(
                SoftwareRandomSource::new(n, seed),
                FaultPolicy::Fallback,
                STREAM_SPOT_CHECK_EVERY,
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            );
            let mut words = vec![0u64; chunk.min(count.max(1) as usize)];
            let mut bytes = Vec::with_capacity(words.len() * 8);
            let mut drawn = 0u64;
            let mut seq = 0u64;
            while drawn < count {
                // Deadline checkpoint between chunks — same contract
                // as the block shards.
                if ctx.expired() {
                    ctx.respond_deadline("random-stream", id);
                    return;
                }
                let take = ((count - drawn) as usize).min(chunk);
                source.fill_packed_u64(&mut words[..take]);
                bytes.clear();
                for word in &words[..take] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                let flags = if drawn + take as u64 == count {
                    CHUNK_FLAG_LAST
                } else {
                    0
                };
                ctx.send_chunk(&encode_chunk(id, seq, drawn, flags, &bytes));
                seq += 1;
                drawn += take as u64;
            }
            let guard = source.stats();
            let results = format!(
                "{{\"type\":\"random-stream\",\"n\":{n},\"count\":{count},\"seed\":{seed},\
                 \"chunk\":{chunk},\"chunks\":{seq},\"words\":{count},\
                 \"guard\":{{\"detected\":{},\"retried\":{},\"fell_back\":{}}}}}",
                guard.detected, guard.retried, guard.fell_back,
            );
            ctx.respond("random-stream", true, &results, id);
        }
        Request::Verify { n, jobs } => {
            // The sharded sweep has no mid-flight checkpoint; honor
            // the deadline at least before committing to it (a request
            // that sat in the queue past its deadline never starts).
            if ctx.expired() {
                ctx.respond_deadline("verify", id);
                return;
            }
            let entry = match ctx.shared.verify_entry(n) {
                Ok(entry) => entry,
                Err(e) => {
                    ctx.respond(
                        "verify",
                        false,
                        &error_result(&format!("store error: {e}")),
                        id,
                    );
                    return;
                }
            };
            match exhaustive_check_parallel_with(
                &entry.program,
                "index",
                "perm",
                &entry.table,
                jobs,
            ) {
                Ok(()) => {
                    let results = format!(
                        "{{\"type\":\"verify\",\"n\":{n},\"workers\":{jobs},\"total\":{},\
                         \"verdict\":\"ok\"}}",
                        entry.total,
                    );
                    ctx.respond("verify", true, &results, id);
                }
                Err(m) => {
                    let results = format!(
                        "{{\"type\":\"verify\",\"n\":{n},\"workers\":{jobs},\"total\":{},\
                         \"verdict\":\"mismatch\",\"index\":{},\"port\":\"{}\",\
                         \"got\":{},\"want\":{}}}",
                        entry.total,
                        m.index,
                        crate::json::escape(&m.port),
                        m.got,
                        m.want,
                    );
                    ctx.respond("verify", false, &results, id);
                }
            }
        }
        Request::Stats => {
            let results = ctx.shared.stats.render(ctx.shared.uptime_ms());
            ctx.respond("stats", true, &results, id);
        }
        Request::Shutdown => {
            ctx.respond(
                "shutdown",
                true,
                "{\"type\":\"shutdown\",\"stopping\":true}",
                id,
            );
            ctx.shared.trigger_stop();
        }
    }
}

/// Reader loop of one connection; owns the writer thread.
fn handle_connection(shared: Arc<Shared>, mut read_half: Stream, conn_id: u64) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    let last_activity = Arc::new(AtomicU64::new(shared.now_ms()));
    let registered = match (read_half.try_clone(), read_half.try_clone()) {
        (Ok(write_half), Ok(registered)) => {
            // Read/write deadlines: a silent peer times the reader
            // out, a peer that stops reading times the writer out.
            // The idle sweep covers what per-call timeouts cannot
            // (trickled frames that never finish).
            if let Some(idle) = shared.options.idle_timeout_ms {
                let budget = Some(Duration::from_millis(idle.max(1)));
                let _ = read_half.set_read_timeout(budget);
                let _ = read_half.set_write_timeout(budget);
            }
            shared.conns.lock().expect("conns lock").insert(
                conn_id,
                ConnEntry {
                    stream: registered,
                    last_activity_ms: Arc::clone(&last_activity),
                },
            );
            // A shutdown that raced this registration may have missed
            // us; re-check so the reader can't outlive the stop
            // decision.
            if shared.stop.load(Ordering::SeqCst) {
                let _ = read_half.shutdown(std::net::Shutdown::Read);
            }
            Some(write_half)
        }
        _ => None,
    };
    if let Some(mut write_half) = registered {
        let (sender, receiver) = sync_channel::<Vec<u8>>(WRITE_QUEUE_DEPTH);
        shared.stats.threads_spawned.fetch_add(1, Ordering::Relaxed);
        let writer = thread::spawn(move || {
            while let Ok(frame) = receiver.recv() {
                if write_half.write_all(&frame).is_err() {
                    // Dropping the receiver un-blocks any workers
                    // still producing for this dead connection; a full
                    // close also kicks the reader off a client that
                    // only stalled its receive direction.
                    let _ = write_half.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
            let _ = write_half.shutdown(std::net::Shutdown::Write);
        });
        loop {
            match read_frame(&mut read_half) {
                Ok(None) => break,
                Ok(Some((kind, payload))) => {
                    last_activity.store(shared.now_ms(), Ordering::Relaxed);
                    let bytes_in = payload.len() as u64 + 5;
                    shared.stats.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let ctx = ReqCtx::new(sender.clone(), Arc::clone(&shared), bytes_in);
                    if kind == KIND_BLOCK {
                        shared.stats.commands[command_slot("error")]
                            .fetch_add(1, Ordering::Relaxed);
                        ctx.respond(
                            "error",
                            false,
                            &error_result("binary frames flow server to client only"),
                            0,
                        );
                        continue;
                    }
                    pool_submit(&shared.pool, Box::new(move || handle_request(ctx, payload)));
                }
                Err(e) => {
                    // Framing is broken (or the connection idled out):
                    // answer once, then close — there is no
                    // resynchronization point in a length-prefixed
                    // stream.
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    shared.stats.commands[command_slot("error")].fetch_add(1, Ordering::Relaxed);
                    let ctx = ReqCtx::new(sender.clone(), Arc::clone(&shared), 0);
                    ctx.respond("error", false, &error_result(&e.to_string()), 0);
                    break;
                }
            }
        }
        // Writer exits once every sender is gone — ours now, the
        // in-flight jobs' when they finish — so joining it waits for
        // the responses this connection is still owed.
        drop(sender);
        let _ = writer.join();
        shared.stats.threads_joined.fetch_add(1, Ordering::Relaxed);
    }
    shared.conns.lock().expect("conns lock").remove(&conn_id);
    shared.live_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Sheds one over-limit connection: answer the pinned `busy` error
/// envelope (deadlined, so a client that won't read cannot stall the
/// accept loop) and close. No thread is spawned for shed connections.
fn shed_connection(shared: &Shared, stream: Stream) {
    shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.drain_budget_ms().max(1))));
    let busy = envelope(
        "busy",
        false,
        &error_result(&format!(
            "server busy: connection limit of {} reached, retry later",
            shared.options.max_conns
        )),
        0,
        shared.options.fixed_micros.unwrap_or(0),
        0,
    );
    let wire = encode_frame(KIND_JSON, &busy);
    let mut stream = stream;
    let _ = stream.write_all(&wire);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Runs the server until a `shutdown` request arrives; returns the
/// aggregate counters. Binding happened earlier ([`Listener`]), so the
/// caller already knows the endpoint.
pub fn serve(listener: Listener, options: ServeOptions) -> io::Result<ServeSummary> {
    assert!(options.workers >= 1, "need at least one worker");
    assert!(options.default_chunk >= 1, "need a positive default chunk");
    let endpoint = listener.endpoint()?;
    let pool = Arc::new(PoolShared::default());
    let shared = Arc::new(Shared {
        options,
        stats: Stats::default(),
        stop: AtomicBool::new(false),
        stopped_at_ms: AtomicU64::new(0),
        started: Instant::now(),
        endpoint,
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
        live_conns: AtomicUsize::new(0),
        pool: Arc::clone(&pool),
        verify_cache: Mutex::new(HashMap::new()),
        store_cache: Mutex::new(HashMap::new()),
    });
    let worker_count = shared.options.workers as u64;
    shared
        .stats
        .threads_spawned
        .fetch_add(worker_count, Ordering::Relaxed);
    let workers = spawn_pool_workers(&pool, shared.options.workers);
    // The idle sweep: reaps connections that stall a frame past the
    // idle timeout (the per-call socket timeouts cannot see trickled
    // bytes) and force-closes drain stragglers after shutdown.
    let sweeper = shared.options.idle_timeout_ms.map(|idle| {
        shared.stats.threads_spawned.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let tick = Duration::from_millis((idle / 4).clamp(5, 50));
            loop {
                thread::sleep(tick);
                shared.sweep_idle();
                if shared.stop.load(Ordering::SeqCst)
                    && shared.conns.lock().expect("conns lock").is_empty()
                {
                    return;
                }
            }
        })
    });
    let mut connections = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the shutdown self-connect
        }
        // The accept gate: over-limit connections get one pinned
        // `busy` envelope and a close instead of a thread and a queue
        // slot. Only this thread admits, so the gate cannot over-admit.
        let max = shared.options.max_conns;
        if max > 0 && shared.live_conns.load(Ordering::SeqCst) >= max {
            shed_connection(&shared, stream);
            continue;
        }
        shared.live_conns.fetch_add(1, Ordering::SeqCst);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        shared.stats.threads_spawned.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        connections.push(thread::spawn(move || {
            handle_connection(shared, stream, conn_id)
        }));
    }
    // Readers were half-closed by trigger_stop, so the job queue only
    // shrinks from here; drain it, then wait for the writers to flush
    // (each within the drain deadline trigger_stop armed).
    pool_join(&pool, workers);
    shared
        .stats
        .threads_joined
        .fetch_add(worker_count, Ordering::Relaxed);
    for conn in connections {
        let _ = conn.join();
        shared.stats.threads_joined.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(sweeper) = sweeper {
        let _ = sweeper.join();
        shared.stats.threads_joined.fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(unix)]
    if let Endpoint::Unix(path) = &shared.endpoint {
        let _ = std::fs::remove_file(path);
    }
    let stats = &shared.stats;
    Ok(ServeSummary {
        connections: stats.connections.load(Ordering::Relaxed),
        requests: stats.requests.load(Ordering::Relaxed),
        errors: stats.errors.load(Ordering::Relaxed),
        bytes_in: stats.bytes_in.load(Ordering::Relaxed),
        bytes_out: stats.bytes_out.load(Ordering::Relaxed),
        conns_rejected: stats.conns_rejected.load(Ordering::Relaxed),
        requests_timed_out: stats.requests_timed_out.load(Ordering::Relaxed),
        threads_spawned: stats.threads_spawned.load(Ordering::Relaxed),
        threads_joined: stats.threads_joined.load(Ordering::Relaxed),
    })
}

/// A server running on a background thread — the in-process harness
/// the tests and the repository benchmark drive (`benchmark/README.md`;
/// its serve burst is gated by `serve_words_per_s`).
pub struct ServerHandle {
    endpoint: Endpoint,
    thread: Option<JoinHandle<io::Result<ServeSummary>>>,
}

/// Spawns [`serve`] on a background thread.
pub fn spawn(listener: Listener, options: ServeOptions) -> io::Result<ServerHandle> {
    let endpoint = listener.endpoint()?;
    let thread = thread::spawn(move || serve(listener, options));
    Ok(ServerHandle {
        endpoint,
        thread: Some(thread),
    })
}

impl ServerHandle {
    /// Where clients reach this server.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Sends a `shutdown` request and joins the server thread.
    ///
    /// On a gated server (`max_conns`) the stop connection itself can
    /// be shed while a just-closed slot is still being reaped, so a
    /// `busy` answer is retried briefly — a stop must win against its
    /// own accept gate.
    pub fn stop(mut self) -> io::Result<ServeSummary> {
        for _ in 0..500 {
            let mut client = Client::connect(&self.endpoint)?;
            let response = client
                .request("{\"cmd\":\"shutdown\"}")
                .map_err(|e| io::Error::other(e.to_string()))?;
            if !String::from_utf8_lossy(&response.envelope).contains("\"command\":\"busy\"") {
                return self.join_inner();
            }
            thread::sleep(Duration::from_millis(10));
        }
        Err(io::Error::other(
            "server shed 500 consecutive shutdown attempts; giving up",
        ))
    }

    /// Joins the server thread (some client must have requested
    /// shutdown, or this blocks forever).
    pub fn join(mut self) -> io::Result<ServeSummary> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<ServeSummary> {
        self.thread
            .take()
            .expect("server joined twice")
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}
