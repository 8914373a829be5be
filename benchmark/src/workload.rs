//! The workloads. Both run the same rounds of operations; they differ in
//! where every n = 9 oracle table and served block comes from:
//!
//! - `computed`: verify decodes its table (TableSource::Computed) and
//!   the server decodes blocks (BlockDecoder), so the store carries no
//!   load outside its own build and load operations;
//! - `store`: verify loads its table from a warm store
//!   (TableSource::Store) and the server streams blocks from it
//!   (`store_dir`), so BlockDecoder is bypassed on the served path.
//!
//! A round runs, one after another on a 2-thread budget: the n = 9
//! exhaustive check, the n = 8 fault campaign, the n = 7 SAT proof, the
//! gate-level shuffle check, a cold store build and a warm load, then a
//! serve burst in which a bulk client (full blocks and random streams)
//! and an interactive client (unrank/rank) share one server. The short
//! operations run more than once per round.

use crate::host;
use crate::plan::{Bulk, Plan, Request, Small, SMALL_N, STREAM_COUNT, STREAM_N};
use crate::stats::{median, percentile, trimmed_mean};
use crate::trace::{durations_ms, Tracer};
use hwperm_circuits::{
    converter_netlist, ConverterOptions, KnuthShuffleCircuit, KnuthShuffleModel, ShuffleOptions,
};
use hwperm_core::{RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::{rank_u64, BlockDecoder, Unranker};
use hwperm_logic::{Netlist, W512};
use hwperm_perm::{packed_is_permutation_u64, Permutation};
use hwperm_serve::{
    Client, ClientError, Json, Listener, Response, ServeOptions, ServeSummary, ServerHandle,
};
use hwperm_store::{BuildOptions, OpenTable, TableSource};
use hwperm_verify::ProofStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Worker threads for every sharded operation and for the server pool.
pub const WORKERS: usize = 2;
const VERIFY_N: usize = 9;
const CAMPAIGN_N: usize = 8;
const PROVE_N: usize = 7;
const SHUFFLE_N: usize = 8;
pub const SHUFFLE_DRAWS: usize = 16_384;
/// The n = 8 campaign's verdicts: (faults, detected, silent, masked).
const CAMPAIGN_VERDICTS: (usize, usize, usize, usize) = (1120, 433, 687, 0);
/// Block/stream pairs the bulk client sends per round.
const BULK_PAIRS: usize = 12;
/// Rounds every run completes, so a once-per-round timing (the proof,
/// the campaign) has 17 samples and its trimmed mean keeps 15. More
/// would lengthen every run past the time the benchmark is given.
const MIN_ROUNDS: u64 = 17;
/// Rounds stop here even if the minimum is not reached, so a run on a
/// slow host still ends in time (with a percentile error).
const MAX_ROUND_TIME: Duration = Duration::from_secs(140);
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Bytes of one n = 9 store table on disk: 45 chunk headers plus 9! words.
const STORE_BYTES: u64 = 45 * hwperm_store::CHUNK_HEADER_LEN as u64 + 362_880 * 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Computed,
    Store,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Computed, Workload::Store];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Computed => "computed",
            Workload::Store => "store",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operations checked and failed. A failed check is counted, reported
/// and the run goes on.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    fn merge(&mut self, attempted: u64, errors: Vec<String>) {
        self.attempted += attempted - errors.len() as u64;
        for e in errors {
            self.check(Err(e));
        }
    }
}

/// Where a run keeps its stores: removed when the run ends.
pub struct Dirs {
    pub root: PathBuf,
    /// The store fixture the `store` workload reads every table from.
    pub fixture: PathBuf,
    /// The cold-build target, rebuilt from empty every round.
    pub cold: PathBuf,
}

impl Dirs {
    pub fn new(out: &Path) -> Result<Dirs, String> {
        let root = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Dirs {
            fixture: root.join("fixture"),
            cold: root.join("cold"),
            root,
        })
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and ignored.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything a round needs that set-up prepares.
pub struct Fixture {
    net8: Netlist,
    table8: Vec<u64>,
    net7: Netlist,
    table7: Vec<u64>,
    /// The BlockDecoder n = 9 table: the reference for served blocks
    /// and store loads.
    pub table9: Vec<u64>,
    pub store: Option<PathBuf>,
    server: ServerHandle,
    bulk: Client,
    small: Client,
    /// Packed words this server delivered, for `serve.bytes_per_word`.
    words_served: u64,
}

impl Fixture {
    fn new(workload: Workload, dirs: &Dirs) -> Result<Fixture, String> {
        let table9 = BlockDecoder::new(VERIFY_N).decode_words(0..362_880);
        let store = match workload {
            Workload::Computed => None,
            Workload::Store => {
                let _ = std::fs::remove_dir_all(&dirs.fixture);
                let options = BuildOptions {
                    jobs: WORKERS,
                    ..BuildOptions::default()
                };
                hwperm_store::build(&dirs.fixture, VERIFY_N, &options)
                    .map_err(|e| format!("store fixture: {e}"))?;
                Some(dirs.fixture.clone())
            }
        };
        let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let options = ServeOptions {
            workers: WORKERS,
            store_dir: store.clone(),
            ..ServeOptions::default()
        };
        let server =
            hwperm_serve::spawn(listener, options).map_err(|e| format!("spawn server: {e}"))?;
        let connect = || Client::connect(server.endpoint()).map_err(|e| format!("connect: {e}"));
        let (bulk, small) = (connect()?, connect()?);
        Ok(Fixture {
            net8: converter_netlist(CAMPAIGN_N, ConverterOptions::default()),
            table8: hwperm_verify::expected_permutation_words(CAMPAIGN_N),
            net7: converter_netlist(PROVE_N, ConverterOptions::default()),
            table7: hwperm_verify::expected_permutation_words(PROVE_N),
            table9,
            store,
            server,
            bulk,
            small,
            words_served: 0,
        })
    }

    /// Closes the clients, stops the server and checks that it answered
    /// every request without error and joined every thread it started.
    fn finish(self, tally: &mut Tally) -> Option<ServeSummary> {
        drop((self.bulk, self.small));
        let summary = match self.server.stop() {
            Ok(summary) => summary,
            Err(e) => {
                tally.check(Err(format!("server stop: {e}")));
                return None;
            }
        };
        tally.check(if summary.errors == 0 {
            Ok(())
        } else {
            Err(format!(
                "server answered {} request(s) with an error",
                summary.errors
            ))
        });
        tally.check(if summary.threads_spawned == summary.threads_joined {
            Ok(())
        } else {
            Err(format!(
                "server joined {} of {} threads",
                summary.threads_joined, summary.threads_spawned
            ))
        });
        Some(summary)
    }
}

/// What the timed operations measured.
#[derive(Default)]
pub struct Samples {
    pub verify_ms: Vec<f64>,
    pub campaign_ms: Vec<f64>,
    pub prove_ms: Vec<f64>,
    pub shuffle_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub build_wchar: Vec<f64>,
    pub load_rchar: Vec<f64>,
    pub build_bytes: u64,
    pub proof: Option<ProofStats>,
    pub block_ms: Vec<f64>,
    pub block_server_ms: Vec<f64>,
    pub stream_server_ms: Vec<f64>,
    pub small_us: Vec<f64>,
    pub small_server_us: Vec<f64>,
    /// Packed words the bulk client received, and its time waiting for
    /// them.
    pub bulk_words: u64,
    pub bulk_busy: Duration,
    /// File bytes read while serving.
    pub serve_read_bytes: u64,
    pub block_words: u64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One run of a workload: set-up, timed rounds, teardown.
pub struct Run {
    pub workload: Workload,
    pub dirs: Dirs,
    pub plan: Plan,
    pub tally: Tally,
    pub samples: Samples,
    pub setup_s: Vec<f64>,
    pub rounds: u64,
    pub summary: Option<ServeSummary>,
    /// Packed words the last server delivered, warm-up included.
    pub words_served: u64,
    io_read_cost: u64,
}

impl Run {
    pub fn new(workload: Workload, seed: u64, out: &Path) -> Result<Run, String> {
        Ok(Run {
            workload,
            dirs: Dirs::new(out)?,
            plan: Plan::new(seed),
            tally: Tally::default(),
            samples: Samples::default(),
            setup_s: Vec::new(),
            rounds: 0,
            summary: None,
            words_served: 0,
            io_read_cost: host::io_read_cost()?,
        })
    }

    /// Sets up [`SETUPS`] times, each with its warm-up pass, and keeps
    /// the last fixture.
    pub fn set_up(&mut self) -> Result<Fixture, String> {
        let off = Tracer::new(false);
        let mut kept: Option<Fixture> = None;
        for _ in 0..SETUPS {
            if let Some(old) = kept.take() {
                old.finish(&mut self.tally);
            }
            let start = Instant::now();
            let mut fx = Fixture::new(self.workload, &self.dirs)?;
            let mut warm = Samples::default();
            self.round(&mut fx, &off, 0, 1, &mut warm)?;
            self.setup_s.push(start.elapsed().as_secs_f64());
            kept = Some(fx);
        }
        Ok(kept.expect("at least one set-up"))
    }

    /// Timed rounds until `seconds` have passed and at least
    /// [`MIN_ROUNDS`] are done.
    pub fn measure(
        &mut self,
        fx: &mut Fixture,
        tracer: &Tracer,
        seconds: u64,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut samples = std::mem::take(&mut self.samples);
        while (self.rounds < MIN_ROUNDS || start.elapsed() < Duration::from_secs(seconds))
            && start.elapsed() < MAX_ROUND_TIME
        {
            self.rounds += 1;
            self.round(fx, tracer, self.rounds, BULK_PAIRS, &mut samples)?;
        }
        self.samples = samples;
        Ok(())
    }

    pub fn finish(&mut self, fx: Fixture) {
        self.words_served = fx.words_served;
        self.summary = fx.finish(&mut self.tally);
    }

    fn round(
        &mut self,
        fx: &mut Fixture,
        tracer: &Tracer,
        round: u64,
        bulk_pairs: usize,
        s: &mut Samples,
    ) -> Result<(), String> {
        tracer.span("round", 0, round, |id| {
            self.round_ops(fx, tracer, id, round, bulk_pairs, s)
        })
    }

    fn round_ops(
        &mut self,
        fx: &mut Fixture,
        tracer: &Tracer,
        parent: u64,
        round: u64,
        bulk_pairs: usize,
        s: &mut Samples,
    ) -> Result<(), String> {
        // The short operations run several times, spread over the round,
        // so their samples see more of the host's fast and slow phases
        // than one sample per round would.
        self.verify(fx, tracer, parent, round, s);
        self.store_ops(fx, tracer, parent, round, s)?;
        self.campaign(fx, tracer, parent, round, s);
        self.verify(fx, tracer, parent, round, s);
        self.store_ops(fx, tracer, parent, round, s)?;
        self.shuffle(tracer, parent, round, s);
        self.prove(fx, tracer, parent, round, s);
        self.verify(fx, tracer, parent, round, s);
        self.store_ops(fx, tracer, parent, round, s)?;
        self.shuffle(tracer, parent, round, s);
        tracer.span("serve", parent, round, |id| {
            self.serve_burst(fx, tracer, id, bulk_pairs, s)
        })
    }

    fn verify(&mut self, fx: &Fixture, tracer: &Tracer, parent: u64, round: u64, s: &mut Samples) {
        let start = Instant::now();
        let outcome = tracer.span("verify", parent, round, |id| {
            verify_op(fx, tracer, id, round)
        });
        s.verify_ms.push(ms(start));
        self.tally.check(outcome);
    }

    fn campaign(
        &mut self,
        fx: &Fixture,
        tracer: &Tracer,
        parent: u64,
        round: u64,
        s: &mut Samples,
    ) {
        let valid = |word: u64| packed_is_permutation_u64(CAMPAIGN_N, word);
        let start = Instant::now();
        let report = tracer.span("faults.campaign", parent, round, |_| {
            hwperm_verify::stuck_at_campaign_wide::<W512>(
                &fx.net8,
                "index",
                "perm",
                &fx.table8,
                Some(&valid),
                WORKERS,
            )
        });
        s.campaign_ms.push(ms(start));
        let got = (
            report.total(),
            report.detected(),
            report.silent(),
            report.masked(),
        );
        self.tally.check(if got == CAMPAIGN_VERDICTS {
            Ok(())
        } else {
            Err(format!(
                "n = 8 campaign gave {got:?}, want {CAMPAIGN_VERDICTS:?}"
            ))
        });
    }

    fn prove(&mut self, fx: &Fixture, tracer: &Tracer, parent: u64, round: u64, s: &mut Samples) {
        let start = Instant::now();
        let proof = tracer.span("sat.prove", parent, round, |_| {
            hwperm_verify::prove_against_table(&fx.net7, "index", "perm", &fx.table7)
        });
        s.prove_ms.push(ms(start));
        self.tally.check(match proof {
            Ok(outcome) if outcome.is_proved() => {
                s.proof = Some(outcome.stats());
                Ok(())
            }
            Ok(outcome) => Err(format!("n = 7 proof did not close: {outcome:?}")),
            Err(e) => Err(format!("n = 7 proof: {e}")),
        });
    }

    fn shuffle(&mut self, tracer: &Tracer, parent: u64, round: u64, s: &mut Samples) {
        let options = ShuffleOptions {
            seed: self.plan.next_shuffle_seed(),
            ..ShuffleOptions::default()
        };
        let start = Instant::now();
        let drawn: Vec<u64> = tracer.span("logic.shuffle", parent, round, |_| {
            let mut circuit = KnuthShuffleCircuit::with_options(SHUFFLE_N, options);
            (0..SHUFFLE_DRAWS)
                .map(|_| circuit.next_permutation().pack_u64())
                .collect()
        });
        s.shuffle_ms.push(ms(start));
        let mut model = KnuthShuffleModel::with_options(SHUFFLE_N, options);
        let first_diff = drawn
            .iter()
            .position(|&w| w != model.next_permutation().pack_u64());
        self.tally.check(match first_diff {
            None => Ok(()),
            Some(i) => Err(format!(
                "shuffle draw {i} (seed {:#x}) differs from the model",
                options.seed
            )),
        });
    }

    fn store_ops(
        &mut self,
        fx: &Fixture,
        tracer: &Tracer,
        parent: u64,
        round: u64,
        s: &mut Samples,
    ) -> Result<(), String> {
        let cold = &self.dirs.cold;
        // Untimed: the build starts from an empty directory.
        let _ = std::fs::remove_dir_all(cold);
        let options = BuildOptions {
            jobs: WORKERS,
            ..BuildOptions::default()
        };
        let before = host::io()?;
        let start = Instant::now();
        let report = tracer.span("store.build", parent, round, |_| {
            hwperm_store::build(cold, VERIFY_N, &options)
        });
        s.build_ms.push(ms(start));
        s.build_wchar
            .push((host::io()?.wchar - before.wchar) as f64);
        self.tally.check(match report {
            Ok(r) if r.complete && r.built == 45 && r.bytes_written == STORE_BYTES => {
                s.build_bytes = r.bytes_written;
                Ok(())
            }
            Ok(r) => Err(format!("cold build: {r:?}")),
            Err(e) => Err(format!("cold build: {e}")),
        });

        let before = host::io()?;
        let start = Instant::now();
        let loaded = tracer.span("store.load", parent, round, |_| {
            OpenTable::open(cold, VERIFY_N).and_then(|t| t.map(|t| t.load_words()).transpose())
        });
        s.load_ms.push(ms(start));
        s.load_rchar
            .push((host::io()?.rchar - before.rchar).saturating_sub(self.io_read_cost) as f64);
        self.tally.check(match loaded {
            Ok(Some(words)) if words == fx.table9 => Ok(()),
            Ok(Some(_)) => Err("warm load differs from the BlockDecoder table".into()),
            Ok(None) => Err("cold build left no complete table".into()),
            Err(e) => Err(format!("warm load: {e}")),
        });
        Ok(())
    }

    /// The bulk client sends `pairs` block/stream pairs while the
    /// interactive client sends unrank/rank requests until it is done.
    fn serve_burst(
        &mut self,
        fx: &mut Fixture,
        tracer: &Tracer,
        parent: u64,
        pairs: usize,
        s: &mut Samples,
    ) -> Result<(), String> {
        let done = AtomicBool::new(false);
        let Fixture {
            bulk,
            small,
            table9,
            ..
        } = fx;
        let table9: &[u64] = table9;
        let Plan {
            bulk: bulk_plan,
            small: small_plan,
            ..
        } = &mut self.plan;
        let before = host::io()?;
        let (b, i) = std::thread::scope(|scope| {
            let bulk_side = scope.spawn(|| {
                let _done = SetOnDrop(&done);
                let mut out = BulkOut::default();
                for _ in 0..2 * pairs {
                    let req = bulk_plan.next_request();
                    let start = Instant::now();
                    let response = bulk.request(&req.body);
                    let end = Instant::now();
                    let name = if req.kind == Bulk::Block {
                        "serve.block"
                    } else {
                        "serve.stream"
                    };
                    tracer.record(name, parent, req.id, start, end);
                    out.record(&req, response, end - start, table9);
                }
                out
            });
            let small_side = scope.spawn(|| {
                let mut out = SmallOut::default();
                let mut unranker = Unranker::new(SMALL_N);
                while !done.load(Ordering::SeqCst) {
                    let req = small_plan.next_request();
                    let start = Instant::now();
                    let response = small.request(&req.body);
                    let end = Instant::now();
                    let name = if matches!(req.kind, Small::Unrank { .. }) {
                        "serve.unrank"
                    } else {
                        "serve.rank"
                    };
                    tracer.record(name, parent, req.id, start, end);
                    out.record(&req, response, end - start, &mut unranker);
                }
                out
            });
            (
                bulk_side.join().expect("bulk client thread panicked"),
                small_side
                    .join()
                    .expect("interactive client thread panicked"),
            )
        });
        // std reads sockets with recv(2), which rchar does not count, so
        // this is file reads alone: the store chunks a block streams.
        s.serve_read_bytes += (host::io()?.rchar - before.rchar).saturating_sub(self.io_read_cost);
        s.block_words += b.block_words;
        fx.words_served += b.words;
        s.bulk_words += b.words;
        s.bulk_busy += b.busy;
        s.block_ms.extend(b.block_ms);
        s.block_server_ms.extend(b.block_server_ms);
        s.stream_server_ms.extend(b.stream_server_ms);
        s.small_us.extend(i.small_us);
        s.small_server_us.extend(i.small_server_us);
        self.tally.merge(b.attempted, b.errors);
        self.tally.merge(i.attempted, i.errors);
        Ok(())
    }
}

/// Sets the flag when dropped, so the interactive client stops even if
/// the bulk client's thread panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The n = 9 exhaustive check, as `verify --batch --jobs 2` makes it.
fn verify_op(fx: &Fixture, tracer: &Tracer, parent: u64, iter: u64) -> Result<(), String> {
    let netlist = tracer.span("circuits.netlist", parent, iter, |_| {
        converter_netlist(VERIFY_N, ConverterOptions::default())
    });
    let table = match &fx.store {
        None => tracer.span("factoradic.table", parent, iter, |_| {
            TableSource::Computed { workers: 1 }.permutation_words(VERIFY_N)
        }),
        Some(dir) => tracer.span("verify.table_store", parent, iter, |_| {
            TableSource::Store { dir: dir.clone() }.permutation_words(VERIFY_N)
        }),
    }
    .map_err(|e| format!("n = 9 table: {e}"))?;
    tracer
        .span("verify.sweep_wide", parent, iter, |_| {
            hwperm_verify::exhaustive_check_parallel_wide::<W512>(
                &netlist, "index", "perm", &table, WORKERS,
            )
        })
        .map_err(|m| format!("n = 9 sweep mismatch: {m}"))
}

/// The envelope's status and its metrics trailer's `micros`.
fn envelope_micros(response: &Response) -> Result<(Json, u64), String> {
    let doc = response.json().map_err(|e| e.to_string())?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!(
            "error envelope: {}",
            String::from_utf8_lossy(&response.envelope)
        ));
    }
    let micros = doc
        .get("metrics")
        .and_then(|m| m.get("micros"))
        .and_then(Json::as_u64)
        .ok_or("envelope without metrics.micros")?;
    Ok((doc, micros))
}

#[derive(Default)]
struct BulkOut {
    attempted: u64,
    errors: Vec<String>,
    block_ms: Vec<f64>,
    block_server_ms: Vec<f64>,
    stream_server_ms: Vec<f64>,
    words: u64,
    block_words: u64,
    busy: Duration,
}

impl BulkOut {
    fn record(
        &mut self,
        req: &Request<Bulk>,
        response: Result<Response, ClientError>,
        rtt: Duration,
        table9: &[u64],
    ) {
        self.attempted += 1;
        let checked = response.map_err(|e| e.to_string()).and_then(|response| {
            let (_, micros) = envelope_micros(&response)?;
            let words = response.words();
            let expected = match req.kind {
                Bulk::Block => words == table9,
                Bulk::Stream { seed } => {
                    let mut want = vec![0u64; STREAM_COUNT];
                    SoftwareRandomSource::new(STREAM_N, seed).fill_packed_u64(&mut want);
                    words == want
                }
            };
            if !expected {
                return Err("words differ from the library's".into());
            }
            Ok((micros, words.len() as u64))
        });
        match checked {
            Ok((micros, words)) => {
                self.words += words;
                self.busy += rtt;
                if req.kind == Bulk::Block {
                    self.block_words += words;
                    self.block_ms.push(rtt.as_secs_f64() * 1e3);
                    self.block_server_ms.push(micros as f64 / 1e3);
                } else {
                    self.stream_server_ms.push(micros as f64 / 1e3);
                }
            }
            Err(e) => self
                .errors
                .push(format!("bulk request {} ({}): {e}", req.id, req.body)),
        }
    }
}

#[derive(Default)]
struct SmallOut {
    attempted: u64,
    errors: Vec<String>,
    small_us: Vec<f64>,
    small_server_us: Vec<f64>,
}

impl SmallOut {
    fn record(
        &mut self,
        req: &Request<Small>,
        response: Result<Response, ClientError>,
        rtt: Duration,
        unranker: &mut Unranker,
    ) {
        self.attempted += 1;
        let checked = response.map_err(|e| e.to_string()).and_then(|response| {
            let (doc, micros) = envelope_micros(&response)?;
            let result = doc
                .get("results")
                .and_then(Json::as_array)
                .and_then(|r| r.first())
                .ok_or("envelope without a result")?;
            match &req.kind {
                Small::Unrank { index } => {
                    let want = unranker.unrank(*index);
                    let perm: Option<Vec<u32>> =
                        result.get("perm").and_then(Json::as_array).map(|a| {
                            a.iter()
                                .filter_map(|v| v.as_u64().map(|v| v as u32))
                                .collect()
                        });
                    let packed = result.get("packed").and_then(Json::as_u64);
                    if perm.as_deref() != Some(want.as_slice()) || packed != Some(want.pack_u64()) {
                        return Err(format!("unrank answered {result:?}, want {want:?}"));
                    }
                }
                Small::Rank { perm } => {
                    let want = Permutation::try_from_vec(perm.clone())
                        .map(|p| rank_u64(&p))
                        .map_err(|e| e.to_string())?;
                    if result.get("index").and_then(Json::as_u64) != Some(want) {
                        return Err(format!("rank answered {result:?}, want {want}"));
                    }
                }
            }
            Ok(micros)
        });
        match checked {
            Ok(micros) => {
                self.small_us.push(rtt.as_secs_f64() * 1e6);
                self.small_server_us.push(micros as f64);
            }
            Err(e) => self.errors.push(format!(
                "interactive request {} ({}): {e}",
                req.id, req.body
            )),
        }
    }
}

/// A reported value, with the samples it summarizes (empty for a single
/// reading).
pub type Row<'a> = (&'static str, f64, &'a [f64]);

/// End-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Result<Vec<Row<'_>>, String> {
    let s = &run.samples;
    let setup = crate::stats::quartiles(&run.setup_s).ok_or("fewer than two set-ups")?[1];
    Ok(vec![
        ("setup_s", setup, &run.setup_s),
        ("verify_ms", trimmed_mean(&s.verify_ms)?, &s.verify_ms),
        ("campaign_ms", trimmed_mean(&s.campaign_ms)?, &s.campaign_ms),
        ("prove_ms", trimmed_mean(&s.prove_ms)?, &s.prove_ms),
        ("shuffle_ms", trimmed_mean(&s.shuffle_ms)?, &s.shuffle_ms),
        ("serve_words_per_s", s.serve_words_per_s()?, &[]),
        ("block_ms", trimmed_mean(&s.block_ms)?, &s.block_ms),
        ("block_p90_ms", percentile(&s.block_ms, 90)?, &s.block_ms),
        ("small_p50_us", median(&s.small_us)?, &s.small_us),
        ("small_p90_us", percentile(&s.small_us, 90)?, &s.small_us),
        ("store_build_ms", trimmed_mean(&s.build_ms)?, &s.build_ms),
        ("store_load_ms", trimmed_mean(&s.load_ms)?, &s.load_ms),
        ("peak_rss_mb", host::peak_rss_mib()?, &[]),
    ])
}

impl Samples {
    /// Packed words per second of the bulk client's request time.
    pub fn serve_words_per_s(&self) -> Result<f64, String> {
        if self.bulk_busy.is_zero() {
            return Err("the bulk client received no words".into());
        }
        Ok(self.bulk_words as f64 / self.bulk_busy.as_secs_f64())
    }
}

/// Per-layer metrics that come from the rounds themselves (spans, server
/// envelopes, counters); the isolated probes add the rest.
pub fn per_layer(
    run: &Run,
    spans: &[crate::trace::Span],
) -> Result<Vec<(&'static str, f64)>, String> {
    let s = &run.samples;
    let span_ms = |name: &str| {
        trimmed_mean(&durations_ms(spans, name)).map_err(|e| format!("{name} spans: {e}"))
    };
    let proof = s.proof.ok_or("no proof closed")?;
    let summary = run.summary.as_ref().ok_or("no server summary")?;
    let transport = |rtt: &[f64], server: &[f64]| -> Vec<f64> {
        rtt.iter().zip(server).map(|(r, v)| r - v).collect()
    };
    let block_transport = transport(&s.block_ms, &s.block_server_ms);
    let small_transport = transport(&s.small_us, &s.small_server_us);
    let campaign_s = span_ms("faults.campaign")? / 1e3;
    let prove_s = span_ms("sat.prove")? / 1e3;
    Ok(vec![
        ("circuits.netlist_ms", span_ms("circuits.netlist")?),
        ("factoradic.table_ms", span_ms("factoradic.table")?),
        ("verify.sweep_wide_ms", span_ms("verify.sweep_wide")?),
        ("verify.table_store_ms", span_ms("verify.table_store")?),
        ("faults.universe", CAMPAIGN_VERDICTS.0 as f64),
        (
            "faults.faults_per_s",
            CAMPAIGN_VERDICTS.0 as f64 / campaign_s,
        ),
        ("sat.vars", proof.vars as f64),
        ("sat.clauses", proof.clauses as f64),
        ("sat.conflicts", proof.conflicts as f64),
        ("sat.decisions", proof.decisions as f64),
        ("sat.propagations", proof.propagations as f64),
        (
            "sat.propagations_per_s",
            proof.propagations as f64 / prove_s,
        ),
        ("serve.block_server_ms_p50", median(&s.block_server_ms)?),
        ("serve.block_transport_ms", trimmed_mean(&block_transport)?),
        (
            "serve.block_transport_ms_p90",
            percentile(&block_transport, 90)?,
        ),
        ("serve.small_server_us_p50", median(&s.small_server_us)?),
        (
            "serve.small_server_us_p99",
            percentile(&s.small_server_us, 99)?,
        ),
        ("serve.small_transport_us_p50", median(&small_transport)?),
        ("serve.stream_server_ms_p50", median(&s.stream_server_ms)?),
        (
            "serve.bytes_per_word",
            summary.bytes_out as f64 / run.words_served as f64,
        ),
        ("serve.requests", summary.requests as f64),
        ("store.build_bytes", s.build_bytes as f64),
        ("store.build_write_bytes", median(&s.build_wchar)?),
        ("store.load_read_bytes", median(&s.load_rchar)?),
        (
            "store.serve_read_bytes_per_word",
            s.serve_read_bytes as f64 / s.block_words as f64,
        ),
    ])
}
