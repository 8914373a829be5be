#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Implementation of the `hwperm` command-line tool.
//!
//! All command logic lives here (returning `Result<String, CliError>`)
//! so the test suite can drive it without spawning processes; `main.rs`
//! only does I/O.

use hwperm_bignum::Ubig;
use hwperm_circuits::{
    converter_netlist, families, sweep_ports, ConverterOptions, Family, IndexToPermConverter,
    KnuthShuffleCircuit, SortingNetwork,
};
use hwperm_core::{CircuitRandomSource, RandomPermSource, SoftwareRandomSource};
use hwperm_factoradic::{
    rank, rank_combination, rank_variation, unrank, unrank_combination, unrank_variation,
    IndexedPermutations,
};
use hwperm_logic::{Netlist, ResourceReport, SimProgram, W256, W512};
use hwperm_perm::Permutation;
use hwperm_rng::BiasReport;
use hwperm_store::TableSource;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors reported to the user (exit status 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text printed by `hwperm help`.
pub const USAGE: &str = "\
hwperm — index ↔ permutation conversion (Butler & Sasao, RAW 2012)

usage: hwperm <command> [args]

  unrank <n> <index>             the <index>-th permutation of {0..n-1}
  rank <e0> <e1> ...             lexicographic index of a permutation
  combination <n> <k> <index>    the <index>-th k-combination
  rank-combination <n> <e...>    index of a sorted k-combination
  variation <n> <k> <index>      the <index>-th ordered k-selection
  rank-variation <n> <e...>      index of an ordered k-selection
  random <n> [count] [seed]      uniform random permutations (software)
  random-circuit <n> [count]     random permutations from the Fig. 3 netlist
  all <n> [start] [end]          list permutations by index range
  resources <circuit> <n>        LUT/ALM/register estimate
                                 (circuit: converter | converter-pipelined |
                                  shuffle | shuffle-pipelined | rank |
                                  combination | variation | sort |
                                  random-index)
  lint <circuit|all> <n> [--json]  static analysis of a generated netlist
                                 (circuit: converter | converter-pipelined |
                                  shuffle | shuffle-pipelined | rank |
                                  combination | variation | sort |
                                  random-index | all; exit 2 if any
                                  Error-severity diagnostic fires;
                                  one-hot proofs escalate from BDD to
                                  SAT, and index-port families carry the
                                  range contract index < total for the
                                  range-dont-care pass; --json rows
                                  include the fused tape's op counts,
                                  levels, and fusion savings)
  prove <n> [--family F] [--jobs N] [--store D] [--json]
                                 SAT proof obligations over the compiled
                                 tape: converter table conformance vs
                                 the block-decoded oracle (--store D
                                 loads the oracle table from a
                                 persisted store instead — it must be
                                 built and intact, never a silent
                                 recompute), pipelined
                                 converter k-step unrolling vs its
                                 combinational twin, rank ∘ unrank
                                 identity, combination / variation table
                                 conformance (family: converter |
                                 converter-pipelined | rank |
                                 combination | variation | all; default
                                 converter; n = 2..=9, the n ≥ 8
                                 converter table proof takes minutes;
                                 exit 2 on refuted or invalid
                                 obligations, counterexamples decode to
                                 the exhaustive sweeps' first-mismatch
                                 format)
  bias <m> <k>                   pigeonhole bias of an m-bit LFSR over [0,k)
  sort <key> <key> ...           sort through the selection network
  faults <n> [--family F] [--jobs N] [--width W] [--json]
                                 single-stuck-at fault campaign against
                                 the exhaustive oracle (family:
                                 converter | rank | combination |
                                 variation | sort | all; default
                                 converter); --width W retires W faults
                                 per tape walk (64 | 256 | 512, default
                                 512 — verdicts are byte-identical at
                                 every width); reports detected /
                                 silent / masked verdicts, coverage
                                 percentages, and every silent fault's
                                 witness
  verify <n> [--batch] [--jobs N] [--width W] [--store D]
                                 netlist vs software cross-check
                                 (--batch: word-level gate sweep of the
                                  fused converter tape, one index per
                                  lane; --width W lanes per pass (64 |
                                  256 | 512, default 512); --jobs N:
                                  shard the batched sweep over N worker
                                  threads — reports the same
                                  lowest-index first mismatch as the
                                  sequential sweep; --store D: load the
                                  expectation table from a persisted
                                  store built by `hwperm store build`
                                  instead of recomputing it —
                                  byte-identical words, identical
                                  witnesses)
  verilog <circuit> <n>          emit synthesizable structural Verilog
                                 (circuit: as for resources; the module
                                  is named <module>_<n>, e.g.
                                  index_to_perm_4 for converter 4)
  serve <addr> [--workers N] [--chunk N] [--store D] [--max-conns N]
        [--idle-timeout-ms T] [--request-deadline-ms T]
                                 permutation-as-a-service: long-running
                                 socket server (addr: host:port, port 0
                                 for ephemeral, or a filesystem path
                                 for a Unix socket) speaking
                                 length-prefixed JSON + binary frames;
                                 requests: unrank | rank | block |
                                 random-stream | verify | stats |
                                 shutdown, multiplexed over a sharded
                                 worker pool (--workers, default 4);
                                 --chunk sets the default packed words
                                 per binary frame (default 8192);
                                 --store D streams verify tables and
                                 block words from a persisted oracle
                                 store when its tables are warm (cold
                                 tables compute, broken tables fail
                                 loudly; wire bytes identical);
                                 hostile-network hardening:
                                 --max-conns N sheds connections past N
                                 with a pinned busy envelope,
                                 --idle-timeout-ms T reaps silent /
                                 trickling connections and deadlines
                                 socket writes, --request-deadline-ms T
                                 cancels long requests between chunks
                                 with a pinned deadline error;
                                 prints \"listening on <addr>\" once
                                 ready, runs until a shutdown request
  client <addr> <request-json> [--retries N] [--backoff-ms T]
                                 send one request to a running server
                                 and print its response envelope (and
                                 a binary chunk tally for block /
                                 random-stream); exit 2 when the
                                 envelope reports an error;
                                 --retries N replays *idempotent*
                                 requests (unrank | rank | block |
                                 verify | stats — never random-stream)
                                 up to N attempts with exponential
                                 --backoff-ms (default 50) and
                                 deterministic jitter, reconnecting
                                 between attempts
  store build|verify|stat <n> [--dir D] [--jobs N] [--json]
                                 persisted oracle store management
                                 (default --dir hwperm-store):
                                 build generates the n-table through
                                 the sharded block decoder as chunked,
                                 content-hashed files — atomic writes,
                                 manifest-backed, resumable after a
                                 kill (--jobs N build workers);
                                 verify re-reads every chunk and
                                 checks headers, hashes and manifest;
                                 stat reports table state; n = 1..=9
  help                           this text
";

/// Every registered family `hwperm prove` has an obligation for. The
/// obligations and their oracles live in `hwperm-verify`, so this list
/// stays here rather than in the circuit registry.
const PROVE_FAMILIES: [&str; 5] = [
    "converter",
    "converter-pipelined",
    "rank",
    "combination",
    "variation",
];

/// The registered circuit family called `name`; an unknown name is a
/// user error.
fn circuit(name: &str) -> Result<&'static Family, CliError> {
    hwperm_circuits::family(name).ok_or_else(|| err(format!("unknown circuit {name:?}")))
}

/// Builds the registered family `name` at size `n`.
fn build(name: &str, n: usize) -> Netlist {
    (hwperm_circuits::family(name)
        .expect("a registered family")
        .build)(n)
}

/// Renders the family choices of a usage error: `a | b | … | all`.
fn choices<'a>(names: impl IntoIterator<Item = &'a str>) -> String {
    names
        .into_iter()
        .chain(["all"])
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Discharges the named family's proof obligation at size `n`,
/// returning the obligation's description and the solver's verdict.
/// The converter obligation's oracle table comes from `store` when one
/// is given (a missing or broken store is an error, never a silent
/// recompute) and is block-decoded otherwise — byte-identical words.
fn prove_family(
    family: &str,
    n: usize,
    store: Option<&Path>,
) -> Result<(&'static str, hwperm_verify::ProveOutcome), CliError> {
    // The registry builds combination and variation at k = ⌈n/2⌉.
    let k = n.div_ceil(2);
    let factorial: u64 = (1..=n as u64).product();
    let fail = |e: hwperm_verify::VerifyError| err(format!("{family}: invalid obligation: {e}"));
    let netlist = build(family, n);
    match family {
        "converter" => {
            let source = match store {
                Some(dir) => TableSource::Store {
                    dir: dir.to_path_buf(),
                },
                None => TableSource::Computed { workers: 1 },
            };
            let expected = source
                .permutation_words(n)
                .map_err(|e| err(format!("{family}: store error: {e}")))?;
            let out = hwperm_verify::prove_against_table(&netlist, "index", "perm", &expected)
                .map_err(fail)?;
            Ok(("table conformance vs block-decoded oracle", out))
        }
        "converter-pipelined" => {
            let out = hwperm_verify::prove_pipelined_equivalent(
                &netlist,
                &build("converter", n),
                "index",
                "perm",
                n - 1,
                factorial,
                None,
            )
            .map_err(fail)?;
            Ok(("k-step unrolling vs combinational twin", out))
        }
        "rank" => {
            let conv = build("converter", n);
            let out = hwperm_verify::prove_inverse_identity(
                &conv, "index", "perm", &netlist, "perm", "index", factorial, None,
            )
            .map_err(fail)?;
            Ok(("rank ∘ unrank identity over all indices", out))
        }
        "combination" => {
            let expected = hwperm_verify::expected_combination_words(n, k);
            let out = hwperm_verify::prove_against_table(&netlist, "index", "codeword", &expected)
                .map_err(fail)?;
            Ok(("table conformance vs software unranker", out))
        }
        "variation" => {
            let expected = hwperm_verify::expected_variation_words(n, k);
            let out = hwperm_verify::prove_against_table(&netlist, "index", "out", &expected)
                .map_err(fail)?;
            Ok(("table conformance vs software unranker", out))
        }
        other => unreachable!("{other:?} is not in PROVE_FAMILIES"),
    }
}

/// Wraps a subcommand's JSON result objects in the envelope shared by
/// `lint --json`, `faults --json` and `prove --json`: tool identity,
/// version, subcommand, exit status, and the per-circuit results.
fn json_envelope(command: &str, errors: usize, results: &str) -> String {
    let (status, exit) = if errors == 0 { ("ok", 0) } else { ("error", 2) };
    format!(
        "{{\"tool\":\"hwperm\",\"version\":\"{}\",\"command\":\"{command}\",\
         \"status\":\"{status}\",\"exit\":{exit},\"errors\":{errors},\
         \"results\":[{results}]}}\n",
        env!("CARGO_PKG_VERSION"),
    )
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CliError> {
    s.parse().map_err(|_| err(format!("invalid {what}: {s:?}")))
}

/// Parses a `--width` value into a lane count. Only the three compiled
/// word widths exist — 64 (`u64`), 256 ([`W256`]), 512 ([`W512`]) —
/// anything else is a user error (exit 2).
fn parse_width(s: &str) -> Result<usize, CliError> {
    match s {
        "64" => Ok(64),
        "256" => Ok(256),
        "512" => Ok(512),
        other => Err(err(format!(
            "invalid --width {other:?} (widths: 64 | 256 | 512)"
        ))),
    }
}

/// The default `--width`: the widest compiled word. The wide words
/// autovectorize, so more lanes per tape walk is the fastest choice on
/// every target; `--width 64` remains for baselining.
const DEFAULT_WIDTH: usize = 512;

/// Renders [`TapeStats`](hwperm_logic::TapeStats) for a fused compile
/// of `netlist` as a JSON object — the `"tape"` field of each
/// `lint --json` result row.
fn tape_stats_json(netlist: Netlist) -> String {
    let stats = SimProgram::compile_fused(netlist).stats();
    let op_counts = stats
        .op_counts
        .iter()
        .map(|(name, count)| format!("\"{name}\":{count}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"ops\":{},\"unfused_ops\":{},\"fused_away\":{},\
         \"levels\":{},\"blocks\":{},\"op_counts\":{{{op_counts}}}}}",
        stats.ops,
        stats.unfused_ops,
        stats.fused_away(),
        stats.levels,
        stats.blocks,
    )
}

/// Renders a [`LintReport`](hwperm_lint::LintReport) as a JSON object
/// — the `"report"` field of each `lint --json` result row.
fn lint_report_json(report: &hwperm_lint::LintReport) -> String {
    use hwperm_lint::Severity;
    use hwperm_serve::json::escape;
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            let nets: Vec<String> = d.nets.iter().map(|n| n.to_string()).collect();
            let ports: Vec<String> = d
                .ports
                .iter()
                .map(|p| format!("\"{}\"", escape(p)))
                .collect();
            format!(
                "{{\"lint\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\
                 \"nets\":[{}],\"ports\":[{}]}}",
                d.lint,
                d.severity,
                escape(&d.message),
                nets.join(","),
                ports.join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[{diagnostics}]}}",
        report.error_count(),
        report.count(Severity::Warn),
        report.count(Severity::Info)
    )
}

fn parse_ubig(s: &str, what: &str) -> Result<Ubig, CliError> {
    Ubig::from_decimal(s).map_err(|e| err(format!("invalid {what} {s:?}: {e}")))
}

fn parse_perm(args: &[String]) -> Result<Permutation, CliError> {
    let v: Vec<u32> = args
        .iter()
        .map(|s| s.parse().map_err(|_| err(format!("invalid element {s:?}"))))
        .collect::<Result<_, _>>()?;
    Permutation::try_from_vec(v).map_err(|e| err(e.to_string()))
}

/// Executes one command; `args` excludes the program name.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "unrank" => {
            let [n, index] = rest else {
                return Err(err("usage: hwperm unrank <n> <index>"));
            };
            let n = parse_usize(n, "n")?;
            let index = parse_ubig(index, "index")?;
            if index >= Ubig::factorial(n as u64) {
                return Err(err(format!("index must be below {n}!")));
            }
            Ok(format!("{}\n", unrank(n, &index)))
        }
        "rank" => {
            let perm = parse_perm(rest)?;
            Ok(format!("{}\n", rank(&perm)))
        }
        "combination" => {
            let [n, k, index] = rest else {
                return Err(err("usage: hwperm combination <n> <k> <index>"));
            };
            let (n, k) = (parse_usize(n, "n")?, parse_usize(k, "k")?);
            if k > n {
                return Err(err(format!("k = {k} exceeds n = {n}")));
            }
            let index = parse_ubig(index, "index")?;
            if index >= hwperm_factoradic::binomial(n as u64, k as u64) {
                return Err(err(format!("index must be below C({n}, {k})")));
            }
            let c = unrank_combination(n, k, &index);
            Ok(format!("{}\n", join(&c)))
        }
        "rank-combination" => {
            let [n, elems @ ..] = rest else {
                return Err(err("usage: hwperm rank-combination <n> <e0> <e1> ..."));
            };
            let n = parse_usize(n, "n")?;
            let v: Vec<u32> = elems
                .iter()
                .map(|s| s.parse().map_err(|_| err(format!("invalid element {s:?}"))))
                .collect::<Result<_, _>>()?;
            if !v.windows(2).all(|w| w[0] < w[1]) || v.iter().any(|&e| e as usize >= n) {
                return Err(err("elements must be strictly increasing and < n"));
            }
            Ok(format!("{}\n", rank_combination(n, &v)))
        }
        "variation" => {
            let [n, k, index] = rest else {
                return Err(err("usage: hwperm variation <n> <k> <index>"));
            };
            let (n, k) = (parse_usize(n, "n")?, parse_usize(k, "k")?);
            if k > n {
                return Err(err(format!("k = {k} exceeds n = {n}")));
            }
            let index = parse_ubig(index, "index")?;
            if index >= hwperm_factoradic::falling_factorial(n as u64, k as u64) {
                return Err(err("index must be below n!/(n-k)!".to_string()));
            }
            Ok(format!("{}\n", join(&unrank_variation(n, k, &index))))
        }
        "rank-variation" => {
            let [n, elems @ ..] = rest else {
                return Err(err("usage: hwperm rank-variation <n> <e0> <e1> ..."));
            };
            let n = parse_usize(n, "n")?;
            let v: Vec<u32> = elems
                .iter()
                .map(|s| s.parse().map_err(|_| err(format!("invalid element {s:?}"))))
                .collect::<Result<_, _>>()?;
            let distinct: std::collections::HashSet<_> = v.iter().collect();
            if distinct.len() != v.len() || v.iter().any(|&e| e as usize >= n) {
                return Err(err("elements must be distinct and < n"));
            }
            Ok(format!("{}\n", rank_variation(n, &v)))
        }
        "random" => {
            let n = parse_usize(
                rest.first()
                    .ok_or_else(|| err("usage: hwperm random <n> [count] [seed]"))?,
                "n",
            )?;
            let count: usize = rest.get(1).map_or(Ok(1), |s| parse_usize(s, "count"))?;
            let seed: u64 = rest
                .get(2)
                .map_or(Ok(0xD1CE), |s| s.parse().map_err(|_| err("invalid seed")))?;
            let mut src = SoftwareRandomSource::new(n, seed);
            Ok(render_random(&mut src, count))
        }
        "random-circuit" => {
            let n = parse_usize(
                rest.first()
                    .ok_or_else(|| err("usage: hwperm random-circuit <n> [count]"))?,
                "n",
            )?;
            if n < 2 {
                return Err(err("circuit generation requires n >= 2"));
            }
            let count: usize = rest.get(1).map_or(Ok(1), |s| parse_usize(s, "count"))?;
            let mut src = CircuitRandomSource::new(n);
            Ok(render_random(&mut src, count))
        }
        "all" => {
            let n = parse_usize(
                rest.first()
                    .ok_or_else(|| err("usage: hwperm all <n> [start] [end]"))?,
                "n",
            )?;
            let start = rest
                .get(1)
                .map_or(Ok(Ubig::zero()), |s| parse_ubig(s, "start"))?;
            let end = rest
                .get(2)
                .map_or(Ok(Ubig::factorial(n as u64)), |s| parse_ubig(s, "end"))?;
            if start > Ubig::factorial(n as u64) {
                return Err(err("start beyond n!"));
            }
            let mut out = String::new();
            for (index, perm) in IndexedPermutations::new(n, start, end) {
                out.push_str(&format!("{index:>6}  {perm}\n"));
            }
            Ok(out)
        }
        "resources" => {
            let [name, n] = rest else {
                return Err(err("usage: hwperm resources <circuit> <n>"));
            };
            let n = parse_usize(n, "n")?;
            if n < 2 {
                return Err(err("circuits require n >= 2"));
            }
            let report = ResourceReport::of(&(circuit(name)?.build)(n));
            Ok(format!("{report}\n"))
        }
        "lint" => {
            let (json, rest): (bool, Vec<&String>) = {
                let flags: Vec<&String> = rest.iter().filter(|a| *a == "--json").collect();
                (
                    !flags.is_empty(),
                    rest.iter().filter(|a| *a != "--json").collect(),
                )
            };
            let [name, n] = rest.as_slice() else {
                return Err(err("usage: hwperm lint <circuit|all> <n> [--json]"));
            };
            let n = parse_usize(n, "n")?;
            if n < 2 {
                return Err(err("circuits require n >= 2"));
            }
            let chosen: Vec<&Family> = if name.as_str() == "all" {
                families().iter().collect()
            } else {
                vec![circuit(name)?]
            };
            let mut out = String::new();
            let mut errors = 0usize;
            for (i, family) in chosen.iter().enumerate() {
                let netlist = (family.build)(n);
                let mut config = hwperm_lint::LintConfig::new();
                if let Some(bound) = family.index_bound.and_then(|bound| bound(n).to_u64()) {
                    config = config.with_range_bound("index", bound);
                }
                let report = hwperm_lint::lint_netlist_with(&netlist, &config);
                errors += report.error_count();
                if json {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"circuit\":\"{}\",\"n\":{n},\"tape\":{},\"report\":{}}}",
                        family.name,
                        tape_stats_json(netlist),
                        lint_report_json(&report)
                    ));
                } else {
                    out.push_str(&format!("== {} (n = {n}) ==\n{report}", family.name));
                }
            }
            if json {
                out = json_envelope("lint", errors, &out);
            }
            if errors > 0 {
                return Err(err(format!(
                    "lint found {errors} error(s)\n{}",
                    out.trim_end()
                )));
            }
            Ok(out)
        }
        "bias" => {
            let [m, k] = rest else {
                return Err(err("usage: hwperm bias <m> <k>"));
            };
            let m = parse_usize(m, "m")?;
            let k: u64 = k.parse().map_err(|_| err("invalid k"))?;
            if !(2..=63).contains(&m) {
                return Err(err("m must be 2..=63"));
            }
            if k == 0 || k as u128 >= (1u128 << m) {
                return Err(err("k must be in 1..2^m"));
            }
            let r = BiasReport::analytic(m, k);
            Ok(format!(
                "m = {m}, k = {k}: counts {}..{}, ratio {:.6}, difference {:.6}%\n",
                r.min_count,
                r.max_count,
                r.probability_ratio(),
                r.difference_percent()
            ))
        }
        "sort" => {
            let keys: Vec<u64> = rest
                .iter()
                .map(|s| s.parse().map_err(|_| err(format!("invalid key {s:?}"))))
                .collect::<Result<_, _>>()?;
            if keys.len() < 2 {
                return Err(err("need at least two keys"));
            }
            let width = keys
                .iter()
                .map(|&k| (64 - k.leading_zeros()) as usize)
                .max()
                .unwrap()
                .max(1);
            if width > 63 {
                return Err(err("keys must fit 63 bits"));
            }
            let mut sorter = SortingNetwork::new(keys.len(), width);
            let sorted = sorter.sort(&keys);
            Ok(format!(
                "{}\n",
                sorted
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            ))
        }
        "verilog" => {
            let [name, n] = rest else {
                return Err(err(format!(
                    "usage: hwperm verilog <circuit> <n>  (circuit: {})",
                    families()
                        .iter()
                        .map(|f| f.name)
                        .collect::<Vec<_>>()
                        .join(" | ")
                )));
            };
            let n = parse_usize(n, "n")?;
            if n < 2 {
                return Err(err("circuits require n >= 2"));
            }
            let family = circuit(name)?;
            Ok(hwperm_logic::to_verilog(
                &(family.build)(n),
                &format!("{}_{n}", family.module),
            ))
        }
        "serve" => {
            const SERVE_USAGE: &str = "usage: hwperm serve <addr> [--workers N] [--chunk N] \
                 [--store D] [--max-conns N] [--idle-timeout-ms T] [--request-deadline-ms T]";
            let mut workers = 4usize;
            let mut chunk = hwperm_serve::DEFAULT_CHUNK;
            let mut store: Option<PathBuf> = None;
            let mut max_conns = 0usize;
            let mut idle_timeout_ms: Option<u64> = None;
            let mut request_deadline_ms: Option<u64> = None;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--workers" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--workers needs a thread count"))?;
                        workers = parse_usize(v, "worker count")?;
                        if !(1..=64).contains(&workers) {
                            return Err(err("--workers must be 1..=64"));
                        }
                    }
                    "--chunk" => {
                        let v = it.next().ok_or_else(|| err("--chunk needs a word count"))?;
                        chunk = parse_usize(v, "chunk size")?;
                        if !(1..=hwperm_serve::CHUNK_CAP).contains(&chunk) {
                            return Err(err(format!(
                                "--chunk must be 1..={}",
                                hwperm_serve::CHUNK_CAP
                            )));
                        }
                    }
                    "--store" => {
                        let v = it.next().ok_or_else(|| err("--store needs a directory"))?;
                        store = Some(PathBuf::from(v));
                    }
                    "--max-conns" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--max-conns needs a connection count"))?;
                        max_conns = parse_usize(v, "connection limit")?;
                        if !(1..=100_000).contains(&max_conns) {
                            return Err(err("--max-conns must be 1..=100000"));
                        }
                    }
                    "--idle-timeout-ms" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--idle-timeout-ms needs a duration"))?;
                        let ms = parse_usize(v, "idle timeout")? as u64;
                        if !(1..=3_600_000).contains(&ms) {
                            return Err(err("--idle-timeout-ms must be 1..=3600000"));
                        }
                        idle_timeout_ms = Some(ms);
                    }
                    "--request-deadline-ms" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--request-deadline-ms needs a duration"))?;
                        let ms = parse_usize(v, "request deadline")? as u64;
                        if !(1..=3_600_000).contains(&ms) {
                            return Err(err("--request-deadline-ms must be 1..=3600000"));
                        }
                        request_deadline_ms = Some(ms);
                    }
                    _ => positional.push(arg),
                }
            }
            let [addr] = positional[..] else {
                return Err(err(SERVE_USAGE));
            };
            let listener = if addr.contains('/') {
                #[cfg(unix)]
                {
                    hwperm_serve::Listener::bind_unix(addr.as_str())
                        .map_err(|e| err(format!("cannot bind {addr}: {e}")))?
                }
                #[cfg(not(unix))]
                return Err(err("Unix-socket paths need a Unix platform"));
            } else {
                hwperm_serve::Listener::bind_tcp(addr.as_str())
                    .map_err(|e| err(format!("cannot bind {addr}: {e}")))?
            };
            let endpoint = listener
                .endpoint()
                .map_err(|e| err(format!("cannot resolve endpoint: {e}")))?;
            // Announce readiness on stdout *before* blocking in the
            // accept loop: with port 0 this line is how callers (and
            // the e2e test) learn the actual ephemeral port.
            {
                use std::io::Write as _;
                println!("listening on {endpoint}");
                let _ = std::io::stdout().flush();
            }
            let summary = hwperm_serve::serve(
                listener,
                hwperm_serve::ServeOptions {
                    workers,
                    default_chunk: chunk,
                    fixed_micros: None,
                    store_dir: store,
                    max_conns,
                    idle_timeout_ms,
                    request_deadline_ms,
                },
            )
            .map_err(|e| err(format!("serve failed: {e}")))?;
            Ok(format!("{summary}\n"))
        }
        "client" => {
            const CLIENT_USAGE: &str =
                "usage: hwperm client <addr> <request-json> [--retries N] [--backoff-ms T]";
            let mut retries = 1usize;
            let mut backoff_ms = 50u64;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--retries" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--retries needs an attempt count"))?;
                        retries = parse_usize(v, "retry count")?;
                        if !(1..=100).contains(&retries) {
                            return Err(err("--retries must be 1..=100"));
                        }
                    }
                    "--backoff-ms" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--backoff-ms needs a duration"))?;
                        backoff_ms = parse_usize(v, "backoff")? as u64;
                        if !(1..=60_000).contains(&backoff_ms) {
                            return Err(err("--backoff-ms must be 1..=60000"));
                        }
                    }
                    _ => positional.push(arg),
                }
            }
            let [addr, request] = positional[..] else {
                return Err(err(CLIENT_USAGE));
            };
            if request.trim().is_empty() {
                return Err(err(CLIENT_USAGE));
            }
            let endpoint;
            if addr.contains('/') {
                #[cfg(unix)]
                {
                    endpoint = hwperm_serve::Endpoint::Unix(PathBuf::from(addr));
                }
                #[cfg(not(unix))]
                {
                    return Err(err("Unix-socket paths need a Unix platform"));
                }
            } else {
                use std::net::ToSocketAddrs as _;
                let resolved = addr
                    .to_socket_addrs()
                    .map_err(|e| err(format!("invalid address {addr:?}: {e}")))?
                    .next()
                    .ok_or_else(|| err(format!("invalid address {addr:?}: no socket address")))?;
                endpoint = hwperm_serve::Endpoint::Tcp(resolved);
            }
            // `--retries 1` (the default) is exactly the old behavior:
            // one attempt, fail loudly. More attempts replay idempotent
            // requests with exponential backoff and reconnect.
            let policy = hwperm_serve::RetryPolicy {
                max_attempts: retries as u32,
                backoff_ms,
                ..hwperm_serve::RetryPolicy::default()
            };
            let mut client = hwperm_serve::RetryClient::new(endpoint, policy);
            let response = client.request(request).map_err(|e| {
                let stats = client.stats();
                err(format!(
                    "request to {addr} failed after {} attempt(s): {e}",
                    stats.attempts
                ))
            })?;
            let envelope = String::from_utf8(response.envelope.clone())
                .map_err(|_| err("server sent a non-UTF-8 envelope"))?;
            let mut out = envelope.trim_end().to_string();
            out.push('\n');
            if !response.chunks.is_empty() {
                out.push_str(&format!(
                    "binary: {} chunk(s), {} word(s)\n",
                    response.chunks.len(),
                    response.words().len(),
                ));
            }
            if response.is_ok() {
                Ok(out)
            } else {
                // Error envelopes still print, but as a CLI error so
                // scripts see exit 2 — matching every other subcommand.
                Err(err(out.trim_end().to_string()))
            }
        }
        "store" => {
            const STORE_USAGE: &str =
                "usage: hwperm store <build|verify|stat> <n> [--dir D] [--jobs N] [--json]";
            let mut json = false;
            let mut jobs = 1usize;
            let mut jobs_given = false;
            let mut dir: Option<&String> = None;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--jobs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--jobs needs a worker count"))?;
                        jobs = parse_usize(v, "worker count")?;
                        if !(1..=64).contains(&jobs) {
                            return Err(err("--jobs must be 1..=64"));
                        }
                        jobs_given = true;
                    }
                    "--dir" => {
                        dir = Some(it.next().ok_or_else(|| err("--dir needs a directory"))?);
                    }
                    _ => positional.push(arg),
                }
            }
            let &[action, n] = positional.as_slice() else {
                return Err(err(STORE_USAGE));
            };
            let n = parse_usize(n, "n")?;
            if !(1..=hwperm_store::MAX_STORE_N).contains(&n) {
                return Err(err(format!(
                    "store tables hold the full n! word table; n must be 1..={}",
                    hwperm_store::MAX_STORE_N
                )));
            }
            if jobs_given && action != "build" {
                return Err(err("--jobs only applies to store build"));
            }
            let dir = dir.map_or_else(|| PathBuf::from("hwperm-store"), PathBuf::from);
            let store_fail = |e: hwperm_store::StoreError| err(format!("store error: {e}"));
            let (text, row) = match action.as_str() {
                "build" => {
                    let report = hwperm_store::build(
                        &dir,
                        n,
                        &hwperm_store::BuildOptions {
                            jobs,
                            ..hwperm_store::BuildOptions::default()
                        },
                    )
                    .map_err(store_fail)?;
                    (
                        format!(
                            "store build n = {n}: {} chunk(s) ({} built, {} resumed), \
                             {} byte(s) written, complete, {}\n",
                            report.chunks_total,
                            report.built,
                            report.resumed,
                            report.bytes_written,
                            report.dir.display(),
                        ),
                        format!(
                            "{{\"action\":\"build\",\"n\":{n},\"dir\":\"{}\",\
                             \"chunks\":{},\"built\":{},\"resumed\":{},\
                             \"bytes_written\":{},\"complete\":{}}}",
                            hwperm_serve::json::escape(&report.dir.display().to_string()),
                            report.chunks_total,
                            report.built,
                            report.resumed,
                            report.bytes_written,
                            report.complete,
                        ),
                    )
                }
                "verify" => {
                    let report = hwperm_store::verify_store(&dir, n).map_err(store_fail)?;
                    (
                        format!(
                            "store verify n = {n}: OK — {} chunk(s), {} word(s), \
                             {} byte(s) validated\n",
                            report.chunks, report.words, report.bytes,
                        ),
                        format!(
                            "{{\"action\":\"verify\",\"n\":{n},\"chunks\":{},\
                             \"words\":{},\"bytes\":{},\"verdict\":\"ok\"}}",
                            report.chunks, report.words, report.bytes,
                        ),
                    )
                }
                "stat" => match hwperm_store::stat(&dir, n).map_err(store_fail)? {
                    Some(s) => (
                        format!(
                            "store stat n = {n}: {} — {}/{} chunk(s) of {} word(s) \
                             ({} words/chunk), {} byte(s)\n",
                            if s.complete { "complete" } else { "partial" },
                            s.chunks_present,
                            s.chunks_total,
                            s.total_words,
                            s.chunk_words,
                            s.bytes,
                        ),
                        format!(
                            "{{\"action\":\"stat\",\"n\":{n},\"present\":true,\
                             \"complete\":{},\"chunks\":{},\"chunks_present\":{},\
                             \"chunk_words\":{},\"total_words\":{},\"bytes\":{}}}",
                            s.complete,
                            s.chunks_total,
                            s.chunks_present,
                            s.chunk_words,
                            s.total_words,
                            s.bytes,
                        ),
                    ),
                    None => (
                        format!("store stat n = {n}: not built\n"),
                        format!("{{\"action\":\"stat\",\"n\":{n},\"present\":false}}"),
                    ),
                },
                other => {
                    return Err(err(format!(
                        "unknown store action {other:?} (actions: build | verify | stat)"
                    )))
                }
            };
            if json {
                Ok(json_envelope("store", 0, &row))
            } else {
                Ok(text)
            }
        }
        "faults" => {
            const FAULTS_USAGE: &str =
                "usage: hwperm faults <n> [--family F] [--jobs N] [--width W] [--json]";
            let mut json = false;
            let mut jobs = 1usize;
            let mut width = DEFAULT_WIDTH;
            let mut family: Option<&String> = None;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--jobs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--jobs needs a worker count"))?;
                        let v = parse_usize(v, "worker count")?;
                        if v == 0 {
                            return Err(err("--jobs needs at least one worker"));
                        }
                        jobs = v;
                    }
                    "--width" => {
                        let v = it.next().ok_or_else(|| err("--width needs a lane count"))?;
                        width = parse_width(v)?;
                    }
                    "--family" => {
                        family = Some(
                            it.next()
                                .ok_or_else(|| err("--family needs a circuit family"))?,
                        );
                    }
                    _ => positional.push(arg),
                }
            }
            let n = parse_usize(positional.first().ok_or_else(|| err(FAULTS_USAGE))?, "n")?;
            if !(2..=5).contains(&n) {
                return Err(err(
                    "fault campaigns sweep every fault against every input; n must be 2..=5",
                ));
            }
            // A family can be campaigned when its netlist is purely
            // combinational with one input and one output port.
            let mut campaign: Vec<(&str, Netlist)> = families()
                .iter()
                .map(|f| (f.name, (f.build)(n)))
                .filter(|(_, netlist)| sweep_ports(netlist).is_some())
                .collect();
            let names = choices(campaign.iter().map(|(name, _)| *name));
            let wanted = family.map_or("converter", |f| f.as_str());
            campaign.retain(|(name, _)| wanted == "all" || *name == wanted);
            if campaign.is_empty() {
                return Err(err(format!(
                    "unknown campaign family {wanted:?} (families: {names})"
                )));
            }
            let mut out = String::new();
            for (i, (fam, netlist)) in campaign.iter().enumerate() {
                let (input, output) = sweep_ports(netlist).expect("a campaign family");
                // The converter checks against the independent
                // block-decoded oracle plus the packed-permutation
                // validity guard; the other families self-golden
                // against their fault-free sweep. The campaign retires
                // `width` faults per tape walk; verdicts are
                // byte-identical at every width.
                let run =
                    |expected: &[u64], valid: Option<&(dyn Fn(u64) -> bool + Sync)>| match width {
                        64 => hwperm_verify::stuck_at_campaign_wide::<u64>(
                            netlist, input, output, expected, valid, jobs,
                        ),
                        256 => hwperm_verify::stuck_at_campaign_wide::<W256>(
                            netlist, input, output, expected, valid, jobs,
                        ),
                        _ => hwperm_verify::stuck_at_campaign_wide::<W512>(
                            netlist, input, output, expected, valid, jobs,
                        ),
                    };
                let report = if *fam == "converter" {
                    let expected = hwperm_verify::expected_permutation_words(n);
                    let valid = move |word: u64| hwperm_perm::packed_is_permutation_u64(n, word);
                    run(&expected, Some(&valid))
                } else {
                    let golden = hwperm_verify::golden_output_words(netlist, input, output);
                    run(&golden, None)
                };
                let silent: Vec<(String, u64)> = report
                    .silent_faults()
                    .map(|v| {
                        let hwperm_verify::FaultOutcome::Silent { witness } = v.outcome else {
                            unreachable!("silent_faults yields only silent verdicts");
                        };
                        (v.fault.to_string(), witness)
                    })
                    .collect();
                if json {
                    if i > 0 {
                        out.push(',');
                    }
                    let silent_json = silent
                        .iter()
                        .map(|(fault, witness)| {
                            format!("{{\"fault\":\"{fault}\",\"witness\":{witness}}}")
                        })
                        .collect::<Vec<_>>()
                        .join(",");
                    out.push_str(&format!(
                        "{{\"circuit\":\"{fam}\",\"n\":{n},\"workers\":{jobs},\
                         \"width\":{width},\
                         \"faults\":{},\"detected\":{},\"silent\":{},\"masked\":{},\
                         \"coverage_percent\":{:.2},\"guard_coverage_percent\":{:.2},\
                         \"silent_faults\":[{silent_json}]}}",
                        report.total(),
                        report.detected(),
                        report.silent(),
                        report.masked(),
                        report.coverage_percent(),
                        report.guard_coverage_percent(),
                    ));
                } else {
                    out.push_str(&format!(
                        "== {fam} (n = {n}) ==\n\
                         single-stuck-at universe: {} faults\n\
                         detected {} | silent {} | masked {}\n\
                         fault coverage {:.2}% | guard coverage {:.2}%\n",
                        report.total(),
                        report.detected(),
                        report.silent(),
                        report.masked(),
                        report.coverage_percent(),
                        report.guard_coverage_percent(),
                    ));
                    if silent.is_empty() {
                        out.push_str("silent faults: none\n");
                    } else {
                        out.push_str("silent faults:\n");
                        for (fault, witness) in &silent {
                            out.push_str(&format!("  {fault} — witness index {witness}\n"));
                        }
                    }
                }
            }
            if json {
                out = json_envelope("faults", 0, &out);
            }
            Ok(out)
        }
        "prove" => {
            const PROVE_USAGE: &str =
                "usage: hwperm prove <n> [--family F] [--jobs N] [--store D] [--json]";
            let mut json = false;
            let mut jobs = 1usize;
            let mut family: Option<&String> = None;
            let mut store: Option<&String> = None;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--jobs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--jobs needs a worker count"))?;
                        let v = parse_usize(v, "worker count")?;
                        if v == 0 {
                            return Err(err("--jobs needs at least one worker"));
                        }
                        jobs = v;
                    }
                    "--family" => {
                        family = Some(
                            it.next()
                                .ok_or_else(|| err("--family needs a circuit family"))?,
                        );
                    }
                    "--store" => {
                        store = Some(it.next().ok_or_else(|| err("--store needs a directory"))?);
                    }
                    _ => positional.push(arg),
                }
            }
            let store = store.map(Path::new);
            let n = parse_usize(positional.first().ok_or_else(|| err(PROVE_USAGE))?, "n")?;
            if !(2..=9).contains(&n) {
                return Err(err(
                    "proof obligations need the n! oracle tables; n must be 2..=9",
                ));
            }
            let families: Vec<&str> = match family.map(|s| s.as_str()) {
                None => vec!["converter"],
                Some("all") => PROVE_FAMILIES.to_vec(),
                Some(f) if PROVE_FAMILIES.contains(&f) => vec![f],
                Some(other) => {
                    return Err(err(format!(
                        "unknown prove family {other:?} (families: {})",
                        choices(PROVE_FAMILIES)
                    )))
                }
            };
            // Obligations are independent; a small worker pool pulls
            // family indices off a shared counter.
            type FamilyVerdict = Result<(&'static str, hwperm_verify::ProveOutcome), CliError>;
            let workers = jobs.min(families.len());
            let next = std::sync::atomic::AtomicUsize::new(0);
            let slots: Vec<std::sync::Mutex<Option<FamilyVerdict>>> = families
                .iter()
                .map(|_| std::sync::Mutex::new(None))
                .collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(fam) = families.get(i) else { break };
                        let verdict = prove_family(fam, n, store);
                        *slots[i].lock().expect("prove slot poisoned") = Some(verdict);
                    });
                }
            });
            let mut out = String::new();
            let mut failures = 0usize;
            for (i, fam) in families.iter().enumerate() {
                let verdict = slots[i]
                    .lock()
                    .expect("prove slot poisoned")
                    .take()
                    .expect("prove worker finished every family");
                if i > 0 && json {
                    out.push(',');
                }
                match verdict {
                    Ok((obligation, outcome)) => {
                        let s = outcome.stats();
                        let stats_text = format!(
                            "vars {}, clauses {}, conflicts {}, decisions {}",
                            s.vars, s.clauses, s.conflicts, s.decisions
                        );
                        let stats_json = format!(
                            "\"vars\":{},\"clauses\":{},\"conflicts\":{},\
                             \"decisions\":{},\"propagations\":{}",
                            s.vars, s.clauses, s.conflicts, s.decisions, s.propagations
                        );
                        match outcome {
                            hwperm_verify::ProveOutcome::Proved(_) => {
                                if json {
                                    out.push_str(&format!(
                                        "{{\"circuit\":\"{fam}\",\"n\":{n},\
                                         \"obligation\":\"{obligation}\",\
                                         \"verdict\":\"proved\",{stats_json}}}"
                                    ));
                                } else {
                                    out.push_str(&format!(
                                        "== {fam} (n = {n}) ==\n\
                                         obligation: {obligation}\n\
                                         proved ({stats_text})\n"
                                    ));
                                }
                            }
                            hwperm_verify::ProveOutcome::Refuted(mismatch, _) => {
                                failures += 1;
                                if json {
                                    out.push_str(&format!(
                                        "{{\"circuit\":\"{fam}\",\"n\":{n},\
                                         \"obligation\":\"{obligation}\",\
                                         \"verdict\":\"refuted\",\
                                         \"counterexample\":{{\"index\":{},\
                                         \"port\":\"{}\",\"got\":{},\"want\":{}}},\
                                         {stats_json}}}",
                                        mismatch.index, mismatch.port, mismatch.got, mismatch.want
                                    ));
                                } else {
                                    out.push_str(&format!(
                                        "== {fam} (n = {n}) ==\n\
                                         obligation: {obligation}\n\
                                         REFUTED: {mismatch} ({stats_text})\n"
                                    ));
                                }
                            }
                            hwperm_verify::ProveOutcome::Unknown(_) => {
                                failures += 1;
                                if json {
                                    out.push_str(&format!(
                                        "{{\"circuit\":\"{fam}\",\"n\":{n},\
                                         \"obligation\":\"{obligation}\",\
                                         \"verdict\":\"unknown\",{stats_json}}}"
                                    ));
                                } else {
                                    out.push_str(&format!(
                                        "== {fam} (n = {n}) ==\n\
                                         obligation: {obligation}\n\
                                         unknown: conflict budget exhausted ({stats_text})\n"
                                    ));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        failures += 1;
                        if json {
                            out.push_str(&format!(
                                "{{\"circuit\":\"{fam}\",\"n\":{n},\
                                 \"verdict\":\"invalid\",\"error\":\"{}\"}}",
                                hwperm_serve::json::escape(&e.0)
                            ));
                        } else {
                            out.push_str(&format!("== {fam} (n = {n}) ==\ninvalid: {e}\n"));
                        }
                    }
                }
            }
            if json {
                out = json_envelope("prove", failures, &out);
            }
            if failures > 0 {
                return Err(err(format!(
                    "prove failed {failures} obligation(s)\n{}",
                    out.trim_end()
                )));
            }
            Ok(out)
        }
        "verify" => {
            const VERIFY_USAGE: &str =
                "usage: hwperm verify <n> [--batch] [--jobs N] [--width W] [--store D]";
            let batch = rest.iter().any(|a| a == "--batch");
            let mut jobs: Option<usize> = None;
            let mut width: Option<usize> = None;
            let mut store: Option<&String> = None;
            let mut positional: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--batch" => {}
                    "--jobs" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--jobs needs a worker count"))?;
                        let v = parse_usize(v, "worker count")?;
                        if v == 0 {
                            return Err(err("--jobs needs at least one worker"));
                        }
                        jobs = Some(v);
                    }
                    "--width" => {
                        let v = it.next().ok_or_else(|| err("--width needs a lane count"))?;
                        width = Some(parse_width(v)?);
                    }
                    "--store" => {
                        store = Some(it.next().ok_or_else(|| err("--store needs a directory"))?);
                    }
                    _ => positional.push(arg),
                }
            }
            if jobs.is_some() && !batch {
                return Err(err(
                    "--jobs requires --batch (the sharded sweep is word-level)",
                ));
            }
            if width.is_some() && !batch {
                return Err(err(
                    "--width requires --batch (the lane width is word-level)",
                ));
            }
            if store.is_some() && !batch {
                return Err(err(
                    "--store requires --batch (the expectation table is word-level)",
                ));
            }
            let width = width.unwrap_or(DEFAULT_WIDTH);
            let n = parse_usize(positional.first().ok_or_else(|| err(VERIFY_USAGE))?, "n")?;
            if !(2..=8).contains(&n) {
                return Err(err("verify sweeps exhaustively; n must be 2..=8"));
            }
            let total: u64 = (1..=n as u64).product();
            if batch {
                // Word-level sweep of the gate netlist itself: one index
                // per lane settles per netlist walk of the fused tape,
                // every output bit compared against the software
                // unranker. With --jobs, the index space is sharded into
                // contiguous per-worker blocks over one shared compiled
                // tape; the first-mismatch report is identical to the
                // sequential sweep's at every width.
                let netlist = converter_netlist(n, ConverterOptions::default());
                // The expectation table is loaded from the persisted
                // store when --store is given — a missing or corrupt
                // table is exit 2, never a silent recompute — and is
                // block-decoded otherwise; the words (and therefore
                // any mismatch witness) are byte-identical either way.
                let source = match store {
                    Some(dir) => TableSource::Store {
                        dir: PathBuf::from(dir),
                    },
                    None => TableSource::Computed { workers: 1 },
                };
                let expected = source
                    .permutation_words(n)
                    .map_err(|e| err(format!("store error: {e}")))?;
                let workers = jobs.unwrap_or(1);
                match width {
                    64 => hwperm_verify::exhaustive_check_parallel_wide::<u64>(
                        &netlist, "index", "perm", &expected, workers,
                    ),
                    256 => hwperm_verify::exhaustive_check_parallel_wide::<W256>(
                        &netlist, "index", "perm", &expected, workers,
                    ),
                    _ => hwperm_verify::exhaustive_check_parallel_wide::<W512>(
                        &netlist, "index", "perm", &expected, workers,
                    ),
                }
                .map_err(|m| err(format!("MISMATCH: {m}")))?;
            } else {
                let mut conv = IndexToPermConverter::new(n);
                for i in 0..total {
                    if conv.convert_u64(i) != hwperm_factoradic::unrank_u64(n, i) {
                        return Err(err(format!("MISMATCH at index {i}")));
                    }
                }
            }
            // Also one shuffle-circuit output validity check.
            let mut shuffle = KnuthShuffleCircuit::new(n);
            let p = shuffle.next_permutation();
            Permutation::try_from_slice(p.as_slice())
                .map_err(|e| err(format!("shuffle output invalid: {e}")))?;
            let table_note = match store {
                Some(dir) => format!(", store-backed table from {dir}"),
                None => String::new(),
            };
            let mode = match jobs {
                Some(workers) => {
                    format!(" (batched, {width} lanes/pass, {workers} workers{table_note})")
                }
                None if batch => format!(" (batched, {width} lanes/pass{table_note})"),
                None => String::new(),
            };
            Ok(format!(
                "OK: all {total} conversions match software for n = {n}{mode}\n"
            ))
        }
        other => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn render_random(src: &mut dyn RandomPermSource, count: usize) -> String {
    let mut out = String::new();
    for _ in 0..count {
        out.push_str(&format!("{}\n", src.next_permutation()));
    }
    out
}

fn join(v: &[u32]) -> String {
    v.iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn unrank_and_rank_roundtrip() {
        assert_eq!(call(&["unrank", "4", "11"]).unwrap(), "1 3 2 0\n");
        assert_eq!(call(&["rank", "1", "3", "2", "0"]).unwrap(), "11\n");
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        assert!(call(&["unrank", "4", "24"]).is_err());
        assert!(call(&["unrank", "4", "banana"]).is_err());
    }

    #[test]
    fn big_n_unrank_works() {
        let out = call(&["unrank", "25", "15511210043330985983999999"]).unwrap();
        // Last permutation of 25 elements: 24 23 ... 0.
        assert!(out.starts_with("24 23 22"));
    }

    #[test]
    fn combination_commands() {
        assert_eq!(call(&["combination", "5", "3", "0"]).unwrap(), "0 1 2\n");
        assert_eq!(
            call(&["rank-combination", "5", "2", "3", "4"]).unwrap(),
            "9\n"
        );
        assert!(call(&["combination", "5", "3", "10"]).is_err());
        assert!(call(&["rank-combination", "5", "3", "2"]).is_err());
    }

    #[test]
    fn variation_commands() {
        assert_eq!(call(&["variation", "5", "2", "0"]).unwrap(), "0 1\n");
        assert_eq!(call(&["rank-variation", "5", "0", "1"]).unwrap(), "0\n");
        assert!(call(&["variation", "5", "2", "20"]).is_err());
    }

    #[test]
    fn random_is_seeded_and_counted() {
        let a = call(&["random", "6", "3", "99"]).unwrap();
        let b = call(&["random", "6", "3", "99"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        for line in a.lines() {
            assert!(line.parse::<Permutation>().is_ok());
        }
    }

    #[test]
    fn random_circuit_emits_valid_permutations() {
        let out = call(&["random-circuit", "4", "5"]).unwrap();
        assert_eq!(out.lines().count(), 5);
        for line in out.lines() {
            assert!(line.parse::<Permutation>().is_ok());
        }
    }

    #[test]
    fn all_lists_range() {
        let out = call(&["all", "3"]).unwrap();
        assert_eq!(out.lines().count(), 6);
        let out = call(&["all", "4", "10", "13"]).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("1 3 0 2"));
    }

    #[test]
    fn resources_reports() {
        for family in families() {
            let out = call(&["resources", family.name, "5"]).unwrap();
            assert!(out.contains("LUTs"), "{}: {out}", family.name);
        }
        assert!(call(&["resources", "nonsense", "5"]).is_err());
    }

    #[test]
    fn bias_matches_paper_example() {
        let out = call(&["bias", "5", "24"]).unwrap();
        assert!(out.contains("ratio 2.0"), "{out}");
    }

    #[test]
    fn sort_through_network() {
        assert_eq!(call(&["sort", "9", "3", "7", "3"]).unwrap(), "3 3 7 9\n");
        assert!(call(&["sort", "5"]).is_err());
    }

    #[test]
    fn verify_passes() {
        assert!(call(&["verify", "5"]).unwrap().contains("OK"));
        assert!(call(&["verify", "20"]).is_err());
    }

    #[test]
    fn verify_batch_passes() {
        let out = call(&["verify", "4", "--batch"]).unwrap();
        assert!(out.contains("OK: all 24 conversions"));
        // The default width is the widest compiled word.
        assert!(out.contains("batched, 512 lanes/pass"));
        // Flag order must not matter, and the range check still bites.
        assert!(call(&["verify", "--batch", "5"]).unwrap().contains("OK"));
        assert!(call(&["verify", "--batch", "20"]).is_err());
        assert!(call(&["verify", "--batch"]).is_err());
    }

    #[test]
    fn verify_width_selects_the_lane_count() {
        for width in ["64", "256", "512"] {
            let out = call(&["verify", "4", "--batch", "--width", width]).unwrap();
            assert!(out.contains("OK: all 24 conversions"), "{out}");
            assert!(
                out.contains(&format!("batched, {width} lanes/pass")),
                "width = {width}: {out}"
            );
            let sharded =
                call(&["verify", "5", "--batch", "--width", width, "--jobs", "3"]).unwrap();
            assert!(
                sharded.contains(&format!("batched, {width} lanes/pass, 3 workers")),
                "width = {width}: {sharded}"
            );
        }
    }

    #[test]
    fn verify_jobs_shards_the_batched_sweep() {
        for workers in ["1", "2", "8"] {
            let out = call(&["verify", "5", "--batch", "--jobs", workers]).unwrap();
            assert!(out.contains("OK: all 120 conversions"), "{out}");
            assert!(
                out.contains(&format!("{workers} workers")),
                "workers = {workers}: {out}"
            );
        }
        // Flag order must not matter.
        assert!(call(&["verify", "--jobs", "2", "--batch", "4"])
            .unwrap()
            .contains("OK"));
    }

    #[test]
    fn verify_jobs_rejects_bad_usage() {
        // --jobs without --batch, a missing/zero/garbage count.
        assert!(call(&["verify", "5", "--jobs", "4"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--jobs"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--jobs", "0"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--jobs", "many"]).is_err());
    }

    #[test]
    fn verify_width_rejects_bad_usage() {
        // --width without --batch, a missing/unsupported/garbage width.
        assert!(call(&["verify", "5", "--width", "512"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--width"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--width", "128"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--width", "0"]).is_err());
        assert!(call(&["verify", "5", "--batch", "--width", "wide"]).is_err());
    }

    #[test]
    fn faults_campaign_reports_coverage() {
        let out = call(&["faults", "4"]).unwrap();
        assert!(out.contains("== converter (n = 4) =="), "{out}");
        assert!(out.contains("single-stuck-at universe:"), "{out}");
        assert!(out.contains("fault coverage"), "{out}");
        assert!(out.contains("silent faults:"), "{out}");
        assert!(out.contains("witness index"), "{out}");
    }

    #[test]
    fn faults_results_identical_across_worker_counts() {
        let one = call(&["faults", "4", "--jobs", "1"]).unwrap();
        for workers in ["2", "3", "8"] {
            assert_eq!(
                call(&["faults", "4", "--jobs", workers]).unwrap(),
                one,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn faults_json_is_machine_readable() {
        let out = call(&["faults", "4", "--json"]).unwrap();
        assert!(out.starts_with("{\"tool\":\"hwperm\""), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
        assert!(out.contains("\"command\":\"faults\""), "{out}");
        assert!(out.contains("\"status\":\"ok\",\"exit\":0"), "{out}");
        assert!(out.contains("\"circuit\":\"converter\""), "{out}");
        assert!(out.contains("\"width\":512"), "{out}");
        assert!(out.contains("\"coverage_percent\":"), "{out}");
        assert!(out.contains("\"silent_faults\":[{\"fault\":\""), "{out}");
    }

    #[test]
    fn faults_width_is_reported_and_verdicts_are_width_invariant() {
        // The JSON row records the requested lane width; the text
        // report carries no width so the verdicts must come back
        // byte-identical at 64, 256 and 512 lanes per pass.
        let json = call(&["faults", "3", "--json", "--width", "256"]).unwrap();
        assert!(json.starts_with("{\"tool\":\"hwperm\""), "{json}");
        assert!(json.contains("\"status\":\"ok\",\"exit\":0"), "{json}");
        assert!(json.contains("\"width\":256"), "{json}");
        let narrow = call(&["faults", "3", "--family", "all", "--width", "64"]).unwrap();
        for width in ["256", "512"] {
            assert_eq!(
                call(&["faults", "3", "--family", "all", "--width", width]).unwrap(),
                narrow,
                "width = {width}"
            );
        }
    }

    #[test]
    fn faults_rejects_bad_usage_as_user_errors() {
        // The satellite requirement: --jobs 0 and out-of-range <n> must
        // come back as CliErrors (exit 2 in main), never panics.
        assert!(call(&["faults", "4", "--jobs", "0"]).is_err());
        assert!(call(&["faults", "4", "--jobs"]).is_err());
        assert!(call(&["faults", "4", "--jobs", "many"]).is_err());
        assert!(call(&["faults", "1"]).is_err());
        assert!(call(&["faults", "6"]).is_err());
        assert!(call(&["faults", "banana"]).is_err());
        assert!(call(&["faults"]).is_err());
        assert!(call(&["faults", "4", "--family", "nonsense"]).is_err());
        assert!(call(&["faults", "4", "--family"]).is_err());
        assert!(call(&["faults", "4", "--width"]).is_err());
        assert!(call(&["faults", "4", "--width", "128"]).is_err());
        assert!(call(&["faults", "4", "--width", "0"]).is_err());
        assert!(call(&["faults", "4", "--width", "wide"]).is_err());
    }

    #[test]
    fn verilog_command_emits_module() {
        let out = call(&["verilog", "converter", "4"]).unwrap();
        assert!(out.contains("module index_to_perm_4("));
        assert!(out.contains("endmodule"));
        let pipe = call(&["verilog", "converter-pipelined", "4"]).unwrap();
        assert!(pipe.contains("always @(posedge clk)"));
        let rank = call(&["verilog", "rank", "4"]).unwrap();
        assert!(rank.contains("module perm_to_index_4("));
        assert!(call(&["verilog", "bogus", "4"]).is_err());
    }

    #[test]
    fn lint_clean_family_reports_no_errors() {
        let out = call(&["lint", "converter", "4"]).unwrap();
        assert!(out.contains("== converter (n = 4) =="), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let out = call(&["lint", "rank", "4", "--json"]).unwrap();
        assert!(out.starts_with("{\"tool\":\"hwperm\""), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
        assert!(out.contains("\"command\":\"lint\""), "{out}");
        assert!(out.contains("\"circuit\":\"rank\""), "{out}");
        assert!(out.contains("\"n\":4"), "{out}");
        assert!(out.contains("\"tape\":{\"ops\":"), "{out}");
        assert!(out.contains("\"fused_away\":"), "{out}");
        assert!(out.contains("\"op_counts\":{\""), "{out}");
        assert!(out.contains("\"diagnostics\""), "{out}");
    }

    #[test]
    fn json_output_is_well_formed() {
        // An unused bit on a port with a quote in its name exercises
        // both the diagnostics array and the string escaping.
        use hwperm_serve::Json;
        let mut b = hwperm_logic::Builder::new();
        let x = b.input_bus("x\"quoted", 2);
        b.output_bus("y", &[x[0]]);
        let report = hwperm_lint::lint_netlist(&b.finish());
        assert_eq!(report.of(hwperm_lint::LintId::UnusedInput).count(), 1);
        let json = lint_report_json(&report);
        let row = Json::parse(json.as_bytes()).unwrap_or_else(|e| panic!("{e:?}: {json}"));
        assert_eq!(row.get("warnings").and_then(Json::as_u64), Some(1));
        let diagnostics = row.get("diagnostics").and_then(Json::as_array).unwrap();
        assert_eq!(diagnostics.len(), 1);
        let ports = diagnostics[0]
            .get("ports")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(ports[0].as_str(), Some("x\"quoted"));
    }

    /// Pulls the integer value of `key` out of a lint JSON row.
    fn json_usize(out: &str, key: &str) -> usize {
        let key = format!("\"{key}\":");
        let at = out.find(&key).unwrap_or_else(|| panic!("{key} in {out}"));
        out[at + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn lint_tape_stats_show_fusion_savings_on_every_converter_family() {
        // The acceptance bar: opcode fusion must shorten the tape on
        // every index-to-codeword converter family, and the stats row
        // must reconcile (ops + fused_away = unfused_ops).
        for family in [
            "converter",
            "converter-pipelined",
            "combination",
            "variation",
        ] {
            for n in ["4", "5"] {
                let out = call(&["lint", family, n, "--json"]).unwrap();
                let ops = json_usize(&out, "ops");
                let unfused = json_usize(&out, "unfused_ops");
                let saved = json_usize(&out, "fused_away");
                assert_eq!(ops + saved, unfused, "{family} n={n}: {out}");
                assert!(saved > 0, "{family} n={n}: fusion saved nothing: {out}");
            }
        }
    }

    #[test]
    fn prove_converter_is_proved() {
        let out = call(&["prove", "4"]).unwrap();
        assert!(out.contains("== converter (n = 4) =="), "{out}");
        assert!(out.contains("obligation: "), "{out}");
        assert!(out.contains("proved (vars "), "{out}");
    }

    /// Which obligations each registered family carries: lint, fault
    /// campaign, SAT proof. A cell is `covered` or says why it does not
    /// apply, and each sweep below prints a header for exactly the
    /// covered cells, so a family that changes shape fails here instead
    /// of silently dropping out of a sweep.
    #[test]
    fn obligation_matrix() {
        const COVERED: &str = "covered";
        const SEQUENTIAL: &str = "n/a: sequential; campaigns sweep a stateless tape";
        const RANDOM: &str = "n/a: random output, no proof oracle";
        const NO_OBLIGATION: &str = "n/a: no proof obligation in hwperm-verify";
        let matrix: [(&str, [&str; 3]); 9] = [
            // family: [lint, campaign, prove]
            ("converter", [COVERED, COVERED, COVERED]),
            ("converter-pipelined", [COVERED, SEQUENTIAL, COVERED]),
            ("shuffle", [COVERED, SEQUENTIAL, RANDOM]),
            ("shuffle-pipelined", [COVERED, SEQUENTIAL, RANDOM]),
            ("rank", [COVERED, COVERED, COVERED]),
            ("combination", [COVERED, COVERED, COVERED]),
            ("variation", [COVERED, COVERED, COVERED]),
            ("sort", [COVERED, COVERED, NO_OBLIGATION]),
            ("random-index", [COVERED, SEQUENTIAL, RANDOM]),
        ];
        let names: Vec<&str> = families().iter().map(|f| f.name).collect();
        assert_eq!(matrix.map(|(family, _)| family).to_vec(), names);
        let sweeps = [
            call(&["lint", "all", "3"]).unwrap(),
            call(&["faults", "3", "--family", "all"]).unwrap(),
            call(&["prove", "4", "--family", "all", "--jobs", "2"]).unwrap(),
        ];
        for (column, out) in sweeps.iter().enumerate() {
            let covered: Vec<&str> = matrix
                .iter()
                .filter(|(_, cells)| cells[column] == COVERED)
                .map(|(family, _)| *family)
                .collect();
            let printed: Vec<&str> = out
                .lines()
                .filter_map(|line| Some(line.strip_prefix("== ")?.split_once(" (n = ")?.0))
                .collect();
            assert_eq!(printed, covered, "column {column}:\n{out}");
        }
        for (family, cells) in matrix {
            let gap = cells
                .iter()
                .find(|c| **c != COVERED && !c.starts_with("n/a: "));
            assert_eq!(
                gap, None,
                "{family}: a cell is covered or n/a with a reason"
            );
        }
        assert!(!sweeps[2].contains("REFUTED"), "{}", sweeps[2]);
        assert!(!sweeps[2].contains("unknown"), "{}", sweeps[2]);
    }

    #[test]
    fn prove_results_identical_across_worker_counts() {
        let one = call(&["prove", "3", "--family", "all", "--jobs", "1"]).unwrap();
        for workers in ["2", "5"] {
            assert_eq!(
                call(&["prove", "3", "--family", "all", "--jobs", workers]).unwrap(),
                one,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn prove_json_is_machine_readable() {
        let out = call(&["prove", "4", "--family", "rank", "--json"]).unwrap();
        assert!(out.starts_with("{\"tool\":\"hwperm\""), "{out}");
        assert!(out.contains("\"command\":\"prove\""), "{out}");
        assert!(out.contains("\"circuit\":\"rank\""), "{out}");
        assert!(out.contains("\"verdict\":\"proved\""), "{out}");
        assert!(out.contains("\"conflicts\":"), "{out}");
        assert!(out.contains("\"propagations\":"), "{out}");
    }

    #[test]
    fn prove_json_escapes_invalid_rows() {
        // The store path lands in the invalid row's error text; its
        // backslash and quote must not break the envelope.
        let message = call(&["prove", "4", "--store", "no\\such\"dir", "--json"])
            .unwrap_err()
            .0;
        let (_, json) = message
            .split_once('\n')
            .expect("a summary line, then the envelope");
        let envelope = hwperm_serve::Json::parse(json.as_bytes()).unwrap();
        let row = &envelope.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("verdict").and_then(|v| v.as_str()), Some("invalid"));
        let error = row.get("error").and_then(|e| e.as_str()).unwrap();
        assert!(error.contains("under no\\such\"dir "), "{error}");
    }

    #[test]
    fn prove_rejects_bad_usage_as_user_errors() {
        assert!(call(&["prove"]).is_err());
        assert!(call(&["prove", "1"]).is_err());
        assert!(call(&["prove", "10"]).is_err());
        assert!(call(&["prove", "banana"]).is_err());
        assert!(call(&["prove", "4", "--family", "nonsense"]).is_err());
        assert!(call(&["prove", "4", "--family"]).is_err());
        assert!(call(&["prove", "4", "--jobs", "0"]).is_err());
        assert!(call(&["prove", "4", "--jobs"]).is_err());
    }

    #[test]
    fn json_envelope_schema_is_shared_across_subcommands() {
        // Every JSON-emitting subcommand wraps its results in the same
        // envelope so downstream tooling can parse one schema. Keys
        // must appear in the same order for all of them — including
        // the envelopes the serve wire protocol returns.
        let lint = call(&["lint", "converter", "4", "--json"]).unwrap();
        let faults = call(&["faults", "4", "--json"]).unwrap();
        let prove = call(&["prove", "4", "--json"]).unwrap();
        let store_dir =
            std::env::temp_dir().join(format!("hwperm-cli-envelope-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let dir_arg = store_dir.to_str().unwrap().to_string();
        let store = call(&["store", "stat", "5", "--dir", &dir_arg, "--json"]).unwrap();
        let _ = std::fs::remove_dir_all(&store_dir);
        // The serve envelope arrives through the `client` subcommand,
        // proving the CLI wrapper is wire-transparent end to end.
        let serve = {
            let listener = hwperm_serve::Listener::bind_tcp("127.0.0.1:0").unwrap();
            let server =
                hwperm_serve::spawn(listener, hwperm_serve::ServeOptions::default()).unwrap();
            let addr = server.endpoint().to_string();
            let out = call(&[
                "client",
                &addr,
                "{\"id\":1,\"cmd\":\"unrank\",\"n\":4,\"index\":11}",
            ])
            .unwrap();
            server.stop().unwrap();
            out
        };
        for (cmd, out) in [
            ("lint", &lint),
            ("faults", &faults),
            ("prove", &prove),
            ("store", &store),
            ("unrank", &serve),
        ] {
            let prefix = format!(
                "{{\"tool\":\"hwperm\",\"version\":\"{}\",\"command\":\"{cmd}\",\
                 \"status\":\"ok\",\"exit\":0,\"errors\":0,\"results\":[",
                env!("CARGO_PKG_VERSION")
            );
            assert!(out.starts_with(&prefix), "{cmd}: {out}");
        }
        // The CLI envelopes end at the results array; serve appends its
        // per-request metrics trailer after the shared prefix.
        for (cmd, out) in [
            ("lint", &lint),
            ("faults", &faults),
            ("prove", &prove),
            ("store", &store),
        ] {
            assert!(out.trim_end().ends_with("]}"), "{cmd}: {out}");
        }
        assert!(
            serve.contains("],\"metrics\":{\"id\":1,"),
            "serve envelope missing metrics trailer: {serve}"
        );
    }

    #[test]
    fn serve_rejects_bad_usage() {
        assert!(call(&["serve"]).is_err());
        assert!(call(&["serve", "a", "b"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--workers", "0"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--workers", "65"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--workers"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--chunk", "0"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--chunk", "70000"]).is_err());
        // Hardening flags: zero, out-of-range, and missing values are
        // all exit-2 usage errors.
        assert!(call(&["serve", "127.0.0.1:0", "--max-conns", "0"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--max-conns", "100001"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--max-conns"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--idle-timeout-ms", "0"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--idle-timeout-ms", "3600001"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--idle-timeout-ms"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--request-deadline-ms", "0"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--request-deadline-ms", "nope"]).is_err());
        assert!(call(&["serve", "127.0.0.1:0", "--request-deadline-ms"]).is_err());
        // An unbindable address fails fast instead of serving.
        assert!(call(&["serve", "256.0.0.1:9"]).is_err());
    }

    #[test]
    fn client_rejects_bad_usage_and_dead_servers() {
        assert!(call(&["client"]).is_err());
        assert!(call(&["client", "127.0.0.1:1"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "  "]).is_err());
        assert!(call(&["client", "not an address", "{}"]).is_err());
        // A resolvable address with nothing listening is a connect error.
        assert!(call(&["client", "127.0.0.1:1", "{\"id\":1,\"cmd\":\"stats\"}"]).is_err());
        // Retry flags: validation is exit-2, and a retrying client
        // against a dead server still fails (loudly, after its budget).
        assert!(call(&["client", "127.0.0.1:1", "{}", "--retries", "0"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "{}", "--retries", "101"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "{}", "--retries"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "{}", "--backoff-ms", "0"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "{}", "--backoff-ms", "60001"]).is_err());
        assert!(call(&["client", "127.0.0.1:1", "{}", "--backoff-ms"]).is_err());
        let dead = call(&[
            "client",
            "127.0.0.1:1",
            "{\"id\":1,\"cmd\":\"stats\"}",
            "--retries",
            "2",
            "--backoff-ms",
            "1",
        ]);
        let message = dead.unwrap_err().0;
        assert!(
            message.contains("failed after 2 attempt(s)"),
            "retrying client must report its attempt count: {message}"
        );
    }

    #[test]
    fn client_retries_reach_a_live_server() {
        let listener = hwperm_serve::Listener::bind_tcp("127.0.0.1:0").unwrap();
        let server = hwperm_serve::spawn(listener, hwperm_serve::ServeOptions::default()).unwrap();
        let addr = server.endpoint().to_string();
        let out = call(&[
            "client",
            &addr,
            "{\"id\":3,\"cmd\":\"unrank\",\"n\":4,\"index\":11}",
            "--retries",
            "3",
            "--backoff-ms",
            "5",
        ])
        .unwrap();
        server.stop().unwrap();
        assert!(out.contains("\"command\":\"unrank\""), "{out}");
        assert!(out.contains("\"status\":\"ok\""), "{out}");
    }

    #[test]
    fn serve_hardening_flags_reach_the_server() {
        // A gated single-slot server started through the CLI arm:
        // checks the flags parse into ServeOptions and the stats
        // envelope carries the new counters end to end.
        let listener = hwperm_serve::Listener::bind_tcp("127.0.0.1:0").unwrap();
        let server = hwperm_serve::spawn(
            listener,
            hwperm_serve::ServeOptions {
                max_conns: 8,
                idle_timeout_ms: Some(5_000),
                request_deadline_ms: Some(30_000),
                ..hwperm_serve::ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.endpoint().to_string();
        let out = call(&["client", &addr, "{\"id\":1,\"cmd\":\"stats\"}"]).unwrap();
        server.stop().unwrap();
        for key in [
            "\"uptime_ms\":",
            "\"conns_rejected\":0",
            "\"requests_timed_out\":0",
            "\"retries_observed\":0",
        ] {
            assert!(out.contains(key), "stats envelope missing {key}: {out}");
        }
    }

    #[test]
    fn client_surfaces_error_envelopes_as_exit_2() {
        let listener = hwperm_serve::Listener::bind_tcp("127.0.0.1:0").unwrap();
        let server = hwperm_serve::spawn(listener, hwperm_serve::ServeOptions::default()).unwrap();
        let addr = server.endpoint().to_string();
        // A block request reports its binary chunk tally after the envelope.
        let ok = call(&[
            "client",
            &addr,
            "{\"id\":7,\"cmd\":\"block\",\"n\":4,\"start\":0,\"end\":24}",
        ])
        .unwrap();
        assert!(ok.contains("\"command\":\"block\""), "{ok}");
        assert!(ok.contains("binary: 1 chunk(s), 24 word(s)"), "{ok}");
        // An in-protocol error envelope still prints, but as exit 2.
        let bad = call(&["client", &addr, "{\"id\":8,\"cmd\":\"unrank\",\"n\":99}"]);
        server.stop().unwrap();
        let message = bad.unwrap_err().0;
        assert!(
            message.contains("\"status\":\"error\""),
            "error envelope not surfaced: {message}"
        );
    }

    #[test]
    fn store_rejects_bad_usage_as_user_errors() {
        assert!(call(&["store"]).is_err());
        assert!(call(&["store", "build"]).is_err());
        assert!(call(&["store", "polish", "5"]).is_err());
        assert!(call(&["store", "build", "0"]).is_err());
        assert!(call(&["store", "build", "10"]).is_err());
        assert!(call(&["store", "build", "5", "--jobs", "0"]).is_err());
        assert!(call(&["store", "build", "5", "--jobs", "65"]).is_err());
        assert!(call(&["store", "build", "5", "--dir"]).is_err());
        assert!(call(&["store", "stat", "5", "--jobs", "2"]).is_err());
        // Word-level expectation tables only exist for batched sweeps.
        assert!(call(&["verify", "4", "--store", "somewhere"]).is_err());
    }

    #[test]
    fn store_lifecycle_build_stat_verify_and_sweep() {
        let dir =
            std::env::temp_dir().join(format!("hwperm-cli-store-lifecycle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().unwrap().to_string();
        // Cold stat: present but not built.
        let cold = call(&["store", "stat", "5", "--dir", &dir_arg]).unwrap();
        assert!(cold.contains("not built"), "{cold}");
        // Cold verify is a loud miss, never a silent recompute.
        let missing = call(&["store", "verify", "5", "--dir", &dir_arg]).unwrap_err();
        assert!(
            missing.0.contains("no complete store table"),
            "{}",
            missing.0
        );
        // Build, then everything downstream goes warm.
        let built = call(&["store", "build", "5", "--dir", &dir_arg, "--jobs", "2"]).unwrap();
        assert!(built.contains("complete"), "{built}");
        let again = call(&["store", "build", "5", "--dir", &dir_arg]).unwrap();
        assert!(again.contains("(0 built, 1 resumed)"), "{again}");
        let stat = call(&["store", "stat", "5", "--dir", &dir_arg]).unwrap();
        assert!(stat.contains("complete"), "{stat}");
        let verified = call(&["store", "verify", "5", "--dir", &dir_arg]).unwrap();
        assert!(verified.contains("OK"), "{verified}");
        // Store-backed sweep and proof match the computed paths.
        let sweep = call(&["verify", "5", "--batch", "--store", &dir_arg]).unwrap();
        assert!(sweep.contains("OK"), "{sweep}");
        assert!(sweep.contains("store-backed table"), "{sweep}");
        let computed = call(&["verify", "5", "--batch"]).unwrap();
        assert!(computed.contains("OK"), "{computed}");
        let prove = call(&["prove", "5", "--family", "converter", "--store", &dir_arg]).unwrap();
        assert!(prove.contains("proved"), "{prove}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_build_json_escapes_the_directory_name() {
        let pid = std::process::id();
        let dir =
            std::env::temp_dir().join(format!("hwperm-cli-store-\"quoted\"-back\\slash-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().unwrap().to_string();
        let out = call(&["store", "build", "3", "--dir", &dir_arg, "--json"]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // The reported directory is the table's own, under the store root.
        let parent = dir.parent().unwrap().to_str().unwrap();
        assert!(
            out.contains(&format!(
                "\"dir\":\"{parent}/hwperm-cli-store-\\\"quoted\\\"-back\\\\slash-{pid}/v1/lex/n03\","
            )),
            "{out}"
        );
        let envelope = hwperm_serve::Json::parse(out.trim_end().as_bytes()).unwrap();
        let row = &envelope.get("results").unwrap().as_array().unwrap()[0];
        let table_dir = format!("{dir_arg}/v1/lex/n03");
        assert_eq!(row.get("dir").and_then(|d| d.as_str()), Some(&*table_dir));
    }

    #[test]
    fn lint_rejects_bad_input() {
        assert!(call(&["lint", "nonsense", "4"]).is_err());
        assert!(call(&["lint", "converter", "1"]).is_err());
        assert!(call(&["lint", "converter"]).is_err());
    }

    #[test]
    fn unknown_command_shows_usage() {
        let e = call(&["frobnicate"]).unwrap_err();
        assert!(e.0.contains("usage"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(call(&["help"]).unwrap().contains("unrank"));
    }
}
