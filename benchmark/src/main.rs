//! The repository benchmark. One command runs a named workload from a
//! seed, checks every output, and prints its metrics by name and unit;
//! the last line of standard output is the JSON result. See README.md.

mod host;
mod metrics;
mod plan;
mod probes;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Run, Workload};

const USAGE: &str =
    "usage: hwperm-benchmark --workload computed|store --seed N --seconds S [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("invalid seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where runs keep their stores and traced runs write their spans.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `name = value unit`, with the sample count and in-run quartiles
/// where the value summarizes samples.
fn describe(name: &str, value: f64, unit: &str, samples: &[f64]) -> String {
    match stats::quartiles(samples) {
        Some([q1, _, q3]) => format!(
            "{name} = {value:.6} {unit} (n = {}; q1 {q1:.6}, q3 {q3:.6})",
            samples.len()
        ),
        None => format!("{name} = {value:.6} {unit}"),
    }
}

/// The first line of a trace file: the run and every per-layer metric's
/// definition.
fn trace_header(args: &Args, fingerprint: &str, rounds: u64) -> String {
    let defs: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"about\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.about
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":\"{}\",\"rounds\":{rounds},\"metrics\":[{}]}}",
        args.workload.name(),
        args.seed,
        fingerprint.replace('"', "'"),
        defs.join(",")
    )
}

fn run(args: &Args) -> Result<(), String> {
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fingerprint = host::fingerprint();
    println!("host: {fingerprint}");
    let tracer = Tracer::new(args.trace);
    let out = out_dir();
    let mut run = Run::new(args.workload, args.seed, &out)?;
    let mut fx = run.set_up()?;
    run.measure(&mut fx, &tracer, args.seconds)?;
    let probed = if args.trace {
        probes::run(&mut run, &fx, &tracer)?
    } else {
        Vec::new()
    };
    run.finish(fx);
    for e in &run.tally.errors {
        eprintln!("check failed: {e}");
    }

    let (defs, rows) = if args.trace {
        let spans = tracer.spans();
        let mut values = workload::per_layer(&run, &spans)?;
        values.extend(probed);
        let path = out.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let header = trace_header(args, &fingerprint, run.rounds);
        trace::write(&path, &header, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
        let rows: Vec<workload::Row> = values
            .into_iter()
            .map(|(name, v)| (name, v, &[][..]))
            .collect();
        (metrics::PER_LAYER, rows)
    } else {
        (metrics::END_TO_END, workload::end_to_end(&run)?)
    };
    println!(
        "rounds = {}; checks attempted {}, failed {}",
        run.rounds, run.tally.attempted, run.tally.failed
    );
    for def in defs {
        if let Some((name, value, samples)) = rows.iter().find(|r| r.0 == def.name) {
            println!("{}", describe(name, *value, def.unit, samples));
        }
    }
    let values: Vec<(&str, f64)> = rows.iter().map(|r| (r.0, r.1)).collect();
    println!(
        "{}",
        metrics::result_line(defs, &values, run.tally.attempted, run.tally.failed)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hwperm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hwperm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
