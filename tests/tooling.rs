//! Cross-crate integration tests for the tooling surface: Verilog/BLIF
//! export, VCD tracing, formal verification, and the streaming API all
//! working against the same generated circuits.

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, shuffle_netlist, ConverterOptions, ShuffleOptions};
use hwperm_core::PermutationStream;
use hwperm_factoradic::{unrank, unrank_u64};
use hwperm_logic::{to_blif, to_verilog, BatchSim, Tracer};
use hwperm_verify::CompiledNetlist;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn verilog_and_blif_cover_the_same_converter() {
    let netlist = converter_netlist(5, ConverterOptions::default());
    let v = to_verilog(&netlist, "conv5");
    let b = to_blif(&netlist, "conv5");
    // Port surfaces agree across formats.
    assert!(v.contains("input [6:0] index;"));
    assert!(b.contains(".inputs index[0] index[1] index[2] index[3] index[4] index[5] index[6]"));
    assert!(v.contains("output [14:0] perm;"));
    assert!(b
        .lines()
        .any(|l| l.starts_with(".outputs") && l.contains("perm[14]")));
    // No registers in the combinational build, in either format.
    assert!(!v.contains("always"));
    assert!(!b.contains(".latch"));
}

#[test]
fn pipelined_export_declares_state() {
    let opts = ConverterOptions {
        pipelined: true,
        perm_input_port: false,
    };
    let netlist = converter_netlist(4, opts);
    let v = to_verilog(&netlist, "pipe4");
    let b = to_blif(&netlist, "pipe4");
    assert_eq!(
        v.matches(" reg ").count(),
        netlist.register_count(),
        "one reg declaration per DFF"
    );
    assert_eq!(b.matches(".latch").count(), netlist.register_count());
}

#[test]
fn vcd_trace_of_shuffle_records_every_cycle() {
    let netlist = shuffle_netlist(
        3,
        ShuffleOptions {
            lfsr_width: 8,
            pipelined: false,
            seed: 1,
        },
    );
    let mut tracer = Tracer::new(&netlist, &["perm"]);
    let mut sim = BatchSim::<bool>::new(netlist);
    for _ in 0..20 {
        sim.eval();
        tracer.sample(&sim);
        sim.step();
    }
    assert_eq!(tracer.len(), 20);
    let vcd = tracer.to_vcd();
    assert!(vcd.contains("$var wire 6 ! perm $end"));
    // A free-running shuffle changes its output often: expect multiple
    // timestamped change records.
    assert!(vcd.matches('#').count() > 5, "{vcd}");
}

#[test]
fn formal_proof_and_simulation_agree_on_a_counterexample_free_circuit() {
    let netlist = converter_netlist(4, ConverterOptions::default());
    let compiled = CompiledNetlist::compile(&netlist).unwrap();
    // BDD evaluation must agree with gate-level simulation on all inputs,
    // including out-of-range ones (where both see the same don't-care
    // hardware behaviour).
    let mut sim = BatchSim::<bool>::new(netlist);
    for index in 0..32u64 {
        sim.set_input_u64("index", index);
        sim.eval();
        assert_eq!(
            compiled.eval_output("perm", &Ubig::from(index)),
            sim.read_output("perm"),
            "index = {index}"
        );
    }
    // And the spec proof holds.
    assert_eq!(
        compiled.verify_against_spec(
            |i| i.to_u64().is_some_and(|v| v < 24),
            |i| BTreeMap::from([(
                "perm".to_string(),
                unrank_u64(4, i.to_u64().unwrap()).pack()
            )]),
        ),
        None
    );
}

#[test]
fn stream_feeds_a_consumer_that_cross_checks_the_circuit() {
    use hwperm_circuits::IndexToPermConverter;
    let mut circuit = IndexToPermConverter::new(5);
    let stream = PermutationStream::new(5, Ubig::from(30u64), Ubig::from(50u64), 4);
    let mut count = 0;
    for (index, perm) in stream {
        assert_eq!(circuit.convert(&index), perm);
        assert_eq!(unrank(5, &index), perm);
        count += 1;
    }
    assert_eq!(count, 20);
}

/// The `hwperm` binary, which lives next to the test's profile
/// directory (target/<profile>/hwperm). This package does not depend on
/// the CLI, so build it when a test run has not.
fn hwperm_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let bin = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target profile dir")
        .join(format!("hwperm{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "hwperm-cli"])
            .status()
            .expect("cargo build -p hwperm-cli");
        assert!(status.success(), "building the CLI binary failed");
    }
    bin
}

/// The usage contract at the binary: a malformed invocation of every
/// subcommand (and an unknown command) exits 2, prints nothing on
/// stdout and one `hwperm: ` message on stderr. Stray arguments,
/// unknown flags and out-of-range worker counts are malformed too.
#[test]
fn malformed_invocations_exit_2_with_a_message() {
    let bin = hwperm_bin();
    for args in [
        &["unrank", "4"][..],
        &["rank", "0", "0"],
        &["combination", "5", "6", "0"],
        &["rank-combination", "5", "3", "2"],
        &["variation", "5", "2", "20"],
        &["rank-variation", "5", "1", "1"],
        &["random"],
        &["random", "4", "1", "2", "junk"],
        &["random-circuit", "1"],
        &["random-circuit", "4", "1", "junk"],
        &["all"],
        &["all", "3", "0", "2", "junk"],
        &["resources", "nosuch", "4"],
        &["lint", "nosuch", "4"],
        &["prove", "4", "--family", "sort"],
        &["prove", "3", "junk"],
        &["bias", "1", "2"],
        &["sort", "5"],
        &["faults", "4", "--family", "shuffle"],
        &["faults", "3", "junk"],
        &["faults", "3", "--width", "64"],
        &["faults", "3", "--jobs", "100000"],
        &["verify", "20"],
        &["verify", "6", "junk"],
        &["verify", "6", "--batch"],
        &["verify", "6", "--width", "64"],
        &["verilog", "nosuch", "4"],
        &["serve"],
        &["client"],
        &["store", "polish", "5"],
        &["frobnicate"],
    ] {
        let out = Command::new(&bin).args(args).output().expect("run hwperm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr.starts_with("hwperm: "), "{args:?}: {stderr}");
    }
}

/// End-to-end: spawn the real `hwperm serve` binary, round-trip every
/// request type through a protocol client, shut it down gracefully and
/// check the exit status plus the printed summary.
#[test]
fn serve_cli_round_trips_every_request_type() {
    use hwperm_serve::{Client, Endpoint};
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(hwperm_bin())
        .args(["serve", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hwperm serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let listening = lines
        .next()
        .expect("a 'listening on' line before the server blocks")
        .expect("utf-8 stdout");
    let addr = listening
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {listening:?}"))
        .trim()
        .to_string();
    let endpoint = Endpoint::Tcp(addr.parse().expect("socket address"));

    let mut client = Client::connect(&endpoint).expect("connect to spawned server");
    let text = |resp: &hwperm_serve::Response| String::from_utf8_lossy(&resp.envelope).into_owned();

    let unrank = client
        .request(r#"{"id":1,"cmd":"unrank","n":4,"index":11}"#)
        .expect("unrank");
    assert!(unrank.is_ok(), "{}", text(&unrank));
    assert!(
        text(&unrank).contains("\"packed\":120"),
        "{}",
        text(&unrank)
    );

    let rank = client
        .request(r#"{"id":2,"cmd":"rank","perm":[1,3,2,0]}"#)
        .expect("rank");
    assert!(rank.is_ok(), "{}", text(&rank));
    assert!(text(&rank).contains("\"index\":11"), "{}", text(&rank));

    let block = client
        .request(r#"{"id":3,"cmd":"block","n":3,"start":0,"end":6,"chunk":4}"#)
        .expect("block");
    assert!(block.is_ok(), "{}", text(&block));
    assert_eq!(block.words(), vec![6, 9, 18, 24, 33, 36]);

    let stream = client
        .request(r#"{"id":4,"cmd":"random-stream","n":4,"count":5,"seed":9}"#)
        .expect("random-stream");
    assert!(stream.is_ok(), "{}", text(&stream));
    assert_eq!(stream.words().len(), 5);

    let verify = client
        .request(r#"{"id":5,"cmd":"verify","n":3}"#)
        .expect("verify");
    assert!(verify.is_ok(), "{}", text(&verify));
    assert!(
        text(&verify).contains("\"verdict\":\"ok\""),
        "{}",
        text(&verify)
    );

    let bad = client
        .request(r#"{"id":6,"cmd":"frobnicate"}"#)
        .expect("error envelope");
    assert!(!bad.is_ok(), "unknown cmd must fail: {}", text(&bad));

    let stats = client.request(r#"{"id":7,"cmd":"stats"}"#).expect("stats");
    assert!(stats.is_ok(), "{}", text(&stats));
    assert!(
        text(&stats).contains("\"requests\":7"),
        "lock-step requests should count exactly 7: {}",
        text(&stats)
    );

    let shutdown = client
        .request(r#"{"id":8,"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert!(shutdown.is_ok(), "{}", text(&shutdown));
    assert!(
        text(&shutdown).contains("\"stopping\":true"),
        "{}",
        text(&shutdown)
    );
    assert_eq!(
        client.read_message().expect("clean close"),
        None,
        "server closes the connection after shutdown"
    );

    let status = child.wait().expect("server process exits");
    assert!(
        status.success(),
        "serve must exit 0 after graceful shutdown"
    );
    let rest: Vec<String> = lines.map(|l| l.expect("utf-8 stdout")).collect();
    assert!(
        rest.iter()
            .any(|l| l.contains("served 8 request(s) (1 error(s)) over 1 connection(s)")),
        "summary line missing from {rest:?}"
    );
}
