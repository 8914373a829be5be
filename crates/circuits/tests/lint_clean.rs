//! Every generated circuit family must be lint-clean.
//!
//! This is the integration contract between the generators and the static
//! analyzer: a freshly built netlist of any family, at any supported size,
//! produces zero Error-level diagnostics, and every recorded one-hot select
//! bank is *proved* one-hot (a query that exhausted its SAT budget would
//! only warn, so each family also asserts the one-hot pass stayed silent).

use hwperm_circuits::{
    converter_netlist, families, shuffle_netlist, ConverterOptions, IndexToCombinationConverter,
    IndexToVariationConverter, PermToIndexConverter, RandomIndexGenerator, ShuffleOptions,
    SortingNetwork,
};
use hwperm_lint::{lint_netlist, LintId, LintReport, Severity};
use hwperm_logic::Netlist;
use hwperm_verify::{check_one_hot_bank, DEFAULT_SAT_CONFLICT_BUDGET};

/// Lint `netlist` and fail the test with the full report if any diagnostic
/// reaches Error severity.
fn assert_lint_clean(label: &str, netlist: &Netlist) -> LintReport {
    let report = lint_netlist(netlist);
    assert!(
        report.is_clean(),
        "{label}: expected lint-clean netlist, got {} error(s):\n{report}",
        report.error_count()
    );
    report
}

/// Assert that every one-hot bank in the netlist was actually *proved*
/// one-hot (no skipped-query warnings slipped through).
fn assert_one_hot_proved(label: &str, report: &LintReport) {
    let unproved: Vec<_> = report.of(LintId::OneHot).collect();
    assert!(
        unproved.is_empty(),
        "{label}: one-hot pass left diagnostics (budget exhausted or worse):\n{}",
        unproved
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
}

/// Solver-independent cross-check of the one-hot verdict: exhaustively
/// simulate every input value on the batched 64-lane path and confirm
/// no bank violation exists. Only applicable (and only run) for
/// combinational netlists with a single input port narrow enough to
/// sweep; wider or sequential families rely on the SAT proof alone.
fn assert_banks_one_hot_by_simulation(label: &str, netlist: &Netlist) {
    if netlist.register_count() > 0 || netlist.one_hot_banks().is_empty() {
        return;
    }
    let [port] = netlist.input_ports() else {
        return;
    };
    if port.nets.len() > 16 {
        return;
    }
    let name = port.name.clone();
    assert_eq!(
        hwperm_verify::find_one_hot_violation_parallel(netlist, &name, 1),
        None,
        "{label}: exhaustive simulation refutes a bank the SAT pass proved"
    );
}

#[test]
fn converter_families_are_lint_clean() {
    for n in [2usize, 3, 4, 5, 6, 8] {
        let comb = converter_netlist(n, ConverterOptions::default());
        let report = assert_lint_clean(&format!("converter n={n}"), &comb);
        assert_one_hot_proved(&format!("converter n={n}"), &report);
        assert_banks_one_hot_by_simulation(&format!("converter n={n}"), &comb);

        let piped = converter_netlist(
            n,
            ConverterOptions {
                pipelined: true,
                ..ConverterOptions::default()
            },
        );
        let report = assert_lint_clean(&format!("converter-pipelined n={n}"), &piped);
        assert_one_hot_proved(&format!("converter-pipelined n={n}"), &report);
    }
}

#[test]
fn shuffle_family_is_lint_clean() {
    for n in [2usize, 3, 4, 6] {
        for pipelined in [false, true] {
            let opts = ShuffleOptions {
                pipelined,
                ..ShuffleOptions::default()
            };
            let nl = shuffle_netlist(n, opts);
            let label = format!("shuffle n={n} pipelined={pipelined}");
            let report = assert_lint_clean(&label, &nl);
            assert_one_hot_proved(&label, &report);
        }
    }
}

#[test]
fn rank_family_is_lint_clean() {
    for n in [2usize, 3, 4, 5, 6, 8] {
        let rank = PermToIndexConverter::new(n);
        let report = assert_lint_clean(&format!("rank n={n}"), rank.netlist());
        assert_one_hot_proved(&format!("rank n={n}"), &report);
        assert_banks_one_hot_by_simulation(&format!("rank n={n}"), rank.netlist());
    }
}

#[test]
fn combination_family_is_lint_clean() {
    for (n, k) in [(3usize, 1usize), (4, 2), (5, 2), (6, 3), (8, 4)] {
        let comb = IndexToCombinationConverter::new(n, k);
        let label = format!("combination n={n} k={k}");
        let report = assert_lint_clean(&label, comb.netlist());
        assert_one_hot_proved(&label, &report);
        assert_banks_one_hot_by_simulation(&label, comb.netlist());
    }
}

#[test]
fn variation_family_is_lint_clean() {
    for (n, k) in [(3usize, 2usize), (4, 2), (5, 3), (6, 3), (8, 4)] {
        let var = IndexToVariationConverter::new(n, k);
        let label = format!("variation n={n} k={k}");
        let report = assert_lint_clean(&label, var.netlist());
        assert_one_hot_proved(&label, &report);
        assert_banks_one_hot_by_simulation(&label, var.netlist());
    }
}

/// At n = 8 the sorter's priority banks depend on all 32 data input
/// bits, too wide for the simulation cross-check; the SAT proof covers
/// them alone.
#[test]
fn sorter_family_is_lint_clean() {
    for (n, w) in [(2usize, 2usize), (3, 3), (4, 3), (6, 4), (8, 4)] {
        let sorter = SortingNetwork::new(n, w);
        let report = assert_lint_clean(&format!("sort n={n} w={w}"), sorter.netlist());
        assert_one_hot_proved(&format!("sort n={n} w={w}"), &report);
        assert_banks_one_hot_by_simulation(&format!("sort n={n} w={w}"), sorter.netlist());
    }
}

#[test]
fn random_index_family_is_lint_clean() {
    for n in [2usize, 3, 5, 8] {
        let gen = RandomIndexGenerator::new(n, 0x5eed);
        let label = format!("random-index n={n}");
        let report = assert_lint_clean(&label, gen.netlist());
        assert_one_hot_proved(&label, &report);
    }
}

/// Every select bank of every registered family at n = 2..=9 is proved
/// one-hot by the SAT check itself.
#[test]
fn every_registered_family_bank_is_proved() {
    for family in families() {
        for n in 2..=9 {
            let netlist = (family.build)(n);
            for (b, bank) in netlist.one_hot_banks().iter().enumerate() {
                let report =
                    check_one_hot_bank(&netlist, bank, None, Some(DEFAULT_SAT_CONFLICT_BUDGET));
                assert!(
                    report.proved(),
                    "{} n={n} bank {b}: {:?}",
                    family.name,
                    report.status
                );
            }
        }
    }
}

/// The sweep above tolerates Warn-level diagnostics; this test pins down
/// that the flagship Fig. 1 converter is *fully* quiet — not even warnings —
/// so regressions in the generators (dead gates, foldable constants,
/// rank-skewed pipelines) surface immediately.
#[test]
fn converter_has_no_diagnostics_at_all() {
    for n in [3usize, 5, 8] {
        for pipelined in [false, true] {
            let nl = converter_netlist(
                n,
                ConverterOptions {
                    pipelined,
                    ..ConverterOptions::default()
                },
            );
            let report = lint_netlist(&nl);
            let noisy: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity >= Severity::Warn)
                .collect();
            assert!(
                noisy.is_empty(),
                "converter n={n} pipelined={pipelined}: expected zero warnings, got:\n{}",
                noisy.iter().map(|d| format!("  {d}\n")).collect::<String>()
            );
        }
    }
}
