//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hwperm-bench --bin tables -- all
//! cargo run --release -p hwperm-bench --bin tables -- table2
//! ```
//!
//! Subcommands: `table1 table2 table3 table4 fig1 fig3 bias fig4
//! derangements naive sorter parallel cascade rank variations prove
//! verify all` (plus `fig4-netlist` to run Fig. 4 on the gate-level
//! simulation instead of the bit-exact mirror). Throughput of the
//! library layers is measured by the repository benchmark
//! (`benchmark/README.md`).

use hwperm_bench::{baselines, extensions, figures, resources, tables};

fn usage() -> ! {
    eprintln!(
        "usage: tables <experiment>\n  experiments: table1 table2 table3 table4 fig1 fig3 bias \
         fig4 fig4-netlist derangements naive sorter parallel verify cascade rank variations prove \
         all"
    );
    std::process::exit(2);
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let fig4_samples = 1u64 << 20; // the paper's 1,048,576
    let run = |name: &str| match name {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2(1).1),
        "table3" => print!("{}", resources::table3().1),
        "table4" => print!("{}", resources::table4().1),
        "fig1" => print!("{}", figures::fig1(4)),
        "fig3" => print!("{}", figures::fig3(4)),
        "bias" => print!("{}", figures::bias()),
        "fig4" => print!("{}", figures::fig4(fig4_samples, false)),
        "fig4-netlist" => print!("{}", figures::fig4(fig4_samples, true)),
        "derangements" => print!("{}", figures::derangements(fig4_samples, true)),
        "naive" => print!("{}", baselines::naive_baseline()),
        "sorter" => print!("{}", baselines::sorter_demo()),
        "parallel" => print!("{}", baselines::parallel_scaling(10)),
        "verify" => print!("{}", baselines::verify_all()),
        "cascade" => print!("{}", extensions::cascade()),
        "prove" => print!("{}", extensions::prove()),
        "rank" => print!("{}", extensions::rank_circuit()),
        "variations" => print!("{}", extensions::variations()),
        _ => usage(),
    };
    if arg == "all" {
        for name in [
            "verify",
            "table1",
            "table2",
            "table3",
            "table4",
            "fig1",
            "fig3",
            "bias",
            "fig4",
            "derangements",
            "naive",
            "sorter",
            "parallel",
            "cascade",
            "rank",
            "variations",
            "prove",
        ] {
            println!("==================================================================");
            run(name);
            println!();
        }
    } else {
        run(&arg);
    }
}
