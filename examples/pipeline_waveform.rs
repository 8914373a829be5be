//! Dumps a VCD waveform of the pipelined converter filling up and then
//! emitting one permutation per clock — the visual counterpart of the
//! paper's throughput claim. Open `target/pipeline.vcd` in GTKWave.
//!
//! ```text
//! cargo run --release --example pipeline_waveform
//! ```

use hwperm_bignum::Ubig;
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{BatchSim, Tracer};
use hwperm_perm::Permutation;

fn main() {
    let n = 4;
    let netlist = converter_netlist(
        n,
        ConverterOptions {
            pipelined: true,
            perm_input_port: false,
        },
    );
    let mut tracer = Tracer::new(&netlist, &["index", "perm"]);
    let mut sim = BatchSim::<bool>::new(netlist);

    println!("clock | index in | perm word out | decoded");
    for cycle in 0..12u64 {
        let index = cycle % 24;
        sim.set_input("index", &Ubig::from(index));
        sim.step();
        sim.eval();
        tracer.sample(&sim);
        let word = sim.read_output("perm");
        let decoded = Permutation::unpack(n, &word)
            .map(|p| p.to_string())
            .unwrap_or_else(|_| "(filling)".into());
        println!(
            "{cycle:>5} | {index:>8} | {:>13} | {decoded}",
            word.to_u64().unwrap()
        );
    }

    let vcd = tracer.to_vcd();
    let path = "target/pipeline.vcd";
    std::fs::write(path, &vcd).expect("write VCD");
    println!("\nwrote {} bytes of VCD to {path}", vcd.len());
    println!("note the 3-cycle fill latency (n−1), then one new permutation per clock.");
}
