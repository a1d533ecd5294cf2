//! Microbenchmark: end-to-end simulated writes per second through the
//! full stack (workload → OS → controller → device), the number that
//! bounds every figure's wall-clock cost.

use wl_reviver::sim::{Simulation, StopCondition};
use wlr_bench::timing::bench;
use wlr_trace::Benchmark;

fn sim(scheme: &str) -> Simulation {
    let blocks = 1 << 14;
    Simulation::builder()
        .num_blocks(blocks)
        .endurance_mean(1e9) // effectively healthy for the benchmark window
        .gap_interval(10)
        .stack(scheme)
        .seed(1)
        .workload(Benchmark::Ocean.build(blocks, 1))
        .sample_interval(u64::MAX / 2)
        .build()
}

fn main() {
    for (name, scheme) in [
        ("ecc_only", "ecc"),
        ("start_gap", "sg"),
        ("reviver_sg", "reviver-sg"),
        ("reviver_sr", "reviver-sr"),
        ("lls", "lls"),
    ] {
        let mut s = sim(scheme);
        let mut target = 0u64;
        // Each iteration advances the same simulation by a 10k-write slab,
        // so the per-iteration cost is 10_000 simulated writes.
        let m = bench(&format!("sim_writes/{name}"), || {
            target += 10_000;
            s.run(StopCondition::Writes(target))
        });
        println!(
            "{:<44} {:>14.0} simulated writes/s",
            format!("sim_writes/{name} (per write)"),
            m.per_sec * 10_000.0
        );
    }
}
