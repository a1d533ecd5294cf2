//! Paper-scale smoke test: instantiate the full 1 GB geometry (2²⁴
//! blocks, 10⁸-write endurance, ψ = 100 — the paper's exact setup) and
//! drive enough traffic to prove the stack holds at that size.
//!
//! Ignored by default (hundreds of MB of simulated device state); run
//! with `cargo test -p wlr-tests --test paper_scale -- --ignored`.

use wl_reviver::sim::{Simulation, StopCondition};
use wlr_trace::Benchmark;

#[test]
#[ignore = "paper-scale geometry: large memory footprint and minutes of runtime"]
fn one_gigabyte_chip_runs() {
    let blocks = 1u64 << 24; // 1 GB of 64 B blocks
    let mut sim = Simulation::builder()
        .num_blocks(blocks)
        .endurance_mean(1e8)
        .gap_interval(100)
        .stack("reviver-sg")
        .workload(Benchmark::Ocean.build(blocks, 42))
        .seed(42)
        .sample_interval(5_000_000)
        .build();
    assert_eq!(sim.geometry().num_blocks(), blocks);
    let out = sim.run(StopCondition::Writes(20_000_000));
    assert_eq!(out.writes_issued, 20_000_000);
    assert_eq!(
        out.usable, 1.0,
        "no failures expected this early at 1e8 endurance"
    );
    // The mapping machinery really ran: the gap rotated ~200k positions.
    assert!(sim.controller().device().stats().writes > out.writes_issued);
}
