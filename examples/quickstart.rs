//! Quickstart: revive Start-Gap on a failing PCM chip.
//!
//! Builds a scaled PCM device running ECP6 + Start-Gap under the
//! WL-Reviver framework, drives it with the paper's `ocean` workload until
//! 30% of the space is gone, and prints the usable-space trajectory plus
//! the framework's internal event counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p wl-reviver --example quickstart
//! ```

use wl_reviver::sim::{Simulation, StopCondition};
use wlr_trace::Benchmark;

fn main() {
    let blocks = 1u64 << 14;
    let endurance = 1e4;
    let mut sim = Simulation::builder()
        .num_blocks(blocks)
        .endurance_mean(endurance)
        .gap_interval(10) // scaled ψ; see EXPERIMENTS.md
        .stack("reviver-sg")
        .workload(Benchmark::Ocean.build(blocks, 42))
        .seed(42)
        .sample_interval(2_000_000)
        .build();

    println!(
        "chip: {} blocks ({} KiB), endurance N({endurance:.0}, CoV 0.2), scheme ECP6-SG-WLR",
        blocks,
        blocks * 64 / 1024,
    );
    println!("workload: ocean (write CoV 4.15), running to 70% usable space…\n");
    println!(
        "{:>14} {:>10} {:>10} {:>12}",
        "writes", "usable", "survival", "avg access"
    );

    let outcome = sim.run(StopCondition::UsableBelow(0.70));
    for p in sim.series() {
        println!(
            "{:>14} {:>9.1}% {:>9.1}% {:>12.4}",
            p.writes,
            p.usable * 100.0,
            p.survival * 100.0,
            p.avg_access_time
        );
    }

    println!(
        "\nstopped after {} writes ({:?})",
        outcome.writes_issued, outcome.reason
    );
    println!(
        "pages retired: {}   OS failure reports: {}   lost writes: {}",
        sim.os().retired_pages(),
        sim.os().failure_reports(),
        sim.lost_writes(),
    );
    println!(
        "dead blocks hidden by the framework: {} ({:.2}% of the chip)",
        sim.controller().device().dead_blocks(),
        sim.controller().visible_dead_fraction() * 100.0
    );
}
