//! The instruction-count probe: `healthy_stream`'s shape for one stack
//! (2¹⁴ blocks, cells that never fail, the Ocean stream, seed 42), with
//! a window of healthy-era writes marked by two `SIGSTOP`s the process
//! sends itself. Run it under `scripts/icount.sh`, which counts the
//! instructions between the two stops; run bare, it stops itself at the
//! first and waits there for a `SIGCONT`.
//!
//! ```text
//! icount_probe [STACK] [WARM_WRITES] [WINDOW_WRITES]
//! ```
//!
//! defaults: `reviver-sg`, 500 000, 10 000.

use std::process::Command;
use wl_reviver::sim::{Simulation, StopCondition};
use wlr_trace::Benchmark;

fn main() {
    let mut args = std::env::args().skip(1);
    let stack = args.next().unwrap_or_else(|| "reviver-sg".into());
    let mut count = |default: u64| {
        args.next().map_or(default, |a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("icount_probe: {a} is not a write count");
                std::process::exit(2)
            })
        })
    };
    let (warm, window) = (count(500_000), count(10_000));
    let blocks = 1u64 << 14;
    let mut sim = Simulation::builder()
        .num_blocks(blocks)
        .endurance_mean(1e9)
        // `scaled_gap_interval(2¹⁴, 1e4)`: the figures' ψ at this size.
        .gap_interval(10)
        .stack(&stack)
        .seed(42)
        .workload(Benchmark::Ocean.build(blocks, 42))
        .sample_interval(u64::MAX / 2)
        .build();
    // Both stops are built before the window, so that it holds only the
    // second one's spawn.
    let pid = std::process::id().to_string();
    let mut stops = [0; 2].map(|_| {
        let mut kill = Command::new("kill");
        kill.args(["-STOP", &pid]);
        kill
    });
    sim.run(StopCondition::Writes(warm));
    let [first, second] = &mut stops;
    first.status().expect("kill runs");
    let out = sim.run(StopCondition::Writes(warm + window));
    second.status().expect("kill runs");
    println!(
        "{stack}: {} writes, {window} in the window",
        out.writes_issued
    );
}
