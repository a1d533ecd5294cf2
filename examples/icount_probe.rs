//! The instruction-count probe: a window of writes of one stack, marked by
//! two `SIGSTOP`s the process sends itself. Run it under
//! `scripts/icount.sh`, which counts the instructions between the two
//! stops; run bare, it stops itself at the first and waits there for a
//! `SIGCONT`.
//!
//! ```text
//! icount_probe [STACK] [SKIP_WRITES] [WINDOW_WRITES] [healthy|worn|crash|armed]
//! ```
//!
//! * `healthy` (default): `healthy_stream`'s shape — 2¹⁴ blocks, cells
//!   that never fail, the Ocean stream at seed 42. Defaults: `reviver-sg`,
//!   500 000, 10 000.
//! * `worn`: `wearout_tail`'s shape — 2¹⁴ blocks, endurance 2 000, a
//!   uniform stream at seed 42 run until 80 % of the space is usable,
//!   forked, and switched to the first future's stream (seed 43).
//!   Defaults: `reviver-sg`, 200 000, 5 000.
//! * `crash`: one of `crash_recover`'s cycles — 2¹⁴ blocks, endurance
//!   2 000, the integrity oracle on, a uniform stream at seed 42 run until
//!   90 % of the space is usable; the window forks that, switches to seed
//!   43, cuts the power at device write 500, recovers and finishes
//!   `WINDOW_WRITES` writes after the fork. Defaults: `reviver-sg`, 0,
//!   5 000.
//! * `armed`: `crash`'s shape with the power loss out of reach (at device
//!   write 10⁹), so the plan can still fire on every write of the window;
//!   the fork and the arming happen before it, and the window holds the
//!   first `WINDOW_WRITES` writes after them. Defaults: `reviver-sg`, 0,
//!   400.
//!
//! All run ψ = 10 (`scaled_gap_interval(2¹⁴, 1e4)`, the figures' ψ at
//! this size) and skip `SKIP_WRITES` writes before the window (`crash`:
//! before the fork).

use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_pcm::FaultPlan;
use wlr_trace::{Benchmark, UniformWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stack = args.first().map_or("reviver-sg", String::as_str);
    let mode = args.get(3).map_or("healthy", String::as_str);
    if !["healthy", "worn", "crash", "armed"].contains(&mode) {
        eprintln!("icount_probe: mode {mode} is not healthy, worn, crash or armed");
        std::process::exit(2)
    }
    let count = |i: usize, default: u64| {
        args.get(i).map_or(default, |a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("icount_probe: {a} is not a write count");
                std::process::exit(2)
            })
        })
    };
    let (skip, window) = match mode {
        "healthy" => (count(1, 500_000), count(2, 10_000)),
        "worn" => (count(1, 200_000), count(2, 5_000)),
        "crash" => (count(1, 0), count(2, 5_000)),
        _ => (count(1, 0), count(2, 400)),
    };
    let blocks = 1u64 << 14;
    let builder = Simulation::builder()
        .num_blocks(blocks)
        .gap_interval(10)
        .stack(stack)
        .seed(42);
    let mut sim = if mode == "worn" {
        let mut sim = builder
            .endurance_mean(2_000.0)
            .workload(UniformWorkload::new(blocks, 42))
            .build();
        sim.run(StopCondition::UsableBelow(0.8));
        let mut future = Simulation::fork(&sim.snapshot());
        future.replace_workload(Box::new(UniformWorkload::new(future.workload_len(), 43)));
        future
    } else if mode == "crash" || mode == "armed" {
        builder
            .endurance_mean(2_000.0)
            .verify_integrity(true)
            .workload(UniformWorkload::new(blocks, 42))
            .build()
    } else {
        builder
            .endurance_mean(1e9)
            .workload(Benchmark::Ocean.build(blocks, 42))
            .sample_interval(u64::MAX / 2)
            .build()
    };
    if mode == "crash" || mode == "armed" {
        sim.run(StopCondition::UsableBelow(0.9));
    }
    let start = sim.writes_issued() + skip;
    sim.run(StopCondition::Writes(start));
    let snap = (mode == "crash").then(|| sim.snapshot());
    if mode == "armed" {
        sim = Simulation::fork(&sim.snapshot());
        sim.replace_workload(Box::new(UniformWorkload::new(sim.workload_len(), 43)));
        sim.arm_faults(FaultPlan::new().power_loss_at_write(1_000_000_000));
    }
    stop();
    let out = match &snap {
        Some(snap) => {
            sim = Simulation::fork(snap);
            sim.replace_workload(Box::new(UniformWorkload::new(sim.workload_len(), 43)));
            sim.arm_faults(FaultPlan::new().power_loss_at_write(500));
            loop {
                let out = sim.run(StopCondition::Writes(start + window));
                if out.reason != StopReason::PowerLoss {
                    break out;
                }
                sim.recover();
            }
        }
        None => sim.run(StopCondition::Writes(start + window)),
    };
    stop();
    println!(
        "{stack}: {} writes, {window} in the window",
        out.writes_issued
    );
}

/// Sends this process a `SIGSTOP`: one system call, so the window holds
/// the same few instructions of it in every build (a spawned `kill`
/// costs more, and more the longer the pid it is passed).
fn stop() {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    // x86-64 Linux, like the tracer.
    const SIGSTOP: i32 = 19;
    // SAFETY: `raise` is libc's, which std links; it only sends a signal.
    let sent = unsafe { raise(SIGSTOP) };
    assert_eq!(sent, 0, "raise(SIGSTOP) failed");
}
