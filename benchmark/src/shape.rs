//! The shape of the five workloads: sizes, stacks and the simulator state
//! each starts from. `e2e` and `layers` both build from here, so the traced
//! run takes apart exactly what the end-to-end run times.
//!
//! This module is part of the pinned surface (see README.md): it builds
//! stacks by registry name and sets nothing scheme-specific.

use wl_reviver::sim::{SimSnapshot, Simulation, StopCondition};
use wlr_bench::{exp_builder, scaled_gap_interval, EXP_BLOCKS, EXP_ENDURANCE};
use wlr_mc::McFrontend;
use wlr_trace::{Benchmark, HotRegionWorkload, UniformWorkload, Workload};

use crate::CHIP_SEED;

/// The stacks every simulator workload runs, one after the other, with
/// the short name the per-layer metrics use: ROADMAP's first question is
/// why the second runs at ~0.7× the first.
pub const STACKS: [(&str, &str); 2] = [("reviver-sg", "sg"), ("reviver-sr", "sr")];

/// Every run length of the issue's sizing is divided by this one factor,
/// so that a repetition takes about a second and a ten-second run holds
/// eight or more of them.
pub const SCALE: u64 = 5;

/// `healthy_stream` and `bank_*` time a repetition in this many equal
/// slices (pieces of about a tenth of a second).
pub const SLICES: u64 = 10;

/// `healthy_stream`: writes per stack and repetition.
pub const HEALTHY_WRITES: u64 = 80_000_000 / SCALE;
/// `wearout_tail`: cell endurance (it sets the length of a lifetime).
pub const WEAROUT_ENDURANCE: f64 = EXP_ENDURANCE / SCALE as f64;
/// `wearout_tail`: futures per stack and repetition.
pub const WEAROUT_FUTURES: u64 = 10;
/// `wearout_tail`: usable space at which the futures fork.
pub const WEAROUT_FROM: f64 = 0.8;
/// `wearout_tail`: usable space at which a future ends.
pub const WEAROUT_TO: f64 = 0.5;
/// `bank_*`: banks of the front-end.
pub const BANKS: usize = 8;
/// `bank_*`: requests per repetition.
pub const BANK_REQUESTS: u64 = 150_000_000 / SCALE;
/// `crash_recover`: cycles per stack and repetition.
pub const CRASH_CYCLES: u64 = 3_000 / SCALE;
/// `crash_recover`: writes a cycle completes, crashes included.
pub const CRASH_WRITES: u64 = 5_000;
/// `crash_recover`: cell endurance.
pub const CRASH_ENDURANCE: f64 = 2_000.0;
/// `crash_recover`: usable space at which the cycles fork.
pub const CRASH_FROM: f64 = 0.9;

/// `healthy_stream`'s address stream.
pub fn ocean(seed: u64) -> impl Workload + 'static {
    Benchmark::Ocean.build(EXP_BLOCKS, seed)
}

/// The uniform address stream (`wearout_tail`, `bank_uniform`,
/// `crash_recover`).
pub fn uniform(seed: u64) -> impl Workload + 'static {
    UniformWorkload::new(EXP_BLOCKS, seed)
}

/// `bank_hot`'s address stream: 90 % of the requests on 1 % of the lines.
pub fn hot(seed: u64) -> impl Workload + 'static {
    HotRegionWorkload::new(EXP_BLOCKS, 0.9, 0.01, seed)
}

/// A chip on which no cell ever fails, running `stack` over `workload`.
pub fn healthy_sim(stack: &str, workload: impl Workload + 'static) -> Simulation {
    exp_builder()
        .stack(stack)
        .seed(CHIP_SEED)
        .endurance_mean(1e9)
        .workload(workload)
        .sample_interval(u64::MAX / 2)
        .build()
}

/// `wearout_tail`'s starting state for `stack`: worn by a uniform stream
/// until a fifth of the space is gone.
pub fn wearout_snapshot(stack: &str, seed: u64) -> SimSnapshot {
    let mut sim = exp_builder()
        .stack(stack)
        .seed(CHIP_SEED)
        .endurance_mean(WEAROUT_ENDURANCE)
        .workload(uniform(seed))
        .build();
    sim.run(StopCondition::UsableBelow(WEAROUT_FROM));
    sim.snapshot()
}

/// The address stream of `wearout_tail`'s future `i` (and of
/// `crash_recover`'s cycle `i`) over a space of `len` blocks.
pub fn future_stream(len: u64, seed: u64, i: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(len, seed + 1 + i))
}

/// `crash_recover`'s starting state for `stack`: integrity oracle on,
/// worn until a tenth of the space is gone.
pub fn crash_snapshot(stack: &str, seed: u64) -> SimSnapshot {
    let mut sim = exp_builder()
        .stack(stack)
        .seed(CHIP_SEED)
        .endurance_mean(CRASH_ENDURANCE)
        .verify_integrity(true)
        .workload(uniform(seed))
        .build();
    sim.run(StopCondition::UsableBelow(CRASH_FROM));
    sim.snapshot()
}

/// Device write at which cycle `i` of `crash_recover` loses power.
pub fn crash_point(i: u64) -> u64 {
    500 + (37 * i) % 3_000
}

/// The `bank_*` front-end over `banks` banks: a healthy chip, everything
/// but the listed sizes at the builder's defaults — worker count included,
/// so the drain is whatever users get on this machine.
pub fn bank_frontend(banks: usize) -> McFrontend {
    McFrontend::builder()
        .banks(banks)
        .total_blocks(EXP_BLOCKS)
        .endurance_mean(1e9)
        .gap_interval(scaled_gap_interval(
            EXP_BLOCKS / banks as u64,
            EXP_ENDURANCE,
        ))
        .seed(CHIP_SEED)
        .queue_depth(64)
        .write_buffer_lines(32)
        .build()
        .expect("the bank count divides the chip")
}
