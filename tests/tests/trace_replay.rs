//! Trace-driven simulation, end to end: recording a workload to a `WLTR`
//! file and replaying it must drive the simulator to the *identical*
//! final state — the property that lets real Pin traces substitute for
//! the synthetic generators.

use wl_reviver::sim::StopCondition;
use wlr_tests::scenario::checked_sim;
use wlr_trace::{Benchmark, TraceWorkload, TraceWriter};

fn trace_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wlr-integration-traces");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn replayed_trace_reproduces_the_generated_run_exactly() {
    let blocks = 1u64 << 10;
    let records = 400_000u64;
    let path = trace_path("ocean.wltr");

    // Record a slice of the ocean workload.
    let mut src = Benchmark::Ocean.build(blocks, 77);
    let mut w = TraceWriter::create(&path, blocks).unwrap();
    w.record_from(&mut src, records).unwrap();
    w.finish().unwrap();

    // Run A: directly from a fresh generator.
    let mut direct = checked_sim("reviver-sg", 5)
        .workload(Benchmark::Ocean.build(blocks, 77))
        .build();
    direct.run(StopCondition::Writes(records));

    // Run B: from the recorded trace.
    let mut replay = checked_sim("reviver-sg", 5)
        .workload(TraceWorkload::load(&path).unwrap())
        .build();
    replay.run(StopCondition::Writes(records));

    // Identical inputs + identical seeds = identical final state.
    assert_eq!(
        direct.controller().device().dead_blocks(),
        replay.controller().device().dead_blocks()
    );
    assert_eq!(
        direct.controller().device().stats(),
        replay.controller().device().stats()
    );
    assert_eq!(direct.os().retired_pages(), replay.os().retired_pages());
    assert_eq!(direct.verify_all(), 0);
    assert_eq!(replay.verify_all(), 0);

    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_loops_extend_the_run_beyond_one_pass() {
    let blocks = 1u64 << 10;
    let path = trace_path("short.wltr");
    let mut src = Benchmark::Fft.build(blocks, 3);
    let mut w = TraceWriter::create(&path, blocks).unwrap();
    w.record_from(&mut src, 10_000).unwrap();
    w.finish().unwrap();

    let trace = TraceWorkload::load(&path).unwrap();
    assert_eq!(trace.records_per_lap(), 10_000);
    let mut sim = checked_sim("reviver-sg", 9).workload(trace).build();
    // 5 laps of the trace (the paper's "program runs multiple times").
    sim.run(StopCondition::Writes(50_000));
    assert_eq!(sim.verify_all(), 0);
    std::fs::remove_file(&path).ok();
}
