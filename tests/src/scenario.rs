//! Scenario builders shared by the integration tests.

use wl_reviver::sim::{Simulation, SimulationBuilder};
use wlr_trace::{Benchmark, CovTargetedWorkload, SpatialMode};

/// Standard small rig: 2¹⁰ blocks, scaled endurance, invariant checking
/// and the integrity oracle enabled.
pub fn checked_sim(scheme: &str, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack(scheme)
        .seed(seed)
        .sample_interval(2_000)
        .verify_integrity(true)
        .check_invariants(true)
}

/// Performance-shaped rig: 2¹² blocks, no oracle overhead.
pub fn fast_sim(scheme: &str, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(1 << 12)
        .endurance_mean(2_000.0)
        .gap_interval(8)
        .stack(scheme)
        .seed(seed)
        .sample_interval(10_000)
}

/// A benchmark workload sized for an app space of `blocks`.
pub fn bench_workload(bench: Benchmark, blocks: u64, seed: u64) -> CovTargetedWorkload {
    bench.build(blocks, seed)
}

/// A raw CoV-targeted workload.
pub fn cov_workload(blocks: u64, cov: f64, seed: u64) -> CovTargetedWorkload {
    CovTargetedWorkload::new(blocks, cov, SpatialMode::Clustered { run_blocks: 64 }, seed)
}
