//! End-to-end data-integrity oracle: after millions of writes with
//! organic failures, migrations, shadow redirections, suspensions and
//! page retirements, every application address that the OS still maps
//! must read back the last value written to it.

use wl_reviver::sim::StopCondition;
use wlr_tests::scenario::{checked_sim, cov_workload};

fn run_integrity(scheme: &str, seed: u64, stop: StopCondition) {
    let mut sim = checked_sim(scheme, seed).build();
    let out = sim.run(stop);
    assert!(out.writes_issued > 10_000, "run too short to be meaningful");
    assert_eq!(
        sim.integrity_errors(),
        0,
        "online integrity violations under {scheme:?}"
    );
    assert_eq!(
        sim.verify_all(),
        0,
        "final read-back mismatches under {scheme:?}"
    );
}

#[test]
fn reviver_start_gap_preserves_data_to_deep_wearout() {
    run_integrity("reviver-sg", 1, StopCondition::DeadFraction(0.10));
}

#[test]
fn reviver_security_refresh_preserves_data_to_deep_wearout() {
    run_integrity("reviver-sr", 2, StopCondition::DeadFraction(0.08));
}

#[test]
fn freep_preserves_data_while_reserve_lasts() {
    run_integrity("freep", 3, StopCondition::UsableBelow(0.85));
}

#[test]
fn lls_preserves_data_across_chunk_acquisitions() {
    run_integrity("lls", 4, StopCondition::UsableBelow(0.80));
}

#[test]
fn zombie_preserves_data_across_page_acquisitions() {
    run_integrity("zombie", 8, StopCondition::UsableBelow(0.90));
}

#[test]
fn plain_start_gap_preserves_data_before_and_after_freeze() {
    run_integrity("sg", 5, StopCondition::UsableBelow(0.85));
}

#[test]
fn skewed_workload_integrity_under_reviver() {
    let blocks = 1 << 10;
    let mut sim = checked_sim("reviver-sg", 6)
        .workload(cov_workload(blocks, 8.88, 6))
        .build();
    sim.run(StopCondition::DeadFraction(0.08));
    assert_eq!(sim.verify_all(), 0, "skewed workload corrupted data");
}

#[test]
fn integrity_survives_multiple_run_segments() {
    // Stopping and resuming the same simulation must not confuse the
    // oracle or the controller.
    let mut sim = checked_sim("reviver-sg", 7).build();
    for step in 1..=5u64 {
        sim.run(StopCondition::Writes(step * 50_000));
        assert_eq!(sim.verify_all(), 0, "mismatch after segment {step}");
    }
}
