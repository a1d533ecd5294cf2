//! The OS boundary, end to end: exception-driven page retirement, rare
//! failure reports, LLS's explicit page requests, and retirement copies
//! flowing through the controller.

use wl_reviver::sim::StopCondition;
use wlr_tests::scenario::{checked_sim, fast_sim};

#[test]
fn reviver_reports_once_per_page_not_per_failure() {
    let mut sim = fast_sim("reviver-sg", 31).build();
    sim.run(StopCondition::DeadFraction(0.10));
    let failures = sim.controller().device().dead_blocks();
    let reports = sim.os().failure_reports();
    assert!(failures > 200, "need a deep run (got {failures} failures)");
    // One 64-block page yields ~60 virtual shadows, so reports should be
    // roughly failures/60 — demand "far fewer" with slack for timing.
    assert!(
        reports * 20 < failures,
        "too many OS interruptions: {reports} reports for {failures} failures"
    );
}

#[test]
fn baseline_reports_every_failure() {
    let mut sim = fast_sim("ecc", 32).build();
    sim.run(StopCondition::UsableBelow(0.90));
    let reports = sim.os().failure_reports();
    let retired = sim.os().retired_pages();
    assert_eq!(reports, retired, "every report retires a page");
    assert!(reports > 5, "run should have produced several failures");
}

#[test]
fn reviver_usable_space_tracks_retired_pages_exactly() {
    let mut sim = fast_sim("reviver-sg", 33).build();
    sim.run(StopCondition::DeadFraction(0.08));
    let bpp = sim.geometry().blocks_per_page();
    let expect = (sim.geometry().num_blocks() - sim.os().retired_pages() * bpp) as f64
        / sim.geometry().num_blocks() as f64;
    assert!((sim.usable_fraction() - expect).abs() < 1e-12);
}

#[test]
fn lls_uses_explicit_os_support() {
    let mut sim = fast_sim("lls", 34).build();
    sim.run(StopCondition::DeadFraction(0.04));
    let ctl = sim.controller().as_lls().expect("scheme is LLS");
    assert!(ctl.chunks_acquired() >= 1, "LLS should have taken a chunk");
    // Chunk retirements are requests, not failure reports.
    assert!(
        sim.os().retired_pages() > sim.os().failure_reports(),
        "chunk pages must come from explicit requests"
    );
}

#[test]
fn retirement_copies_wear_the_pcm() {
    // The data relocation the OS performs on retirement is real traffic:
    // compare device write counts against software writes issued.
    let mut sim = checked_sim("ecc", 35).os_reserve_pages(4).build();
    sim.run(StopCondition::UsableBelow(0.95));
    let device_writes = sim.controller().device().stats().writes;
    assert!(
        device_writes > sim.writes_issued(),
        "retirement copies should add device writes: {device_writes} vs {}",
        sim.writes_issued()
    );
    assert_eq!(sim.verify_all(), 0, "relocation must preserve data");
}

#[test]
fn os_reserve_pool_absorbs_early_retirements() {
    let mut sim = fast_sim("ecc", 36).os_reserve_pages(8).build();
    sim.run(StopCondition::Writes(400_000));
    // While the pool lasts, the application footprint is intact.
    if sim.os().retired_pages() <= 8 {
        assert_eq!(
            sim.os().mapped_app_pages(),
            sim.os().app_pages(),
            "footprint should be intact while the pool absorbs retirements"
        );
    }
}
