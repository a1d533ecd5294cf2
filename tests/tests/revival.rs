//! The headline claims, cross-checked end to end:
//!
//! 1. wear leveling ceases on the first failure without revival, and the
//!    chip's space then collapses;
//! 2. WL-Reviver keeps the scheme migrating arbitrarily deep into
//!    wear-out, without compromising its leveling effect;
//! 3. the framework pays almost nothing while the chip is healthy.

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::StopCondition;
use wlr_base::stats::Summary;
use wlr_tests::scenario::{bench_workload, fast_sim};
use wlr_trace::Benchmark;

/// Wear flatness over the visible space: CoV of per-block wear.
fn wear_cov(sim: &wl_reviver::sim::Simulation) -> f64 {
    let n = sim.geometry().num_blocks() as usize;
    let mut s = Summary::new();
    for &w in &sim.controller().device().wear_snapshot()[..n] {
        s.push(w as f64);
    }
    s.cov()
}

#[test]
fn baseline_freezes_on_first_failure_and_collapses() {
    let blocks = 1 << 12;
    let mut sim = fast_sim("sg", 21)
        .workload(bench_workload(Benchmark::Ocean, blocks, 21))
        .build();
    sim.run(StopCondition::UsableBelow(0.70));
    let freeze_at = sim
        .series()
        .iter()
        .find(|p| !p.wl_active)
        .map(|p| p.writes)
        .expect("Start-Gap must freeze before the chip dies");
    let end = sim.series().last().unwrap().writes;
    assert!(end > freeze_at, "chip must outlive the freeze briefly");
    // The frozen chip's total lifetime is a small fraction of what the
    // revived configuration achieves on the same workload ("precipitous"
    // in the paper's words).
    let mut revived = fast_sim("reviver-sg", 21)
        .workload(bench_workload(Benchmark::Ocean, blocks, 21))
        .build();
    let wlr_end = revived.run(StopCondition::UsableBelow(0.70)).writes_issued;
    assert!(
        end * 3 < wlr_end,
        "frozen chip ({end}) should die far before the revived one ({wlr_end})"
    );
}

#[test]
fn reviver_still_levels_after_many_failures() {
    let blocks = 1 << 12;
    let mut sim = fast_sim("reviver-sg", 22)
        .workload(bench_workload(Benchmark::Ocean, blocks, 22))
        .build();
    sim.run(StopCondition::DeadFraction(0.05));
    assert!(sim.controller().wl_active(), "reviver must never freeze");
    assert!(
        sim.controller().device().dead_blocks() > 150,
        "run should be deep into failures"
    );
    // Leveling quality: wear stays flat even though 5% of blocks died.
    let cov = wear_cov(&sim);
    assert!(
        cov < 0.6,
        "wear CoV {cov} too high: leveling effect compromised"
    );
}

#[test]
fn frozen_baseline_wear_is_much_less_flat() {
    let blocks = 1 << 12;
    let run = |scheme| {
        let mut sim = fast_sim(scheme, 23)
            .workload(bench_workload(Benchmark::Mg, blocks, 23))
            .build();
        sim.run(StopCondition::UsableBelow(0.90));
        (wear_cov(&sim), sim.writes_issued())
    };
    let (cov_baseline, _) = run("sg");
    let (cov_wlr, _) = run("reviver-sg");
    assert!(
        cov_wlr < cov_baseline,
        "WLR wear CoV {cov_wlr} should beat frozen baseline {cov_baseline}"
    );
}

#[test]
fn reviver_beats_baseline_on_every_benchmark() {
    // Figure 5's qualitative content: ECP6-SG-WLR outlives ECP6-SG on all
    // eight benchmarks (paper: +36%…+325%).
    let blocks = 1 << 12;
    for bench in Benchmark::table1() {
        let lifetime = |scheme| {
            let mut sim = fast_sim(scheme, 24)
                .workload(bench_workload(bench, blocks, 24))
                .build();
            sim.run(StopCondition::UsableBelow(0.70)).writes_issued
        };
        let sg = lifetime("sg");
        let wlr = lifetime("reviver-sg");
        assert!(
            wlr as f64 > sg as f64 * 1.2,
            "{bench}: WLR {wlr} should outlive SG {sg} clearly"
        );
    }
}

#[test]
fn healthy_chip_pays_nothing_for_the_framework() {
    let _blocks = 1 << 12;
    let run = |scheme| {
        let mut sim = fast_sim(scheme, 25)
            .endurance_mean(1e12) // never fails
            .build();
        sim.run(StopCondition::Writes(200_000));
        let req = sim.controller().request_stats();
        let _ = scheme;
        req.avg_access_time()
    };
    let base = run("sg");
    let wlr = run("reviver-sg");
    assert!((base - 1.0).abs() < 1e-9, "baseline access time {base}");
    assert!((wlr - 1.0).abs() < 1e-9, "healthy WLR access time {wlr}");
}

#[test]
fn usable_space_is_full_until_first_failure() {
    // §IV-C: "WL-Reviver makes 100% of the PCM space usable before the
    // first failure", unlike FREE-p which pre-reserves.
    let wlr = fast_sim("reviver-sg", 26).build();
    assert_eq!(wlr.usable_fraction(), 1.0);
    let freep = fast_sim("freep", 26).build();
    assert!(freep.usable_fraction() < 0.95);
}

#[test]
fn failure_era_reads_stay_near_one_pointer_per_write() {
    // §III-B's promise is one extra step after a failure. Through the
    // tail of a lifetime (80% → 50% usable) that is at most a pointer
    // read per software write plus the migrations' and retirement
    // copies' reads; a chain walk that does not end shows here as
    // several reads per write.
    for spec in SchemeRegistry::global().revivable() {
        let mut sim = fast_sim(spec.name, 27).build();
        sim.run(StopCondition::UsableBelow(0.8));
        let (reads, writes) = (sim.controller().device().stats().reads, sim.writes_issued());
        sim.run(StopCondition::UsableBelow(0.5));
        let reads = (sim.controller().device().stats().reads - reads) as f64;
        let writes = (sim.writes_issued() - writes) as f64;
        assert!(writes > 100_000.0, "{}: tail too short to judge", spec.name);
        assert!(
            reads / writes <= 1.5,
            "{}: {:.2} device reads per software write in the tail",
            spec.name,
            reads / writes
        );
    }
}
