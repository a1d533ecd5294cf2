//! Unit tests of the simulation loop (see the parent module).

use super::*;
use wlr_trace::Benchmark;

fn quick(scheme: &str, endurance: f64, seed: u64) -> Simulation {
    Simulation::builder()
        .num_blocks(1 << 12)
        .endurance_mean(endurance)
        .stack(scheme)
        .seed(seed)
        .sample_interval(5_000)
        .build()
}

#[test]
fn healthy_run_reaches_write_budget() {
    let mut sim = quick("reviver-sg", 1e9, 1);
    let out = sim.run(StopCondition::Writes(20_000));
    assert_eq!(out.reason, StopReason::ConditionMet);
    assert_eq!(out.writes_issued, 20_000);
    assert_eq!(out.survival, 1.0);
    assert_eq!(out.usable, 1.0);
    assert!(!sim.series().is_empty());
}

#[test]
fn ecc_only_loses_space_fast() {
    let mut sim = quick("ecc", 2_000.0, 2);
    let out = sim.run(StopCondition::UsableBelow(0.9));
    assert_eq!(out.reason, StopReason::ConditionMet);
    assert!(out.usable <= 0.9);
    assert!(sim.retirements() > 0);
}

#[test]
fn reviver_outlives_frozen_start_gap() {
    let stop = StopCondition::DeadFraction(0.10);
    let mut base = quick("sg", 2_000.0, 3);
    let base_out = base.run(stop);
    let mut wlr = quick("reviver-sg", 2_000.0, 3);
    let wlr_out = wlr.run(stop);
    assert!(
        wlr_out.writes_issued > base_out.writes_issued,
        "WLR {} should outlast SG {}",
        wlr_out.writes_issued,
        base_out.writes_issued
    );
}

#[test]
fn skewed_workload_accelerates_failure_without_wl() {
    let mk = |scheme| {
        Simulation::builder()
            .num_blocks(1 << 12)
            .endurance_mean(2_000.0)
            // Scaled ψ: preserves the paper's rotations-per-lifetime
            // ratio at scaled endurance (see EXPERIMENTS.md).
            .gap_interval(8)
            .stack(scheme)
            .seed(4)
            .workload(Benchmark::Ocean.build(1 << 12, 4))
            .sample_interval(5_000)
            .build()
    };
    // The paper's lifetime metric is *lost space*: without revival
    // every block failure retires a whole 64-block page, so the
    // usable-space curve collapses far sooner than under WL-Reviver,
    // which pays one page per ~60 hidden failures and keeps leveling.
    let mut none = mk("ecc");
    let none_out = none.run(StopCondition::UsableBelow(0.9));
    let mut wlr = mk("reviver-sg");
    let wlr_out = wlr.run(StopCondition::UsableBelow(0.9));
    assert!(
        wlr_out.writes_issued > 2 * none_out.writes_issued,
        "leveling must delay space loss substantially: {} vs {}",
        wlr_out.writes_issued,
        none_out.writes_issued
    );
}

#[test]
fn integrity_oracle_clean_under_reviver() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .stack("reviver-sg")
        .gap_interval(20)
        .seed(5)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.05));
    let errors = sim.verify_all();
    assert_eq!(errors, 0, "data corrupted under WL-Reviver");
    assert_eq!(sim.integrity_errors(), 0);
}

#[test]
fn integrity_oracle_clean_under_reviver_sr() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .stack("reviver-sr")
        .gap_interval(20)
        .seed(6)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.04));
    assert_eq!(sim.verify_all(), 0, "data corrupted under WLR+SR");
}

#[test]
fn freep_reserve_postpones_freeze() {
    let mk = |frac| {
        Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(2_000.0)
            .stack("freep")
            .freep_reserve_frac(frac)
            .seed(7)
            .sample_interval(2_000)
            .build()
    };
    let mut none = mk(0.0);
    none.run(StopCondition::Writes(3_000_000));
    let mut some = mk(0.10);
    some.run(StopCondition::Writes(3_000_000));
    // With a reserve the scheme should still be leveling when the 0%
    // variant has long frozen (or at least have frozen later).
    let frozen_at = |sim: &Simulation| sim.series().iter().find(|p| !p.wl_active).map(|p| p.writes);
    match (frozen_at(&none), frozen_at(&some)) {
        (Some(a), Some(b)) => assert!(b > a, "reserve should delay freeze: {b} vs {a}"),
        (Some(_), None) => {} // reserve never froze: even better
        (None, _) => panic!("0% reserve never froze in 3M writes"),
    }
}

#[test]
fn lls_acquires_chunks_and_survives() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 12)
        .endurance_mean(2_000.0)
        .stack("lls")
        .seed(8)
        .sample_interval(5_000)
        .build();
    let out = sim.run(StopCondition::DeadFraction(0.05));
    assert!(out.writes_issued > 0);
    // LLS gives up software space for its chunks.
    assert!(sim.os().retired_pages() > 0, "no chunks were acquired");
    assert!(sim.usable_fraction() < 1.0);
}

#[test]
fn usable_accounts_for_freep_reserve() {
    let sim = Simulation::builder()
        .num_blocks(1 << 12)
        .stack("freep")
        .seed(9)
        .build();
    // 10% pre-reserved: usable starts near 90%.
    let u = sim.usable_fraction();
    assert!((u - 0.90).abs() < 0.02, "initial usable {u}");
}

#[test]
#[should_panic(expected = "has no pre-reserve")]
fn freep_reserve_frac_rejects_a_stack_without_pre_reserve() {
    Simulation::builder()
        .stack("reviver-sg")
        .freep_reserve_frac(0.1)
        .build();
}

#[test]
fn app_blocks_predicts_the_built_application_space() {
    for (stack, frac) in [("reviver-sg", None), ("freep", None), ("freep", Some(0.05))] {
        let mut b = Simulation::builder()
            .num_blocks(1 << 12)
            .stack(stack)
            .os_reserve_pages(2);
        if let Some(frac) = frac {
            b = b.freep_reserve_frac(frac);
        }
        let predicted = b.app_blocks();
        assert_eq!(predicted, b.build().os().app_blocks(), "{stack} {frac:?}");
    }
}

#[test]
fn series_samples_are_recorded() {
    let mut sim = quick("reviver-sg", 1e9, 10);
    sim.run(StopCondition::Writes(25_000));
    assert!(sim.series().len() >= 5);
    let last = sim.series().last().unwrap();
    assert_eq!(last.writes, 25_000);
    assert!((last.avg_access_time - 1.0).abs() < 0.05);
}

#[test]
fn hard_cap_stops_runaway() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1e9)
        .stack("reviver-sg")
        .seed(11)
        .hard_cap(5_000)
        .build();
    let out = sim.run(StopCondition::DeadFraction(0.3));
    assert_eq!(out.reason, StopReason::HardCap);
    assert_eq!(out.writes_issued, 5_000);
}

#[test]
fn no_switching_mode_preserves_data_with_longer_chains() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sg")
        .reviver_chain_switching(false)
        .seed(15)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.10));
    assert_eq!(sim.verify_all(), 0, "ablation mode corrupted data");
    let ctl = sim.controller().as_reviver().unwrap();
    let max_chain = ctl.chain_lengths().into_iter().max().unwrap_or(0);
    assert!(
        max_chain >= 2,
        "no-switching mode should grow chains (max {max_chain})"
    );
}

#[test]
fn switching_mode_keeps_chains_at_one_step() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sg")
        .seed(15)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.10));
    let ctl = sim.controller().as_reviver().unwrap();
    assert!(ctl.chain_lengths().into_iter().all(|l| l <= 1));
}

#[test]
fn proactive_acquisition_never_fakes_reports() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(5)
        .stack("reviver-sg")
        .reviver_proactive(true)
        .seed(16)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.10));
    let ctl = sim.controller().as_reviver().unwrap();
    assert_eq!(
        ctl.counters().fake_reports,
        0,
        "proactive mode must not sacrifice writes"
    );
    assert!(ctl.counters().suspensions > 0, "suspensions still happen");
    assert_eq!(sim.verify_all(), 0);
}

#[test]
fn reboot_preserves_data_and_revival() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sg")
        .seed(20)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    // Wear in deep enough that links and retired pages exist.
    sim.run(StopCondition::DeadFraction(0.05));
    let links_before = sim.controller().as_reviver().unwrap().linked_blocks();
    assert!(links_before > 20, "need real state before rebooting");
    for round in 1..=3 {
        if !sim.controller().suspended() {
            sim.recover();
        }
        assert_eq!(sim.verify_all(), 0, "data lost across reboot {round}");
        let target = sim.writes_issued() + 30_000;
        sim.run(StopCondition::Writes(target));
        assert_eq!(sim.verify_all(), 0, "corruption after reboot {round}");
    }
    let ctl = sim.controller().as_reviver().unwrap();
    assert_eq!(ctl.counters().reboots, 3);
    assert!(
        ctl.linked_blocks() >= links_before,
        "links must persist across power cycles"
    );
}

#[test]
fn durable_image_reboots_a_fresh_simulation_or_is_refused() {
    let build = || {
        Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .seed(20)
            .build()
    };
    let mut worn = build();
    worn.run(StopCondition::DeadFraction(0.05));
    let img = worn.durable_image();
    assert!(!img.dead.is_empty() && !img.retirements.is_empty());

    let mut fresh = build();
    let report = fresh.restore_durable(&img).expect("its own image restores");
    assert!(report.links_recovered > 20, "{report:?}");
    assert_eq!(
        fresh.durable_image(),
        img,
        "durable state survives the reboot"
    );

    // An image off a disk is checked against this device, not trusted.
    let refused = |edit: &dyn Fn(&mut DurableImage)| {
        let mut bad = img.clone();
        edit(&mut bad);
        build().restore_durable(&bad).is_err()
    };
    assert!(refused(&|i| {
        i.wear.pop();
    }));
    assert!(refused(&|i| i.retirements.push(u64::MAX)));
    assert!(refused(&|i| {
        i.dead.pop();
    }));
    assert!(refused(&|i| i.meta.truncate(8)));
}

#[test]
fn tiled_start_gap_revives_cleanly() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .sg_tiles(4)
        .stack("reviver-tiled")
        .seed(18)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.08));
    assert_eq!(sim.verify_all(), 0, "tiled SG corrupted data");
    assert!(sim.controller().device().dead_blocks() > 50);
}

#[test]
fn two_level_sr_revives_cleanly() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sr2")
        .seed(19)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.06));
    assert_eq!(sim.verify_all(), 0, "two-level SR corrupted data");
}

#[test]
fn table_randomizer_variant_works() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sg")
        .sg_randomizer(wlr_wl::RandomizerKind::Table { seed: 3 })
        .seed(17)
        .verify_integrity(true)
        .check_invariants(true)
        .sample_interval(2_000)
        .build();
    sim.run(StopCondition::DeadFraction(0.06));
    assert_eq!(sim.verify_all(), 0);
}

#[test]
#[should_panic(expected = "must equal the application space")]
fn mismatched_workload_panics() {
    Simulation::builder()
        .num_blocks(1 << 12)
        .workload(wlr_trace::UniformWorkload::new(17, 0))
        .build();
}

/// Regression for the oracle's verification-order contract: the key
/// order its picks index (`nth_key` over the presence bitset) must at
/// every point equal the seed-state engine's collect-then-`sort_unstable`
/// of the key set, or verification picks (and thus whole oracle runs)
/// silently diverge across engines.
#[test]
fn oracle_key_list_tracks_sorted_key_set() {
    use std::collections::HashMap;
    let mut oracle: DenseMap<u64> = DenseMap::with_capacity(512);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = Rng::stream(0x0AC1E, 0);
    for i in 0..20_000u64 {
        let k = rng.gen_range(512);
        if rng.gen_range(4) == 0 {
            oracle.remove(k);
            model.remove(&k);
        } else {
            oracle.insert(k, i);
            model.insert(k, i);
        }
        if i % 997 == 0 {
            let mut sorted: Vec<u64> = model.keys().copied().collect();
            sorted.sort_unstable();
            let picked: Vec<u64> = (0..sorted.len())
                .map(|r| oracle.nth_key(r).expect("r < len"))
                .collect();
            assert_eq!(picked, sorted, "key order diverged at op {i}");
        }
    }
    assert_eq!(oracle.len(), model.len());
    for (k, &v) in &model {
        assert_eq!(oracle.get(*k), Some(v));
    }
}

/// Externally-driven batches must be bit-identical to the same
/// addresses flowing through the simulation's own workload, and
/// invariant to how the sequence is partitioned into batches — the
/// contract the multi-bank front-end's determinism rests on.
#[test]
fn run_batch_matches_workload_driven_run() {
    let mk = || {
        Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .seed(33)
            .sample_interval(2_000)
            .build()
    };
    let mut on_workload = mk();
    on_workload.run(StopCondition::Writes(40_000));

    // Reproduce the default workload's stream out-of-band.
    let app_blocks = mk().os().app_blocks();
    let mut src = wlr_trace::UniformWorkload::new(app_blocks, 33);
    let addrs: Vec<AppAddr> = (0..40_000).map(|_| src.next_write()).collect();

    let mut whole = mk();
    assert_eq!(whole.run_batch(&addrs), BatchStatus::Completed);
    assert_eq!(whole.fingerprint(), on_workload.fingerprint());
    assert_eq!(whole.writes_issued(), on_workload.writes_issued());

    // Any partitioning of the same sequence is invisible.
    let mut chunked = mk();
    for chunk in addrs.chunks(777) {
        assert_eq!(chunked.run_batch(chunk), BatchStatus::Completed);
    }
    assert_eq!(chunked.fingerprint(), whole.fingerprint());
    assert_eq!(chunked.series().len(), whole.series().len());
}

#[test]
fn run_batch_respects_hard_cap() {
    let mut sim = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1e9)
        .stack("reviver-sg")
        .seed(34)
        .hard_cap(1_000)
        .build();
    let addrs: Vec<AppAddr> = (0..2_000).map(|i| AppAddr::new(i % 64)).collect();
    assert_eq!(
        sim.run_batch(&addrs),
        BatchStatus::HardCap { consumed: 1_000 }
    );
    assert_eq!(sim.writes_issued(), 1_000);
}

#[test]
fn fingerprint_distinguishes_different_histories() {
    let mk = |seed| {
        Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .stack("reviver-sg")
            .seed(seed)
            .build()
    };
    let mut a = mk(1);
    let mut b = mk(1);
    let mut c = mk(2);
    a.run(StopCondition::Writes(30_000));
    b.run(StopCondition::Writes(30_000));
    c.run(StopCondition::Writes(30_000));
    assert_eq!(a.fingerprint(), b.fingerprint(), "same history must match");
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must differ"
    );
}

/// The batched engine must sample at exactly the same write counts as
/// per-write `is_multiple_of` checking, across every stop kind.
#[test]
fn batched_sampling_lands_on_exact_boundaries() {
    for stop in [
        StopCondition::Writes(23_000),
        StopCondition::DeadFraction(0.05),
        StopCondition::UsableBelow(0.95),
    ] {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .stack("reviver-sg")
            .gap_interval(10)
            .seed(21)
            .sample_interval(3_000)
            .build();
        let out = sim.run(stop);
        for p in sim.series() {
            assert!(
                p.writes % 3_000 == 0 || p.writes == out.writes_issued,
                "off-boundary sample at {} under {stop:?}",
                p.writes
            );
        }
        assert!(sim.series().len() >= 2, "no samples under {stop:?}");
    }
}
