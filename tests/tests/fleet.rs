//! Snapshot/fork contract tests: the Monte Carlo fleet (and the
//! fork-shared replicate sweeps in the bench harness) are sound only if
//! a forked simulation is indistinguishable from the run it was forked
//! from. Three angles:
//!
//! 1. **Bit-identity** — fork-then-replay equals both continuing the
//!    original run and a fresh run, on every scheme stack, with the
//!    integrity oracle and its verification RNG in the captured state.
//! 2. **Quarantine round-trip** — forking a multi-bank array *after* a
//!    degraded-mode bank death (PR-8) and restoring the quarantine
//!    image replays identically to the surviving original.
//! 3. **Determinism** — the same (snapshot, seed, fault plan) always
//!    yields the same lifetime, across repeated forks.

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Simulation, StopCondition};
use wlr_mc::{BankChaos, McFrontend, McStopPolicy};
use wlr_pcm::FaultPlan;
use wlr_trace::{UniformWorkload, Workload};

fn sim(scheme: &str) -> Simulation {
    Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(300.0)
        .gap_interval(7)
        .stack(scheme)
        .seed(7)
        .sample_interval(2_000)
        .verify_integrity(true)
        .build()
}

/// Fork-then-replay must be bit-identical to (a) continuing the
/// original run and (b) a fresh run that never snapshotted, on all nine
/// stacks — the acceptance proof that `snapshot()` captures the *full*
/// observable state (device wear image, leveler state, link tables,
/// spare pool, OS page tables, workload position, verification RNG).
///
/// The snapshot lands at the fourth visible block death, so the failure
/// era (links, chain switches, page retirements, spare harvesting) is
/// active at the fork point on every scheme — but the run has not
/// exhausted its memory yet (bare schemes burn a whole page per death
/// and die at the 16th; re-running an exhausted simulation issues one
/// more write attempt, which would make a fresh single-call run
/// trivially differ).
#[test]
fn fork_then_replay_is_bit_identical_on_all_stacks() {
    for name in SchemeRegistry::global().names() {
        let mut original = sim(name);
        let warm = original.run(StopCondition::DeadFraction(4.0 / 1024.0));
        assert_eq!(
            warm.reason,
            wl_reviver::sim::StopReason::ConditionMet,
            "{name}: warmup must stop on the death condition"
        );
        let finish_at = original.writes_issued() + 60_000;
        let snap = original.snapshot();
        assert_eq!(snap.writes_issued(), original.writes_issued(), "{name}");

        let cont = original.run(StopCondition::Writes(finish_at));

        let mut forked = Simulation::fork(&snap);
        let fork_out = forked.run(StopCondition::Writes(finish_at));

        let mut fresh = sim(name);
        let fresh_out = fresh.run(StopCondition::Writes(finish_at));

        assert_eq!(
            forked.fingerprint(),
            original.fingerprint(),
            "{name}: fork-then-replay diverged from the continued original"
        );
        assert_eq!(
            forked.fingerprint(),
            fresh.fingerprint(),
            "{name}: fork-then-replay diverged from a fresh run"
        );
        assert_eq!(fork_out.writes_issued, cont.writes_issued, "{name}");
        assert_eq!(fork_out.writes_issued, fresh_out.writes_issued, "{name}");
        assert_eq!(
            forked.integrity_errors(),
            original.integrity_errors(),
            "{name}"
        );
        assert_eq!(original.integrity_errors(), 0, "{name}: oracle violated");
        // A second fork from the same snapshot is as good as the first:
        // the snapshot is not consumed or perturbed by forking.
        let mut again = Simulation::fork(&snap);
        again.run(StopCondition::Writes(finish_at));
        assert_eq!(again.fingerprint(), forked.fingerprint(), "{name}");
    }
}

/// Fork a degraded-mode array *after* a bank death: per-bank snapshots
/// plus the persisted `QuarantineImage` must reconstruct a front-end
/// that replays the rest of the trace bit-identically to the surviving
/// original (the serve-restart flow, with O(1) forks in place of
/// wear-image replay).
#[test]
fn snapshot_under_quarantine_round_trips() {
    const BANKS: usize = 4;
    const BLOCKS: u64 = 1 << 12;
    let build = || {
        McFrontend::builder()
            .banks(BANKS)
            .total_blocks(BLOCKS)
            .endurance_mean(1e9)
            .stack("reviver-sg")
            .verify_integrity(true)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(29)
            .build()
            .unwrap()
    };

    // Phase 1: run the original into a bank death.
    let mut original = build();
    let mut w1 = UniformWorkload::new(BLOCKS, 29);
    original.inject_chaos(2, BankChaos::KillAfter(128));
    original.with_pipeline(|m| {
        for _ in 0..25_000 {
            m.submit(w1.next_write().index());
        }
    });
    let out = original.finish();
    assert_eq!(out.quarantines, 1, "the chaos kill must quarantine bank 2");

    // Freeze: per-bank simulation snapshots + the quarantine image.
    let snaps: Vec<_> = original
        .banks()
        .iter()
        .map(|b| b.sim().snapshot())
        .collect();
    let img = original.quarantine_image().unwrap();
    assert!(img.dead[2]);

    // Restore: a fresh front-end with forked bank sims and the image.
    let mut restored = build();
    for (bank, snap) in snaps.iter().enumerate() {
        *restored.bank_sim_mut(bank) = Simulation::fork(snap);
    }
    restored
        .restore_quarantine(&img)
        .expect("its own quarantine image");

    // Phase 2: drive both with the identical divergent stream.
    let mut w2 = UniformWorkload::new(BLOCKS, 77);
    let mut w2b = w2.clone();
    original.with_pipeline(|m| {
        for _ in 0..10_000 {
            m.submit(w2.next_write().index());
        }
    });
    original.finish();
    restored.with_pipeline(|m| {
        for _ in 0..10_000 {
            m.submit(w2b.next_write().index());
        }
    });
    restored.finish();

    for bank in 0..BANKS {
        assert_eq!(
            restored.banks()[bank].sim().fingerprint(),
            original.banks()[bank].sim().fingerprint(),
            "bank {bank} diverged after the quarantine round-trip"
        );
        assert_eq!(
            restored.banks()[bank].sim().integrity_errors(),
            0,
            "bank {bank}: oracle violated after restore"
        );
    }
}

/// The fleet's contract: a (snapshot, seed, fault plan) triple is a pure
/// function of its inputs — every fork of the same snapshot, diverged
/// with the same workload seed and the same fault plan, lives exactly
/// as long and ends in the identical device state.
#[test]
fn same_snapshot_seed_and_fault_plan_yield_same_lifetime() {
    let mut warm = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_500.0)
        .gap_interval(10)
        .stack("reviver-sg")
        .seed(11)
        .build();
    warm.run(StopCondition::Writes(600_000));
    let snap = warm.snapshot();

    let future = |seed: u64| {
        let mut sim = Simulation::fork(&snap);
        sim.replace_workload(Box::new(UniformWorkload::new(sim.workload_len(), seed)));
        sim.arm_faults(
            FaultPlan::new()
                .seeded_silent_failures(seed, 3, 10_000, 200_000)
                .power_loss_at_write(50_000),
        );
        loop {
            let out = sim.run(StopCondition::DeadFraction(0.30));
            match out.reason {
                wl_reviver::sim::StopReason::PowerLoss => {
                    sim.recover();
                }
                _ => break,
            }
        }
        (sim.writes_issued(), sim.fingerprint())
    };

    let (life_a, fp_a) = future(42);
    let (life_b, fp_b) = future(42);
    assert_eq!(life_a, life_b, "same (snapshot, seed, plan), same lifetime");
    assert_eq!(fp_a, fp_b, "same (snapshot, seed, plan), same end state");
}

/// Regression: a migration whose target died *silently* (device
/// reported Ok, so `write_da` never linked it) used to hit an assert
/// in `fix_chain_after_migration` — the fleet campaign found it with
/// this exact (warmup, workload seed, fault seed) triple. The repair
/// must instead wait for the chain walk to discover the death; the run
/// completes with an intact oracle.
#[test]
fn silently_dead_migration_target_is_left_for_discovery() {
    let mut s = Simulation::builder()
        .num_blocks(1 << 10)
        .endurance_mean(1_000.0)
        .gap_interval(16)
        .stack("reviver-sg")
        .seed(42)
        .verify_integrity(true)
        .build();
    s.run(StopCondition::Writes(478_489));
    let snap = s.snapshot();
    let mut f = Simulation::fork(&snap);
    let len = f.workload_len();
    f.replace_workload(Box::new(UniformWorkload::new(len, 77)));
    f.arm_faults(FaultPlan::new().seeded_silent_failures(42 ^ (0xF1EE7 + 34), 3, 1_000, 50_000));
    f.run(StopCondition::DeadFraction(0.30));
    assert_eq!(f.integrity_errors(), 0, "revived run must keep its data");
}
