//! Crash-recovery oracle: power loss at inconvenient moments must never
//! lose committed data or corrupt the revival indirection.
//!
//! The model is a *freeze* crash: the injected power cut drops the write
//! in flight and everything after it, so the persistent image (device
//! contents, stored pointers, the retirement bitmap, the battery-backed
//! migration journal) is exactly what a real cut would leave behind.
//! `Simulation::recover` then rebuilds the controller's volatile state by
//! scanning, the §III-B story, and the integrity oracle — which tracked
//! logical contents *before* the crash — asserts post-recovery
//! equivalence. Reviver stacks additionally run with structural invariant
//! checking (one-step chains, Theorem-3 loop properties) enabled, so a
//! recovery that "works" by luck still fails here.
//!
//! Baseline stacks model fully-persistent metadata (the paper grants
//! them this); the sweep reboots them at software-write boundaries,
//! through the same oracle, and `power_cut_is_not_reported_as_a_failure`
//! cuts them mid-write.
//!
//! The full ≥200-point CrashMonkey-style sweep lives in the release-mode
//! `crash_sweep` bench bin (see EXPERIMENTS.md); this suite keeps a
//! debug-friendly subset plus the targeted torn-metadata windows a blind
//! sweep only hits by luck.

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Simulation, SimulationBuilder, StopCondition, StopReason};
use wlr_base::{Da, Pa};
use wlr_pcm::{CrashPoint, FaultPlan};

const BLOCKS: u64 = 1 << 10;
/// Short lifetime (~60k writes) so the failure era — links, switches,
/// retirements, suspensions — is reached quickly even in debug builds.
const ENDURANCE: f64 = 60.0;
const STOP: u64 = 55_000;
const SEED: u64 = 11;

fn rig(scheme: &str) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(5)
        .stack(scheme)
        .seed(SEED)
        .sample_interval(10_000)
        .verify_integrity(true)
        .check_invariants(true)
}

/// Crashes a reviver stack at device-write index `k`, recovers, finishes
/// the run, and asserts the oracle stayed clean throughout.
fn crash_and_recover(label: &str, k: u64) -> bool {
    let plan = FaultPlan::new().power_loss_at_write(k);
    let mut sim = rig(label).fault_plan(plan).build();
    let out = sim.run(StopCondition::Writes(STOP));
    let fired = out.reason == StopReason::PowerLoss;
    if fired {
        let report = sim.recover();
        assert!(
            !report.suspended || sim.controller().suspended(),
            "{label} @{k}: recovery says suspended but controller is not"
        );
        assert_eq!(
            sim.verify_all(),
            0,
            "{label} @{k}: logical contents diverged across the crash"
        );
        sim.run(StopCondition::Writes(STOP));
    }
    assert_eq!(
        sim.verify_all(),
        0,
        "{label} @{k}: mismatch after post-recovery run"
    );
    assert_eq!(sim.integrity_errors(), 0, "{label} @{k}: online violations");
    fired
}

/// Reboots a baseline stack at software-write boundary `k` (its metadata
/// is modeled persistent) and asserts the oracle across the reboot.
fn boundary_crash(label: &str, k: u64) {
    let mut sim = rig(label).build();
    let out = sim.run(StopCondition::Writes(k));
    if out.reason == StopReason::ConditionMet {
        sim.recover();
        assert_eq!(sim.verify_all(), 0, "{label} @{k}: reboot lost data");
        sim.run(StopCondition::Writes(STOP));
    }
    assert_eq!(sim.verify_all(), 0, "{label} @{k}: mismatch at end of run");
}

#[test]
fn crash_sweep_recovers_every_stack() {
    // Crash points from the healthy era through deep wear-out. The
    // release-mode `crash_sweep` bin widens this to hundreds of points.
    let mut fired = 0u64;
    // Reviver stacks crash at device-write granularity; baselines have no
    // real recovery path and reboot at software-write boundaries.
    for spec in SchemeRegistry::global().iter() {
        let label = spec.name;
        for &k in &[20_000u64, 32_000, 44_000] {
            if spec.revivable {
                if crash_and_recover(label, k) {
                    fired += 1;
                }
            } else {
                boundary_crash(label, k);
                fired += 1;
            }
        }
    }
    assert!(fired >= 20, "only {fired} crash points actually fired");
}

#[test]
fn targeted_crash_points_recover() {
    // The torn-metadata windows: mid-switch, mid-migration, mid-retire,
    // mid-link. A write-index sweep hits these only by luck; the named
    // crash points pin them deterministically.
    let points = [
        ("mid-switch", CrashPoint::MidSwitch),
        ("mid-migration", CrashPoint::MidMigration),
        ("mid-retire", CrashPoint::MidRetire),
        ("mid-link", CrashPoint::MidLink),
    ];
    let mut fired = 0u64;
    for (name, point) in points {
        for occurrence in [0u64, 2] {
            let plan = FaultPlan::new().power_loss_at_point(point, occurrence);
            let mut sim = rig("reviver-sg").fault_plan(plan).build();
            let out = sim.run(StopCondition::Writes(STOP));
            if out.reason != StopReason::PowerLoss {
                continue; // the occurrence never happened in this run
            }
            fired += 1;
            sim.recover();
            assert_eq!(
                sim.verify_all(),
                0,
                "{name}#{occurrence}: data diverged across the crash"
            );
            sim.run(StopCondition::Writes(STOP));
            assert_eq!(
                sim.verify_all(),
                0,
                "{name}#{occurrence}: mismatch after resuming"
            );
        }
    }
    assert!(fired >= 6, "only {fired}/8 targeted crash points fired");
}

#[test]
fn torn_switch_is_repaired_on_recovery() {
    // A cut between the two pointer writes of a virtual-shadow switch
    // leaves both blocks claiming the same shadow; recovery must detect
    // the collision and reassign the stale claimant (not drop data).
    let plan = FaultPlan::new().power_loss_at_point(CrashPoint::MidSwitch, 0);
    let mut sim = rig("reviver-sg").fault_plan(plan).build();
    let out = sim.run(StopCondition::Writes(STOP));
    assert_eq!(
        out.reason,
        StopReason::PowerLoss,
        "run ended without a switch ever happening"
    );
    let report = sim.recover();
    assert!(
        report.torn_switch_repairs >= 1,
        "mid-switch crash produced no torn-switch repair: {report:?}"
    );
    assert_eq!(sim.verify_all(), 0, "torn-switch repair lost data");
    sim.run(StopCondition::Writes(STOP));
    assert_eq!(sim.verify_all(), 0, "post-repair run corrupted data");
}

/// The state recovery's chain collapse (step 7) exists for, if the cut
/// left it: a software-accessible head whose durable pointer leads to a
/// dead shadow with no durable pointer of its own, and no journal line to
/// re-feed the chain. Returns `(head, shadow)`.
fn torn_shadow_link(sim: &Simulation) -> Option<(Da, Da)> {
    let rev = sim.controller().as_reviver().expect("reviver stack");
    let (meta, wl, dev) = (
        rev.persisted_meta(),
        rev.wear_leveler(),
        sim.controller().device(),
    );
    let retired = |pa: Pa| meta.retired[sim.geometry().page_of(pa).as_usize()];
    if !meta.journal.is_empty() {
        return None;
    }
    meta.ptr.iter().find_map(|(head, v)| {
        let (head, shadow) = (Da::new(head), wl.map(v));
        let torn = shadow != head
            && dev.is_dead(shadow)
            && !meta.ptr.contains_key(shadow.index())
            && wl.inverse(head).is_some_and(|pa| !retired(pa));
        torn.then_some((head, shadow))
    })
}

#[test]
fn collapse_heals_a_torn_shadow_link() {
    // A linked head's shadow dies under a write; the controller links the
    // shadow and switches the pair, and the cut lands inside that link:
    // the head's old pointer is durable, the shadow's new one is not. No
    // journal line covers a plain software write, so only step 7 can put
    // the head back on a one-step chain. Late in life a few of every
    // hundred links are of such shadows.
    let mut warm = rig("reviver-sg").build();
    warm.run(StopCondition::Writes(25_000));
    let snap = warm.snapshot();
    let mut torn = 0;
    for occurrence in 0..100 {
        let mut sim = Simulation::fork(&snap);
        sim.arm_faults(FaultPlan::new().power_loss_at_point(CrashPoint::MidLink, occurrence));
        let out = sim.run(StopCondition::Writes(STOP));
        assert_eq!(out.reason, StopReason::PowerLoss, "MidLink#{occurrence}");
        let Some((head, shadow)) = torn_shadow_link(&sim) else {
            continue;
        };
        torn += 1;
        // A failed block keeps its last good contents: the head's data.
        let tag = sim.controller().device().tag(shadow);
        sim.recover();
        let rev = sim.controller().as_reviver().expect("reviver stack");
        rev.assert_invariants();
        let v = rev.persisted_meta().ptr.get(head.index());
        let v = v.unwrap_or_else(|| panic!("MidLink#{occurrence}: head {head} lost its link"));
        let now = rev.wear_leveler().map(v);
        assert!(
            !sim.controller().device().is_dead(now),
            "MidLink#{occurrence}: head {head} still reaches dead {now} (was {shadow})"
        );
        let pa = rev.wear_leveler().inverse(head).expect("a mapped head");
        assert_eq!(
            sim.controller_mut().read(pa),
            tag,
            "MidLink#{occurrence}: head {head} reads back other data"
        );
        assert_eq!(sim.verify_all(), 0, "MidLink#{occurrence}: data diverged");
    }
    assert!(
        torn >= 3,
        "only {torn} of 100 MidLink cuts tore a dying shadow's link"
    );
}

#[test]
fn recovery_reports_scan_and_replay_costs() {
    // The recovery-cost accounting the `crash_sweep` bin reports:
    // a mid-life crash must actually scan retired pages and recover the
    // links that existed before the cut.
    let plan = FaultPlan::new().power_loss_at_write(30_000);
    let mut sim = rig("reviver-sg").fault_plan(plan).build();
    let out = sim.run(StopCondition::Writes(STOP));
    assert_eq!(out.reason, StopReason::PowerLoss);
    let links_before = sim
        .controller()
        .as_reviver()
        .expect("reviver stack")
        .linked_blocks();
    let report = sim.recover();
    assert!(report.blocks_scanned > 0, "recovery scanned nothing");
    assert!(
        report.links_recovered + report.torn_links_dropped >= links_before,
        "recovery dropped links on the floor: {report:?} vs {links_before} live"
    );
    assert_eq!(sim.verify_all(), 0);
}

#[test]
fn silent_and_reported_failures_converge() {
    // The paper's caveat: a failure is only *sometimes* reported. A
    // device that conceals a write failure (reports Ok, block dead) must
    // steer the system to the same retired-page set as one that reports
    // it immediately — the failure surfaces on the next touch and takes
    // the same retirement path. Wear leveling is quiesced (huge ψ) and
    // organic endurance pushed out of reach so the injected fault is the
    // only failure and device-write indices align with software writes.
    for (fault_seed, k) in [(1u64, 3_000u64), (2, 7_000), (3, 12_000)] {
        let quiet = |scheme| {
            Simulation::builder()
                .num_blocks(BLOCKS)
                .endurance_mean(1e9)
                .gap_interval(1_000_000)
                .stack(scheme)
                .seed(SEED + fault_seed)
                .verify_integrity(true)
                .check_invariants(true)
        };

        // Silent run: the k-th device write kills its block, reports Ok.
        let plan = FaultPlan::new().silent_failure_at_write(k);
        let mut silent = quiet("reviver-sg").fault_plan(plan).build();
        silent.run(StopCondition::Writes(20_000));
        let killed = {
            let log = silent.controller().device().silent_failures();
            assert_eq!(log.len(), 1, "silent fault never fired");
            log[0]
        };
        assert_eq!(silent.verify_all(), 0, "silent failure corrupted data");
        let silent_retired: Vec<_> = silent.os().retired_iter().collect();
        assert!(
            !silent_retired.is_empty(),
            "concealed failure was never discovered"
        );

        // Reported run: same workload, same block killed at the same
        // write boundary — but visibly, so the very next write to it
        // reports. (Before the fault, no failures and no migrations run,
        // so device-write index k is software write k.)
        let mut reported = quiet("reviver-sg").build();
        reported.run(StopCondition::Writes(k));
        reported
            .controller_mut()
            .as_reviver_mut()
            .expect("reviver stack")
            .inject_dead(killed);
        reported.run(StopCondition::Writes(20_000));
        assert_eq!(reported.verify_all(), 0, "reported failure corrupted data");
        let reported_retired: Vec<_> = reported.os().retired_iter().collect();

        assert_eq!(
            silent_retired, reported_retired,
            "seed {fault_seed}: silent and reported runs retired different pages"
        );
    }
}

#[test]
fn silent_failure_exempts_its_owner_on_every_stack() {
    // A concealed failure destroys one logical address through no fault
    // of the controller; the simulator exempts that address from the
    // oracle through `Controller::logical_owner`. Every registered stack
    // must be able to name the owner — a stack that cannot leaves the
    // dead address tracked, and an exhaustive read-back right after the
    // fault (before any rewrite hides it) finds it.
    for spec in SchemeRegistry::global().iter() {
        for k in [3_000u64, 7_000, 12_000] {
            let mut sim = Simulation::builder()
                .num_blocks(BLOCKS)
                .endurance_mean(1e9)
                .gap_interval(7)
                .stack(spec.name)
                .seed(SEED + k)
                .verify_integrity(true)
                .fault_plan(FaultPlan::new().silent_failure_at_write(k))
                .build();
            sim.run(StopCondition::Writes(k + 50));
            assert_eq!(
                sim.controller().device().silent_failures().len(),
                1,
                "{} @{k}: the silent fault must fire exactly once",
                spec.name
            );
            assert_eq!(
                sim.verify_all(),
                0,
                "{} @{k}: the destroyed address stayed in the oracle",
                spec.name
            );
        }
    }
}

#[test]
fn transient_read_errors_interact_with_ecc() {
    // Soft read errors are absorbed by ECC headroom where available and
    // surfaced (retryable) where not — never corrupting logical data.
    let plan = FaultPlan::new().seeded_transient_reads(SEED, 40, 0, 60_000);
    let mut sim = rig("reviver-sg").fault_plan(plan).build();
    sim.run(StopCondition::Writes(STOP));
    let counters = sim
        .controller()
        .device()
        .fault_counters()
        .expect("fault plan configured");
    assert!(
        counters.transients_corrected + counters.transients_uncorrectable > 0,
        "no transient read ever fired"
    );
    assert_eq!(sim.verify_all(), 0, "transient reads corrupted data");
    assert_eq!(sim.integrity_errors(), 0);
}

#[test]
fn double_crash_recovers_twice() {
    // A second cut while the first recovery's effects are still settling
    // (journal replays, heals) must be just as recoverable.
    let plan = FaultPlan::new()
        .power_loss_at_write(20_000)
        .power_loss_at_write(28_000);
    let mut sim = rig("reviver-sg").fault_plan(plan).build();
    let mut crashes = 0;
    loop {
        let out = sim.run(StopCondition::Writes(STOP));
        if out.reason == StopReason::PowerLoss {
            crashes += 1;
            sim.recover();
            assert_eq!(sim.verify_all(), 0, "crash {crashes}: data diverged");
        } else {
            break;
        }
    }
    assert_eq!(crashes, 2, "both scheduled cuts should fire");
    assert_eq!(sim.verify_all(), 0);
}

#[test]
fn power_cut_is_not_reported_as_a_failure() {
    // A power cut is not a cell failure. On a chip where no cell ever
    // fails, a cut costs the one write in flight and nothing else: no
    // failure report, no retired page, no frozen leveler — on bare and
    // baseline stacks exactly as on revived ones. The eight indices
    // straddle a ψ = 7 migration, so the cut lands on software writes
    // and on migration writes alike.
    let mut failures = Vec::new();
    for spec in SchemeRegistry::global().iter() {
        for k in 3_000u64..3_008 {
            let mut sim = Simulation::builder()
                .num_blocks(BLOCKS)
                .endurance_mean(1e9)
                .gap_interval(7)
                .stack(spec.name)
                .seed(SEED)
                .verify_integrity(true)
                .fault_plan(FaultPlan::new().power_loss_at_write(k))
                .build();
            let out = sim.run(StopCondition::Writes(10_000));
            assert_eq!(
                out.reason,
                StopReason::PowerLoss,
                "{} @{k}: the cut never fired",
                spec.name
            );
            sim.recover();
            sim.run(StopCondition::Writes(10_000));
            let got = (
                sim.os().retired_pages(),
                sim.os().failure_reports(),
                sim.controller().wl_active(),
                sim.lost_writes() <= 1,
                sim.verify_all(),
            );
            if got != (0, 0, true, true, 0) {
                failures.push(format!(
                    "{} @{k}: retired {}, reports {}, leveling {}, lost {}, mismatches {}",
                    spec.name,
                    got.0,
                    got.1,
                    got.2,
                    sim.lost_writes(),
                    got.4
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "a power cut was answered as a failure:\n{}",
        failures.join("\n")
    );
}

/// The rig with the steady-state write available: no per-write invariant
/// scan, so `write_steady` — and, under an armed plan, the device's
/// quiet-index fast write — serves what it can. [`rig`] itself is the
/// reference: `check_invariants(true)` refuses `write_steady`, so every
/// write of such a run takes the full protocol through
/// `FaultInjector::on_write`.
fn steady_rig(scheme: &str) -> SimulationBuilder {
    rig(scheme).check_invariants(false)
}

/// Everything two runs of one stream must agree on, whichever write path
/// served them.
fn observed(sim: &Simulation) -> impl PartialEq + std::fmt::Debug {
    let reviver = sim.controller().as_reviver().expect("reviver stack");
    let device = sim.controller().device();
    (
        sim.writes_issued(),
        sim.fingerprint(),
        device.stats(),
        reviver.counters(),
        reviver.persisted_meta().to_bytes(),
        device.silent_failures().to_vec(),
    )
}

#[test]
fn an_armed_but_quiet_plan_changes_nothing() {
    // A plan whose only event is out of reach: the run must be the unarmed
    // run, bit for bit, down to the durable metadata image.
    for spec in SchemeRegistry::global().revivable() {
        let label = spec.name;
        let mut unarmed = steady_rig(label).build();
        let plan = FaultPlan::new().power_loss_at_write(u64::MAX / 2);
        let mut armed = steady_rig(label).fault_plan(plan).build();
        let out = unarmed.run(StopCondition::Writes(STOP));
        assert_eq!(armed.run(StopCondition::Writes(STOP)), out, "{label}");
        assert_eq!(observed(&armed), observed(&unarmed), "{label}");
        assert_eq!(
            (armed.verify_all(), unarmed.verify_all()),
            (0, 0),
            "{label}"
        );
        let counters = armed.controller().device().fault_counters();
        assert_eq!(counters, Some(Default::default()), "{label}: a fault fired");
    }
}

#[test]
fn the_fast_path_cuts_where_the_slow_path_cuts() {
    // Cut points from the healthy era into deep wear-out (this rig's
    // memory is gone by device write ~36 500), and one plan
    // that conceals a failure first: with the quiet-index fast write
    // available the schedule must fire on the same device writes, leave
    // the same durable image behind, and recover to the same state as the
    // full protocol does.
    let mut plans: Vec<(String, FaultPlan)> = [9_000u64, 17_001, 24_000, 30_999]
        .iter()
        .map(|&k| (format!("cut@{k}"), FaultPlan::new().power_loss_at_write(k)))
        .collect();
    plans.push((
        "silent@20000 cut@26000".into(),
        FaultPlan::new()
            .silent_failure_at_write(20_000)
            .power_loss_at_write(26_000),
    ));
    for spec in SchemeRegistry::global().revivable() {
        for (what, plan) in &plans {
            let label = format!("{} {what}", spec.name);
            let mut fast = steady_rig(spec.name).fault_plan(plan.clone()).build();
            let mut slow = rig(spec.name).fault_plan(plan.clone()).build();
            let cut = fast.run(StopCondition::Writes(STOP));
            assert_eq!(cut, slow.run(StopCondition::Writes(STOP)), "{label}");
            assert_eq!(cut.reason, StopReason::PowerLoss, "{label}: never fired");
            assert_eq!(observed(&fast), observed(&slow), "{label}: at the cut");
            let device = |sim: &Simulation| sim.controller().device().fault_counters();
            assert_eq!(device(&fast), device(&slow), "{label}");
            assert_eq!(fast.recover(), slow.recover(), "{label}");
            let end = fast.run(StopCondition::Writes(STOP));
            assert_eq!(end, slow.run(StopCondition::Writes(STOP)), "{label}");
            assert_eq!(observed(&fast), observed(&slow), "{label}: at the end");
            assert_eq!(device(&fast), device(&slow), "{label}");
            assert_eq!((fast.verify_all(), slow.verify_all()), (0, 0), "{label}");
        }
    }
    let silent = &plans.last().expect("pushed above").1;
    let mut sim = steady_rig("reviver-sg").fault_plan(silent.clone()).build();
    sim.run(StopCondition::Writes(STOP));
    let log = sim.controller().device().silent_failures();
    assert_eq!(log.len(), 1, "the concealed failure never fired");
}
