//! `chaos` — fault-storm harness for degraded-mode survival, pass/fail.
//!
//! Drives the degraded-mode multi-bank front-end through a storm of
//! faults armed between traffic windows — mid-drain power losses,
//! torn-metadata crash points, uncorrectable transient-read bursts, bank
//! kills — plus full
//! capture/restore reboot cycles, and asserts the service survives all
//! of it with **zero** data-integrity violations:
//!
//! * every storm window must run its request stream to completion
//!   (`TraceComplete`) and conserve writes — nothing dropped, everything
//!   redirected through the quarantine directory;
//! * after each reboot the restored quarantine image must be identical
//!   and every directory line must read back with its recorded tag;
//! * the per-bank integrity oracles must report zero violations at the
//!   end of every generation.
//!
//! The soak must also *observe* at least 200 faults (recoveries, retries,
//! kills), so a plan that stops firing fails instead of passing quietly.
//! The answer is the exit code; the printed tally is seed-deterministic.
//!
//! Knobs: `WLR_CHAOS_SEED` (default 99), `WLR_CHAOS_WINDOW` (requests
//! per storm window, default 150 000), `WLR_CHAOS_CYCLES` (reboot
//! cycles, default 3).

use wl_reviver::sim::EccKind;
use wl_reviver::DurableImage;
use wlr_base::env::env_u64;
use wlr_mc::{CrashPoint, FaultPlan, McFrontend, McOutcome, McStopPolicy, McStopReason};
use wlr_trace::UniformWorkload;

const BANKS: usize = 8;
const BLOCKS: u64 = 1 << 12;

fn build(seed: u64) -> McFrontend {
    McFrontend::builder()
        .banks(BANKS)
        .total_blocks(BLOCKS)
        // No natural wear deaths: every fault in this harness is
        // injected, so the observed counts are the injected counts.
        .endurance_mean(1e9)
        // Zero-entry ECP makes every injected transient uncorrectable —
        // the retry path sees exactly the bursts we arm.
        .ecc(EccKind::Ecp(0))
        .verify_integrity(true)
        .degraded(true)
        .stop_policy(McStopPolicy::Quorum(1.0))
        .seed(seed)
        .build()
        .expect("chaos geometry")
}

/// One traffic window; the stream must complete.
fn window(mc: &mut McFrontend, w: &mut UniformWorkload, n: u64) -> McOutcome {
    let out = mc.run(w, n);
    assert_eq!(
        out.stop,
        McStopReason::TraceComplete,
        "a chaos window must keep serving"
    );
    assert!(out.conserves_writes(), "writes conserved: {out:?}");
    assert_eq!(out.dropped, 0, "degraded mode never drops writes");
    out
}

/// Arms a storm round on every live bank: two mid-drain power losses
/// plus a torn-metadata window at the next wear-leveling switch.
fn arm_storm(mc: &mut McFrontend, round: u64) {
    for b in 0..mc.num_banks() {
        if !mc.banks()[b].alive() {
            continue;
        }
        let plan = FaultPlan::new()
            .power_loss_at_write(500 + 37 * b as u64 + 11 * round)
            .power_loss_at_write(1_800 + 41 * b as u64 + 13 * round)
            .power_loss_at_write(3_500 + 53 * b as u64 + 17 * round)
            .power_loss_at_point(CrashPoint::MidSwitch, 1 + (b as u64 % 3))
            .power_loss_at_point(CrashPoint::MidSwitch, 5 + (b as u64 % 3));
        mc.arm_bank_faults(b, plan);
    }
}

/// Directory read-back: every line the quarantine rescued or redirected
/// must return its recorded tag. Returns the number of mismatches.
fn verify_directory(mc: &mut McFrontend) -> u64 {
    let Some(img) = mc.quarantine_image() else {
        return 0;
    };
    img.directory
        .iter()
        .filter(|&&(global, tag)| mc.read(global) != Ok(Some(tag)))
        .count() as u64
}

/// Per-bank oracle sweep over the live banks. Returns violations.
fn verify_banks(mc: &mut McFrontend) -> u64 {
    let mut violations = 0;
    for b in 0..mc.num_banks() {
        if mc.banks()[b].alive() {
            violations += mc.bank_sim_mut(b).verify_all();
        }
    }
    violations
}

fn main() {
    let seed = env_u64("WLR_CHAOS_SEED", 99);
    let win = env_u64("WLR_CHAOS_WINDOW", 150_000).max(10_000);
    let cycles = env_u64("WLR_CHAOS_CYCLES", 3).max(1);

    println!(
        "chaos: {BANKS} banks, {BLOCKS} blocks, seed {seed}, \
         {win}-request windows, {cycles} reboot cycles"
    );

    let mut mc = build(seed);
    let mut w = UniformWorkload::new(BLOCKS, seed);
    // Observed fault tallies from completed generations (reboots reset
    // the per-bank counters, so finished generations accumulate here).
    let mut prior_recoveries = 0u64;
    let mut prior_retries = 0u64;
    let mut prior_redirected = 0u64;
    let mut prior_migrated = 0u64;
    let mut violations = 0u64;
    let mut kills = 0u64;

    // Nominal window: no faults armed.
    let out = window(&mut mc, &mut w, win);
    assert_eq!(out.quarantines, 0, "nominal window is fault-free");

    // Storm rounds at full width: power losses and torn-metadata crash
    // points on every bank, recovered in place mid-drain.
    for round in 0..4 {
        arm_storm(&mut mc, round);
        window(&mut mc, &mut w, win);
    }

    // Kill a bank mid-window, then serve a clean N−1 window.
    mc.kill_bank_after(2, 1_000);
    kills += 1;
    let out = window(&mut mc, &mut w, win);
    assert_eq!(out.quarantines, 1, "first kill quarantines: {out:?}");
    window(&mut mc, &mut w, win);

    // More storms on the survivors, then a second kill → N−2.
    for round in 4..8 {
        arm_storm(&mut mc, round);
        window(&mut mc, &mut w, win);
    }
    mc.kill_bank_after(5, 1_000);
    kills += 1;
    let out = window(&mut mc, &mut w, win);
    assert_eq!(out.quarantines, 2, "second kill quarantines: {out:?}");
    window(&mut mc, &mut w, win);

    // Transient-read storm: short uncorrectable bursts on every live
    // bank, absorbed by the bounded retry (bursts stay under the retry
    // budget so no read surfaces an error).
    for round in 0..10 {
        for b in 0..BANKS {
            if !mc.banks()[b].alive() {
                continue;
            }
            let lines = mc.banks()[b].sim().tracked_lines();
            if lines.is_empty() {
                continue;
            }
            let (local, tag) = lines[(round * 7 + b) % lines.len()];
            let global = mc.map().join(b as u64, local);
            mc.arm_bank_faults(b, FaultPlan::new().transient_read_burst(0, 2));
            assert_eq!(
                mc.read(global),
                Ok(Some(tag)),
                "retries absorb the burst on bank {b}"
            );
        }
    }

    violations += verify_banks(&mut mc);
    violations += verify_directory(&mut mc);
    let qimg_before = mc.quarantine_image().expect("two banks quarantined");

    // Reboot cycles: capture → fresh build → restore → verify →
    // keep serving.
    for cycle in 0..cycles {
        let gen_out = mc.finish();
        prior_recoveries += gen_out.banks.iter().map(|b| b.recoveries).sum::<u64>();
        prior_retries += gen_out.read_retries;
        prior_redirected += gen_out.redirected;
        prior_migrated += gen_out.migrated_lines;
        let snaps: Vec<DurableImage> = mc.banks().iter().map(|b| b.sim().durable_image()).collect();
        let qimg = mc.quarantine_image();
        // A fresh front-end, every bank rebooted from its durable image
        // (§III-B), quarantine re-applied.
        mc = build(seed);
        mc.reboot(&snaps, qimg.as_ref())
            .expect("a captured image reboots the rebuilt front-end");
        assert_eq!(
            mc.quarantine_image().as_ref(),
            qimg.as_ref(),
            "cycle {cycle}: quarantine survives the reboot"
        );
        violations += verify_directory(&mut mc);
        // The revived service keeps taking traffic at N−2.
        let out = window(&mut mc, &mut w, win / 4);
        assert_eq!(out.quarantines, 0, "restore does not re-quarantine");
    }
    assert_eq!(
        mc.quarantine_image().expect("still degraded").dead,
        qimg_before.dead,
        "dead set stable across all reboots"
    );

    violations += verify_banks(&mut mc);
    let final_out = mc.finish();
    assert!(final_out.conserves_writes());
    let recoveries = prior_recoveries + final_out.banks.iter().map(|b| b.recoveries).sum::<u64>();
    let transients = prior_retries + final_out.read_retries;
    let redirected = prior_redirected + final_out.redirected;
    let migrated = prior_migrated + final_out.migrated_lines;
    let faults = recoveries + transients + kills;

    println!(
        "faults: {faults} observed ({recoveries} power-loss recoveries, \
         {transients} transient retries, {kills} kills, {cycles} reboots); \
         {redirected} writes redirected, {migrated} lines migrated; \
         {violations} integrity violations"
    );

    if violations > 0 {
        eprintln!("FAIL: {violations} data-integrity violations under chaos");
        std::process::exit(1);
    }
    if faults < 200 {
        eprintln!("FAIL: only {faults} faults observed; the soak must exceed 200");
        std::process::exit(1);
    }
}
