//! Degraded-mode chaos integration: quarantine remap invisibility,
//! post-quarantine read service across every scheme stack, and the
//! bounded transient-read retry contract.

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::EccKind;
use wlr_mc::{FaultPlan, McFrontend, McReadError, McStopPolicy, McStopReason, READ_RETRIES};
use wlr_trace::{UniformWorkload, Workload};

const BLOCKS: u64 = 1 << 12;

/// With no faults firing, the degraded-mode remap layer (logical
/// encoding, quarantine steering hooks, substitute election) must be
/// bit-invisible: identical tick streams and per-bank end states as a
/// plain run — across seeds, and with wear steering layered on top.
#[test]
fn quarantine_remap_is_bit_identical_to_no_fault_run() {
    for seed in [3, 17, 91] {
        for steering in [false, true] {
            let run = |degraded: bool| {
                let mut mc = McFrontend::builder()
                    .banks(4)
                    .total_blocks(BLOCKS)
                    .endurance_mean(1e9)
                    .steering(steering)
                    .degraded(degraded)
                    .stop_policy(McStopPolicy::Quorum(1.0))
                    .seed(seed)
                    .build()
                    .unwrap();
                let mut w = UniformWorkload::new(BLOCKS, seed);
                mc.run(&mut w, 40_000)
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on.quarantines, 0, "no fault was injected");
            assert_eq!(on.redirected, 0);
            assert_eq!(on.ticks, off.ticks, "seed={seed} steering={steering}");
            assert_eq!(on.issued, off.issued);
            for (x, y) in on.banks.iter().zip(&off.banks) {
                assert_eq!(
                    x.fingerprint, y.fingerprint,
                    "seed={seed} steering={steering}: bank {} diverged",
                    x.bank
                );
            }
        }
    }
}

/// Kill a bank under every registered stack: the array keeps serving at
/// N−1, the dead bank's live lines migrate, and afterwards *reads*
/// return the migrated contents — both the rescued directory lines and
/// the healthy banks' own lines.
#[test]
fn post_quarantine_reads_return_migrated_contents_across_all_stacks() {
    for spec in SchemeRegistry::global().iter() {
        let name = spec.name;
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(BLOCKS)
            .endurance_mean(1e9)
            .stack(name)
            .verify_integrity(true)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(29)
            .build()
            .unwrap();
        assert_eq!(
            mc.banks()[0].sim().controller().as_reviver().is_some(),
            spec.revivable,
            "{name}: the registry's revivable flag must describe the built stack"
        );
        // Freep reserves pages, shrinking the app-visible space below
        // the raw block count — size the address range to what every
        // bank actually exposes and submit directly (`run` insists on
        // full-space workloads).
        let app = mc
            .banks()
            .iter()
            .map(|b| b.sim().os().app_blocks())
            .min()
            .unwrap();
        let mut w = UniformWorkload::new(app * 4, 29);
        mc.kill_bank_after(2, 128);
        mc.with_pipeline(|m| {
            for _ in 0..25_000 {
                m.submit(w.next_write().index());
            }
        });
        let out = mc.finish();
        assert_eq!(out.stop, McStopReason::TraceComplete, "{name}: serves N-1");
        assert_eq!(out.quarantines, 1, "{name}");
        assert_eq!(out.dropped, 0, "{name}: degraded mode never drops");
        assert!(out.conserves_writes(), "{name}: {out:?}");
        assert!(out.migrated_lines > 0, "{name}: nothing migrated");

        let img = mc.quarantine_image().unwrap();
        assert!(img.dead[2], "{name}");
        assert!(!img.directory.is_empty(), "{name}");
        for &(global, tag) in &img.directory {
            assert_eq!(
                mc.read(global),
                Ok(Some(tag)),
                "{name}: directory line {global:#x} lost its contents"
            );
        }
        for bank in [0usize, 1, 3] {
            let lines = mc.banks()[bank].sim().tracked_lines();
            assert!(!lines.is_empty(), "{name}: bank {bank} tracked nothing");
            for &(local, tag) in lines.iter().take(16) {
                let global = mc.map().join(bank as u64, local);
                assert_eq!(
                    mc.read(global),
                    Ok(Some(tag)),
                    "{name}: healthy bank {bank} line {local:#x}"
                );
            }
        }
    }
}

/// The bounded-retry contract: a burst within the budget is absorbed, a
/// burst past it surfaces a typed error carrying exactly `limit + 1`
/// attempts, and the counters account for both.
#[test]
fn transient_retry_budget_is_exact() {
    let limit = READ_RETRIES;
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(BLOCKS)
        .endurance_mean(1e9)
        .ecc(EccKind::Ecp(0))
        .verify_integrity(true)
        .degraded(true)
        .stop_policy(McStopPolicy::Quorum(1.0))
        .seed(61)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(BLOCKS, 61);
    mc.run(&mut w, 5_000);
    let (local, tag) = mc.banks()[1].sim().tracked_lines()[0];
    let global = mc.map().join(1, local);

    mc.arm_bank_faults(1, FaultPlan::new().transient_read_burst(0, limit as u64));
    assert_eq!(
        mc.read(global),
        Ok(Some(tag)),
        "a burst inside the budget is absorbed"
    );
    mc.arm_bank_faults(
        1,
        FaultPlan::new().transient_read_burst(0, 8 + limit as u64),
    );
    assert_eq!(
        mc.read(global),
        Err(McReadError::Transient {
            bank: 1,
            attempts: limit + 1
        }),
        "an over-budget burst surfaces typed"
    );
    let out = mc.finish();
    assert!(out.read_retries >= (2 * limit) as u64, "{out:?}");
    assert_eq!(out.retry_exhausted, 1);
}
