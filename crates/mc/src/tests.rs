//! Unit tests of the front-end (see the parent module).

use super::*;
use wl_reviver::sim::EccKind;
use wlr_base::interleave::Interleave;
use wlr_trace::UniformWorkload;

#[test]
#[should_panic(expected = "unknown stack")]
fn unknown_stack_name_panics_with_the_valid_list() {
    McFrontend::builder().stack("no-such-stack");
}

#[test]
fn traffic_splits_across_banks_and_conserves_writes() {
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .write_buffer_lines(0)
        .seed(3)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(1 << 12, 3);
    let out = mc.run(&mut w, 20_000);
    assert_eq!(out.stop, McStopReason::TraceComplete);
    assert!(out.conserves_writes(), "{out:?}");
    assert_eq!(out.requests, 20_000);
    assert_eq!(out.dropped, 0);
    assert_eq!(out.banks.len(), 2);
    for report in &out.banks {
        // Uniform traffic over 2 banks: both get a substantial share.
        assert!(
            report.writes_issued > 6_000,
            "bank {} starved: {}",
            report.bank,
            report.writes_issued
        );
    }
    assert_eq!(out.wear.blocks(), 1 << 12);
    assert!(!out.latency.is_empty());
    assert!(out.drains > 0);
}

#[test]
fn write_buffer_absorbs_hot_line() {
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .write_buffer_lines(4)
        .seed(4)
        .build()
        .unwrap();
    for _ in 0..1_000 {
        mc.submit(17);
    }
    let out = mc.finish();
    assert_eq!(out.absorbed, 999, "all rewrites of the hot line absorb");
    assert_eq!(out.issued, 1, "only the flushed line reaches PCM");
    assert!(out.conserves_writes());
}

#[test]
fn parallel_and_sequential_drains_are_bit_identical() {
    // Eight banks on two workers: each worker round-robins four rings.
    let run = |workers: usize| {
        let mut mc = McFrontend::builder()
            .banks(8)
            .total_blocks(1 << 12)
            .endurance_mean(2_000.0)
            .gap_interval(8)
            .drain_workers(workers)
            .seed(11)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 12, 11);
        mc.run(&mut w, 40_000)
    };
    let par = run(2);
    let seq = run(1);
    assert_eq!(par.banks.len(), seq.banks.len());
    for (p, s) in par.banks.iter().zip(&seq.banks) {
        assert_eq!(p.fingerprint, s.fingerprint, "bank {} diverged", p.bank);
        assert_eq!(p.writes_issued, s.writes_issued);
    }
    assert_eq!(par.issued, seq.issued);
    assert_eq!(par.coalesced, seq.coalesced);
    assert_eq!(par.absorbed, seq.absorbed);
}

#[test]
fn forced_worker_threads_match_inline_bit_for_bit() {
    // Two pinned workers on however many cores the machine has must
    // produce exactly the inline (zero-thread) result — the whole
    // point of the deterministic pipeline.
    let run = |workers: usize| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(2_000.0)
            .gap_interval(8)
            .drain_workers(workers)
            .seed(11)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 12, 11);
        mc.run(&mut w, 40_000)
    };
    let threaded = run(2);
    let inline = run(1);
    for (t, i) in threaded.banks.iter().zip(&inline.banks) {
        assert_eq!(t.fingerprint, i.fingerprint, "bank {} diverged", t.bank);
        assert_eq!(t.writes_issued, i.writes_issued);
    }
    assert_eq!(threaded.requests, inline.requests);
    assert_eq!(threaded.issued, inline.issued);
    assert_eq!(threaded.ticks, inline.ticks);
    assert_eq!(threaded.latency.p99(), inline.latency.p99());
}

#[test]
fn first_dead_bank_stops_the_run() {
    let mut mc = McFrontend::builder()
        .banks(4)
        .total_blocks(1 << 10)
        .endurance_mean(300.0)
        .stack("ecc")
        .seed(5)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(1 << 10, 5);
    let out = mc.run(&mut w, 10_000_000);
    assert!(
        matches!(out.stop, McStopReason::BankDead(_)),
        "expected a dead bank, got {:?}",
        out.stop
    );
    assert!(out.conserves_writes(), "{out:?}");
    assert!(out.banks.iter().any(|b| !b.alive));
}

#[test]
fn page_interleaving_builds_and_runs() {
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .interleave(Interleave::Page)
        .endurance_mean(1e9)
        .seed(6)
        .build()
        .unwrap();
    assert_eq!(mc.map().stripe_blocks(), 64);
    let mut w = UniformWorkload::new(1 << 12, 6);
    let out = mc.run(&mut w, 5_000);
    assert!(out.conserves_writes());
}

#[test]
fn indivisible_space_is_rejected() {
    let err = McFrontend::builder()
        .banks(3)
        .total_blocks(1 << 12)
        .interleave(Interleave::Page)
        .build();
    assert!(err.is_err(), "4096 blocks over 3 page-striped banks");
}

#[test]
fn with_pipeline_matches_run_bit_for_bit() {
    // Driving submits through with_pipeline + finish must be
    // indistinguishable from run() — it is the same machinery.
    let build = || {
        McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(2_000.0)
            .gap_interval(8)
            .drain_workers(2)
            .seed(13)
            .build()
            .unwrap()
    };
    let mut a = build();
    let mut w = UniformWorkload::new(1 << 12, 13);
    let via_run = a.run(&mut w, 30_000);
    let mut b = build();
    let mut w = UniformWorkload::new(1 << 12, 13);
    b.with_pipeline(|mc| {
        for _ in 0..30_000 {
            if mc.stop.is_some() {
                break;
            }
            mc.submit(w.next_write().index());
        }
    });
    let via_pipeline = b.finish();
    assert_eq!(via_run.requests, via_pipeline.requests);
    assert_eq!(via_run.issued, via_pipeline.issued);
    assert_eq!(via_run.ticks, via_pipeline.ticks);
    for (x, y) in via_run.banks.iter().zip(&via_pipeline.banks) {
        assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
    }
}

#[test]
fn publication_reads_the_same_inline_and_threaded() {
    // One service function publishes for both modes, so a run in which a
    // bank dies and later batches park at it must end the same bank by
    // bank whether a worker or the submitting thread serviced it.
    let run = |workers: usize| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .drain_workers(workers)
            .seed(33)
            .build()
            .unwrap();
        mc.inject_chaos(1, BankChaos::KillAfter(64));
        let mut w = UniformWorkload::new(1 << 12, 33);
        mc.run(&mut w, 20_000)
    };
    let inline = run(1);
    let threaded = run(2);
    for out in [&inline, &threaded] {
        assert_eq!(out.quarantines, 1);
        for b in &out.banks {
            assert_eq!(b.alive, b.bank != 1, "bank {}", b.bank);
        }
    }
    for (i, t) in inline.banks.iter().zip(&threaded.banks) {
        assert_eq!(i.fingerprint, t.fingerprint, "bank {} diverged", i.bank);
        assert_eq!(i.writes_issued, t.writes_issued, "bank {}", i.bank);
    }
    assert_eq!(inline.issued, threaded.issued);
}

#[test]
fn aged_batches_flush_without_filling_the_queue() {
    // One hot bank, then silence on it: the round-robin age probe
    // must flush its sub-capacity batch within 12 × depth = 48 ticks.
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .write_buffer_lines(0)
        .queue_depth(4)
        .seed(8)
        .build()
        .unwrap();
    mc.submit(0); // bank 0, one entry — below queue_depth
    for i in 0..64 {
        mc.submit(2 * i + 1); // odd globals: all land on bank 1
    }
    assert_eq!(
        mc.banks()[0].issued(),
        1,
        "aged single-entry batch must have flushed mid-run"
    );
}

#[test]
fn degraded_mode_is_bit_identical_when_no_faults_fire() {
    // With no bank deaths, degraded mode must be invisible: the
    // logical encoding is stripped before issue and no other code
    // path changes — including under steering.
    let run = |degraded: bool, steering: bool| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .steering(steering)
            .degraded(degraded)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(17)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 12, 17);
        mc.run(&mut w, 30_000)
    };
    for steering in [false, true] {
        let on = run(true, steering);
        let off = run(false, steering);
        assert_eq!(on.redirected, 0);
        assert_eq!(on.quarantines, 0);
        assert_eq!(on.ticks, off.ticks, "steering={steering}");
        assert_eq!(on.issued, off.issued);
        for (x, y) in on.banks.iter().zip(&off.banks) {
            assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
        }
    }
}

#[test]
fn degraded_death_run_matches_plain_fingerprints_and_conserves() {
    // Natural bank deaths: the degraded run redirects exactly the
    // writes the plain run drops, and the per-bank issue streams —
    // hence fingerprints — stay identical.
    let run = |degraded: bool| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 10)
            .endurance_mean(300.0)
            .stack("ecc")
            .stop_policy(McStopPolicy::Quorum(1.0))
            .degraded(degraded)
            .seed(5)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 10, 5);
        mc.run(&mut w, 2_000_000)
    };
    let deg = run(true);
    let plain = run(false);
    assert!(deg.quarantines >= 1, "{deg:?}");
    assert_eq!(deg.dropped, 0, "degraded mode never drops writes");
    assert_eq!(deg.redirected, plain.dropped);
    assert!(deg.conserves_writes(), "{deg:?}");
    assert!(plain.conserves_writes());
    for (x, y) in deg.banks.iter().zip(&plain.banks) {
        assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
    }
}

#[test]
fn quarantine_rescues_lines_and_keeps_serving() {
    let mut mc = McFrontend::builder()
        .banks(4)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .verify_integrity(true)
        .degraded(true)
        .stop_policy(McStopPolicy::Quorum(1.0))
        .seed(33)
        .build()
        .unwrap();
    mc.inject_chaos(1, BankChaos::KillAfter(64));
    let mut w = UniformWorkload::new(1 << 12, 33);
    let out = mc.run(&mut w, 20_000);
    assert_eq!(
        out.stop,
        McStopReason::TraceComplete,
        "fleet keeps serving at N-1"
    );
    assert!(out.conserves_writes(), "{out:?}");
    assert_eq!(out.quarantines, 1);
    assert_eq!(out.dropped, 0);
    assert!(out.redirected > 0);
    assert!(out.migrated_lines > 0);
    // Every directory line reads back with its recorded tag.
    let img = mc.quarantine_image().unwrap();
    assert_eq!(img.dead, [false, true, false, false]);
    assert!(!img.directory.is_empty());
    for &(global, tag) in &img.directory {
        assert_eq!(mc.read(global), Ok(Some(tag)));
    }
    // Healthy banks answer reads for their own tracked lines.
    let lines = mc.banks()[0].sim().tracked_lines();
    assert!(!lines.is_empty());
    for &(local, tag) in lines.iter().take(8) {
        let global = mc.map().join(0, local);
        assert_eq!(mc.read(global), Ok(Some(tag)));
    }
}

#[test]
fn transient_reads_retry_and_surface_a_typed_error() {
    // ECP with zero correction entries makes every injected
    // transient uncorrectable, so the retry path is exactly
    // predictable.
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .verify_integrity(true)
        .degraded(true)
        .ecc(EccKind::Ecp(0))
        .stop_policy(McStopPolicy::Quorum(1.0))
        .seed(7)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(1 << 12, 7);
    mc.run(&mut w, 4_000);
    let (local, tag) = mc.banks()[0].sim().tracked_lines()[0];
    let global = mc.map().join(0, local);
    assert_eq!(mc.read(global), Ok(Some(tag)), "clean read before faults");
    // A short burst rides out inside the retry budget...
    mc.arm_bank_faults(0, FaultPlan::new().transient_read_burst(0, 3));
    assert_eq!(mc.read(global), Ok(Some(tag)), "retries absorb the burst");
    // ...a long burst exhausts the bounded retry and surfaces typed.
    mc.arm_bank_faults(0, FaultPlan::new().transient_read_burst(0, 16));
    assert_eq!(
        mc.read(global),
        Err(McReadError::Transient {
            bank: 0,
            attempts: 4
        })
    );
    let out = mc.finish();
    assert!(out.read_retries >= 6, "{out:?}");
    assert_eq!(out.retry_exhausted, 1);
}

#[test]
fn quarantine_image_round_trips_through_restore() {
    let build = || {
        McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .verify_integrity(true)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(41)
            .build()
            .unwrap()
    };
    let mut mc = build();
    mc.inject_chaos(2, BankChaos::KillAfter(32));
    let mut w = UniformWorkload::new(1 << 12, 41);
    let out = mc.run(&mut w, 10_000);
    assert_eq!(out.quarantines, 1);
    let img = mc.quarantine_image().unwrap();
    assert!(img.dead[2]);
    assert!(!img.directory.is_empty());

    let mut revived = build();
    revived.restore_quarantine(&img).expect("its own image");
    assert_eq!(revived.quarantine_image().unwrap(), img);
    // Directory content survives the restart.
    for &(global, tag) in img.directory.iter().take(16) {
        assert_eq!(revived.read(global), Ok(Some(tag)));
    }
    // New traffic at the quarantined bank redirects, never drops —
    // and restore does not re-run the quarantine transition.
    let mut w2 = UniformWorkload::new(1 << 12, 42);
    let out2 = revived.run(&mut w2, 5_000);
    assert!(out2.conserves_writes(), "{out2:?}");
    assert_eq!(out2.dropped, 0);
    assert!(out2.redirected > 0);
    assert_eq!(out2.quarantines, 0);
}

#[test]
fn quarantine_images_off_a_disk_are_checked_not_trusted() {
    let build = || {
        McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(41)
            .build()
            .unwrap()
    };
    let img = |dead: Vec<bool>, substitutes: Vec<u64>| QuarantineImage {
        dead,
        substitutes,
        directory: Vec::new(),
        dir_seq: 0,
    };
    let none = u64::MAX;
    for bad in [
        img(vec![false; 3], vec![none; 4]),
        img(vec![false; 4], vec![none; 5]),
        img(vec![true, false, false, false], vec![4, none, none, none]),
        QuarantineImage {
            dir_seq: u64::MAX,
            ..img(vec![false; 4], vec![none; 4])
        },
    ] {
        assert!(build().restore_quarantine(&bad).is_err(), "{bad:?}");
    }
    // Two dead banks naming each other: no live bank in the chain, so
    // their traffic lands in the directory instead of walking forever.
    let mut mc = build();
    let cyclic = img(vec![true, true, false, false], vec![1, 0, none, none]);
    mc.restore_quarantine(&cyclic).expect("well-formed");
    let out = mc.run(&mut UniformWorkload::new(1 << 12, 41), 5_000);
    assert!(out.conserves_writes(), "{out:?}");
    assert!(out.redirected > 0 && out.dropped == 0);
}

#[test]
fn pipeline_survives_a_driver_panic() {
    let mut mc = McFrontend::builder()
        .banks(2)
        .total_blocks(1 << 12)
        .endurance_mean(1e9)
        .drain_workers(2)
        .seed(3)
        .build()
        .unwrap();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mc.with_pipeline(|m| {
            for i in 0..500u64 {
                m.submit(i);
            }
            panic!("injected driver crash");
        })
    }));
    assert!(boom.is_err(), "the panic must propagate");
    // Banks and consumers are home again: the front-end still
    // finishes cleanly and accounts for everything submitted.
    let out = mc.finish();
    assert!(out.conserves_writes(), "{out:?}");
    assert_eq!(out.requests, 500);
    assert_eq!(out.banks.len(), 2);
}
