//! Multi-bank front-end integration: determinism of parallel bank
//! stepping, bit-equivalence with standalone single-bank simulations,
//! shard-aware replay consistency, and global stop policies.

use wlr_base::rng::Rng;
use wlr_base::{AppAddr, Interleave, InterleaveMap};
use wlr_mc::{McFrontend, McStopPolicy, McStopReason};
use wlr_trace::{shard_records, UniformWorkload};

/// Two drain worker threads and the inline drain must produce
/// bit-identical per-bank write counts and fingerprints — while revival
/// is actually firing (low endurance forces failures, retirements and
/// shadow redirection inside the run).
#[test]
fn parallel_stepping_is_bit_identical_to_sequential_under_revival() {
    let run = |workers: usize| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 10)
            .endurance_mean(200.0)
            .gap_interval(8)
            .stack("reviver-sg")
            .drain_workers(workers)
            .seed(42)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 10, 42);
        mc.run(&mut w, 300_000)
    };
    let par = run(2);
    let seq = run(1);
    assert!(
        par.banks.iter().map(|b| b.retirements).sum::<u64>() > 0,
        "endurance too high: revival never fired, the test is vacuous"
    );
    for (p, s) in par.banks.iter().zip(&seq.banks) {
        assert_eq!(
            p.writes_issued, s.writes_issued,
            "bank {} write counts diverged",
            p.bank
        );
        assert_eq!(
            p.fingerprint, s.fingerprint,
            "bank {} end state diverged",
            p.bank
        );
    }
    assert_eq!(par.issued, seq.issued);
    assert_eq!(par.coalesced, seq.coalesced);
    assert_eq!(par.absorbed, seq.absorbed);
    assert_eq!(par.ticks, seq.ticks);
}

/// Each bank inside the front-end must end bit-identical to a standalone
/// single-bank simulation fed the same issue sequence: the sharding is
/// pure routing, it changes nothing about any bank's own history.
#[test]
fn banks_match_equivalent_standalone_single_bank_runs() {
    let mut mc = McFrontend::builder()
        .banks(4)
        .total_blocks(1 << 10)
        .endurance_mean(200.0)
        .gap_interval(8)
        .stack("reviver-sg")
        .record_issue(true)
        .seed(7)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(1 << 10, 7);
    let out = mc.run(&mut w, 300_000);
    assert!(
        out.banks.iter().map(|b| b.retirements).sum::<u64>() > 0,
        "revival never fired"
    );
    for (i, report) in out.banks.iter().enumerate() {
        let log: Vec<AppAddr> = mc.banks()[i]
            .issue_log()
            .expect("issue recording was enabled")
            .iter()
            .map(|&a| AppAddr::new(a))
            .collect();
        assert_eq!(log.len() as u64, report.writes_issued);
        let mut reference = mc.reference_sim(i);
        reference.run_batch(&log);
        assert_eq!(
            reference.fingerprint(),
            report.fingerprint,
            "bank {i} is not bit-identical to its standalone replay"
        );
    }
}

/// A 16-bank front-end must sustain a full request stream to the end of
/// the trace with every write accounted for and every bank alive.
#[test]
fn sixteen_banks_sustain_a_full_trace() {
    let mut mc = McFrontend::builder()
        .banks(16)
        .total_blocks(1 << 14)
        .endurance_mean(1e4)
        .seed(9)
        .build()
        .unwrap();
    let mut w = UniformWorkload::new(1 << 14, 9);
    let out = mc.run(&mut w, 150_000);
    assert_eq!(out.stop, McStopReason::TraceComplete);
    assert_eq!(out.requests, 150_000);
    assert!(out.conserves_writes(), "{out:?}");
    assert_eq!(out.dropped, 0);
    assert_eq!(out.banks.len(), 16);
    for report in &out.banks {
        assert!(report.alive, "bank {} died mid-trace", report.bank);
        assert!(
            report.writes_issued > 0,
            "bank {} never serviced a write",
            report.bank
        );
    }
    assert_eq!(out.wear.blocks(), 1 << 14, "merged wear covers every bank");
}

/// With buffering off and a duplicate-free request stream (so neither
/// absorption nor coalescing can fire), each bank's issue log must equal
/// the pure interleave shard of the request vector: the front-end is
/// exactly shard-aware replay.
#[test]
fn issue_logs_equal_pure_shards_of_the_request_stream() {
    let space = 1u64 << 12;
    let mut requests: Vec<u64> = (0..space).collect();
    Rng::seed_from(33).shuffle(&mut requests);

    let mut mc = McFrontend::builder()
        .banks(8)
        .total_blocks(space)
        .endurance_mean(1e9)
        .interleave(Interleave::Page)
        .write_buffer_lines(0)
        .record_issue(true)
        .seed(33)
        .build()
        .unwrap();
    for &r in &requests {
        mc.submit(r);
    }
    let out = mc.finish();
    assert_eq!(out.absorbed, 0);
    assert_eq!(out.coalesced, 0);
    assert_eq!(out.issued, space);

    let map = InterleaveMap::new(8, 64).unwrap();
    assert_eq!(*mc.map(), map);
    let shards = shard_records(space, &requests, &map).unwrap();
    for (i, shard) in shards.iter().enumerate() {
        assert_eq!(
            mc.banks()[i].issue_log().unwrap(),
            shard.as_slice(),
            "bank {i} issue order differs from the pure shard"
        );
    }
}

/// The first-dead policy halts at the first exhausted bank; a full
/// quorum policy keeps servicing the surviving banks until every bank is
/// gone, so it must always stop strictly later.
#[test]
fn quorum_policy_outlasts_first_dead_policy() {
    let run = |policy: McStopPolicy| {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 10)
            .endurance_mean(300.0)
            .stack("ecc")
            .stop_policy(policy)
            .seed(21)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 10, 21);
        mc.run(&mut w, 5_000_000)
    };
    let first = run(McStopPolicy::FirstBankDead);
    assert!(
        matches!(first.stop, McStopReason::BankDead(_)),
        "expected a first-dead stop, got {:?}",
        first.stop
    );
    let quorum = run(McStopPolicy::Quorum(1.0));
    assert_eq!(quorum.stop, McStopReason::QuorumDead(4));
    assert!(
        quorum.requests > first.requests,
        "full-quorum run ({}) must outlast first-dead run ({})",
        quorum.requests,
        first.requests
    );
    assert!(
        quorum.dropped > 0,
        "writes to dead banks must be counted as dropped"
    );
    assert!(quorum.conserves_writes());
    assert!(first.conserves_writes());
}
