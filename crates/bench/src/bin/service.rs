//! `service` — multi-bank front-end service sweep, pass/fail.
//!
//! Sweeps the bank count (1 → 128 by default) over the same global
//! address space and request stream and prints one deterministic row per
//! configuration: the typed outcome (`complete`, or a `degraded:` variant
//! for an early stop or lost writes), what the buffer and queue did
//! (issued / absorbed / coalesced / drains) and the queueing latency in
//! service-clock ticks (p50 / p99 / p999). With no injected faults any
//! degraded row is a regression in the queue/buffer/drain path, so the
//! run exits 1 unless every row is `complete`. No wall clock is read:
//! host throughput of this pipeline is `benchmark/`'s `bank_uniform` and
//! `bank_hot` workloads.
//!
//! Knobs (see EXPERIMENTS.md): `WLR_BANKS` (comma-separated bank counts,
//! default `1,2,4,8,16,32,64,128`), `WLR_QUEUE_DEPTH` (default 64),
//! `WLR_INTERLEAVE` (`cacheline`, `page`, or a block count; default
//! cacheline), `WLR_WRITE_BUFFER` (DRAM buffer lines, default 32),
//! `WLR_SERVICE_REQUESTS` (requests per configuration, default 2 000 000),
//! `WLR_STEERING` (wear-aware bank steering, default 0), plus the usual
//! `WLR_SEED`.

use wlr_base::env::{env_str, env_u64, or_exit, parse_knob};
use wlr_base::Interleave;
use wlr_bench::{exp_seed, print_table, scaled_gap_interval, EXP_BLOCKS, EXP_ENDURANCE};
use wlr_mc::{McFrontend, McOutcome, McStopReason};
use wlr_trace::UniformWorkload;

fn bank_counts() -> Vec<usize> {
    let raw = env_str("WLR_BANKS").unwrap_or_else(|| "1,2,4,8,16,32,64,128".into());
    raw.split(',')
        .map(|s| or_exit(parse_knob::<usize>("WLR_BANKS", s)))
        .collect()
}

fn interleave() -> Interleave {
    let Some(s) = env_str("WLR_INTERLEAVE") else {
        return Interleave::CacheLine;
    };
    let bad = || format!("WLR_INTERLEAVE={s:?} is not cacheline, page or a block count");
    or_exit(Interleave::parse(&s).ok_or_else(bad))
}

/// The typed per-row service outcome: `"complete"` for a fully sustained
/// stream, a `degraded:` variant otherwise.
fn outcome_label(o: &McOutcome) -> String {
    match o.stop {
        _ if !o.conserves_writes() => "degraded:lost_writes".into(),
        McStopReason::TraceComplete => "complete".into(),
        McStopReason::BankDead(b) => format!("degraded:bank_dead:{b}"),
        McStopReason::QuorumDead(n) => format!("degraded:quorum_dead:{n}"),
    }
}

fn main() {
    let seed = exp_seed();
    let requests = env_u64("WLR_SERVICE_REQUESTS", 2_000_000).max(1);
    let queue_depth = env_u64("WLR_QUEUE_DEPTH", 64).max(1) as usize;
    let wbuf = env_u64("WLR_WRITE_BUFFER", 32) as usize;
    let steering = env_u64("WLR_STEERING", 0) != 0;
    let stripe = interleave();
    let counts = bank_counts();

    println!(
        "service: {EXP_BLOCKS} blocks, endurance {EXP_ENDURANCE:.0}, seed {seed}, \
         {requests} requests, queue depth {queue_depth}, buffer {wbuf} lines, \
         interleave {stripe}, steering={steering}\n"
    );

    let mut degraded = 0u64;
    let rows: Vec<Vec<String>> = counts
        .into_iter()
        .map(|banks| {
            let local = EXP_BLOCKS / banks.max(1) as u64;
            let mut mc = or_exit(
                McFrontend::builder()
                    .banks(banks)
                    .total_blocks(EXP_BLOCKS)
                    .endurance_mean(EXP_ENDURANCE)
                    .gap_interval(scaled_gap_interval(local, EXP_ENDURANCE))
                    .seed(seed)
                    .interleave(stripe)
                    .queue_depth(queue_depth)
                    .write_buffer_lines(wbuf)
                    .steering(steering)
                    .build()
                    .map_err(|e| format!("WLR_BANKS: {banks} banks: {e}")),
            );
            let o = mc.run(&mut UniformWorkload::new(EXP_BLOCKS, seed), requests);
            let label = outcome_label(&o);
            if label != "complete" {
                degraded += 1;
            }
            vec![
                banks.to_string(),
                label,
                o.requests.to_string(),
                o.issued.to_string(),
                o.absorbed.to_string(),
                o.coalesced.to_string(),
                o.drains.to_string(),
                o.latency.p50().to_string(),
                o.latency.p99().to_string(),
                o.latency.p999().to_string(),
            ]
        })
        .collect();
    print_table(
        "service sweep (latency in service-clock ticks)",
        &[
            "banks",
            "outcome",
            "requests",
            "issued",
            "absorbed",
            "coalesced",
            "drains",
            "p50",
            "p99",
            "p999",
        ],
        &rows,
    );
    if degraded > 0 {
        eprintln!("FAIL: {degraded} configuration(s) did not sustain the full stream");
        std::process::exit(1);
    }
}
