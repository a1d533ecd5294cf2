//! `service` — multi-bank front-end service benchmark, tracked over time.
//!
//! Sweeps the bank count (1 → 128 by default) over the same global
//! address space and request stream, and reports sustained service
//! throughput (wall-clock writes per second) plus queueing-latency
//! percentiles (p50/p99/p999) per configuration. Each row carries a
//! typed `outcome` (`complete`, or a `degraded:` variant for an early
//! stop or lost writes) — degraded rows are reported as data, and only
//! fail the run under `WLR_SERVICE_STRICT=1` (which CI sets).
//! The report also carries an `overhead` row:
//! the largest configuration re-run with the serve daemon's full
//! observability stack (per-bank [`MetricsSink`]s plus sampled span
//! timing at the daemon's default period) against the bare run, as a
//! tracked regression budget for the metrics layer.
//! Results go to `BENCH_service.json` with the same baseline discipline
//! as `bench_core`:
//!
//! * first run (no file): records the numbers as both `baseline` and
//!   `current`;
//! * later runs: preserves the existing `baseline` verbatim, replaces
//!   `current`, and reports `speedup_vs_baseline` per bank count.
//!
//! The baseline is config-aware: the `config` block captures the
//! *workload identity* (space, endurance, seed, request stream, queue
//! and buffer shape — not perf knobs like pinning), and a prior baseline
//! is preserved only when the identity matches; a widened `WLR_BANKS`
//! sweep keeps existing rows' baselines and self-baselines the new rows.
//!
//! Knobs (see EXPERIMENTS.md): `WLR_BANKS` (comma-separated bank counts,
//! default `1,2,4,8,16,32,64,128`), `WLR_QUEUE_DEPTH` (default 64),
//! `WLR_INTERLEAVE` (`cacheline`, `page`, or a block count; default
//! cacheline), `WLR_WRITE_BUFFER` (DRAM buffer lines, default 32),
//! `WLR_SERVICE_REQUESTS` (requests per configuration, default 2 000 000),
//! `WLR_SERVICE_PASSES` (timing passes per configuration, fastest kept,
//! default 3 — the run is deterministic, so passes differ only in noise),
//! `WLR_STEERING` (wear-aware bank steering, default 0), `WLR_RING_DEPTH`
//! (SPSC ring entries per bank, default 4096), plus the usual `WLR_SEED`,
//! `WLR_BENCH_OUT`, `WLR_BENCH_RESET`.

use std::fmt::Write as _;
use std::time::Instant;
use wl_reviver::{MetricsSink, RevivalMetrics};
use wlr_base::stats::registry::MetricsRegistry;
use wlr_base::Interleave;
use wlr_bench::report::{
    baseline_field, bench_out_path, env_u64, load_baseline_with_config, write_report,
};
use wlr_bench::{exp_seed, scaled_gap_interval, EXP_BLOCKS, EXP_ENDURANCE};
use wlr_mc::{McFrontend, McOutcome, McStopReason};
use wlr_trace::UniformWorkload;

fn bank_counts() -> Vec<usize> {
    let raw = std::env::var("WLR_BANKS").unwrap_or_else(|_| "1,2,4,8,16,32,64,128".into());
    let counts: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    assert!(!counts.is_empty(), "WLR_BANKS `{raw}` has no valid counts");
    counts
}

fn interleave() -> Interleave {
    match std::env::var("WLR_INTERLEAVE") {
        Ok(s) => Interleave::parse(&s)
            .unwrap_or_else(|| panic!("WLR_INTERLEAVE `{s}` is not cacheline/page/<blocks>")),
        Err(_) => Interleave::CacheLine,
    }
}

#[derive(Debug)]
struct Row {
    banks: usize,
    outcome: McOutcome,
    seconds: f64,
    wps: f64,
}

fn measure(requests: u64, queue_depth: usize, wbuf: usize, stripe: Interleave) -> Vec<Row> {
    let seed = exp_seed();
    let steering = env_u64("WLR_STEERING", 0) != 0;
    let ring_depth = env_u64("WLR_RING_DEPTH", 4096).max(1) as usize;
    let passes = env_u64("WLR_SERVICE_PASSES", 3).max(1);
    bank_counts()
        .into_iter()
        .map(|banks| {
            let local = EXP_BLOCKS / banks as u64;
            // The run is deterministic, so repeated passes differ only in
            // wall-clock; keep the fastest to strip scheduler noise.
            let mut best: Option<Row> = None;
            for _ in 0..passes {
                let mut mc = McFrontend::builder()
                    .banks(banks)
                    .total_blocks(EXP_BLOCKS)
                    .endurance_mean(EXP_ENDURANCE)
                    .gap_interval(scaled_gap_interval(local, EXP_ENDURANCE))
                    .seed(seed)
                    .interleave(stripe)
                    .queue_depth(queue_depth)
                    .write_buffer_lines(wbuf)
                    .steering(steering)
                    .ring_depth(ring_depth)
                    .build()
                    .expect("bank count must divide the experiment space");
                let mut workload = UniformWorkload::new(EXP_BLOCKS, seed);
                let start = Instant::now();
                let outcome = mc.run(&mut workload, requests);
                let seconds = start.elapsed().as_secs_f64();
                let wps = outcome.requests as f64 / seconds;
                if let Some(b) = &best {
                    assert_eq!(
                        (b.outcome.issued, b.outcome.coalesced, b.outcome.ticks),
                        (outcome.issued, outcome.coalesced, outcome.ticks),
                        "sweep passes diverged at banks={banks}: the run must be deterministic"
                    );
                }
                if best.as_ref().is_none_or(|b| seconds < b.seconds) {
                    best = Some(Row {
                        banks,
                        outcome,
                        seconds,
                        wps,
                    });
                }
            }
            let r = best.expect("at least one pass runs");
            let outcome = &r.outcome;
            eprintln!(
                "  banks={banks:<3} {:>10} requests in {:>6.2}s = {:>12.0} writes/s  \
                 p50={} p99={} p999={} ticks  ({} coalesced, {} absorbed)",
                outcome.requests,
                r.seconds,
                r.wps,
                outcome.latency.p50(),
                outcome.latency.p99(),
                outcome.latency.p999(),
                outcome.coalesced,
                outcome.absorbed
            );
            let rv = &outcome.revival;
            if rv.links + rv.spare_grants + rv.fake_reports > 0 {
                eprintln!(
                    "            revival: {} links, {} switches, {} spare grants, \
                     {} suspensions, {} sacrificed writes",
                    rv.links, rv.switches, rv.spare_grants, rv.suspensions, rv.fake_reports
                );
            }
            r
        })
        .collect()
}

/// Measures what the live observability layer costs at `banks` banks:
/// the identical deterministic run with the full serve-daemon
/// instrumentation (a registered [`MetricsSink`] per bank folding events
/// into registry counters, plus wall-clock span sampling at the
/// daemon's default 1-in-N period into a registry histogram) versus
/// bare. Returns median-estimated CPU-time writes/s for (off, on); the
/// outcomes are asserted identical, so the delta is pure
/// instrumentation cost.
/// Nanoseconds this thread has spent on-CPU, from
/// `/proc/self/schedstat` (first field). `None` off Linux — callers
/// fall back to wall clock.
///
/// The overhead probe measures on CPU time, not wall time: on a shared
/// host the scheduler steals slices at coarse granularity, putting
/// ±15% run-to-run noise on wall-clock throughput of *identical* work —
/// an order of magnitude above the few-percent effect the probe exists
/// to resolve. `schedstat` excludes both steal and runqueue wait at
/// nanosecond resolution (`/proc/self/stat` would cover all threads but
/// only at 10ms ticks, which quantises sub-second runs into uselessness)
/// — the trade-off being that it covers the *calling thread* only, so
/// the probe forces the pipeline inline (which `wlr-mc` proves is
/// bit-identical to the threaded drain).
fn cpu_seconds() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

fn overhead_probe(
    banks: usize,
    requests: u64,
    queue_depth: usize,
    wbuf: usize,
    stripe: Interleave,
) -> (f64, f64) {
    let seed = exp_seed();
    let steering = env_u64("WLR_STEERING", 0) != 0;
    let ring_depth = env_u64("WLR_RING_DEPTH", 4096).max(1) as usize;
    let passes = env_u64("WLR_SERVICE_PASSES", 3).max(1);
    let local = EXP_BLOCKS / banks as u64;
    // Longer runs than the sweep: the probe reports a *ratio*, and the
    // longer the run the less measurement noise dilutes the few-percent
    // effect it resolves.
    let requests = requests.max(8_000_000);
    let run_one = |instrumented: bool| -> (f64, McOutcome) {
        let mut mc = McFrontend::builder()
            .banks(banks)
            .total_blocks(EXP_BLOCKS)
            .endurance_mean(EXP_ENDURANCE)
            .gap_interval(scaled_gap_interval(local, EXP_ENDURANCE))
            .seed(seed)
            .interleave(stripe)
            .queue_depth(queue_depth)
            .write_buffer_lines(wbuf)
            .steering(steering)
            .ring_depth(ring_depth)
            // Inline drain: keeps the run on the probe's own thread so
            // `cpu_seconds` covers all the work (bit-identical to the
            // threaded drain per wlr-mc's equivalence test).
            .drain_workers(1)
            // Mirror the serve daemon's default sampling period so the
            // overhead row certifies the configuration users actually run.
            .span_sample(if instrumented {
                env_u64("WLR_METRICS_SAMPLE", 1024).max(1)
            } else {
                0
            })
            .build()
            .expect("bank count must divide the experiment space");
        if instrumented {
            let registry = MetricsRegistry::new();
            mc.set_span_histogram(
                registry.histogram("wlr_span_ns", "enqueue-to-service wall-clock"),
            );
            let revival = RevivalMetrics::register(&registry);
            for b in 0..banks {
                if let Some(r) = mc.bank_sim_mut(b).controller_mut().as_reviver_mut() {
                    r.add_sink(Box::new(MetricsSink::new(revival.clone())));
                }
            }
        }
        let mut workload = UniformWorkload::new(EXP_BLOCKS, seed);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let outcome = mc.run(&mut workload, requests);
        let wall = start.elapsed().as_secs_f64();
        let seconds = match (cpu0, cpu_seconds()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => wall,
        };
        let wps = outcome.requests as f64 / seconds;
        (wps, outcome)
    };
    // Measurement discipline: runs are timed on CPU seconds (see
    // `cpu_seconds`), which removes scheduler-steal noise. Early runs
    // still measure slower than steady state (cold caches, lazy page
    // faults, frequency governor ramp-up — CPU *time* is not frequency-
    // immune), so warm up until throughput plateaus, then alternate
    // off/on passes with the pair order swapped each round so neither
    // mode systematically runs earlier. Median-of-N per mode strips
    // what noise remains; unlike fastest-of, the median is immune to
    // the occasional turbo spike that lands on one mode and inflates
    // the ratio by double digits.
    let mut prev = run_one(false).0;
    for _ in 0..10 {
        let cur = run_one(false).0;
        if (cur - prev).abs() / prev < 0.02 {
            break;
        }
        prev = cur;
    }
    let mut off_runs: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let mut off_out: Option<McOutcome> = None;
    let mut on_out: Option<McOutcome> = None;
    // The probe needs more rounds than the sweep: run-to-run variance on
    // a shared host dwarfs the true instrumentation cost it resolves.
    // Each round yields one *paired* on/off ratio — the two runs are
    // adjacent in time, so slow environmental drift (frequency wander)
    // cancels inside the pair instead of landing on one mode.
    for pass in 0..passes.max(16) {
        let mut pair = [0.0f64; 2];
        for mode in [pass % 2 == 0, pass % 2 != 0] {
            let (wps, out) = run_one(mode);
            pair[mode as usize] = wps;
            if mode {
                on_out.get_or_insert(out);
            } else {
                off_runs.push(wps);
                off_out.get_or_insert(out);
            }
        }
        ratios.push(pair[1] / pair[0]);
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    // Report a self-consistent (off, on) pair: the median unperturbed
    // rate and that rate scaled by the median paired ratio.
    let off = median(&mut off_runs);
    let on = off * median(&mut ratios);
    let (off_out, on_out) = (off_out.expect("runs"), on_out.expect("runs"));
    assert_eq!(
        (off_out.issued, off_out.coalesced, off_out.ticks),
        (on_out.issued, on_out.coalesced, on_out.ticks),
        "instrumentation must not change outcomes at banks={banks}"
    );
    (off, on)
}

/// The typed per-row service outcome: `"complete"` for a fully sustained
/// stream, a `degraded:` variant otherwise. Degraded rows stay in the
/// report as data — a service that lost a bank mid-sweep is a measured
/// state, not a discarded run — unless `WLR_SERVICE_STRICT=1` restores
/// the hard failure.
fn outcome_label(o: &McOutcome) -> String {
    if !o.conserves_writes() {
        "degraded:lost_writes".into()
    } else {
        match o.stop {
            McStopReason::TraceComplete => "complete".into(),
            McStopReason::BankDead(b) => format!("degraded:bank_dead:{b}"),
            McStopReason::QuorumDead(n) => format!("degraded:quorum_dead:{n}"),
        }
    }
}

fn rows_json(rows: &[Row]) -> String {
    let mut s = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let o = &r.outcome;
        write!(
            s,
            "\"banks_{}\": {{\"outcome\": \"{}\", \"requests\": {}, \"issued\": {}, \
             \"absorbed\": {}, \
             \"coalesced\": {}, \"drains\": {}, \"seconds\": {:.3}, \
             \"writes_per_sec\": {:.0}, \"p50_ticks\": {}, \"p99_ticks\": {}, \
             \"p999_ticks\": {}, \
             \"revival\": {{\"links\": {}, \"switches\": {}, \"spare_grants\": {}, \
             \"suspensions\": {}}}}}",
            r.banks,
            outcome_label(o),
            o.requests,
            o.issued,
            o.absorbed,
            o.coalesced,
            o.drains,
            r.seconds,
            r.wps,
            o.latency.p50(),
            o.latency.p99(),
            o.latency.p999(),
            o.revival.links,
            o.revival.switches,
            o.revival.spare_grants,
            o.revival.suspensions
        )
        .expect("string write");
    }
    s.push('}');
    s
}

fn main() {
    let out_path = bench_out_path("BENCH_service.json");
    let requests = env_u64("WLR_SERVICE_REQUESTS", 2_000_000).max(1);
    let queue_depth = env_u64("WLR_QUEUE_DEPTH", 64).max(1) as usize;
    let wbuf = env_u64("WLR_WRITE_BUFFER", 32) as usize;
    let stripe = interleave();

    eprintln!(
        "service: {EXP_BLOCKS} blocks, endurance {EXP_ENDURANCE:.0}, seed {}, \
         {requests} requests, queue depth {queue_depth}, buffer {wbuf} lines, \
         interleave {stripe}, steering={}",
        exp_seed(),
        env_u64("WLR_STEERING", 0) != 0
    );
    let rows = measure(requests, queue_depth, wbuf, stripe);

    let mut degraded = 0u64;
    for r in &rows {
        let label = outcome_label(&r.outcome);
        if label != "complete" {
            eprintln!(
                "WARN: banks={} finished {label} (stop {:?})",
                r.banks, r.outcome.stop
            );
            degraded += 1;
        }
    }

    let config = format!(
        "{{\"blocks\": {EXP_BLOCKS}, \"endurance\": {EXP_ENDURANCE}, \
         \"seed\": {}, \"requests\": {requests}, \"queue_depth\": {queue_depth}, \
         \"write_buffer\": {wbuf}, \"interleave\": \"{stripe}\"}}",
        exp_seed()
    );
    let current = rows_json(&rows);
    let base = load_baseline_with_config(&out_path, &current, &config);
    let mut speedups = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            speedups.push_str(", ");
        }
        let name = format!("banks_{}", r.banks);
        let ratio = baseline_field(&base.block, &name, "writes_per_sec").map_or(1.0, |b| r.wps / b);
        write!(speedups, "\"{name}\": {ratio:.2}").expect("string write");
    }
    speedups.push('}');

    // What does the serve daemon's observability layer cost? Re-run the
    // largest configuration with the full instrumentation stack on.
    // The tracked budget configuration is 64 banks (falling back to the
    // largest swept count when the sweep was narrowed below it).
    let probe_banks = rows
        .iter()
        .map(|r| r.banks)
        .find(|&b| b == 64)
        .unwrap_or_else(|| rows.iter().map(|r| r.banks).max().expect("rows"));
    let (wps_off, wps_on) = overhead_probe(probe_banks, requests, queue_depth, wbuf, stripe);
    let regression_pct = (wps_off - wps_on) / wps_off * 100.0;
    eprintln!(
        "  overhead: banks={probe_banks} metrics-off {wps_off:.0} writes/s, \
         metrics-on {wps_on:.0} writes/s ({regression_pct:+.2}%)"
    );
    if regression_pct >= 3.0 {
        eprintln!("WARN: metrics layer costs >=3% writes/s at banks={probe_banks}");
    }
    let overhead = format!(
        "{{\"banks\": {probe_banks}, \"writes_per_sec_off\": {wps_off:.0}, \
         \"writes_per_sec_on\": {wps_on:.0}, \"regression_pct\": {regression_pct:.2}}}"
    );

    let report = format!(
        "{{\n  \"config\": {config},\n  \"baseline\": {},\n  \
         \"current\": {current},\n  \"overhead\": {overhead},\n  \
         \"speedup_vs_baseline\": {speedups}\n}}\n",
        base.block
    );
    write_report(&out_path, &report, base.is_first);
    println!("{report}");
    if degraded > 0 {
        eprintln!(
            "NOTE: {degraded} configuration(s) finished degraded; rows carry the typed outcome"
        );
        if env_u64("WLR_SERVICE_STRICT", 0) != 0 {
            eprintln!("FAIL: WLR_SERVICE_STRICT=1 and the stream was not fully sustained");
            std::process::exit(1);
        }
    }
}
