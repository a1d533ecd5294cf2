//! `bench_core` — end-to-end write-engine throughput, tracked over time.
//!
//! Runs one full lifetime curve (uniform traffic to 70 % usable space)
//! for each key scheme stack and reports simulated writes per wall-clock
//! second. Results are written to `BENCH_core.json`:
//!
//! * first run (no file): records the numbers as both `baseline` and
//!   `current`;
//! * later runs: preserves the existing `baseline` block verbatim,
//!   replaces `current`, and reports `speedup_vs_baseline` per stack.
//!
//! So the committed baseline is the throughput of the tree the file was
//! first generated from, and the JSON carries the perf trajectory of the
//! hot path across PRs. Delete the file (or set `WLR_BENCH_RESET=1`) to
//! re-baseline. `WLR_BENCH_OUT` overrides the output path.

use std::fmt::Write as _;
use std::time::Instant;
use wl_reviver::registry::StackSpec;
use wl_reviver::sim::StopCondition;
use wlr_bench::report::{
    baseline_field, bench_out_path, handle_list_stacks, load_baseline, resolve_stack_or_exit,
    rows_json, write_report,
};
use wlr_bench::{exp_builder, exp_seed, EXP_BLOCKS, EXP_ENDURANCE};

/// The perf-tracked registry subset: the hot-path stacks whose throughput
/// this report trends (the sweep binaries cover every registered stack).
const STACK_NAMES: &[&str] = &["ecc", "sg", "reviver-sg", "reviver-sr"];

fn stacks() -> Vec<&'static StackSpec> {
    STACK_NAMES
        .iter()
        .map(|n| resolve_stack_or_exit(n))
        .collect()
}

/// Usable-space floor the lifetime run ends at (the paper's Figure 5
/// axis limit); deep enough that the failure-era machinery dominates.
const STOP_USABLE: f64 = 0.70;

#[derive(Debug)]
struct Row {
    name: &'static str,
    writes: u64,
    seconds: f64,
    wps: f64,
}

fn measure() -> Vec<Row> {
    stacks()
        .iter()
        .map(|spec| {
            let name = spec.title;
            let mut sim = exp_builder().stack(spec.name).build();
            // Benchmark the event spine's dispatch path, not its bypass:
            // with a sink stacked, every emission walks the sink loop.
            // writes_issued must stay bit-identical to the sink-free run
            // (events are observability, not behavior).
            // WLR_BENCH_NOSINK=1 removes the sink to price the bypass.
            if std::env::var("WLR_BENCH_NOSINK").is_err() {
                if let Some(r) = sim.controller_mut().as_reviver_mut() {
                    r.add_sink(Box::new(wl_reviver::NoopSink));
                }
            }
            let start = Instant::now();
            let out = sim.run(StopCondition::UsableBelow(STOP_USABLE));
            let seconds = start.elapsed().as_secs_f64();
            let wps = out.writes_issued as f64 / seconds;
            eprintln!(
                "  {name:<24} {:>12} writes in {seconds:>7.2}s = {wps:>12.0} writes/s",
                out.writes_issued
            );
            Row {
                name,
                writes: out.writes_issued,
                seconds,
                wps,
            }
        })
        .collect()
}

fn stacks_json(rows: &[Row]) -> String {
    let pairs: Vec<(&str, String)> = rows
        .iter()
        .map(|r| {
            let mut fields = String::new();
            write!(
                fields,
                "\"writes_issued\": {}, \"seconds\": {:.3}, \"writes_per_sec\": {:.0}",
                r.writes, r.seconds, r.wps
            )
            .expect("string write");
            (r.name, fields)
        })
        .collect();
    rows_json(&pairs)
}

fn main() {
    handle_list_stacks();
    let out_path = bench_out_path("BENCH_core.json");

    eprintln!(
        "bench_core: {} blocks, endurance {:.0}, seed {}, stop usable<{STOP_USABLE}",
        EXP_BLOCKS,
        EXP_ENDURANCE,
        exp_seed()
    );
    let rows = measure();
    let current = stacks_json(&rows);

    let base = load_baseline(&out_path, &current);
    let mut speedups = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            speedups.push_str(", ");
        }
        let ratio =
            baseline_field(&base.block, r.name, "writes_per_sec").map_or(1.0, |b| r.wps / b);
        write!(speedups, "\"{}\": {:.2}", r.name, ratio).expect("string write");
    }
    speedups.push('}');

    let report = format!(
        "{{\n  \"config\": {{\"blocks\": {EXP_BLOCKS}, \"endurance\": {EXP_ENDURANCE}, \
         \"seed\": {}, \"stop\": \"usable:{STOP_USABLE}\"}},\n  \"baseline\": {},\n  \
         \"current\": {current},\n  \"speedup_vs_baseline\": {speedups}\n}}\n",
        exp_seed(),
        base.block
    );
    write_report(&out_path, &report, base.is_first);
    println!("{report}");
}
