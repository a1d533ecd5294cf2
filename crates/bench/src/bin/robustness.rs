//! `robustness` — recovery-cost benchmark, tracked over time.
//!
//! For each reviver stack, sweeps a set of seeded power-loss points
//! through one lifetime workload and measures what recovery costs at
//! each: PCM blocks scanned, links rebuilt, journaled migration lines
//! replayed, spares recovered, and recovery wall-clock time. Results go
//! to `BENCH_robustness.json` with the same baseline discipline as
//! `bench_core`:
//!
//! * first run (no file): records the numbers as both `baseline` and
//!   `current`;
//! * later runs: preserves the existing `baseline` verbatim, replaces
//!   `current`, and reports `scan_ratio_vs_baseline` per stack.
//!
//! Delete the file (or set `WLR_BENCH_RESET=1`) to re-baseline;
//! `WLR_BENCH_OUT` overrides the output path; `WLR_FAULT_SEED` and
//! `WLR_CRASH_INTERVAL` pick the fault schedule (see EXPERIMENTS.md).

use std::fmt::Write as _;
use std::time::Instant;
use wl_reviver::recovery::RecoveryReport;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_bench::report::{
    baseline_field, bench_out_path, env_u64, extract_object, handle_list_stacks, load_baseline,
    rows_json, write_report,
};
use wlr_pcm::FaultPlan;

const BLOCKS: u64 = 1 << 10;
const ENDURANCE: f64 = 60.0;
const STOP: u64 = 55_000;

#[derive(Debug)]
struct Row {
    name: &'static str,
    crashes: u64,
    report: RecoveryReport,
    recover_seconds: f64,
    violations: u64,
}

fn measure(seed: u64, interval: u64) -> Vec<Row> {
    // With WLR_TRACE_DUMP=1, each simulation carries a bounded ring of
    // reviver events and the tail is dumped at every power-loss point —
    // the last thing the controller did before the lights went out.
    let trace_dump = std::env::var("WLR_TRACE_DUMP").is_ok_and(|v| v == "1");
    SchemeRegistry::global()
        .revivable()
        .map(|spec| {
            let name = spec.title;
            let mut crashes = 0u64;
            let mut violations = 0u64;
            let mut agg = RecoveryReport::default();
            let mut recover_seconds = 0.0;
            for k in (interval..50_000).step_by(interval as usize) {
                let mut builder = Simulation::builder()
                    .num_blocks(BLOCKS)
                    .endurance_mean(ENDURANCE)
                    .gap_interval(5)
                    .stack(spec.name)
                    .seed(seed)
                    .sample_interval(10_000)
                    .verify_integrity(true)
                    .fault_plan(FaultPlan::new().power_loss_at_write(k));
                if trace_dump {
                    builder = builder.trace_ring(64);
                }
                let mut sim = builder.build();
                let out = sim.run(StopCondition::Writes(STOP));
                if out.reason != StopReason::PowerLoss {
                    continue;
                }
                crashes += 1;
                if trace_dump {
                    if let Some(dump) = sim.trace_dump() {
                        eprintln!("--- {name}: events before power loss at write {k} ---");
                        eprint!("{dump}");
                    }
                }
                let t = Instant::now();
                let report = sim.recover();
                recover_seconds += t.elapsed().as_secs_f64();
                agg.absorb(&report);
                violations += sim.verify_all();
                sim.run(StopCondition::Writes(STOP));
                violations += sim.verify_all();
            }
            eprintln!(
                "  {name:<32} {crashes:>3} crashes: {:>8} blocks scanned, {:>5} links, \
                 {:>4} replays, {violations} violations",
                agg.blocks_scanned, agg.links_recovered, agg.migration_replays
            );
            Row {
                name,
                crashes,
                report: agg,
                recover_seconds,
                violations,
            }
        })
        .collect()
}

fn stacks_json(rows: &[Row]) -> String {
    let pairs: Vec<(&str, String)> = rows
        .iter()
        .map(|r| {
            let per = |x: u64| x as f64 / r.crashes.max(1) as f64;
            let mut fields = String::new();
            write!(
                fields,
                "\"crashes\": {}, \"blocks_scanned_per_crash\": {:.1}, \
                 \"links_recovered_per_crash\": {:.2}, \"migration_replays_per_crash\": {:.3}, \
                 \"spares_recovered_per_crash\": {:.1}, \"torn_links_dropped\": {}, \
                 \"torn_switch_repairs\": {}, \"healed_links\": {}, \
                 \"recover_seconds_total\": {:.4}, \"violations\": {}",
                r.crashes,
                per(r.report.blocks_scanned),
                per(r.report.links_recovered),
                per(r.report.migration_replays),
                per(r.report.spares_recovered),
                r.report.torn_links_dropped,
                r.report.torn_switch_repairs,
                r.report.healed_links,
                r.recover_seconds,
                r.violations
            )
            .expect("string write");
            (r.name, fields)
        })
        .collect();
    rows_json(&pairs)
}

fn main() {
    handle_list_stacks();
    let out_path = bench_out_path("BENCH_robustness.json");
    let seed = env_u64("WLR_FAULT_SEED", 42);
    let interval = env_u64("WLR_CRASH_INTERVAL", 5_000).max(1);

    eprintln!(
        "robustness: {BLOCKS} blocks, endurance {ENDURANCE:.0}, seed {seed}, \
         crash every {interval} device writes"
    );
    let rows = measure(seed, interval);
    let total_violations: u64 = rows.iter().map(|r| r.violations).sum();
    let current = stacks_json(&rows);

    let base = load_baseline(&out_path, &current);
    let mut ratios = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            ratios.push_str(", ");
        }
        let per = r.report.blocks_scanned as f64 / r.crashes.max(1) as f64;
        let ratio = baseline_field(&base.block, r.name, "blocks_scanned_per_crash")
            .map_or(1.0, |b| if b > 0.0 { per / b } else { 1.0 });
        write!(ratios, "\"{}\": {:.2}", r.name, ratio).expect("string write");
    }
    ratios.push('}');

    // The `chaos` binary shares this report file; carry its blocks
    // through verbatim so the two harnesses can run in either order.
    let prior = std::fs::read_to_string(&out_path).ok();
    let mut chaos_blocks = String::new();
    for key in ["chaos_config", "chaos_baseline", "chaos_current"] {
        if let Some(block) = prior.as_deref().and_then(|p| extract_object(p, key)) {
            write!(chaos_blocks, ",\n  \"{key}\": {block}").expect("string write");
        }
    }

    let report = format!(
        "{{\n  \"config\": {{\"blocks\": {BLOCKS}, \"endurance\": {ENDURANCE}, \
         \"seed\": {seed}, \"crash_interval\": {interval}, \"stop\": \"writes:{STOP}\"}},\n  \
         \"baseline\": {},\n  \"current\": {current},\n  \
         \"scan_ratio_vs_baseline\": {ratios}{chaos_blocks}\n}}\n",
        base.block
    );
    write_report(&out_path, &report, base.is_first);
    println!("{report}");
    if total_violations > 0 {
        eprintln!("FAIL: {total_violations} oracle violations during the sweep");
        std::process::exit(1);
    }
}
