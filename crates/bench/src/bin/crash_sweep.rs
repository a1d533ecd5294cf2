//! `crash_sweep` — CrashMonkey-style power-loss sweep over every stack.
//!
//! Replays the same seeded workload once per crash point, cutting power
//! at every Nth device write, recovering, and driving the run to its
//! normal end. After each recovery *and* at the end of each run the
//! integrity oracle re-reads every live logical address; any mismatch is
//! a violation and fails the sweep (exit code 1).
//!
//! Reviver stacks crash at device-write granularity through the seeded
//! [`FaultPlan`]; baseline stacks model fully-persistent metadata and
//! crash at software-write boundaries instead (the paper grants them
//! this), so the same sweep shape covers every registered stack.
//!
//! Standard output is seed-deterministic and recorded as
//! `results/crash_sweep.txt` (CI diffs the default sweep against it).
//!
//! Knobs (see EXPERIMENTS.md):
//!
//! * `WLR_FAULT_SEED`   — workload/device seed (default 42)
//! * `WLR_CRASH_INTERVAL` — distance between crash points in device
//!   writes (default 1000)
//! * `WLR_CRASH_FROM` / `WLR_CRASH_TO` — sweep range (default
//!   1000..37000, healthy era through deep wear-out; later points than
//!   a stack's lifetime simply never fire)
//! * `WLR_CRASH_STACKS` — comma-separated registry-name filter (default:
//!   all registered stacks; unknown names abort with the valid list, and
//!   `--list-stacks` prints it)
//! * `WLR_TRACE_DUMP=1` — reviver stacks carry a bounded ring of reviver
//!   events, dumped to stderr as JSONL at every power-loss point: the
//!   last things the controller did before the lights went out

use wl_reviver::recovery::RecoveryReport;
use wl_reviver::registry::{SchemeRegistry, StackSpec};
use wl_reviver::sim::{Simulation, SimulationBuilder, StopCondition, StopReason};
use wlr_base::env::{env_str, env_u64};
use wlr_bench::{handle_list_stacks, print_table, resolve_stacks_or_exit, run_pooled, PooledJob};
use wlr_pcm::FaultPlan;

const BLOCKS: u64 = 1 << 10;
/// Short lifetime so each crash-point replay is cheap; the sweep's value
/// is in the *number* of cut positions, not the length of each run.
const ENDURANCE: f64 = 60.0;
const STOP: u64 = 55_000;

fn all_stacks() -> Vec<&'static StackSpec> {
    match env_str("WLR_CRASH_STACKS") {
        Some(filter) => resolve_stacks_or_exit(&filter),
        None => SchemeRegistry::global().iter().collect(),
    }
}

fn rig(scheme: &str, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(5)
        .stack(scheme)
        .seed(seed)
        .sample_interval(10_000)
        .verify_integrity(true)
}

/// Result of one crash-point replay.
struct Point {
    fired: bool,
    violations: u64,
    report: RecoveryReport,
}

/// Crash a reviver stack at device-write `k`, recover, finish the run.
fn reviver_point(scheme: &str, seed: u64, k: u64, trace_dump: bool) -> Point {
    let mut builder = rig(scheme, seed).fault_plan(FaultPlan::new().power_loss_at_write(k));
    if trace_dump {
        builder = builder.trace_ring(64);
    }
    let mut sim = builder.build();
    let out = sim.run(StopCondition::Writes(STOP));
    let mut violations = 0;
    let mut report = RecoveryReport::default();
    let fired = out.reason == StopReason::PowerLoss;
    if fired {
        if let Some(dump) = sim.trace_dump() {
            // One call, so points running on other pool threads cannot
            // interleave with the block.
            eprint!("--- {scheme}: events before power loss at write {k} ---\n{dump}");
        }
        report = sim.recover();
        violations += sim.verify_all();
        sim.run(StopCondition::Writes(STOP));
    }
    violations += sim.verify_all();
    violations += sim.integrity_errors();
    Point {
        fired,
        violations,
        report,
    }
}

/// Reboot a baseline stack at software-write boundary `k`, finish the run.
fn baseline_point(scheme: &str, seed: u64, k: u64) -> Point {
    let mut sim = rig(scheme, seed).build();
    let out = sim.run(StopCondition::Writes(k));
    let mut violations = 0;
    let fired = out.reason == StopReason::ConditionMet;
    if fired {
        sim.recover();
        violations += sim.verify_all();
        sim.run(StopCondition::Writes(STOP));
    }
    violations += sim.verify_all();
    Point {
        fired,
        violations,
        report: RecoveryReport::default(),
    }
}

fn main() {
    handle_list_stacks();
    let seed = env_u64("WLR_FAULT_SEED", 42);
    let trace_dump = env_str("WLR_TRACE_DUMP").as_deref() == Some("1");
    let interval = env_u64("WLR_CRASH_INTERVAL", 1_000).max(1);
    let from = env_u64("WLR_CRASH_FROM", 1_000);
    let to = env_u64("WLR_CRASH_TO", 37_000);
    let stacks = all_stacks();
    let points: Vec<u64> = (from..to).step_by(interval as usize).collect();
    eprintln!(
        "crash_sweep: {} blocks, endurance {ENDURANCE:.0}, seed {seed}, \
         {} stacks x {} crash points (every {interval} writes in {from}..{to})",
        BLOCKS,
        stacks.len(),
        points.len(),
    );

    let jobs: Vec<PooledJob<(usize, Point)>> = stacks
        .iter()
        .enumerate()
        .flat_map(|(si, spec)| {
            let scheme = spec.name;
            let is_reviver = spec.revivable;
            points.iter().map(move |&k| {
                Box::new(move || {
                    let p = if is_reviver {
                        reviver_point(scheme, seed, k, trace_dump)
                    } else {
                        baseline_point(scheme, seed, k)
                    };
                    (si, p)
                }) as PooledJob<(usize, Point)>
            })
        })
        .collect();
    let results = run_pooled(jobs);

    let mut rows = Vec::new();
    let mut total_fired = 0u64;
    let mut total_violations = 0u64;
    for (si, spec) in stacks.iter().enumerate() {
        let name = spec.name;
        let mut fired = 0u64;
        let mut violations = 0u64;
        let mut agg = RecoveryReport::default();
        for p in results.iter().filter(|(j, _)| *j == si).map(|(_, p)| p) {
            if p.fired {
                fired += 1;
            }
            violations += p.violations;
            agg.absorb(&p.report);
        }
        total_fired += fired;
        total_violations += violations;
        rows.push(vec![
            name.to_string(),
            format!("{fired}/{}", points.len()),
            violations.to_string(),
            agg.blocks_scanned.to_string(),
            agg.links_recovered.to_string(),
            agg.torn_links_dropped.to_string(),
            agg.torn_switch_repairs.to_string(),
            agg.migration_replays.to_string(),
        ]);
    }
    print_table(
        "crash sweep",
        &[
            "stack",
            "fired",
            "violations",
            "scanned",
            "links",
            "torn",
            "switch-fix",
            "replays",
        ],
        &rows,
    );
    println!(
        "{} crash points fired across {} stacks; {} oracle violations",
        total_fired,
        stacks.len(),
        total_violations
    );
    if total_violations > 0 {
        eprintln!("FAIL: crash sweep found {total_violations} oracle violations");
        std::process::exit(1);
    }
}
