//! `fleet` — Monte Carlo lifetime campaigns over forked futures.
//!
//! Every lifetime number the figure binaries report is a point estimate:
//! one seed, or a handful via `WLR_REPLICATES`. The paper's claim —
//! revive *any* wear-leveling scheme near its fault-free lifetime — is a
//! distributional claim, and this binary measures the distribution: per
//! scheme it warms **one** simulation deep into its wear life, takes a
//! [`Simulation::snapshot`], and forks thousands of divergent futures
//! (workload seeds × fault plans) without ever replaying the warmup.
//! Each future runs to the Figure 5 lifetime point (30% of visible
//! blocks dead) with the integrity oracle on, through any injected power
//! losses (crash → recover → continue).
//!
//! Output: `BENCH_fleet.json` with per-scheme lifetime CDFs (p5 / p50 /
//! p95 / p99), bare-vs-revived lifetime-retention quantiles, crash
//! survival rates, and the measured fan-out speedup versus replaying the
//! warmup per seed (a sampled control; the fork/replay agreement is also
//! asserted). The report follows the shared `wlr_bench::report` baseline
//! discipline: the first run records the baseline, later runs preserve
//! it, and a config change re-baselines.
//!
//! ```text
//! cargo run --release -p wlr-fleet
//! ```
//!
//! Knobs (see EXPERIMENTS.md):
//!
//! ```text
//! WLR_FLEET_SEEDS      futures per scheme [1000]
//! WLR_FLEET_WARMUP     warmup point as a fraction of the calibrated
//!                      lifetime [0.92]
//! WLR_FLEET_PLANS      fault-plan variants cycled across futures, 1-4:
//!                      none / power loss / silent failures / both [4]
//! WLR_FLEET_SCHEMES    comma list of registry stack names
//!                      (`--list-stacks` prints them)
//!                      [sg,reviver-sg,sr,reviver-sr,softwear,
//!                      softwear-wlr,adaptive-sg,adaptive-sg-wlr]
//! WLR_FLEET_BLOCKS     chip size in blocks [1024]
//! WLR_FLEET_ENDURANCE  mean cell endurance [1000]
//! WLR_FLEET_REPLAYS    warmup-replay control runs per scheme [3]
//! WLR_FLEET_ASSERT     1 = exit non-zero on empty CDFs or any oracle
//!                      violation (the CI smoke contract)
//! WLR_BENCH_OUT        report path [BENCH_fleet.json]
//! ```

use std::time::Instant;

use wl_reviver::registry::{SchemeRegistry, StackSpec};
use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_base::pool::{run_pooled, PooledJob};
use wlr_base::stats::QuantileSet;
use wlr_bench::report::{
    baseline_field, bench_out_path, env_f64, env_u64, load_baseline_with_config, write_report,
};
use wlr_bench::{exp_seed, print_table, scaled_gap_interval};
use wlr_pcm::FaultPlan;
use wlr_trace::UniformWorkload;

/// Futures run to the Figure 5 lifetime point: 30% of the visible blocks
/// dead (or memory exhaustion, whichever comes first).
const STOP: StopCondition = StopCondition::DeadFraction(0.30);

/// Reported CDF probabilities and their JSON field names.
const CDF_QS: [(f64, &str); 4] = [(0.05, "p5"), (0.50, "p50"), (0.95, "p95"), (0.99, "p99")];

/// Forks shipped to the worker pool per batch: snapshots fork on the
/// coordinating thread (the snapshot is not `Sync`), so batching bounds
/// the number of in-flight simulation images.
const BATCH: u64 = 64;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nsee the doc comment at the top of crates/fleet/src/main.rs");
    std::process::exit(2)
}

/// The registry spec for a `WLR_FLEET_SCHEMES` entry.
fn parse_scheme(name: &str) -> &'static StackSpec {
    SchemeRegistry::global()
        .resolve(name)
        .unwrap_or_else(|e| usage(&format!("WLR_FLEET_SCHEMES: {e}")))
}

/// Campaign-wide knobs, all env-overridable.
struct Knobs {
    blocks: u64,
    endurance: f64,
    seeds: u64,
    warmup: f64,
    plans: u64,
    replays: u64,
}

impl Knobs {
    fn from_env() -> Knobs {
        let k = Knobs {
            blocks: env_u64("WLR_FLEET_BLOCKS", 1 << 10),
            endurance: env_f64("WLR_FLEET_ENDURANCE", 1_000.0),
            seeds: env_u64("WLR_FLEET_SEEDS", 1_000).max(1),
            warmup: env_f64("WLR_FLEET_WARMUP", 0.95),
            plans: env_u64("WLR_FLEET_PLANS", 4).clamp(1, 4),
            replays: env_u64("WLR_FLEET_REPLAYS", 3),
        };
        if !(0.0..1.0).contains(&k.warmup) {
            usage("WLR_FLEET_WARMUP must be in [0, 1)");
        }
        k
    }
}

fn sim_for(stack: &str, k: &Knobs) -> Simulation {
    let psi = scaled_gap_interval(k.blocks, k.endurance);
    Simulation::builder()
        .num_blocks(k.blocks)
        .endurance_mean(k.endurance)
        .gap_interval(psi)
        .stack(stack)
        .seed(exp_seed())
        .verify_integrity(true)
        .build()
}

/// The fault plan for future `i`, cycling `variants` shapes from the
/// PR-8 chaos grammar; the bool marks plans that schedule a power loss.
fn plan_for(i: u64, variants: u64) -> (FaultPlan, bool) {
    let seed = exp_seed() ^ (0xF1EE7 + i);
    // Power-loss indices count *device* writes after arming. Late in a
    // bare scheme's life most app writes land on retired (unmapped)
    // pages and never reach the device, so indices much beyond ~10k can
    // fail to fire before exhaustion; 500..8_500 fires reliably across
    // all schemes while still spreading crashes over the future.
    let power_at = 500 + (i * 997) % 8_000;
    match i % variants {
        1 => (FaultPlan::new().power_loss_at_write(power_at), true),
        2 => (
            FaultPlan::new().seeded_silent_failures(seed, 3, 1_000, 50_000),
            false,
        ),
        3 => (
            FaultPlan::new()
                .seeded_silent_failures(seed, 2, 1_000, 50_000)
                .power_loss_at_write(power_at),
            true,
        ),
        _ => (FaultPlan::new(), false),
    }
}

/// One future's terminal facts.
struct FutureResult {
    lifetime: u64,
    violations: u64,
    crashed: bool,
}

/// Diverges a forked (or warmup-replayed) simulation with its own
/// workload stream and fault plan, and runs it to the lifetime point,
/// recovering through any injected power losses.
fn run_future(mut sim: Simulation, seed: u64, plan: FaultPlan) -> FutureResult {
    let len = sim.workload_len();
    sim.replace_workload(Box::new(UniformWorkload::new(len, seed)));
    sim.arm_faults(plan);
    let mut crashed = false;
    while sim.run(STOP).reason == StopReason::PowerLoss {
        crashed = true;
        sim.recover();
    }
    FutureResult {
        lifetime: sim.writes_issued(),
        violations: sim.integrity_errors(),
        crashed,
    }
}

/// One scheme's campaign results.
struct SchemeRow {
    name: String,
    bare: Option<&'static str>,
    lifetimes: QuantileSet,
    crash_futures: u64,
    crash_survived: u64,
    violations: u64,
    fork_secs: f64,
    replay_secs_each: f64,
    speedup: f64,
}

/// Runs one scheme's full campaign: calibrate, warm once, fan out
/// `seeds` forked futures, then time a sampled warmup-replay control.
fn campaign(name: &str, spec: &StackSpec, k: &Knobs) -> SchemeRow {
    let t0 = Instant::now();
    // Calibrate: one run to the lifetime point fixes the warmup target.
    let mut cal = sim_for(spec.name, k);
    cal.run(STOP);
    let lifetime = cal.writes_issued();
    drop(cal);
    let warm_writes = (lifetime as f64 * k.warmup) as u64;

    // Warm once and snapshot.
    let mut warm = sim_for(spec.name, k);
    warm.run(StopCondition::Writes(warm_writes));
    let snap = warm.snapshot();
    eprintln!(
        "{name}: calibrated lifetime {lifetime}, warmed to {warm_writes} \
         ({:.0}%), fanning out {} futures …",
        k.warmup * 100.0,
        k.seeds
    );

    // Fan out: fork on this thread, run the batch on the pool.
    let mut lifetimes = QuantileSet::new();
    let mut head = Vec::new(); // per-index lifetimes for the replay check
    let mut crash_futures = 0u64;
    let mut crash_survived = 0u64;
    let mut violations = 0u64;
    let mut done = 0u64;
    while done < k.seeds {
        let n = BATCH.min(k.seeds - done);
        let jobs: Vec<PooledJob<'static, FutureResult>> = (done..done + n)
            .map(|i| {
                let sim = Simulation::fork(&snap);
                let (plan, _) = plan_for(i, k.plans);
                let seed = exp_seed() + 1 + i;
                Box::new(move || run_future(sim, seed, plan)) as PooledJob<'static, FutureResult>
            })
            .collect();
        for r in run_pooled(jobs) {
            if (head.len() as u64) < k.replays {
                head.push(r.lifetime);
            }
            lifetimes.push(r.lifetime as f64);
            violations += r.violations;
            if r.crashed {
                crash_futures += 1;
                if r.violations == 0 {
                    crash_survived += 1;
                }
            }
        }
        done += n;
        eprintln!(
            "  {name}: {done}/{} futures, p50 so far {:.0}",
            k.seeds,
            lifetimes.quantile(0.5)
        );
    }
    let fork_secs = t0.elapsed().as_secs_f64();

    // Control: replay the warmup per seed for a small sample — the cost
    // the fork API removes — and assert the replay reproduces the forked
    // future bit-for-bit (same lifetime).
    let t1 = Instant::now();
    let replays = k.replays.min(k.seeds);
    for i in 0..replays {
        let mut sim = sim_for(spec.name, k);
        sim.run(StopCondition::Writes(warm_writes));
        let (plan, _) = plan_for(i, k.plans);
        let r = run_future(sim, exp_seed() + 1 + i, plan);
        assert_eq!(
            r.lifetime, head[i as usize],
            "{name}: warmup replay diverged from the forked future (seed {i})"
        );
    }
    let replay_secs_each = if replays > 0 {
        t1.elapsed().as_secs_f64() / replays as f64
    } else {
        0.0
    };
    let speedup = if fork_secs > 0.0 && replays > 0 {
        replay_secs_each * k.seeds as f64 / fork_secs
    } else {
        0.0
    };
    eprintln!(
        "{name}: fork campaign {fork_secs:.2} s, replay control {replay_secs_each:.2} s/future \
         → {speedup:.1}× speedup"
    );

    SchemeRow {
        name: name.to_string(),
        // The bare counterpart feeds the lifetime-retention block when
        // both ran in the campaign.
        bare: spec.bare,
        lifetimes,
        crash_futures,
        crash_survived,
        violations,
        fork_secs,
        replay_secs_each,
        speedup,
    }
}

fn row_json(row: &SchemeRow, seeds: u64) -> String {
    let mut s = format!("{{\"futures\": {seeds}");
    for (q, field) in CDF_QS {
        s.push_str(&format!(", \"{field}\": {:.0}", row.lifetimes.quantile(q)));
    }
    let survival = if row.crash_futures > 0 {
        row.crash_survived as f64 / row.crash_futures as f64
    } else {
        1.0
    };
    s.push_str(&format!(
        ", \"mean\": {:.0}, \"min\": {:.0}, \"max\": {:.0}, \"crash_futures\": {}, \
         \"crash_survived\": {}, \"crash_survival\": {survival:.4}, \
         \"oracle_violations\": {}, \"speedup\": {:.2}}}",
        row.lifetimes.mean(),
        row.lifetimes.min(),
        row.lifetimes.max(),
        row.crash_futures,
        row.crash_survived,
        row.violations,
        row.speedup,
    ));
    s
}

fn main() {
    wlr_bench::report::handle_list_stacks();
    let k = Knobs::from_env();
    let scheme_list = std::env::var("WLR_FLEET_SCHEMES").unwrap_or_else(|_| {
        "sg,reviver-sg,sr,reviver-sr,softwear,softwear-wlr,adaptive-sg,adaptive-sg-wlr".to_string()
    });
    let schemes: Vec<(&str, &StackSpec)> = scheme_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| (name, parse_scheme(name)))
        .collect();
    if schemes.is_empty() {
        usage("WLR_FLEET_SCHEMES names no schemes");
    }
    println!(
        "Monte Carlo lifetime fleet — {} scheme(s) × {} futures ({} fault-plan variant(s))\n",
        schemes.len(),
        k.seeds,
        k.plans
    );

    let rows: Vec<SchemeRow> = schemes
        .iter()
        .map(|&(name, spec)| campaign(name, spec, &k))
        .collect();

    // ---- report ---------------------------------------------------------
    let config = format!(
        "{{\"blocks\": {}, \"endurance_mean\": {:.0}, \"warmup_frac\": {}, \"seeds\": {}, \
         \"plans\": {}, \"stop_dead_fraction\": 0.3, \"workload\": \"uniform\", \
         \"schemes\": \"{scheme_list}\", \"seed\": {}}}",
        k.blocks,
        k.endurance,
        k.warmup,
        k.seeds,
        k.plans,
        exp_seed(),
    );
    let current = {
        let mut s = String::from("{");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", row.name, row_json(row, k.seeds)));
        }
        s.push('}');
        s
    };
    // Bare-vs-revived retention: each revived scheme's lifetime quantiles
    // over its bare counterpart's (> 1 means revival extended life).
    let retention = {
        let mut s = String::from("{");
        let mut first = true;
        for row in &rows {
            let Some(bare) = row.bare else { continue };
            let Some(bare_row) = rows.iter().find(|r| r.name == bare) else {
                continue;
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {{\"bare\": \"{bare}\"", row.name));
            for (q, field) in CDF_QS {
                s.push_str(&format!(
                    ", \"{field}\": {:.3}",
                    row.lifetimes.quantile(q) / bare_row.lifetimes.quantile(q)
                ));
            }
            s.push('}');
        }
        s.push('}');
        s
    };
    let total_fork: f64 = rows.iter().map(|r| r.fork_secs).sum();
    let total_replay_est: f64 = rows
        .iter()
        .map(|r| r.replay_secs_each * k.seeds as f64)
        .sum();
    let overall_speedup = if total_fork > 0.0 {
        total_replay_est / total_fork
    } else {
        0.0
    };
    let speedup_block = format!(
        "{{\"replay_sample_per_scheme\": {}, \"fork_total_secs\": {total_fork:.2}, \
         \"replay_est_total_secs\": {total_replay_est:.2}, \"speedup\": {overall_speedup:.2}}}",
        k.replays.min(k.seeds)
    );

    let out = bench_out_path("BENCH_fleet.json");
    let baseline = load_baseline_with_config(&out, &current, &config);
    let report = format!(
        "{{\n  \"config\": {config},\n  \"baseline\": {},\n  \"current\": {current},\n  \
         \"retention\": {retention},\n  \"speedup\": {speedup_block}\n}}\n",
        baseline.block
    );
    write_report(&out, &report, baseline.is_first);

    // ---- console summary ------------------------------------------------
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let p50 = row.lifetimes.quantile(0.5);
            let vs = baseline_field(&baseline.block, &row.name, "p50")
                .map(|b| format!("{:+.1}%", (p50 / b - 1.0) * 100.0))
                .unwrap_or_else(|| "-".into());
            vec![
                row.name.clone(),
                format!("{}", row.lifetimes.len()),
                format!("{:.0}", row.lifetimes.quantile(0.05)),
                format!("{p50:.0}"),
                format!("{:.0}", row.lifetimes.quantile(0.95)),
                format!("{:.0}", row.lifetimes.quantile(0.99)),
                format!(
                    "{}/{}",
                    row.crash_survived,
                    row.crash_futures.max(row.crash_survived)
                ),
                format!("{}", row.violations),
                format!("{:.1}×", row.speedup),
                vs,
            ]
        })
        .collect();
    print_table(
        "per-scheme lifetime CDFs (writes to 30% dead)",
        &[
            "scheme",
            "futures",
            "p5",
            "p50",
            "p95",
            "p99",
            "crash-surv",
            "oracle",
            "speedup",
            "vs base p50",
        ],
        &table,
    );
    println!("overall fan-out speedup vs replaying warmup per seed: {overall_speedup:.1}×");

    // ---- smoke contract -------------------------------------------------
    if env_u64("WLR_FLEET_ASSERT", 0) == 1 {
        let mut failed = false;
        for row in &rows {
            if row.lifetimes.is_empty() {
                eprintln!("ASSERT: {} produced an empty lifetime CDF", row.name);
                failed = true;
            }
            if row.violations > 0 {
                eprintln!(
                    "ASSERT: {} saw {} integrity-oracle violations",
                    row.name, row.violations
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("fleet-smoke assertions passed: non-empty CDFs, zero oracle violations");
    }
}
