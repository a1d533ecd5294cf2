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
//! Output: a JSON report (config, per-scheme lifetime CDFs p5 / p50 /
//! p95 / p99, crash survival, bare-vs-revived lifetime-retention
//! quantiles) with no host-time field, so two runs of one configuration
//! are byte-identical; the default campaign is recorded as
//! `results/fleet.json` and diffed in CI. Three futures per scheme are
//! also replayed from a fresh warmup and must reproduce their forked
//! lifetimes exactly. The run exits 1 on an empty CDF or any
//! integrity-oracle violation.
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
//!                      lifetime [0.95]
//! WLR_FLEET_PLANS      fault-plan variants cycled across futures, 1-4:
//!                      none / power loss / silent failures / both [4]
//! WLR_FLEET_SCHEMES    comma list of registry stack names
//!                      (`--list-stacks` prints them)
//!                      [sg,reviver-sg,sr,reviver-sr,softwear,
//!                      softwear-wlr,adaptive-sg,adaptive-sg-wlr]
//! WLR_FLEET_BLOCKS     chip size in blocks [1024]
//! WLR_FLEET_ENDURANCE  mean cell endurance [1000]
//! WLR_FLEET_OUT        report path [results/fleet.json]
//! ```

use wl_reviver::registry::StackSpec;
use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_base::env::{env_f64, env_str, env_u64, or_exit};
use wlr_base::pool::{run_pooled, PooledJob};
use wlr_base::stats::QuantileSet;
use wlr_bench::{exp_seed, print_table, resolve_stacks_or_exit, scaled_gap_interval};
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

/// Futures per scheme replayed from a fresh warmup — the control that
/// asserts fork ≡ replay.
const REPLAYS: u64 = 3;

/// Campaign-wide knobs, all env-overridable.
struct Knobs {
    blocks: u64,
    endurance: f64,
    seeds: u64,
    warmup: f64,
    plans: u64,
}

impl Knobs {
    fn from_env() -> Knobs {
        let k = Knobs {
            blocks: env_u64("WLR_FLEET_BLOCKS", 1 << 10),
            endurance: env_f64("WLR_FLEET_ENDURANCE", 1_000.0),
            seeds: env_u64("WLR_FLEET_SEEDS", 1_000).max(1),
            warmup: env_f64("WLR_FLEET_WARMUP", 0.95),
            plans: env_u64("WLR_FLEET_PLANS", 4).clamp(1, 4),
        };
        if !(0.0..1.0).contains(&k.warmup) {
            or_exit(Err(format!(
                "WLR_FLEET_WARMUP={} must be in [0, 1)",
                k.warmup
            )))
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
/// PR-8 chaos grammar.
fn plan_for(i: u64, variants: u64) -> FaultPlan {
    let seed = exp_seed() ^ (0xF1EE7 + i);
    // Power-loss indices count *device* writes after arming. Late in a
    // bare scheme's life most app writes land on retired (unmapped)
    // pages and never reach the device, so indices much beyond ~10k can
    // fail to fire before exhaustion; 500..8_500 fires reliably across
    // all schemes while still spreading crashes over the future.
    let power_at = 500 + (i * 997) % 8_000;
    match i % variants {
        1 => FaultPlan::new().power_loss_at_write(power_at),
        2 => FaultPlan::new().seeded_silent_failures(seed, 3, 1_000, 50_000),
        3 => FaultPlan::new()
            .seeded_silent_failures(seed, 2, 1_000, 50_000)
            .power_loss_at_write(power_at),
        _ => FaultPlan::new(),
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
    name: &'static str,
    bare: Option<&'static str>,
    lifetimes: QuantileSet,
    crash_futures: u64,
    crash_survived: u64,
    violations: u64,
}

/// Runs one scheme's full campaign: calibrate, warm once, fan out
/// `seeds` forked futures, then replay a sampled warmup as the control.
fn campaign(spec: &'static StackSpec, k: &Knobs) -> SchemeRow {
    let name = spec.name;
    // Calibrate: one run to the lifetime point fixes the warmup target.
    let mut cal = sim_for(name, k);
    cal.run(STOP);
    let lifetime = cal.writes_issued();
    drop(cal);
    let warm_writes = (lifetime as f64 * k.warmup) as u64;

    // Warm once and snapshot.
    let mut warm = sim_for(name, k);
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
                let plan = plan_for(i, k.plans);
                let seed = exp_seed() + 1 + i;
                Box::new(move || run_future(sim, seed, plan)) as PooledJob<'static, FutureResult>
            })
            .collect();
        for r in run_pooled(jobs) {
            if (head.len() as u64) < REPLAYS {
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
    // Control: replay the warmup per seed for a small sample — the cost
    // the fork API removes — and assert the replay reproduces the forked
    // future bit-for-bit (same lifetime).
    for (i, &forked) in (0u64..).zip(&head) {
        let mut sim = sim_for(name, k);
        sim.run(StopCondition::Writes(warm_writes));
        let r = run_future(sim, exp_seed() + 1 + i, plan_for(i, k.plans));
        assert_eq!(
            r.lifetime, forked,
            "{name}: warmup replay diverged from the forked future (seed {i})"
        );
    }

    SchemeRow {
        name,
        // The bare counterpart feeds the lifetime-retention block when
        // both ran in the campaign.
        bare: spec.bare,
        lifetimes,
        crash_futures,
        crash_survived,
        violations,
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
         \"oracle_violations\": {}}}",
        row.lifetimes.mean(),
        row.lifetimes.min(),
        row.lifetimes.max(),
        row.crash_futures,
        row.crash_survived,
        row.violations,
    ));
    s
}

/// Bare-vs-revived retention: a revived scheme's lifetime quantiles over
/// its bare counterpart's (> 1 means revival extended life), when both
/// ran in the campaign.
fn retention_json(row: &SchemeRow, rows: &[SchemeRow]) -> Option<String> {
    let bare = row.bare?;
    let bare_row = rows.iter().find(|r| r.name == bare)?;
    let mut s = format!("{{\"bare\": \"{bare}\"");
    for (q, field) in CDF_QS {
        s.push_str(&format!(
            ", \"{field}\": {:.3}",
            row.lifetimes.quantile(q) / bare_row.lifetimes.quantile(q)
        ));
    }
    s.push('}');
    Some(s)
}

/// A JSON object of named members, one per line (the report is diffed).
fn block_json(members: &[(&str, String)]) -> String {
    let lines: Vec<String> = members
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n  }}", lines.join(",\n"))
}

fn main() {
    wlr_bench::handle_list_stacks();
    let k = Knobs::from_env();
    let scheme_list = env_str("WLR_FLEET_SCHEMES").unwrap_or_else(|| {
        "sg,reviver-sg,sr,reviver-sr,softwear,softwear-wlr,adaptive-sg,adaptive-sg-wlr".to_string()
    });
    let schemes = resolve_stacks_or_exit(&scheme_list);
    if schemes.is_empty() {
        or_exit(Err(format!(
            "WLR_FLEET_SCHEMES={scheme_list:?} names no schemes"
        )))
    }
    println!(
        "Monte Carlo lifetime fleet — {} scheme(s) × {} futures ({} fault-plan variant(s))\n",
        schemes.len(),
        k.seeds,
        k.plans
    );

    let rows: Vec<SchemeRow> = schemes.iter().map(|&spec| campaign(spec, &k)).collect();

    // ---- report ---------------------------------------------------------
    let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    let config = format!(
        "{{\"blocks\": {}, \"endurance_mean\": {:.0}, \"warmup_frac\": {}, \"seeds\": {}, \
         \"plans\": {}, \"stop_dead_fraction\": 0.3, \"workload\": \"uniform\", \
         \"schemes\": \"{}\", \"seed\": {}}}",
        k.blocks,
        k.endurance,
        k.warmup,
        k.seeds,
        k.plans,
        names.join(","),
        exp_seed(),
    );
    let scheme_rows: Vec<(&str, String)> = rows
        .iter()
        .map(|row| (row.name, row_json(row, k.seeds)))
        .collect();
    let retention: Vec<(&str, String)> = rows
        .iter()
        .filter_map(|row| Some((row.name, retention_json(row, &rows)?)))
        .collect();
    let report = format!(
        "{{\n  \"config\": {config},\n  \"rows\": {},\n  \"retention\": {}\n}}\n",
        block_json(&scheme_rows),
        block_json(&retention),
    );
    let out = env_str("WLR_FLEET_OUT").unwrap_or_else(|| "results/fleet.json".to_string());
    or_exit(
        std::fs::write(&out, report)
            .map_err(|e| format!("cannot write the report to {out} (WLR_FLEET_OUT): {e}")),
    );
    eprintln!("wrote {out}");

    // ---- console summary ------------------------------------------------
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.name.to_string(), row.lifetimes.len().to_string()];
            cells.extend(CDF_QS.map(|(q, _)| format!("{:.0}", row.lifetimes.quantile(q))));
            cells.push(format!("{}/{}", row.crash_survived, row.crash_futures));
            cells.push(row.violations.to_string());
            cells
        })
        .collect();
    let header: Vec<&str> = ["scheme", "futures"]
        .into_iter()
        .chain(CDF_QS.map(|(_, field)| field))
        .chain(["crash-surv", "oracle"])
        .collect();
    print_table(
        "per-scheme lifetime CDFs (writes to 30% dead)",
        &header,
        &table,
    );

    // ---- the contract ---------------------------------------------------
    let mut failed = false;
    for row in &rows {
        if row.lifetimes.is_empty() {
            eprintln!("FAIL: {} produced an empty lifetime CDF", row.name);
            failed = true;
        }
        if row.violations > 0 {
            eprintln!(
                "FAIL: {} saw {} integrity-oracle violations",
                row.name, row.violations
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("non-empty CDFs, zero oracle violations, fork ≡ replay on every scheme");
}
