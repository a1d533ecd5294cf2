//! Experiment harness for the WL-Reviver reproduction.
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 for the
//! index), plus the pass/fail harnesses (`crash_sweep`, `service`,
//! `chaos`). This library hosts what they share: the scaled experiment
//! configuration, parallel curve running, plain-text table/series
//! printing, and the registry CLI helpers. Nothing here reads a clock:
//! host time is measured in `benchmark/` only, so everything a binary of
//! this crate prints is seed-deterministic.
//!
//! # Scaling
//!
//! The paper simulates a 1 GB chip with 10⁸-write cell endurance; running
//! that write-by-write is ~10¹⁵ writes per configuration. The harness
//! scales the chip to [`EXP_BLOCKS`] blocks and the endurance to
//! [`EXP_ENDURANCE`], and scales Start-Gap's ψ with
//! [`scaled_gap_interval`] so that the *rotations-per-lifetime* ratio —
//! which governs how much leveling a block's lifetime allows — matches
//! the paper's regime. All reported quantities are normalized (percent of
//! space, writes on a shared axis), so curve shapes, orderings and
//! crossovers are comparable; absolute write counts are not (and are not
//! meant to be). See `EXPERIMENTS.md`.

#![warn(missing_docs)]

use wl_reviver::metrics::TimeSeries;
use wl_reviver::registry::{SchemeRegistry, StackSpec};
use wl_reviver::sim::{Outcome, Simulation, SimulationBuilder, StopCondition};
use wlr_base::env::{env_u64, or_exit};
use wlr_trace::Workload;

pub use wlr_base::pool::run_pooled;

/// Chip size (blocks) used by the figure experiments: 2¹⁴ blocks = 1 MB.
pub const EXP_BLOCKS: u64 = 1 << 14;

/// Mean cell endurance used by the figure experiments.
pub const EXP_ENDURANCE: f64 = 1e4;

/// Base experiment seed (override with the `WLR_SEED` env variable).
pub const EXP_SEED: u64 = 42;

/// ψ (writes per leveler migration step) preserving the paper's
/// rotations-per-lifetime ratio at the scaled geometry:
/// `ψ_scaled = endurance / (r · blocks)` with
/// `r = 10⁸ / (2²⁴ · 100) ≈ 0.0596` from the paper's configuration.
pub fn scaled_gap_interval(blocks: u64, endurance: f64) -> u64 {
    const PAPER_RATIO: f64 = 1e8 / ((1u64 << 24) as f64 * 100.0);
    ((endurance / (PAPER_RATIO * blocks as f64)).round() as u64).clamp(1, 100)
}

/// The experiment seed (env-overridable for replication studies).
pub fn exp_seed() -> u64 {
    env_u64("WLR_SEED", EXP_SEED)
}

/// Resolves a comma-separated stack filter through the scheme registry,
/// exiting with the valid names on an unknown one — env filters like
/// `WLR_CRASH_STACKS` and `WLR_FLEET_SCHEMES` must never silently no-op
/// on a typo.
pub fn resolve_stacks_or_exit(csv: &str) -> Vec<&'static StackSpec> {
    let resolved = SchemeRegistry::global().resolve_list(csv);
    or_exit(resolved.map_err(|e| e.to_string()))
}

/// Handles a `--list-stacks` argument: prints every registered stack
/// (name, title, flags, description) and exits. Call first in `main`.
pub fn handle_list_stacks() {
    if std::env::args().any(|a| a == "--list-stacks") {
        for s in SchemeRegistry::global().iter() {
            println!(
                "{:<16} {:<32} {:<9} {}",
                s.name,
                s.title,
                if s.revivable { "revivable" } else { "bare" },
                s.description
            );
        }
        std::process::exit(0);
    }
}

/// A simulation builder pre-configured with the scaled experiment
/// defaults; binaries override scheme/workload per configuration.
pub fn exp_builder() -> SimulationBuilder {
    let psi = scaled_gap_interval(EXP_BLOCKS, EXP_ENDURANCE);
    Simulation::builder()
        .num_blocks(EXP_BLOCKS)
        .endurance_mean(EXP_ENDURANCE)
        .gap_interval(psi)
        .seed(exp_seed())
}

/// A pooled unit of work producing a `T` (the harness's jobs own their
/// state, hence `'static`; the borrowing variant lives in
/// [`wlr_base::pool`]).
pub type PooledJob<T> = wlr_base::pool::PooledJob<'static, T>;

/// Result of one named curve run.
#[derive(Debug)]
pub struct Curve {
    /// Configuration label (paper legend name).
    pub label: String,
    /// Recorded time series.
    pub series: TimeSeries,
    /// Final outcome.
    pub outcome: Outcome,
}

/// Runs one configuration to `stop`, returning its curve.
pub fn run_curve(label: &str, mut sim: Simulation, stop: StopCondition) -> Curve {
    let outcome = sim.run(stop);
    Curve {
        label: label.to_string(),
        series: sim.series().clone(),
        outcome,
    }
}

/// Runs several labelled configurations through the shared worker pool
/// and returns the curves in input order.
pub fn run_parallel(configs: Vec<(String, PooledJob<Curve>)>) -> Vec<Curve> {
    let jobs = configs
        .into_iter()
        .map(|(label, job)| {
            Box::new(move || {
                eprintln!("  running {label} …");
                job()
            }) as PooledJob<Curve>
        })
        .collect();
    run_pooled(jobs)
}

/// One configuration run across several replicate seeds.
#[derive(Debug)]
pub struct ReplicatedCurve {
    /// Configuration label (without the seed suffix).
    pub label: String,
    /// One curve per seed, in seed order.
    pub replicates: Vec<Curve>,
}

impl ReplicatedCurve {
    /// `(mean, min, max)` of a per-replicate statistic.
    pub fn stats(&self, f: impl Fn(&Curve) -> f64) -> (f64, f64, f64) {
        let xs: Vec<f64> = self.replicates.iter().map(f).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (mean, min, max)
    }

    /// `(mean, min, max)` of the final write count (the lifetime metric).
    pub fn writes_stats(&self) -> (f64, f64, f64) {
        self.stats(|c| c.outcome.writes_issued as f64)
    }

    /// Population standard deviation of a per-replicate statistic.
    pub fn stddev(&self, f: impl Fn(&Curve) -> f64) -> f64 {
        let xs: Vec<f64> = self.replicates.iter().map(f).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
    }
}

/// Replicate seeds for multi-seed sweeps: `exp_seed() + r` for
/// `r in 0..WLR_REPLICATES` (default 1).
pub fn replicate_seeds() -> Vec<u64> {
    let reps = env_u64("WLR_REPLICATES", 1).max(1);
    (0..reps).map(|r| exp_seed() + r).collect()
}

/// A fork-shared replicate sweep: one configuration warmed once, then
/// one forked future per replicate seed.
///
/// Replaying the whole run per seed would repeat the long fault-free
/// warmup every replicate shares. This runs the warmup once per
/// configuration, takes a [`Simulation::snapshot`], and forks each
/// replicate from it, diverging only the workload stream.
///
/// The semantics differ from per-seed reruns: replicates share the
/// device's endurance draws and the entire pre-snapshot history, so the
/// reported spread measures sensitivity to the *post-warmup request
/// stream*, not to the device lottery (see EXPERIMENTS.md).
pub struct ForkSweep {
    /// Builds the configuration's simulation at the base seed.
    pub build: Box<dyn Fn() -> Simulation + Send>,
    /// How far the shared warmup runs before the snapshot. Must trip
    /// strictly before `stop`, or every future ends immediately.
    pub warmup: StopCondition,
    /// Stop condition for the forked futures.
    pub stop: StopCondition,
    /// Builds the divergent workload for one replicate seed.
    pub reseed: Box<dyn Fn(u64) -> Box<dyn Workload> + Send>,
}

/// The warmup point for a fork-shared sweep ending at `stop`: half the
/// write budget, half the dead fraction, or halfway down to the usable
/// floor — always strictly before the stop, so forked futures have room
/// to diverge.
pub fn fork_warmup_for(stop: StopCondition) -> StopCondition {
    match stop {
        StopCondition::Writes(n) => StopCondition::Writes(n / 2),
        StopCondition::DeadFraction(f) => StopCondition::DeadFraction(f / 2.0),
        StopCondition::UsableBelow(u) => StopCondition::UsableBelow((1.0 + u) / 2.0),
    }
}

/// Runs every configuration's shared warmup on the worker pool, then its
/// replicate futures forked from the snapshot, aggregating per
/// configuration in input order.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn run_replicated_forked(
    configs: Vec<(String, ForkSweep)>,
    seeds: &[u64],
) -> Vec<ReplicatedCurve> {
    assert!(!seeds.is_empty(), "need at least one replicate seed");
    let mut labels = Vec::with_capacity(configs.len());
    let mut jobs: Vec<PooledJob<Vec<Curve>>> = Vec::new();
    for (label, sweep) in configs {
        labels.push(label.clone());
        let seeds = seeds.to_vec();
        jobs.push(Box::new(move || {
            eprintln!(
                "  warming {label} once, forking {} replicate{} …",
                seeds.len(),
                if seeds.len() == 1 { "" } else { "s" }
            );
            let mut warm = (sweep.build)();
            warm.run(sweep.warmup);
            let snap = warm.snapshot();
            seeds
                .iter()
                .map(|&seed| {
                    let mut sim = Simulation::fork(&snap);
                    // The canonical seed continues the *captured* stream
                    // (bit-identical to the unbroken single run, keeping
                    // the recorded results/ tables byte-comparable); only
                    // extra replicates get a fresh divergent stream.
                    if seed != exp_seed() {
                        sim.replace_workload((sweep.reseed)(seed));
                    }
                    let outcome = sim.run(sweep.stop);
                    Curve {
                        label: format!("{label}/s{seed}"),
                        series: sim.series().clone(),
                        outcome,
                    }
                })
                .collect()
        }));
    }
    run_pooled(jobs)
        .into_iter()
        .zip(labels)
        .map(|(replicates, label)| ReplicatedCurve { label, replicates })
        .collect()
}

/// Prints one curve as a `(writes, metric)` column block, sampled down to
/// at most `max_rows` evenly spaced rows.
pub fn print_series(
    curve: &Curve,
    metric: impl Fn(&wl_reviver::metrics::SamplePoint) -> f64,
    max_rows: usize,
) {
    println!("## {}", curve.label);
    println!("{:>14} {:>9}", "writes", "value");
    let series = &curve.series;
    let step = (series.len() / max_rows.max(1)).max(1);
    for (i, p) in series.iter().enumerate() {
        if i % step == 0 || i == series.len() - 1 {
            println!("{:>14} {:>8.2}%", p.writes, metric(p) * 100.0);
        }
    }
    println!();
}

/// Writes an aligned table: `header` then rows of cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_psi_matches_paper_ratio() {
        // At the paper's own geometry the formula returns the paper's ψ.
        assert_eq!(scaled_gap_interval(1 << 24, 1e8), 100);
        // At the harness default it shrinks proportionally.
        let psi = scaled_gap_interval(EXP_BLOCKS, EXP_ENDURANCE);
        assert!((5..=20).contains(&psi), "scaled ψ {psi}");
    }

    #[test]
    fn exp_builder_builds() {
        let sim = exp_builder().build();
        assert_eq!(sim.geometry().num_blocks(), EXP_BLOCKS);
    }

    #[test]
    fn parallel_preserves_order() {
        let configs: Vec<(String, PooledJob<Curve>)> = (0..4)
            .map(|i| {
                let label = format!("c{i}");
                let l2 = label.clone();
                (
                    label,
                    Box::new(move || Curve {
                        label: l2,
                        series: TimeSeries::new(),
                        outcome: Outcome {
                            writes_issued: i,
                            reason: wl_reviver::sim::StopReason::HardCap,
                            survival: 1.0,
                            usable: 1.0,
                        },
                    }) as PooledJob<Curve>,
                )
            })
            .collect();
        let curves = run_parallel(configs);
        for (i, c) in curves.iter().enumerate() {
            assert_eq!(c.label, format!("c{i}"));
            assert_eq!(c.outcome.writes_issued, i as u64);
        }
    }

    #[test]
    fn pooled_handles_more_jobs_than_threads() {
        // 64 jobs on a bounded pool: all must run, in input order.
        let jobs: Vec<PooledJob<u64>> = (0..64u64)
            .map(|i| Box::new(move || i * i) as PooledJob<u64>)
            .collect();
        let out = run_pooled(jobs);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn replicate_seeds_defaults_to_one() {
        // WLR_REPLICATES unset in the test environment.
        if std::env::var("WLR_REPLICATES").is_err() {
            assert_eq!(replicate_seeds(), vec![exp_seed()]);
        }
    }
}
