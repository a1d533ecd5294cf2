//! Figure 5 — number of writes required to lose 30% of the PCM's space,
//! per benchmark, for `ECP6-SG` (wear leveling crippled by the first
//! failure) vs `ECP6-SG-WLR` (revived). The paper reports WL-Reviver
//! improvements of 36%–325%, larger for higher write CoV.
//!
//! ```text
//! cargo run --release -p wlr-bench --bin fig5
//! ```

use wl_reviver::sim::StopCondition;
use wlr_bench::{
    exp_builder, exp_seed, fork_warmup_for, print_table, replicate_seeds, run_replicated_forked,
    Curve, ForkSweep, EXP_BLOCKS,
};
use wlr_trace::Benchmark;

/// One (benchmark, scheme) configuration as a fork-shared sweep: the
/// warmup to 15% space loss runs once; each replicate seed forks from
/// the snapshot and diverges only its request stream (replicates share
/// the device's endurance draws — see EXPERIMENTS.md).
fn config(bench: Benchmark, scheme: &'static str, label: String) -> (String, ForkSweep) {
    let stop = StopCondition::UsableBelow(0.70);
    (
        label,
        ForkSweep {
            build: Box::new(move || {
                exp_builder()
                    .stack(scheme)
                    .workload(bench.build(EXP_BLOCKS, exp_seed()))
                    .build()
            }),
            warmup: fork_warmup_for(stop),
            stop,
            reseed: Box::new(move |seed| Box::new(bench.build(EXP_BLOCKS, seed))),
        },
    )
}

fn main() {
    let seeds = replicate_seeds();
    let reps = seeds.len();
    println!(
        "Figure 5 — writes to fail 30% of the PCM's blocks (lifetime; {reps} replicate{})\n",
        if reps == 1 { "" } else { "s" }
    );
    let mut configs = Vec::new();
    for bench in Benchmark::table1() {
        for (tag, scheme) in [("ECP6-SG", "sg"), ("ECP6-SG-WLR", "reviver-sg")] {
            configs.push(config(bench, scheme, format!("{bench}/{tag}")));
        }
    }
    let curves = run_replicated_forked(configs, &seeds);

    let writes = |c: &Curve| c.outcome.writes_issued as f64;
    let mut rows = Vec::new();
    for (i, bench) in Benchmark::table1().iter().enumerate() {
        let sg = &curves[2 * i];
        let wlr = &curves[2 * i + 1];
        let (sg_m, _, _) = sg.writes_stats();
        let (wlr_m, _, _) = wlr.writes_stats();
        let fmt = |rep: &wlr_bench::ReplicatedCurve| {
            let (m, _, _) = rep.writes_stats();
            if reps == 1 {
                format!("{m:.0}")
            } else {
                format!("{m:.0} ±{:.0}", rep.stddev(writes))
            }
        };
        rows.push(vec![
            bench.name().to_string(),
            format!("{:.2}", bench.write_cov()),
            fmt(sg),
            fmt(wlr),
            format!("+{:.0}%", (wlr_m / sg_m - 1.0) * 100.0),
        ]);
    }
    print_table(
        "lifetime to 30% space loss (scaled chip; see EXPERIMENTS.md)",
        &["benchmark", "CoV", "ECP6-SG", "ECP6-SG-WLR", "WLR gain"],
        &rows,
    );
    println!("Expected shape: SG lifetime falls as CoV rises; WLR lifetime is much");
    println!("larger and far less sensitive to the write distribution (paper §IV-B).");
    println!("Set WLR_REPLICATES=3 for mean ± sd across seeds.");
}
