//! Leveling-quality audit — evidence for the paper's methodology claim
//! (§IV): *"WL-Reviver neither compromises nor improves a scheme's
//! wear-leveling efficacy. Instead, it only restores an existent scheme's
//! function."*
//!
//! Two checks:
//!
//! 1. on a healthy chip (no failures possible), wear statistics with and
//!    without the framework are identical per scheme;
//! 2. deep into wear-out, the revived scheme's wear stays close to flat
//!    while the frozen baseline's diverges.
//!
//! ```text
//! cargo run --release -p wlr-bench --bin leveling
//! ```

use wl_reviver::metrics::WearReport;
use wl_reviver::sim::{SimulationBuilder, StopCondition};
use wlr_bench::{exp_builder, exp_seed, print_table, EXP_BLOCKS};
use wlr_trace::Benchmark;

fn wear(builder: SimulationBuilder, stop: StopCondition) -> (WearReport, u64) {
    let mut sim = builder.build();
    sim.run(stop);
    (sim.wear_report(), sim.writes_issued())
}

fn main() {
    println!("Leveling-quality audit (mg workload, CoV 40.87)\n");

    // --- healthy chip: the framework must be invisible ---
    let healthy = |scheme| {
        exp_builder()
            .endurance_mean(1e12)
            .stack(scheme)
            .workload(Benchmark::Mg.build(EXP_BLOCKS, exp_seed()))
    };
    let budget = StopCondition::Writes(20_000_000);
    let mut rows = Vec::new();
    for (name, scheme) in [
        ("ECP6-SG", "sg"),
        ("ECP6-SG-WLR", "reviver-sg"),
        ("ECP6-SR", "sr"),
        ("ECP6-SR-WLR", "reviver-sr"),
        ("ECP6-SW", "softwear"),
        ("ECP6-SW-WLR", "softwear-wlr"),
        ("ECP6-ASG", "adaptive-sg"),
        ("ECP6-ASG-WLR", "adaptive-sg-wlr"),
    ] {
        let (r, _) = wear(healthy(scheme), budget);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", r.mean),
            format!("{:.4}", r.cov),
            format!("{:.4}", r.gini),
            format!("{:.2}", r.max_over_mean),
        ]);
    }
    print_table(
        "healthy chip, 20M writes: framework must not change leveling",
        &["stack", "mean wear", "wear CoV", "gini", "max/mean"],
        &rows,
    );

    // --- worn chip: revival preserves flatness, freezing destroys it ---
    let worn = |scheme| {
        exp_builder()
            .stack(scheme)
            .workload(Benchmark::Mg.build(EXP_BLOCKS, exp_seed()))
    };
    let mut rows = Vec::new();
    for (name, scheme) in [("ECP6-SG (freezes)", "sg"), ("ECP6-SG-WLR", "reviver-sg")] {
        let (r, writes) = wear(worn(scheme), StopCondition::UsableBelow(0.85));
        rows.push(vec![
            name.to_string(),
            writes.to_string(),
            format!("{:.4}", r.cov),
            format!("{:.4}", r.gini),
            format!("{:.2}", r.max_over_mean),
        ]);
    }
    print_table(
        "run to 15% space loss: wear flatness under failures",
        &["stack", "writes", "wear CoV", "gini", "max/mean"],
        &rows,
    );
    println!("Expected: the two healthy rows per scheme are near-identical (the");
    println!("framework is pass-through without failures); under failures the");
    println!("revived stack sustains far more writes at comparable flatness.");
}
