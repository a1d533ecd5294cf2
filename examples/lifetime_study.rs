//! Lifetime study: how write skew and revival interact.
//!
//! For a sweep of write-distribution CoVs (including the paper's eight
//! benchmark values), measures the number of writes the chip sustains
//! before losing 30% of its space under three stacks:
//!
//! * `ECP6`        — error correction only;
//! * `ECP6-SG`     — + Start-Gap, crippled by the first unhidden failure;
//! * `ECP6-SG-WLR` — + WL-Reviver (the paper's Figure 5 configuration).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p wl-reviver --example lifetime_study
//! ```

use wl_reviver::sim::{Simulation, StopCondition};
use wlr_trace::{CovTargetedWorkload, SpatialMode};

const BLOCKS: u64 = 1 << 13;
const ENDURANCE: f64 = 8_000.0;
const PSI: u64 = 10;

fn lifetime(scheme: &str, cov: f64, seed: u64) -> u64 {
    let workload =
        CovTargetedWorkload::new(BLOCKS, cov, SpatialMode::Clustered { run_blocks: 64 }, seed);
    let mut sim = Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(PSI)
        .stack(scheme)
        .workload(workload)
        .seed(seed)
        .build();
    sim.run(StopCondition::UsableBelow(0.70)).writes_issued
}

fn main() {
    println!(
        "writes to lose 30% of a {}-block chip (endurance {:.0}, ψ={PSI})\n",
        BLOCKS, ENDURANCE
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10}",
        "CoV", "ECP6", "ECP6-SG", "ECP6-SG-WLR", "WLR gain"
    );
    for cov in [0.5, 2.0, 4.15, 8.88, 13.87, 40.87] {
        let none = lifetime("ecc", cov, 7);
        let sg = lifetime("sg", cov, 7);
        let wlr = lifetime("reviver-sg", cov, 7);
        println!(
            "{:>8.2} {:>14} {:>14} {:>14} {:>9.2}x",
            cov,
            none,
            sg,
            wlr,
            wlr as f64 / sg as f64
        );
    }
    println!("\n(the WLR gain column is the paper's Figure 5 comparison)");
}
