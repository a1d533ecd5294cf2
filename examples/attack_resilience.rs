//! Malicious wear-out attacks vs revival.
//!
//! Start-Gap and Security Refresh were designed against adversaries that
//! hammer a fixed address set; the paper argues WL-Reviver's benefit is
//! largest exactly when writes are most biased (§IV-B names the
//! birthday-paradox attack). This example pits a repeated-address attack
//! and a birthday-paradox attack against the chip with and without
//! revival.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p wl-reviver --example attack_resilience
//! ```

use wl_reviver::sim::{Simulation, StopCondition};
use wlr_trace::{BirthdayAttack, RepeatAttack, Workload};

const BLOCKS: u64 = 1 << 12;
const ENDURANCE: f64 = 5_000.0;

fn survive(scheme: &str, attack: Box<dyn Workload>, seed: u64) -> u64 {
    let mut sim = Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(5)
        .stack(scheme)
        .seed(seed)
        .workload_boxed(attack)
        .build();
    sim.run(StopCondition::UsableBelow(0.85)).writes_issued
}

fn main() {
    println!(
        "writes to lose 15% of a {}-block chip under attack (endurance {:.0})\n",
        BLOCKS, ENDURANCE
    );
    println!(
        "{:<28} {:>14} {:>14} {:>10}",
        "attack", "ECP6-SG", "ECP6-SG-WLR", "gain"
    );

    type AttackFactory = fn(u64) -> Box<dyn Workload>;
    let attacks: Vec<(&str, AttackFactory)> = vec![
        ("repeat-attack (4 addrs)", |s| {
            Box::new(RepeatAttack::new(BLOCKS, 4, s))
        }),
        ("repeat-attack (64 addrs)", |s| {
            Box::new(RepeatAttack::new(BLOCKS, 64, s))
        }),
        ("birthday-attack (16x1000)", |s| {
            Box::new(BirthdayAttack::new(BLOCKS, 16, 1000, s))
        }),
    ];

    for (name, mk) in attacks {
        let sg = survive("sg", mk(3), 3);
        let wlr = survive("reviver-sg", mk(3), 3);
        println!(
            "{:<28} {:>14} {:>14} {:>9.2}x",
            name,
            sg,
            wlr,
            wlr as f64 / sg as f64
        );
    }
}
