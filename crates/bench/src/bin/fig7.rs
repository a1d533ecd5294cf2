//! Figure 7 — percentage of user-usable space vs writes: WL-Reviver
//! against FREE-p adapted with 0%, 5%, 10% and 15% pre-reserved space,
//! for `ocean` (a) and `mg` (b). ECP6 + Start-Gap everywhere.
//!
//! ```text
//! cargo run --release -p wlr-bench --bin fig7
//! ```

use wl_reviver::sim::StopCondition;
use wlr_bench::{exp_builder, exp_seed, print_series, run_curve, run_parallel, Curve};
use wlr_trace::Benchmark;

fn job(
    bench: Benchmark,
    stack: &'static str,
    reserve_frac: Option<f64>,
    label: String,
) -> Box<dyn FnOnce() -> Curve + Send> {
    Box::new(move || {
        let mut builder = exp_builder().stack(stack).sample_interval(500_000);
        if let Some(frac) = reserve_frac {
            builder = builder.freep_reserve_frac(frac);
        }
        // FREE-p reserves are carved out of the same total chip, so the
        // workload sees a smaller application space.
        let app_blocks = builder.app_blocks();
        builder = builder.workload(bench.build(app_blocks, exp_seed()));
        run_curve(&label, builder.build(), StopCondition::UsableBelow(0.60))
    })
}

fn main() {
    println!("Figure 7 — user-usable space vs writes: WL-Reviver vs FREE-p\n");
    let stacks = [
        ("WL-Reviver", "reviver-sg", None),
        ("FREE-p 0%", "freep", Some(0.0)),
        ("FREE-p 5%", "freep", Some(0.05)),
        ("FREE-p 10%", "freep", Some(0.10)),
        ("FREE-p 15%", "freep", Some(0.15)),
    ];

    for (panel, bench) in [("(a)", Benchmark::Ocean), ("(b)", Benchmark::Mg)] {
        println!("--- Figure 7{panel}: {bench} ---\n");
        let configs = stacks
            .iter()
            .map(|&(name, stack, reserve_frac)| {
                let label = format!("{bench}/{name}");
                (label.clone(), job(bench, stack, reserve_frac, label))
            })
            .collect();
        let curves = run_parallel(configs);
        for curve in &curves {
            print_series(curve, |p| p.usable, 12);
        }
        println!("writes at 80% usable:");
        for curve in &curves {
            let at = curve
                .series
                .writes_at_usable(0.80)
                .map(|w| w.to_string())
                .unwrap_or_else(|| "never reached".into());
            println!("  {:<26} {}", curve.label, at);
        }
        println!();
    }
    println!("Expected shape (paper §IV-C): each FREE-p curve starts at 100% minus");
    println!("its reserve, holds flat until the reserve is consumed, then collapses");
    println!("as Start-Gap ceases; small reserves do better for ocean, large ones");
    println!("for mg; WL-Reviver starts at 100% and degrades latest and slowest.");
}
