//! Figure 6 — percentage of surviving (usable) memory blocks as writes
//! accumulate, for `ocean` (a) and `mg` (b), under six life-extension
//! stacks: ECP6, PAYG, ECP6-SG, PAYG-SG, ECP6-SG-WLR, PAYG-SG-WLR.
//! Curves are shown down to 70% survival, as in the paper.
//!
//! ```text
//! cargo run --release -p wlr-bench --bin fig6
//! ```

use wl_reviver::sim::{EccKind, StopCondition};
use wlr_bench::{exp_builder, exp_seed, print_series, run_curve, run_parallel, Curve, EXP_BLOCKS};
use wlr_trace::Benchmark;

fn job(
    bench: Benchmark,
    ecc: EccKind,
    scheme: &'static str,
    label: String,
) -> Box<dyn FnOnce() -> Curve + Send> {
    Box::new(move || {
        let sim = exp_builder()
            .ecc(ecc)
            .stack(scheme)
            .workload(bench.build(EXP_BLOCKS, exp_seed()))
            .sample_interval(500_000)
            .build();
        run_curve(&label, sim, StopCondition::UsableBelow(0.70))
    })
}

fn main() {
    println!("Figure 6 — block survival vs writes (shown to 70%)\n");
    let ecp6 = EccKind::Ecp(6);
    let payg = EccKind::Payg { ratio: 0.77 };
    let stacks = [
        ("ECP6", ecp6, "ecc"),
        ("PAYG", payg, "ecc"),
        ("ECP6-SG", ecp6, "sg"),
        ("PAYG-SG", payg, "sg"),
        ("ECP6-SG-WLR", ecp6, "reviver-sg"),
        ("PAYG-SG-WLR", payg, "reviver-sg"),
    ];

    for (panel, bench) in [("(a)", Benchmark::Ocean), ("(b)", Benchmark::Mg)] {
        println!(
            "--- Figure 6{panel}: {bench} (CoV {:.2}) ---\n",
            bench.write_cov()
        );
        let configs = stacks
            .iter()
            .map(|(name, ecc, scheme)| {
                let label = format!("{bench}/{name}");
                (label.clone(), job(bench, *ecc, scheme, label))
            })
            .collect();
        let curves = run_parallel(configs);
        for curve in &curves {
            print_series(curve, |p| p.usable, 12);
        }
        // Summary line: writes at which each stack crossed 90% survival.
        println!("writes at 90% survival:");
        for curve in &curves {
            let at = curve
                .series
                .writes_at_usable(0.90)
                .map(|w| w.to_string())
                .unwrap_or_else(|| "never (run ended above 90%)".into());
            println!("  {:<22} {}", curve.label, at);
        }
        println!();
    }
    println!("Expected shape (paper §IV-B): without WL the curves drop almost");
    println!("immediately; SG helps ocean far more than mg; WLR keeps both near");
    println!("100% longest and degrades gracefully; PAYG postpones the first");
    println!("failure but gains less from revival than ECP6 does.");
}
