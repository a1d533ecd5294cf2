//! The paper's Theorems 1–3 as runtime-checked properties, fuzzed across
//! seeds, workloads and every revivable stack in the scheme registry.
//!
//! The `check_invariants(true)` configuration makes the framework assert,
//! after every serviced request:
//!
//! * **Theorem 1** — every software-accessible failed block is linked, and
//!   its chain resolves in one step to a healthy shadow (or the block is
//!   on a PA–DA loop and holds no data);
//! * **Theorem 2** — every unlinked reserved PA is in a retired page and
//!   not doubly used;
//! * **Theorem 3** — the scheme never copies data into a mapped block
//!   (checked at migration time).
//!
//! A run completing without panicking *is* the assertion of the theorems;
//! these tests additionally check that the runs exercised the interesting
//! machinery (links, switches, loops, suspensions).

use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::StopCondition;
use wlr_base::rng::Rng;
use wlr_tests::scenario::{checked_sim, cov_workload};

#[test]
fn theorems_hold_deep_into_failures_start_gap() {
    let mut sim = checked_sim("reviver-sg", 11).build();
    let out = sim.run(StopCondition::DeadFraction(0.20));
    assert!(out.survival <= 0.80 + 1e-9);
    assert!(
        sim.controller().device().dead_blocks() > 150,
        "the run should have accumulated many failures"
    );
}

#[test]
fn theorems_hold_deep_into_failures_security_refresh() {
    let mut sim = checked_sim("reviver-sr", 12).build();
    sim.run(StopCondition::DeadFraction(0.18));
    assert!(sim.controller().device().dead_blocks() > 150);
}

#[test]
fn machinery_is_actually_exercised() {
    // A deep run must have linked, switched, looped and suspended; a run
    // that never hits those paths wouldn't be testing the theorems.
    let mut sim = checked_sim("reviver-sg", 13).build();
    sim.run(StopCondition::DeadFraction(0.18));
    let counters = sim
        .controller()
        .as_reviver()
        .expect("scheme is the reviver")
        .counters();
    assert!(counters.links > 100, "links: {}", counters.links);
    assert!(counters.switches > 0, "switches: {}", counters.switches);
    assert!(
        counters.spare_grants > 1,
        "grants: {}",
        counters.spare_grants
    );
}

/// Deterministic fuzz over (seed, cov) cases for one stack.
fn fuzz_scheme(scheme: &str, stream: u64, cases: u64, max_cov: f64, dead: f64) {
    let mut rng = Rng::stream(0x7E03, stream);
    for _ in 0..cases {
        let seed = rng.gen_range(1_000_000);
        let cov = 0.5 + rng.gen_f64() * (max_cov - 0.5);
        let blocks = 1 << 10;
        let mut sim = checked_sim(scheme, seed)
            .workload(cov_workload(blocks, cov, seed))
            .build();
        sim.run(StopCondition::DeadFraction(dead));
        assert_eq!(
            sim.verify_all(),
            0,
            "data loss for {scheme:?} seed {seed} cov {cov}"
        );
    }
}

/// The framework is scheme-agnostic: whatever the registry calls
/// revivable — today's six stacks and any backend registered later —
/// holds the theorems and loses no data under random seeds and harsh
/// skews, every stack to the bar the paper's own two schemes were held to.
#[test]
fn fuzzed_every_revivable_stack() {
    // One thread per stack: the cases are independent, and serially this
    // one test would be most of tier-1's wall time.
    std::thread::scope(|s| {
        for (i, spec) in SchemeRegistry::global().revivable().enumerate() {
            s.spawn(move || fuzz_scheme(spec.name, i as u64, 6, 20.0, 0.04));
        }
    });
}
