//! Registry-completeness suite: every stack the [`SchemeRegistry`]
//! exposes must actually work end to end, so a new backend registered in
//! `crates/core/src/registry.rs` is exercised here with no further
//! wiring. Four contracts per registered stack:
//!
//! 1. **Spec hygiene** — unique names and titles, resolvable bare
//!    counterparts.
//! 2. **Deterministic build** — two fresh builds of the same spec run to
//!    the same fingerprint (the cheap precondition for the golden table
//!    in `equivalence.rs`).
//! 3. **Snapshot/fork round-trip** — a fork taken mid-life replays to
//!    the same fingerprint as the run it forked from.
//! 4. **Crash point** (revivable stacks) — a power loss mid-life
//!    recovers and finishes the run with a clean integrity oracle.

use wl_reviver::registry::{SchemeRegistry, StackSpec};
use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_pcm::FaultPlan;

const BLOCKS: u64 = 1 << 9;
const ENDURANCE: f64 = 100.0;
const PSI: u64 = 7;
const SEED: u64 = 11;
/// Deep enough that every stack is in its failure era (mean wear well
/// past endurance/2) without dragging the suite's runtime.
const STOP: u64 = 30_000;

fn sim_for(spec: &StackSpec) -> Simulation {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(PSI)
        .stack(spec.name)
        .seed(SEED)
        .verify_integrity(true)
        .build()
}

#[test]
fn names_and_titles_are_unique_and_resolvable() {
    let reg = SchemeRegistry::global();
    let mut names = std::collections::HashSet::new();
    let mut titles = std::collections::HashSet::new();
    for spec in reg.iter() {
        assert!(names.insert(spec.name), "duplicate name {}", spec.name);
        assert!(titles.insert(spec.title), "duplicate title {}", spec.title);
        assert!(
            !spec.description.is_empty(),
            "{}: no description",
            spec.name
        );
        // Both spellings resolve to the same spec.
        assert!(std::ptr::eq(reg.get(spec.name).unwrap(), spec));
        assert!(std::ptr::eq(reg.get(spec.title).unwrap(), spec));
    }
    assert!(reg.get("no-such-stack").is_none());
    let err = reg.resolve("no-such-stack").unwrap_err();
    for spec in reg.iter() {
        assert!(
            err.to_string().contains(spec.name),
            "unknown-stack error must list {}",
            spec.name
        );
    }
}

#[test]
fn bare_counterparts_are_registered_and_bare() {
    let reg = SchemeRegistry::global();
    for spec in reg.iter() {
        let Some(bare) = spec.bare else { continue };
        let bare_spec = reg
            .get(bare)
            .unwrap_or_else(|| panic!("{}: bare counterpart {bare} unregistered", spec.name));
        assert!(
            !bare_spec.revivable,
            "{}: bare counterpart {bare} is itself revived",
            spec.name
        );
    }
    assert!(
        reg.revivable().all(|s| s.bare.is_some()),
        "every revived stack names the scheme it revives"
    );
}

#[test]
fn resolve_list_splits_and_rejects() {
    let reg = SchemeRegistry::global();
    let picked = reg.resolve_list(" sg , softwear-wlr ,, ").expect("valid");
    assert_eq!(
        picked.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["sg", "softwear-wlr"]
    );
    assert!(reg.resolve_list("sg,bogus").is_err());
}

#[test]
fn every_stack_builds_and_runs_deterministically() {
    for spec in SchemeRegistry::global().iter() {
        let run = || {
            let mut s = sim_for(spec);
            s.run(StopCondition::Writes(STOP));
            assert_eq!(s.verify_all(), 0, "{}: data loss", spec.name);
            s.fingerprint()
        };
        assert_eq!(run(), run(), "{}: non-deterministic build", spec.name);
    }
}

#[test]
fn snapshot_fork_round_trips_every_stack() {
    for spec in SchemeRegistry::global().iter() {
        let mut original = sim_for(spec);
        original.run(StopCondition::Writes(STOP / 2));
        let snap = original.snapshot();

        let mut fork = Simulation::fork(&snap);
        original.run(StopCondition::Writes(STOP));
        fork.run(StopCondition::Writes(STOP));
        assert_eq!(
            fork.fingerprint(),
            original.fingerprint(),
            "{}: fork diverged from the run it forked",
            spec.name
        );
        assert_eq!(fork.verify_all(), 0, "{}: fork lost data", spec.name);
    }
}

#[test]
fn revivable_stacks_recover_through_a_crash_point() {
    for spec in SchemeRegistry::global().revivable() {
        let mut s = Simulation::builder()
            .num_blocks(BLOCKS)
            .endurance_mean(ENDURANCE)
            .gap_interval(PSI)
            .stack(spec.name)
            .seed(SEED)
            .verify_integrity(true)
            .fault_plan(FaultPlan::new().power_loss_at_write(STOP / 3))
            .build();
        let out = s.run(StopCondition::Writes(STOP));
        assert_eq!(
            out.reason,
            StopReason::PowerLoss,
            "{}: the armed crash point never fired",
            spec.name
        );
        // The crash may land before the first failure, where a scan has
        // nothing to find — the contract here is clean recovery, not cost.
        let _report = s.recover();
        assert_eq!(s.verify_all(), 0, "{}: recovery lost data", spec.name);
        s.run(StopCondition::Writes(STOP));
        assert_eq!(s.verify_all(), 0, "{}: post-crash run corrupted", spec.name);
    }
}
