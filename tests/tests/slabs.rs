//! The engine hands a controller its writes a slab at a time, and the
//! slab boundaries must not show:
//!
//! * for every registered stack, `run(Writes(n))` leaves exactly the state
//!   `run_batch` leaves over the same addresses, whatever the batch size —
//!   plain, with the integrity oracle on, and under an armed fault plan
//!   that cuts the power (at a device write and at a crash point), fails
//!   writes silently and bursts transient read errors;
//! * a `DeadFraction` run stops on the very write whose death met the
//!   condition, also when that write falls inside a slab (a death the
//!   reviver hides returns `Ok`, so only a per-write check sees it);
//! * a fault that fires on a migration's device write — a silent failure,
//!   or a power cut the journal absorbs, so the software write is still
//!   serviced — ends its slab on that write: the run stops there, the
//!   oracle has let go of the lost line there, and `run` equals
//!   `run_batch`;
//! * an oracle-on, armed run ends in the state the per-write engine left;
//! * `Controller::write_run` on a revived stack equals the one-write loop
//!   it replaces, across a page retirement, and so does
//!   `write_run_armed` under a plan that never fires.

use wl_reviver::controller::{Controller, WriteResult};
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{BatchStatus, Simulation, SimulationBuilder, StopCondition, StopReason};
use wlr_base::{AppAddr, Pa};
use wlr_pcm::{AccessStats, CrashPoint, FaultCounters, FaultPlan};
use wlr_trace::{HotRegionWorkload, UniformWorkload, Workload};

const BLOCKS: u64 = 1 << 10;
/// Low enough that blocks die, links form and pages retire within
/// [`WRITES`], so the failure era's slabs are covered too.
const ENDURANCE: f64 = 60.0;
const WRITES: u64 = 40_000;

fn builder(stack: &str) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(7)
        .stack(stack)
        .seed(11)
}

fn stream(stack: &str) -> UniformWorkload {
    UniformWorkload::new(builder(stack).app_blocks(), 3)
}

/// The address stream of `setting`. The armed one is hot (90 % of the
/// writes on 1 % of the lines), so a line that failed silently is soon
/// written again, within its slab too.
fn stream_of(stack: &str, setting: Setting) -> Box<dyn Workload> {
    match setting {
        Setting::Armed => Box::new(HotRegionWorkload::new(
            builder(stack).app_blocks(),
            0.9,
            0.01,
            3,
        )),
        _ => Box::new(stream(stack)),
    }
}

/// The armed setting's plan. The crash point fires first (a migration
/// reports one on every stack that has them), the power loss next; then
/// only the two silent failures are left, with slabs of many writes
/// between them once the plan is spent.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .power_loss_at_point(CrashPoint::MidMigration, 20)
        .power_loss_at_write(600)
        .transient_read_burst(100, 40)
        .silent_failure_at_write(1_500)
        .silent_failure_at_write(2_500)
}

/// How a run is set up beyond its stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setting {
    Plain,
    Oracle,
    /// Oracle on and [`plan`] armed, recovering on every power loss.
    Armed,
}

fn configured(stack: &str, setting: Setting) -> SimulationBuilder {
    let b = builder(stack).verify_integrity(setting != Setting::Plain);
    match setting {
        Setting::Armed => b.fault_plan(plan()),
        _ => b,
    }
}

/// What a run leaves that a slab boundary could disturb.
type Observed = (
    (u64, u64, u64, u64),
    AccessStats,
    u64,
    Option<FaultCounters>,
    Vec<(u64, u64)>,
    Vec<(u64, u64, u64)>,
);

/// Reads the state out, the oracle's full read-back last (it reads the
/// device).
fn observed(sim: &mut Simulation) -> Observed {
    let counts = (
        sim.fingerprint(),
        sim.writes_issued(),
        sim.retirements(),
        sim.lost_writes(),
    );
    let device = sim.controller().device();
    let (stats, faults) = (device.stats(), device.fault_counters());
    let (errors, tracked) = (sim.integrity_errors(), sim.tracked_lines());
    (
        counts,
        stats,
        errors,
        faults,
        tracked,
        sim.find_mismatches(),
    )
}

/// `run(Writes(WRITES))`, recovering after every power loss.
fn run_whole(stack: &str, setting: Setting) -> Simulation {
    let mut sim = configured(stack, setting)
        .workload_boxed(stream_of(stack, setting))
        .build();
    while sim.run(StopCondition::Writes(WRITES)).reason == StopReason::PowerLoss {
        sim.recover();
    }
    sim
}

fn run_equals_run_batch(setting: Setting) {
    for stack in SchemeRegistry::global().names() {
        let mut whole = run_whole(stack, setting);
        assert!(
            whole.controller().device().dead_blocks() > 0,
            "{stack}: the run should reach the failure era"
        );
        if setting == Setting::Armed {
            let faults = whole.controller().device().fault_counters();
            assert!(
                faults.is_some_and(|f| f.power_losses >= 1 && f.silent_failures == 2),
                "{stack}: the plan should fire, {faults:?}"
            );
        }
        let want = observed(&mut whole);
        for batch in [1, 7, 64] {
            let mut batched = configured(stack, setting)
                .workload_boxed(stream_of(stack, setting))
                .build();
            feed(&mut batched, &mut *stream_of(stack, setting), WRITES, batch);
            assert_eq!(
                observed(&mut batched),
                want,
                "{stack} {setting:?} in batches of {batch}"
            );
        }
    }
}

/// Issues the first `writes` addresses of `hand` through `run_batch`,
/// `batch` at a time, recovering after every power loss.
fn feed(sim: &mut Simulation, hand: &mut dyn Workload, writes: u64, batch: u64) {
    let mut left = writes;
    while left > 0 {
        let addrs: Vec<AppAddr> = (0..batch.min(left)).map(|_| hand.next_write()).collect();
        left -= addrs.len() as u64;
        let mut from = 0;
        loop {
            match sim.run_batch(&addrs[from..]) {
                BatchStatus::Completed => break,
                BatchStatus::PowerLoss { consumed } => {
                    sim.recover();
                    from += consumed as usize;
                }
                _ => return,
            }
        }
    }
}

#[test]
fn run_equals_run_batch_on_every_stack() {
    run_equals_run_batch(Setting::Plain);
}

#[test]
fn oracle_run_equals_run_batch_on_every_stack() {
    run_equals_run_batch(Setting::Oracle);
}

#[test]
fn armed_run_equals_run_batch_on_every_stack() {
    run_equals_run_batch(Setting::Armed);
}

/// A write that fails silently gets its checks before the next one is
/// issued: the oracle drops the line it lost at once, and tracks it again
/// when it is rewritten later in the same batch. The first batch's silent
/// failure retires a page, whose spares then hide the second batch's: its
/// rewrite returns `Ok`, and the batch goes on. With ψ out of reach no
/// migration writes, so a plan's device-write index is the batch's.
#[test]
fn a_silent_failure_is_reconciled_on_its_own_write() {
    let sim = || {
        builder("reviver-sg")
            .endurance_mean(1e9)
            .gap_interval(1 << 20)
            .os_reserve_pages(2)
            .verify_integrity(true)
            .build()
    };
    // Lines `first..first + 32`, but line `first + 3` again at write 6.
    let batch = |first: u64| -> Vec<AppAddr> {
        (0..32)
            .map(|i| AppAddr::new(first + if i == 6 { 3 } else { i }))
            .collect()
    };
    let (mut whole, mut single) = (sim(), sim());
    for first in [0, 100] {
        let addrs = batch(first);
        for sim in [&mut whole, &mut single] {
            sim.arm_faults(FaultPlan::new().silent_failure_at_write(3));
        }
        assert_eq!(whole.run_batch(&addrs), BatchStatus::Completed);
        for addr in &addrs {
            let status = single.run_batch(std::slice::from_ref(addr));
            assert_eq!(status, BatchStatus::Completed);
        }
    }
    assert_eq!(whole.controller().device().silent_failures().len(), 2);
    assert_eq!(whole.retirements(), 1);
    assert!(
        whole.tracked_lines().contains(&(103, 39)),
        "the rewrite is tracked: {:?}",
        whole.tracked_lines()
    );
    assert_eq!(observed(&mut whole), observed(&mut single));
}

/// An oracle-on stack whose leveler migrates every 3 writes, on cells
/// that never fail: every device write past the software writes is a
/// migration's.
fn migrating(stack: &str) -> SimulationBuilder {
    builder(stack)
        .endurance_mean(1e9)
        .gap_interval(3)
        .verify_integrity(true)
}

/// Writes of a migration-fault run.
const MIGRATING_WRITES: u64 = 3_000;

/// Every line once, in order, then [`stream`]'s addresses: by the time a
/// migration moves a line, the oracle tracks it.
#[derive(Debug, Clone)]
struct SweepThen {
    swept: u64,
    rest: UniformWorkload,
}

impl Workload for SweepThen {
    fn len(&self) -> u64 {
        self.rest.len()
    }

    fn next_write(&mut self) -> AppAddr {
        if self.swept == self.rest.len() {
            return self.rest.next_write();
        }
        self.swept += 1;
        AppAddr::new(self.swept - 1)
    }

    fn label(&self) -> String {
        format!("sweep, then {}", self.rest.label())
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

fn swept(stack: &str) -> SweepThen {
    SweepThen {
        swept: 0,
        rest: stream(stack),
    }
}

/// The first software write at or after write 1 100 (past the sweep)
/// that sits strictly inside a 32-write slab and is followed by a
/// migration that writes the device, and the device-write index of that
/// migration's first write.
/// Found on an unarmed run: until a plan fires, an armed device serves
/// writes exactly as an unarmed one.
fn migration_write(stack: &str) -> (u64, u64) {
    let mut sim = migrating(stack).build();
    let mut hand = swept(stack);
    for k in 0..MIGRATING_WRITES {
        let before = sim.controller().device().stats().writes;
        assert_eq!(sim.run_batch(&[hand.next_write()]), BatchStatus::Completed);
        let after = sim.controller().device().stats().writes;
        if k >= 1_100 && (1..31).contains(&(k % 32)) && after >= before + 2 {
            return (k, before + 1);
        }
    }
    panic!("{stack}: no migration follows a write")
}

/// `plan(index)` armed on a migration's device write inside a slab: the
/// slab ends on that write. `run` stops right after it on a power loss,
/// and a run to it leaves the oracle clean (the silent failure's line is
/// let go of at once); then `run` to the end equals `run_batch` in
/// batches of 1 and 64. Returns the whole run's fault counters.
fn migration_fault(stack: &str, plan: impl Fn(u64) -> FaultPlan) -> FaultCounters {
    let (k, index) = migration_write(stack);
    let armed = || {
        migrating(stack)
            .fault_plan(plan(index))
            .workload(swept(stack))
            .build()
    };
    let mut to_it = armed();
    let out = to_it.run(StopCondition::Writes(k + 1));
    assert_eq!(out.writes_issued, k + 1, "{stack}");
    let faults = to_it.controller().device().fault_counters().unwrap();
    assert_eq!(
        faults.power_losses + faults.silent_failures,
        1,
        "{stack}: the plan fires on write {k}"
    );
    let lost_power = faults.power_losses > 0;
    let stopped = out.reason == StopReason::PowerLoss;
    assert_eq!(stopped, lost_power, "{stack}: write {k} ends the run");
    if stopped {
        to_it.recover();
    }
    assert_eq!(to_it.find_mismatches(), [], "{stack}: write {k}");

    let mut whole = armed();
    let mut stops = Vec::new();
    loop {
        let out = whole.run(StopCondition::Writes(MIGRATING_WRITES));
        if out.reason != StopReason::PowerLoss {
            break;
        }
        stops.push(out.writes_issued);
        whole.recover();
    }
    assert_eq!(stops, [k + 1][..usize::from(lost_power)], "{stack}: stops");
    let want = observed(&mut whole);
    assert_eq!(want.2, 0, "{stack}: integrity errors");
    assert_eq!(want.5, [], "{stack}: mismatches");
    for batch in [1, 64] {
        let mut batched = armed();
        feed(&mut batched, &mut swept(stack), MIGRATING_WRITES, batch);
        assert_eq!(
            observed(&mut batched),
            want,
            "{stack} in batches of {batch}"
        );
    }
    want.3.unwrap()
}

#[test]
fn a_silent_failure_on_a_migration_ends_its_slab() {
    for stack in ["reviver-sg", "reviver-sr"] {
        let plan = |index| FaultPlan::new().silent_failure_at_write(index);
        let faults = migration_fault(stack, plan);
        assert_eq!(faults.silent_failures, 1, "{stack}");
    }
}

#[test]
fn a_power_cut_in_a_migration_ends_its_slab() {
    for stack in ["reviver-sg", "reviver-sr"] {
        let plan = |index| FaultPlan::new().power_loss_at_write(index);
        let faults = migration_fault(stack, plan);
        assert_eq!(faults.power_losses, 1, "{stack}");
    }
}

/// `reviver-sg`'s armed run: its fingerprint and an FNV-1a of its
/// oracle's tracked lines. Captured at the engine that sent every write of
/// an oracle-on or armed run through its own per-write step.
const ARMED_RUN: (u64, u64) = (0x684c_dacf_0f09_c0af, 0xc051_486a_44fc_147c);

#[test]
fn an_armed_oracle_run_keeps_its_state() {
    let sim = run_whole("reviver-sg", Setting::Armed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (addr, tag) in sim.tracked_lines() {
        for byte in addr.to_le_bytes().into_iter().chain(tag.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(sim.integrity_errors(), 0);
    assert_eq!(
        (sim.fingerprint(), h),
        ARMED_RUN,
        "{:#x} {h:#x}",
        sim.fingerprint()
    );
}

/// A `DeadFraction` stop whose write is neither a slab's last nor a
/// sample boundary (the default interval here is 1 024 writes, a
/// multiple of the 32-address lookahead). Captured at the per-write
/// engine.
const DEAD_STOP: (u64, u64) = (21_133, 0xa2a7_a6a0_c464_71d6);

#[test]
fn a_dead_fraction_stop_lands_on_its_write() {
    let mut sim = builder("reviver-sg").workload(stream("reviver-sg")).build();
    let out = sim.run(StopCondition::DeadFraction(0.05));
    let got = (out.writes_issued, sim.fingerprint());
    assert_ne!(got.0 % 32, 0, "the stop must fall inside a slab");
    assert_eq!(got, DEAD_STOP);
}

/// Plays the OS for one non-`Ok` result: grants the reported page or the
/// requested pages. Returns the pages granted.
fn grant(ctl: &mut dyn Controller, res: &WriteResult) -> Vec<u64> {
    let pages = match res {
        WriteResult::ReportFailure(pa) => vec![ctl.geometry().page_of(*pa)],
        WriteResult::RequestPages(pages) => pages.clone(),
        _ => Vec::new(),
    };
    for &page in &pages {
        ctl.on_page_retired(page);
    }
    pages.iter().map(|p| p.index()).collect()
}

/// What a controller run leaves: device counters and wear, request
/// counters, and every write result in order.
type Left = (AccessStats, Vec<u32>, (u64, u64), Vec<(usize, WriteResult)>);

fn left(ctl: &dyn Controller, results: Vec<(usize, WriteResult)>) -> Left {
    let req = ctl.request_stats();
    (
        ctl.device().stats(),
        ctl.device().wear().collect(),
        (req.requests, req.accesses),
        results,
    )
}

#[test]
fn write_run_equals_the_write_loop_across_a_retirement() {
    const SLAB: usize = 32;
    for spec in SchemeRegistry::global().revivable() {
        let fresh = || builder(spec.name).endurance_mean(20.0);
        let (mut slabbed, mut looped) = (fresh().build(), fresh().build());
        let far = FaultPlan::new().power_loss_at_write(u64::MAX);
        let mut armed = fresh().fault_plan(far).build();
        let bpp = slabbed.geometry().blocks_per_page();
        // A hot page's lines, then a sweep: blocks die within the first
        // few thousand writes and the controller asks the OS for pages.
        let pas: Vec<Pa> = (0..20_000u64)
            .map(|i| {
                Pa::new(if i % 3 == 0 {
                    i % bpp
                } else {
                    (i * 7) % BLOCKS
                })
            })
            .collect();
        let mut retired = std::collections::HashSet::new();
        let (mut by_slab, mut by_write, mut by_armed) = (Vec::new(), Vec::new(), Vec::new());
        let mut done = 0;
        let mut tag = 1;
        while done < pas.len() {
            // Skip whatever the OS has retired: it never writes there.
            let slab: Vec<Pa> = pas[done..]
                .iter()
                .take(SLAB)
                .take_while(|pa| !retired.contains(&(pa.index() / bpp)))
                .copied()
                .collect();
            if slab.is_empty() {
                done += 1;
                continue;
            }
            let (n, res) = slabbed.controller_mut().write_run(&slab, tag);
            let mut m = slab.len();
            let mut last = WriteResult::Ok;
            for (i, &pa) in slab.iter().enumerate() {
                last = looped.controller_mut().write(pa, tag + i as u64);
                if last != WriteResult::Ok {
                    m = i + 1;
                    break;
                }
            }
            by_slab.push((n, res.clone()));
            by_write.push((m, last));
            by_armed.push(armed.controller_mut().write_run_armed(&slab, tag));
            assert_eq!(by_slab.last(), by_write.last(), "{}", spec.name);
            assert_eq!(by_slab.last(), by_armed.last(), "{} armed", spec.name);
            done += n;
            tag += n as u64;
            let granted = grant(slabbed.controller_mut(), &res);
            assert_eq!(grant(looped.controller_mut(), &res), granted);
            assert_eq!(grant(armed.controller_mut(), &res), granted);
            retired.extend(granted);
        }
        assert!(!retired.is_empty(), "{}: no page retired", spec.name);
        let want = left(slabbed.controller(), by_slab);
        assert_eq!(left(looped.controller(), by_write), want, "{}", spec.name);
        assert_eq!(
            left(armed.controller(), by_armed),
            want,
            "{} armed",
            spec.name
        );
    }
}
