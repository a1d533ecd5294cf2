//! The engine hands a controller its writes a slab at a time, and the
//! slab boundaries must not show:
//!
//! * for every registered stack, `run(Writes(n))` leaves exactly the state
//!   `run_batch` leaves over the same addresses, whatever the batch size;
//! * a `DeadFraction` run stops on the very write whose death met the
//!   condition, also when that write falls inside a slab (a death the
//!   reviver hides returns `Ok`, so only a per-write check sees it);
//! * `Controller::write_run` on a revived stack equals the one-write loop
//!   it replaces, across a page retirement.

use wl_reviver::controller::{Controller, WriteResult};
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{BatchStatus, Simulation, SimulationBuilder, StopCondition};
use wlr_base::{AppAddr, Pa};
use wlr_pcm::AccessStats;
use wlr_trace::{UniformWorkload, Workload};

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

/// What a run leaves that a slab boundary could disturb.
fn observed(sim: &Simulation) -> (u64, u64, u64, u64, AccessStats) {
    (
        sim.fingerprint(),
        sim.writes_issued(),
        sim.retirements(),
        sim.lost_writes(),
        sim.controller().device().stats(),
    )
}

#[test]
fn run_equals_run_batch_on_every_stack() {
    for stack in SchemeRegistry::global().names() {
        let mut whole = builder(stack).workload(stream(stack)).build();
        whole.run(StopCondition::Writes(WRITES));
        assert!(
            whole.controller().device().dead_blocks() > 0,
            "{stack}: the run should reach the failure era"
        );
        let want = observed(&whole);
        for batch in [1, 7, 64] {
            let mut batched = builder(stack).workload(stream(stack)).build();
            let mut hand = stream(stack);
            let mut left = WRITES;
            while left > 0 {
                let addrs: Vec<AppAddr> = (0..batch.min(left)).map(|_| hand.next_write()).collect();
                left -= addrs.len() as u64;
                if batched.run_batch(&addrs) != BatchStatus::Completed {
                    break;
                }
            }
            assert_eq!(observed(&batched), want, "{stack} in batches of {batch}");
        }
    }
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
        let fresh = || builder(spec.name).endurance_mean(20.0).build();
        let (mut slabbed, mut looped) = (fresh(), fresh());
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
        let (mut by_slab, mut by_write) = (Vec::new(), Vec::new());
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
            assert_eq!(by_slab.last(), by_write.last(), "{}", spec.name);
            done += n;
            tag += n as u64;
            let granted = grant(slabbed.controller_mut(), &res);
            assert_eq!(grant(looped.controller_mut(), &res), granted);
            retired.extend(granted);
        }
        assert!(!retired.is_empty(), "{}: no page retired", spec.name);
        assert_eq!(
            left(slabbed.controller(), by_slab),
            left(looped.controller(), by_write),
            "{}",
            spec.name
        );
    }
}
