//! What a fork → run-to-cut → recover cycle asks of the allocator, counted
//! with a `#[global_allocator]` that tallies the calls of the thread under
//! measurement. The shape is the benchmark's `crash_recover`: 2¹⁴ blocks,
//! integrity oracle on, worn until a tenth of the space is gone — so the
//! figures below are the ones DESIGN.md §10 tabulates, and they repeat
//! exactly: nothing here reads a clock.
//!
//! One `#[test]` on purpose: the warm-up is the expensive part and both
//! stacks share the file's allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wl_reviver::sim::{SimSnapshot, Simulation, StopCondition, StopReason};
use wlr_pcm::FaultPlan;
use wlr_trace::UniformWorkload;

const KIB: usize = 1024;
/// glibc's default mmap threshold: an allocation this large is its own
/// `mmap`/`munmap` pair until the allocator's dynamic threshold learns.
const LARGE: usize = 128 * KIB;

/// Allocator calls made by one thread inside one [`measure`] window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    count: usize,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    bytes: usize,
    /// Calls that asked for [`LARGE`] or more.
    large: usize,
    /// `realloc` calls — a `Vec` growing in place or moving.
    reallocs: usize,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

struct Counting;

fn note(size: usize, realloc: bool) {
    // `try_with`: the allocator outlives the thread-local on thread exit.
    let _ = TALLY.try_with(|t| {
        if let Some(mut n) = t.get() {
            n.count += 1;
            n.bytes += size;
            n.large += usize::from(size >= LARGE);
            n.reallocs += usize::from(realloc);
            t.set(Some(n));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the tally only
// reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, true);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns what this thread allocated meanwhile.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|t| t.take()).expect("window open");
    (out, tally)
}

const BLOCKS: u64 = 1 << 14;
const SEED: u64 = 42;

/// `benchmark/src/shape.rs::crash_snapshot`, restated (the benchmark is
/// not a dependency of the test suite).
fn crash_snapshot(stack: &str) -> SimSnapshot {
    let mut sim = Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(2_000.0)
        .gap_interval(10)
        .stack(stack)
        .seed(SEED)
        .verify_integrity(true)
        .workload(UniformWorkload::new(BLOCKS, SEED))
        .build();
    sim.run(StopCondition::UsableBelow(0.9));
    sim.snapshot()
}

/// What one cycle of `stack` asked for: a fork, the run to the cut (it
/// records a sample on the way), and the recovery.
fn cycle(stack: &str) -> [Tally; 3] {
    let snap = crash_snapshot(stack);
    let (mut sim, fork) = measure(|| Simulation::fork(&snap));
    let (_, again) = measure(|| Simulation::fork(&snap));
    assert_eq!(fork, again, "{stack}: two forks of one snapshot differ");

    sim.replace_workload(Box::new(UniformWorkload::new(sim.workload_len(), SEED + 1)));
    sim.arm_faults(FaultPlan::new().power_loss_at_write(4_500));
    let samples = sim.series().len();
    let (out, to_cut) = measure(|| sim.run(StopCondition::Writes(u64::MAX)));
    assert_eq!(out.reason, StopReason::PowerLoss, "{stack}");
    assert!(
        sim.series().len() > samples,
        "{stack}: no sample before the cut"
    );

    let (_, recover) = measure(|| sim.recover());
    sim.run(StopCondition::Writes(out.writes_issued + 5_000));
    assert_eq!(sim.verify_all(), 0, "{stack}: the measured cycle lost data");
    [fork, to_cut, recover]
}

#[test]
fn a_crash_cycle_stays_inside_its_allocation_budget() {
    let cycles = ["reviver-sg", "reviver-sr"].map(|stack| (stack, cycle(stack)));
    for (stack, [fork, to_cut, recover]) in cycles {
        println!("{stack}: fork {fork:?}\n  to the cut {to_cut:?}\n  recover {recover:?}");
        // Before forks shared what cannot change: 32 calls / 1,518 KiB
        // (`reviver-sg`), 30 / 1,250 KiB (`reviver-sr`), ten and eight of
        // them large. Before they shared the sample history too and the
        // oracle dropped its sorted key list: 30 calls / 1,022 KiB, four
        // large. Then 29 calls / 737 KiB, until the pointer-section
        // layout became arithmetic on the retired-page bitmap instead of a
        // slot table and a section set. Then 24 / 25 calls, 668 KiB, three
        // large, until the device split its block table: 8 B of wear and
        // threshold a block, one of failures, and 8 of the order
        // statistic each next threshold resumes from instead of replaying
        // the block's stream (80 KiB and two calls more, one of them
        // large, to draw a worn chip's thresholds with one `powf` each).
        // What is left is what a cycle can write to: the device, the
        // oracle's map, the OS tables and three half-width pointer tables.
        assert!(
            fork.count <= 27 && fork.bytes <= 750 * KIB,
            "{stack}: {fork:?}"
        );
        assert!(fork.large <= 4 && fork.reallocs == 0, "{stack}: {fork:?}");
        // Before: one 288 KiB reallocation, the sample history outgrowing
        // a clone made with no room to spare. Now the fork's samples start
        // a tail of its own.
        assert!(
            to_cut.reallocs == 0 && to_cut.bytes <= 4 * KIB,
            "{stack}: {to_cut:?}"
        );
        // Before: 94 calls / 545 KiB, three of them large — four dense
        // tables built anew where they are now cleared. Then 59 calls /
        // 73 KiB, 12 of them a list of every dead block that the heal step
        // now finds by and-not over the dead set and the link keys. Then
        // 49 KiB, 23 of them a copy of every persisted pointer that the
        // link scan now walks in place: 26 KiB.
        assert!(
            recover.large == 0 && recover.bytes <= 28 * KIB,
            "{stack}: {recover:?}"
        );
        assert!(recover.count <= 60, "{stack}: {recover:?}");
    }
    // `reviver-sg` maps through a memoized randomizer, two tables of
    // `BLOCKS` `u32`s, and `reviver-sr` has none: were a fork still
    // copying them, the two would be 128 KiB apart (268 KiB when the
    // entries were `u64`).
    let [(_, [sg, ..]), (_, [sr, ..])] = cycles;
    assert!(sg.bytes.abs_diff(sr.bytes) < KIB, "sg {sg:?} sr {sr:?}");
}
