//! What a run holds on to: memory that grows with the requests served, or
//! that a fork copies without reading it. Counted with a
//! `#[global_allocator]` that tallies the calls of the thread under
//! measurement (as in `fork_cost.rs`), so the figures repeat exactly and
//! nothing here reads a clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wl_reviver::sim::{Simulation, StopCondition};
use wlr_mc::{McFrontend, McStopReason};
use wlr_trace::{UniformWorkload, Workload};

const KIB: usize = 1024;

/// Allocator calls made by one thread inside one [`measure`] window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    count: usize,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    bytes: usize,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator outlives the thread-local on thread exit.
    let _ = TALLY.try_with(|t| {
        if let Some(mut n) = t.get() {
            n.count += 1;
            n.bytes += size;
            t.set(Some(n));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the tally only
// reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// The benchmark's `bank_*` front-end (`benchmark/src/shape.rs`,
/// restated: the benchmark is not a dependency of the test suite) on a
/// uniform stream. It drains inline, which is bit-identical to any worker
/// count and keeps every bank's allocations on this thread.
#[test]
fn a_warm_front_end_serves_requests_without_allocating() {
    let mut mc = McFrontend::builder()
        .banks(8)
        .total_blocks(BLOCKS)
        .endurance_mean(1e9)
        // `scaled_gap_interval(BLOCKS / 8, EXP_ENDURANCE)`.
        .gap_interval(82)
        .seed(SEED)
        .queue_depth(64)
        .write_buffer_lines(32)
        .drain_workers(1)
        .build()
        .expect("eight banks divide the chip");
    let mut stream = UniformWorkload::new(BLOCKS, SEED);
    let warm = mc.run(&mut stream, 1_000_000);
    assert_eq!(warm.stop, McStopReason::TraceComplete);
    // Each bank issues about 3 M / 8 writes more: 360 samples a bank at
    // the default cadence, had they been recorded.
    let (out, served) = measure(|| {
        for _ in 0..3_000_000 {
            mc.submit(stream.next_write().index());
        }
        mc.finish()
    });
    assert_eq!(out.stop, McStopReason::TraceComplete);
    assert!(out.issued - warm.issued > 2_000_000, "{out:?}");
    // The requests allocate nothing. `finish` allocates exactly what its
    // outcome owns (a clone of it allocates the same): it folds every
    // bank's wear in place, where it used to copy it (about 161 KiB at
    // this shape), and drains the write buffer into a reused list.
    let (_, owned) = measure(|| out.clone());
    assert_eq!(
        (served.count, served.bytes),
        (owned.count, owned.bytes),
        "{served:?}, outcome {owned:?}"
    );
}

/// A fork of a healthy chip copies what a run can write to — the device,
/// the OS tables, the leveler — and only the bits of the failure-era
/// tables, which are empty.
#[test]
fn a_healthy_fork_copies_no_empty_table() {
    let mut sim = Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(1e9)
        .stack("reviver-sg")
        .seed(SEED)
        .workload(UniformWorkload::new(BLOCKS, SEED))
        .build();
    sim.run(StopCondition::Writes(200_000));
    let snap = sim.snapshot();
    let (_, fork) = measure(|| Simulation::fork(&snap));
    println!("healthy fork {fork:?}");
    // Before: 24 calls / 478 KiB. Six of them were the slot arrays of
    // four empty pointer tables (64 KiB each) and the two layout tables
    // a grant filled in, before any page had retired.
    assert!(
        fork.count <= 19 && fork.bytes <= 224 * KIB,
        "healthy fork {fork:?}"
    );
}

/// The integrity oracle spot-checks 32 tracked lines at every sample and
/// allocates nothing to do it: a warm `reviver-sg` window across twenty
/// sample boundaries makes no more allocator calls with the oracle on
/// than with it off. (Its picks used to be collected into a fresh list
/// per sample.)
#[test]
fn oracle_spot_checks_allocate_nothing() {
    let window = |oracle: bool| {
        let mut sim = Simulation::builder()
            .num_blocks(BLOCKS)
            .endurance_mean(1e9)
            .stack("reviver-sg")
            .seed(SEED)
            .verify_integrity(oracle)
            .sample_interval(1_000)
            .workload(UniformWorkload::new(BLOCKS, SEED))
            .build();
        sim.run(StopCondition::Writes(100_000));
        let samples = sim.series().len();
        let (_, tally) = measure(|| sim.run(StopCondition::Writes(120_000)));
        assert!(sim.series().len() - samples >= 8, "too few samples");
        tally
    };
    let (on, off) = (window(true), window(false));
    println!("oracle on {on:?}, off {off:?}");
    assert!(on.count <= off.count, "oracle on {on:?}, off {off:?}");
}
