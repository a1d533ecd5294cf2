//! The engine draws its workload ahead, a slab at a time, and none of it
//! may show: for `reviver-sg` and `reviver-sr` over a skewed (ocean) and a
//! uniform stream, however `run` is chunked, wherever a snapshot or a
//! workload swap falls within a slab, the simulation issues exactly the
//! workload's stream in order.
//!
//! The reference is [`Simulation::run_batch`] on addresses drawn by hand
//! from a second copy of the stream: it shares `run`'s step loop but never
//! reads the simulation's own workload.

use wl_reviver::metrics::SamplePoint;
use wl_reviver::sim::{BatchStatus, Simulation, SimulationBuilder, StopCondition};
use wlr_base::AppAddr;
use wlr_pcm::AccessStats;
use wlr_trace::{Benchmark, UniformWorkload, Workload};

const BLOCKS: u64 = 1 << 10;
/// Low enough that blocks die, links form and pages retire within the
/// run, so the failure era's writes are covered too.
const ENDURANCE: f64 = 36.0;
/// Small enough that every chunking below straddles sample boundaries.
const SAMPLE: u64 = 100;
const WRITES: u64 = 12_000;
const STACKS: [&str; 2] = ["reviver-sg", "reviver-sr"];

#[derive(Clone, Copy, Debug)]
enum Stream {
    Ocean,
    Uniform,
}

fn stream(kind: Stream, len: u64, seed: u64) -> Box<dyn Workload> {
    match kind {
        Stream::Ocean => Box::new(Benchmark::Ocean.build(len, seed)),
        Stream::Uniform => Box::new(UniformWorkload::new(len, seed)),
    }
}

fn builder(stack: &str) -> SimulationBuilder {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(7)
        .stack(stack)
        .seed(5)
        .sample_interval(SAMPLE)
}

fn app_blocks(stack: &str) -> u64 {
    builder(stack).app_blocks()
}

/// A simulation running stream `kind` at seed 1.
fn sim(stack: &str, kind: Stream) -> Simulation {
    builder(stack)
        .workload_boxed(stream(kind, app_blocks(stack), 1))
        .build()
}

/// What a run leaves that the lookahead could disturb.
fn observed(sim: &Simulation) -> (u64, AccessStats, Vec<SamplePoint>) {
    (
        sim.fingerprint(),
        sim.controller().device().stats(),
        sim.series().iter().copied().collect(),
    )
}

/// The hand-driven reference: issue `addrs`, then close the chunk with the
/// end-of-run sample `run` records (a `run` whose condition already holds
/// draws nothing).
fn batch(sim: &mut Simulation, addrs: &[AppAddr]) {
    assert_eq!(sim.run_batch(addrs), BatchStatus::Completed);
    sim.run(StopCondition::Writes(sim.writes_issued()));
}

fn draw(w: &mut dyn Workload, n: u64) -> Vec<AppAddr> {
    (0..n).map(|_| w.next_write()).collect()
}

fn each_case(mut f: impl FnMut(&str, Stream)) {
    for stack in STACKS {
        for kind in [Stream::Ocean, Stream::Uniform] {
            f(stack, kind);
        }
    }
}

#[test]
fn chunked_runs_issue_the_stream_in_order() {
    each_case(|stack, kind| {
        let mut whole = sim(stack, kind);
        whole.run(StopCondition::Writes(WRITES));
        assert!(
            whole.retirements() > 0,
            "{stack}/{kind:?}: the run should reach the failure era"
        );
        let mut reference = sim(stack, kind);
        batch(
            &mut reference,
            &draw(stream(kind, app_blocks(stack), 1).as_mut(), WRITES),
        );
        let one = observed(&whole);
        assert_eq!(one, observed(&reference), "{stack}/{kind:?}");

        for chunk in [1, 31, 32, 33, 63, 64, 65, 127] {
            let mut chunked = sim(stack, kind);
            let mut reference = sim(stack, kind);
            let mut hand = stream(kind, app_blocks(stack), 1);
            let mut done = 0;
            while done < WRITES {
                let n = chunk.min(WRITES - done);
                done += n;
                chunked.run(StopCondition::Writes(done));
                batch(&mut reference, &draw(hand.as_mut(), n));
            }
            let got = observed(&chunked);
            assert_eq!(got, observed(&reference), "{stack}/{kind:?} by {chunk}");
            // Chunk ends add samples; the end state is the one run's.
            assert_eq!(
                (got.0, got.1),
                (one.0, one.1),
                "{stack}/{kind:?} by {chunk}"
            );
        }
    });
}

#[test]
fn a_fork_mid_slab_continues_the_slab() {
    each_case(|stack, kind| {
        let mut original = sim(stack, kind);
        original.run(StopCondition::Writes(100)); // mid-slab: 100 = 3 × 32 + 4
        let snap = original.snapshot();
        let mut fork = Simulation::fork(&snap);
        original.run(StopCondition::Writes(WRITES));
        fork.run(StopCondition::Writes(WRITES));
        assert_eq!(observed(&fork), observed(&original), "{stack}/{kind:?}");
    });
}

#[test]
fn a_workload_swap_mid_slab_drops_the_old_slab() {
    const SWAP_AT: u64 = 100;
    each_case(|stack, kind| {
        let len = app_blocks(stack);
        let mut swapped = sim(stack, kind);
        swapped.run(StopCondition::Writes(SWAP_AT));
        swapped.replace_workload(stream(kind, len, 2));
        swapped.run(StopCondition::Writes(WRITES));

        let mut reference = sim(stack, kind);
        batch(
            &mut reference,
            &draw(stream(kind, len, 1).as_mut(), SWAP_AT),
        );
        batch(
            &mut reference,
            &draw(stream(kind, len, 2).as_mut(), WRITES - SWAP_AT),
        );
        assert_eq!(observed(&swapped), observed(&reference), "{stack}/{kind:?}");
    });
}
