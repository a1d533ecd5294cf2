//! `layers` — the traced run: every layer timed from outside, through its
//! public functions, with a span around each call.
//!
//! Two kinds of measurement share one span log:
//!
//! * *probes* time one layer stand-alone on the address streams of the
//!   workloads (five repetitions on fresh state, their quiet quartile
//!   reported);
//! * *compositions* re-assemble a workload's pipeline from the same public
//!   pieces, one root span per slab, future or crash cycle and one child
//!   span per layer call, and are compared with the real engine doing the
//!   same work untraced (`compose_gap_pct`).
//!
//! Every run reports every per-layer metric; `--workload` only chooses
//! which composition the three `compose*` metrics describe (`all`: each
//! workload in turn, for `run.sh`). The spans go to `spans.jsonl`.

use std::hint::black_box;
use std::time::Instant;

use wl_reviver::sim::{BatchStatus, SimSnapshot, Simulation, StopCondition, StopReason};
use wl_reviver::{ReviverCounters, WriteResult};
use wlr_base::interleave::Interleave;
use wlr_base::{spsc, AppAddr, Da, Geometry, InterleaveMap, Pa, PageId};
use wlr_bench::{exp_builder, scaled_gap_interval, EXP_BLOCKS, EXP_ENDURANCE};
use wlr_benchmark::json::Value;
use wlr_benchmark::shape::{self, STACKS};
use wlr_benchmark::span::SpanLog;
use wlr_benchmark::{
    stats, Args, Metrics, ALL, CHIP_SEED, PER_LAYER, REFERENCE_SECONDS, WORKLOADS,
};
use wlr_mc::{McFrontend, McOutcome, QueueEntry, Steering, WriteBuffer, WriteQueue};
use wlr_os::OsMemory;
use wlr_pcm::{Ecp, FaultPlan, PcmDevice};
use wlr_trace::Workload;
use wlr_wl::{RandomizerKind, SecurityRefresh, StartGap, WearLeveler};

/// Operations per root span of a composed pipeline.
const SLAB: usize = 65_536;
/// Slabs per probe repetition, and per composed pipeline and stack, at
/// the reference `--seconds`; both scale with `--seconds`.
const PROBE_SLABS: f64 = 32.0;
const COMPOSE_SLABS: f64 = 16.0;
/// Repetitions of a probe, each on fresh state; the quiet quartile of
/// them (`stats::QUIET_PCT`) is reported.
const REPS: usize = 5;
/// Crash cycles per stack at the reference `--seconds`: with both stacks
/// enough samples for a 95th percentile.
const CYCLES: f64 = 100.0;
/// Share of the pages retired, or of a block's life used up, in the
/// `worn` probes.
const WORN_PAGES_IN_10: u64 = 3;
const WORN_LIFE: f64 = 0.9;

/// The address streams the probes run on, generated once by the `trace`
/// probes and reused by every layer below.
struct Streams {
    uniform: Vec<AppAddr>,
    hot: Vec<AppAddr>,
    /// `uniform`, translated by a fresh OS.
    pas: Vec<Pa>,
    /// `uniform`, as device addresses.
    das: Vec<Da>,
}

/// What a composed pipeline and the engine took for the same operations.
#[derive(Clone, Copy, Default)]
struct Composed {
    ops: u64,
    composed_ns: u64,
    engine_ns: u64,
}

impl Composed {
    fn ns_per_op(&self) -> f64 {
        self.composed_ns as f64 / self.ops as f64
    }

    fn engine_ns_per_op(&self) -> f64 {
        self.engine_ns as f64 / self.ops as f64
    }

    /// Composed over engine, in percent of the engine.
    fn gap_pct(&self) -> f64 {
        (self.ns_per_op() - self.engine_ns_per_op()) / self.engine_ns_per_op() * 100.0
    }
}

/// The `&'static` name of the per-layer metric `name`, from the table.
fn metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

fn geometry() -> Geometry {
    Geometry::builder()
        .num_blocks(EXP_BLOCKS)
        .build()
        .expect("the experiment chip is a whole number of pages")
}

fn fill(w: &mut dyn Workload, n: usize) -> Vec<AppAddr> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(w.next_write());
    }
    out
}

/// The pages the `worn` OS probes retire: three in ten, spread evenly.
fn worn_pages(geo: &Geometry) -> impl Iterator<Item = PageId> {
    (0..geo.num_pages())
        .filter(|p| (p * 7 + 3) % 10 < WORN_PAGES_IN_10)
        .map(PageId::new)
}

fn translate_all(os: &OsMemory, addrs: &[AppAddr]) -> u64 {
    let mut acc = 0;
    for &a in addrs {
        acc ^= os
            .translate_or_redirect(a)
            .expect("application pages survive")
            .index();
    }
    black_box(acc);
    addrs.len() as u64
}

/// The leveler `exp_builder()` puts under the stack with this short name.
fn leveler(short: &str) -> Box<dyn WearLeveler> {
    let psi = scaled_gap_interval(EXP_BLOCKS, EXP_ENDURANCE);
    match short {
        "sg" => Box::new(
            StartGap::builder(EXP_BLOCKS)
                .gap_interval(psi)
                .randomizer(RandomizerKind::Feistel { seed: CHIP_SEED })
                .build(),
        ),
        "sr" => Box::new(
            SecurityRefresh::builder(EXP_BLOCKS)
                .region_blocks(EXP_BLOCKS)
                .refresh_interval(psi)
                .seed(CHIP_SEED)
                .build(),
        ),
        other => unreachable!("no leveler for stack {other}"),
    }
}

/// The device `exp_builder()` puts under Start-Gap (one gap line extra).
fn device(endurance: f64) -> PcmDevice {
    PcmDevice::builder(geometry())
        .extra_blocks(1)
        .endurance_mean(endurance)
        .endurance_cov(0.2)
        .seed(CHIP_SEED)
        .ecc(Box::new(Ecp::new(6)))
        .build()
}

/// `dev` after one write to every block: a block draws its first failure
/// threshold on its first write, which the steady state never pays.
fn touched(mut dev: PcmDevice) -> PcmDevice {
    for da in 0..dev.total_blocks() {
        dev.write_tagged(Da::new(da), 0);
    }
    dev
}

/// `sim` after one controller write to every PA (see [`touched`]).
fn warmed(mut sim: Simulation) -> Simulation {
    let ctl = sim.controller_mut();
    for pa in 0..EXP_BLOCKS {
        assert_eq!(ctl.write(Pa::new(pa), 0), WriteResult::Ok);
    }
    sim
}

fn ctl_write_all(sim: &mut Simulation, pas: &[Pa], first_tag: u64) -> u64 {
    let ctl = sim.controller_mut();
    for (i, &pa) in pas.iter().enumerate() {
        let res = ctl.write(pa, first_tag + i as u64);
        assert_eq!(res, WriteResult::Ok, "a healthy chip serves every write");
    }
    pas.len() as u64
}

/// The lines that leave a 32-line write buffer fed with `addrs`.
fn evicted_lines(addrs: &[AppAddr]) -> Vec<u64> {
    let mut wbuf = WriteBuffer::new(32, EXP_BLOCKS);
    addrs.iter().filter_map(|a| wbuf.admit(a.index())).collect()
}

fn counters_since(after: ReviverCounters, before: ReviverCounters) -> [u64; 5] {
    [
        after.links - before.links,
        after.switches - before.switches,
        after.spare_grants - before.spare_grants,
        after.suspensions - before.suspensions,
        after.fake_reports - before.fake_reports,
    ]
}

/// The traced run's state: the span log and the metrics gathered so far.
struct Traced {
    /// `--workload`: the composition asked for, or `all`.
    workload: String,
    seed: u64,
    /// `--seconds` over the reference: every length scales by it.
    scale: f64,
    log: SpanLog,
    metrics: Metrics,
}

impl Traced {
    /// Whether the run was asked to report `workload`'s composition.
    fn wants(&self, workload: &str) -> bool {
        self.workload == ALL || self.workload == workload
    }

    fn scaled(&self, at_reference: f64) -> usize {
        ((at_reference * self.scale).round() as usize).max(1)
    }

    /// Operations of one probe repetition.
    fn n(&self) -> usize {
        self.scaled(PROBE_SLABS) * SLAB
    }

    /// Quiet-quartile ns per operation over [`REPS`] repetitions of `run`,
    /// each on a fresh `setup()` and inside a root span named `name`. `run`
    /// returns the operations it did and, where only part of it counts,
    /// the ns it clocked for that part itself.
    fn probe_with<S>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(&mut S) -> (u64, Option<u64>),
    ) -> f64 {
        let mut per_op = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let mut state = setup();
            let id = self.log.open(None, name, layer);
            let (ops, clocked) = run(&mut state);
            let ns = self.log.close(id, ops);
            per_op.push(clocked.unwrap_or(ns) as f64 / ops as f64);
        }
        stats::percentile(&per_op, stats::QUIET_PCT)
    }

    fn probe<S>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        setup: impl FnMut() -> S,
        mut run: impl FnMut(&mut S) -> u64,
    ) -> f64 {
        self.probe_with(name, layer, setup, |s| (run(s), None))
    }

    /// A probe whose result is the metric `name`, in ns per operation.
    fn probe_ns<S>(
        &mut self,
        name: &str,
        layer: &'static str,
        setup: impl FnMut() -> S,
        run: impl FnMut(&mut S) -> u64,
    ) -> f64 {
        let name = metric(name);
        let ns = self.probe(name, layer, setup, run);
        self.metrics.set(name, ns);
        ns
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} is measured before it is used"))
    }

    // ----- trace ---------------------------------------------------------

    fn stream<W: Workload + 'static>(
        &mut self,
        name: &str,
        make: impl Fn(u64) -> W,
    ) -> Vec<AppAddr> {
        let (n, seed) = (self.n(), self.seed);
        let mut kept = Vec::new();
        self.probe_ns(
            name,
            "trace",
            || Box::new(make(seed)) as Box<dyn Workload>,
            |w| {
                kept = fill(w.as_mut(), n);
                n as u64
            },
        );
        kept
    }

    fn trace_and_os(&mut self) -> Streams {
        // Nothing below consumes the ocean stream: the engine pulls its own.
        self.stream("trace.next_write.ocean.ns", shape::ocean);
        let uniform = self.stream("trace.next_write.uniform.ns", shape::uniform);
        let hot = self.stream("trace.next_write.hot.ns", shape::hot);

        let geo = geometry();
        let fresh = || OsMemory::builder(geo).build();
        self.probe_ns("os.translate.fresh.ns", "os", fresh, |os| {
            translate_all(os, &uniform)
        });
        let worn = || {
            let mut os = fresh();
            for page in worn_pages(&geo) {
                os.retire_page(page);
            }
            os
        };
        self.probe_ns("os.translate.worn.ns", "os", worn, |os| {
            translate_all(os, &uniform)
        });
        let name = metric("os.retire_page.us");
        let ns = self.probe(
            name,
            "os",
            || (0..64).map(|_| fresh()).collect::<Vec<_>>(),
            |memories| {
                let mut calls = 0;
                for os in memories {
                    for page in worn_pages(&geo) {
                        black_box(os.retire_page(page));
                        calls += 1;
                    }
                }
                calls
            },
        );
        self.metrics.set(name, ns / 1e3);

        let os = fresh();
        let pas = uniform
            .iter()
            .map(|&a| os.translate(a).expect("a fresh OS maps every page"))
            .collect();
        let das = uniform.iter().map(|a| Da::new(a.index())).collect();
        Streams {
            uniform,
            hot,
            pas,
            das,
        }
    }

    // ----- wl and pcm ----------------------------------------------------

    fn wl(&mut self, s: &Streams) {
        for (_, short) in STACKS {
            self.probe_ns(
                &format!("wl.map.{short}.ns"),
                "wl",
                || leveler(short),
                |wl| {
                    let mut acc = 0;
                    for &pa in &s.pas {
                        acc ^= wl.map(pa).index();
                    }
                    black_box(acc);
                    s.pas.len() as u64
                },
            );
            // As the controller drives it: the fast recording first, the
            // full protocol (and the migrations it arms) when that declines.
            let mut migrations = 0u64;
            self.probe_ns(
                &format!("wl.record_write.{short}.ns"),
                "wl",
                || leveler(short),
                |wl| {
                    migrations = 0;
                    for &pa in &s.pas {
                        if !wl.record_write_fast(pa) {
                            wl.record_write(pa);
                            while let Some(m) = wl.pending() {
                                black_box(m);
                                wl.complete_migration();
                                migrations += 1;
                            }
                        }
                    }
                    s.pas.len() as u64
                },
            );
            self.metrics.set(
                metric(&format!("wl.migrations_per_kwrite.{short}")),
                migrations as f64 * 1e3 / s.pas.len() as f64,
            );
        }
    }

    fn pcm(&mut self, s: &Streams) {
        let fresh = || touched(device(1e9));
        let all = s.das.len() as u64;
        self.probe_ns("pcm.write_tagged.fresh.ns", "pcm", fresh, |dev| {
            for (i, &da) in s.das.iter().enumerate() {
                black_box(dev.write_tagged(da, i as u64));
            }
            all
        });
        self.probe_ns("pcm.write_fast.fresh.ns", "pcm", fresh, |dev| {
            let mut served = 0;
            for (i, &da) in s.das.iter().enumerate() {
                served += u64::from(dev.write_fast(da, i as u64));
            }
            assert_eq!(served, all, "a healthy block takes the fast write");
            all
        });
        self.probe_ns("pcm.read.fresh.ns", "pcm", fresh, |dev| {
            for &da in &s.das {
                black_box(dev.read(da));
            }
            all
        });
        // Every block at nine tenths of its own life: cells keep failing
        // and correction entries are consumed as the writes land.
        let worn = || {
            let mut dev = device(EXP_ENDURANCE);
            let wear: Vec<u32> = (0..dev.total_blocks())
                .map(|b| (dev.lifetime_model().death_threshold(b, 6) as f64 * WORN_LIFE) as u32)
                .collect();
            dev.restore_wear_image(&wear);
            dev
        };
        self.probe_ns("pcm.write_tagged.worn.ns", "pcm", worn, |dev| {
            for (i, &da) in s.das.iter().enumerate() {
                black_box(dev.write_tagged(da, i as u64));
            }
            all
        });
        let name = metric("pcm.build.ms");
        let ns = self.probe(
            name,
            "pcm",
            || (),
            |()| {
                for _ in 0..4 {
                    black_box(device(1e9));
                }
                4
            },
        );
        self.metrics.set(name, ns / 1e6);
    }

    // ----- core: the controller alone, and the engine ---------------------

    fn controller_and_engine(&mut self, s: &Streams) {
        let seed = self.seed;
        let n = s.pas.len() as u64;
        for (stack, short) in STACKS {
            let ctl = self.probe_ns(
                &format!("core.ctl_write.{short}.healthy.ns"),
                "core",
                || warmed(shape::healthy_sim(stack, shape::uniform(seed))),
                |sim| ctl_write_all(sim, &s.pas, 1),
            );
            let below = self.get(&format!("wl.map.{short}.ns"))
                + self.get(&format!("wl.record_write.{short}.ns"))
                + self.get("pcm.write_fast.fresh.ns");
            self.metrics.set(
                metric(&format!("core.reviver_self.{short}.ns")),
                ctl - below,
            );

            let run = self.probe_ns(
                &format!("core.sim_run.{short}.healthy.ns"),
                "core",
                || warmed(shape::healthy_sim(stack, shape::ocean(seed))),
                |sim| {
                    let out = sim.run(StopCondition::Writes(n));
                    assert_eq!(out.reason, StopReason::ConditionMet);
                    n
                },
            );
            let parts =
                self.get("trace.next_write.ocean.ns") + self.get("os.translate.fresh.ns") + ctl;
            self.metrics
                .set(metric(&format!("core.sim_self.{short}.ns")), run - parts);
        }
        self.probe_ns(
            "core.ctl_read.healthy.ns",
            "core",
            || warmed(shape::healthy_sim(STACKS[0].0, shape::uniform(seed))),
            |sim| {
                let ctl = sim.controller_mut();
                for &pa in &s.pas {
                    black_box(ctl.read(pa));
                }
                n
            },
        );
        let batches = |sim: &mut Simulation| {
            for slab in s.uniform.chunks(SLAB) {
                assert_eq!(sim.run_batch(slab), BatchStatus::Completed);
            }
            n
        };
        self.probe_ns(
            "core.run_batch.plain.ns",
            "core",
            || warmed(shape::healthy_sim(STACKS[0].0, shape::uniform(seed))),
            batches,
        );
        // The integrity oracle switches `run_batch` onto its guarded loop.
        let guarded = || {
            warmed(
                exp_builder()
                    .stack(STACKS[0].0)
                    .seed(CHIP_SEED)
                    .endurance_mean(1e9)
                    .verify_integrity(true)
                    .sample_interval(u64::MAX / 2)
                    .build(),
            )
        };
        self.probe_ns("core.run_batch.guarded.ns", "core", guarded, batches);
    }

    // ----- core: the wear-out futures -------------------------------------

    /// Runs `wearout_tail`'s futures with a span around each step and
    /// reports the engine's ns per write in the failure era, the reviver's
    /// counters over the futures, and chain resolution on the worn chip.
    fn tail(&mut self) -> Composed {
        self.log.set_workload("wearout_tail");
        let snaps: Vec<SimSnapshot> = STACKS
            .iter()
            .map(|(stack, _)| shape::wearout_snapshot(stack, self.seed))
            .collect();
        let mut total = Composed::default();
        let mut counts = [0u64; 7];
        let mut worn = None;
        for (snap, (_, short)) in snaps.iter().zip(STACKS) {
            let mut per_write = Vec::new();
            for i in 0..shape::WEAROUT_FUTURES {
                let root = self.log.open(None, "future", "bench");
                let (mut sim, _) = self.log.within(Some(root), "core.fork", "core", 1, || {
                    Simulation::fork(snap)
                });
                let stream = shape::future_stream(sim.workload_len(), self.seed, i);
                self.log
                    .within(Some(root), "core.replace_workload", "core", 1, || {
                        sim.replace_workload(stream)
                    });
                let before = (
                    sim.writes_issued(),
                    sim.reviver_counters().expect("a reviver stack"),
                    sim.retirements(),
                    sim.lost_writes(),
                );
                let run = self.log.open(Some(root), "core.sim_run", "core");
                let out = sim.run(StopCondition::UsableBelow(shape::WEAROUT_TO));
                let writes = out.writes_issued - before.0;
                let ns = self.log.close(run, writes);
                total.composed_ns += self.log.close(root, writes);
                total.ops += writes;
                assert_eq!(out.reason, StopReason::ConditionMet);
                per_write.push(ns as f64 / writes as f64);
                let after = sim.reviver_counters().expect("a reviver stack");
                for (sum, x) in counts.iter_mut().zip(counters_since(after, before.1)) {
                    *sum += x;
                }
                counts[5] += sim.retirements() - before.2;
                counts[6] += sim.lost_writes() - before.3;
                worn.get_or_insert(sim);
            }
            self.metrics.set(
                metric(&format!("core.sim_run.{short}.tail.ns")),
                stats::median(&per_write),
            );
        }
        for (name, count) in [
            "core.links",
            "core.switches",
            "core.spare_grants",
            "core.suspensions",
            "core.fake_reports",
            "core.retirements",
            "core.lost_writes",
        ]
        .into_iter()
        .zip(counts)
        {
            self.metrics.set(name, count as f64);
        }
        // The same futures untraced: what the spans cost.
        if self.wants("wearout_tail") {
            let t = Instant::now();
            for snap in &snaps {
                for i in 0..shape::WEAROUT_FUTURES {
                    let mut sim = Simulation::fork(snap);
                    sim.replace_workload(shape::future_stream(sim.workload_len(), self.seed, i));
                    black_box(sim.run(StopCondition::UsableBelow(shape::WEAROUT_TO)));
                }
            }
            total.engine_ns = t.elapsed().as_nanos() as u64;
        }

        // Reads of every PA software may still touch on the first future's
        // final state: half the chip retired, dead blocks behind chains.
        self.log.set_workload("probe");
        let worn = worn.expect("at least one future ran");
        let snap = worn.snapshot();
        let live: Vec<Pa> = (0..EXP_BLOCKS)
            .map(Pa::new)
            .filter(|&pa| !worn.os().is_retired(worn.os().page_of(pa)))
            .collect();
        let passes = (self.n() / live.len()).max(1);
        self.probe_ns(
            "core.ctl_read.worn.ns",
            "core",
            || Simulation::fork(&snap),
            |sim| {
                let ctl = sim.controller_mut();
                for _ in 0..passes {
                    for &pa in &live {
                        black_box(ctl.read(pa));
                    }
                }
                (passes * live.len()) as u64
            },
        );
        total
    }

    // ----- core: snapshot, fork, crash, recover, verify --------------------

    /// Runs `crash_recover`'s cycles with a span around each step.
    fn crash_cycles(&mut self) -> Composed {
        let snaps: Vec<SimSnapshot> = STACKS
            .iter()
            .map(|(stack, _)| shape::crash_snapshot(stack, self.seed))
            .collect();
        let name = metric("core.snapshot.us");
        let ns = self.probe(
            name,
            "core",
            || snaps.iter().map(Simulation::fork).collect::<Vec<_>>(),
            |sims| {
                for _ in 0..8 {
                    for sim in sims.iter() {
                        black_box(sim.snapshot());
                    }
                }
                8 * sims.len() as u64
            },
        );
        self.metrics.set(name, ns / 1e3);

        self.log.set_workload("crash_recover");
        let cycles = self.scaled(CYCLES) as u64;
        let (mut fork_us, mut recover_us, mut verify_us, mut cycle_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut total = Composed::default();
        for snap in &snaps {
            for i in 0..cycles {
                let root = self.log.open(None, "crash_cycle", "bench");
                let (mut sim, ns) = self.log.within(Some(root), "core.fork", "core", 1, || {
                    Simulation::fork(snap)
                });
                fork_us.push(ns as f64 / 1e3);
                let w0 = sim.writes_issued();
                let stream = shape::future_stream(sim.workload_len(), self.seed, i);
                self.log
                    .within(Some(root), "core.replace_workload", "core", 1, || {
                        sim.replace_workload(stream)
                    });
                self.log
                    .within(Some(root), "core.arm_faults", "core", 1, || {
                        sim.arm_faults(FaultPlan::new().power_loss_at_write(shape::crash_point(i)))
                    });
                let mut crashes = 0;
                loop {
                    let before = sim.writes_issued();
                    let run = self.log.open(Some(root), "core.sim_run", "core");
                    let out = sim.run(StopCondition::Writes(w0 + shape::CRASH_WRITES));
                    self.log.close(run, out.writes_issued - before);
                    if out.reason != StopReason::PowerLoss {
                        assert_eq!(out.reason, StopReason::ConditionMet);
                        break;
                    }
                    let (_, ns) = self
                        .log
                        .within(Some(root), "core.recover", "core", 1, || sim.recover());
                    recover_us.push(ns as f64 / 1e3);
                    crashes += 1;
                }
                let ns = self.log.close(root, shape::CRASH_WRITES);
                cycle_us.push(ns as f64 / 1e3);
                total.composed_ns += ns;
                total.ops += shape::CRASH_WRITES;
                let (mismatches, ns) = self
                    .log
                    .within(None, "core.verify_all", "core", 1, || sim.verify_all());
                verify_us.push(ns as f64 / 1e3);
                assert!(
                    crashes >= 1 && mismatches == 0 && sim.integrity_errors() == 0,
                    "cycle {i}: {crashes} crashes, {mismatches} mismatches"
                );
            }
        }
        let tail = stats::tail_percentile(cycle_us.len()).map_or(95.0, |p| p.min(95.0));
        self.metrics
            .set("core.fork.us.p50", stats::median(&fork_us));
        self.metrics
            .set("core.fork.us.p95", stats::percentile(&fork_us, tail));
        self.metrics
            .set("core.recover.us.p50", stats::median(&recover_us));
        self.metrics
            .set("core.recover.us.p95", stats::percentile(&recover_us, tail));
        self.metrics
            .set("core.verify_all.us", stats::median(&verify_us));
        self.metrics
            .set("core.crash_cycle.us.p50", stats::median(&cycle_us));
        self.metrics.set(
            "core.crash_cycle.us.p95",
            stats::percentile(&cycle_us, tail),
        );

        // The same cycles untraced and unverified: what the spans cost.
        if self.wants("crash_recover") {
            let t = Instant::now();
            for snap in &snaps {
                for i in 0..cycles {
                    let mut sim = Simulation::fork(snap);
                    let w0 = sim.writes_issued();
                    sim.replace_workload(shape::future_stream(sim.workload_len(), self.seed, i));
                    sim.arm_faults(FaultPlan::new().power_loss_at_write(shape::crash_point(i)));
                    while sim
                        .run(StopCondition::Writes(w0 + shape::CRASH_WRITES))
                        .reason
                        == StopReason::PowerLoss
                    {
                        sim.recover();
                    }
                    black_box(sim.writes_issued());
                }
            }
            total.engine_ns = t.elapsed().as_nanos() as u64;
        }
        self.log.set_workload("probe");
        total
    }

    // ----- mc: the pieces --------------------------------------------------

    fn mc_pieces(&mut self, s: &Streams) {
        let geo = geometry();
        let map = InterleaveMap::new(
            shape::BANKS as u64,
            Interleave::CacheLine.stripe_blocks(&geo),
        )
        .expect("eight banks, one line per stripe");
        let local = map
            .local_space(EXP_BLOCKS)
            .expect("the banks divide the chip");
        for (which, addrs) in [("uniform", &s.uniform), ("hot", &s.hot)] {
            self.probe_ns(
                &format!("mc.wbuf.admit.{which}.ns"),
                "mc",
                || WriteBuffer::new(32, EXP_BLOCKS),
                |wbuf| {
                    let mut acc = 0;
                    for a in addrs {
                        if let Some(line) = wbuf.admit(a.index()) {
                            acc ^= line;
                        }
                    }
                    black_box(acc);
                    addrs.len() as u64
                },
            );
            // Push what the buffer lets through into the eight bank
            // queues; a full queue is emptied, off the clock.
            let lines = evicted_lines(addrs);
            let name = metric(&format!("mc.queue.push.{which}.ns"));
            let ns = self.probe_with(
                name,
                "mc",
                || {
                    let queues: Vec<WriteQueue> = (0..shape::BANKS)
                        .map(|_| WriteQueue::new(64, local))
                        .collect();
                    (queues, Vec::<QueueEntry>::with_capacity(64))
                },
                |(queues, taken)| {
                    let started = Instant::now();
                    let mut emptying = 0;
                    for (tick, &line) in lines.iter().enumerate() {
                        let (bank, local) = map.split(line);
                        let q = &mut queues[bank as usize];
                        if q.is_full() {
                            let t = Instant::now();
                            q.take_into(taken);
                            emptying += t.elapsed().as_nanos() as u64;
                        }
                        q.push(local, tick as u64);
                    }
                    let ns = started.elapsed().as_nanos() as u64 - emptying;
                    (lines.len() as u64, Some(ns))
                },
            );
            self.metrics.set(name, ns);
        }

        // One full 64-entry batch handed over per call; the two clock
        // reads around the call are part of the number.
        let name = metric("mc.queue.take_into.ns");
        let rounds = (self.n() / 64) as u64;
        let ns = self.probe_with(
            name,
            "mc",
            || {
                (
                    WriteQueue::new(64, local),
                    Vec::<QueueEntry>::with_capacity(64),
                )
            },
            |(q, taken)| {
                let mut clocked = 0;
                for round in 0..rounds {
                    for i in 0..64 {
                        q.push((round * 64 + i) % local, round);
                    }
                    let t = Instant::now();
                    q.take_into(taken);
                    clocked += t.elapsed().as_nanos() as u64;
                    black_box(&taken);
                }
                (rounds, Some(clocked))
            },
        );
        self.metrics.set(name, ns);

        self.probe_ns(
            "mc.steer.note_flush.ns",
            "mc",
            || Steering::new(shape::BANKS, 4096),
            |steer| {
                for i in 0..rounds as usize {
                    steer.note_flush(i % shape::BANKS, (i / 7) % shape::BANKS, 64);
                }
                black_box(steer.rotations());
                rounds
            },
        );

        // 64-entry batches, in the order the queues would have filled.
        let mut filling: Vec<Vec<u64>> = vec![Vec::new(); shape::BANKS];
        let mut batches: Vec<(usize, Vec<u64>)> = Vec::new();
        for a in &s.uniform {
            let (bank, local) = map.split(a.index());
            let batch = &mut filling[bank as usize];
            batch.push(local);
            if batch.len() == 64 {
                batches.push((
                    bank as usize,
                    std::mem::replace(batch, Vec::with_capacity(64)),
                ));
            }
        }
        self.probe_ns(
            "mc.bank.drain.ns",
            "mc",
            || shape::bank_frontend(shape::BANKS),
            |mc| {
                let banks = mc.banks_mut();
                for (bank, batch) in &batches {
                    banks[*bank].drain(batch);
                }
                64 * batches.len() as u64
            },
        );
    }

    // ----- mc: the front-end whole -----------------------------------------

    /// `submit` per request over `banks` banks, twice through `addrs`, then
    /// `finish`: ns per request, ms of the `finish`, and the outcome.
    fn submit(
        &mut self,
        span: &'static str,
        banks: usize,
        addrs: &[AppAddr],
    ) -> (f64, f64, McOutcome) {
        const PASSES: usize = 2;
        let mut finish_ms = Vec::new();
        let mut outcome = None;
        let ns = self.probe_with(
            span,
            "mc",
            || shape::bank_frontend(banks),
            |mc: &mut McFrontend| {
                let t = Instant::now();
                mc.with_pipeline(|mc| {
                    for _ in 0..PASSES {
                        for a in addrs {
                            mc.submit(a.index());
                        }
                    }
                });
                let submitting = t.elapsed();
                let out = mc.finish();
                finish_ms.push((t.elapsed() - submitting).as_secs_f64() * 1e3);
                assert!(out.conserves_writes() && out.dropped == 0);
                outcome = Some(out);
                (
                    (PASSES * addrs.len()) as u64,
                    Some(submitting.as_nanos() as u64),
                )
            },
        );
        let outcome = outcome.expect("the probe ran");
        (ns, stats::median(&finish_ms), outcome)
    }

    fn mc_whole(&mut self, s: &Streams) {
        for (name, banks) in [("mc.submit.b1.ns", 1), ("mc.submit.b64.ns", 64)] {
            let (ns, _, _) = self.submit(name, banks, &s.uniform);
            self.metrics.set(name, ns);
        }
        let (uniform_ns, finish_ms, uniform) =
            self.submit("mc.submit.b8.ns", shape::BANKS, &s.uniform);
        self.metrics.set("mc.submit.b8.ns", uniform_ns);
        self.metrics.set("mc.finish.ms", finish_ms);
        // The hot run has no metric of its own: it feeds the derived self
        // time and the counts.
        let (hot_ns, _, hot) = self.submit("mc.submit.b8.hot", shape::BANKS, &s.hot);
        let drain = self.get("mc.bank.drain.ns");
        for (which, ns, out) in [("uniform", uniform_ns, &uniform), ("hot", hot_ns, &hot)] {
            let issued_share = out.issued as f64 / out.requests as f64;
            self.metrics.set(
                metric(&format!("mc.frontend_self.{which}.ns")),
                ns - issued_share * drain,
            );
            for (count, value) in [
                ("absorbed", out.absorbed as f64),
                ("coalesced", out.coalesced as f64),
                ("issued", out.issued as f64),
                ("drains", out.drains as f64),
                ("batch_len_mean", out.issued as f64 / out.drains as f64),
            ] {
                self.metrics
                    .set(metric(&format!("mc.{count}.{which}")), value);
            }
        }
        self.metrics.set(
            "mc.wbuf.hit_ratio.hot",
            hot.absorbed as f64 / hot.requests as f64,
        );
        self.metrics.set(
            "mc.queue.coalesce_ratio.hot",
            hot.coalesced as f64 / (hot.coalesced + hot.issued) as f64,
        );
    }

    // ----- base ------------------------------------------------------------

    fn base(&mut self) {
        let values: Vec<u64> = (0..64).collect();
        let rounds = (self.n() / 64) as u64;
        self.probe_ns(
            "base.spsc.push_pop.ns",
            "base",
            || (spsc::ring(4096), Vec::with_capacity(64)),
            |((producer, consumer), out)| {
                for _ in 0..rounds {
                    assert_eq!(producer.push_slice(&values), 64);
                    out.clear();
                    consumer.pop_into(out);
                    black_box(&out);
                }
                64 * rounds
            },
        );
        // The one measurement with a second thread: a producer thread
        // feeds the ring, this thread drains it.
        self.probe_ns(
            "base.spsc.handoff.ns",
            "base",
            || spsc::ring(4096),
            |(producer, consumer)| {
                let total = 64 * rounds as usize;
                std::thread::scope(|scope| {
                    let feeder = scope.spawn(|| {
                        let mut sent = 0;
                        while sent < total {
                            let pushed =
                                producer.push_slice(&values[..values.len().min(total - sent)]);
                            if pushed == 0 {
                                std::thread::yield_now();
                            }
                            sent += pushed;
                        }
                    });
                    let mut out = Vec::with_capacity(4096);
                    let mut got = 0;
                    while got < total {
                        out.clear();
                        let popped = consumer.pop_into(&mut out);
                        if popped == 0 {
                            std::thread::yield_now();
                        }
                        got += popped;
                    }
                    feeder.join().expect("the feeder only pushes");
                });
                total as u64
            },
        );
    }

    // ----- compositions ----------------------------------------------------

    /// `healthy_stream` from its pieces: generate a slab of addresses,
    /// translate it, write it through the controller. Must leave the chip
    /// exactly as `Simulation::run` over the same writes does.
    fn compose_healthy(&mut self) -> Composed {
        self.log.set_workload("healthy_stream");
        let slabs = self.scaled(COMPOSE_SLABS);
        let mut total = Composed::default();
        for (stack, _) in STACKS {
            let mut sim = shape::healthy_sim(stack, shape::ocean(self.seed));
            let mut stream = shape::ocean(self.seed);
            let mut addrs: Vec<AppAddr> = Vec::with_capacity(SLAB);
            let mut pas: Vec<Pa> = Vec::with_capacity(SLAB);
            for slab in 0..slabs {
                let root = self.log.open(None, "slab", "bench");
                self.log
                    .within(Some(root), "trace.next_write", "trace", SLAB as u64, || {
                        addrs.clear();
                        for _ in 0..SLAB {
                            addrs.push(stream.next_write());
                        }
                    });
                self.log
                    .within(Some(root), "os.translate", "os", SLAB as u64, || {
                        let os = sim.os();
                        pas.clear();
                        for &a in &addrs {
                            pas.push(os.translate_or_redirect(a).expect("no page retires"));
                        }
                    });
                self.log
                    .within(Some(root), "core.ctl_write", "core", SLAB as u64, || {
                        ctl_write_all(&mut sim, &pas, (slab * SLAB) as u64 + 1)
                    });
                total.composed_ns += self.log.close(root, SLAB as u64);
            }
            let writes = (slabs * SLAB) as u64;
            total.ops += writes;
            let mut engine = shape::healthy_sim(stack, shape::ocean(self.seed));
            let t = Instant::now();
            let out = engine.run(StopCondition::Writes(writes));
            total.engine_ns += t.elapsed().as_nanos() as u64;
            assert_eq!(out.reason, StopReason::ConditionMet);
            assert!(
                sim.controller().device().wear_snapshot()
                    == engine.controller().device().wear_snapshot(),
                "{stack}: the composed pipeline wore the chip differently from Simulation::run"
            );
        }
        total
    }

    /// A `bank_*` workload from its pieces: generate a slab, pass it
    /// through the write buffer, push what comes out into the bank queues
    /// and, whenever one fills, hand its batch to the bank. (The front-end
    /// also flushes batches by age; the composition does not.)
    fn compose_bank(&mut self, hot: bool) -> Composed {
        self.log
            .set_workload(if hot { "bank_hot" } else { "bank_uniform" });
        let requests = self.scaled(COMPOSE_SLABS) * SLAB;
        let mut stream: Box<dyn Workload> = if hot {
            Box::new(shape::hot(self.seed))
        } else {
            Box::new(shape::uniform(self.seed))
        };
        let mut mc = shape::bank_frontend(shape::BANKS);
        let map = *mc.map();
        let local = map
            .local_space(EXP_BLOCKS)
            .expect("the banks divide the chip");
        let mut wbuf = WriteBuffer::new(32, EXP_BLOCKS);
        let mut queues: Vec<WriteQueue> = (0..shape::BANKS)
            .map(|_| WriteQueue::new(64, local))
            .collect();
        let (mut addrs, mut lines) = (Vec::with_capacity(SLAB), Vec::with_capacity(SLAB));
        let (mut taken, mut batch): (Vec<QueueEntry>, Vec<u64>) = (Vec::new(), Vec::new());
        let mut composed_ns = 0;
        let mut tick = 0u64;
        // Empties queue `bank` into its bank, under the span `parent`.
        let mut flush = |log: &mut SpanLog,
                         queues: &mut [WriteQueue],
                         mc: &mut McFrontend,
                         parent,
                         bank: usize| {
            let n = queues[bank].len() as u64;
            log.within(Some(parent), "mc.queue.take_into", "mc", n, || {
                queues[bank].take_into(&mut taken)
            });
            batch.clear();
            batch.extend(taken.iter().map(|&(local, _)| local));
            log.within(Some(parent), "mc.bank.drain", "mc", n, || {
                mc.banks_mut()[bank].drain(&batch)
            });
        };
        for _ in 0..requests / SLAB {
            let root = self.log.open(None, "slab", "bench");
            self.log
                .within(Some(root), "trace.next_write", "trace", SLAB as u64, || {
                    addrs.clear();
                    for _ in 0..SLAB {
                        addrs.push(stream.next_write());
                    }
                });
            self.log
                .within(Some(root), "mc.wbuf.admit", "mc", SLAB as u64, || {
                    lines.clear();
                    lines.extend(addrs.iter().filter_map(|a| wbuf.admit(a.index())));
                });
            let push = self.log.open(Some(root), "mc.queue.push", "mc");
            for &line in &lines {
                tick += 1;
                let (bank, local) = map.split(line);
                if queues[bank as usize].is_full() {
                    flush(&mut self.log, &mut queues, &mut mc, push, bank as usize);
                }
                queues[bank as usize].push(local, tick);
            }
            self.log.close(push, lines.len() as u64);
            composed_ns += self.log.close(root, SLAB as u64);
        }
        // End of trace: the buffered lines and the partial batches.
        let root = self.log.open(None, "drain_tail", "bench");
        for line in wbuf.flush() {
            let (bank, local) = map.split(line);
            if queues[bank as usize].is_full() {
                flush(&mut self.log, &mut queues, &mut mc, root, bank as usize);
            }
            queues[bank as usize].push(local, tick);
        }
        for bank in 0..shape::BANKS {
            if !queues[bank].is_empty() {
                flush(&mut self.log, &mut queues, &mut mc, root, bank);
            }
        }
        composed_ns += self.log.close(root, 0);
        let issued: u64 = mc.banks().iter().map(|b| b.issued()).sum();
        let coalesced: u64 = queues.iter().map(WriteQueue::coalesced).sum();
        assert_eq!(
            wbuf.absorbed() + coalesced + issued,
            requests as u64,
            "the composed pipeline lost or invented a request"
        );

        let mut engine = shape::bank_frontend(shape::BANKS);
        let t = Instant::now();
        let out = if hot {
            engine.run(&mut shape::hot(self.seed), requests as u64)
        } else {
            engine.run(&mut shape::uniform(self.seed), requests as u64)
        };
        let engine_ns = t.elapsed().as_nanos() as u64;
        assert!(out.conserves_writes() && out.dropped == 0);
        Composed {
            ops: requests as u64,
            composed_ns,
            engine_ns,
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layers: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut t = Traced {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: args.seconds / REFERENCE_SECONDS,
        log: SpanLog::new("probe"),
        metrics: Metrics::new(),
    };
    let streams = t.trace_and_os();
    t.wl(&streams);
    t.pcm(&streams);
    t.controller_and_engine(&streams);
    let tail = t.tail();
    let crash = t.crash_cycles();
    t.mc_pieces(&streams);
    t.mc_whole(&streams);
    t.base();
    drop(streams);

    // The compositions asked for. The wear-out futures and the crash
    // cycles above are compositions already; the other three run now.
    let wanted: Vec<&str> = WORKLOADS.into_iter().filter(|w| t.wants(w)).collect();
    let composed: Vec<(&str, Composed)> = wanted
        .iter()
        .map(|&workload| {
            let c = match workload {
                "healthy_stream" => t.compose_healthy(),
                "wearout_tail" => tail,
                "bank_uniform" => t.compose_bank(false),
                "bank_hot" => t.compose_bank(true),
                "crash_recover" => crash,
                other => unreachable!("Args::parse admitted workload {other}"),
            };
            (workload, c)
        })
        .collect();

    println!(
        "layers seed {} compositions {} spans {}",
        args.seed,
        wanted.join(","),
        t.log.spans().len()
    );
    t.metrics.print(PER_LAYER);
    for (workload, c) in &composed {
        println!(
            "compose.ns_per_op.{workload} {} ns ({} operations)",
            Value::Num(c.ns_per_op()),
            c.ops
        );
        println!(
            "compose.engine.ns_per_op.{workload} {} ns",
            Value::Num(c.engine_ns_per_op())
        );
        println!("compose_gap_pct.{workload} {} %", Value::Num(c.gap_pct()));
    }
    // Self time: a span's duration minus what its children cover.
    let mut self_time = Vec::new();
    for ((workload, name), st) in t.log.self_by_name() {
        if workload == "probe" {
            continue;
        }
        let per_op = st.self_ns as f64 / st.ops.max(1) as f64;
        println!(
            "self {workload} {name} {} ns/op ({} spans, {} ops)",
            Value::Num(per_op),
            st.spans,
            st.ops
        );
        self_time.push(Value::obj([
            ("workload", Value::str(workload)),
            ("name", Value::str(name)),
            ("spans", Value::Int(st.spans)),
            ("self_ns", Value::Int(st.self_ns)),
            ("ops", Value::Int(st.ops)),
        ]));
    }

    let mut result = None;
    if let [(_, c)] = composed[..] {
        t.metrics.set("compose.ns_per_op", c.ns_per_op());
        t.metrics
            .set("compose.engine.ns_per_op", c.engine_ns_per_op());
        t.metrics.set("compose_gap_pct", c.gap_pct());
        // Every assertion above held, or the run would have panicked:
        // each probe repetition counts as one operation attempted.
        let probes = t
            .log
            .spans()
            .iter()
            .filter(|s| s.workload == "probe")
            .count();
        result = Some(wlr_benchmark::result_line(
            true,
            probes as u64,
            0,
            t.metrics.to_json(PER_LAYER),
        ));
    }
    let detail = Value::obj([
        ("workload", Value::str(args.workload.as_str())),
        ("seed", Value::Int(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("machine", wlr_benchmark::machine()),
        ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
        ("metrics", t.metrics.to_json_present(PER_LAYER)),
        (
            "compose",
            Value::obj(composed.iter().map(|(workload, c)| {
                (
                    *workload,
                    Value::obj([
                        ("ns_per_op", Value::Num(c.ns_per_op())),
                        ("engine_ns_per_op", Value::Num(c.engine_ns_per_op())),
                        ("gap_pct", Value::Num(c.gap_pct())),
                        ("ops", Value::Int(c.ops)),
                    ]),
                )
            })),
        ),
        ("self_time", Value::Arr(self_time)),
    ]);
    let written = wlr_benchmark::write_detail(&args.out, "layers.json", &detail).and_then(|()| {
        let file = std::fs::File::create(args.out.join("spans.jsonl"))?;
        let mut out = std::io::BufWriter::new(file);
        t.log.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = written {
        eprintln!("layers: cannot write under {}: {e}", args.out.display());
        std::process::exit(1);
    }
    if let Some(result) = result {
        println!("{result}");
    }
}
