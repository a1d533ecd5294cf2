//! The trace-driven simulation loop.
//!
//! [`Simulation`] wires a workload ([`wlr_trace::Workload`]), the OS model
//! ([`wlr_os::OsMemory`]), a memory controller
//! ([`crate::controller::Controller`]) and the PCM device into the
//! evaluation loop of §IV: software issues writes by application address,
//! the OS translates them, the controller serves them under wear leveling
//! and (optionally) failure revival, and failure reports/page requests
//! flow back through the OS — whose retirement copies are themselves
//! performed through the controller so they wear the PCM.
//!
//! The simulation records a [`crate::metrics::TimeSeries`] and stops on a
//! [`StopCondition`]; an optional integrity oracle tracks the expected
//! content of every application block and cross-checks reads.

use crate::controller::{Controller, WriteResult};
use crate::metrics::{SamplePoint, TimeSeries};
use crate::recovery::RecoveryReport;
use crate::registry::{SchemeRegistry, StackSpec};
use crate::reviver::{ReviverCounters, TraceRingSink};
use wlr_base::dense::DenseMap;
use wlr_base::rng::Rng;
use wlr_base::{AppAddr, Geometry, Pa};
use wlr_os::OsMemory;
use wlr_pcm::{Ecp, ErrorCorrection, FaultPlan, Payg};
use wlr_trace::{UniformWorkload, Workload};
use wlr_wl::RandomizerKind;

/// Which error-correction scheme to configure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EccKind {
    /// ECP with `k` entries per block (the paper's base is ECP6).
    Ecp(u32),
    /// PAYG with a pool of `ratio` entries per block (paper default 0.77).
    Payg {
        /// Global pool entries per block.
        ratio: f64,
    },
}

/// When to stop a run. The run also always stops if the application's
/// memory is exhausted (no pages left) or a hard write cap is reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// After this many software writes.
    Writes(u64),
    /// When the fraction of dead software-visible blocks reaches this
    /// value (Figure 5 uses 0.30).
    DeadFraction(f64),
    /// When software-usable space drops to this fraction of the PCM.
    UsableBelow(f64),
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The requested [`StopCondition`] was met.
    ConditionMet,
    /// All application pages were dropped: the memory is gone.
    MemoryExhausted,
    /// The safety cap on total writes was hit.
    HardCap,
    /// An injected power loss cut the run short. Call
    /// [`Simulation::recover`] to restore power, rebuild the controller's
    /// volatile state, and continue running.
    PowerLoss,
}

/// Final state of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Software writes issued.
    pub writes_issued: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Final survival fraction of visible blocks.
    pub survival: f64,
    /// Final usable-space fraction.
    pub usable: f64,
}

/// Builder for [`Simulation`]; see [`Simulation::builder`].
#[derive(Debug)]
pub struct SimulationBuilder {
    num_blocks: u64,
    block_bytes: u64,
    page_bytes: u64,
    endurance_mean: f64,
    endurance_cov: f64,
    ecc: EccKind,
    stack: &'static StackSpec,
    freep_reserve_frac: Option<f64>,
    gap_interval: u64,
    cache_bytes: Option<usize>,
    os_reserve_pages: u64,
    sample_interval: u64,
    seed: u64,
    workload: Option<Box<dyn Workload>>,
    verify_integrity: bool,
    check_invariants: bool,
    hard_cap: u64,
    sg_randomizer: Option<RandomizerKind>,
    sg_tiles: u64,
    reviver_pointer_bytes: u64,
    reviver_chain_switching: bool,
    reviver_proactive: bool,
    fault_plan: Option<FaultPlan>,
    trace_ring: Option<usize>,
}

impl SimulationBuilder {
    /// Total PCM capacity in blocks (default 2¹⁶ = 4 MB of 64 B blocks).
    /// FREE-p's pre-reserve is carved out of this.
    pub fn num_blocks(mut self, blocks: u64) -> Self {
        self.num_blocks = blocks;
        self
    }

    /// Mean cell endurance in writes (default 10⁴; the paper's chip is
    /// 10⁸ — see DESIGN.md §3.2 on scaling).
    pub fn endurance_mean(mut self, mean: f64) -> Self {
        self.endurance_mean = mean;
        self
    }

    /// Cell-lifetime CoV (default 0.2, as in the paper).
    pub fn endurance_cov(mut self, cov: f64) -> Self {
        self.endurance_cov = cov;
        self
    }

    /// Error-correction scheme (default ECP6).
    pub fn ecc(mut self, ecc: EccKind) -> Self {
        self.ecc = ecc;
        self
    }

    /// Controller stack by registry name (e.g. `"reviver-sg"`,
    /// `"softwear-wlr"`) or report title (e.g. `"ReviverStartGap"`);
    /// default `"reviver-sg"`. Callers needing graceful errors resolve
    /// through [`SchemeRegistry::resolve`] themselves and pass the
    /// spec's name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name, listing the valid stacks.
    pub fn stack(mut self, name: &str) -> Self {
        self.stack = SchemeRegistry::global().expect(name);
        self
    }

    /// Fraction of the total PCM that FREE-p pre-reserves for remapping
    /// (Figure 7 sweeps it; default: the stack's own, 10% for `"freep"`).
    /// [`Self::build`] panics if the selected stack has no pre-reserve.
    pub fn freep_reserve_frac(mut self, frac: f64) -> Self {
        self.freep_reserve_frac = Some(frac);
        self
    }

    /// ψ: writes per leveler migration step — a Start-Gap gap movement, a
    /// Security Refresh swap, a SoftWear hot↔cold swap (default 100, as
    /// in the paper).
    pub fn gap_interval(mut self, psi: u64) -> Self {
        self.gap_interval = psi;
        self
    }

    /// Remap cache size in bytes (Table II uses 32 KB; default none).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// OS free-page reserve (default 0).
    pub fn os_reserve_pages(mut self, pages: u64) -> Self {
        self.os_reserve_pages = pages;
        self
    }

    /// Writes between time-series samples (default: visible blocks / 4,
    /// clamped to at least 1024).
    pub fn sample_interval(mut self, writes: u64) -> Self {
        self.sample_interval = writes;
        self
    }

    /// Experiment seed; drives cell lifetimes, keys, and the default
    /// workload.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The write workload. Its address space must equal the application
    /// space (`visible blocks − OS reserve`); defaults to uniform writes.
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// As [`Self::workload`] for an already-boxed trait object.
    pub fn workload_boxed(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Enables the data-integrity oracle: every application block's
    /// expected content is tracked and reads are cross-checked (costs
    /// memory and time; used by the tests).
    pub fn verify_integrity(mut self, on: bool) -> Self {
        self.verify_integrity = on;
        self
    }

    /// Enables WL-Reviver's Theorem 1–3 assertions per request (tests).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Safety cap on total writes (default 10¹²).
    pub fn hard_cap(mut self, writes: u64) -> Self {
        self.hard_cap = writes;
        self
    }

    /// Overrides Start-Gap's static randomizer (default: Feistel seeded
    /// by the experiment seed). Ablation knob.
    pub fn sg_randomizer(mut self, kind: RandomizerKind) -> Self {
        self.sg_randomizer = Some(kind);
        self
    }

    /// Tile count for the `"reviver-tiled"` stack (default 16).
    pub fn sg_tiles(mut self, tiles: u64) -> Self {
        self.sg_tiles = tiles;
        self
    }

    /// WL-Reviver pointer width in bytes (sizes the inverse-pointer
    /// section; default 4). Ablation knob.
    pub fn reviver_pointer_bytes(mut self, bytes: u64) -> Self {
        self.reviver_pointer_bytes = bytes;
        self
    }

    /// Disables WL-Reviver's one-step-chain switching (ablation).
    pub fn reviver_chain_switching(mut self, on: bool) -> Self {
        self.reviver_chain_switching = on;
        self
    }

    /// Enables WL-Reviver's proactive page acquisition (the §III-A
    /// alternative; ablation).
    pub fn reviver_proactive(mut self, on: bool) -> Self {
        self.reviver_proactive = on;
        self
    }

    /// Attaches a bounded [`TraceRingSink`] of `events` capacity to a
    /// WL-Reviver controller, retaining the newest events for post-mortem
    /// dumps ([`Simulation::trace_dump`]) after a power loss or an
    /// invariant violation. Ignored by non-reviver schemes.
    pub fn trace_ring(mut self, events: usize) -> Self {
        self.trace_ring = Some(events);
        self
    }

    /// Installs a fault-injection schedule on the device (power losses,
    /// silent write failures, transient read errors). An empty plan is
    /// equivalent to none: the fault machinery stays entirely out of the
    /// hot path and runs are bit-identical to fault-free ones.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// `(visible, reserved)` blocks: the total minus any FREE-p
    /// pre-reserve, page-aligned.
    fn visible_and_reserve(&self) -> (u64, u64) {
        assert!(
            self.freep_reserve_frac.is_none() || self.stack.reserve_frac.is_some(),
            "stack {:?} has no pre-reserve for freep_reserve_frac to size",
            self.stack.name
        );
        let bpp = self.page_bytes / self.block_bytes;
        let (visible, reserve) = match self.freep_reserve_frac.or(self.stack.reserve_frac) {
            Some(frac) => {
                assert!(
                    (0.0..1.0).contains(&frac),
                    "reserve fraction must be in [0,1)"
                );
                let reserve_pages = ((self.num_blocks as f64 * frac) / bpp as f64).round() as u64;
                (self.num_blocks - reserve_pages * bpp, reserve_pages * bpp)
            }
            None => (self.num_blocks - self.num_blocks % bpp, 0),
        };
        assert!(visible >= bpp, "no visible space left after reservation");
        (visible, reserve)
    }

    /// The application address space this configuration will present —
    /// visible blocks minus the OS reserve — which is the length the
    /// [workload](Self::workload) must have.
    ///
    /// # Panics
    ///
    /// As [`Self::build`] on an inconsistent reserve configuration.
    pub fn app_blocks(&self) -> u64 {
        let bpp = self.page_bytes / self.block_bytes;
        self.visible_and_reserve().0 - self.os_reserve_pages * bpp
    }

    /// Constructs the simulation.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (mismatched workload size,
    /// invalid geometry, reserve fractions outside `[0, 1)`, or
    /// [`Self::freep_reserve_frac`] on a stack without a pre-reserve).
    pub fn build(self) -> Simulation {
        let bpp = self.page_bytes / self.block_bytes;
        let (visible, reserve_blocks) = self.visible_and_reserve();
        let geo = Geometry::builder()
            .block_bytes(self.block_bytes)
            .page_bytes(self.page_bytes)
            .num_blocks(visible)
            .build()
            .expect("geometry parameters are validated above");

        let ecc: Box<dyn ErrorCorrection> = match self.ecc {
            EccKind::Ecp(k) => Box::new(Ecp::new(k)),
            EccKind::Payg { ratio } => Box::new(Payg::with_ratio(self.num_blocks, ratio)),
        };

        let fault_active = self.fault_plan.as_ref().is_some_and(|p| !p.is_empty());
        let feistel = self
            .sg_randomizer
            .unwrap_or(RandomizerKind::Feistel { seed: self.seed });

        // All stack construction lives in the scheme registry; the builder
        // only prepares the context (knobs + one-shot device ingredients).
        let mut ctx = crate::registry::StackCtx::new(
            visible,
            reserve_blocks,
            bpp,
            crate::registry::DeviceParts {
                geo,
                endurance_mean: self.endurance_mean,
                endurance_cov: self.endurance_cov,
                track_contents: self.verify_integrity,
                ecc,
                fault_plan: self.fault_plan,
            },
        );
        ctx.gap_interval = self.gap_interval;
        ctx.cache_bytes = self.cache_bytes;
        ctx.seed = self.seed;
        ctx.sg_randomizer = feistel;
        ctx.sg_tiles = self.sg_tiles;
        ctx.check_invariants = self.check_invariants;
        ctx.reviver_pointer_bytes = self.reviver_pointer_bytes;
        ctx.reviver_chain_switching = self.reviver_chain_switching;
        ctx.reviver_proactive = self.reviver_proactive;

        let mut controller = self.stack.build_stack(&mut ctx);
        if let Some(r) = controller.as_reviver_mut() {
            if let Some(cap) = self.trace_ring {
                r.add_sink(Box::new(TraceRingSink::new(cap)));
            }
            // Heavyweight JSONL tracing: compiled in only with the
            // `trace-events` feature, armed per run via WLR_TRACE_EVENTS
            // (the path to write).
            #[cfg(feature = "trace-events")]
            if let Ok(path) = std::env::var("WLR_TRACE_EVENTS") {
                if !path.is_empty() {
                    match crate::reviver::JsonlSink::create(&path) {
                        Ok(sink) => r.add_sink(Box::new(sink)),
                        Err(e) => eprintln!("WLR_TRACE_EVENTS: cannot open {path}: {e}"),
                    }
                }
            }
        }

        let os = OsMemory::builder(geo)
            .reserve_pages(self.os_reserve_pages)
            .build();
        let app_blocks = os.app_blocks();
        let workload = match self.workload {
            Some(w) => {
                assert_eq!(
                    w.len(),
                    app_blocks,
                    "workload space ({}) must equal the application space ({app_blocks})",
                    w.len()
                );
                w
            }
            None => Box::new(UniformWorkload::new(app_blocks, self.seed)),
        };

        let sample_interval = if self.sample_interval == 0 {
            (visible / 4).max(1024)
        } else {
            self.sample_interval
        };

        Simulation {
            geo,
            os,
            controller,
            workload,
            writes_issued: 0,
            seq: 0,
            series: TimeSeries::new(),
            sample_interval,
            last_req: (0, 0),
            next_sample: sample_interval,
            expected: if self.verify_integrity {
                Some(Oracle::with_capacity(app_blocks))
            } else {
                None
            },
            verify_rng: Rng::stream(self.seed, 0x07AC1E),
            integrity_errors: 0,
            retirements: 0,
            grants: 0,
            lost_writes: 0,
            hard_cap: self.hard_cap,
            fault_active,
            silent_seen: 0,
        }
    }
}

/// A configured, runnable simulation. See the crate-level example.
#[derive(Debug)]
pub struct Simulation {
    geo: Geometry,
    os: OsMemory,
    controller: Box<dyn Controller>,
    workload: Box<dyn Workload>,
    writes_issued: u64,
    seq: u64,
    series: TimeSeries,
    sample_interval: u64,
    /// `(requests, accesses)` at the previous sample, for windowed
    /// average access time.
    last_req: (u64, u64),
    /// Next write count at which to record a sample. Always strictly
    /// ahead of `writes_issued`; advanced by `sample_interval` each time.
    next_sample: u64,
    /// Integrity oracle: app address → expected tag.
    expected: Option<Oracle>,
    verify_rng: Rng,
    integrity_errors: u64,
    retirements: u64,
    /// Pages granted to the controller (`on_page_retired` calls). Watched
    /// by the batched run loop: together with `retirements` it covers
    /// every way `usable_fraction` can change.
    grants: u64,
    lost_writes: u64,
    hard_cap: u64,
    /// Whether a non-empty fault plan is installed. Gates every piece of
    /// fault bookkeeping (OS snapshots, exemptions, power polling) so
    /// fault-free runs stay bit-identical to the seed engine.
    fault_active: bool,
    /// Silent-failure log entries already reconciled with the oracle.
    silent_seen: usize,
}

/// A frozen image of a [`Simulation`] at one instant, produced by
/// [`Simulation::snapshot`] and instantiated (any number of times) by
/// [`Simulation::fork`].
///
/// The image is self-contained: it owns deep copies of the device, the
/// leveler, the OS page tables, the workload stream position, and every
/// RNG stream, so the original simulation and all forks evolve fully
/// independently. See `DESIGN.md` ("Snapshot/fork") for exactly what is
/// and is not captured.
#[derive(Debug)]
pub struct SimSnapshot {
    geo: Geometry,
    os: OsMemory,
    controller: Box<dyn Controller>,
    workload: Box<dyn Workload>,
    writes_issued: u64,
    seq: u64,
    series: TimeSeries,
    sample_interval: u64,
    last_req: (u64, u64),
    next_sample: u64,
    expected: Option<Oracle>,
    verify_rng: Rng,
    integrity_errors: u64,
    retirements: u64,
    grants: u64,
    lost_writes: u64,
    hard_cap: u64,
    fault_active: bool,
    silent_seen: usize,
}

impl SimSnapshot {
    /// Software writes the captured run had issued at snapshot time.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }
}

/// The integrity oracle's store: a dense app-address → tag table plus an
/// incrementally-maintained sorted key list. The seed-state engine
/// re-sorted the key set at every sample to make verification traffic
/// deterministic; keeping the list sorted across inserts (most writes hit
/// an existing key and touch only the table) preserves the exact same
/// pick sequence at O(log n) amortized instead of O(n log n) per sample.
#[derive(Debug, Clone)]
struct Oracle {
    map: DenseMap<u64>,
    /// The present keys in ascending order, kept in lockstep with `map`.
    keys: Vec<u64>,
}

impl Oracle {
    fn with_capacity(capacity: u64) -> Self {
        Oracle {
            map: DenseMap::with_capacity(capacity),
            keys: Vec::new(),
        }
    }

    fn insert(&mut self, k: u64, v: u64) {
        if self.map.insert(k, v).is_none() {
            let pos = self.keys.binary_search(&k).unwrap_err();
            self.keys.insert(pos, k);
        }
    }

    fn remove(&mut self, k: u64) {
        if self.map.remove(k).is_some() {
            let pos = self
                .keys
                .binary_search(&k)
                .expect("oracle key list out of sync");
            self.keys.remove(pos);
        }
    }
}

/// How an externally-driven write batch ([`Simulation::run_batch`])
/// ended. `consumed` counts the batch's addresses actually issued
/// (including the one that tripped the exceptional outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every address in the batch was issued.
    Completed,
    /// The application's memory ran out mid-batch; the remaining
    /// addresses were not issued.
    MemoryExhausted {
        /// Addresses issued before (and including) the exhausting write.
        consumed: u64,
    },
    /// An injected power loss fired mid-batch; call
    /// [`Simulation::recover`] before issuing more writes.
    PowerLoss {
        /// Addresses issued before the lights went out.
        consumed: u64,
    },
    /// The safety cap on total writes was hit; the remaining addresses
    /// were not issued.
    HardCap {
        /// Addresses issued before the cap.
        consumed: u64,
    },
}

/// What an application-level read ([`Simulation::read_app`]) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppRead {
    /// The line was mapped and read cleanly; the payload is its content
    /// tag (0 unless content tracking is on).
    Ok(u64),
    /// The address is not currently mapped by the OS.
    Unmapped,
    /// An injected transient error fired and the block's ECC could not
    /// absorb it. Retryable — the next read of the same line consults the
    /// fault schedule afresh.
    Transient,
}

/// What a single step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    Serviced,
    /// Integrity mode only: the write's page was gone, the data was
    /// dropped. Such a write never records a sample (the seed-state
    /// engine returned before its sample check).
    Discarded,
    Exhausted,
    /// An injected power loss fired during this write: the device is
    /// dropping all writes until [`Simulation::recover`] runs.
    PowerLost,
}

impl Simulation {
    /// Starts building a simulation with the scaled default configuration
    /// (see DESIGN.md §6).
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            num_blocks: 1 << 16,
            block_bytes: 64,
            page_bytes: 4096,
            endurance_mean: 1e4,
            endurance_cov: 0.2,
            ecc: EccKind::Ecp(6),
            stack: SchemeRegistry::global().expect("reviver-sg"),
            freep_reserve_frac: None,
            gap_interval: 100,
            cache_bytes: None,
            os_reserve_pages: 0,
            sample_interval: 0,
            seed: 0,
            workload: None,
            verify_integrity: false,
            check_invariants: false,
            hard_cap: 1_000_000_000_000,
            sg_randomizer: None,
            sg_tiles: 16,
            reviver_pointer_bytes: 4,
            reviver_chain_switching: true,
            reviver_proactive: false,
            fault_plan: None,
            trace_ring: None,
        }
    }

    /// The software-visible geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The controller under test.
    pub fn controller(&self) -> &dyn Controller {
        self.controller.as_ref()
    }

    /// Mutable controller access (for measurement-window scoping).
    pub fn controller_mut(&mut self) -> &mut dyn Controller {
        self.controller.as_mut()
    }

    /// The OS model.
    pub fn os(&self) -> &OsMemory {
        &self.os
    }

    /// Mutable OS access — restore paths (replaying a persisted
    /// retirement log into a fresh sim) and page-pressure experiments.
    pub fn os_mut(&mut self) -> &mut OsMemory {
        &mut self.os
    }

    /// WL-Reviver event counters, when the controller is a reviver.
    pub fn reviver_counters(&self) -> Option<ReviverCounters> {
        self.controller.as_reviver().map(|r| r.counters())
    }

    /// Renders the retained trace-ring window as JSON lines, when a ring
    /// was attached ([`SimulationBuilder::trace_ring`]). The post-mortem
    /// companion to [`StopReason::PowerLoss`].
    pub fn trace_dump(&self) -> Option<String> {
        self.controller
            .as_reviver()
            .and_then(|r| r.sink::<TraceRingSink>())
            .map(TraceRingSink::dump)
    }

    /// Software writes issued so far.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }

    /// Recorded metric series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Page retirements observed (all causes).
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Writes whose data could not be placed anywhere (page dropped with
    /// no replacement, or cascades that gave up).
    pub fn lost_writes(&self) -> u64 {
        self.lost_writes
    }

    /// Integrity-oracle violations observed (0 in a correct system).
    pub fn integrity_errors(&self) -> u64 {
        self.integrity_errors
    }

    /// Current usable fraction of the PCM: visible minus retired pages,
    /// over visible plus controller reserves.
    pub fn usable_fraction(&self) -> f64 {
        let bpp = self.geo.blocks_per_page();
        let visible = self.geo.num_blocks() as f64;
        let retired = (self.os.retired_pages() * bpp) as f64;
        let total = visible + self.controller.reserved_blocks() as f64;
        ((visible - retired) / total).max(0.0)
    }

    /// Wear-distribution quality over the software-visible blocks.
    pub fn wear_report(&self) -> crate::metrics::WearReport {
        let n = self.geo.num_blocks() as usize;
        crate::metrics::WearReport::from_wear(&self.controller.device().wear_snapshot()[..n])
    }

    /// Current survival fraction of visible blocks.
    pub fn survival_fraction(&self) -> f64 {
        1.0 - self.controller.visible_dead_fraction()
    }

    /// Issues exactly one software write drawn from the workload.
    /// Sampling lives in [`Self::maybe_sample`], called by the batched
    /// [`Self::run`] loop.
    fn step(&mut self) -> StepOutcome {
        let addr = self.workload.next_write();
        self.step_addr(addr)
    }

    /// Issues exactly one software write of `addr`, bypassing the
    /// workload — the multi-bank front-end drives each bank's simulation
    /// by queued address through this path.
    fn step_addr(&mut self, addr: AppAddr) -> StepOutcome {
        self.writes_issued += 1;
        self.seq += 1;
        let tag = self.seq;
        // In integrity mode, writes to dropped pages are discarded rather
        // than redirected: a redirect shares a victim page's blocks between
        // two application addresses, which the oracle cannot model (and
        // which real compaction would resolve with separate storage).
        let translated = if self.expected.is_some() {
            if self.os.mapped_app_pages() == 0 {
                None
            } else {
                let t = self.os.translate(addr);
                if t.is_none() {
                    self.lost_writes += 1;
                    return StepOutcome::Discarded;
                }
                t
            }
        } else {
            self.os.translate_or_redirect(addr)
        };
        let Some(pa) = translated else {
            return StepOutcome::Exhausted;
        };
        let placed = self.pa_write(pa, tag, 0);
        if self.fault_active && self.controller.device().power_lost() {
            // The in-flight write is torn by definition: neither its old
            // nor its new content is promised across the crash, so the
            // oracle stops tracking the address (it resumes on the next
            // post-recovery write).
            if let Some(oracle) = &mut self.expected {
                oracle.remove(addr.index());
            }
            self.reconcile_silent_failures();
            return StepOutcome::PowerLost;
        }
        if let Some(oracle) = &mut self.expected {
            // The data survives iff the address still translates (its page
            // was kept or relocated with copies) — and, under fault
            // injection, iff the write actually landed somewhere.
            if self.os.translate(addr).is_some() && (placed || !self.fault_active) {
                oracle.insert(addr.index(), tag);
            } else {
                oracle.remove(addr.index());
            }
        }
        if self.fault_active {
            self.reconcile_silent_failures();
        }
        StepOutcome::Serviced
    }

    /// Records a sample (and oracle spot-checks) if `writes_issued` has
    /// reached the next sample boundary. `discarded` suppresses the
    /// recording but still advances the boundary, matching the seed-state
    /// engine, whose discarded writes skipped the sample check entirely.
    fn maybe_sample(&mut self, discarded: bool) {
        if self.writes_issued < self.next_sample {
            return;
        }
        while self.next_sample <= self.writes_issued {
            let n = self.next_sample.saturating_add(self.sample_interval);
            if n == self.next_sample {
                break; // interval so large the boundary saturated
            }
            self.next_sample = n;
        }
        if !discarded {
            self.record_sample();
            if self.expected.is_some() {
                self.verify_some(32);
            }
        }
    }

    /// Writes `tag` to `pa`, playing the OS on failure reports and page
    /// requests. Retirement copies recurse (bounded by `depth`). Returns
    /// whether the data ended up stored somewhere (always ignored in
    /// fault-free runs, whose oracle keys off translation alone).
    fn pa_write(&mut self, pa: Pa, tag: u64, depth: u8) -> bool {
        if depth > 8 {
            self.lost_writes += 1;
            return false;
        }
        let first = self.controller.write(pa, tag);
        self.pa_write_rest(first, pa, tag, depth)
    }

    /// The write-retry protocol given the first attempt's result —
    /// split out so the steady-state batch loop can issue the first
    /// controller write itself and only pay for this on failure. Handles
    /// up to 4 write attempts in total, exactly like the historical
    /// single-function loop.
    fn pa_write_rest(&mut self, first: WriteResult, pa: Pa, tag: u64, depth: u8) -> bool {
        let mut res = first;
        let mut attempts = 1u8;
        loop {
            match res {
                WriteResult::Ok => return true,
                WriteResult::ReportFailure(rep) => {
                    return self.handle_report(rep, (pa, tag), depth);
                }
                WriteResult::RequestPages(pages) => {
                    for page in pages {
                        let snap = self.fault_active.then(|| self.os.clone());
                        if let Some(ret) = self.os.retire_page(page) {
                            self.retirements += 1;
                            let copies = ret.copies.clone();
                            self.controller.on_page_retired(page);
                            if self.rolled_back_retirement(page, snap) {
                                return false;
                            }
                            self.grants += 1;
                            for (src, dst) in copies {
                                let t = self.controller.read(src);
                                let ok = self.pa_write(dst, t, depth + 1);
                                if self.fault_active && !ok {
                                    self.exempt_pa(dst);
                                }
                            }
                        } else {
                            self.controller.on_page_retired(page);
                            if self.rolled_back_retirement(page, snap) {
                                return false;
                            }
                            self.grants += 1;
                        }
                    }
                    // Retry the original write now that the pages landed.
                }
                WriteResult::Dropped(_) => {
                    // Power cut or degraded metadata: nothing stored,
                    // nothing to report. The run loop notices the power
                    // state; degraded accesses just lose this write.
                    self.lost_writes += 1;
                    return false;
                }
            }
            if attempts == 4 {
                break;
            }
            attempts += 1;
            res = self.controller.write(pa, tag);
        }
        self.lost_writes += 1;
        false
    }

    /// OS exception handler: retire the page, grant it to the controller,
    /// and relocate its data — substituting the freshly-written tag for
    /// the failing block's stale content. Returns whether the fresh data
    /// got placed.
    fn handle_report(&mut self, rep: Pa, fresh: (Pa, u64), depth: u8) -> bool {
        let snap = self.fault_active.then(|| self.os.clone());
        let Some(ret) = self.os.handle_failure(rep) else {
            // Stale report: the page is already gone; so is the data.
            self.lost_writes += 1;
            return false;
        };
        self.controller.on_page_retired(ret.retired);
        if self.rolled_back_retirement(ret.retired, snap) {
            self.lost_writes += 1;
            return false;
        }
        self.retirements += 1;
        self.grants += 1;
        if ret.copies.is_empty() {
            // Pool dry: the application page was dropped.
            self.lost_writes += 1;
            return false;
        }
        let mut fresh_placed = false;
        for (src, dst) in ret.copies {
            let (t, is_fresh) = if src == fresh.0 {
                (fresh.1, true)
            } else {
                (self.controller.read(src), false)
            };
            let ok = self.pa_write(dst, t, depth + 1);
            if is_fresh {
                fresh_placed = ok;
            }
            if self.fault_active && !ok && !is_fresh {
                self.exempt_pa(dst);
            }
        }
        fresh_placed
    }

    /// Retirement transaction check: if a power cut struck before the
    /// retirement's durable commit (`Controller::retirement_persisted`),
    /// the grant never happened as far as recovery is concerned — roll the
    /// OS back to the pre-retirement snapshot so both sides agree. Returns
    /// true when the rollback fired. No-op (and no snapshot is ever taken)
    /// without an active fault plan.
    fn rolled_back_retirement(&mut self, page: wlr_base::PageId, snap: Option<OsMemory>) -> bool {
        if !self.fault_active || self.controller.retirement_persisted(page) {
            return false;
        }
        self.os = snap.expect("snapshot taken when faults are active");
        true
    }

    /// Removes from the oracle the application address currently mapped
    /// to `pa` (a relocation copy that never landed because of an
    /// injected fault). Fault paths only — linear in tracked addresses.
    fn exempt_pa(&mut self, pa: Pa) {
        let Some(oracle) = &self.expected else {
            return;
        };
        let hit = oracle.keys.iter().copied().find(|&k| {
            self.os
                .translate(AppAddr::new(k))
                .is_some_and(|cand| cand == pa)
        });
        if let Some(k) = hit {
            self.expected.as_mut().unwrap().remove(k);
        }
    }

    /// Reconciles newly-logged silent write failures with the oracle: the
    /// device reported those writes as stored but the block died, so
    /// whichever logical address owns the block has lost its data through
    /// no fault of the controller. The owner is resolved through the
    /// controller's current mapping and exempted from verification; the
    /// failure itself surfaces later as a normal (reported) failure when
    /// the block is next touched.
    fn reconcile_silent_failures(&mut self) {
        let log_len = self.controller.device().silent_failures().len();
        while self.silent_seen < log_len {
            let da = self.controller.device().silent_failures()[self.silent_seen];
            self.silent_seen += 1;
            if let Some(pa) = self.controller.logical_owner(da) {
                self.exempt_pa(pa);
            }
        }
    }

    fn record_sample(&mut self) {
        if self
            .series
            .points()
            .last()
            .is_some_and(|p| p.writes == self.writes_issued)
        {
            return; // already sampled at this write count
        }
        let req = self.controller.request_stats();
        let (p_req, p_acc) = self.last_req;
        let d_req = req.requests.saturating_sub(p_req);
        let d_acc = req.accesses.saturating_sub(p_acc);
        self.last_req = (req.requests, req.accesses);
        self.series.push(SamplePoint {
            writes: self.writes_issued,
            survival: self.survival_fraction(),
            usable: self.usable_fraction(),
            avg_access_time: if d_req == 0 {
                0.0
            } else {
                d_acc as f64 / d_req as f64
            },
            wl_active: self.controller.wl_active(),
        });
    }

    /// Simulates a machine power cycle: the OS reloads the retired-page
    /// bitmap (it never forgot it — `OsMemory` is this simulation's OS
    /// state) and the controller reconstructs its volatile state from
    /// PCM-resident metadata. See
    /// [`crate::controller::Controller::simulate_reboot`].
    pub fn simulate_reboot(&mut self) {
        self.controller.simulate_reboot();
    }

    /// Recovers from an injected power loss: restores device power and
    /// has the controller rebuild its volatile state from persistent
    /// metadata, returning the recovery-cost report. Safe to call when
    /// power was never lost (it is then just a reboot). After it returns,
    /// [`Self::run`] can continue the interrupted run.
    pub fn recover(&mut self) -> RecoveryReport {
        let report = self.controller.recover();
        if self.fault_active {
            // Recovery's journal replay may itself have touched blocks;
            // reconcile any silent failures it surfaced.
            self.reconcile_silent_failures();
        }
        report
    }

    /// Reads back `count` random tracked addresses and compares with the
    /// oracle; increments [`Self::integrity_errors`] on mismatch.
    fn verify_some(&mut self, count: usize) {
        let Some(oracle) = &self.expected else {
            return;
        };
        // The key list is kept sorted so verification traffic is
        // deterministic, exactly as the seed-state engine's per-sample
        // sort made it.
        if oracle.keys.is_empty() {
            return;
        }
        let mut picks = Vec::with_capacity(count);
        for _ in 0..count.min(oracle.keys.len()) {
            let k = oracle.keys[self.verify_rng.gen_range(oracle.keys.len() as u64) as usize];
            picks.push(k);
        }
        for k in picks {
            let addr = AppAddr::new(k);
            let Some(pa) = self.os.translate(addr) else {
                continue;
            };
            let want = self.expected.as_ref().unwrap().map[k];
            let got = self.controller.read(pa);
            if got != want {
                self.integrity_errors += 1;
            }
        }
    }

    /// Diagnostic variant of [`Self::verify_all`]: returns each mismatch
    /// as `(app address, expected tag, observed tag)`.
    pub fn find_mismatches(&mut self) -> Vec<(u64, u64, u64)> {
        let pairs: Vec<(u64, u64)> = match &self.expected {
            Some(o) => o.map.iter().map(|(k, &v)| (k, v)).collect(),
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        for (k, want) in pairs {
            let addr = AppAddr::new(k);
            let Some(pa) = self.os.translate(addr) else {
                continue;
            };
            let got = self.controller.read(pa);
            if got != want {
                out.push((k, want, got));
            }
        }
        out
    }

    /// Reads back *every* tracked address (expensive; tests only).
    /// Returns the number of mismatches found in this pass.
    pub fn verify_all(&mut self) -> u64 {
        let pairs: Vec<(u64, u64)> = match &self.expected {
            Some(o) => o.map.iter().map(|(k, &v)| (k, v)).collect(),
            None => return 0,
        };
        let mut errors = 0;
        for (k, want) in pairs {
            let addr = AppAddr::new(k);
            let Some(pa) = self.os.translate(addr) else {
                continue;
            };
            if self.controller.read(pa) != want {
                errors += 1;
            }
        }
        self.integrity_errors += errors;
        errors
    }

    /// Arms an additional fault plan on the *running* simulation. Indices
    /// in `plan` are relative to the device accesses serviced so far (see
    /// [`wlr_pcm::FaultInjector::arm`]), so `power_loss_at_write(0)` cuts
    /// power on the very next device write. Switches the batched run loop
    /// onto its fault-guarded path permanently; a no-op for an empty plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.controller.device_mut().arm_faults(plan);
        self.fault_active = true;
    }

    /// Application-level read of `addr`: translate through the OS, read
    /// through the controller, and classify any injected transient error
    /// the block's ECC could not absorb. The returned tag is meaningful
    /// only in integrity-oracle mode (content tracking on); otherwise it
    /// is 0.
    pub fn read_app(&mut self, addr: AppAddr) -> AppRead {
        let Some(pa) = self.os.translate(addr) else {
            return AppRead::Unmapped;
        };
        let before = self
            .controller
            .device()
            .fault_counters()
            .map_or(0, |c| c.transients_uncorrectable);
        let tag = self.controller.read(pa);
        let after = self
            .controller
            .device()
            .fault_counters()
            .map_or(0, |c| c.transients_uncorrectable);
        if after > before {
            AppRead::Transient
        } else {
            AppRead::Ok(tag)
        }
    }

    /// Snapshot of the integrity oracle: every tracked application
    /// address with its expected tag, in ascending address order. Empty
    /// when integrity verification is off. This is what degraded-mode
    /// quarantine evacuates from a dying bank.
    pub fn tracked_lines(&self) -> Vec<(u64, u64)> {
        match &self.expected {
            Some(o) => o.keys.iter().map(|&k| (k, o.map[k])).collect(),
            None => Vec::new(),
        }
    }

    /// Runs until `stop` is met, the memory is exhausted, or the hard cap
    /// is reached. Can be called repeatedly with different conditions to
    /// continue the same run.
    pub fn run(&mut self, stop: StopCondition) -> Outcome {
        let reason = 'outer: loop {
            if self.writes_issued >= self.hard_cap {
                break StopReason::HardCap;
            }
            if self.condition_met(stop) {
                break StopReason::ConditionMet;
            }
            // Batch writes up to the next point where anything must be
            // re-checked: the hard cap, the sample boundary, or a Writes
            // target. Both bounds are strictly ahead (checked above, and
            // `next_sample > writes_issued` is an invariant), so at least
            // one write is issued per iteration. Within a batch the stop
            // condition is re-evaluated only when a watched event says it
            // could have changed.
            let mut limit = self.hard_cap.min(self.next_sample);
            if let StopCondition::Writes(n) = stop {
                limit = limit.min(n);
            }
            let batch = limit - self.writes_issued;
            let mut last = StepOutcome::Serviced;
            match stop {
                StopCondition::Writes(_) => {
                    // Counted by `limit`; nothing else can trip it.
                    for _ in 0..batch {
                        last = self.step();
                        if last == StepOutcome::Exhausted {
                            break 'outer StopReason::MemoryExhausted;
                        }
                        if last == StepOutcome::PowerLost {
                            break 'outer StopReason::PowerLoss;
                        }
                    }
                }
                StopCondition::UsableBelow(_) => {
                    // Usable space moves only when a page retires or the
                    // controller is granted one — watch those counters.
                    let watch = (self.retirements, self.grants);
                    for _ in 0..batch {
                        last = self.step();
                        if last == StepOutcome::Exhausted {
                            break 'outer StopReason::MemoryExhausted;
                        }
                        if last == StepOutcome::PowerLost {
                            break 'outer StopReason::PowerLoss;
                        }
                        if (self.retirements, self.grants) != watch {
                            break;
                        }
                    }
                }
                StopCondition::DeadFraction(f) => {
                    let n = self.geo.num_blocks();
                    let dead = self.controller.device().dead_blocks();
                    if dead as f64 / n as f64 >= f {
                        // Past the total-dead gate the exact visible scan
                        // can flip on any write (the mapping moves), so
                        // fall back to single-stepping.
                        last = self.step();
                        if last == StepOutcome::Exhausted {
                            break 'outer StopReason::MemoryExhausted;
                        }
                        if last == StepOutcome::PowerLost {
                            break 'outer StopReason::PowerLoss;
                        }
                    } else {
                        // Below the gate the condition cannot trip until
                        // another block dies — watch the dead count.
                        for _ in 0..batch {
                            last = self.step();
                            if last == StepOutcome::Exhausted {
                                break 'outer StopReason::MemoryExhausted;
                            }
                            if last == StepOutcome::PowerLost {
                                break 'outer StopReason::PowerLoss;
                            }
                            if self.controller.device().dead_blocks() != dead {
                                break;
                            }
                        }
                    }
                }
            }
            self.maybe_sample(last == StepOutcome::Discarded);
        };
        self.record_sample();
        Outcome {
            writes_issued: self.writes_issued,
            reason,
            survival: self.survival_fraction(),
            usable: self.usable_fraction(),
        }
    }

    /// Issues an externally-supplied sequence of software writes, with
    /// the same sampling bookkeeping as [`Self::run`]. This is the entry
    /// point the multi-bank front-end (`wlr-mc`) uses: the bank's write
    /// stream comes from the controller's per-bank queue, not from the
    /// simulation's own workload. Batch boundaries are invisible — any
    /// partitioning of the same address sequence produces bit-identical
    /// simulation state.
    pub fn run_batch(&mut self, addrs: &[AppAddr]) -> BatchStatus {
        if self.fault_active || self.expected.is_some() {
            return self.run_batch_guarded(addrs);
        }
        // Steady state (no fault plan, no integrity oracle): run in tight
        // spans bounded by the next sample/hard-cap boundary, so the
        // per-write path is counters + translate + controller write. The
        // skipped `maybe_sample` calls are exact no-ops below the
        // boundary, so the state sequence is bit-identical to the guarded
        // loop's.
        let n = addrs.len();
        let mut i = 0usize;
        while i < n {
            if self.writes_issued >= self.hard_cap {
                return BatchStatus::HardCap { consumed: i as u64 };
            }
            let until_cap = self.hard_cap - self.writes_issued;
            let until_sample = self.next_sample.saturating_sub(self.writes_issued).max(1);
            let span = u64::min(until_cap, until_sample).min((n - i) as u64) as usize;
            let end = i + span;
            while i < end {
                let addr = addrs[i];
                self.writes_issued += 1;
                self.seq += 1;
                let tag = self.seq;
                i += 1;
                let Some(pa) = self.os.translate_or_redirect(addr) else {
                    self.maybe_sample(false);
                    return BatchStatus::MemoryExhausted { consumed: i as u64 };
                };
                match self.controller.write(pa, tag) {
                    WriteResult::Ok => {}
                    first => {
                        self.pa_write_rest(first, pa, tag, 0);
                    }
                }
            }
            self.maybe_sample(false);
        }
        BatchStatus::Completed
    }

    /// The fully-guarded per-write batch loop: fault injection and the
    /// integrity oracle need the complete [`Self::step_addr`] protocol
    /// around every write.
    fn run_batch_guarded(&mut self, addrs: &[AppAddr]) -> BatchStatus {
        for (i, &addr) in addrs.iter().enumerate() {
            if self.writes_issued >= self.hard_cap {
                return BatchStatus::HardCap { consumed: i as u64 };
            }
            let out = self.step_addr(addr);
            self.maybe_sample(out == StepOutcome::Discarded);
            match out {
                StepOutcome::Exhausted => {
                    return BatchStatus::MemoryExhausted {
                        consumed: i as u64 + 1,
                    };
                }
                StepOutcome::PowerLost => {
                    return BatchStatus::PowerLoss {
                        consumed: i as u64 + 1,
                    };
                }
                StepOutcome::Serviced | StepOutcome::Discarded => {}
            }
        }
        BatchStatus::Completed
    }

    /// A 64-bit FNV-1a fingerprint of the run's observable end state:
    /// write/retirement counters, the full per-block wear image, dead
    /// blocks, and the OS's retired-page count. Two runs that issued the
    /// same writes through the same configuration fingerprint equal;
    /// any divergence in wear, failure handling or retirement shows up
    /// here. Used by the multi-bank determinism tests.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.writes_issued);
        eat(self.retirements);
        eat(self.grants);
        eat(self.lost_writes);
        eat(self.os.retired_pages());
        let device = self.controller.device();
        eat(device.dead_blocks());
        for w in device.wear_snapshot() {
            eat(u64::from(w));
        }
        h
    }

    /// Freezes the full observable state of the run into a
    /// [`SimSnapshot`]: device block states and wear counters, leveler
    /// state, link tables, spare pool, OS page tables, workload stream
    /// position, the integrity oracle, and every RNG stream. The state
    /// lives in flat tables (`Vec`s and [`wlr_base::dense::DenseMap`]s), so the
    /// snapshot is a handful of bulk memcpys — no per-entry work.
    ///
    /// Event sinks attached to the controller are *not* captured (they
    /// are per-run observers, not simulated state); forks start with an
    /// empty sink stack. Everything that feeds [`Self::fingerprint`] is
    /// captured, and [`Simulation::fork`]-then-replay is bit-identical
    /// to continuing the original run.
    ///
    /// # Panics
    ///
    /// Panics if the controller or workload is a custom type that does
    /// not implement fork support ([`Controller::fork_box`] /
    /// [`Workload::clone_box`]); every shipped implementation does.
    pub fn snapshot(&self) -> SimSnapshot {
        let controller = self
            .controller
            .fork_box()
            .expect("controller does not support snapshot/fork");
        let workload = self
            .workload
            .clone_box()
            .expect("workload does not support snapshot/fork");
        SimSnapshot {
            geo: self.geo,
            os: self.os.clone(),
            controller,
            workload,
            writes_issued: self.writes_issued,
            seq: self.seq,
            series: self.series.clone(),
            sample_interval: self.sample_interval,
            last_req: self.last_req,
            next_sample: self.next_sample,
            expected: self.expected.clone(),
            verify_rng: self.verify_rng.clone(),
            integrity_errors: self.integrity_errors,
            retirements: self.retirements,
            grants: self.grants,
            lost_writes: self.lost_writes,
            hard_cap: self.hard_cap,
            fault_active: self.fault_active,
            silent_seen: self.silent_seen,
        }
    }

    /// Instantiates a fresh, independent simulation from `snap`. The
    /// snapshot is not consumed: one warmed snapshot can fan out
    /// arbitrarily many divergent futures, each continuing from the
    /// identical state. Divergence is injected after forking — swap the
    /// address stream with [`Self::replace_workload`] or arm a fault
    /// plan with [`Self::arm_faults`].
    pub fn fork(snap: &SimSnapshot) -> Simulation {
        Simulation {
            geo: snap.geo,
            os: snap.os.clone(),
            controller: snap
                .controller
                .fork_box()
                .expect("snapshotted controller must support fork"),
            workload: snap
                .workload
                .clone_box()
                .expect("snapshotted workload must support fork"),
            writes_issued: snap.writes_issued,
            seq: snap.seq,
            series: snap.series.clone(),
            sample_interval: snap.sample_interval,
            last_req: snap.last_req,
            next_sample: snap.next_sample,
            expected: snap.expected.clone(),
            verify_rng: snap.verify_rng.clone(),
            integrity_errors: snap.integrity_errors,
            retirements: snap.retirements,
            grants: snap.grants,
            lost_writes: snap.lost_writes,
            hard_cap: snap.hard_cap,
            fault_active: snap.fault_active,
            silent_seen: snap.silent_seen,
        }
    }

    /// Address-space size of the installed workload (the app space it was
    /// built against) — what a [`Self::replace_workload`] replacement
    /// must match.
    pub fn workload_len(&self) -> u64 {
        self.workload.len()
    }

    /// Replaces the address generator mid-run — the seed-divergence hook
    /// for forked futures. The new workload must cover the same
    /// application address space as the old one.
    ///
    /// # Panics
    ///
    /// Panics if `workload.len()` differs from the current workload's.
    pub fn replace_workload(&mut self, workload: Box<dyn Workload>) {
        assert_eq!(
            workload.len(),
            self.workload.len(),
            "replacement workload must cover the same address space"
        );
        self.workload = workload;
    }

    fn condition_met(&self, stop: StopCondition) -> bool {
        match stop {
            StopCondition::Writes(n) => self.writes_issued >= n,
            StopCondition::DeadFraction(f) => {
                // Cheap total-dead pre-check before the exact (O(N)) scan.
                let n = self.geo.num_blocks();
                self.controller.device().dead_blocks() as f64 / n as f64 >= f
                    && self.controller.visible_dead_fraction() >= f
            }
            StopCondition::UsableBelow(f) => self.usable_fraction() <= f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_trace::Benchmark;

    fn quick(scheme: &str, endurance: f64, seed: u64) -> Simulation {
        Simulation::builder()
            .num_blocks(1 << 12)
            .endurance_mean(endurance)
            .stack(scheme)
            .seed(seed)
            .sample_interval(5_000)
            .build()
    }

    #[test]
    fn healthy_run_reaches_write_budget() {
        let mut sim = quick("reviver-sg", 1e9, 1);
        let out = sim.run(StopCondition::Writes(20_000));
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert_eq!(out.writes_issued, 20_000);
        assert_eq!(out.survival, 1.0);
        assert_eq!(out.usable, 1.0);
        assert!(!sim.series().is_empty());
    }

    #[test]
    fn ecc_only_loses_space_fast() {
        let mut sim = quick("ecc", 2_000.0, 2);
        let out = sim.run(StopCondition::UsableBelow(0.9));
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert!(out.usable <= 0.9);
        assert!(sim.retirements() > 0);
    }

    #[test]
    fn reviver_outlives_frozen_start_gap() {
        let stop = StopCondition::DeadFraction(0.10);
        let mut base = quick("sg", 2_000.0, 3);
        let base_out = base.run(stop);
        let mut wlr = quick("reviver-sg", 2_000.0, 3);
        let wlr_out = wlr.run(stop);
        assert!(
            wlr_out.writes_issued > base_out.writes_issued,
            "WLR {} should outlast SG {}",
            wlr_out.writes_issued,
            base_out.writes_issued
        );
    }

    #[test]
    fn skewed_workload_accelerates_failure_without_wl() {
        let mk = |scheme| {
            Simulation::builder()
                .num_blocks(1 << 12)
                .endurance_mean(2_000.0)
                // Scaled ψ: preserves the paper's rotations-per-lifetime
                // ratio at scaled endurance (see EXPERIMENTS.md).
                .gap_interval(8)
                .stack(scheme)
                .seed(4)
                .workload(Benchmark::Ocean.build(1 << 12, 4))
                .sample_interval(5_000)
                .build()
        };
        // The paper's lifetime metric is *lost space*: without revival
        // every block failure retires a whole 64-block page, so the
        // usable-space curve collapses far sooner than under WL-Reviver,
        // which pays one page per ~60 hidden failures and keeps leveling.
        let mut none = mk("ecc");
        let none_out = none.run(StopCondition::UsableBelow(0.9));
        let mut wlr = mk("reviver-sg");
        let wlr_out = wlr.run(StopCondition::UsableBelow(0.9));
        assert!(
            wlr_out.writes_issued > 2 * none_out.writes_issued,
            "leveling must delay space loss substantially: {} vs {}",
            wlr_out.writes_issued,
            none_out.writes_issued
        );
    }

    #[test]
    fn integrity_oracle_clean_under_reviver() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .stack("reviver-sg")
            .gap_interval(20)
            .seed(5)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.05));
        let errors = sim.verify_all();
        assert_eq!(errors, 0, "data corrupted under WL-Reviver");
        assert_eq!(sim.integrity_errors(), 0);
    }

    #[test]
    fn integrity_oracle_clean_under_reviver_sr() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .stack("reviver-sr")
            .gap_interval(20)
            .seed(6)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.04));
        assert_eq!(sim.verify_all(), 0, "data corrupted under WLR+SR");
    }

    #[test]
    fn freep_reserve_postpones_freeze() {
        let mk = |frac| {
            Simulation::builder()
                .num_blocks(1 << 10)
                .endurance_mean(2_000.0)
                .stack("freep")
                .freep_reserve_frac(frac)
                .seed(7)
                .sample_interval(2_000)
                .build()
        };
        let mut none = mk(0.0);
        none.run(StopCondition::Writes(3_000_000));
        let mut some = mk(0.10);
        some.run(StopCondition::Writes(3_000_000));
        // With a reserve the scheme should still be leveling when the 0%
        // variant has long frozen (or at least have frozen later).
        let frozen_at = |sim: &Simulation| {
            sim.series()
                .points()
                .iter()
                .find(|p| !p.wl_active)
                .map(|p| p.writes)
        };
        match (frozen_at(&none), frozen_at(&some)) {
            (Some(a), Some(b)) => assert!(b > a, "reserve should delay freeze: {b} vs {a}"),
            (Some(_), None) => {} // reserve never froze: even better
            (None, _) => panic!("0% reserve never froze in 3M writes"),
        }
    }

    #[test]
    fn lls_acquires_chunks_and_survives() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 12)
            .endurance_mean(2_000.0)
            .stack("lls")
            .seed(8)
            .sample_interval(5_000)
            .build();
        let out = sim.run(StopCondition::DeadFraction(0.05));
        assert!(out.writes_issued > 0);
        // LLS gives up software space for its chunks.
        assert!(sim.os().retired_pages() > 0, "no chunks were acquired");
        assert!(sim.usable_fraction() < 1.0);
    }

    #[test]
    fn usable_accounts_for_freep_reserve() {
        let sim = Simulation::builder()
            .num_blocks(1 << 12)
            .stack("freep")
            .seed(9)
            .build();
        // 10% pre-reserved: usable starts near 90%.
        let u = sim.usable_fraction();
        assert!((u - 0.90).abs() < 0.02, "initial usable {u}");
    }

    #[test]
    #[should_panic(expected = "has no pre-reserve")]
    fn freep_reserve_frac_rejects_a_stack_without_pre_reserve() {
        Simulation::builder()
            .stack("reviver-sg")
            .freep_reserve_frac(0.1)
            .build();
    }

    #[test]
    fn app_blocks_predicts_the_built_application_space() {
        for (stack, frac) in [("reviver-sg", None), ("freep", None), ("freep", Some(0.05))] {
            let mut b = Simulation::builder()
                .num_blocks(1 << 12)
                .stack(stack)
                .os_reserve_pages(2);
            if let Some(frac) = frac {
                b = b.freep_reserve_frac(frac);
            }
            let predicted = b.app_blocks();
            assert_eq!(predicted, b.build().os().app_blocks(), "{stack} {frac:?}");
        }
    }

    #[test]
    fn series_samples_are_recorded() {
        let mut sim = quick("reviver-sg", 1e9, 10);
        sim.run(StopCondition::Writes(25_000));
        assert!(sim.series().len() >= 5);
        let last = sim.series().points().last().unwrap();
        assert_eq!(last.writes, 25_000);
        assert!((last.avg_access_time - 1.0).abs() < 0.05);
    }

    #[test]
    fn hard_cap_stops_runaway() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1e9)
            .stack("reviver-sg")
            .seed(11)
            .hard_cap(5_000)
            .build();
        let out = sim.run(StopCondition::DeadFraction(0.3));
        assert_eq!(out.reason, StopReason::HardCap);
        assert_eq!(out.writes_issued, 5_000);
    }

    #[test]
    fn no_switching_mode_preserves_data_with_longer_chains() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .reviver_chain_switching(false)
            .seed(15)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.10));
        assert_eq!(sim.verify_all(), 0, "ablation mode corrupted data");
        let ctl = sim.controller().as_reviver().unwrap();
        let max_chain = ctl.chain_lengths().into_iter().max().unwrap_or(0);
        assert!(
            max_chain >= 2,
            "no-switching mode should grow chains (max {max_chain})"
        );
    }

    #[test]
    fn switching_mode_keeps_chains_at_one_step() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .seed(15)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.10));
        let ctl = sim.controller().as_reviver().unwrap();
        assert!(ctl.chain_lengths().into_iter().all(|l| l <= 1));
    }

    #[test]
    fn proactive_acquisition_never_fakes_reports() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(5)
            .stack("reviver-sg")
            .reviver_proactive(true)
            .seed(16)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.10));
        let ctl = sim.controller().as_reviver().unwrap();
        assert_eq!(
            ctl.counters().fake_reports,
            0,
            "proactive mode must not sacrifice writes"
        );
        assert!(ctl.counters().suspensions > 0, "suspensions still happen");
        assert_eq!(sim.verify_all(), 0);
    }

    #[test]
    fn reboot_preserves_data_and_revival() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .seed(20)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        // Wear in deep enough that links and retired pages exist.
        sim.run(StopCondition::DeadFraction(0.05));
        let links_before = sim.controller().as_reviver().unwrap().linked_blocks();
        assert!(links_before > 20, "need real state before rebooting");
        for round in 1..=3 {
            if !sim.controller().suspended() {
                sim.simulate_reboot();
            }
            assert_eq!(sim.verify_all(), 0, "data lost across reboot {round}");
            let target = sim.writes_issued() + 30_000;
            sim.run(StopCondition::Writes(target));
            assert_eq!(sim.verify_all(), 0, "corruption after reboot {round}");
        }
        let ctl = sim.controller().as_reviver().unwrap();
        assert_eq!(ctl.counters().reboots, 3);
        assert!(
            ctl.linked_blocks() >= links_before,
            "links must persist across power cycles"
        );
    }

    #[test]
    fn tiled_start_gap_revives_cleanly() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .sg_tiles(4)
            .stack("reviver-tiled")
            .seed(18)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.08));
        assert_eq!(sim.verify_all(), 0, "tiled SG corrupted data");
        assert!(sim.controller().device().dead_blocks() > 50);
    }

    #[test]
    fn two_level_sr_revives_cleanly() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sr2")
            .seed(19)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.06));
        assert_eq!(sim.verify_all(), 0, "two-level SR corrupted data");
    }

    #[test]
    fn table_randomizer_variant_works() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .sg_randomizer(wlr_wl::RandomizerKind::Table { seed: 3 })
            .seed(17)
            .verify_integrity(true)
            .check_invariants(true)
            .sample_interval(2_000)
            .build();
        sim.run(StopCondition::DeadFraction(0.06));
        assert_eq!(sim.verify_all(), 0);
    }

    #[test]
    #[should_panic(expected = "must equal the application space")]
    fn mismatched_workload_panics() {
        Simulation::builder()
            .num_blocks(1 << 12)
            .workload(wlr_trace::UniformWorkload::new(17, 0))
            .build();
    }

    /// Regression for the oracle's verification-order contract: the
    /// incrementally-maintained key list must at every point equal the
    /// seed-state engine's collect-then-`sort_unstable` of the key set,
    /// or verification picks (and thus whole oracle runs) silently
    /// diverge across engines.
    #[test]
    fn oracle_key_list_tracks_sorted_key_set() {
        use std::collections::HashMap;
        let mut oracle = Oracle::with_capacity(512);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = Rng::stream(0x0AC1E, 0);
        for i in 0..20_000u64 {
            let k = rng.gen_range(512);
            if rng.gen_range(4) == 0 {
                oracle.remove(k);
                model.remove(&k);
            } else {
                oracle.insert(k, i);
                model.insert(k, i);
            }
            if i % 997 == 0 {
                let mut sorted: Vec<u64> = model.keys().copied().collect();
                sorted.sort_unstable();
                assert_eq!(oracle.keys, sorted, "key list diverged at op {i}");
            }
        }
        assert_eq!(oracle.map.len(), model.len());
        for (k, &v) in &model {
            assert_eq!(oracle.map.get(*k), Some(&v));
        }
    }

    /// Externally-driven batches must be bit-identical to the same
    /// addresses flowing through the simulation's own workload, and
    /// invariant to how the sequence is partitioned into batches — the
    /// contract the multi-bank front-end's determinism rests on.
    #[test]
    fn run_batch_matches_workload_driven_run() {
        let mk = || {
            Simulation::builder()
                .num_blocks(1 << 10)
                .endurance_mean(1_500.0)
                .gap_interval(10)
                .stack("reviver-sg")
                .seed(33)
                .sample_interval(2_000)
                .build()
        };
        let mut on_workload = mk();
        on_workload.run(StopCondition::Writes(40_000));

        // Reproduce the default workload's stream out-of-band.
        let app_blocks = mk().os().app_blocks();
        let mut src = wlr_trace::UniformWorkload::new(app_blocks, 33);
        let addrs: Vec<AppAddr> = (0..40_000).map(|_| src.next_write()).collect();

        let mut whole = mk();
        assert_eq!(whole.run_batch(&addrs), BatchStatus::Completed);
        assert_eq!(whole.fingerprint(), on_workload.fingerprint());
        assert_eq!(whole.writes_issued(), on_workload.writes_issued());

        // Any partitioning of the same sequence is invisible.
        let mut chunked = mk();
        for chunk in addrs.chunks(777) {
            assert_eq!(chunked.run_batch(chunk), BatchStatus::Completed);
        }
        assert_eq!(chunked.fingerprint(), whole.fingerprint());
        assert_eq!(chunked.series().len(), whole.series().len());
    }

    #[test]
    fn run_batch_respects_hard_cap() {
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1e9)
            .stack("reviver-sg")
            .seed(34)
            .hard_cap(1_000)
            .build();
        let addrs: Vec<AppAddr> = (0..2_000).map(|i| AppAddr::new(i % 64)).collect();
        assert_eq!(
            sim.run_batch(&addrs),
            BatchStatus::HardCap { consumed: 1_000 }
        );
        assert_eq!(sim.writes_issued(), 1_000);
    }

    #[test]
    fn fingerprint_distinguishes_different_histories() {
        let mk = |seed| {
            Simulation::builder()
                .num_blocks(1 << 10)
                .endurance_mean(1_500.0)
                .stack("reviver-sg")
                .seed(seed)
                .build()
        };
        let mut a = mk(1);
        let mut b = mk(1);
        let mut c = mk(2);
        a.run(StopCondition::Writes(30_000));
        b.run(StopCondition::Writes(30_000));
        c.run(StopCondition::Writes(30_000));
        assert_eq!(a.fingerprint(), b.fingerprint(), "same history must match");
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different seeds must differ"
        );
    }

    /// The batched engine must sample at exactly the same write counts as
    /// per-write `is_multiple_of` checking, across every stop kind.
    #[test]
    fn batched_sampling_lands_on_exact_boundaries() {
        for stop in [
            StopCondition::Writes(23_000),
            StopCondition::DeadFraction(0.05),
            StopCondition::UsableBelow(0.95),
        ] {
            let mut sim = Simulation::builder()
                .num_blocks(1 << 10)
                .endurance_mean(1_500.0)
                .stack("reviver-sg")
                .gap_interval(10)
                .seed(21)
                .sample_interval(3_000)
                .build();
            let out = sim.run(stop);
            for p in sim.series().points() {
                assert!(
                    p.writes % 3_000 == 0 || p.writes == out.writes_issued,
                    "off-boundary sample at {} under {stop:?}",
                    p.writes
                );
            }
            assert!(sim.series().len() >= 2, "no samples under {stop:?}");
        }
    }
}
