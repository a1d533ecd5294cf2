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
//!
//! # Module layout
//!
//! * this file — the state ([`Simulation`], which a [`SimSnapshot`] is a
//!   `Clone` of), the one write loop behind [`Simulation::run`] and
//!   [`Simulation::run_batch`] (a slab of addresses per
//!   [`Controller::write_run`] call), sampling, and the fault/recovery
//!   drivers;
//! * `builder` — [`SimulationBuilder`] and [`EccKind`];
//! * `os_protocol` — the simulator playing the OS: failure reports, page
//!   requests, retirement copies, and the checks of a guarded slab's end;
//! * `oracle` — the integrity oracle and its read-back checks.

mod builder;
mod oracle;
mod os_protocol;

pub use builder::{EccKind, SimulationBuilder};

use crate::controller::{Controller, WriteResult};
use crate::metrics::{SamplePoint, TimeSeries};
use crate::recovery::{DurableImage, PersistedMeta, RecoveryReport, TornMeta};
use crate::reviver::{EventRing, ReviverCounters};
use std::sync::Once;
use wlr_base::dense::DenseMap;
use wlr_base::rng::Rng;
use wlr_base::{AppAddr, Geometry, Pa, PageId};
use wlr_os::OsMemory;
use wlr_pcm::FaultPlan;
use wlr_trace::Workload;

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

/// Addresses [`Simulation::run`] draws from its workload per refill: one
/// virtual [`Workload::fill`] call per this many writes instead of one
/// `next_write` call per write, and a loop in which successive draws
/// overlap. Not 64: the array lives inline in every `Simulation`, and
/// growing each by 520 bytes slowed the benchmark's eight-bank `bank_hot`
/// by 12 % (growing by 264 did not), while 64 over 32 gained only a few
/// points on `healthy_stream`.
const LOOKAHEAD: usize = 32;

/// A configured, runnable simulation. See the crate-level example.
#[derive(Debug, Clone)]
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
    expected: Option<DenseMap<u64>>,
    verify_rng: Rng,
    integrity_errors: u64,
    retirements: u64,
    /// Pages granted to the controller (`on_page_retired` calls). Watched
    /// by the batched run loop: together with `retirements` it covers
    /// every way `usable_fraction` can change.
    grants: u64,
    lost_writes: u64,
    hard_cap: u64,
    /// Whether a fault plan was ever armed, spent or not. Gates all fault
    /// bookkeeping (OS snapshots, exemptions, power polling) so fault-free
    /// runs stay bit-identical to the seed engine.
    fault_active: bool,
    /// Silent-failure log entries already reconciled with the oracle.
    silent_seen: usize,
    /// Addresses drawn from `workload` but not yet issued:
    /// `lookahead[drawn_at..]`, the rest of the stream following on. Part of
    /// the state a snapshot captures; dropped with the stream it came from.
    lookahead: [AppAddr; LOOKAHEAD],
    drawn_at: usize,
}

/// A frozen image of a [`Simulation`] at one instant, produced by
/// [`Simulation::snapshot`] and instantiated (any number of times) by
/// [`Simulation::fork`].
///
/// The image *is* the simulation's `Clone`: deep copies of the device, the
/// leveler, the OS page tables, the workload stream position and the
/// addresses already drawn from it but not yet issued, the oracle and
/// every RNG stream, so the original simulation and all forks evolve
/// fully independently; an attached event ring is copied too
/// (`DESIGN.md` §10).
#[derive(Debug)]
pub struct SimSnapshot(Simulation);

/// Asks the allocator, once per process, to keep what dropped forks free.
///
/// A fork is some thirty tables allocated together and freed together — a
/// megabyte in all at 2¹⁴ blocks — and a crash harness forks and drops
/// thousands a second. glibc returns the free top of the heap to the
/// kernel once it exceeds twice the largest block it has seen freed
/// (mallopt(3) under `M_MMAP_THRESHOLD`: both thresholds are dynamic), and
/// a state made of 64–200 KiB tables never shows it a block anywhere near
/// its own total. So unless some unrelated live allocation happens to sit
/// above the fork, every drop returns the megabyte and every fork faults
/// it back in page by page: 290 µs of a 640 µs crash cycle on the
/// reference box, decided by heap-layout luck (DESIGN.md §10). Freeing one
/// large block — never touched, so an `mmap`/`munmap` pair and no memory —
/// raises both thresholds by glibc's own rule, to what a process that had
/// ever freed a 16 MiB buffer runs with. An allocator without the rule,
/// or with thresholds pinned through `MALLOC_*_THRESHOLD_`, ignores it.
fn keep_fork_memory() {
    /// Forks of up to twice this are recycled in-process (the rule itself
    /// stops at 32 MiB blocks).
    const SHOWN_BYTES: usize = 16 << 20;
    static SHOWN: Once = Once::new();
    SHOWN.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(SHOWN_BYTES))));
}

impl SimSnapshot {
    /// Software writes the captured run had issued at snapshot time.
    pub fn writes_issued(&self) -> u64 {
        self.0.writes_issued
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
            .and_then(|r| r.events())
            .map(EventRing::dump)
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
        crate::metrics::WearReport::from_wear(self.controller.device().wear().take(n).collect())
    }

    /// Current survival fraction of visible blocks.
    pub fn survival_fraction(&self) -> f64 {
        1.0 - self.controller.visible_dead_fraction()
    }

    /// The one write loop: issues a prefix of `addrs` until `writes_issued`
    /// reaches `limit`, a write exhausts memory or loses power, or `moved`
    /// (asked after every slab) says the stop condition could have changed.
    /// Returns how many it issued and, unless `addrs` ran out first, the
    /// last outcome. Never samples: `limit` stays at or below the next
    /// sample boundary. A slab is up to [`LOOKAHEAD`] addresses (with
    /// `per_write`, one; see [`Self::slab`]).
    #[inline]
    fn span(
        &mut self,
        addrs: &[AppAddr],
        limit: u64,
        per_write: bool,
        moved: impl Fn(&Self) -> bool,
    ) -> (usize, Option<StepOutcome>) {
        let room = usize::try_from(limit - self.writes_issued).unwrap_or(usize::MAX);
        let todo = &addrs[..addrs.len().min(room)];
        let slab = if per_write { 1 } else { LOOKAHEAD };
        // Span-invariant: only the builder and `arm_faults` set either.
        let guarded = self.fault_active || self.expected.is_some();
        let mut done = 0;
        let mut last = StepOutcome::Serviced;
        while done < todo.len() {
            let slab = &todo[done..todo.len().min(done + slab)];
            let issued;
            (issued, last) = if guarded {
                self.guarded_slab(slab)
            } else {
                self.slab::<false, LOOKAHEAD>(slab)
            };
            done += issued;
            if matches!(last, StepOutcome::Exhausted | StepOutcome::PowerLost) || moved(self) {
                return (done, Some(last));
            }
        }
        (done, (self.writes_issued >= limit).then_some(last))
    }

    /// [`Self::slab`] with the oracle on or a plan armed: cold and out of
    /// line, so the plain loop keeps its code and layout. A one-write
    /// slab — every slab of a `DeadFraction` run — gets a one-entry
    /// address array: zeroing the 32-entry one cost such a run 45
    /// instructions of its 446 a write.
    #[cold]
    #[inline(never)]
    fn guarded_slab(&mut self, slab: &[AppAddr]) -> (usize, StepOutcome) {
        match slab.len() {
            1 => self.slab::<true, 1>(slab),
            _ => self.slab::<true, LOOKAHEAD>(slab),
        }
    }

    /// Issues a prefix of the non-empty `slab` (at most `N` addresses) with
    /// one [`Controller::write_run`] (with a plan armed,
    /// [`Controller::write_run_armed`]); returns how many writes it issued
    /// and the last one's outcome. Only the write that ended it can need the
    /// OS protocol (and, `GUARDED`, [`Self::end_slab`]), the one thing that
    /// moves the OS tables, so the caller translates the rest again.
    #[inline(always)]
    fn slab<const GUARDED: bool, const N: usize>(
        &mut self,
        slab: &[AppAddr],
    ) -> (usize, StepOutcome) {
        // In integrity mode, writes to dropped pages are discarded rather
        // than redirected: a redirect shares a victim page's blocks between
        // two application addresses, which the oracle cannot model (and
        // which real compaction would resolve with separate storage).
        let discards = GUARDED && self.expected.is_some();
        let mut pas = [Pa::new(0); N];
        let mut translated = 0;
        for &addr in slab {
            let pa = if discards {
                self.os.translate(addr)
            } else {
                self.os.translate_or_redirect(addr)
            };
            let Some(pa) = pa else {
                break;
            };
            pas[translated] = pa;
            translated += 1;
        }
        let (issued, first) = if GUARDED && self.fault_active {
            self.controller
                .write_run_armed(&pas[..translated], self.seq + 1)
        } else {
            self.controller.write_run(&pas[..translated], self.seq + 1)
        };
        self.writes_issued += issued as u64;
        self.seq += issued as u64;
        let mut last = StepOutcome::Serviced;
        // Whether `write_run` reached an address that did not translate.
        let stalled = if GUARDED && issued > 0 {
            let ok = first == WriteResult::Ok;
            last = self.end_slab(&slab[..issued], pas[issued - 1], first);
            ok && translated < slab.len() && last != StepOutcome::PowerLost
        } else if first != WriteResult::Ok {
            self.pa_write_rest(first, pas[issued - 1], self.seq, 0);
            false
        } else {
            translated < slab.len()
        };
        if !stalled {
            return (issued, last);
        }
        // Its page was dropped, or no application page is left.
        self.writes_issued += 1;
        self.seq += 1;
        if !discards || self.os.mapped_app_pages() == 0 {
            return (issued + 1, StepOutcome::Exhausted);
        }
        self.lost_writes += 1;
        (issued + 1, StepOutcome::Discarded)
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

    fn record_sample(&mut self) {
        if self
            .series
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

    /// Recovers from an injected power loss: restores device power and
    /// has the controller rebuild its volatile state from persistent
    /// metadata, returning the recovery-cost report. Safe to call when
    /// power was never lost: it is then a machine power cycle, in which
    /// the OS keeps its retired-page bitmap (`OsMemory` is this
    /// simulation's OS state) and the controller rebuilds from
    /// PCM-resident metadata. After it returns, [`Self::run`] can continue
    /// the interrupted run.
    pub fn recover(&mut self) -> RecoveryReport {
        let report = self.controller.recover();
        if self.fault_active {
            // Recovery's journal replay may itself have touched blocks;
            // reconcile any silent failures it surfaced.
            self.reconcile_silent_failures();
        }
        report
    }

    /// Captures the durable state of a quiescent simulation: wear image,
    /// OS retirement order and the reviver's persisted metadata.
    ///
    /// # Panics
    ///
    /// Panics when the stack is not a revived one (only
    /// [`crate::reviver::RevivedController`] keeps durable metadata).
    pub fn durable_image(&self) -> DurableImage {
        let dev = self.controller.device();
        DurableImage {
            wear: dev.wear_snapshot(),
            dead: dev.dead_iter().map(|da| da.index()).collect(),
            retirements: self.os.retirement_log().iter().map(|p| p.index()).collect(),
            meta: self
                .controller
                .as_reviver()
                .expect("a durable image needs a revived stack")
                .persisted_meta()
                .to_bytes(),
        }
    }

    /// Reboots a *freshly built* simulation from `img`: wear image → OS
    /// retirement order → reviver metadata, the last through
    /// `restore_from`, whose §III-B recovery scan emits into the event
    /// ring if one is attached. `img` is treated as bytes off a disk: its
    /// lengths and indices are checked against this simulation's device
    /// and geometry before anything is replayed.
    ///
    /// # Errors
    ///
    /// [`TornMeta`] when the wear vector covers a different device, a
    /// retired page lies outside the geometry, the metadata does not parse
    /// or fit (see `restore_from`), or the replayed wear does not
    /// reproduce the recorded death set. The simulation may be partly
    /// restored by then and must be discarded.
    ///
    /// # Panics
    ///
    /// Panics when the stack is not a revived one, or the device is not
    /// fresh.
    pub fn restore_durable(&mut self, img: &DurableImage) -> Result<RecoveryReport, TornMeta> {
        let blocks = self.controller.device().total_blocks();
        if img.wear.len() as u64 != blocks {
            return Err(TornMeta(format!(
                "wear image of {} blocks, device has {blocks}",
                img.wear.len()
            )));
        }
        let pages = self.geo.num_pages();
        if let Some(&page) = img.retirements.iter().find(|&&p| p >= pages) {
            return Err(TornMeta(format!(
                "retired page {page} outside the {pages}-page geometry"
            )));
        }
        let meta = PersistedMeta::from_bytes(&img.meta, blocks)?;
        self.controller.device_mut().restore_wear_image(&img.wear);
        for &page in &img.retirements {
            self.os.retire_page(PageId::new(page));
        }
        let report = self
            .controller
            .as_reviver_mut()
            .expect("a durable image needs a revived stack")
            .restore_from(meta)?;
        if !self
            .controller
            .device()
            .dead_iter()
            .map(|da| da.index())
            .eq(img.dead.iter().copied())
        {
            return Err(TornMeta(
                "replayed wear does not reproduce the recorded death set".into(),
            ));
        }
        Ok(report)
    }

    /// Arms an additional fault plan on the *running* simulation. Indices
    /// in `plan` are relative to the device accesses serviced so far (see
    /// [`wlr_pcm::PcmDevice::arm_faults`]), so `power_loss_at_write(0)` cuts
    /// power on the very next device write. A no-op for an empty plan.
    ///
    /// An armed run's slabs are as long as unarmed ones, handed to
    /// [`Controller::write_run_armed`]: a write on which a fault fired
    /// comes back [`WriteResult::OkFaulted`] where it would be `Ok`, which
    /// ends the slab there, and only a write that returned something other
    /// than `Ok` is checked for a power loss and a silent failure. What an
    /// armed run still costs per write: the fired mark's read while the
    /// plan can fire, an OS snapshot around each page retirement, and the
    /// device's quiet-index check in place of its unarmed fast write
    /// (`PcmDevice::write_fast`).
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.controller.device_mut().arm_faults(plan);
        self.fault_active = true;
    }

    /// Runs until `stop` is met, the memory is exhausted, or the hard cap
    /// is reached. Can be called repeatedly with different conditions to
    /// continue the same run.
    pub fn run(&mut self, stop: StopCondition) -> Outcome {
        // Within a span the stop condition is re-evaluated only when the
        // counter it depends on says it could have changed: usable space
        // moves only when a page retires or the controller is granted one,
        // the dead fraction only when another block dies.
        let watched = |sim: &Self| match stop {
            StopCondition::Writes(_) => 0,
            StopCondition::UsableBelow(_) => sim.retirements + sim.grants,
            StopCondition::DeadFraction(_) => sim.controller.device().dead_blocks(),
        };
        // Retirements and grants move only in the OS protocol, which ends
        // a slab; a block can die on a write the reviver serviced (and
        // hid), so the dead count is watched after every write.
        let dead_watch = matches!(stop, StopCondition::DeadFraction(_));
        let reason = loop {
            if self.writes_issued >= self.hard_cap {
                break StopReason::HardCap;
            }
            if self.condition_met(stop) {
                break StopReason::ConditionMet;
            }
            // Both bounds are strictly ahead (checked above, and
            // `next_sample > writes_issued` is an invariant), so every
            // span issues at least one write.
            let mut limit = self.hard_cap.min(self.next_sample);
            match stop {
                StopCondition::Writes(n) => limit = limit.min(n),
                // Past the total-dead gate the exact visible scan can flip
                // on any write (the mapping moves): single-step.
                StopCondition::DeadFraction(f) if self.total_dead_reaches(f) => {
                    limit = self.writes_issued + 1;
                }
                _ => {}
            }
            let before = watched(self);
            let last = loop {
                // The engine's only read of the stream: one `fill` per
                // `LOOKAHEAD` writes.
                if self.drawn_at == LOOKAHEAD {
                    self.workload.fill(&mut self.lookahead);
                    self.drawn_at = 0;
                }
                let drawn = self.lookahead;
                let (issued, end) = self.span(&drawn[self.drawn_at..], limit, dead_watch, |sim| {
                    watched(sim) != before
                });
                self.drawn_at += issued;
                if let Some(last) = end {
                    break last;
                }
            };
            match last {
                StepOutcome::Exhausted => break StopReason::MemoryExhausted,
                StepOutcome::PowerLost => break StopReason::PowerLoss,
                last => self.maybe_sample(last == StepOutcome::Discarded),
            }
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
        let start = self.writes_issued;
        loop {
            let consumed = self.writes_issued - start;
            if consumed == addrs.len() as u64 {
                return BatchStatus::Completed;
            }
            if self.writes_issued >= self.hard_cap {
                return BatchStatus::HardCap { consumed };
            }
            let limit = self.hard_cap.min(self.next_sample);
            let (_, end) = self.span(&addrs[consumed as usize..], limit, false, |_| false);
            // Out of addresses short of `limit`: no sample is due.
            let Some(last) = end else {
                return BatchStatus::Completed;
            };
            self.maybe_sample(last == StepOutcome::Discarded);
            let consumed = self.writes_issued - start;
            match last {
                StepOutcome::Exhausted => return BatchStatus::MemoryExhausted { consumed },
                StepOutcome::PowerLost => return BatchStatus::PowerLoss { consumed },
                StepOutcome::Serviced | StepOutcome::Discarded => {}
            }
        }
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
        for w in device.wear() {
            eat(u64::from(w));
        }
        h
    }

    /// Freezes the full state of the run into a [`SimSnapshot`] (see
    /// there for what that holds). The state lives in flat tables (`Vec`s
    /// and [`wlr_base::dense::DenseMap`]s), so the snapshot is a handful of
    /// bulk memcpys — no per-entry work — and [`Simulation::fork`]-then-
    /// replay is bit-identical to continuing the original run. The sample
    /// history moves into the snapshot's shared prefix, so a fork copies
    /// none of it.
    pub fn snapshot(&self) -> SimSnapshot {
        keep_fork_memory();
        let mut image = self.clone();
        image.series.freeze();
        SimSnapshot(image)
    }

    /// Instantiates a fresh, independent simulation from `snap`. The
    /// snapshot is not consumed: one warmed snapshot can fan out
    /// arbitrarily many divergent futures, each continuing from the
    /// identical state. Divergence is injected after forking — swap the
    /// address stream with [`Self::replace_workload`] or arm a fault
    /// plan with [`Self::arm_faults`].
    pub fn fork(snap: &SimSnapshot) -> Simulation {
        snap.0.clone()
    }

    /// Address-space size of the installed workload (the app space it was
    /// built against) — what a [`Self::replace_workload`] replacement
    /// must match.
    pub fn workload_len(&self) -> u64 {
        self.workload.len()
    }

    /// Replaces the address generator mid-run — the seed-divergence hook
    /// for forked futures. The new workload must cover the same
    /// application address space as the old one. The old stream's
    /// remainder is dropped, addresses already drawn but not yet issued
    /// included: the next write is the new stream's first.
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
        self.drawn_at = LOOKAHEAD;
    }

    /// The cheap pre-check of [`StopCondition::DeadFraction`]: dead blocks
    /// anywhere on the device, over the visible space. Until it reaches
    /// `f` the exact (O(N)) visible scan cannot.
    fn total_dead_reaches(&self, f: f64) -> bool {
        self.controller.device().dead_blocks() as f64 / self.geo.num_blocks() as f64 >= f
    }

    fn condition_met(&self, stop: StopCondition) -> bool {
        match stop {
            StopCondition::Writes(n) => self.writes_issued >= n,
            StopCondition::DeadFraction(f) => {
                self.total_dead_reaches(f) && self.controller.visible_dead_fraction() >= f
            }
            StopCondition::UsableBelow(f) => self.usable_fraction() <= f,
        }
    }
}

#[cfg(test)]
mod tests;
