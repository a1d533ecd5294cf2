//! Sharded multi-bank memory-controller front-end.
//!
//! Real PCM DIMMs are not one monolithic wear-leveling domain: the
//! controller stripes the physical address space across many banks, each
//! with its own wear-leveling hardware, and services them in parallel.
//! This crate models that front-end on top of the single-domain
//! simulation stack:
//!
//! * [`wlr_base::InterleaveMap`] splits every global block address into a
//!   `(bank, local address)` pair at cache-line, page, or custom striping;
//! * each [`bank::Bank`] is an independent `(wear-leveler, reviver,
//!   device)` stack — a full [`wl_reviver::Simulation`] over its local
//!   space, seeded from its own deterministic RNG stream;
//! * a small DRAM [`wbuf::WriteBuffer`] absorbs hot-line rewrites before
//!   they cost PCM endurance;
//! * bounded per-bank [`queue::WriteQueue`]s coalesce pending writes into
//!   batches which flow through lock-free SPSC rings
//!   ([`wlr_base::spsc`]) to *pinned* per-bank drain workers — long-lived
//!   threads that own their bank stack for the whole run — or are
//!   serviced by the submitting thread itself, through the same
//!   drain-and-publish function, when no worker threads are available;
//! * an optional wear-aware [`steer::Steering`] layer biases batch
//!   placement away from heavily-worn banks (off by default — the
//!   deterministic identity mapping is the reference behavior);
//! * [`stats`] aggregates cross-bank wear, queue-latency percentiles and
//!   per-bank revival outcomes, and a [`McStopPolicy`] decides when the
//!   memory as a whole is dead.
//!
//! # Determinism
//!
//! The front-end pipeline (buffer, queues, flush scheduling, steering)
//! is a pure function of the request stream, and banks never share
//! state; the per-bank issue sequence is therefore identical whether
//! batches are consumed by pinned worker threads or inline on the
//! submitting thread, and each bank's end state is bit-identical to a
//! standalone single-bank simulation replaying the same issue log (see
//! [`McFrontend::reference_sim`]). Bank-death visibility is lagged by
//! exactly one batch in *both* modes — the front-end reads a bank's
//! fate at a flush only for batches flushed before that point — so stop
//! decisions land on the same request in threaded and inline runs.
//!
//! # Files
//!
//! * this file — the [`McFrontend`] state, accessors, `submit` / `finish` / `run`
//!   and the array `reboot`;
//! * `builder` — [`McFrontendBuilder`]: configuration, setters, `build`;
//! * `pipeline` — the bank hand-off protocol, written once; `with_pipeline`;
//! * `flush` — the request step (`step`, `enqueue`), the age probe,
//!   `flush_bank`, death sync, stop policy;
//! * [`degrade`] — quarantine types and the front-end methods acting on them;
//! * [`bank`], [`queue`], [`wbuf`], [`steer`], [`stats`] — as above.
//!
//! # Example
//!
//! ```
//! use wlr_mc::McFrontend;
//! use wlr_trace::UniformWorkload;
//!
//! let mut mc = McFrontend::builder()
//!     .banks(4)
//!     .total_blocks(1 << 12)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let mut w = UniformWorkload::new(1 << 12, 7);
//! let out = mc.run(&mut w, 10_000);
//! assert!(out.conserves_writes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
mod builder;
pub mod degrade;
mod flush;
mod pipeline;
pub mod queue;
pub mod stats;
pub mod steer;
pub mod wbuf;

pub use bank::Bank;
pub use builder::McFrontendBuilder;
pub use degrade::{McReadError, QuarantineImage, DIR_TAG_BASE, READ_RETRIES};
pub use queue::{QueueEntry, WriteQueue};
pub use stats::{BankReport, LatencyHistogram, McOutcome, McStopPolicy, McStopReason};
pub use steer::Steering;
pub use wbuf::WriteBuffer;
// Re-exported so dependents can build fault plans for `arm_bank_faults`
// without a direct wlr-pcm dependency.
pub use wlr_pcm::{CrashPoint, FaultPlan};

use std::sync::Arc;
use wl_reviver::metrics::WearHistogram;
use wl_reviver::{DurableImage, RecoveryReport, Simulation, TornMeta};

use builder::BankConfig;
use degrade::{Quarantine, Wreckage};
use pipeline::BankSync;
use wlr_base::interleave::InterleaveMap;
use wlr_base::spsc::{Consumer, Producer};
use wlr_trace::Workload;

/// The multi-bank memory-controller front-end. See the crate docs.
#[derive(Debug)]
pub struct McFrontend {
    map: InterleaveMap,
    cfg: BankConfig,
    total_blocks: u64,
    banks: Vec<Bank>,
    /// Each logical bank's queue and age-probe tick.
    lanes: Vec<Lane>,
    wbuf: WriteBuffer,
    latency: LatencyHistogram,
    /// Front-end arrival clock: one tick per submitted request, so also
    /// the request count. Bank service completions run on per-bank
    /// service clocks (`busy_until`).
    tick: u64,
    drains: u64,
    stop_policy: McStopPolicy,
    stop: Option<McStopReason>,
    /// Producer half of each bank's SPSC ring.
    producers: Vec<Producer>,
    /// Consumer halves; `None` while lent to a pinned worker thread.
    consumers: Vec<Option<Consumer>>,
    /// Worker→front-end progress/death publication, per bank.
    sync: Arc<Vec<BankSync>>,
    /// Per-bank service clock: when the bank finishes its queued batches.
    busy_until: Vec<u64>,
    /// Entries flushed into each bank's ring so far (front-end view).
    flushed: Vec<u64>,
    /// Deterministically-lagged death mirror (see crate docs).
    bank_dead: Vec<bool>,
    /// Count of `true` entries in `bank_dead`, so the per-flush stop
    /// check is O(1) instead of a scan over every bank.
    dead_count: usize,
    /// Age bound: a queue whose oldest entry has waited this many ticks
    /// is flushed even if not full.
    max_batch_age: u64,
    /// A lower bound on every lane's `due`: a request before this tick
    /// cannot fire the age probe.
    age_due: u64,
    /// Reused address buffer for flushes into a worker's ring.
    addr_buf: Vec<u64>,
    /// Reused buffer the write buffer drains into at the end of a run,
    /// reserved for its every line.
    dirty_buf: Vec<u64>,
    /// Whether pinned workers currently own the banks and consumers.
    workers_active: bool,
    drain_workers: usize,
    steer: Option<Steering>,
    /// Quarantine state; present only in degraded mode.
    degrade: Option<Quarantine>,
    /// Per-bank wreckage buffers (shared with the banks themselves).
    wreckage: Vec<Arc<Wreckage>>,
}

/// A logical bank's write queue and `due`, the tick the age probe will
/// flush it at (`u64::MAX` while empty), side by side: one index a request.
#[derive(Debug)]
struct Lane {
    queue: WriteQueue,
    due: u64,
}

impl McFrontend {
    /// The global ↔ per-bank address mapping in use.
    pub fn map(&self) -> &InterleaveMap {
        &self.map
    }

    /// The banks, in bank order.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks: from inside a
    /// [`with_pipeline`](Self::with_pipeline) driver, and for good once a
    /// driver has panicked (the banks went down with its workers).
    pub fn banks(&self) -> &[Bank] {
        assert!(!self.workers_active, "banks are owned by drain workers");
        &self.banks
    }

    /// Requests submitted so far.
    pub fn requests(&self) -> u64 {
        self.tick
    }

    /// The stop reason, once the stop policy has tripped.
    pub fn stopped(&self) -> Option<McStopReason> {
        self.stop
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.flushed.len()
    }

    /// Mutable access to bank `bank`'s simulation — for attaching an
    /// event ring and for state restoration between runs.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn bank_sim_mut(&mut self, bank: usize) -> &mut Simulation {
        assert!(!self.workers_active, "banks are owned by drain workers");
        self.banks[bank].sim_mut()
    }

    /// A fresh standalone simulation configured identically to bank
    /// `bank` — replaying that bank's issue log through it must
    /// reproduce the bank's fingerprint bit for bit.
    pub fn reference_sim(&self, bank: usize) -> Simulation {
        self.cfg.build_sim(bank)
    }

    /// Arms device faults on bank `bank`, with indices relative to the
    /// bank's current access counts.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn arm_bank_faults(&mut self, bank: usize, plan: FaultPlan) {
        assert!(!self.workers_active, "banks are owned by drain workers");
        self.banks[bank].sim_mut().arm_faults(plan);
    }

    /// Arms a kill point on bank `bank`: it dies once it has issued `n`
    /// more writes (0 = before the next one), as a bank whose spare pool
    /// ran dry would. In degraded mode it is quarantined, not fatal.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn kill_bank_after(&mut self, bank: usize, n: u64) {
        assert!(!self.workers_active, "banks are owned by drain workers");
        self.banks[bank].kill_after(n);
    }

    /// Mutable access to every bank — parallel state restoration after a
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn banks_mut(&mut self) -> &mut [Bank] {
        assert!(!self.workers_active, "banks are owned by drain workers");
        &mut self.banks
    }

    /// Reboots a *freshly built* front-end from what survived the power-off:
    /// each bank from its [`DurableImage`] through
    /// [`Simulation::restore_durable`] (whose recovery scan emits into an
    /// attached event ring), then the quarantine state, so a degraded array
    /// resumes serving at N−k without rediscovering its deaths. Returns the
    /// per-bank recovery reports, in bank order.
    ///
    /// # Errors
    ///
    /// [`TornMeta`] when `images` holds another number of banks, a bank's
    /// image does not fit it (the first such bank's error), or the
    /// quarantine image does not fit the front-end.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks, or when given a
    /// quarantine image outside degraded mode.
    pub fn reboot(
        &mut self,
        images: &[DurableImage],
        quarantine: Option<&QuarantineImage>,
    ) -> Result<Vec<RecoveryReport>, TornMeta> {
        if images.len() != self.num_banks() {
            return Err(TornMeta(format!(
                "images of {} banks, front-end has {}",
                images.len(),
                self.num_banks()
            )));
        }
        let reports = self
            .banks_mut()
            .iter_mut()
            .zip(images)
            .map(|(bank, img)| bank.sim_mut().restore_durable(img))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(q) = quarantine {
            self.restore_quarantine(q)?;
        }
        Ok(reports)
    }

    /// Submits one write request for global block `global`. May flush
    /// the target bank's batch when its queue is full.
    ///
    /// # Panics
    ///
    /// Panics when `global` is outside the configured global space.
    #[inline]
    pub fn submit(&mut self, global: u64) {
        assert!(
            global < self.total_blocks,
            "request {global} outside the global space of {} blocks",
            self.total_blocks
        );
        self.step(global);
    }

    /// Flushes the write buffer, drains every queue, and summarizes the
    /// run. The rings hold nothing to drain: they are fed only while
    /// workers run, and workers exit only once they are empty. The
    /// front-end can keep accepting requests afterwards; the outcome
    /// covers everything submitted so far.
    pub fn finish(&mut self) -> McOutcome {
        self.run_dry();
        // End of trace: full (no longer lagged) death reconciliation.
        for phys in 0..self.banks.len() {
            if !self.banks[phys].alive() {
                self.mark_dead(phys);
            }
        }
        self.check_stop();
        let mut wear = WearHistogram::new();
        let mut revival = wl_reviver::ReviverCounters::default();
        for bank in &self.banks {
            let sim = bank.sim();
            if let Some(c) = sim.reviver_counters() {
                revival.absorb(&c);
            }
            let visible = sim.geometry().num_blocks() as usize;
            for w in sim.controller().device().wear().take(visible) {
                wear.push(w);
            }
        }
        let ticks = self.busy_until.iter().copied().fold(self.tick, u64::max);
        McOutcome {
            requests: self.tick,
            absorbed: self.wbuf.absorbed(),
            coalesced: self.lanes.iter().map(|l| l.queue.coalesced()).sum(),
            issued: self.banks.iter().map(Bank::issued).sum(),
            dropped: self.banks.iter().map(Bank::dropped).sum(),
            redirected: self.degrade.as_ref().map_or(0, |q| q.redirected),
            quarantines: self.degrade.as_ref().map_or(0, |q| q.quarantines),
            migrated_lines: self.degrade.as_ref().map_or(0, |q| q.migrated_lines),
            read_retries: self.banks.iter().map(Bank::read_retries).sum(),
            retry_exhausted: self.banks.iter().map(Bank::retry_exhausted).sum(),
            drains: self.drains,
            ticks,
            stop: self.stop.unwrap_or(McStopReason::TraceComplete),
            banks: self.banks.iter().map(BankReport::from_bank).collect(),
            wear,
            latency: self.latency.clone(),
            revival,
        }
    }

    /// Submits up to `requests` writes drawn from `workload` (stopping
    /// early if the stop policy trips), then [`finish`](Self::finish)es.
    /// With more than one drain worker available, the banks are serviced
    /// by long-lived worker threads for the whole run; the outcome is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics when the workload's address space differs from the
    /// front-end's global space.
    pub fn run(&mut self, workload: &mut dyn Workload, requests: u64) -> McOutcome {
        assert_eq!(
            workload.len(),
            self.total_blocks,
            "workload space must equal the global space"
        );
        self.with_pipeline(|mc| {
            for _ in 0..requests {
                if mc.stop.is_some() {
                    break;
                }
                mc.step(workload.next_write().index());
            }
        });
        self.finish()
    }
}

#[cfg(test)]
mod tests;
