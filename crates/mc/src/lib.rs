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
//!   threads that own their bank stack for the whole run — or are drained
//!   inline on the submitting thread when no worker threads are
//!   available;
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
pub mod degrade;
pub mod obs;
pub mod queue;
pub mod stats;
pub mod steer;
pub mod wbuf;

pub use bank::Bank;
pub use degrade::{BankChaos, ChaosSlot, McReadError, QuarantineImage, RetryPolicy, DIR_TAG_BASE};
pub use obs::{BankPipeStat, PipeAccum, PipelineSnapshot};
pub use queue::{QueueEntry, WriteQueue};
pub use stats::{BankReport, LatencyHistogram, McOutcome, McStopPolicy, McStopReason};
pub use steer::Steering;
pub use wbuf::WriteBuffer;
// Re-exported so dependents can build chaos plans for `inject_chaos` /
// `arm_bank_faults` without a direct wlr-pcm dependency.
pub use wlr_pcm::{CrashPoint, FaultPlan};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wl_reviver::metrics::WearHistogram;
use wl_reviver::sim::EccKind;
use wl_reviver::{SchemeRegistry, Simulation, StackSpec};

use degrade::{Quarantine, Wreckage, LOCAL_MASK, LOGICAL_SHIFT};
use wlr_base::interleave::{Interleave, InterleaveError, InterleaveMap};
use wlr_base::rng::SplitMix64;
use wlr_base::spsc::{self, Consumer, Producer};
use wlr_base::stats::registry::LogHistogram;
use wlr_base::Geometry;
use wlr_trace::Workload;

/// Per-bank seed streams are derived as `mix(seed, SALT ^ bank)` so the
/// banks' endurance maps and keys are independent of each other and of
/// any single-domain run with the same seed.
const BANK_STREAM_SALT: u64 = 0x4d43_4241_4e4b_0000; // "MCBANK"

/// The shared per-bank simulation configuration; also used to build the
/// standalone reference simulation for determinism checks.
#[derive(Debug, Clone, Copy)]
struct BankConfig {
    local_blocks: u64,
    endurance_mean: f64,
    endurance_cov: f64,
    stack: &'static StackSpec,
    gap_interval: u64,
    sample_interval: u64,
    seed: u64,
    verify_integrity: bool,
    ecc: Option<EccKind>,
}

impl BankConfig {
    fn build_sim(&self, bank: usize) -> Simulation {
        let mut b = Simulation::builder()
            .num_blocks(self.local_blocks)
            .endurance_mean(self.endurance_mean)
            .endurance_cov(self.endurance_cov)
            .stack(self.stack.name)
            .gap_interval(self.gap_interval)
            .verify_integrity(self.verify_integrity)
            .seed(SplitMix64::mix(self.seed, BANK_STREAM_SALT ^ bank as u64));
        if let Some(ecc) = self.ecc {
            b = b.ecc(ecc);
        }
        if self.sample_interval != 0 {
            b = b.sample_interval(self.sample_interval);
        }
        b.build()
    }
}

/// What a pinned drain worker publishes back to the front-end: how far
/// it has consumed its ring, and whether the bank survived. The
/// front-end reads `alive` only after observing `consumed` catch up to
/// its own flush count (Acquire pairs with the worker's Release), which
/// is what makes death visibility deterministic.
#[derive(Debug)]
struct BankSync {
    /// Ring entries fully drained into the bank so far.
    consumed: AtomicU64,
    /// Whether the bank was alive after its last drained batch.
    alive: AtomicBool,
}

/// Releases pinned workers on drop so an unwinding driver closure can't
/// leave them spinning forever inside `std::thread::scope`.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Builder for [`McFrontend`]; see [`McFrontend::builder`].
#[derive(Debug)]
pub struct McFrontendBuilder {
    banks: usize,
    total_blocks: u64,
    /// The per-bank configuration the setters fill in; `local_blocks` is
    /// worked out by [`Self::build`].
    cfg: BankConfig,
    interleave: Interleave,
    queue_depth: usize,
    write_buffer_lines: usize,
    steering: bool,
    steer_epoch: u64,
    max_batch_age: u64,
    drain_workers: usize,
    record_issue: bool,
    span_sample: u64,
    stop_policy: McStopPolicy,
    degraded: bool,
    retry: degrade::RetryPolicy,
}

impl McFrontendBuilder {
    /// Number of banks (default 4).
    pub fn banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Global PCM capacity in blocks, split evenly across banks (default
    /// 2¹⁴). Must divide into whole interleave rounds and valid per-bank
    /// geometries.
    pub fn total_blocks(mut self, blocks: u64) -> Self {
        self.total_blocks = blocks;
        self
    }

    /// Mean cell endurance per bank (default 10⁴).
    pub fn endurance_mean(mut self, mean: f64) -> Self {
        self.cfg.endurance_mean = mean;
        self
    }

    /// Cell-lifetime CoV (default 0.2).
    pub fn endurance_cov(mut self, cov: f64) -> Self {
        self.cfg.endurance_cov = cov;
        self
    }

    /// Per-bank controller stack by scheme-registry name (e.g.
    /// `"reviver-sg"`, `"softwear-wlr"`; see
    /// [`wl_reviver::SchemeRegistry`]); default `"reviver-sg"`.
    ///
    /// # Panics
    ///
    /// Panics with the valid-name list on an unknown name; callers
    /// taking untrusted input should pre-validate through
    /// [`wl_reviver::SchemeRegistry::resolve`].
    pub fn stack(mut self, name: &str) -> Self {
        self.cfg.stack = SchemeRegistry::global().expect(name);
        self
    }

    /// ψ, writes per leveler migration step, for every bank (default 100).
    pub fn gap_interval(mut self, psi: u64) -> Self {
        self.cfg.gap_interval = psi;
        self
    }

    /// Per-bank time-series sample interval (default: the simulation's
    /// own default).
    pub fn sample_interval(mut self, writes: u64) -> Self {
        self.cfg.sample_interval = writes;
        self
    }

    /// Experiment seed; each bank derives its own stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Striping granularity (default [`Interleave::CacheLine`]).
    pub fn interleave(mut self, interleave: Interleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Per-bank write-queue depth in distinct addresses (default 64).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// DRAM write-buffer capacity in lines; 0 disables it (default 32).
    pub fn write_buffer_lines(mut self, lines: usize) -> Self {
        self.write_buffer_lines = lines;
        self
    }

    /// Enable wear-aware bank steering (default off). Steered runs stay
    /// deterministic but are not bit-identical to the unsteered mapping;
    /// see [`steer::Steering`].
    pub fn steering(mut self, on: bool) -> Self {
        self.steering = on;
        self
    }

    /// Flushed writes per steering epoch (default 4096).
    pub fn steer_epoch(mut self, writes: u64) -> Self {
        self.steer_epoch = writes;
        self
    }

    /// Maximum ticks a queued write may age before its bank is flushed
    /// even if its queue is not full; 0 picks `12 × queue_depth` (default).
    pub fn max_batch_age(mut self, ticks: u64) -> Self {
        self.max_batch_age = ticks;
        self
    }

    /// Pinned drain worker threads for [`McFrontend::run`]; 0 (default)
    /// sizes to the machine (cores − 1, capped at the bank count).
    /// 1 drains inline on the submitting thread — bit-identical to any
    /// worker count.
    pub fn drain_workers(mut self, workers: usize) -> Self {
        self.drain_workers = workers;
        self
    }

    /// Record every bank's issue log for determinism checks (costs
    /// memory proportional to issued writes; default off).
    pub fn record_issue(mut self, on: bool) -> Self {
        self.record_issue = on;
        self
    }

    /// Sample one in `n` submits for wall-clock span timing
    /// (enqueue → provably serviced); 0 (default) disables sampling.
    /// Spans land in the histogram installed via
    /// [`McFrontend::set_span_histogram`].
    pub fn span_sample(mut self, n: u64) -> Self {
        self.span_sample = n;
        self
    }

    /// Global-death policy (default [`McStopPolicy::FirstBankDead`]).
    pub fn stop_policy(mut self, policy: McStopPolicy) -> Self {
        self.stop_policy = policy;
        self
    }

    /// Enable degraded-mode survival (default off): a dead bank is
    /// quarantined — its in-flight writes rescued and live lines migrated
    /// into the directory — instead of dropping traffic, and the array
    /// keeps serving at N−1 capacity. Bit-identical to a plain run when
    /// no bank dies. Usually paired with [`McStopPolicy::Quorum`].
    pub fn degraded(mut self, on: bool) -> Self {
        self.degraded = on;
        self
    }

    /// Run every bank with its integrity oracle on (default off). Costs
    /// the per-write oracle bookkeeping; required for quarantine to
    /// migrate line *contents* and for [`McFrontend::read`] to return
    /// meaningful tags.
    pub fn verify_integrity(mut self, on: bool) -> Self {
        self.cfg.verify_integrity = on;
        self
    }

    /// Per-bank error-correction scheme (default: the simulation's own
    /// default, ECP6).
    pub fn ecc(mut self, ecc: EccKind) -> Self {
        self.cfg.ecc = Some(ecc);
        self
    }

    /// Retries per transient read error before the typed error surfaces
    /// (default 3).
    pub fn retry_limit(mut self, retries: u32) -> Self {
        self.retry.max_retries = retries;
        self
    }

    /// Base spin count for the exponential retry backoff (default 64).
    pub fn retry_backoff(mut self, spins: u32) -> Self {
        self.retry.backoff_spins = spins;
        self
    }

    /// Constructs the front-end.
    ///
    /// # Errors
    ///
    /// [`InterleaveError`] when the bank count or stripe is zero or the
    /// global space does not divide into whole interleave rounds.
    ///
    /// # Panics
    ///
    /// Panics when `total_blocks` is not a valid geometry (a whole number
    /// of pages) or a bank's share is too small for a simulation.
    pub fn build(self) -> Result<McFrontend, InterleaveError> {
        let geo = Geometry::builder()
            .num_blocks(self.total_blocks)
            .build()
            .expect("total_blocks must form a whole number of pages");
        let stripe = self.interleave.stripe_blocks(&geo);
        let map = InterleaveMap::new(self.banks as u64, stripe)?;
        let local_blocks = map.local_space(self.total_blocks)?;
        let cfg = BankConfig {
            local_blocks,
            ..self.cfg
        };
        if self.degraded {
            // Ring entries carry the logical bank in bits 48+; the local
            // space and bank count must leave that encoding unambiguous.
            assert!(
                local_blocks <= degrade::LOCAL_MASK,
                "degraded mode: local space must fit in {LOGICAL_SHIFT} bits"
            );
            assert!(
                self.banks <= (1 << (64 - LOGICAL_SHIFT)),
                "degraded mode: too many banks for the logical encoding"
            );
        }
        let banks: Vec<Bank> = (0..self.banks)
            .map(|i| {
                let mut b = Bank::new(i, cfg.build_sim(i), self.record_issue);
                b.set_degraded(self.degraded);
                b.set_retry(self.retry);
                b
            })
            .collect();
        let chaos_slots: Vec<Arc<ChaosSlot>> = banks.iter().map(Bank::chaos_slot).collect();
        let wreckage: Vec<Arc<Wreckage>> = banks.iter().map(Bank::wreckage).collect();
        let queues: Vec<WriteQueue> = (0..self.banks)
            .map(|_| WriteQueue::new(self.queue_depth, local_blocks))
            .collect();
        let mut producers = Vec::with_capacity(self.banks);
        let mut consumers = Vec::with_capacity(self.banks);
        for _ in 0..self.banks {
            // `flush_bank` syncs with the bank before every flush, so a
            // ring never holds more than one batch: one queue's worth
            // (rounded up to a power of two) is all it needs.
            let (p, c) = spsc::ring(self.queue_depth.max(1));
            producers.push(p);
            consumers.push(Some(c));
        }
        let sync: Arc<Vec<BankSync>> = Arc::new(
            (0..self.banks)
                .map(|_| BankSync {
                    consumed: AtomicU64::new(0),
                    alive: AtomicBool::new(true),
                })
                .collect(),
        );
        let wbuf = WriteBuffer::new(self.write_buffer_lines, self.total_blocks);
        let max_batch_age = if self.max_batch_age == 0 {
            // Ages past ~12 × depth stop paying: at high bank counts the
            // round-robin probe adds ~one probe cycle of lag, and the
            // tail (age + probe lag + service) must stay inside the
            // latency budget the bench tracks.
            12 * self.queue_depth as u64
        } else {
            self.max_batch_age
        };
        Ok(McFrontend {
            map,
            cfg,
            total_blocks: self.total_blocks,
            banks,
            queues,
            wbuf,
            latency: LatencyHistogram::new(),
            tick: 0,
            requests: 0,
            drains: 0,
            stop_policy: self.stop_policy,
            stop: None,
            producers,
            consumers,
            sync,
            busy_until: vec![0; self.banks],
            flushed: vec![0; self.banks],
            bank_dead: vec![false; self.banks],
            dead_count: 0,
            max_batch_age,
            age_cursor: 0,
            oldest_arrival: vec![u64::MAX; self.banks],
            entry_buf: Vec::new(),
            addr_buf: Vec::new(),
            workers_active: false,
            drain_workers: self.drain_workers,
            pipe: PipeAccum::new(),
            span_sample: self.span_sample,
            span_countdown: self.span_sample.max(1),
            span_hist: None,
            span_pending: vec![None; self.banks],
            span_probes: vec![None; self.banks],
            steer: self
                .steering
                .then(|| Steering::new(self.banks, self.steer_epoch)),
            degrade: self.degraded.then(|| Quarantine::new(self.banks)),
            chaos_slots,
            wreckage,
        })
    }
}

/// The multi-bank memory-controller front-end. See the crate docs.
#[derive(Debug)]
pub struct McFrontend {
    map: InterleaveMap,
    cfg: BankConfig,
    total_blocks: u64,
    banks: Vec<Bank>,
    queues: Vec<WriteQueue>,
    wbuf: WriteBuffer,
    latency: LatencyHistogram,
    /// Front-end arrival clock: one tick per submitted request. Bank
    /// service completions run on per-bank service clocks (`busy_until`).
    tick: u64,
    requests: u64,
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
    /// Round-robin cursor for the age check (one queue probed per
    /// submit, so the probe cost stays O(1)).
    age_cursor: usize,
    /// Oldest pending arrival tick per logical bank (`u64::MAX` when the
    /// queue is empty). A dense mirror of `WriteQueue::front_arrival` so
    /// the per-submit age probe reads one contiguous word instead of
    /// chasing a cold queue struct.
    oldest_arrival: Vec<u64>,
    /// Reused `(address, arrival)` buffer for queue flushes.
    entry_buf: Vec<QueueEntry>,
    /// Reused address buffer for queue flushes (feeds the ring or the
    /// bank directly).
    addr_buf: Vec<u64>,
    /// Whether pinned workers currently own the banks and consumers.
    workers_active: bool,
    drain_workers: usize,
    /// Always-on flush-path accumulators (batch sizes, flush ages).
    pipe: PipeAccum,
    /// Span sampling period (0 = off); see
    /// [`McFrontendBuilder::span_sample`].
    span_sample: u64,
    /// Requests until the next sampled span (counts down from
    /// `span_sample`; unused when sampling is off).
    span_countdown: u64,
    /// Destination for sampled span timings (nanoseconds).
    span_hist: Option<LogHistogram>,
    /// Per *logical* bank: wall-clock stamp of a sampled enqueue waiting
    /// to ride the bank's next flush.
    span_pending: Vec<Option<std::time::Instant>>,
    /// Per *physical* bank: an in-flight probe `(flushed target, t0)` —
    /// completed once the bank's `consumed` count reaches the target.
    /// `sync_bank` guarantees at most one batch is in flight per bank,
    /// so a probe is always complete by the bank's next flush.
    span_probes: Vec<Option<(u64, std::time::Instant)>>,
    steer: Option<Steering>,
    /// Quarantine state; present only in degraded mode.
    degrade: Option<Quarantine>,
    /// Per-bank chaos mailboxes (shared with the banks themselves).
    chaos_slots: Vec<Arc<ChaosSlot>>,
    /// Per-bank wreckage buffers (shared with the banks themselves).
    wreckage: Vec<Arc<Wreckage>>,
}

impl McFrontend {
    /// Starts building a front-end with the default configuration.
    pub fn builder() -> McFrontendBuilder {
        McFrontendBuilder {
            banks: 4,
            total_blocks: 1 << 14,
            cfg: BankConfig {
                local_blocks: 0,
                endurance_mean: 1e4,
                endurance_cov: 0.2,
                stack: SchemeRegistry::global().expect("reviver-sg"),
                gap_interval: 100,
                sample_interval: 0,
                seed: 0,
                verify_integrity: false,
                ecc: None,
            },
            interleave: Interleave::CacheLine,
            queue_depth: 64,
            write_buffer_lines: 32,
            steering: false,
            steer_epoch: 4096,
            max_batch_age: 0,
            drain_workers: 0,
            record_issue: false,
            span_sample: 0,
            stop_policy: McStopPolicy::FirstBankDead,
            degraded: false,
            retry: degrade::RetryPolicy::default(),
        }
    }

    /// The global ↔ per-bank address mapping in use.
    pub fn map(&self) -> &InterleaveMap {
        &self.map
    }

    /// The banks, in bank order.
    ///
    /// # Panics
    ///
    /// Panics if called while pinned workers own the banks (never
    /// observable from outside: workers live only inside [`run`](Self::run)).
    pub fn banks(&self) -> &[Bank] {
        assert!(!self.workers_active, "banks are owned by drain workers");
        &self.banks
    }

    /// Requests submitted so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Current front-end clock value.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The stop reason, once the stop policy has tripped.
    pub fn stopped(&self) -> Option<McStopReason> {
        self.stop
    }

    /// The steering layer, when enabled.
    pub fn steering(&self) -> Option<&Steering> {
        self.steer.as_ref()
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.flushed.len()
    }

    /// Queue-latency histogram over everything flushed so far.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The flush-path accumulators (batch sizes, flush ages).
    pub fn pipe(&self) -> &PipeAccum {
        &self.pipe
    }

    /// Installs the destination histogram for sampled span timings (see
    /// [`McFrontendBuilder::span_sample`]). Spans are recorded in
    /// nanoseconds.
    pub fn set_span_histogram(&mut self, hist: LogHistogram) {
        self.span_hist = Some(hist);
    }

    /// Mutable access to bank `bank`'s simulation — for sink attachment
    /// and state restoration between runs.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn bank_sim_mut(&mut self, bank: usize) -> &mut Simulation {
        assert!(!self.workers_active, "banks are owned by drain workers");
        self.banks[bank].sim_mut()
    }

    /// Assembles a point-in-time [`PipelineSnapshot`]. Safe to call
    /// while pinned workers are live: per-bank progress comes from the
    /// same `BankSync` publication the death-lag protocol maintains, so
    /// per-bank numbers may lag the workers by the in-flight batch but
    /// are never torn.
    pub fn pipeline_snapshot(&self) -> PipelineSnapshot {
        let banks = (0..self.flushed.len())
            .map(|i| {
                let consumed = self.sync[i].consumed.load(Ordering::Acquire);
                BankPipeStat {
                    bank: i,
                    flushed: self.flushed[i],
                    consumed,
                    occupancy: self.flushed[i].saturating_sub(consumed),
                    busy_until: self.busy_until[i],
                    dead: self.bank_dead[i],
                }
            })
            .collect();
        let (p50, p99, p999) = if self.latency.is_empty() {
            (0, 0, 0)
        } else {
            (self.latency.p50(), self.latency.p99(), self.latency.p999())
        };
        PipelineSnapshot {
            requests: self.requests,
            ticks: self.tick,
            drains: self.drains,
            accum: self.pipe.clone(),
            steer_rotations: self.steer.as_ref().map_or(0, Steering::rotations),
            p50_ticks: p50,
            p99_ticks: p99,
            p999_ticks: p999,
            quarantines: self.degrade.as_ref().map_or(0, |q| q.quarantines),
            redirected: self.degrade.as_ref().map_or(0, |q| q.redirected),
            migrated_lines: self.degrade.as_ref().map_or(0, |q| q.migrated_lines),
            directory_lines: self
                .degrade
                .as_ref()
                .map_or(0, |q| q.directory.len() as u64),
            banks,
        }
    }

    /// A fresh standalone simulation configured identically to bank
    /// `bank` — replaying that bank's issue log through it must
    /// reproduce the bank's fingerprint bit for bit.
    pub fn reference_sim(&self, bank: usize) -> Simulation {
        self.cfg.build_sim(bank)
    }

    /// Posts a chaos command into bank `bank`'s mailbox; the bank
    /// applies it at its next batch boundary. Safe to call while pinned
    /// workers own the banks — this is the runtime fault-injection
    /// entry point for a live pipeline.
    pub fn inject_chaos(&self, bank: usize, cmd: BankChaos) {
        self.chaos_slots[bank].post(cmd);
    }

    /// Arms device faults directly on bank `bank` (indices relative to
    /// the bank's current access counts). Unlike
    /// [`inject_chaos`](Self::inject_chaos) this takes effect
    /// immediately, which makes fault positions exactly predictable in
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn arm_bank_faults(&mut self, bank: usize, plan: FaultPlan) {
        assert!(!self.workers_active, "banks are owned by drain workers");
        self.banks[bank].sim_mut().arm_faults(plan);
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

    /// Reads global line `global` as the array currently serves it: the
    /// degraded-mode directory first (migrated and redirected lines),
    /// then the owning bank's stack, with transient errors retried per
    /// the bank's [`RetryPolicy`]. This is the post-flush PCM +
    /// directory view — the write buffer and queues are not consulted —
    /// and it addresses banks by their identity (unsteered) home.
    /// `Ok(None)` means the line is not currently tracked anywhere.
    ///
    /// # Panics
    ///
    /// Panics while pinned workers own the banks.
    pub fn read(&mut self, global: u64) -> Result<Option<u64>, McReadError> {
        assert!(!self.workers_active, "banks are owned by drain workers");
        if let Some(q) = &self.degrade {
            if let Some(&tag) = q.directory.get(&global) {
                return Ok(Some(tag));
            }
        }
        let (bank, local) = self.map.split(global);
        let home = bank as usize;
        if self.bank_dead[home] {
            // Everything the dead bank still held was migrated into the
            // directory at quarantine time.
            return Ok(None);
        }
        self.banks[home].read_local(local)
    }

    /// Snapshots the quarantine state for persistence; `None` outside
    /// degraded mode.
    pub fn quarantine_image(&self) -> Option<QuarantineImage> {
        let q = self.degrade.as_ref()?;
        Some(QuarantineImage {
            dead: self.bank_dead.clone(),
            substitutes: q
                .substitute
                .iter()
                .map(|s| s.map_or(u64::MAX, |b| b as u64))
                .collect(),
            directory: q.directory.iter().map(|(&k, &v)| (k, v)).collect(),
            dir_seq: q.dir_seq,
        })
    }

    /// Re-applies persisted quarantine state after a restart: marks the
    /// recorded banks dead *without* re-running the quarantine
    /// transition (their wreckage was already rescued in the previous
    /// life), reinstates the substitute chain and directory, and
    /// re-evaluates the stop policy.
    ///
    /// # Panics
    ///
    /// Panics outside degraded mode, while workers own the banks, or
    /// when the image's bank count differs from this front-end's.
    pub fn restore_quarantine(&mut self, img: &QuarantineImage) {
        assert!(!self.workers_active, "banks are owned by drain workers");
        assert_eq!(
            img.dead.len(),
            self.bank_dead.len(),
            "quarantine image bank count mismatch"
        );
        {
            let q = self
                .degrade
                .as_mut()
                .expect("restore_quarantine requires degraded mode");
            q.substitute = img
                .substitutes
                .iter()
                .map(|&s| (s != u64::MAX).then_some(s as usize))
                .collect();
            q.directory = img.directory.iter().copied().collect();
            q.dir_seq = img.dir_seq.max(DIR_TAG_BASE);
        }
        for (phys, &dead) in img.dead.iter().enumerate() {
            if dead && !self.bank_dead[phys] {
                self.bank_dead[phys] = true;
                self.dead_count += 1;
                self.banks[phys].force_dead();
                let s = &self.sync[phys];
                s.alive.store(false, Ordering::Relaxed);
                if let Some(st) = &mut self.steer {
                    st.exclude(phys);
                }
            }
        }
        self.check_stop();
    }

    /// Submits one write request for global block `global`. May flush
    /// the target bank's batch when its queue is full.
    ///
    /// # Panics
    ///
    /// Panics when `global` is outside the configured global space.
    pub fn submit(&mut self, global: u64) {
        assert!(
            global < self.total_blocks,
            "request {global} outside the global space of {} blocks",
            self.total_blocks
        );
        self.requests += 1;
        self.tick += 1;
        if let Some(line) = self.wbuf.admit(global) {
            self.enqueue(line);
        }
        self.age_probe();
    }

    /// Flushes the write buffer, drains every queue, and summarizes the
    /// run. The rings hold nothing to drain: they are fed only while
    /// workers run, and workers exit only once they are empty. The
    /// front-end can keep accepting requests afterwards; the outcome
    /// covers everything submitted so far.
    pub fn finish(&mut self) -> McOutcome {
        let dirty = self.wbuf.flush();
        for line in dirty {
            self.enqueue(line);
        }
        for b in 0..self.queues.len() {
            self.flush_bank(b);
        }
        // End of trace: full (no longer lagged) death reconciliation,
        // and every ring is empty so outstanding span probes are all
        // complete.
        for phys in 0..self.banks.len() {
            if !self.banks[phys].alive() {
                self.mark_dead(phys);
            }
            self.complete_span_probe(phys);
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
            wear.merge(&WearHistogram::from_wear(
                &sim.controller().device().wear_snapshot()[..visible],
            ));
        }
        let ticks = self.busy_until.iter().copied().fold(self.tick, u64::max);
        McOutcome {
            requests: self.requests,
            absorbed: self.wbuf.absorbed(),
            coalesced: self.queues.iter().map(WriteQueue::coalesced).sum(),
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
                let addr = workload.next_write();
                mc.submit(addr.index());
            }
        });
        self.finish()
    }

    /// Runs `drive` with the pinned pipeline hot. When the configuration
    /// allows worker threads, per-bank drain workers own the banks and
    /// ring consumers for the whole closure, servicing everything
    /// `drive` submits concurrently; then the pipeline is run dry
    /// (write buffer → queues → rings) and the workers rejoin before
    /// this returns. Otherwise `drive` runs with inline servicing and
    /// nothing extra happens — [`finish`](Self::finish) completes the
    /// drain in every mode, exactly as before.
    ///
    /// [`run`](Self::run) is this around a workload loop; the service
    /// daemon drives its admission ring through it directly and can keep
    /// calling it (or `finish`, which leaves the front-end usable)
    /// across service intervals.
    pub fn with_pipeline<R>(&mut self, drive: impl FnOnce(&mut Self) -> R) -> R {
        let workers = self.worker_threads();
        if workers <= 1 {
            return drive(self);
        }
        let banks = std::mem::take(&mut self.banks);
        let n = banks.len();
        let mut parts: Vec<Vec<(usize, Bank, Consumer)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, bank) in banks.into_iter().enumerate() {
            let cons = self.consumers[i].take().expect("consumer home before run");
            // Fixed partition: bank i is pinned to worker i mod W for the
            // whole run — no rebalancing, no cross-worker contention.
            parts[i % workers].push((i, bank, cons));
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        self.workers_active = true;
        let mut returned: Vec<(usize, Bank, Consumer)> = Vec::with_capacity(n);
        let result = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|mut part| {
                    let shutdown = Arc::clone(&shutdown);
                    let sync = Arc::clone(&self.sync);
                    scope.spawn(move || {
                        let mut batch: Vec<u64> = Vec::new();
                        loop {
                            let mut worked = false;
                            for (idx, bank, cons) in part.iter_mut() {
                                batch.clear();
                                if cons.pop_into(&mut batch) > 0 {
                                    bank.drain(&batch);
                                    let s = &sync[*idx];
                                    // `alive` first, then the Release on
                                    // `consumed`: the front-end's Acquire
                                    // of `consumed` orders the pair.
                                    s.alive.store(bank.alive(), Ordering::Relaxed);
                                    s.consumed.fetch_add(batch.len() as u64, Ordering::Release);
                                    worked = true;
                                }
                            }
                            if !worked {
                                if shutdown.load(Ordering::Acquire)
                                    && part.iter().all(|(_, _, c)| c.is_empty())
                                {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                        part
                    })
                })
                .collect();
            // If `drive` unwinds, still release the workers so the scope
            // can join them instead of deadlocking on a spin loop — and
            // catch the unwind so the banks and consumers can be
            // restored before it propagates (the caller may want to
            // persist state from its own panic handler).
            let guard = ShutdownOnDrop(&shutdown);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(self)));
            if r.is_ok() {
                // Hand the workers everything still buffered, then let
                // them run dry: write buffer → queues → rings.
                let dirty = self.wbuf.flush();
                for line in dirty {
                    self.enqueue(line);
                }
                for b in 0..self.queues.len() {
                    self.flush_bank(b);
                }
            }
            drop(guard);
            let mut worker_panic = None;
            for h in handles {
                match h.join() {
                    Ok(part) => returned.extend(part),
                    Err(payload) => worker_panic = Some(payload),
                }
            }
            (r, worker_panic)
        });
        self.workers_active = false;
        returned.sort_by_key(|&(i, _, _)| i);
        for (i, bank, cons) in returned {
            self.consumers[i] = Some(cons);
            self.banks.push(bank);
        }
        let (r, worker_panic) = result;
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        match r {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// How many pinned drain workers [`run`](Self::run) would use.
    fn worker_threads(&self) -> usize {
        let w = if self.drain_workers == 0 {
            // Leave one core for the submitting front-end thread.
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .saturating_sub(1)
                .max(1)
        } else {
            self.drain_workers
        };
        w.min(self.banks.len())
    }

    /// Routes a line to its bank queue, flushing first if that queue is
    /// full.
    fn enqueue(&mut self, global: u64) {
        let (bank, local) = self.map.split(global);
        let b = bank as usize;
        if self.queues[b].is_full() {
            self.flush_bank(b);
        }
        if self.queues[b].is_empty() {
            self.oldest_arrival[b] = self.tick;
        }
        if self.span_sample != 0 {
            // Countdown instead of `requests % span_sample`: a hardware
            // division per request costs double-digit percent of the
            // whole service loop at high bank counts.
            self.span_countdown -= 1;
            if self.span_countdown == 0 {
                self.span_countdown = self.span_sample;
                if self.span_pending[b].is_none() {
                    // Stamp this enqueue; the stamp rides the bank's next
                    // flush and completes when the bank provably serviced
                    // that batch.
                    self.span_pending[b] = Some(std::time::Instant::now());
                }
            }
        }
        self.queues[b].push(local, self.tick);
    }

    /// Probes one queue per submit (round-robin) and flushes it when its
    /// oldest entry has aged out — this bounds tail latency without a
    /// whole-fleet barrier and without scanning every queue per request.
    fn age_probe(&mut self) {
        self.age_cursor += 1;
        if self.age_cursor >= self.oldest_arrival.len() {
            self.age_cursor = 0;
        }
        let b = self.age_cursor;
        // `u64::MAX` (empty queue) saturates to an age of zero.
        if self.tick.saturating_sub(self.oldest_arrival[b]) >= self.max_batch_age {
            self.flush_bank(b);
        }
    }

    /// Flushes logical bank `logical`'s queued batch toward its
    /// (possibly steered) physical bank, accounting latency on the
    /// bank's service clock. With workers active the batch goes through
    /// the bank's SPSC ring; otherwise the ring round-trip is pure
    /// overhead and the batch drains straight into the bank — same
    /// batch, same order, bit-identical outcome.
    fn flush_bank(&mut self, logical: usize) {
        if self.queues[logical].is_empty() {
            return;
        }
        let age = self.tick.saturating_sub(self.oldest_arrival[logical]);
        self.queues[logical].take_into(&mut self.entry_buf);
        self.oldest_arrival[logical] = u64::MAX;
        let home = self.steer.as_ref().map_or(logical, |s| s.route(logical));
        // Read the bank's fate for everything flushed *before* this
        // batch (the deterministic lag; see crate docs), then decide
        // whether the fleet as a whole is dead.
        self.sync_bank(home);
        // `sync_bank` just proved the bank consumed every prior batch, so
        // any outstanding span probe on it is complete.
        self.complete_span_probe(home);
        self.check_stop();
        self.drains += 1;
        let k = self.entry_buf.len() as u64;
        self.pipe.note_flush(k, age);
        // Resolve the quarantine substitute chain *after* the sync: if
        // the sync just quarantined the home bank, this very batch
        // already reroutes instead of landing on a dead ring.
        let target = self.resolve_bank(home);
        if target != Some(home) {
            self.redirect_batch(logical, target, k);
            return;
        }
        let phys = home;
        let start = self.tick.max(self.busy_until[phys]);
        // Degraded mode tags each ring entry with its logical bank so a
        // parked tail can be re-keyed to global addresses at rescue
        // time; banks strip the tag before issuing, so the per-bank
        // issue stream stays bit-identical to a plain run.
        let encode = if self.degrade.is_some() {
            (logical as u64) << LOGICAL_SHIFT
        } else {
            0
        };
        self.addr_buf.clear();
        for (i, &(addr, arrival)) in self.entry_buf.iter().enumerate() {
            self.addr_buf.push(addr | encode);
            self.latency
                .push((start + i as u64).saturating_sub(arrival));
        }
        self.busy_until[phys] = start + k;
        if let Some(s) = &mut self.steer {
            s.note_flush(logical, phys, k);
        }
        self.flushed[phys] += k;
        if self.span_sample != 0 {
            if let Some(t0) = self.span_pending[logical].take() {
                self.span_probes[phys] = Some((self.flushed[phys], t0));
            }
        }
        if self.workers_active {
            let mut pushed = 0usize;
            loop {
                pushed += self.producers[phys].push_slice(&self.addr_buf[pushed..]);
                if pushed == self.addr_buf.len() {
                    break;
                }
                // Ring full: the pinned worker is consuming; wait for room.
                std::thread::yield_now();
            }
        } else {
            self.banks[phys].drain(&self.addr_buf);
            // Mirror the worker protocol so mode switches stay coherent.
            // Only this thread writes `consumed` in inline mode, so a
            // plain release store (no locked RMW) reaches the same total.
            let s = &self.sync[phys];
            s.alive.store(self.banks[phys].alive(), Ordering::Relaxed);
            s.consumed.store(self.flushed[phys], Ordering::Release);
        }
    }

    /// Follows the quarantine substitute chain from `home` to the bank
    /// that will actually service a batch routed there; `None` when
    /// every bank in the chain is quarantined. Outside degraded mode the
    /// home bank always services its own traffic.
    fn resolve_bank(&self, home: usize) -> Option<usize> {
        let Some(q) = &self.degrade else {
            return Some(home);
        };
        let mut cur = home;
        let mut hops = 0usize;
        while self.bank_dead[cur] {
            cur = q.substitute[cur]?;
            hops += 1;
            // Substitutes are elected among then-healthy banks, so the
            // chain is acyclic by construction.
            assert!(hops <= q.substitute.len(), "substitute chain cycled");
        }
        Some(cur)
    }

    /// Services a batch whose resolved bank is quarantined: every entry
    /// lands in the directory under a fresh tag, with its service cost
    /// charged to the substitute's clock — which is what makes N−1
    /// throughput a measured quantity. With no healthy substitute left
    /// (`target == None`) the directory still absorbs the content.
    fn redirect_batch(&mut self, logical: usize, target: Option<usize>, k: u64) {
        let start = match target {
            Some(t) => self.tick.max(self.busy_until[t]),
            None => self.tick,
        };
        let entries = std::mem::take(&mut self.entry_buf);
        {
            let q = self
                .degrade
                .as_mut()
                .expect("redirects only happen in degraded mode");
            for (i, &(addr, arrival)) in entries.iter().enumerate() {
                let tag = q.next_dir_tag();
                q.directory.insert(self.map.join(logical as u64, addr), tag);
                self.latency
                    .push((start + i as u64).saturating_sub(arrival));
            }
            q.redirected += k;
        }
        self.entry_buf = entries;
        if let Some(t) = target {
            self.busy_until[t] = start + k;
            if let Some(s) = &mut self.steer {
                s.note_flush(logical, t, k);
            }
        }
        // A redirected batch is provably serviced the moment it lands in
        // the directory, so a pending span completes here.
        if self.span_sample != 0 {
            if let Some(t0) = self.span_pending[logical].take() {
                if let Some(h) = &self.span_hist {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    /// Completes the bank's outstanding span probe if its batch has been
    /// consumed, recording enqueue→serviced wall-clock nanoseconds.
    fn complete_span_probe(&mut self, phys: usize) {
        if self.span_sample == 0 {
            return;
        }
        if let Some((target, t0)) = self.span_probes[phys] {
            if self.sync[phys].consumed.load(Ordering::Acquire) >= target {
                if let Some(h) = &self.span_hist {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                self.span_probes[phys] = None;
            }
        }
    }

    /// Brings the front-end's death mirror for `phys` up to date with
    /// every batch flushed so far (excluding any being flushed right
    /// now). In threaded mode this waits for the pinned worker to catch
    /// up; inline mode has already consumed everything.
    fn sync_bank(&mut self, phys: usize) {
        if self.workers_active {
            let sync = &self.sync[phys];
            while sync.consumed.load(Ordering::Acquire) < self.flushed[phys] {
                std::thread::yield_now();
            }
            if !sync.alive.load(Ordering::Relaxed) {
                self.mark_dead(phys);
            }
        } else if !self.banks[phys].alive() {
            self.mark_dead(phys);
        }
    }

    /// Marks physical bank `phys` dead in the lagged mirror (idempotent).
    /// In degraded mode the first observation of a death also runs the
    /// quarantine transition.
    fn mark_dead(&mut self, phys: usize) {
        if !self.bank_dead[phys] {
            self.bank_dead[phys] = true;
            self.dead_count += 1;
            if self.degrade.is_some() {
                self.quarantine(phys);
            }
        }
    }

    /// The quarantine transition for a freshly-observed bank death:
    /// elects the least-loaded healthy bank as substitute, excludes the
    /// dead bank from steering rotations, and replays its wreckage into
    /// the directory — evacuated oracle lines first, then parked writes,
    /// so a parked rewrite of a migrated line wins (it is newer).
    ///
    /// The lag-one death protocol guarantees the wreckage is complete
    /// and quiescent here: the death was observed only after the bank's
    /// worker provably consumed every batch flushed at it.
    ///
    /// Directory keys are exact under identity routing. With steering
    /// enabled, evacuated lines are keyed as if the dead physical bank
    /// were its own logical home — an approximation, since earlier
    /// rotations may have steered other logical stripes there; parked
    /// writes carry their logical bank in-band and are always exact.
    fn quarantine(&mut self, phys: usize) {
        let n = self.flushed.len();
        // `flushed` is the front-end's own wear proxy — usable even
        // while pinned workers own the banks.
        let substitute = (0..n)
            .filter(|&b| !self.bank_dead[b])
            .min_by_key(|&b| (self.flushed[b], b));
        if let Some(s) = &mut self.steer {
            s.exclude(phys);
        }
        let evac: Vec<(u64, u64)> = std::mem::take(
            &mut *self.wreckage[phys]
                .evacuated
                .lock()
                .expect("wreckage poisoned"),
        );
        let parked: Vec<u64> = std::mem::take(
            &mut *self.wreckage[phys]
                .parked
                .lock()
                .expect("wreckage poisoned"),
        );
        let moved = parked.len() as u64;
        let q = self
            .degrade
            .as_mut()
            .expect("quarantine requires degraded mode");
        q.substitute[phys] = substitute;
        q.quarantines += 1;
        for (local, tag) in evac {
            q.directory.insert(self.map.join(phys as u64, local), tag);
            q.migrated_lines += 1;
        }
        for e in parked {
            let (logical, local) = (e >> LOGICAL_SHIFT, e & LOCAL_MASK);
            let tag = q.next_dir_tag();
            q.directory.insert(self.map.join(logical, local), tag);
        }
        q.redirected += moved;
        if let Some(sub) = substitute {
            // The rescue replay is real service work: charge it to the
            // substitute's clock so degraded throughput reflects it.
            self.busy_until[sub] += moved;
        }
    }

    /// Evaluates the stop policy over the death mirror.
    #[inline]
    fn check_stop(&mut self) {
        if self.dead_count == 0 || self.stop.is_some() {
            return;
        }
        match self.stop_policy {
            McStopPolicy::FirstBankDead => {
                let first = self
                    .bank_dead
                    .iter()
                    .position(|&d| d)
                    .expect("dead count is nonzero");
                self.stop = Some(McStopReason::BankDead(first));
            }
            McStopPolicy::Quorum(frac) => {
                if self.dead_count as f64 / self.bank_dead.len() as f64 >= frac {
                    self.stop = Some(McStopReason::QuorumDead(self.dead_count));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_trace::UniformWorkload;

    #[test]
    #[should_panic(expected = "unknown stack")]
    fn unknown_stack_name_panics_with_the_valid_list() {
        McFrontend::builder().stack("no-such-stack");
    }

    #[test]
    fn traffic_splits_across_banks_and_conserves_writes() {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .write_buffer_lines(0)
            .seed(3)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 12, 3);
        let out = mc.run(&mut w, 20_000);
        assert_eq!(out.stop, McStopReason::TraceComplete);
        assert!(out.conserves_writes(), "{out:?}");
        assert_eq!(out.requests, 20_000);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.banks.len(), 2);
        for report in &out.banks {
            // Uniform traffic over 2 banks: both get a substantial share.
            assert!(
                report.writes_issued > 6_000,
                "bank {} starved: {}",
                report.bank,
                report.writes_issued
            );
        }
        assert_eq!(out.wear.blocks(), 1 << 12);
        assert!(!out.latency.is_empty());
        assert!(out.drains > 0);
    }

    #[test]
    fn write_buffer_absorbs_hot_line() {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .write_buffer_lines(4)
            .seed(4)
            .build()
            .unwrap();
        for _ in 0..1_000 {
            mc.submit(17);
        }
        let out = mc.finish();
        assert_eq!(out.absorbed, 999, "all rewrites of the hot line absorb");
        assert_eq!(out.issued, 1, "only the flushed line reaches PCM");
        assert!(out.conserves_writes());
    }

    #[test]
    fn parallel_and_sequential_drains_are_bit_identical() {
        // Eight banks on two workers: each worker round-robins four rings.
        let run = |workers: usize| {
            let mut mc = McFrontend::builder()
                .banks(8)
                .total_blocks(1 << 12)
                .endurance_mean(2_000.0)
                .gap_interval(8)
                .drain_workers(workers)
                .seed(11)
                .build()
                .unwrap();
            let mut w = UniformWorkload::new(1 << 12, 11);
            mc.run(&mut w, 40_000)
        };
        let par = run(2);
        let seq = run(1);
        assert_eq!(par.banks.len(), seq.banks.len());
        for (p, s) in par.banks.iter().zip(&seq.banks) {
            assert_eq!(p.fingerprint, s.fingerprint, "bank {} diverged", p.bank);
            assert_eq!(p.writes_issued, s.writes_issued);
        }
        assert_eq!(par.issued, seq.issued);
        assert_eq!(par.coalesced, seq.coalesced);
        assert_eq!(par.absorbed, seq.absorbed);
    }

    #[test]
    fn forced_worker_threads_match_inline_bit_for_bit() {
        // Two pinned workers on however many cores the machine has must
        // produce exactly the inline (zero-thread) result — the whole
        // point of the deterministic pipeline.
        let run = |workers: usize| {
            let mut mc = McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 12)
                .endurance_mean(2_000.0)
                .gap_interval(8)
                .drain_workers(workers)
                .seed(11)
                .build()
                .unwrap();
            let mut w = UniformWorkload::new(1 << 12, 11);
            mc.run(&mut w, 40_000)
        };
        let threaded = run(2);
        let inline = run(1);
        for (t, i) in threaded.banks.iter().zip(&inline.banks) {
            assert_eq!(t.fingerprint, i.fingerprint, "bank {} diverged", t.bank);
            assert_eq!(t.writes_issued, i.writes_issued);
        }
        assert_eq!(threaded.requests, inline.requests);
        assert_eq!(threaded.issued, inline.issued);
        assert_eq!(threaded.ticks, inline.ticks);
        assert_eq!(threaded.latency.p99(), inline.latency.p99());
    }

    #[test]
    fn first_dead_bank_stops_the_run() {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 10)
            .endurance_mean(300.0)
            .stack("ecc")
            .seed(5)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 10, 5);
        let out = mc.run(&mut w, 10_000_000);
        assert!(
            matches!(out.stop, McStopReason::BankDead(_)),
            "expected a dead bank, got {:?}",
            out.stop
        );
        assert!(out.conserves_writes(), "{out:?}");
        assert!(out.banks.iter().any(|b| !b.alive));
    }

    #[test]
    fn page_interleaving_builds_and_runs() {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .interleave(Interleave::Page)
            .endurance_mean(1e9)
            .seed(6)
            .build()
            .unwrap();
        assert_eq!(mc.map().stripe_blocks(), 64);
        let mut w = UniformWorkload::new(1 << 12, 6);
        let out = mc.run(&mut w, 5_000);
        assert!(out.conserves_writes());
    }

    #[test]
    fn indivisible_space_is_rejected() {
        let err = McFrontend::builder()
            .banks(3)
            .total_blocks(1 << 12)
            .interleave(Interleave::Page)
            .build();
        assert!(err.is_err(), "4096 blocks over 3 page-striped banks");
    }

    #[test]
    fn with_pipeline_matches_run_bit_for_bit() {
        // Driving submits through with_pipeline + finish must be
        // indistinguishable from run() — it is the same machinery.
        let build = || {
            McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 12)
                .endurance_mean(2_000.0)
                .gap_interval(8)
                .drain_workers(2)
                .seed(13)
                .build()
                .unwrap()
        };
        let mut a = build();
        let mut w = UniformWorkload::new(1 << 12, 13);
        let via_run = a.run(&mut w, 30_000);
        let mut b = build();
        let mut w = UniformWorkload::new(1 << 12, 13);
        b.with_pipeline(|mc| {
            for _ in 0..30_000 {
                if mc.stop.is_some() {
                    break;
                }
                mc.submit(w.next_write().index());
            }
        });
        let via_pipeline = b.finish();
        assert_eq!(via_run.requests, via_pipeline.requests);
        assert_eq!(via_run.issued, via_pipeline.issued);
        assert_eq!(via_run.ticks, via_pipeline.ticks);
        for (x, y) in via_run.banks.iter().zip(&via_pipeline.banks) {
            assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
        }
    }

    #[test]
    fn span_sampling_records_and_snapshot_reflects_progress() {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .write_buffer_lines(0)
            .span_sample(16)
            .seed(21)
            .build()
            .unwrap();
        let hist = LogHistogram::new();
        mc.set_span_histogram(hist.clone());
        let mut w = UniformWorkload::new(1 << 12, 21);
        let out = mc.run(&mut w, 10_000);
        assert!(out.conserves_writes());
        let spans = hist.snapshot();
        assert!(spans.count > 0, "sampled spans must have completed");
        let snap = mc.pipeline_snapshot();
        assert_eq!(snap.requests, 10_000);
        assert_eq!(snap.drains, out.drains);
        assert_eq!(snap.accum.batches, out.drains);
        // Coalesced rewrites never leave the queue as distinct entries.
        assert_eq!(snap.accum.batch_entries, out.issued);
        assert_eq!(snap.total_occupancy(), 0, "finish() ran the rings dry");
        assert_eq!(snap.p999_ticks, out.latency.p999());
        assert!(snap.accum.mean_batch() > 1.0);
        for b in &snap.banks {
            assert_eq!(b.flushed, b.consumed);
        }
    }

    #[test]
    fn span_sampling_does_not_change_outcomes() {
        let run = |sample: u64| {
            let mut mc = McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 12)
                .endurance_mean(2_000.0)
                .gap_interval(8)
                .span_sample(sample)
                .seed(11)
                .build()
                .unwrap();
            let mut w = UniformWorkload::new(1 << 12, 11);
            mc.run(&mut w, 40_000)
        };
        let on = run(64);
        let off = run(0);
        assert_eq!(on.issued, off.issued);
        assert_eq!(on.ticks, off.ticks);
        for (x, y) in on.banks.iter().zip(&off.banks) {
            assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
        }
    }

    #[test]
    fn aged_batches_flush_without_filling_the_queue() {
        // One hot bank, then silence on it: the round-robin age probe
        // must flush its sub-capacity batch within max_batch_age ticks.
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .write_buffer_lines(0)
            .max_batch_age(16)
            .seed(8)
            .build()
            .unwrap();
        mc.submit(0); // bank 0, one entry — far below queue_depth
        for i in 0..64 {
            mc.submit(2 * i + 1); // odd globals: all land on bank 1
        }
        assert_eq!(
            mc.banks()[0].issued(),
            1,
            "aged single-entry batch must have flushed mid-run"
        );
    }

    #[test]
    fn degraded_mode_is_bit_identical_when_no_faults_fire() {
        // With no bank deaths, degraded mode must be invisible: the
        // logical encoding is stripped before issue and no other code
        // path changes — including under steering.
        let run = |degraded: bool, steering: bool| {
            let mut mc = McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 12)
                .endurance_mean(1e9)
                .steering(steering)
                .degraded(degraded)
                .stop_policy(McStopPolicy::Quorum(1.0))
                .seed(17)
                .build()
                .unwrap();
            let mut w = UniformWorkload::new(1 << 12, 17);
            mc.run(&mut w, 30_000)
        };
        for steering in [false, true] {
            let on = run(true, steering);
            let off = run(false, steering);
            assert_eq!(on.redirected, 0);
            assert_eq!(on.quarantines, 0);
            assert_eq!(on.ticks, off.ticks, "steering={steering}");
            assert_eq!(on.issued, off.issued);
            for (x, y) in on.banks.iter().zip(&off.banks) {
                assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
            }
        }
    }

    #[test]
    fn degraded_death_run_matches_plain_fingerprints_and_conserves() {
        // Natural bank deaths: the degraded run redirects exactly the
        // writes the plain run drops, and the per-bank issue streams —
        // hence fingerprints — stay identical.
        let run = |degraded: bool| {
            let mut mc = McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 10)
                .endurance_mean(300.0)
                .stack("ecc")
                .stop_policy(McStopPolicy::Quorum(1.0))
                .degraded(degraded)
                .seed(5)
                .build()
                .unwrap();
            let mut w = UniformWorkload::new(1 << 10, 5);
            mc.run(&mut w, 2_000_000)
        };
        let deg = run(true);
        let plain = run(false);
        assert!(deg.quarantines >= 1, "{deg:?}");
        assert_eq!(deg.dropped, 0, "degraded mode never drops writes");
        assert_eq!(deg.redirected, plain.dropped);
        assert!(deg.conserves_writes(), "{deg:?}");
        assert!(plain.conserves_writes());
        for (x, y) in deg.banks.iter().zip(&plain.banks) {
            assert_eq!(x.fingerprint, y.fingerprint, "bank {} diverged", x.bank);
        }
    }

    #[test]
    fn quarantine_rescues_lines_and_keeps_serving() {
        let mut mc = McFrontend::builder()
            .banks(4)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .verify_integrity(true)
            .degraded(true)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(33)
            .build()
            .unwrap();
        mc.inject_chaos(1, BankChaos::KillAfter(64));
        let mut w = UniformWorkload::new(1 << 12, 33);
        let out = mc.run(&mut w, 20_000);
        assert_eq!(
            out.stop,
            McStopReason::TraceComplete,
            "fleet keeps serving at N-1"
        );
        assert!(out.conserves_writes(), "{out:?}");
        assert_eq!(out.quarantines, 1);
        assert_eq!(out.dropped, 0);
        assert!(out.redirected > 0);
        assert!(out.migrated_lines > 0);
        let snap = mc.pipeline_snapshot();
        assert_eq!(snap.quarantines, 1);
        assert!(snap.directory_lines > 0);
        assert_eq!(snap.dead_banks(), 1);
        // Every directory line reads back with its recorded tag.
        let img = mc.quarantine_image().unwrap();
        assert!(img.dead[1]);
        for &(global, tag) in &img.directory {
            assert_eq!(mc.read(global), Ok(Some(tag)));
        }
        // Healthy banks answer reads for their own tracked lines.
        let lines = mc.banks()[0].sim().tracked_lines();
        assert!(!lines.is_empty());
        for &(local, tag) in lines.iter().take(8) {
            let global = mc.map().join(0, local);
            assert_eq!(mc.read(global), Ok(Some(tag)));
        }
    }

    #[test]
    fn transient_reads_retry_and_surface_a_typed_error() {
        // ECP with zero correction entries makes every injected
        // transient uncorrectable, so the retry path is exactly
        // predictable.
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .verify_integrity(true)
            .degraded(true)
            .ecc(EccKind::Ecp(0))
            .retry_limit(2)
            .retry_backoff(1)
            .stop_policy(McStopPolicy::Quorum(1.0))
            .seed(7)
            .build()
            .unwrap();
        let mut w = UniformWorkload::new(1 << 12, 7);
        mc.run(&mut w, 4_000);
        let (local, tag) = mc.banks()[0].sim().tracked_lines()[0];
        let global = mc.map().join(0, local);
        assert_eq!(mc.read(global), Ok(Some(tag)), "clean read before faults");
        // A short burst rides out inside the retry budget...
        mc.arm_bank_faults(0, FaultPlan::new().transient_read_burst(0, 2));
        assert_eq!(mc.read(global), Ok(Some(tag)), "retries absorb the burst");
        // ...a long burst exhausts the bounded retry and surfaces typed.
        mc.arm_bank_faults(0, FaultPlan::new().transient_read_burst(0, 16));
        assert_eq!(
            mc.read(global),
            Err(McReadError::Transient {
                bank: 0,
                attempts: 3
            })
        );
        let out = mc.finish();
        assert!(out.read_retries >= 3, "{out:?}");
        assert_eq!(out.retry_exhausted, 1);
    }

    #[test]
    fn quarantine_image_round_trips_through_restore() {
        let build = || {
            McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 12)
                .endurance_mean(1e9)
                .verify_integrity(true)
                .degraded(true)
                .stop_policy(McStopPolicy::Quorum(1.0))
                .seed(41)
                .build()
                .unwrap()
        };
        let mut mc = build();
        mc.inject_chaos(2, BankChaos::KillAfter(32));
        let mut w = UniformWorkload::new(1 << 12, 41);
        let out = mc.run(&mut w, 10_000);
        assert_eq!(out.quarantines, 1);
        let img = mc.quarantine_image().unwrap();
        assert!(img.dead[2]);
        assert!(!img.directory.is_empty());

        let mut revived = build();
        revived.restore_quarantine(&img);
        assert_eq!(revived.quarantine_image().unwrap(), img);
        // Directory content survives the restart.
        for &(global, tag) in img.directory.iter().take(16) {
            assert_eq!(revived.read(global), Ok(Some(tag)));
        }
        // New traffic at the quarantined bank redirects, never drops —
        // and restore does not re-run the quarantine transition.
        let mut w2 = UniformWorkload::new(1 << 12, 42);
        let out2 = revived.run(&mut w2, 5_000);
        assert!(out2.conserves_writes(), "{out2:?}");
        assert_eq!(out2.dropped, 0);
        assert!(out2.redirected > 0);
        assert_eq!(out2.quarantines, 0);
    }

    #[test]
    fn pipeline_survives_a_driver_panic() {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 12)
            .endurance_mean(1e9)
            .drain_workers(2)
            .seed(3)
            .build()
            .unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mc.with_pipeline(|m| {
                for i in 0..500u64 {
                    m.submit(i);
                }
                panic!("injected driver crash");
            })
        }));
        assert!(boom.is_err(), "the panic must propagate");
        // Banks and consumers are home again: the front-end still
        // finishes cleanly and accounts for everything submitted.
        let out = mc.finish();
        assert!(out.conserves_writes(), "{out:?}");
        assert_eq!(out.requests, 500);
        assert_eq!(out.banks.len(), 2);
    }
}
