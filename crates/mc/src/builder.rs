//! [`McFrontendBuilder`]: configuration, setters and `build`. DESIGN.md §5
//! names the caller each setter exists for; one-value knobs are constants.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use wl_reviver::sim::EccKind;
use wl_reviver::{SchemeRegistry, Simulation, StackSpec};
use wlr_base::interleave::{Interleave, InterleaveError, InterleaveMap};
use wlr_base::rng::SplitMix64;
use wlr_base::spsc;
use wlr_base::Geometry;

use crate::degrade::{Quarantine, Wreckage, LOCAL_MASK, LOGICAL_SHIFT};
use crate::pipeline::BankSync;
use crate::{
    Bank, Lane, LatencyHistogram, McFrontend, McStopPolicy, Steering, WriteBuffer, WriteQueue,
};

/// Per-bank seed streams are derived as `mix(seed, SALT ^ bank)` so the
/// banks' endurance maps and keys are independent of each other and of
/// any single-domain run with the same seed.
const BANK_STREAM_SALT: u64 = 0x4d43_4241_4e4b_0000; // "MCBANK"

/// Flushed writes per steering epoch.
const STEER_EPOCH: u64 = 4096;

/// The shared per-bank simulation configuration; also used to build the
/// standalone reference simulation for determinism checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BankConfig {
    local_blocks: u64,
    endurance_mean: f64,
    stack: &'static StackSpec,
    gap_interval: u64,
    seed: u64,
    verify_integrity: bool,
    ecc: Option<EccKind>,
}

impl BankConfig {
    pub(crate) fn build_sim(&self, bank: usize) -> Simulation {
        let mut b = Simulation::builder()
            .num_blocks(self.local_blocks)
            .endurance_mean(self.endurance_mean)
            .stack(self.stack.name)
            .gap_interval(self.gap_interval)
            .verify_integrity(self.verify_integrity)
            .seed(SplitMix64::mix(self.seed, BANK_STREAM_SALT ^ bank as u64));
        if let Some(ecc) = self.ecc {
            b = b.ecc(ecc);
        }
        if !self.verify_integrity {
            // Nothing reads a bank's `series()`, and without the oracle a
            // sample changes no state: a bank records no history, so its
            // memory does not grow with the requests it serves.
            b = b.sample_interval(u64::MAX);
        }
        b.build()
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
    drain_workers: usize,
    record_issue: bool,
    stop_policy: McStopPolicy,
    degraded: bool,
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
                stack: SchemeRegistry::global().expect("reviver-sg"),
                gap_interval: 100,
                seed: 0,
                verify_integrity: false,
                ecc: None,
            },
            interleave: Interleave::CacheLine,
            queue_depth: 64,
            write_buffer_lines: 32,
            steering: false,
            drain_workers: 0,
            record_issue: false,
            stop_policy: McStopPolicy::FirstBankDead,
            degraded: false,
        }
    }
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

    /// Per-bank write-queue depth in distinct addresses (default 64). A
    /// queue is flushed when it fills, or once its oldest entry has
    /// waited `12 × depth` ticks.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// DRAM write-buffer capacity in lines; 0 disables it (default 32).
    pub fn write_buffer_lines(mut self, lines: usize) -> Self {
        self.write_buffer_lines = lines;
        self
    }

    /// Enable wear-aware bank steering (default off), rotating every
    /// 4096 flushed writes. Steered runs stay deterministic but are not
    /// bit-identical to the unsteered mapping; see [`Steering`].
    pub fn steering(mut self, on: bool) -> Self {
        self.steering = on;
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
                local_blocks <= LOCAL_MASK,
                "degraded mode: local space must fit in {LOGICAL_SHIFT} bits"
            );
            assert!(
                self.banks <= (1 << (64 - LOGICAL_SHIFT)),
                "degraded mode: too many banks for the logical encoding"
            );
        }
        let banks: Vec<Bank> = (0..self.banks)
            .map(|i| Bank::new(i, cfg.build_sim(i), self.record_issue, self.degraded))
            .collect();
        let wreckage: Vec<Arc<Wreckage>> = banks.iter().map(Bank::wreckage).collect();
        let lanes: Vec<Lane> = (0..self.banks)
            .map(|_| Lane {
                queue: WriteQueue::new(self.queue_depth, local_blocks),
                due: u64::MAX,
            })
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
        Ok(McFrontend {
            map,
            cfg,
            total_blocks: self.total_blocks,
            banks,
            lanes,
            wbuf: WriteBuffer::new(self.write_buffer_lines, self.total_blocks),
            latency: LatencyHistogram::new(),
            tick: 0,
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
            // Ages past ~12 × depth stop paying: at high bank counts the
            // round-robin probe adds ~one probe cycle of lag, and the
            // tail (age + probe lag + service) must stay inside the
            // latency budget the bench tracks.
            max_batch_age: 12 * self.queue_depth as u64,
            age_due: u64::MAX,
            addr_buf: Vec::new(),
            dirty_buf: Vec::with_capacity(self.write_buffer_lines),
            workers_active: false,
            drain_workers: self.drain_workers,
            steer: self
                .steering
                .then(|| Steering::new(self.banks, STEER_EPOCH)),
            degrade: self.degraded.then(|| Quarantine::new(self.banks)),
            wreckage,
        })
    }
}
