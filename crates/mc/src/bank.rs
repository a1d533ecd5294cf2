//! One bank: an independent `(wear-leveler, reviver, device)` stack.
//!
//! Each bank wraps a full single-domain [`Simulation`] over the bank's
//! local address space. The front-end drains a bank by handing it the
//! batch of local addresses its queue released; the bank issues them
//! through [`Simulation::run_batch`], recovering in place from injected
//! power losses and going permanently dead when its memory is exhausted.
//! Banks never touch each other's state, which is what makes parallel
//! bank stepping bit-identical to the sequential reference.
//!
//! In degraded mode ([`crate::McFrontendBuilder::degraded`]) a dying
//! bank additionally parks its un-issued tail and evacuates its tracked
//! lines into the shared [`Wreckage`] buffers for the front-end's
//! quarantine to harvest, and chaos commands posted through the bank's
//! [`ChaosSlot`] (kill points, runtime fault plans) are applied at batch
//! boundaries — even while a pinned worker owns the bank.

use std::sync::Arc;

use wl_reviver::sim::BatchStatus;
use wl_reviver::{AppRead, Simulation};
use wlr_base::AppAddr;

use crate::degrade::{BankChaos, ChaosSlot, McReadError, RetryPolicy, Wreckage, LOCAL_MASK};

/// A bank's simulation stack plus the front-end's per-bank bookkeeping.
#[derive(Debug)]
pub struct Bank {
    id: usize,
    sim: Simulation,
    alive: bool,
    issued: u64,
    dropped: u64,
    recoveries: u64,
    /// When enabled, every address actually issued, in order — replaying
    /// this log through an identically-configured standalone simulation
    /// must reproduce the bank's fingerprint exactly.
    issue_log: Option<Vec<u64>>,
    /// Reused address buffer so steady-state drains allocate nothing.
    scratch: Vec<AppAddr>,
    /// Degraded mode: ring entries are logical-encoded and death parks
    /// instead of dropping.
    degraded: bool,
    /// Pending injected kill point: the bank dies once `issued` reaches
    /// this count.
    kill_at: Option<u64>,
    /// Mailbox for runtime chaos commands.
    chaos: Arc<ChaosSlot>,
    /// Where a dying bank leaves parked writes and evacuated lines.
    wreckage: Arc<Wreckage>,
    retry: RetryPolicy,
    read_retries: u64,
    retry_exhausted: u64,
}

impl Bank {
    /// Wraps `sim` as bank `id`; `record_issue` enables the issue log,
    /// `degraded` the degraded-mode drain protocol (logical-encoded
    /// batches, park-on-death).
    pub fn new(id: usize, sim: Simulation, record_issue: bool, degraded: bool) -> Self {
        Bank {
            id,
            sim,
            alive: true,
            issued: 0,
            dropped: 0,
            recoveries: 0,
            issue_log: record_issue.then(Vec::new),
            scratch: Vec::new(),
            degraded,
            kill_at: None,
            chaos: Arc::new(ChaosSlot::default()),
            wreckage: Arc::new(Wreckage::default()),
            retry: RetryPolicy::default(),
            read_retries: 0,
            retry_exhausted: 0,
        }
    }

    /// Bank index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the bank can still accept writes.
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Writes issued into the bank's simulation.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Writes dropped because the bank was (or went) dead.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Power-loss recoveries performed mid-drain.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Transient-read retries performed so far.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Reads whose bounded retry was exhausted.
    pub fn retry_exhausted(&self) -> u64 {
        self.retry_exhausted
    }

    /// The issue log, if recording was enabled.
    pub fn issue_log(&self) -> Option<&[u64]> {
        self.issue_log.as_deref()
    }

    /// The bank's underlying simulation.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access to the bank's simulation — event-ring attachment
    /// and state restoration between runs, never mid-drain.
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// The bank's chaos mailbox (shared with the front-end's inject API).
    pub(crate) fn chaos_slot(&self) -> Arc<ChaosSlot> {
        Arc::clone(&self.chaos)
    }

    /// The bank's wreckage buffers (shared with quarantine).
    pub(crate) fn wreckage(&self) -> Arc<Wreckage> {
        Arc::clone(&self.wreckage)
    }

    /// Marks the bank dead without draining anything — used when
    /// re-applying persisted quarantine state after a restart.
    pub(crate) fn force_dead(&mut self) {
        self.alive = false;
    }

    /// Issues a drained batch of bank-local addresses (logical-encoded in
    /// degraded mode). Power losses are recovered in place and the batch
    /// continues; memory exhaustion, the hard cap, or an injected kill
    /// point kills the bank — dropping the rest of the batch, or parking
    /// it (plus the bank's live lines) for quarantine in degraded mode.
    pub fn drain(&mut self, batch: &[u64]) {
        self.poll_chaos();
        if !self.alive {
            self.absorb_dead(batch);
            return;
        }
        // Reuse the scratch buffer (taken out so the loop below can
        // borrow `self` mutably); steady-state drains allocate nothing.
        let mut addrs = std::mem::take(&mut self.scratch);
        addrs.clear();
        if self.degraded {
            addrs.extend(batch.iter().map(|&e| AppAddr::new(e & LOCAL_MASK)));
        } else {
            addrs.extend(batch.iter().map(|&a| AppAddr::new(a)));
        }
        let mut start = 0usize;
        while start < addrs.len() {
            // An armed kill point bounds how much of the batch may issue.
            let mut end = addrs.len();
            if let Some(k) = self.kill_at {
                let allowed = k.saturating_sub(self.issued) as usize;
                if allowed < end - start {
                    end = start + allowed;
                }
            }
            if end == start {
                self.die(&batch[start..]);
                break;
            }
            let rest = &addrs[start..end];
            match self.sim.run_batch(rest) {
                BatchStatus::Completed => {
                    self.log_issued(rest);
                    self.issued += rest.len() as u64;
                    start = end;
                }
                BatchStatus::PowerLoss { consumed } => {
                    self.log_issued(&rest[..consumed as usize]);
                    self.issued += consumed;
                    self.recoveries += 1;
                    self.sim.recover();
                    start += consumed as usize;
                }
                BatchStatus::MemoryExhausted { consumed } | BatchStatus::HardCap { consumed } => {
                    self.log_issued(&rest[..consumed as usize]);
                    self.issued += consumed;
                    self.die(&batch[start + consumed as usize..]);
                    break;
                }
            }
        }
        self.scratch = addrs;
    }

    /// Reads the bank-local line `local`, retrying transient errors with
    /// bounded exponential backoff per the installed [`RetryPolicy`].
    /// `Ok(None)` means the line is not currently mapped.
    pub fn read_local(&mut self, local: u64) -> Result<Option<u64>, McReadError> {
        let mut attempts = 0u32;
        loop {
            match self.sim.read_app(AppAddr::new(local)) {
                AppRead::Ok(tag) => return Ok(Some(tag)),
                AppRead::Unmapped => return Ok(None),
                AppRead::Transient => {
                    attempts += 1;
                    if attempts > self.retry.max_retries {
                        self.retry_exhausted += 1;
                        return Err(McReadError::Transient {
                            bank: self.id,
                            attempts,
                        });
                    }
                    self.read_retries += 1;
                    for _ in 0..(u64::from(self.retry.backoff_spins) << attempts.min(16)) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Applies any chaos commands posted since the last batch. One
    /// relaxed load when the mailbox is idle.
    fn poll_chaos(&mut self) {
        for cmd in self.chaos.take() {
            match cmd {
                BankChaos::KillAfter(n) => self.kill_at = Some(self.issued + n),
                BankChaos::Faults(plan) => self.sim.arm_faults(plan),
            }
        }
    }

    /// The bank's death transition: park or drop the unhandled tail, and
    /// in degraded mode evacuate the oracle's live lines for quarantine.
    fn die(&mut self, rest_encoded: &[u64]) {
        self.alive = false;
        self.kill_at = None;
        self.absorb_dead(rest_encoded);
        if self.degraded {
            let lines = self.sim.tracked_lines();
            if !lines.is_empty() {
                self.wreckage
                    .evacuated
                    .lock()
                    .expect("wreckage poisoned")
                    .extend(lines);
            }
        }
    }

    /// What happens to batch entries a dead bank receives: parked for
    /// rescue in degraded mode, dropped otherwise.
    fn absorb_dead(&mut self, encoded: &[u64]) {
        if encoded.is_empty() {
            return;
        }
        if self.degraded {
            self.wreckage
                .parked
                .lock()
                .expect("wreckage poisoned")
                .extend_from_slice(encoded);
        } else {
            self.dropped += encoded.len() as u64;
        }
    }

    fn log_issued(&mut self, addrs: &[AppAddr]) {
        if let Some(log) = &mut self.issue_log {
            log.extend(addrs.iter().map(|a| a.index()));
        }
    }
}
