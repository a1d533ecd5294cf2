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
//! quarantine to harvest. A kill point armed through
//! [`crate::McFrontend::kill_bank_after`] kills a bank, whatever its wear,
//! once it has issued that many more writes.

use std::sync::Arc;

use wl_reviver::sim::BatchStatus;
use wl_reviver::{AppRead, Simulation};
use wlr_base::AppAddr;

use crate::degrade::{McReadError, Wreckage, LOCAL_MASK, READ_RETRIES};
use crate::QueueEntry;

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
    /// The batch being issued, reused so steady-state drains allocate nothing.
    slab: Vec<AppAddr>,
    /// Degraded mode: ring entries are logical-encoded and death parks
    /// instead of dropping.
    degraded: bool,
    /// Pending injected kill point: the bank dies once `issued` reaches
    /// this count.
    kill_at: Option<u64>,
    /// Where a dying bank leaves parked writes and evacuated lines.
    wreckage: Arc<Wreckage>,
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
            slab: Vec::new(),
            degraded,
            kill_at: None,
            wreckage: Arc::new(Wreckage::default()),
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

    /// The bank's wreckage buffers (shared with quarantine).
    pub(crate) fn wreckage(&self) -> Arc<Wreckage> {
        Arc::clone(&self.wreckage)
    }

    /// Marks the bank dead without draining anything — used when
    /// re-applying persisted quarantine state after a restart.
    pub(crate) fn force_dead(&mut self) {
        self.alive = false;
    }

    /// Arms a kill point: the bank dies once it has issued `n` more
    /// writes (0 = before the next one).
    pub(crate) fn kill_after(&mut self, n: u64) {
        self.kill_at = Some(self.issued.saturating_add(n));
    }

    /// Issues a drained batch of bank-local addresses (logical-encoded in
    /// degraded mode). Power losses are recovered in place and the batch
    /// continues; memory exhaustion, the hard cap, or an injected kill
    /// point kills the bank — dropping the rest of the batch, or parking
    /// it (plus the bank's live lines) for quarantine in degraded mode.
    pub fn drain(&mut self, batch: &[u64]) {
        let mask = if self.degraded { LOCAL_MASK } else { u64::MAX };
        self.slab.clear();
        self.slab
            .extend(batch.iter().map(|&e| AppAddr::new(e & mask)));
        if let Some(at) = self.drain_slab() {
            self.die(batch[at..].iter().copied());
        }
    }

    /// [`drain`](Self::drain) of a queued batch, copied once, straight
    /// into the slab; `tag` is its degraded-mode logical encoding.
    #[inline]
    pub(crate) fn drain_queued(&mut self, batch: &[QueueEntry], tag: u64) {
        self.slab.clear();
        self.slab
            .extend(batch.iter().map(|&(local, _)| AppAddr::new(local)));
        if let Some(at) = self.drain_slab() {
            self.die(batch[at..].iter().map(|&(local, _)| local | tag));
        }
    }

    /// Issues the slab through [`Simulation::run_batch`]. Returns where
    /// its un-issued rest starts if the bank is dead or died on it.
    fn drain_slab(&mut self) -> Option<usize> {
        // Taken out so the loop below can borrow `self` mutably; put back
        // after, so steady-state drains allocate nothing.
        let addrs = std::mem::take(&mut self.slab);
        let mut start = 0usize;
        let mut died = (!self.alive).then_some(0);
        while died.is_none() && start < addrs.len() {
            // An armed kill point bounds how much of the batch may issue.
            let mut end = addrs.len();
            if let Some(k) = self.kill_at {
                let allowed = k.saturating_sub(self.issued) as usize;
                if allowed < end - start {
                    end = start + allowed;
                }
            }
            if end == start {
                died = Some(start);
                continue;
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
                    died = Some(start + consumed as usize);
                }
            }
        }
        self.slab = addrs;
        died
    }

    /// Reads the bank-local line `local`, retrying a transient error up
    /// to [`READ_RETRIES`] times.
    /// `Ok(None)` means the line is not currently mapped.
    pub fn read_local(&mut self, local: u64) -> Result<Option<u64>, McReadError> {
        let mut attempts = 0u32;
        loop {
            match self.sim.read_app(AppAddr::new(local)) {
                AppRead::Ok(tag) => return Ok(Some(tag)),
                AppRead::Unmapped => return Ok(None),
                AppRead::Transient => {
                    attempts += 1;
                    if attempts > READ_RETRIES {
                        self.retry_exhausted += 1;
                        return Err(McReadError::Transient {
                            bank: self.id,
                            attempts,
                        });
                    }
                    self.read_retries += 1;
                }
            }
        }
    }

    /// The death transition (once) and the batch tail `rest`: degraded
    /// mode evacuates the oracle's live lines and parks the tail for
    /// quarantine; otherwise the tail is dropped.
    fn die(&mut self, rest: impl ExactSizeIterator<Item = u64>) {
        if self.alive {
            self.alive = false;
            self.kill_at = None;
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
        if rest.len() == 0 {
            return;
        }
        if self.degraded {
            self.wreckage
                .parked
                .lock()
                .expect("wreckage poisoned")
                .extend(rest);
        } else {
            self.dropped += rest.len() as u64;
        }
    }

    fn log_issued(&mut self, addrs: &[AppAddr]) {
        if let Some(log) = &mut self.issue_log {
            log.extend(addrs.iter().map(|a| a.index()));
        }
    }
}
