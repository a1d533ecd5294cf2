//! Degraded-mode survival: quarantine, rescue, and the migrated-line
//! directory.
//!
//! With [`crate::McFrontendBuilder::degraded`] enabled, a bank death is a
//! survivable event instead of a stop condition. The protocol rides the
//! existing lag-one death mirror:
//!
//! 1. A bank that dies mid-drain *parks* the un-issued tail of its batch
//!    (and every later batch the lag window flushes at it) into a shared
//!    [`Wreckage`] buffer instead of dropping it, and evacuates its
//!    integrity oracle's live lines.
//! 2. When the front-end's `sync_bank` observes the death — by which
//!    point the worker has provably consumed everything flushed, so the
//!    wreckage is complete — it quarantines the bank: picks the
//!    least-worn healthy bank as *substitute*, excludes the dead bank
//!    from future steering rotations, and replays the wreckage into the
//!    **directory** (a DRAM global-address → tag map standing in for the
//!    remapped interleave slice).
//! 3. Later batches routed at the quarantined bank resolve through the
//!    substitute chain: their content lands in the directory and their
//!    service cost is charged to the substitute's clock, which is what
//!    makes N−1 (and N−2, …) throughput a measured quantity rather than
//!    a modeling fiction.
//!
//! Transient read errors get a bounded retry-with-backoff at the bank
//! ([`crate::bank::Bank::read_local`]) before surfacing as the typed
//! [`McReadError`]. Chaos commands reach live banks — even ones owned by
//! pinned workers — through per-bank [`ChaosSlot`] mailboxes polled at
//! batch boundaries.
//!
//! When no faults fire, degraded mode is bit-identical to a plain run:
//! ring entries carry the logical bank in their high bits (so a parked
//! tail can be re-keyed later) but banks strip the encoding before
//! issuing, and every other code path is untouched.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use wl_reviver::TornMeta;
use wlr_pcm::FaultPlan;

use crate::McFrontend;

/// Ring entries in degraded mode carry the *logical* bank in bits 48+ so
/// parked writes can be re-keyed to global addresses at rescue time.
pub(crate) const LOGICAL_SHIFT: u32 = 48;
/// Mask extracting the bank-local address from an encoded ring entry.
pub(crate) const LOCAL_MASK: u64 = (1u64 << LOGICAL_SHIFT) - 1;

/// Directory tags for writes that never reached a bank simulation start
/// here — disjoint from any simulation-issued oracle tag, so a tag's
/// provenance (evacuated content vs redirected write) is recoverable.
pub const DIR_TAG_BASE: u64 = 1 << 63;

/// A chaos command targeted at one live bank. Posted through the bank's
/// [`ChaosSlot`] and applied at its next batch boundary.
#[derive(Debug, Clone)]
pub enum BankChaos {
    /// Kill the bank after it issues `n` more writes (0 = before the
    /// next one). Models the dry-spare-pool / Theorem-2 undiscovered
    /// failure: the bank parks, it does not crash the fleet.
    KillAfter(u64),
    /// Arm additional device faults, with indices relative to the bank's
    /// current access counts (see [`wlr_pcm::FaultInjector::arm`]).
    Faults(FaultPlan),
}

/// Lock-free-checked mailbox through which chaos commands reach a bank
/// that may currently be owned by a pinned worker thread. The drain path
/// pays one relaxed load per batch when the mailbox is idle.
#[derive(Debug, Default)]
pub struct ChaosSlot {
    pending: AtomicBool,
    cmds: Mutex<Vec<BankChaos>>,
}

impl ChaosSlot {
    /// Posts a command; the bank applies it at its next batch boundary.
    pub fn post(&self, cmd: BankChaos) {
        self.cmds.lock().expect("chaos slot poisoned").push(cmd);
        self.pending.store(true, Ordering::Release);
    }

    /// Takes every pending command (empty when none are queued).
    pub(crate) fn take(&self) -> Vec<BankChaos> {
        if !self.pending.swap(false, Ordering::Acquire) {
            return Vec::new();
        }
        std::mem::take(&mut *self.cmds.lock().expect("chaos slot poisoned"))
    }
}

/// What a dying bank leaves behind for the front-end to harvest at
/// quarantine time. Shared (`Arc`) between the bank — which may live on
/// a worker thread — and the front-end; the lag-one protocol guarantees
/// the buffers are complete and quiescent when the front-end reads them.
#[derive(Debug, Default)]
pub struct Wreckage {
    /// Logical-encoded ring entries that were in flight past the death
    /// point: acknowledged writes quarantine must reroute, in order.
    pub(crate) parked: Mutex<Vec<u64>>,
    /// `(local address, tag)` pairs evacuated from the dead bank's
    /// integrity oracle (empty unless integrity tracking is on).
    pub(crate) evacuated: Mutex<Vec<(u64, u64)>>,
}

/// Bounded retry policy for transient read errors at a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt before surfacing the error.
    pub max_retries: u32,
    /// Base spin count for the exponential backoff between attempts.
    pub backoff_spins: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_spins: 64,
        }
    }
}

/// Typed read error surfaced by [`crate::McFrontend::read`] after the
/// bank's bounded retry is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McReadError {
    /// A transient error persisted through every retry attempt.
    Transient {
        /// Physical bank the read was serviced by.
        bank: usize,
        /// Attempts made (initial read + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for McReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McReadError::Transient { bank, attempts } => {
                write!(
                    f,
                    "transient read error on bank {bank} after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for McReadError {}

/// Front-end quarantine state (present only in degraded mode).
#[derive(Debug)]
pub(crate) struct Quarantine {
    /// `substitute[phys]` = the healthy bank elected when `phys` was
    /// quarantined (`None` when no healthy bank remained). Chains resolve
    /// through later deaths.
    pub(crate) substitute: Vec<Option<usize>>,
    /// Global address → tag for every line living in the remapped slice:
    /// evacuated oracle content plus redirected writes. Ordered so
    /// persistence and read-back sweeps are deterministic.
    pub(crate) directory: BTreeMap<u64, u64>,
    /// Next fresh tag for redirected writes (starts at [`DIR_TAG_BASE`]).
    pub(crate) dir_seq: u64,
    /// Banks quarantined so far.
    pub(crate) quarantines: u64,
    /// Oracle lines migrated out of dead banks.
    pub(crate) migrated_lines: u64,
    /// Writes rerouted to the directory (parked rescues + redirected
    /// flushes).
    pub(crate) redirected: u64,
}

impl Quarantine {
    pub(crate) fn new(banks: usize) -> Self {
        Quarantine {
            substitute: vec![None; banks],
            directory: BTreeMap::new(),
            dir_seq: DIR_TAG_BASE,
            quarantines: 0,
            migrated_lines: 0,
            redirected: 0,
        }
    }

    pub(crate) fn next_dir_tag(&mut self) -> u64 {
        self.dir_seq += 1;
        self.dir_seq
    }
}

/// Persistable quarantine state: what [`crate::McFrontend::restore_quarantine`]
/// needs to resume serving a degraded array after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineImage {
    /// Whether each physical bank was quarantined.
    pub dead: Vec<bool>,
    /// Elected substitute per bank, `u64::MAX` when none.
    pub substitutes: Vec<u64>,
    /// The directory as sorted `(global address, tag)` pairs.
    pub directory: Vec<(u64, u64)>,
    /// Tag counter for redirected writes.
    pub dir_seq: u64,
}

impl McFrontend {
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
    /// # Errors
    ///
    /// [`TornMeta`] when `img` — bytes off a disk — does not fit this
    /// front-end: a `dead` or `substitutes` list of another bank count, or
    /// a substitute that is neither a bank nor `u64::MAX`, or a tag
    /// counter with no next tag. The front-end is left untouched.
    ///
    /// # Panics
    ///
    /// Panics outside degraded mode or while workers own the banks.
    pub fn restore_quarantine(&mut self, img: &QuarantineImage) -> Result<(), TornMeta> {
        assert!(!self.workers_active, "banks are owned by drain workers");
        let n = self.bank_dead.len();
        let bad = |why: String| Err(TornMeta(format!("quarantine image: {why}")));
        if img.dead.len() != n || img.substitutes.len() != n {
            let (d, s) = (img.dead.len(), img.substitutes.len());
            return bad(format!("{d} dead flags and {s} substitutes for {n} banks"));
        }
        if let Some(s) = img
            .substitutes
            .iter()
            .find(|&&s| s != u64::MAX && s >= n as u64)
        {
            return bad(format!("substitute {s} is not one of {n} banks"));
        }
        if img.dir_seq == u64::MAX {
            // The next redirected write would overflow `next_dir_tag`.
            return bad("tag counter at its last value".into());
        }
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
        for (phys, &dead) in img.dead.iter().enumerate() {
            if dead && !self.bank_dead[phys] {
                self.bank_dead[phys] = true;
                self.dead_count += 1;
                self.banks[phys].force_dead();
                self.sync[phys].alive.store(false, Ordering::Relaxed);
                if let Some(st) = &mut self.steer {
                    st.exclude(phys);
                }
            }
        }
        self.check_stop();
        Ok(())
    }

    /// Follows the quarantine substitute chain from `home` to the bank
    /// that will actually service a batch routed there; `None` when
    /// every bank in the chain is quarantined. Outside degraded mode the
    /// home bank always services its own traffic.
    pub(crate) fn resolve_bank(&self, home: usize) -> Option<usize> {
        let Some(q) = &self.degrade else {
            return Some(home);
        };
        let mut cur = home;
        // Substitutes are elected among then-healthy banks, so a chain
        // visits a bank at most once; one restored from a corrupt image
        // that does not is a chain with no live bank in it.
        for _ in 0..q.substitute.len() {
            if !self.bank_dead[cur] {
                return Some(cur);
            }
            cur = q.substitute[cur]?;
        }
        (!self.bank_dead[cur]).then_some(cur)
    }

    /// Services a batch whose resolved bank is quarantined: every entry
    /// lands in the directory under a fresh tag, with its service cost
    /// charged to the substitute's clock — which is what makes N−1
    /// throughput a measured quantity. With no healthy substitute left
    /// (`target == None`) the directory still absorbs the content.
    pub(crate) fn redirect_batch(&mut self, logical: usize, target: Option<usize>, k: u64) {
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
    }

    /// Marks physical bank `phys` dead in the lagged mirror (idempotent).
    /// In degraded mode the first observation of a death also runs the
    /// quarantine transition.
    pub(crate) fn mark_dead(&mut self, phys: usize) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_slot_hands_over_commands_once() {
        let slot = ChaosSlot::default();
        assert!(slot.take().is_empty());
        slot.post(BankChaos::KillAfter(3));
        slot.post(BankChaos::KillAfter(9));
        let cmds = slot.take();
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], BankChaos::KillAfter(3)));
        assert!(slot.take().is_empty(), "drained mailbox stays empty");
    }

    #[test]
    fn dir_tags_are_disjoint_from_sim_tags() {
        let mut q = Quarantine::new(2);
        let t = q.next_dir_tag();
        assert!(t > DIR_TAG_BASE);
    }

    #[test]
    fn logical_encoding_round_trips() {
        let logical = 11u64;
        let local = (1u64 << 40) + 12345;
        let enc = local | (logical << LOGICAL_SHIFT);
        assert_eq!(enc & LOCAL_MASK, local);
        assert_eq!(enc >> LOGICAL_SHIFT, logical);
    }
}
