//! The submit-side flush path: routing a line to its queue, the
//! round-robin age probe, flushing a queue toward its bank, the lag-one
//! death sync, and the stop policy.

use std::sync::atomic::Ordering;

use crate::degrade::LOGICAL_SHIFT;
use crate::{pipeline, McFrontend, McStopPolicy, McStopReason};

impl McFrontend {
    /// Routes a line to its bank queue, flushing first if that queue is
    /// full.
    pub(crate) fn enqueue(&mut self, global: u64) {
        let (bank, local) = self.map.split(global);
        let b = bank as usize;
        if self.queues[b].is_full() {
            self.flush_bank(b);
        }
        if self.queues[b].is_empty() {
            self.oldest_arrival[b] = self.tick;
        }
        self.queues[b].push(local, self.tick);
    }

    /// Probes one queue per submit (round-robin) and flushes it when its
    /// oldest entry has aged out — this bounds tail latency without a
    /// whole-fleet barrier and without scanning every queue per request.
    pub(crate) fn age_probe(&mut self) {
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
    /// overhead and this thread services the batch itself — same batch,
    /// same order, same publication, bit-identical outcome.
    pub(crate) fn flush_bank(&mut self, logical: usize) {
        if self.queues[logical].is_empty() {
            return;
        }
        self.queues[logical].take_into(&mut self.entry_buf);
        self.oldest_arrival[logical] = u64::MAX;
        let home = self.steer.as_ref().map_or(logical, |s| s.route(logical));
        // Read the bank's fate for everything flushed *before* this
        // batch (the deterministic lag; see crate docs), then decide
        // whether the fleet as a whole is dead.
        self.sync_bank(home);
        self.check_stop();
        self.drains += 1;
        let k = self.entry_buf.len() as u64;
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
            pipeline::service(&mut self.banks[phys], &self.sync[phys], &self.addr_buf);
        }
    }

    /// Brings the front-end's death mirror for `phys` up to date with
    /// every batch flushed so far (excluding any being flushed right
    /// now): waits for the bank's servicer to catch up — a pinned worker;
    /// inline there is nothing to wait for — then reads what it
    /// published.
    fn sync_bank(&mut self, phys: usize) {
        let sync = &self.sync[phys];
        while sync.consumed.load(Ordering::Acquire) < self.flushed[phys] {
            std::thread::yield_now();
        }
        if !sync.alive.load(Ordering::Relaxed) {
            self.mark_dead(phys);
        }
    }

    /// Evaluates the stop policy over the death mirror.
    #[inline]
    pub(crate) fn check_stop(&mut self) {
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
