//! The request step and the flush path behind it: routing a line to its
//! queue, the round-robin age probe, flushing a queue toward its bank,
//! the lag-one death sync, and the stop policy.

use std::sync::atomic::Ordering;

use crate::degrade::LOGICAL_SHIFT;
use crate::{pipeline, McFrontend, McStopPolicy, McStopReason};

impl McFrontend {
    /// One request, the path `submit` and `run` share: a tick, a buffer
    /// probe, a queue insert for a line the buffer passes, an age check.
    #[inline(always)]
    pub(crate) fn step(&mut self, global: u64) {
        let tick = self.tick + 1;
        self.tick = tick;
        if let Some(line) = self.wbuf.admit(global) {
            self.enqueue(line, tick);
        }
        if tick >= self.age_due {
            self.age_probe();
        }
    }

    /// Routes a line to its bank queue at `tick`, flushing first if that
    /// queue is full.
    #[inline(always)]
    pub(crate) fn enqueue(&mut self, global: u64, tick: u64) {
        let (bank, local) = self.map.split(global);
        let mut lane = &mut self.lanes[bank as usize];
        if lane.queue.is_full() {
            self.flush_bank(bank as usize);
            lane = &mut self.lanes[bank as usize];
        }
        if lane.queue.is_empty() {
            // The first probe of queue `bank` (probed on ticks ≡ bank mod
            // n) at least `max_batch_age` ticks from now.
            let n = self.map.banks();
            let from = tick + self.max_batch_age;
            lane.due = from + (bank + n - from % n) % n;
            self.age_due = self.age_due.min(lane.due);
        }
        lane.queue.push(local, tick);
    }

    /// The round-robin age probe (queue `tick mod n` on every request,
    /// flushed once its oldest entry has waited `max_batch_age` ticks),
    /// run only at `age_due`: a queue's probe fires exactly at its `due`.
    /// This bounds tail latency without a whole-fleet barrier.
    #[inline(never)]
    fn age_probe(&mut self) {
        let tick = self.tick;
        let dues = self.lanes.iter().map(|l| l.due);
        self.age_due = dues.filter(|&d| d > tick).min().unwrap_or(u64::MAX);
        if let Some(b) = self.lanes.iter().position(|l| l.due <= tick) {
            self.flush_bank(b);
        }
    }

    /// Flushes logical bank `logical`'s queued batch toward its
    /// (possibly steered) physical bank, accounting latency on the
    /// bank's service clock. With workers active the batch goes through
    /// the bank's SPSC ring; otherwise the ring round-trip is pure
    /// overhead and this thread services the batch itself, straight from
    /// the queue — same batch, same order, same publication, bit-identical
    /// outcome.
    #[inline(never)]
    pub(crate) fn flush_bank(&mut self, logical: usize) {
        let lane = &mut self.lanes[logical];
        if lane.queue.is_empty() {
            return;
        }
        lane.due = u64::MAX;
        let k = lane.queue.len() as u64;
        let home = self.steer.as_ref().map_or(logical, |s| s.route(logical));
        // Read the bank's fate for everything flushed *before* this
        // batch (the deterministic lag; see crate docs), then decide
        // whether the fleet as a whole is dead.
        self.sync_bank(home);
        self.check_stop();
        self.drains += 1;
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
        let queue = &mut self.lanes[logical].queue;
        let batch = queue.pending();
        self.latency
            .push_served(start, batch.iter().map(|&(_, arrival)| arrival));
        self.busy_until[phys] = start + k;
        if let Some(s) = &mut self.steer {
            s.note_flush(logical, phys, k);
        }
        self.flushed[phys] += k;
        // Degraded mode tags each ring entry with its logical bank so a
        // parked tail can be re-keyed to global addresses at rescue
        // time; banks strip the tag before issuing, so the per-bank
        // issue stream stays bit-identical to a plain run.
        let encode = if self.degrade.is_some() {
            (logical as u64) << LOGICAL_SHIFT
        } else {
            0
        };
        if self.workers_active {
            self.addr_buf.clear();
            self.addr_buf
                .extend(batch.iter().map(|&(addr, _)| addr | encode));
            queue.clear();
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
            let bank = &mut self.banks[phys];
            bank.drain_queued(batch, encode);
            queue.clear();
            pipeline::publish(bank, &self.sync[phys], k as usize);
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
