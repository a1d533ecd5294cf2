//! The bank hand-off protocol, written once: a batch is drained into its
//! bank and [`publish`]ed through [`BankSync`] — per pop on a pinned
//! worker ([`Bank::drain`] of the ring's entries), or from `flush_bank`
//! itself, straight from the queue, when no workers run (inline mode is
//! this protocol with nobody on the other side of the ring, so
//! `sync_bank`'s wait is a no-op).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use wlr_base::spsc::Consumer;

use crate::{Bank, McFrontend};

/// What servicing a batch publishes back to the front-end: how far the
/// bank has consumed what was flushed at it, and whether it survived. The
/// front-end reads `alive` only after observing `consumed` catch up to
/// its own flush count (Acquire pairs with the servicer's Release), which
/// is what makes death visibility deterministic.
#[derive(Debug)]
pub(crate) struct BankSync {
    /// Ring entries fully drained into the bank so far.
    pub(crate) consumed: AtomicU64,
    /// Whether the bank was alive after its last drained batch.
    pub(crate) alive: AtomicBool,
}

/// Publishes what draining `k` more entries left `bank` as — per pop on
/// a pinned worker, per flush on the submitting thread when none run.
#[inline]
pub(crate) fn publish(bank: &Bank, sync: &BankSync, k: usize) {
    // `alive` first, then the Release on `consumed`: the front-end's
    // Acquire of `consumed` orders the pair.
    sync.alive.store(bank.alive(), Ordering::Relaxed);
    // A bank has one servicer at a time — its pinned worker, or the
    // submitting thread while no workers run, handed over by the scope's
    // spawn and join — so `consumed` has a single writer and a plain
    // load + Release store reaches the same total as a locked RMW.
    let done = sync.consumed.load(Ordering::Relaxed) + k as u64;
    sync.consumed.store(done, Ordering::Release);
}

/// A pinned worker: round-robins its banks' rings, servicing whatever
/// each pop returns, until shutdown is raised and every ring is empty.
fn worker(
    mut part: Vec<(usize, Bank, Consumer)>,
    sync: &[BankSync],
    shutdown: &AtomicBool,
) -> Vec<(usize, Bank, Consumer)> {
    let mut batch: Vec<u64> = Vec::new();
    loop {
        let mut worked = false;
        for (idx, bank, cons) in part.iter_mut() {
            batch.clear();
            if cons.pop_into(&mut batch) > 0 {
                bank.drain(&batch);
                publish(bank, &sync[*idx], batch.len());
                worked = true;
            }
        }
        if !worked {
            if shutdown.load(Ordering::Acquire) && part.iter().all(|(_, _, c)| c.is_empty()) {
                return part;
            }
            std::thread::yield_now();
        }
    }
}

/// Releases pinned workers on drop so an unwinding driver closure can't
/// leave them spinning forever inside `std::thread::scope`.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

impl McFrontend {
    /// Runs `drive` with the pinned pipeline hot. When the configuration
    /// allows worker threads, per-bank drain workers own the banks and
    /// ring consumers for the whole closure, servicing everything
    /// `drive` submits concurrently; then the pipeline is run dry
    /// (write buffer → queues → rings) and the workers rejoin before
    /// this returns. Otherwise `drive` runs with inline servicing and
    /// nothing extra happens — [`finish`](Self::finish) completes the
    /// drain in every mode.
    ///
    /// [`run`](Self::run) is this around a workload loop; a caller that
    /// submits its own requests drives them through it directly and can
    /// keep calling it (or `finish`, which leaves the front-end usable).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `drive` once the workers have joined. The
    /// banks are not handed back, so the front-end is unusable after it.
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
        let shutdown = AtomicBool::new(false);
        self.workers_active = true;
        let (r, mut returned) = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let sync = Arc::clone(&self.sync);
                    let shutdown = &shutdown;
                    scope.spawn(move || worker(part, &sync, shutdown))
                })
                .collect();
            // If `drive` unwinds, still release the workers so the scope
            // can join them instead of deadlocking on a spin loop.
            let guard = ShutdownOnDrop(&shutdown);
            let r = drive(self);
            // Hand the workers everything still buffered, then let them
            // run the rings dry.
            self.run_dry();
            drop(guard);
            let mut returned = Vec::with_capacity(n);
            for h in handles {
                returned.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            (r, returned)
        });
        self.workers_active = false;
        returned.sort_by_key(|&(i, _, _)| i);
        for (i, bank, cons) in returned {
            self.consumers[i] = Some(cons);
            self.banks.push(bank);
        }
        r
    }

    /// Hands everything still buffered toward the banks: write buffer →
    /// queues → rings (or, inline, straight into the banks).
    pub(crate) fn run_dry(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        self.wbuf.flush_into(&mut dirty);
        for &line in &dirty {
            self.enqueue(line, self.tick);
        }
        dirty.clear();
        self.dirty_buf = dirty;
        for b in 0..self.lanes.len() {
            self.flush_bank(b);
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
}
