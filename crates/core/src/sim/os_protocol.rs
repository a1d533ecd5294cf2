//! Playing the OS (paper §III-A): the checks that end a slab when the
//! oracle is on or a plan is armed, the write-retry loop, failure reports
//! and page requests turned into page retirements with their relocation
//! copies, and the retirement transaction a power cut can roll back.

use super::{Simulation, StepOutcome};
use crate::controller::WriteResult;
use wlr_base::{AppAddr, Pa, PageId};
use wlr_os::OsMemory;

impl Simulation {
    /// Ends a guarded slab (oracle on, or a plan armed): `write_run` (or
    /// `write_run_armed`) serviced every write of `addrs` but the last,
    /// whose result is `res`, physical address `pa`, and tag `self.seq`.
    /// Records the serviced writes in the oracle, then runs the last one's
    /// protocol.
    #[inline(always)]
    pub(super) fn end_slab(&mut self, addrs: &[AppAddr], pa: Pa, res: WriteResult) -> StepOutcome {
        let (&addr, serviced) = addrs.split_last().expect("a slab issues a write");
        let tag = self.seq;
        if let Some(oracle) = &mut self.expected {
            let tag0 = tag - serviced.len() as u64;
            for (i, a) in serviced.iter().enumerate() {
                oracle.insert(a.index(), tag0 + i as u64);
            }
        }
        let mapping = self.retirements + self.grants;
        // A fault fires only on a write that comes back other than `Ok`
        // (`OkFaulted` for one the controller serviced all the same), or
        // in the OS protocol such a result enters: only then is the power
        // or the silent-failure log worth a look.
        let faultable = self.fault_active && res != WriteResult::Ok;
        let placed = res == WriteResult::Ok || self.pa_write_rest(res, pa, tag, 0);
        let (power_lost, silent_logged) = if faultable {
            let device = self.controller.device_mut();
            // Whatever the OS protocol fired is checked here, not on the
            // next slab's first write.
            device.take_fault_fired();
            (!device.powered(), device.silent_failures().len())
        } else {
            (false, 0)
        };
        if power_lost {
            // The in-flight write is torn by definition: neither its old
            // nor its new content is promised across the crash, so the
            // oracle stops tracking the address (it resumes on the next
            // post-recovery write).
            if let Some(oracle) = &mut self.expected {
                oracle.remove(addr.index());
            }
            self.reconcile_silent_failures();
            return StepOutcome::PowerLost;
        }
        if let Some(oracle) = &mut self.expected {
            // The data survives iff the address still translates (its page
            // was kept or relocated with copies) — and, under fault
            // injection, iff the write actually landed somewhere. It
            // translated before the write, and a mapping moves only when a
            // page retires or is granted (a rolled-back retirement
            // restores the OS wholesale), so the lookup is repeated only
            // when one of those counters moved.
            let mapped =
                self.retirements + self.grants == mapping || self.os.translate(addr).is_some();
            if mapped && (placed || !self.fault_active) {
                oracle.insert(addr.index(), tag);
            } else {
                oracle.remove(addr.index());
            }
        }
        if silent_logged > self.silent_seen {
            self.reconcile_silent_failures();
        }
        StepOutcome::Serviced
    }

    /// Writes `tag` to `pa`, playing the OS on failure reports and page
    /// requests. Retirement copies recurse (bounded by `depth`). Returns
    /// whether the data ended up stored somewhere (always ignored in
    /// fault-free runs, whose oracle keys off translation alone).
    fn pa_write(&mut self, pa: Pa, tag: u64, depth: u8) -> bool {
        if depth > 8 {
            self.lost_writes += 1;
            return false;
        }
        let first = self.controller.write(pa, tag);
        // As on the plain path, the retry protocol is entered only when
        // the first attempt asks for it.
        first == WriteResult::Ok || self.pa_write_rest(first, pa, tag, depth)
    }

    /// The write-retry protocol given the first attempt's result — split
    /// out so the plain write path issues the first controller write
    /// itself and only pays for this on failure. Handles up to 4 write
    /// attempts in total.
    pub(super) fn pa_write_rest(
        &mut self,
        first: WriteResult,
        pa: Pa,
        tag: u64,
        depth: u8,
    ) -> bool {
        let mut res = first;
        let mut attempts = 1u8;
        loop {
            match res {
                WriteResult::Ok | WriteResult::OkFaulted => return true,
                WriteResult::ReportFailure(rep) => {
                    return self.handle_report(rep, (pa, tag), depth);
                }
                WriteResult::RequestPages(pages) => {
                    for page in pages {
                        let snap = self.fault_active.then(|| self.os.clone());
                        // A page already retired, or backing no application
                        // page, has nothing to copy; the controller is
                        // granted it all the same.
                        let ret = self.os.retire_page(page);
                        self.retirements += u64::from(ret.is_some());
                        self.controller.on_page_retired(page);
                        if self.rolled_back_retirement(page, snap) {
                            return false;
                        }
                        self.grants += 1;
                        for (src, dst) in ret.map(|r| r.copies).unwrap_or_default() {
                            let t = self.controller.read(src);
                            let ok = self.pa_write(dst, t, depth + 1);
                            if self.fault_active && !ok {
                                self.exempt_pa(dst);
                            }
                        }
                    }
                    // Retry the original write now that the pages landed.
                }
                WriteResult::Dropped(_) => {
                    // Power cut or degraded metadata: nothing stored,
                    // nothing to report. The run loop notices the power
                    // state; degraded accesses just lose this write.
                    self.lost_writes += 1;
                    return false;
                }
            }
            if attempts == 4 {
                break;
            }
            attempts += 1;
            res = self.controller.write(pa, tag);
        }
        self.lost_writes += 1;
        false
    }

    /// OS exception handler: retire the page, grant it to the controller,
    /// and relocate its data — substituting the freshly-written tag for
    /// the failing block's stale content. Returns whether the fresh data
    /// got placed.
    fn handle_report(&mut self, rep: Pa, fresh: (Pa, u64), depth: u8) -> bool {
        let snap = self.fault_active.then(|| self.os.clone());
        let Some(ret) = self.os.handle_failure(rep) else {
            // Stale report: the page is already gone; so is the data.
            self.lost_writes += 1;
            return false;
        };
        self.controller.on_page_retired(ret.retired);
        if self.rolled_back_retirement(ret.retired, snap) {
            self.lost_writes += 1;
            return false;
        }
        self.retirements += 1;
        self.grants += 1;
        if ret.copies.is_empty() {
            // Pool dry: the application page was dropped.
            self.lost_writes += 1;
            return false;
        }
        let mut fresh_placed = false;
        for (src, dst) in ret.copies {
            let (t, is_fresh) = if src == fresh.0 {
                (fresh.1, true)
            } else {
                (self.controller.read(src), false)
            };
            let ok = self.pa_write(dst, t, depth + 1);
            if is_fresh {
                fresh_placed = ok;
            }
            if self.fault_active && !ok && !is_fresh {
                self.exempt_pa(dst);
            }
        }
        fresh_placed
    }

    /// Retirement transaction check: if a power cut struck before the
    /// retirement's durable commit (`Controller::retirement_persisted`),
    /// the grant never happened as far as recovery is concerned — roll the
    /// OS back to the pre-retirement snapshot so both sides agree. Returns
    /// true when the rollback fired. No-op (and no snapshot is ever taken)
    /// without an active fault plan.
    fn rolled_back_retirement(&mut self, page: PageId, snap: Option<OsMemory>) -> bool {
        if !self.fault_active || self.controller.retirement_persisted(page) {
            return false;
        }
        self.os = snap.expect("snapshot taken when faults are active");
        true
    }
}
