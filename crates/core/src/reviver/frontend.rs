//! The [`Controller`] front-end: software reads/writes, OS grant
//! handling, and the trait plumbing the simulator drives.

use super::chain::ChainEnd;
use super::events::{ReviverEvent, ViolationKind};
use super::RevivedController;
use crate::controller::{Controller, RequestStats, WriteResult};
use crate::error::ReviverError;
use crate::recovery::RecoveryReport;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{CrashPoint, PcmDevice};
use wlr_wl::WearLeveler;

impl RevivedController {
    /// The steady-state write to a linked failed block `da`: lands `tag`
    /// on its one-step shadow iff the device takes its fast exit there.
    /// `true` leaves exactly what [`Self::write_da`] returning `Ok` would
    /// have left; `false` leaves nothing touched.
    fn write_shadow_fast(&mut self, da: Da, tag: u64) -> bool {
        // Only failed blocks are linked. A PA–DA loop (`map(v) == da`)
        // and a dead shadow both decline in `write_fast`, as does a
        // healthy shadow about to lose a cell.
        let Some(v) = self.links.ptr.get(da.index()) else {
            return false;
        };
        if !self.device.write_fast(self.wl.map(v), tag) {
            return false;
        }
        // The pointer read the full path pays first — or the remap
        // cache's hit in its place; the cache mirrors the table, so
        // either way it resolves to `v`. Without a cache that read is all
        // `resolve_ptr` would do, and `v` is already in hand.
        if self.links.cache.is_some() {
            let resolved = self.resolve_ptr(da, true);
            debug_assert_eq!(resolved, Some(v), "remap cache out of step at {da}");
        } else {
            self.dev_read(da, true);
        }
        self.req.accesses += 1;
        true
    }

    /// [`Controller::write`] under invariant checking or a suspension:
    /// the reserved-PA assertion and the delayed space acquisition
    /// (§III-A), then the full protocol.
    #[cold]
    #[inline(never)]
    fn write_guarded(&mut self, pa: Pa, tag: u64) -> WriteResult {
        if self.check {
            assert!(
                !self.is_reserved(pa),
                "software write of reserved {pa}: the OS contract (§III-A) says retired pages are never accessed"
            );
        }
        self.req.requests += 1;
        if self.suspended {
            if self.proactive {
                // §III-A alternative (ablation): explicitly ask the OS for
                // a page via a new interrupt instead of sacrificing this
                // write. The controller nominates the lowest live page.
                if let Some(page) = self.pick_page_to_request() {
                    return WriteResult::RequestPages(vec![page]);
                }
            }
            // Delayed space acquisition (§III-A): report this write as a
            // failure — even though it may not be one — to obtain a page.
            self.emit(ReviverEvent::WriteSacrificed { pa });
            return WriteResult::ReportFailure(pa);
        }
        let da = self.wl.map(pa);
        self.write_mapped(pa, da, tag)
    }

    /// A software write of `pa`, mapped to `da`, that the device did not
    /// take at `da` on the steady-state path: one pointer hop to a linked
    /// block's shadow when that is as quiet, the full protocol otherwise.
    #[inline(never)]
    fn write_mapped(&mut self, pa: Pa, da: Da, tag: u64) -> WriteResult {
        let steady = !self.check && self.pending_meta.is_empty() && self.mig_buf.is_empty();
        if steady && self.write_shadow_fast(da, tag) {
            return self.record_steady(pa);
        }
        match self.write_da(da, tag, true) {
            Ok(()) => {
                self.finish_write(pa);
                WriteResult::Ok
            }
            Err(ReviverError::NeedSpare) => {
                self.emit(ReviverEvent::FailureReported { pa });
                WriteResult::ReportFailure(pa)
            }
            // Power loss or torn metadata: the write is dropped, not
            // reported — there is nothing the OS could do about it.
            Err(e) => WriteResult::Dropped(e),
        }
    }

    /// Tells the scheme about a steady-state write of `pa` that already
    /// landed.
    #[inline]
    fn record_steady(&mut self, pa: Pa) -> WriteResult {
        if !self.wl.record_write_fast(pa) {
            // Rare: this recording arms a migration — finish with the full
            // post-write protocol (the device write already landed).
            self.finish_write(pa);
        }
        WriteResult::Ok
    }

    /// The protocol after a software write to `pa` landed: tell the
    /// scheme, run the migrations that arms, flush deferred metadata and
    /// check the invariants if asked to.
    fn finish_write(&mut self, pa: Pa) {
        self.wl.record_write(pa);
        self.run_migrations();
        self.flush_meta();
        // A suspension parks mid-repair state (the migration buffer);
        // invariants are re-checked after the grant. After a power cut
        // the volatile tables legitimately diverge from the frozen
        // durable state, so checking waits for recovery.
        if self.check && !self.suspended && self.device.powered() {
            self.assert_invariants();
        }
    }
}

impl Controller for RevivedController {
    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn read(&mut self, pa: Pa) -> u64 {
        if self.check {
            assert!(
                !self.is_reserved(pa),
                "software read of reserved {pa}: the OS contract (§III-A) says retired pages are never accessed"
            );
        }
        self.req.requests += 1;
        let da = self.wl.map(pa);
        match self.walk_chain(da, true) {
            // A dataless chain reads like a PA–DA loop always has: one
            // access to the failed block, whatever it holds.
            ChainEnd::Healthy(da) | ChainEnd::Dataless(da) => {
                self.dev_read(da, true);
                self.device.tag(da)
            }
            // Served from the controller's migration buffer: no PCM
            // access for the data.
            ChainEnd::Buffered(tag) => tag,
            ChainEnd::Unlinked(cur) => {
                // Theorem 1 says this cannot happen for software PAs —
                // except for undiscovered failures (injected, silently
                // concealed, or unhealed after a crash), whose reads
                // legitimately return unrecoverable content.
                let known_gap = self.pool.undiscovered.contains(cur.index())
                    || self.device.silent_failures().contains(&cur);
                assert!(
                    !self.check || known_gap,
                    "read of unlinked dead block {cur} via software {pa}"
                );
                if !known_gap {
                    self.degraded = true;
                    self.emit(ReviverEvent::InvariantViolation {
                        da: cur,
                        kind: ViolationKind::UnlinkedDeadRead,
                    });
                }
                self.dev_read(cur, true);
                0
            }
            // Torn metadata formed a pointer cycle: the read returns
            // unrecoverable content instead of panicking.
            ChainEnd::Aborted => 0,
        }
    }

    // Inlined into `write_run`'s default loop: one call per slab.
    #[inline(always)]
    fn write(&mut self, pa: Pa, tag: u64) -> WriteResult {
        if self.check || self.suspended {
            return self.write_guarded(pa, tag);
        }
        self.req.requests += 1;
        let da = self.wl.map(pa);
        // Steady-state fast path: when nothing rare is in flight and both
        // the device and the scheme take their fast exits, the write is
        // provably equivalent to the full protocol: `write_da` would
        // return `Ok` from its first `dev_write` (on `da`, or one pointer
        // hop away on its shadow, tried in `write_mapped`),
        // `run_migrations` and `flush_meta` would be no-ops, and the full
        // path would emit no event: every event rides a rare transition
        // (failure, migration, metadata flush) that diverts off this path
        // before it could fire, so an attached ring loses nothing here.
        // Everything else is out of line, so this path saves no register
        // it does not use.
        if self.pending_meta.is_empty()
            && self.mig_buf.is_empty()
            && self.device.write_fast(da, tag)
        {
            self.req.accesses += 1;
            return self.record_steady(pa);
        }
        self.write_mapped(pa, da, tag)
    }

    fn on_page_retired(&mut self, page: PageId) {
        if self.pool.retired[page.as_usize()] {
            return;
        }
        if self.device.crash_point(CrashPoint::MidRetire) {
            self.emit(ReviverEvent::PowerCut {
                at: CrashPoint::MidRetire,
            });
        }
        self.pool.retired[page.as_usize()] = true;
        // The bitmap write is the retirement's durable commit point: a
        // grant the power cut interrupted never happened as far as
        // recovery is concerned (the simulator rolls the OS side back to
        // match — see `Simulation`'s retirement transaction).
        if self.device.powered() {
            self.persist.retired[page.as_usize()] = true;
        }
        self.pool.spares.extend(self.shadow_pas(page));
        self.emit(ReviverEvent::PageRetired {
            page,
            shadows: self.pool.shadows,
        });
        if self.suspended {
            self.suspended = false;
            self.emit(ReviverEvent::MigrationResumed);
            self.run_migrations();
            self.flush_meta();
            if self.check && !self.suspended && self.device.powered() {
                self.assert_invariants();
            }
        }
    }

    fn device(&self) -> &PcmDevice {
        &self.device
    }

    fn wl_active(&self) -> bool {
        true // reviving the scheme is the whole point
    }

    fn suspended(&self) -> bool {
        self.suspended
    }

    fn request_stats(&self) -> RequestStats {
        self.req
    }

    fn reset_request_stats(&mut self) {
        self.req = RequestStats::default();
    }

    fn as_reviver(&self) -> Option<&RevivedController> {
        Some(self)
    }

    fn fork_box(&self) -> Box<dyn Controller> {
        Box::new(self.clone())
    }

    fn as_reviver_mut(&mut self) -> Option<&mut RevivedController> {
        Some(self)
    }

    fn device_mut(&mut self) -> &mut PcmDevice {
        &mut self.device
    }

    fn retirement_persisted(&self, page: PageId) -> bool {
        RevivedController::retirement_persisted(self, page)
    }

    fn logical_owner(&self, da: Da) -> Option<Pa> {
        RevivedController::logical_owner(self, da)
    }

    fn recover(&mut self) -> RecoveryReport {
        RevivedController::recover(self)
    }

    fn label(&self) -> String {
        let wl = match self.wl.label().as_str() {
            "Start-Gap" => "SG",
            "Security-Refresh" => "SR",
            other => return format!("{}-{}-WLR", self.device.ecc_label(), other),
        };
        format!("{}-{}-WLR", self.device.ecc_label(), wl)
    }
}
