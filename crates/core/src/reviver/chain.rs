//! The write chain (core of §III-B): failure discovery, one-step
//! switching, loop escape, and the migration machinery with the
//! Theorem-3 repair.

use super::events::ReviverEvent;
use super::RevivedController;
use crate::error::ReviverError;
use wlr_base::{Da, Pa};
use wlr_pcm::{CrashPoint, WriteOutcome};
use wlr_wl::{Migration, WearLeveler};

/// How [`RevivedController::walk_chain`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChainEnd {
    /// At a healthy block: the start itself, or the shadow holding the
    /// chain's data (not yet read).
    Healthy(Da),
    /// At a line parked in the migration buffer during a suspension.
    Buffered(u64),
    /// Back at a block already visited — a PA–DA loop or a mutual loop:
    /// nothing is stored behind the chain. Carries the last block whose
    /// pointer was read.
    Dataless(Da),
    /// At a failed block that carries no link.
    Unlinked(Da),
    /// Out of hops on torn metadata (`degraded` is set, `ChainAborted`
    /// emitted).
    Aborted,
}

impl RevivedController {
    /// Serves a write destined by the current mapping for `da`,
    /// discovering failures, linking, and keeping chains at one step.
    /// Metadata writes triggered inside are deferred (see
    /// [`RevivedController::meta_write`]) to keep chain repair
    /// non-re-entrant.
    pub(super) fn write_da(&mut self, da: Da, tag: u64, acct: bool) -> Result<(), ReviverError> {
        self.in_write_da += 1;
        let r = self.write_da_inner(da, tag, acct);
        self.in_write_da -= 1;
        r
    }

    fn write_da_inner(&mut self, mut da: Da, tag: u64, acct: bool) -> Result<(), ReviverError> {
        if !self.device.is_dead(da) {
            match self.dev_write(da, tag, acct) {
                WriteOutcome::Ok => return Ok(()),
                WriteOutcome::NewFailure => {} // fall through: fresh failure
                WriteOutcome::Lost => return Err(ReviverError::PowerLoss),
                WriteOutcome::AlreadyDead => unreachable!("checked alive"),
            }
        }
        // `da` is dead. Ensure it is linked.
        if !self.links.ptr.contains_key(da.index()) {
            let v = self.take_spare_or_park(da)?;
            self.link(da, v);
        }
        // Follow/repair the chain until the data lands on a healthy block.
        let mut fuel = self.pool.spares.len() + self.links.ptr.len() + 8;
        loop {
            if fuel == 0 {
                // Reachable only through torn metadata: degrade, don't
                // panic — recovery re-derives the chains.
                self.degraded = true;
                self.emit(ReviverEvent::InvariantViolation {
                    da,
                    kind: super::events::ViolationKind::ChainDiverged,
                });
                return Err(ReviverError::ChainDiverged { da: da.index() });
            }
            fuel -= 1;
            let v = match self.resolve_ptr(da, acct) {
                Some(v) => v,
                None => return Err(ReviverError::UnlinkedDead { da: da.index() }),
            };
            let sda = self.wl.map(v);
            if sda == da {
                // `da` is on a PA–DA loop: it has no shadow. Give it a
                // fresh virtual shadow; the old PA returns to the pool.
                let v2 = self.take_spare()?;
                self.relink(da, v2, v);
                continue;
            }
            if !self.device.is_dead(sda) {
                match self.dev_write(sda, tag, acct) {
                    WriteOutcome::Ok => return Ok(()),
                    WriteOutcome::NewFailure => {
                        // Scenario 1 (Fig. 2c): the shadow died serving
                        // this write. Link it and switch virtual shadows
                        // (or, in the no-switching ablation, keep walking
                        // the now-longer chain).
                        let v2 = self.take_spare_or_park(sda)?;
                        self.link(sda, v2);
                        if self.switching {
                            self.switch(da, sda);
                        } else {
                            da = sda;
                        }
                        continue;
                    }
                    WriteOutcome::Lost => return Err(ReviverError::PowerLoss),
                    WriteOutcome::AlreadyDead => unreachable!("checked alive"),
                }
            }
            // The shadow is already dead: a two-step chain has formed.
            if !self.links.ptr.contains_key(sda.index()) {
                let v2 = self.take_spare_or_park(sda)?;
                self.link(sda, v2);
            }
            if self.switching {
                self.switch(da, sda);
            } else {
                da = sda;
            }
        }
    }

    // ----- migrations ---------------------------------------------------

    /// Whether the block `src` (about to be migrated out of) holds live
    /// data under the *current* (pre-migration) mapping. See the comment
    /// at the call site in [`RevivedController::run_migrations`].
    pub(super) fn src_data_is_live(&self, src: Da) -> bool {
        // A migration moves data inside the scheme's own DA space.
        let Some(p) = self.wl.inverse(src) else {
            return false; // unmapped buffer block
        };
        if !self.is_reserved(p) {
            return true; // software data
        }
        match self.links.inv.get(p.index()) {
            // Linked virtual shadow: the block is its head's shadow and
            // holds the head's data — unless the head *is* this block
            // (a PA–DA loop), which holds nothing.
            Some(d0) => d0 != src,
            // Unlinked reserved PA: a spare (garbage) or a pointer-section
            // block (live metadata).
            None => self.is_section(p),
        }
    }

    /// Where a read of device block `start` ends: at `start` itself when
    /// it is healthy, otherwise at the end of its chain. The one walker behind
    /// software reads (`software`: pointers resolve through the remap
    /// cache and count as request accesses) and migration reads (neither).
    ///
    /// Charges exactly the pointer hops it performs. With consistent
    /// tables `d ↦ map(ptr[d])` is injective over linked blocks, so a walk
    /// that reaches neither a healthy nor an unlinked block comes back to
    /// `start` — after one hop on a PA–DA loop, two on a mutual loop, and
    /// never more hops than the chain has distinct blocks. Only torn
    /// metadata (two blocks claiming one shadow) can lead it into a cycle
    /// that misses `start`; the hop budget ends that walk, degraded.
    #[inline]
    pub(super) fn walk_chain(&mut self, start: Da, software: bool) -> ChainEnd {
        match self.chain_end_at(start) {
            Some(end) => end,
            None => self.walk_links(start, software),
        }
    }

    /// [`Self::walk_chain`] from a failed `start`. Apart, so that the
    /// healthy exit above — every read of the healthy era — compiles to
    /// what it was before the walk was shared (measured: one function
    /// costs `Controller::read` 2 ns of 6).
    #[inline]
    fn walk_links(&mut self, start: Da, software: bool) -> ChainEnd {
        let mut cur = start;
        for _ in 0..self.links.ptr.len() + 2 {
            let v = if software {
                self.resolve_ptr(cur, true)
            } else {
                let v = self.links.ptr.get(cur.index());
                if v.is_some() {
                    self.dev_read(cur, false); // pointer read, past the cache
                }
                v
            };
            let Some(v) = v else {
                return ChainEnd::Unlinked(cur);
            };
            let next = self.wl.map(v);
            if let Some(end) = self.chain_end_at(next) {
                return end;
            }
            if next == cur || next == start {
                return ChainEnd::Dataless(cur);
            }
            // With switching on (the paper's design) a second step is a
            // mutual loop or a shadow whose death is still undiscovered;
            // the no-switching ablation walks on, paying one pointer read
            // per step.
            cur = next;
        }
        self.degraded = true;
        self.emit(ReviverEvent::ChainAborted { da: cur });
        ChainEnd::Aborted
    }

    /// Whether a chain walk ends on arriving at `da`: a line parked in
    /// the migration buffer covers it (reads keep being served during a
    /// suspension — the paper's rationale for sacrificing writes, not
    /// reads, during delayed acquisition), or it is healthy.
    #[inline]
    fn chain_end_at(&self, da: Da) -> Option<ChainEnd> {
        if self.suspended {
            if let Some(&(_, t)) = self.mig_buf.iter().find(|(d, _)| *d == da) {
                return Some(ChainEnd::Buffered(t));
            }
        }
        (!self.device.is_dead(da)).then_some(ChainEnd::Healthy(da))
    }

    /// Reads the data a migration must move out of `src`, walking the
    /// chain if `src` is failed. Returns the data and whether the walk
    /// ended at a healthy block — chains ending in a loop or an unlinked
    /// dead block hold no live data.
    pub(super) fn migration_read(&mut self, src: Da) -> (u64, bool) {
        match self.walk_chain(src, false) {
            ChainEnd::Healthy(da) => {
                self.dev_read(da, false);
                (self.device.tag(da), true)
            }
            // Migrations never run suspended; were one to, the parked
            // line is the block's live data.
            ChainEnd::Buffered(tag) => (tag, true),
            ChainEnd::Dataless(da) => {
                self.emit(ReviverEvent::GarbageRead { da });
                (self.device.tag(da), false)
            }
            ChainEnd::Unlinked(da) => {
                self.emit(ReviverEvent::GarbageRead { da });
                self.dev_read(da, false);
                (self.device.tag(da), false)
            }
            ChainEnd::Aborted => (0, false),
        }
    }

    /// Performs all pending migrations, suspending (and parking data in
    /// the migration buffer) if a spare PA is needed and none exists.
    ///
    /// Power-gated: the wear-leveler's mapping registers are persistent,
    /// so no migration may start (and no mapping may advance) once the
    /// device has lost power — post-cut execution must not perturb
    /// durable state.
    pub(super) fn run_migrations(&mut self) {
        while !self.suspended && self.device.powered() {
            if self.mig_buf.is_empty() {
                let Some(m) = self.wl.pending() else { break };
                if self.check {
                    if let Migration::Copy { dst, .. } = m {
                        // Theorem 3: the scheme only copies into its
                        // (unmapped) buffer block, never onto live data —
                        // in particular never onto a PA–DA loop.
                        assert!(
                            self.wl.inverse(dst).is_none(),
                            "scheme migrated into mapped block {dst}"
                        );
                    }
                }
                // `(source block, post-migration target)` for each moved PA.
                let (moves, n) = match m {
                    Migration::Copy { src, dst } => ([(src, dst); 2], 1),
                    Migration::Swap { a, b } => ([(a, b), (b, a)], 2),
                };
                let mut lines = [(Da::new(0), 0); 2];
                let mut live = 0;
                for &(src, target) in &moves[..n] {
                    let (tag, ended_live) = self.migration_read(src);
                    // Only *live* data is rewritten at the target. A
                    // reserved PA's block holds live data only when the PA
                    // is a linked virtual shadow of a *non-loop* block
                    // (the chain head's data) or a pointer-section block
                    // (metadata). Unlinked spares and loop-block shadows
                    // carry garbage — and writing garbage is worse than
                    // wasted wear: if this very migration makes the other
                    // moved PA's chain resolve into `target`, the stale
                    // write would clobber freshly-placed live data (the
                    // aliasing hazard dissected in the tests).
                    if ended_live && self.src_data_is_live(src) {
                        lines[live] = (target, tag);
                        live += 1;
                    }
                }
                // Advance the mapping; the writes below then resolve
                // chains under the post-migration mapping, and reads
                // during any suspension are served from the buffer.
                self.wl.complete_migration();
                let cut = self.device.crash_point(CrashPoint::MidMigration);
                if cut {
                    self.emit(ReviverEvent::PowerCut {
                        at: CrashPoint::MidMigration,
                    });
                }
                let mut parked = cut || self.check;
                for &(target, tag) in &lines[..live] {
                    // A line the device takes at once, on a healthy target,
                    // is what the buffer loop below would have written.
                    if !parked && self.device.write_fast(target, tag) {
                        self.line_landed(target);
                        continue;
                    }
                    // It and the lines after it wait in the migration
                    // buffer and the battery-backed journal (controller
                    // NVM, which took them while the power was on).
                    parked = true;
                    self.mig_buf.push_back((target, tag));
                    self.persist.journal.push_back((target, tag));
                }
            }
            while let Some(&(target, tag)) = self.mig_buf.front() {
                match self.write_da(target, tag, false) {
                    Ok(()) => {
                        self.mig_buf.pop_front();
                        if self.device.powered() {
                            self.persist.journal.pop_front();
                        }
                        self.line_landed(target);
                    }
                    Err(ReviverError::NeedSpare) => {
                        self.suspended = true;
                        self.emit(ReviverEvent::MigrationSuspended);
                        return;
                    }
                    // Power cut (or torn chain): stop here. The journaled
                    // lines are replayed by recovery.
                    Err(_) => return,
                }
            }
        }
    }

    /// What follows a migration line's landing at `target`: the metadata
    /// writes its chain repair deferred, then the Figure 3 repair. With
    /// nothing queued and no linked virtual shadow both are no-ops (the
    /// repair's lookup would miss); `check` runs them regardless.
    #[inline(always)]
    fn line_landed(&mut self, target: Da) {
        if !self.check && self.pending_meta.is_empty() && self.links.inv.is_empty() {
            return;
        }
        self.flush_meta();
        self.fix_chain_after_migration(target);
    }

    /// The Figure 3 repair: after a migration, if the PA now mapping to
    /// `target` is a linked virtual shadow and `target` is failed, a
    /// two-step chain has formed — switch the chain head's virtual shadow.
    pub(super) fn fix_chain_after_migration(&mut self, target: Da) {
        if !self.switching {
            return; // ablation: chains are allowed to grow
        }
        let Some(p) = self.wl.inverse(target) else {
            return;
        };
        if !self.is_reserved(p) {
            return;
        }
        let Some(d0) = self.links.inv.get(p.index()) else {
            return;
        };
        // Locating the chain head requires reading the inverse pointer.
        self.meta_read(p);
        if d0 == target || !self.device.is_dead(target) {
            return;
        }
        if !self.links.ptr.contains_key(target.index()) {
            // `target` died *silently* (the device reported Ok, so
            // `write_da` never saw a failure and never linked it). Its
            // death is still undiscovered: leave the two-step chain in
            // place — the chain walk links and switches it on the write
            // that first finds the shadow dead.
            return;
        }
        self.switch(d0, target);
    }

    pub(super) fn safe_inverse(&self, da: Da) -> Option<Pa> {
        if da.index() < self.wl.total_das() {
            self.wl.inverse(da)
        } else {
            None
        }
    }
}
