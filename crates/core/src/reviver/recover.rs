//! Crash recovery (§III-B's "rebuilt by scanning"): the durable-metadata
//! accessors, the seven-phase [`RevivedController::recover`] scan, and
//! the torn-switch repair.

use super::events::{RecoveryPhase, ReviverEvent};
use super::RevivedController;
use crate::cache::RemapCache;
use crate::recovery::{PersistedMeta, RecoveryReport, TornMeta};
use wlr_base::{Da, Pa, PageId};
use wlr_wl::WearLeveler;

impl RevivedController {
    /// The durable metadata mirror (what a firmware scan of the PCM and
    /// the migration journal would find right now).
    pub fn persisted_meta(&self) -> &PersistedMeta {
        &self.persist
    }

    /// Whether `page`'s retirement reached the durable bitmap — the
    /// commit point the simulator's retirement transaction checks before
    /// deciding to roll the OS side back after a crash.
    pub fn retirement_persisted(&self, page: PageId) -> bool {
        self.persist.retired[page.as_usize()]
    }

    /// Whether an access hit torn metadata it could not repair since the
    /// last recovery.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The software PA whose data currently lives in device block `da`,
    /// if any: the block's own PA when that is software-visible, or — for
    /// a shadow block — its chain head's PA. Used by the simulator to
    /// reconcile silent write failures (the block died claiming success,
    /// so this owner's data is gone).
    pub fn logical_owner(&self, da: Da) -> Option<Pa> {
        let p = self.safe_inverse(da)?;
        if !self.is_reserved(p) {
            return Some(p);
        }
        let head = self.links.inv.get(p.index())?;
        if head == da {
            return None; // loop block: holds no data
        }
        let hp = self.safe_inverse(head)?;
        (!self.is_reserved(hp)).then_some(hp)
    }

    /// Replaces the durable metadata wholesale and recovers from it —
    /// the deserialization end of the persistence round trip
    /// ([`PersistedMeta::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`TornMeta`] when `meta` does not describe this controller's device
    /// (table capacity, page count) or holds a pointer that is not a
    /// software PA; the controller is left untouched.
    pub fn restore_from(&mut self, meta: PersistedMeta) -> Result<RecoveryReport, TornMeta> {
        let (blocks, pages) = (self.device.total_blocks(), self.geo.num_pages());
        if meta.ptr.capacity() != blocks || meta.retired.len() as u64 != pages {
            return Err(TornMeta(format!(
                "metadata of a {}-block, {}-page device restored into one of {blocks} blocks, \
                 {pages} pages",
                meta.ptr.capacity(),
                meta.retired.len()
            )));
        }
        let visible = self.geo.num_blocks();
        if let Some((da, v)) = meta.ptr.iter().find(|(_, v)| v.index() >= visible) {
            return Err(TornMeta(format!(
                "pointer {da}->{v} outside the software-visible space"
            )));
        }
        self.persist = meta;
        Ok(self.recover())
    }

    /// Rebuilds all volatile state from the durable metadata after a
    /// power cut, repairing whatever the cut tore:
    ///
    /// 1. restore the retired-page bitmap, which is the whole layout
    ///    (pointer sections and inverse slots are computed from it);
    /// 2. re-read every persisted failed-block pointer, discarding torn
    ///    entries (their grant never committed);
    /// 3. detect half-completed shadow switches (two blocks claiming one
    ///    shadow) and complete them;
    /// 4. rebuild the spare-PA pool by scanning the retired pages;
    /// 5. heal unlinked software-accessible dead blocks with spares
    ///    (Theorem 2's undiscovered-failure state — legal, but healed
    ///    eagerly when the pool allows);
    /// 6. replay the journaled migration lines;
    /// 7. collapse the two-step chains the cut left: a linked head whose
    ///    shadow is dead and unlinked.
    ///
    /// Steps 5 and 7 find their dead, unlinked blocks a 64-block word at a
    /// time (the device's dead set and-not the link table's keys), not by
    /// visiting every block or every link.
    ///
    /// Suspends gracefully (`report.suspended`) when replay needs a spare
    /// that does not exist, and flags `report.degraded` instead of
    /// panicking when a torn state admits no certain repair.
    ///
    /// Each phase emits a [`ReviverEvent::RecoveryStep`], the links and
    /// switches restored along the way emit their ordinary events, and
    /// the whole pass ends in [`ReviverEvent::RecoveryCompleted`] — so an
    /// attached event ring records recovery through the same spine as
    /// normal operation.
    pub fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        self.device.restore_power();
        // Volatile state is gone: the suspension flag, deferred metadata
        // writes, the remap cache, and every in-SRAM table. The migration
        // buffer's lines survive in the journal and are restored below.
        self.suspended = false;
        self.in_write_da = 0;
        self.pending_meta.clear();
        self.degraded = false;
        self.mig_buf.clear();
        if let Some(c) = &mut self.links.cache {
            *c = RemapCache::with_capacity_bytes(c.capacity() * crate::cache::ENTRY_BYTES);
        }
        // 1. Retired-page layout: `slot_of` and `is_section` compute it
        // from the bitmap, so restoring the bitmap restores the layout.
        self.pool.retired.clone_from(&self.persist.retired);
        let retired_pages: Vec<PageId> = self
            .pool
            .retired
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| PageId::new(i as u64))
            .collect();
        report.blocks_scanned += retired_pages.len() as u64 * self.geo.blocks_per_page();
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::Layout,
            items: retired_pages.len() as u64,
        });
        // 2. Links from the persisted failed-block pointers; the inverse
        // table is their mirror image (the paper's §III-B scan).
        self.links.ptr.clear();
        self.links.inv.clear();
        let mut torn: Vec<u64> = Vec::new();
        let mut collisions: Vec<(Da, Da, Pa)> = Vec::new();
        for (da_idx, v) in self.persist.ptr.iter() {
            report.blocks_scanned += 1;
            let da = Da::new(da_idx);
            // `is_reserved`, spelled out: `self` is borrowed by the scan.
            let reserved = self.pool.retired[self.geo.page_of(v).as_usize()];
            if !self.device.is_dead(da) || !reserved {
                // Torn: a pointer whose grant (or whose block's death)
                // never committed. Discarded after the scan.
                torn.push(da_idx);
                continue;
            }
            self.links.ptr.insert(da_idx, v);
            report.links_recovered += 1;
            if let Some(prev) = self.links.inv.insert(v.index(), da) {
                collisions.push((prev, da, v));
            }
        }
        report.torn_links_dropped += torn.len() as u64;
        for da_idx in torn {
            self.persist.ptr.remove(da_idx);
        }
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::Links,
            items: report.links_recovered,
        });
        // 3. Each collision is a half-completed switch; complete it.
        for (c1, c2, v_dup) in collisions {
            self.repair_torn_switch(c1, c2, v_dup, &mut report);
        }
        report.inv_rebuilt = self.links.inv.len() as u64;
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::TornSwitches,
            items: report.torn_switch_repairs,
        });
        // 4. Spare pool: unclaimed shadow PAs of the retired pages.
        self.pool.spares.clear();
        for &page in &retired_pages {
            for v in self.shadow_pas(page) {
                if !self.links.inv.contains_key(v.index()) {
                    self.pool.spares.push_back(v);
                    report.spares_recovered += 1;
                }
            }
        }
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::SparePool,
            items: report.spares_recovered,
        });
        // 5. Heal unlinked software-accessible dead blocks. The candidates
        // are taken before the first heal, whose metadata write may kill
        // (and link) more blocks; a candidate linked on the way is
        // skipped, and no link is dropped in between.
        let unlinked: Vec<Da> = self
            .device
            .dead_set()
            .iter_not_in(&self.links.ptr)
            .map(Da::new)
            .collect();
        for da in unlinked {
            if self.links.ptr.contains_key(da.index()) {
                continue;
            }
            let Some(p) = self.safe_inverse(da) else {
                continue;
            };
            if self.is_reserved(p) {
                continue;
            }
            match self.take_spare() {
                Ok(v) => {
                    self.link(da, v);
                    report.healed_links += 1;
                }
                Err(_) => {
                    // No spare: the block stays in Theorem 2's
                    // undiscovered-failure state and heals on its next
                    // touch (or a later recovery with spares).
                    self.pool.undiscovered.insert(da.index());
                    report.unhealed_dead += 1;
                }
            }
        }
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::Heal,
            items: report.healed_links,
        });
        // 6. Replay the journal. This must precede the chain heal below:
        // a journaled migration line holds the *newest* data for its
        // target, and replaying it through `write_da` already re-links
        // and switches whatever the cut tore on that chain.
        self.mig_buf.clone_from(&self.persist.journal);
        report.migration_replays = self.mig_buf.len() as u64;
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::JournalReplay,
            items: report.migration_replays,
        });
        self.run_migrations();
        self.flush_meta();
        // 7. Collapse the two-step chains still left: a linked head whose
        // shadow block is dead but *unlinked* (the shadow's own link, or
        // the completing half of a switch, never committed — and no
        // journal line re-fed the chain). Failed blocks retain their last
        // good contents, so rewriting that tag through the ordinary write
        // path re-links the shadow, completes the switch, and lands the
        // data on a healthy block — the same repair `write_da` performs
        // online. With a dry spare pool the shadow parks as an
        // undiscovered failure instead (`take_spare_or_park`) and heals
        // on its next touch.
        //
        // The per-link loop runs only when some head qualifies, which is
        // asked from the shadow side (`torn_shadow_exists`). If none does,
        // the loop only skips: nothing it reads moves before its first
        // `write_da`.
        let mut collapsed = 0u64;
        if self.switching && !self.suspended && self.torn_shadow_exists() {
            let mut heads = Vec::with_capacity(self.links.ptr.len());
            heads.extend(self.links.ptr.keys());
            for da_idx in heads {
                let da = Da::new(da_idx);
                let Some(v) = self.links.ptr.get(da_idx) else {
                    continue;
                };
                let sda = self.wl.map(v);
                if sda == da
                    || !self.device.is_dead(sda)
                    || self.links.ptr.contains_key(sda.index())
                {
                    continue;
                }
                // Only software-accessible heads carry data worth saving;
                // a head behind a reserved PA shadows garbage.
                if self.safe_inverse(da).is_none_or(|p| self.is_reserved(p)) {
                    continue;
                }
                let tag = self.device.tag(sda);
                match self.write_da(da, tag, false) {
                    Ok(()) => {
                        report.healed_links += 1;
                        collapsed += 1;
                    }
                    Err(_) => report.unhealed_dead += 1,
                }
            }
            self.flush_meta();
        }
        self.emit(ReviverEvent::RecoveryStep {
            phase: RecoveryPhase::ChainCollapse,
            items: collapsed,
        });
        report.suspended = self.suspended;
        report.degraded |= self.degraded;
        self.emit(ReviverEvent::RecoveryCompleted {
            healed: report.healed_links,
            unhealed: report.unhealed_dead,
        });
        report
    }

    /// Whether some linked head's shadow block is dead and unlinked — the
    /// two-step chain step 7 of [`Self::recover`] collapses. Asked from the
    /// shadow side: every dead, unlinked block, the PA that maps to it,
    /// and whether a head links to that PA (`links.inv` mirrors
    /// `links.ptr`, as [`Self::assert_invariants`] checks).
    fn torn_shadow_exists(&self) -> bool {
        self.device
            .dead_set()
            .iter_not_in(&self.links.ptr)
            .any(|sda| {
                self.safe_inverse(Da::new(sda))
                    .is_some_and(|v| self.links.inv.contains_key(v.index()))
            })
    }

    /// Repairs a half-completed virtual-shadow switch found at recovery:
    /// claimants `c1` and `c2` both point at `v_dup` because the second
    /// pointer write of a [`Self::switch`] never committed. Switch pairs
    /// are always (chain head, its dead shadow), and the dead shadow's
    /// own PA is exactly the orphaned shadow the lost write should have
    /// installed — so the stale claimant is the one sitting behind an
    /// unclaimed reserved PA, and completing the switch re-points it
    /// there (the PA–DA loop the finished switch would have produced).
    fn repair_torn_switch(&mut self, c1: Da, c2: Da, v_dup: Pa, report: &mut RecoveryReport) {
        let orphan_of = |me: &Self, c: Da| -> Option<Pa> {
            let p = me.safe_inverse(c)?;
            (me.is_reserved(p) && !me.links.inv.contains_key(p.index()) && !me.is_section(p))
                .then_some(p)
        };
        let (stale, keeper, v_orph) = match (orphan_of(self, c1), orphan_of(self, c2)) {
            (Some(p), None) => (c1, c2, p),
            (None, Some(p)) => (c2, c1, p),
            (Some(p), Some(_)) => {
                // Both claimants sit behind unclaimed reserved PAs: the
                // torn state admits no certain repair. Pick one and flag
                // the uncertainty.
                report.degraded = true;
                (c1, c2, p)
            }
            (None, None) => {
                // No orphan found: drop one claimant's link. Its block
                // re-enters the undiscovered-failure path (Theorem 2) and
                // heals on the next touch.
                self.links.ptr.remove(c1.index());
                self.persist.ptr.remove(c1.index());
                self.links.inv.insert(v_dup.index(), c2);
                report.torn_links_dropped += 1;
                report.degraded = true;
                return;
            }
        };
        self.links.ptr.insert(stale.index(), v_orph);
        self.links.inv.insert(v_dup.index(), keeper);
        self.links.inv.insert(v_orph.index(), stale);
        self.commit_ptr(stale, v_orph);
        report.torn_switch_repairs += 1;
    }
}
