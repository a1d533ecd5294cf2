//! The failed-DA→PA link table (§III-B) and its pointer metadata.
//!
//! A failed block stores a pointer to its *virtual shadow* — a reserved
//! PA — plus a status bit; the table here is the in-SRAM image of those
//! stored pointers, its inverse (Figure 4's inverse pointers), and the
//! optional remap cache that hides the pointer-read cost. The linking
//! primitives ([`RevivedController::link`], `relink`, `switch`) keep the
//! durable mirror in sync through [`RevivedController::commit_ptr`] and
//! emit [`ReviverEvent`]s at every transition.

use super::events::ReviverEvent;
use super::RevivedController;
use crate::cache::RemapCache;
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Pa};
use wlr_pcm::{CrashPoint, WriteOutcome};
use wlr_wl::WearLeveler;

/// The failed-DA→virtual-shadow link table with its inverse image and
/// the remap cache over pointer resolutions.
#[derive(Debug, Clone)]
pub(super) struct LinkTable {
    /// failed DA → its virtual shadow PA (stored *in* the failed block on
    /// real hardware, plus a status bit).
    pub(super) ptr: DenseMap<Pa>,
    /// virtual shadow PA → failed DA (the inverse pointers of Figure 4).
    pub(super) inv: DenseMap<Da>,
    /// The remap cache over failed-DA→shadow-PA resolutions, if any.
    pub(super) cache: Option<RemapCache>,
}

impl RevivedController {
    /// Writes failed block `da`'s stored pointer, mirroring `v` into the
    /// persisted metadata iff the device write committed (a write the
    /// fault injector dropped leaves the durable pointer at its old
    /// value — the torn states recovery must untangle).
    pub(super) fn commit_ptr(&mut self, da: Da, v: Pa) {
        // A dead block stores no tag, so the tag written is immaterial.
        debug_assert!(self.device.is_dead(da), "only failed blocks hold pointers");
        if self.device.write_tagged(da, 0) != WriteOutcome::Lost {
            self.persist.ptr.insert(da.index(), v);
        }
    }

    /// Links failed block `da` to virtual shadow `v`.
    pub(super) fn link(&mut self, da: Da, v: Pa) {
        debug_assert!(self.device.is_dead(da), "only failed blocks are linked");
        self.pool.undiscovered.remove(da.index());
        self.links.ptr.insert(da.index(), v);
        self.links.inv.insert(v.index(), da);
        if let Some(c) = &mut self.links.cache {
            c.insert(da.index(), v.index());
        }
        // The pointer is written into the failed block itself (§III-B);
        // the block is dead so the write stores metadata, not data.
        if self.device.crash_point(CrashPoint::MidLink) {
            self.emit(ReviverEvent::PowerCut {
                at: CrashPoint::MidLink,
            });
        }
        self.commit_ptr(da, v);
        self.meta_write(v);
        self.emit(ReviverEvent::LinkCreated { da, shadow: v });
    }

    /// Replaces `da`'s virtual shadow `v_old` with a fresh one, returning
    /// the old PA to the spare pool (degenerate self-loop escape).
    pub(super) fn relink(&mut self, da: Da, v_new: Pa, v_old: Pa) {
        self.links.ptr.insert(da.index(), v_new);
        self.links.inv.remove(v_old.index());
        self.links.inv.insert(v_new.index(), da);
        self.pool.spares.push_back(v_old);
        if let Some(c) = &mut self.links.cache {
            c.insert(da.index(), v_new.index());
        }
        self.commit_ptr(da, v_new);
        self.meta_write(v_new);
        self.meta_write(v_old);
        self.emit(ReviverEvent::Relinked {
            da,
            shadow: v_new,
            freed: v_old,
        });
    }

    /// Switches the virtual shadows of two failed blocks (Figures 2(d)
    /// and 3(b)), restoring one-step chains and leaving one block on a
    /// PA–DA loop. The two pointer rewrites are not atomic: a power cut
    /// between them persists `d0`'s new pointer but not `d1`'s, leaving
    /// both blocks claiming the same shadow — the torn-switch state
    /// [`RevivedController::recover`] detects and repairs.
    pub(super) fn switch(&mut self, d0: Da, d1: Da) {
        let v0 = self.links.ptr.at(d0.index());
        let v1 = self.links.ptr.at(d1.index());
        self.links.ptr.insert(d0.index(), v1);
        self.links.ptr.insert(d1.index(), v0);
        self.links.inv.insert(v1.index(), d0);
        self.links.inv.insert(v0.index(), d1);
        if let Some(c) = &mut self.links.cache {
            c.insert(d0.index(), v1.index());
            c.insert(d1.index(), v0.index());
        }
        // Rewrite both stored pointers and both inverse pointers.
        self.commit_ptr(d0, v1);
        if self.device.crash_point(CrashPoint::MidSwitch) {
            self.emit(ReviverEvent::PowerCut {
                at: CrashPoint::MidSwitch,
            });
        }
        self.commit_ptr(d1, v0);
        self.meta_write(v0);
        self.meta_write(v1);
        self.emit(ReviverEvent::ChainSwitched {
            head: d0,
            dead_shadow: d1,
        });
        // One of the two now sits on a PA–DA loop (pure mapping check —
        // no device access).
        if self.wl.map(v1) == d0 {
            self.emit(ReviverEvent::LoopFormed { da: d0 });
        }
        if self.wl.map(v0) == d1 {
            self.emit(ReviverEvent::LoopFormed { da: d1 });
        }
    }

    /// Resolves the virtual shadow pointer of failed block `da`, through
    /// the cache when configured. A miss costs one PCM read (the pointer
    /// lives in the failed block).
    pub(super) fn resolve_ptr(&mut self, da: Da, acct: bool) -> Option<Pa> {
        if let Some(c) = &mut self.links.cache {
            if let Some(v) = c.get(da.index()) {
                return Some(Pa::new(v));
            }
        }
        let v = self.links.ptr.get(da.index());
        if let Some(v) = v {
            self.dev_read(da, acct); // pointer read
            if let Some(c) = &mut self.links.cache {
                c.insert(da.index(), v.index());
            }
        }
        v
    }

    // ----- inverse-pointer metadata (Figure 4) ------------------------

    /// Best-effort write of the inverse pointer for reserved PA `v` into
    /// its pointer-section block.
    ///
    /// Pointer-section blocks are ordinary PCM blocks: writing them can
    /// discover failures that need the full linking/repair machinery. But
    /// several reserved PAs share one section block, so a metadata write
    /// issued *while a chain repair is already in progress* could walk the
    /// very chain being repaired (re-entrancy). Metadata writes are
    /// therefore deferred onto a queue while any
    /// [`RevivedController::write_da`] frame is active and flushed at top
    /// level ([`RevivedController::flush_meta`]) — the hardware analogue
    /// being that pointer updates are posted writes. Exhaustion only
    /// bumps a counter: the paper notes inverse pointers are rebuildable
    /// by scanning.
    pub(super) fn meta_write(&mut self, v: Pa) {
        if self.in_write_da > 0 {
            self.pending_meta.push(v);
        } else {
            self.do_meta_write(v);
        }
    }

    pub(super) fn do_meta_write(&mut self, v: Pa) {
        let Some(slot) = self.slot_of(v) else {
            // `v` predates any grant (possible only in hand-built tests).
            self.emit(ReviverEvent::MetaSkipped { skipped: 1 });
            return;
        };
        let da = self.wl.map(slot);
        if self.write_da(da, 0, false).is_err() {
            self.emit(ReviverEvent::MetaSkipped { skipped: 1 });
        }
    }

    /// Drains deferred metadata writes. Called wherever no chain repair is
    /// in flight. Each flush round may enqueue more (its own links), but
    /// every link consumes a spare, so the loop terminates.
    #[inline]
    pub(super) fn flush_meta(&mut self) {
        if self.pending_meta.is_empty() && !self.check {
            return;
        }
        // Each flushed item can enqueue more (links consume spares,
        // repairs enqueue rewrites), so budget generously — and when the
        // budget runs out, give up on the remainder instead of failing:
        // inverse pointers are rebuildable by scanning (paper §III-B).
        let mut fuel =
            self.pending_meta.len() + 4 * (self.pool.spares.len() + self.links.ptr.len()) + 256;
        while let Some(v) = self.pending_meta.pop() {
            if fuel == 0 {
                let skipped = self.pending_meta.len() as u64 + 1;
                self.pending_meta.clear();
                self.emit(ReviverEvent::MetaSkipped { skipped });
                return;
            }
            fuel -= 1;
            self.do_meta_write(v);
        }
    }

    /// Reads the inverse-pointer block covering reserved PA `v`
    /// (accounting only; the simulator's `inv` map is authoritative).
    pub(super) fn meta_read(&mut self, v: Pa) {
        if let Some(slot) = self.slot_of(v) {
            let da = self.wl.map(slot);
            self.device.read(da);
        }
    }
}
