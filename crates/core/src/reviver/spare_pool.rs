//! Reactive spare-space acquisition (§III-A) and the retired-page
//! layout.
//!
//! Reserved PAs come from OS pages retired through the standard
//! access-error exception. The pool holds the unlinked PAs (the
//! current/last registers of §III-A, generalized to a queue across
//! multiple retired pages). The layout that splits each retired page
//! into shadow PAs plus trailing pointer-section blocks (Figure 4) is
//! arithmetic on the retired-page bitmap — [`RevivedController::slot_of`]
//! and [`RevivedController::is_section`] — so it has no table to store,
//! fork or rebuild. When the pool runs dry mid-operation, the dead block
//! *parks* in Theorem 2's undiscovered-failure state instead of linking.

use super::events::ReviverEvent;
use super::RevivedController;
use crate::error::ReviverError;
use std::collections::VecDeque;
use wlr_base::dense::DenseSet;
use wlr_base::{Pa, PageId};

/// Spare-PA acquisition state and the retired-page layout.
#[derive(Debug, Clone)]
pub(super) struct SparePool {
    /// Unlinked reserved PAs (the current/last registers of §III-A,
    /// generalized to a queue across multiple retired pages).
    pub(super) spares: VecDeque<Pa>,
    /// Shadow PAs per retired page: its first `shadows` PAs; the rest is
    /// its pointer section. A pure function of geometry and pointer
    /// width, so recovery re-derives the layout from the bitmap alone.
    pub(super) shadows: u64,
    /// Inverse pointers per pointer-section block.
    pub(super) ptrs_per_block: u64,
    /// Retired-page bitmap (§III-A; persisted across reboots on hardware).
    pub(super) retired: Vec<bool>,
    /// Dead blocks the controller legitimately does not know about yet —
    /// Theorem 2's "undiscovered failure" state: injected failures not
    /// yet touched, and blocks recovery could not heal for lack of
    /// spares. Exempt from the Theorem 1 reachability invariant; cleared
    /// when the block gets linked.
    pub(super) undiscovered: DenseSet,
}

impl RevivedController {
    /// The pointer-section PA whose block holds shadow PA `v`'s inverse
    /// pointer; `None` unless `v` is a shadow PA of a retired page.
    #[inline]
    pub(super) fn slot_of(&self, v: Pa) -> Option<Pa> {
        let (page, offset) = self.geo.page_split(v.index());
        let pool = &self.pool;
        (pool.retired[page as usize] && offset < pool.shadows)
            .then(|| Pa::new(v.index() - offset + pool.shadows + offset / pool.ptrs_per_block))
    }

    /// Whether `v` is a pointer-section PA of a retired page.
    #[inline]
    pub(super) fn is_section(&self, v: Pa) -> bool {
        let (page, offset) = self.geo.page_split(v.index());
        self.pool.retired[page as usize] && offset >= self.pool.shadows
    }

    /// The shadow PAs `page` grants once retired, in ascending order.
    pub(super) fn shadow_pas(&self, page: PageId) -> impl Iterator<Item = Pa> {
        self.geo.page_pas(page).take(self.pool.shadows as usize)
    }

    pub(super) fn take_spare(&mut self) -> Result<Pa, ReviverError> {
        match self.pool.spares.pop_front() {
            Some(v) => {
                self.emit(ReviverEvent::SpareAcquired { shadow: v });
                Ok(v)
            }
            None => Err(ReviverError::NeedSpare),
        }
    }

    /// [`Self::take_spare`], but when the pool is dry the dead block the
    /// spare was meant to link parks in Theorem 2's undiscovered-failure
    /// state (it is discovered but *unlinked*, which is structurally the
    /// same thing: the chain heals on the next touch after a grant, and
    /// [`RevivedController::link`] lifts the mark).
    pub(super) fn take_spare_or_park(&mut self, dead: wlr_base::Da) -> Result<Pa, ReviverError> {
        match self.take_spare() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.pool.undiscovered.insert(dead.index());
                self.emit(ReviverEvent::SpareParked { dead });
                Err(e)
            }
        }
    }
}
