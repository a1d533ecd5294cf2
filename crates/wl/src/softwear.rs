//! SoftWear-style software-only page-sorting wear leveling.
//!
//! Unlike Start-Gap and Security Refresh — whose PA→DA mappings are
//! *algebraic* (start/gap registers, XOR keys) — SoftWear keeps an explicit
//! per-page indirection table, sorts pages by observed write counts, and
//! periodically swaps the hottest page into a cold frame. It is the
//! "software-only" corner of the design space: the mapping state is a
//! table the OS could keep in DRAM, no controller arithmetic required.
//!
//! The reproduction models it as an in-place scheme (`total_das == len`,
//! like Security Refresh) so it composes with the WL-Reviver framework
//! unmodified:
//!
//! * every serviced write bumps a per-PA epoch counter and a per-DA wear
//!   proxy counter;
//! * every `swap_interval` writes an epoch ends: the scheme arms a
//!   [`Migration::Swap`] between the epoch-hottest page's current frame
//!   and the least-worn frame found in a bounded rotating scan window
//!   (the rotation guarantees every frame is periodically considered
//!   without an O(n) sort per epoch);
//! * completing the swap exchanges the two table entries.
//!
//! Hot tracking uses a running arg-max and epoch-stamped counters, so
//! `record_write` is O(1); only the epoch-end cold scan touches
//! `scan_window` entries.

use crate::traits::{Migration, WearLeveler};
use wlr_base::{Da, Pa};

/// Builder for [`SoftWear`]; see [`SoftWear::builder`].
#[derive(Debug)]
pub struct SoftWearBuilder {
    len: u64,
    swap_interval: u64,
}

/// Frames examined per cold scan (clamped to the space).
const SCAN_WINDOW: u64 = 16;

impl SoftWearBuilder {
    /// Serviced writes between successive hot↔cold swaps (default 100).
    pub fn swap_interval(mut self, interval: u64) -> Self {
        self.swap_interval = interval;
        self
    }

    /// Builds the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the space or the swap interval is zero.
    pub fn build(self) -> SoftWear {
        assert!(self.len > 0, "SoftWear needs a nonzero PA space");
        assert!(self.swap_interval > 0, "swap interval must be nonzero");
        let n = self.len as usize;
        SoftWear {
            len: self.len,
            swap_interval: self.swap_interval,
            scan_window: SCAN_WINDOW.min(self.len),
            table: (0..self.len).collect(),
            inverse: (0..self.len).collect(),
            wear: vec![0; n],
            epoch_counts: vec![0; n],
            epoch_stamp: vec![0; n],
            epoch_id: 1,
            writes_since_swap: 0,
            hot_pa: 0,
            hot_count: 0,
            cursor: 0,
            debt: 0,
            armed: None,
        }
    }
}

/// The SoftWear scheme. See the module docs for the algorithm.
///
/// ```
/// use wlr_base::Pa;
/// use wlr_wl::{SoftWear, WearLeveler};
///
/// let mut wl = SoftWear::builder(64).swap_interval(4).build();
/// let da = wl.map(Pa::new(3));
/// assert_eq!(wl.inverse(da), Some(Pa::new(3)));
/// for _ in 0..4 {
///     wl.record_write(Pa::new(3));
/// }
/// assert!(matches!(wl.pending(), Some(wlr_wl::Migration::Swap { .. })));
/// wl.complete_migration();
/// ```
#[derive(Debug, Clone)]
pub struct SoftWear {
    len: u64,
    swap_interval: u64,
    scan_window: u64,
    /// PA → DA indirection table (the defining SoftWear state).
    table: Vec<u64>,
    /// DA → PA inverse of `table`.
    inverse: Vec<u64>,
    /// Per-DA software writes absorbed (wear proxy for the cold scan).
    wear: Vec<u64>,
    /// Per-PA writes within the current epoch, valid iff the stamp matches.
    epoch_counts: Vec<u64>,
    epoch_stamp: Vec<u32>,
    epoch_id: u32,
    writes_since_swap: u64,
    /// Running arg-max of `epoch_counts` within the current epoch.
    hot_pa: u64,
    hot_count: u64,
    /// Rotating start of the next cold scan.
    cursor: u64,
    /// Swaps owed (armed-or-awaiting), including the one in `armed`.
    debt: u64,
    armed: Option<(Da, Da)>,
}

impl SoftWear {
    /// Starts building a SoftWear instance over `len` physical addresses.
    pub fn builder(len: u64) -> SoftWearBuilder {
        SoftWearBuilder {
            len,
            swap_interval: 100,
        }
    }

    /// Writes between successive swaps.
    pub fn swap_interval(&self) -> u64 {
        self.swap_interval
    }

    fn note_write(&mut self, pa: Pa) {
        let i = pa.index() as usize;
        self.wear[self.table[i] as usize] += 1;
        if self.epoch_stamp[i] != self.epoch_id {
            self.epoch_stamp[i] = self.epoch_id;
            self.epoch_counts[i] = 0;
        }
        self.epoch_counts[i] += 1;
        if self.epoch_counts[i] > self.hot_count {
            self.hot_count = self.epoch_counts[i];
            self.hot_pa = pa.index();
        }
        self.writes_since_swap += 1;
    }

    /// Picks the next hot↔cold swap and starts a fresh epoch. Returns
    /// `None` when the space is too small or the hot page already sits on
    /// the coldest frame in the window.
    fn pick_swap(&mut self) -> Option<(Da, Da)> {
        let hot_da = self.table[self.hot_pa as usize];
        // Bounded rotating scan for the least-worn frame.
        let mut cold_da = None;
        let mut cold_wear = u64::MAX;
        for step in 0..self.scan_window {
            let da = (self.cursor + step) % self.len;
            if da == hot_da {
                continue;
            }
            if self.wear[da as usize] < cold_wear {
                cold_wear = self.wear[da as usize];
                cold_da = Some(da);
            }
        }
        self.cursor = (self.cursor + self.scan_window) % self.len;
        // New epoch: stale stamps make all counters read as zero.
        self.epoch_id = self.epoch_id.wrapping_add(1);
        if self.epoch_id == 0 {
            // Guard the stamp trick across u32 wraparound.
            self.epoch_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch_id = 1;
        }
        self.hot_count = 0;
        // Swapping onto an equally-or-more-worn frame is pointless; it
        // can only happen when the whole window is hotter than the hot
        // page's own frame, in which case skipping is the right move.
        cold_da
            .filter(|&c| self.wear[c as usize] < self.wear[hot_da as usize])
            .map(|c| (Da::new(hot_da), Da::new(c)))
    }

    fn arm_next(&mut self) {
        while self.debt > 0 {
            if let Some(pair) = self.pick_swap() {
                self.armed = Some(pair);
                return;
            }
            self.debt -= 1; // degenerate epoch: forgive the swap
        }
    }
}

impl WearLeveler for SoftWear {
    fn len(&self) -> u64 {
        self.len
    }

    fn total_das(&self) -> u64 {
        self.len
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        assert!(pa.index() < self.len, "{pa} outside PA space {}", self.len);
        Da::new(self.table[pa.index() as usize])
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        assert!(da.index() < self.len, "{da} outside DA space {}", self.len);
        Some(Pa::new(self.inverse[da.index() as usize]))
    }

    fn record_write(&mut self, pa: Pa) {
        self.note_write(pa);
        if self.writes_since_swap >= self.swap_interval {
            self.writes_since_swap = 0;
            if self.len > 1 {
                self.debt += 1;
                if self.armed.is_none() {
                    self.arm_next();
                }
            }
        }
    }

    fn record_write_fast(&mut self, pa: Pa) -> bool {
        if self.armed.is_some() || self.debt > 0 || self.writes_since_swap + 1 >= self.swap_interval
        {
            return false;
        }
        self.note_write(pa);
        true
    }

    fn pending(&self) -> Option<Migration> {
        self.armed.map(|(a, b)| Migration::Swap { a, b })
    }

    fn complete_migration(&mut self) {
        let (a, b) = self
            .armed
            .take()
            .expect("complete_migration without a pending one");
        let pa_a = self.inverse[a.index() as usize];
        let pa_b = self.inverse[b.index() as usize];
        self.table[pa_a as usize] = b.index();
        self.table[pa_b as usize] = a.index();
        self.inverse[a.index() as usize] = pa_b;
        self.inverse[b.index() as usize] = pa_a;
        self.debt -= 1;
        self.arm_next();
    }

    fn label(&self) -> String {
        "SoftWear".to_string()
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obeys_every_law() {
        crate::laws::leveler_laws(
            |n| SoftWear::builder(n).swap_interval(crate::laws::PSI).build(),
            // No bound: swaps follow wear imbalance, and round-robin writes
            // leave none, so at N = 3, 24 and 48 some blocks are never a
            // migration target (where it rotates, the worst wait is 5N).
            |_| None,
        );
    }

    #[test]
    fn swap_interval_pacing() {
        let mut wl = SoftWear::builder(16).swap_interval(10).build();
        for _ in 0..9 {
            wl.record_write(Pa::new(0));
        }
        assert!(wl.pending().is_none());
        wl.record_write(Pa::new(0));
        assert!(wl.pending().is_some());
    }

    #[test]
    fn hot_page_is_relocated() {
        // Hammer PA 0: over many epochs its frame must keep changing —
        // the defining page-sorting behavior.
        let mut wl = SoftWear::builder(64).swap_interval(4).build();
        let mut frames = std::collections::HashSet::new();
        for i in 0..400u64 {
            let pa = if i % 4 == 3 {
                Pa::new(1 + i % 32)
            } else {
                Pa::new(0)
            };
            wl.record_write(pa);
            while wl.pending().is_some() {
                wl.complete_migration();
            }
            frames.insert(wl.map(Pa::new(0)).index());
        }
        assert!(
            frames.len() > 8,
            "hot page should rotate through many frames, got {}",
            frames.len()
        );
    }

    #[test]
    fn cold_scan_prefers_least_worn_frame() {
        let mut wl = SoftWear::builder(8).swap_interval(4).build();
        // Wear frames 0..4 heavily via their identity-mapped PAs, but keep
        // PA 0 hottest; frames 4..8 stay cold.
        for _ in 0..4 {
            wl.record_write(Pa::new(0));
        }
        let m = wl.pending().expect("epoch should arm a swap");
        if let Migration::Swap { a, b } = m {
            assert_eq!(a, Da::new(0), "hot side must be PA 0's frame");
            assert!(b.index() >= 1, "cold side must be an untouched frame");
        }
    }

    #[test]
    fn single_block_space_degenerates_gracefully() {
        let mut wl = SoftWear::builder(1).swap_interval(1).build();
        for _ in 0..10 {
            wl.record_write(Pa::new(0));
        }
        assert!(wl.pending().is_none(), "1-block spaces never migrate");
        assert_eq!(wl.map(Pa::new(0)), Da::new(0));
    }

    #[test]
    fn deferred_swaps_accumulate_as_debt() {
        let mut wl = SoftWear::builder(16).swap_interval(2).build();
        // Three epochs without completing anything.
        for i in 0..6 {
            wl.record_write(Pa::new(i % 3));
        }
        assert!(wl.pending().is_some());
        let mut completed = 0;
        while wl.pending().is_some() {
            wl.complete_migration();
            completed += 1;
        }
        assert!(completed >= 2, "deferred epochs owe swaps, got {completed}");
    }

    #[test]
    fn label_and_sizes() {
        let wl = SoftWear::builder(64).build();
        assert_eq!(wl.label(), "SoftWear");
        assert_eq!(wl.len(), 64);
        assert_eq!(wl.total_das(), 64);
        assert_eq!(wl.swap_interval(), 100);
    }
}
