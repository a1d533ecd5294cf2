//! Security Refresh wear leveling (Seong et al., ISCA'10).
//!
//! The address space is split into regions of `2^m` blocks. Each region
//! keeps two random XOR keys — `k0` from the previous *round* and `k1`
//! from the current one — plus a refresh pointer `rp`. A region-local
//! sub-address `d` maps to:
//!
//! ```text
//! d ^ k1   if d has been refreshed this round
//! d ^ k0   otherwise
//! ```
//!
//! Refreshing sub-address `r` swaps the two *physical* blocks `r ^ k0` and
//! `r ^ k1`; because `q = r ^ k0 ^ k1` is the logical partner whose old
//! and new positions are the same pair, one swap refreshes both `r` and
//! `q`, and `d` counts as refreshed iff `min(d, d ^ k0 ^ k1) < rp`. When
//! `rp` sweeps past the region, the round ends: `k0 ← k1` and a fresh
//! random `k1` is drawn.
//!
//! One refresh (one swap) is armed per `refresh_interval` writes serviced
//! in the region. The swap is emitted as [`Migration::Swap`]; data is
//! exchanged in place, which is the "implicit buffer" Theorem 3 of the
//! WL-Reviver paper refers to.

use crate::traits::{outside, Migration, WearLeveler};
use wlr_base::rng::Rng;
use wlr_base::{Da, Pa};

/// Builder for [`SecurityRefresh`]; see [`SecurityRefresh::builder`].
#[derive(Debug)]
pub struct SecurityRefreshBuilder {
    len: u64,
    region_blocks: u64,
    refresh_interval: u64,
    seed: u64,
}

impl SecurityRefreshBuilder {
    /// Region size in blocks; must be a power of two dividing the space
    /// (default: the largest such power, so a space of `2^k` blocks is one
    /// region and a space of 24 is three regions of 8).
    pub fn region_blocks(mut self, blocks: u64) -> Self {
        self.region_blocks = blocks;
        self
    }

    /// Writes to a region between successive refresh swaps (default 100).
    pub fn refresh_interval(mut self, interval: u64) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty, the region size is not a power of two,
    /// the space is not a whole number of regions, or the interval is zero.
    pub fn build(self) -> SecurityRefresh {
        assert!(self.len > 0, "Security Refresh needs a nonzero PA space");
        assert!(
            self.region_blocks.is_power_of_two(),
            "region size must be a power of two (got {})",
            self.region_blocks
        );
        assert!(
            self.len.is_multiple_of(self.region_blocks),
            "PA space {} is not a whole number of {}-block regions",
            self.len,
            self.region_blocks
        );
        assert!(
            self.refresh_interval > 0,
            "refresh interval must be nonzero"
        );
        let num_regions = self.len / self.region_blocks;
        let mut rng = Rng::stream(self.seed, 0x5EC5);
        let mut regions = Vec::with_capacity(num_regions as usize);
        for _ in 0..num_regions {
            let mut region = Region {
                k0: 0,
                k1: 0,
                rp: self.region_blocks, // previous round "complete"
                writes: 0,
                debt: 0,
            };
            region.rotate(self.region_blocks, &mut rng);
            regions.push(region);
        }
        SecurityRefresh {
            len: self.len,
            shift: self.region_blocks.trailing_zeros(),
            mask: self.region_blocks - 1,
            refresh_interval: self.refresh_interval,
            regions,
            indebted: 0,
            rng,
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    k0: u64,
    k1: u64,
    /// Next sub-address to refresh; invariant: either `rp == region_blocks`
    /// (round finished) or `rp` points at a swappable sub-address
    /// (`rp < rp ^ (k0 ^ k1)`).
    rp: u64,
    writes: u64,
    debt: u64,
}

impl Region {
    fn delta(&self) -> u64 {
        self.k0 ^ self.k1
    }

    /// Has region-local sub-address `d` been refreshed this round?
    #[inline]
    fn refreshed(&self, d: u64) -> bool {
        d.min(d ^ self.delta()) < self.rp
    }

    /// Skips sub-addresses already covered as partners of earlier swaps.
    fn skip_done(&mut self, region_blocks: u64) {
        while self.rp < region_blocks && (self.rp ^ self.delta()) < self.rp {
            self.rp += 1;
        }
    }

    /// Begins a new round: the current key becomes the old key and a fresh
    /// nonzero-delta key is drawn.
    fn rotate(&mut self, region_blocks: u64, rng: &mut Rng) {
        self.k0 = self.k1;
        // Retry until the new key differs from the old one (delta = 0 would
        // make the round a no-op that never terminates when region_blocks
        // is 1, and is a degenerate remap otherwise). For 1-block regions
        // the only key is 0, so accept it and finish rounds trivially.
        if region_blocks == 1 {
            self.k1 = 0;
            self.rp = 0;
            self.skip_done(region_blocks);
            if self.rp == 0 && region_blocks == 1 {
                self.rp = 1; // round trivially complete
            }
            return;
        }
        loop {
            let candidate = rng.gen_range(region_blocks);
            if candidate != self.k0 {
                self.k1 = candidate;
                break;
            }
        }
        self.rp = 0;
        self.skip_done(region_blocks);
    }

    /// Advances past the just-completed swap at `rp`; rotates keys when the
    /// round finishes.
    fn advance(&mut self, region_blocks: u64, rng: &mut Rng) {
        self.rp += 1;
        self.skip_done(region_blocks);
        if self.rp >= region_blocks {
            self.rotate(region_blocks, rng);
        }
    }
}

/// The Security Refresh scheme. See the module docs for the algorithm.
///
/// ```
/// use wlr_base::Pa;
/// use wlr_wl::{SecurityRefresh, WearLeveler};
///
/// let mut wl = SecurityRefresh::builder(64)
///     .region_blocks(16)
///     .refresh_interval(4)
///     .seed(1)
///     .build();
/// let da = wl.map(Pa::new(3));
/// assert_eq!(wl.inverse(da), Some(Pa::new(3)));
/// for _ in 0..4 {
///     wl.record_write(Pa::new(3));
/// }
/// assert!(matches!(wl.pending(), Some(wlr_wl::Migration::Swap { .. })));
/// wl.complete_migration();
/// ```
#[derive(Debug, Clone)]
pub struct SecurityRefresh {
    len: u64,
    /// An address splits into region (`x >> shift`) and sub-address
    /// (`x & mask`) without a divide: the region size is `mask + 1 =
    /// 2^shift`.
    shift: u32,
    mask: u64,
    refresh_interval: u64,
    regions: Vec<Region>,
    /// Regions with `debt > 0`, so that "nothing is owed" — the answer on
    /// almost every write — needs no scan.
    indebted: usize,
    rng: Rng,
}

impl SecurityRefresh {
    /// Starts building a Security Refresh instance over `len` physical
    /// addresses.
    pub fn builder(len: u64) -> SecurityRefreshBuilder {
        SecurityRefreshBuilder {
            len,
            region_blocks: len & len.wrapping_neg(),
            refresh_interval: 100,
            seed: 0,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> u64 {
        self.regions.len() as u64
    }

    /// Region size in blocks.
    pub fn region_blocks(&self) -> u64 {
        self.mask + 1
    }

    /// The index of the region holding address `x`.
    #[inline]
    fn region_of(&self, x: u64) -> usize {
        (x >> self.shift) as usize
    }

    fn first_indebted(&self) -> Option<usize> {
        if self.indebted == 0 {
            return None;
        }
        self.regions.iter().position(|r| r.debt > 0)
    }
}

impl WearLeveler for SecurityRefresh {
    fn len(&self) -> u64 {
        self.len
    }

    fn total_das(&self) -> u64 {
        self.len
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        // An address outside the space has no region.
        let r = self.regions.get(self.region_of(pa.index()));
        let r = r.unwrap_or_else(|| outside(pa, "PA", self.len));
        let sub = pa.index() & self.mask;
        let key = if r.refreshed(sub) { r.k1 } else { r.k0 };
        // A key is a sub-address, so the XOR leaves the region bits alone.
        Da::new(pa.index() ^ key)
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        let r = self.regions.get(self.region_of(da.index()));
        let r = r.unwrap_or_else(|| outside(da, "DA", self.len));
        let dsub = da.index() & self.mask;
        // The two candidates are refresh partners, so exactly one branch
        // is consistent (see module docs).
        let key = if r.refreshed(dsub ^ r.k1) { r.k1 } else { r.k0 };
        Some(Pa::new(da.index() ^ key))
    }

    fn record_write(&mut self, pa: Pa) {
        let region = self.region_of(pa.index());
        let r = &mut self.regions[region];
        r.writes += 1;
        if r.writes >= self.refresh_interval {
            r.writes = 0;
            // A fully-degenerate region (single block) has nothing to swap.
            if self.shift > 0 {
                self.indebted += usize::from(r.debt == 0);
                r.debt += 1;
            }
        }
    }

    #[inline]
    fn record_write_fast(&mut self, pa: Pa) -> bool {
        // Fast only when no region owes a swap and this write does not
        // complete its own region's interval: `pending()` stays `None`
        // across the recording.
        let region = self.region_of(pa.index());
        let r = &mut self.regions[region];
        if self.indebted != 0 || r.writes + 1 >= self.refresh_interval {
            return false;
        }
        r.writes += 1;
        true
    }

    fn pending(&self) -> Option<Migration> {
        let idx = self.first_indebted()?;
        let r = &self.regions[idx];
        debug_assert!(r.rp < self.region_blocks(), "rp invariant violated");
        let base = (idx as u64) << self.shift;
        Some(Migration::Swap {
            a: Da::new(base + (r.rp ^ r.k0)),
            b: Da::new(base + (r.rp ^ r.k1)),
        })
    }

    fn complete_migration(&mut self) {
        let idx = self
            .first_indebted()
            .expect("complete_migration without a pending one");
        let region_blocks = self.region_blocks();
        let r = &mut self.regions[idx];
        r.debt -= 1;
        self.indebted -= usize::from(r.debt == 0);
        r.advance(region_blocks, &mut self.rng);
    }

    fn label(&self) -> String {
        "Security-Refresh".to_string()
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
            |n| {
                SecurityRefresh::builder(n)
                    .region_blocks(n & n.wrapping_neg())
                    .refresh_interval(crate::laws::PSI)
                    .seed(7)
                    .build()
            },
            // A round swaps each block of an R-block region once, so a
            // block waits at most R - 1 swaps: ψ(R - 1) writes to its
            // region, which round-robin delivers R per sweep of N. A
            // one-block region (odd N) never swaps.
            |n| (n % 2 == 0).then_some((crate::laws::PSI + 1) * n),
        );
    }

    #[test]
    fn refresh_interval_pacing() {
        let mut wl = SecurityRefresh::builder(16)
            .region_blocks(16)
            .refresh_interval(10)
            .seed(3)
            .build();
        for _ in 0..9 {
            wl.record_write(Pa::new(0));
        }
        assert!(wl.pending().is_none());
        wl.record_write(Pa::new(0));
        assert!(wl.pending().is_some());
    }

    #[test]
    fn regions_track_their_own_writes() {
        let mut wl = SecurityRefresh::builder(32)
            .region_blocks(16)
            .refresh_interval(10)
            .seed(3)
            .build();
        // 9 writes to region 0, 9 to region 1: neither trips.
        for _ in 0..9 {
            wl.record_write(Pa::new(0));
            wl.record_write(Pa::new(16));
        }
        assert!(wl.pending().is_none());
        // The 10th write to region 1 only trips region 1.
        wl.record_write(Pa::new(16));
        let m = wl.pending().expect("region 1 should arm");
        if let Migration::Swap { a, b } = m {
            assert!(a.index() >= 16 && b.index() >= 16, "swap in wrong region");
        }
    }

    #[test]
    fn pending_tracks_the_indebted_count() {
        let mut wl = SecurityRefresh::builder(64)
            .region_blocks(16)
            .refresh_interval(2)
            .seed(4)
            .build();
        // Run up debt in three regions, two swaps deep in one of them.
        for pa in [0, 0, 0, 0, 20, 20, 40, 40] {
            wl.record_write(Pa::new(pa));
        }
        let mut swaps = 0;
        while wl.pending().is_some() {
            wl.complete_migration();
            swaps += 1;
        }
        assert_eq!(swaps, 4);
        assert_eq!(wl.indebted, 0);
        assert!(wl.regions.iter().all(|r| r.debt == 0));
    }

    #[test]
    fn single_block_regions_degenerate_gracefully() {
        let mut wl = SecurityRefresh::builder(4)
            .region_blocks(1)
            .refresh_interval(1)
            .seed(1)
            .build();
        for pa in 0..4 {
            assert_eq!(wl.map(Pa::new(pa)), Da::new(pa));
        }
        for _ in 0..10 {
            wl.record_write(Pa::new(0));
        }
        assert!(wl.pending().is_none(), "1-block regions never migrate");
    }

    #[test]
    fn default_regions_divide_any_size() {
        for (n, region) in [(24, 8), (100, 4), (64, 64)] {
            let wl = SecurityRefresh::builder(n).build();
            assert_eq!(wl.region_blocks(), region, "(n = {n})");
            assert_eq!(wl.num_regions() * region, n, "(n = {n})");
            for pa in 0..n {
                assert_eq!(wl.inverse(wl.map(Pa::new(pa))), Some(Pa::new(pa)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_region_panics() {
        SecurityRefresh::builder(12).region_blocks(12).build();
    }

    #[test]
    fn label_and_sizes() {
        let wl = SecurityRefresh::builder(64).region_blocks(16).build();
        assert_eq!(wl.label(), "Security-Refresh");
        assert_eq!(wl.len(), 64);
        assert_eq!(wl.total_das(), 64);
        assert_eq!(wl.region_blocks(), 16);
        assert_eq!(wl.num_regions(), 4);
    }
}
