//! Region-tiled Start-Gap — the configuration the Start-Gap paper
//! actually deploys at scale.
//!
//! A single gap line serving 2²⁴ blocks rotates too slowly to level
//! anything; Qureshi et al. therefore split memory into regions of a few
//! hundred lines, each with its own gap and start registers, behind one
//! *global* static randomizer that scatters hot addresses across regions.
//! [`TiledStartGap`] reproduces that: `tiles` independent [`StartGap`]
//! instances over a shared [`AddressRandomizer`], costing one gap line
//! per tile.
//!
//! Device layout: tile `t` owns the contiguous DA range
//! `[t·(tile+1), (t+1)·(tile+1))` — `tile` data lines plus its gap line —
//! so `total_das = len + tiles`.

use crate::randomizer::{AddressRandomizer, RandomizerKind};
use crate::start_gap::StartGap;
use crate::traits::{Migration, WearLeveler};
use wlr_base::{Da, Pa};

/// Builder for [`TiledStartGap`]; see [`TiledStartGap::builder`].
#[derive(Debug)]
pub struct TiledStartGapBuilder {
    len: u64,
    tiles: u64,
    gap_interval: u64,
    randomizer: RandomizerKind,
}

impl TiledStartGapBuilder {
    /// Number of tiles (default 16). Must divide the PA-space size.
    pub fn tiles(mut self, tiles: u64) -> Self {
        self.tiles = tiles;
        self
    }

    /// Writes per gap movement *per tile* (the paper's ψ, default 100).
    pub fn gap_interval(mut self, psi: u64) -> Self {
        self.gap_interval = psi;
        self
    }

    /// The global randomization layer (default Feistel, seed 0).
    pub fn randomizer(mut self, kind: RandomizerKind) -> Self {
        self.randomizer = kind;
        self
    }

    /// Builds the scheme.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero or does not divide the space, or under
    /// [`StartGap`]'s builder conditions.
    pub fn build(self) -> TiledStartGap {
        assert!(self.tiles > 0, "need at least one tile");
        assert_eq!(
            self.len % self.tiles,
            0,
            "PA space {} is not a whole number of {} tiles",
            self.len,
            self.tiles
        );
        let tile_len = self.len / self.tiles;
        let tiles = (0..self.tiles)
            .map(|_| {
                StartGap::builder(tile_len)
                    .gap_interval(self.gap_interval)
                    // Tiles are identity inside: the global randomizer
                    // already scattered the addresses.
                    .randomizer(RandomizerKind::Identity)
                    .build()
            })
            .collect();
        TiledStartGap {
            len: self.len,
            tile_len,
            tiles,
            randomizer: self.randomizer.build(self.len),
            rr_cursor: 0,
            indebted: 0,
        }
    }
}

/// Start-Gap tiled into independently-rotating regions behind one global
/// randomizer (see module docs).
///
/// ```
/// use wlr_base::Pa;
/// use wlr_wl::{RandomizerKind, TiledStartGap, WearLeveler};
///
/// let mut wl = TiledStartGap::builder(1024)
///     .tiles(8)
///     .gap_interval(10)
///     .randomizer(RandomizerKind::Feistel { seed: 3 })
///     .build();
/// assert_eq!(wl.total_das(), 1024 + 8); // one gap line per tile
/// let da = wl.map(Pa::new(5));
/// assert_eq!(wl.inverse(da), Some(Pa::new(5)));
/// for _ in 0..10 { wl.record_write(Pa::new(5)); }
/// assert!(wl.pending().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TiledStartGap {
    len: u64,
    tile_len: u64,
    tiles: Vec<StartGap>,
    randomizer: Box<dyn AddressRandomizer>,
    /// Round-robin scan start for serving indebted tiles fairly.
    rr_cursor: usize,
    /// Tiles owing a gap movement, so that "nothing is owed" — the answer
    /// on almost every write — needs no scan.
    indebted: usize,
}

impl TiledStartGap {
    /// Starts building a tiled Start-Gap over `len` physical addresses.
    pub fn builder(len: u64) -> TiledStartGapBuilder {
        TiledStartGapBuilder {
            len,
            tiles: 16,
            gap_interval: 100,
            randomizer: RandomizerKind::Feistel { seed: 0 },
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> u64 {
        self.tiles.len() as u64
    }

    #[inline]
    fn split(&self, ra: u64) -> (usize, u64) {
        ((ra / self.tile_len) as usize, ra % self.tile_len)
    }

    /// DA base of tile `t` (each tile owns `tile_len + 1` device blocks).
    #[inline]
    fn tile_base(&self, t: usize) -> u64 {
        t as u64 * (self.tile_len + 1)
    }

    fn first_indebted(&self) -> Option<usize> {
        if self.indebted == 0 {
            return None;
        }
        (self.rr_cursor..self.tiles.len())
            .chain(0..self.rr_cursor)
            .find(|&t| self.tiles[t].debt() > 0)
    }
}

impl WearLeveler for TiledStartGap {
    fn len(&self) -> u64 {
        self.len
    }

    fn total_das(&self) -> u64 {
        self.len + self.tiles.len() as u64
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        assert!(pa.index() < self.len, "{pa} outside PA space {}", self.len);
        let ra = self.randomizer.forward(pa.index());
        let (t, local) = self.split(ra);
        let local_da = self.tiles[t].map(Pa::new(local));
        Da::new(self.tile_base(t) + local_da.index())
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        assert!(
            da.index() < self.total_das(),
            "{da} outside DA space {}",
            self.total_das()
        );
        let t = (da.index() / (self.tile_len + 1)) as usize;
        let local_da = da.index() % (self.tile_len + 1);
        let local_pa = self.tiles[t].inverse(Da::new(local_da))?;
        let ra = t as u64 * self.tile_len + local_pa.index();
        Some(Pa::new(self.randomizer.backward(ra)))
    }

    fn record_write(&mut self, pa: Pa) {
        let ra = self.randomizer.forward(pa.index());
        let (t, local) = self.split(ra);
        let owed = self.tiles[t].debt() > 0;
        self.tiles[t].record_write(Pa::new(local));
        self.indebted += usize::from(!owed && self.tiles[t].debt() > 0);
    }

    #[inline]
    fn record_write_fast(&mut self, pa: Pa) -> bool {
        // Another tile's debt keeps `pending()` at `Some` whatever this
        // write's own tile answers.
        if self.indebted != 0 {
            return false;
        }
        let ra = self.randomizer.forward(pa.index());
        let (t, local) = self.split(ra);
        self.tiles[t].record_write_fast(Pa::new(local))
    }

    fn pending(&self) -> Option<Migration> {
        let t = self.first_indebted()?;
        let base = self.tile_base(t);
        match self.tiles[t].pending()? {
            Migration::Copy { src, dst } => Some(Migration::Copy {
                src: Da::new(base + src.index()),
                dst: Da::new(base + dst.index()),
            }),
            Migration::Swap { a, b } => Some(Migration::Swap {
                a: Da::new(base + a.index()),
                b: Da::new(base + b.index()),
            }),
        }
    }

    fn complete_migration(&mut self) {
        let t = self
            .first_indebted()
            .expect("complete_migration without a pending one");
        self.tiles[t].complete_migration();
        self.indebted -= usize::from(self.tiles[t].debt() == 0);
        self.rr_cursor = (t + 1) % self.tiles.len();
    }

    fn label(&self) -> String {
        format!("Start-Gap[{}]", self.tiles.len())
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(len: u64, tiles: u64, psi: u64) -> TiledStartGap {
        TiledStartGap::builder(len)
            .tiles(tiles)
            .gap_interval(psi)
            .randomizer(RandomizerKind::Feistel { seed: 9 })
            .build()
    }

    #[test]
    fn obeys_every_law() {
        let psi = crate::laws::PSI;
        crate::laws::leveler_laws(
            |n| make(n, 16, psi),
            // A tile's gap visits its L + 1 blocks once per ψ(L + 1) of
            // the tile's writes; round-robin delivers L per sweep of N,
            // and a window can start mid-sweep.
            |n| {
                let l = n / 16;
                Some(((psi * (l + 1)).div_ceil(l) + 1) * n)
            },
        );
    }

    #[test]
    fn tiles_rotate_independently() {
        // All writes land in one tile's addresses: only that tile migrates,
        // and its migrations stay within its DA range.
        let mut wl = make(256, 4, 1);
        // Find 8 PAs that randomize into tile 0.
        let tile0: Vec<u64> = (0..256)
            .filter(|&p| wl.randomizer.forward(p) < 64)
            .take(8)
            .collect();
        assert!(!tile0.is_empty());
        for i in 0..64u64 {
            wl.record_write(Pa::new(tile0[(i % tile0.len() as u64) as usize]));
            while let Some(Migration::Copy { src, dst }) = wl.pending() {
                assert!(src.index() < 65 && dst.index() < 65, "escaped tile 0");
                wl.complete_migration();
            }
        }
    }

    #[test]
    fn round_robin_serves_all_tiles() {
        let mut wl = make(256, 4, 1);
        // Uniform writes arm every tile; drain and check debt clears.
        for i in 0..256u64 {
            wl.record_write(Pa::new(i));
        }
        let mut served = 0;
        while wl.pending().is_some() {
            wl.complete_migration();
            served += 1;
            assert!(served < 1_000, "drain did not terminate");
        }
        assert!(served >= 4, "every tile should have migrated");
    }

    #[test]
    fn label_and_sizes() {
        let wl = make(256, 8, 10);
        assert_eq!(wl.label(), "Start-Gap[8]");
        assert_eq!(wl.total_das(), 264);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn indivisible_tiles_panic() {
        make(100, 3, 1);
    }
}
