//! Bank-interleaved address mapping for the multi-bank front-end.
//!
//! Real PCM DIMMs expose many banks/partitions; the memory controller
//! stripes the global physical address space across them so sequential
//! traffic exercises every bank. This module owns the arithmetic: a
//! global block address splits into a `(bank, local address)` pair and
//! joins back, with a configurable striping granularity — cache-line
//! (one 64 B block per stripe), OS-page, or any block count in between.
//!
//! The mapping is a bijection between the global space and the disjoint
//! union of `banks` equally-sized local spaces, so each bank can run an
//! unmodified single-domain `(wear-leveler, reviver, device)` stack over
//! its local space while the front-end speaks global addresses.

use crate::geometry::Geometry;
use core::fmt;

/// Striping granularity presets for [`InterleaveMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// One block (= one last-level-cache line) per stripe: consecutive
    /// blocks land on consecutive banks. Maximizes bank-level parallelism
    /// for sequential traffic.
    CacheLine,
    /// One OS page per stripe: a page's blocks stay in one bank, so page
    /// retirement never crosses banks.
    Page,
    /// An explicit stripe width in blocks (must be nonzero).
    Blocks(u64),
}

impl Interleave {
    /// The stripe width in blocks under `geo`.
    pub fn stripe_blocks(self, geo: &Geometry) -> u64 {
        match self {
            Interleave::CacheLine => 1,
            Interleave::Page => geo.blocks_per_page(),
            Interleave::Blocks(n) => n,
        }
    }

    /// Parses `"cacheline"`, `"page"`, or a block count (the
    /// `WLR_INTERLEAVE` environment knob).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cacheline" | "cache-line" | "line" => Some(Interleave::CacheLine),
            "page" => Some(Interleave::Page),
            n => n
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .map(Interleave::Blocks),
        }
    }
}

impl fmt::Display for Interleave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interleave::CacheLine => write!(f, "cacheline"),
            Interleave::Page => write!(f, "page"),
            Interleave::Blocks(n) => write!(f, "{n}"),
        }
    }
}

/// Errors from validating an [`InterleaveMap`] against an address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterleaveError {
    /// Bank count or stripe width was zero.
    Zero(&'static str),
    /// The global space is not a whole number of `banks × stripe` rounds,
    /// so the banks would be unequal.
    SpaceNotDivisible {
        /// Global address-space size in blocks.
        space: u64,
        /// Blocks per full interleave round (`banks × stripe`).
        round: u64,
    },
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterleaveError::Zero(what) => write!(f, "interleave parameter `{what}` must be nonzero"),
            InterleaveError::SpaceNotDivisible { space, round } => write!(
                f,
                "address space of {space} blocks is not a multiple of the {round}-block interleave round"
            ),
        }
    }
}

impl std::error::Error for InterleaveError {}

/// The bank-interleaved split of a global block address space.
///
/// With `banks = N` and `stripe_blocks = g`, global address `a` maps to
/// bank `(a / g) mod N` at local address `(a / g / N) · g + a mod g`:
/// stripes rotate round-robin over the banks, and each bank sees its own
/// dense, zero-based local space.
///
/// ```
/// use wlr_base::interleave::InterleaveMap;
/// let map = InterleaveMap::new(4, 64).unwrap();
/// // Block 64 is the second stripe: bank 1, local block 0.
/// assert_eq!(map.split(64), (1, 0));
/// assert_eq!(map.join(1, 0), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveMap {
    banks: u64,
    stripe: u64,
    /// [`split`](Self::split)'s `(stripe shift, stripe + bank shift,
    /// stripe mask, bank mask)`, precomputed when both widths are powers
    /// of two. Derived from `banks`/`stripe`, so the derived `PartialEq`
    /// stays consistent.
    pow2: Option<(u32, u32, u64, u64)>,
}

impl InterleaveMap {
    /// Creates a map of `banks` banks striped every `stripe_blocks` blocks.
    ///
    /// # Errors
    ///
    /// [`InterleaveError::Zero`] when either parameter is zero.
    pub fn new(banks: u64, stripe_blocks: u64) -> Result<Self, InterleaveError> {
        if banks == 0 {
            return Err(InterleaveError::Zero("banks"));
        }
        if stripe_blocks == 0 {
            return Err(InterleaveError::Zero("stripe_blocks"));
        }
        let (gs, bs) = (stripe_blocks.trailing_zeros(), banks.trailing_zeros());
        let pow2 = (banks.is_power_of_two() && stripe_blocks.is_power_of_two()).then_some((
            gs,
            gs + bs,
            stripe_blocks - 1,
            banks - 1,
        ));
        Ok(InterleaveMap {
            banks,
            stripe: stripe_blocks,
            pow2,
        })
    }

    /// Number of banks.
    #[inline]
    pub const fn banks(&self) -> u64 {
        self.banks
    }

    /// Stripe width in blocks.
    #[inline]
    pub const fn stripe_blocks(&self) -> u64 {
        self.stripe
    }

    /// Blocks consumed by one full rotation over all banks.
    #[inline]
    pub const fn round_blocks(&self) -> u64 {
        self.banks * self.stripe
    }

    /// Splits a global block address into `(bank, local address)`.
    #[inline]
    pub fn split(&self, global: u64) -> (u64, u64) {
        if let Some((gs, hs, stripe_mask, bank_mask)) = self.pow2 {
            return (
                (global >> gs) & bank_mask,
                ((global >> hs) << gs) | (global & stripe_mask),
            );
        }
        let stripe_idx = global / self.stripe;
        let offset = global % self.stripe;
        let bank = stripe_idx % self.banks;
        let local = (stripe_idx / self.banks) * self.stripe + offset;
        (bank, local)
    }

    /// Joins a `(bank, local address)` pair back into the global address.
    #[inline]
    pub fn join(&self, bank: u64, local: u64) -> u64 {
        let local_stripe = local / self.stripe;
        let offset = local % self.stripe;
        (local_stripe * self.banks + bank) * self.stripe + offset
    }

    /// Validates that `space` splits evenly and returns each bank's local
    /// space size.
    ///
    /// # Errors
    ///
    /// [`InterleaveError::SpaceNotDivisible`] when the banks would be
    /// unequal.
    pub fn local_space(&self, space: u64) -> Result<u64, InterleaveError> {
        let round = self.round_blocks();
        if space == 0 || !space.is_multiple_of(round) {
            return Err(InterleaveError::SpaceNotDivisible { space, round });
        }
        Ok(space / self.banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_is_a_bijection() {
        for (banks, stripe) in [(1, 1), (2, 1), (4, 64), (3, 7), (16, 64)] {
            let map = InterleaveMap::new(banks, stripe).unwrap();
            let space = map.round_blocks() * 5;
            let mut seen = vec![false; space as usize];
            for a in 0..space {
                let (b, l) = map.split(a);
                assert!(b < banks);
                assert!(l < space / banks, "local {l} out of range");
                assert_eq!(map.join(b, l), a, "join∘split must be identity");
                let flat = (b * (space / banks) + l) as usize;
                assert!(!seen[flat], "collision at global {a}");
                seen[flat] = true;
            }
            assert!(seen.iter().all(|&s| s), "split must be surjective");
        }
    }

    #[test]
    fn cache_line_striping_rotates_per_block() {
        let map = InterleaveMap::new(4, 1).unwrap();
        assert_eq!(map.split(0), (0, 0));
        assert_eq!(map.split(1), (1, 0));
        assert_eq!(map.split(2), (2, 0));
        assert_eq!(map.split(3), (3, 0));
        assert_eq!(map.split(4), (0, 1));
    }

    #[test]
    fn page_striping_keeps_pages_whole() {
        let geo = Geometry::builder().num_blocks(1 << 12).build().unwrap();
        let g = Interleave::Page.stripe_blocks(&geo);
        assert_eq!(g, 64);
        let map = InterleaveMap::new(2, g).unwrap();
        // All 64 blocks of any page land in the same bank.
        for page in 0..8u64 {
            let base = page * 64;
            let (bank, _) = map.split(base);
            for off in 0..64 {
                assert_eq!(
                    map.split(base + off).0,
                    bank,
                    "page {page} split across banks"
                );
            }
        }
    }

    #[test]
    fn local_space_validates_divisibility() {
        let map = InterleaveMap::new(4, 64).unwrap();
        assert_eq!(map.local_space(4096), Ok(1024));
        assert!(matches!(
            map.local_space(4000),
            Err(InterleaveError::SpaceNotDivisible { .. })
        ));
        assert!(matches!(
            map.local_space(0),
            Err(InterleaveError::SpaceNotDivisible { .. })
        ));
    }

    #[test]
    fn rejects_zero_parameters() {
        assert_eq!(
            InterleaveMap::new(0, 1),
            Err(InterleaveError::Zero("banks"))
        );
        assert_eq!(
            InterleaveMap::new(1, 0),
            Err(InterleaveError::Zero("stripe_blocks"))
        );
    }

    #[test]
    fn parse_accepts_presets_and_counts() {
        assert_eq!(Interleave::parse("cacheline"), Some(Interleave::CacheLine));
        assert_eq!(Interleave::parse("Page"), Some(Interleave::Page));
        assert_eq!(Interleave::parse("128"), Some(Interleave::Blocks(128)));
        assert_eq!(Interleave::parse("0"), None);
        assert_eq!(Interleave::parse("bogus"), None);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for i in [
            Interleave::CacheLine,
            Interleave::Page,
            Interleave::Blocks(32),
        ] {
            assert_eq!(Interleave::parse(&i.to_string()), Some(i));
        }
    }
}
