//! Start-Gap wear leveling (Qureshi et al., MICRO'09).
//!
//! The scheme manages `N` physical addresses over `N + 1` device blocks;
//! the extra block is the *gap line* and never holds live data. Two
//! registers, `start` and `gap`, define the algebraic PA→DA mapping:
//!
//! ```text
//! x  = (randomize(pa) + start) mod N
//! da = x + 1  if x >= gap  else  x
//! ```
//!
//! Every ψ serviced writes (ψ = 100 in the paper) the gap moves one
//! position by copying its logical predecessor into the gap line:
//!
//! * `gap > 0`: copy DA `gap−1` → DA `gap`, then `gap -= 1`;
//! * `gap = 0`: copy DA `N` → DA `0`, then `gap = N`, `start += 1 (mod N)`
//!   — one full rotation shifts every line by one position.
//!
//! After `N + 1` movements every block has hosted the gap exactly once, so
//! writes spread over the whole space; the static randomizer
//! ([`crate::randomizer`]) decorrelates spatially clustered hot lines.
//! The memoized table the builder picks for a Feistel randomizer at the
//! simulator's scales is held inline, so its lookup inlines into
//! [`StartGap::map`]; any other randomizer is boxed.
//!
//! This implementation keeps the *exact* register semantics (including the
//! wrap migration) so that the mapping stays a bijection at every
//! intermediate state — a property the WL-Reviver framework's Theorem 3
//! depends on, and which the property tests here verify directly.

use crate::randomizer::{InlineRandomizer, RandomizerKind};
use crate::traits::{outside, Migration, WearLeveler};
use wlr_base::{Da, Pa};

/// Builder for [`StartGap`]; see [`StartGap::builder`].
#[derive(Debug)]
pub struct StartGapBuilder {
    len: u64,
    gap_interval: u64,
    randomizer: RandomizerKind,
}

impl StartGapBuilder {
    /// Number of serviced writes between gap movements (the paper's ψ;
    /// default 100).
    pub fn gap_interval(mut self, psi: u64) -> Self {
        self.gap_interval = psi;
        self
    }

    /// Static randomization layer (default: Feistel with seed 0).
    pub fn randomizer(mut self, kind: RandomizerKind) -> Self {
        self.randomizer = kind;
        self
    }

    /// Builds the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the PA-space size or the gap interval is zero.
    pub fn build(self) -> StartGap {
        assert!(self.len > 0, "Start-Gap needs a nonzero PA space");
        assert!(self.gap_interval > 0, "gap interval must be nonzero");
        StartGap {
            len: self.len,
            start: 0,
            gap: self.len,
            gap_interval: self.gap_interval,
            writes_since_move: 0,
            debt: 0,
            randomizer: InlineRandomizer::build(self.randomizer, self.len),
        }
    }
}

/// The Start-Gap scheme. See the module docs for the algorithm and
/// [`WearLeveler`] for the driving protocol.
///
/// ```
/// use wlr_base::{Da, Pa};
/// use wlr_wl::{RandomizerKind, StartGap, WearLeveler};
///
/// let mut wl = StartGap::builder(8)
///     .gap_interval(1)
///     .randomizer(RandomizerKind::Identity)
///     .build();
/// // Initially the identity (gap parks at DA 8).
/// assert_eq!(wl.map(Pa::new(3)), Da::new(3));
/// // One write arms one gap move: DA 7 -> DA 8.
/// wl.record_write(Pa::new(0));
/// assert!(matches!(
///     wl.pending(),
///     Some(wlr_wl::Migration::Copy { .. })
/// ));
/// wl.complete_migration();
/// assert_eq!(wl.map(Pa::new(7)), Da::new(8));
/// ```
#[derive(Debug, Clone)]
pub struct StartGap {
    len: u64,
    start: u64,
    /// Gap position in `[0, len]`; the gap DA holds no live data.
    gap: u64,
    gap_interval: u64,
    writes_since_move: u64,
    /// Gap movements owed but not yet performed (grows while the caller
    /// defers migrations, e.g. WL-Reviver's delayed space acquisition).
    debt: u64,
    randomizer: InlineRandomizer,
}

impl StartGap {
    /// Starts building a Start-Gap instance over `len` physical addresses.
    pub fn builder(len: u64) -> StartGapBuilder {
        StartGapBuilder {
            len,
            gap_interval: 100,
            randomizer: RandomizerKind::Feistel { seed: 0 },
        }
    }

    /// Current gap device address.
    pub fn gap_da(&self) -> Da {
        Da::new(self.gap)
    }

    /// Current start-register value.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Outstanding (armed but unperformed) gap movements.
    pub fn debt(&self) -> u64 {
        self.debt
    }
}

impl WearLeveler for StartGap {
    fn len(&self) -> u64 {
        self.len
    }

    fn total_das(&self) -> u64 {
        self.len + 1
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        if pa.index() >= self.len {
            outside(pa, "PA", self.len);
        }
        let ra = self.randomizer.forward(pa.index());
        let x = add_mod(ra, self.start, self.len);
        Da::new(if x >= self.gap { x + 1 } else { x })
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        if da.index() > self.len {
            outside(da, "DA", self.len + 1);
        }
        if da.index() == self.gap {
            return None;
        }
        let x = if da.index() > self.gap {
            da.index() - 1
        } else {
            da.index()
        };
        let ra = sub_mod(x, self.start, self.len);
        Some(Pa::new(self.randomizer.backward(ra)))
    }

    fn record_write(&mut self, _pa: Pa) {
        self.writes_since_move += 1;
        if self.writes_since_move >= self.gap_interval {
            self.writes_since_move = 0;
            self.debt += 1;
        }
    }

    #[inline]
    fn record_write_fast(&mut self, _pa: Pa) -> bool {
        // Fast only when no migration is owed and recording this write
        // won't arm one: the gap stands still and `pending()` stays
        // `None` across the recording.
        if self.debt != 0 || self.writes_since_move + 1 >= self.gap_interval {
            return false;
        }
        self.writes_since_move += 1;
        true
    }

    fn pending(&self) -> Option<Migration> {
        if self.debt == 0 {
            return None;
        }
        Some(if self.gap > 0 {
            Migration::Copy {
                src: Da::new(self.gap - 1),
                dst: Da::new(self.gap),
            }
        } else {
            // Wrap movement: the line at DA N slides into DA 0 and the
            // start register advances.
            Migration::Copy {
                src: Da::new(self.len),
                dst: Da::new(0),
            }
        })
    }

    fn complete_migration(&mut self) {
        assert!(self.debt > 0, "complete_migration without a pending one");
        if self.gap > 0 {
            self.gap -= 1;
        } else {
            self.gap = self.len;
            self.start = add_mod(self.start, 1, self.len);
        }
        self.debt -= 1;
    }

    fn label(&self) -> String {
        "Start-Gap".to_string()
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[inline]
fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

#[inline]
fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + m - b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{leveler_laws, PSI};

    fn identity_sg(len: u64, psi: u64) -> StartGap {
        StartGap::builder(len)
            .gap_interval(psi)
            .randomizer(RandomizerKind::Identity)
            .build()
    }

    #[test]
    fn obeys_every_law() {
        // The plain stacks' Feistel network and LLS's half-restricted one.
        for randomizer in [
            RandomizerKind::Feistel { seed: 7 },
            RandomizerKind::HalfRestricted { seed: 7 },
        ] {
            leveler_laws(
                |n| {
                    StartGap::builder(n)
                        .gap_interval(PSI)
                        .randomizer(randomizer)
                        .build()
                },
                // The gap visits each of the N + 1 blocks once per ψ(N + 1) writes.
                |n| Some(PSI * (n + 1)),
            );
        }
    }

    #[test]
    fn initial_mapping_is_identity_with_identity_randomizer() {
        let wl = identity_sg(16, 1);
        for pa in 0..16 {
            assert_eq!(wl.map(Pa::new(pa)), Da::new(pa));
        }
        assert_eq!(wl.inverse(Da::new(16)), None, "gap starts at DA N");
    }

    #[test]
    fn one_rotation_shifts_start() {
        let mut wl = identity_sg(8, 1);
        for _ in 0..9 {
            wl.record_write(Pa::new(0));
            wl.complete_migration();
        }
        assert_eq!(wl.start(), 1, "N+1 movements advance start by one");
        assert_eq!(wl.gap_da(), Da::new(8), "gap returns to the end");
    }

    #[test]
    fn gap_interval_pacing() {
        let mut wl = identity_sg(16, 100);
        for _ in 0..99 {
            wl.record_write(Pa::new(0));
        }
        assert!(wl.pending().is_none(), "no move before psi writes");
        wl.record_write(Pa::new(0));
        assert!(wl.pending().is_some(), "100th write arms a move");
    }

    #[test]
    fn debt_accumulates_while_deferred() {
        let mut wl = identity_sg(16, 10);
        for _ in 0..35 {
            wl.record_write(Pa::new(0));
        }
        assert_eq!(wl.debt(), 3);
        wl.complete_migration();
        wl.complete_migration();
        assert_eq!(wl.debt(), 1);
        assert!(wl.pending().is_some());
        wl.complete_migration();
        assert!(wl.pending().is_none());
    }

    #[test]
    fn label_and_sizes() {
        let wl = identity_sg(32, 1);
        assert_eq!(wl.label(), "Start-Gap");
        assert_eq!(wl.len(), 32);
        assert_eq!(wl.total_das(), 33);
        assert!(!wl.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside PA space")]
    fn map_out_of_range_panics() {
        identity_sg(8, 1).map(Pa::new(8));
    }
}
