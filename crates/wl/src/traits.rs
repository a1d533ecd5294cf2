//! The wear-leveler interface assumed by the WL-Reviver framework.
//!
//! §III of the paper: *"WL-Reviver assumes only one fundamental operation
//! common to any of such schemes, which is to migrate data into a memory
//! block."* A scheme therefore exposes:
//!
//! 1. a PA→DA bijection ([`WearLeveler::map`]) and its inverse
//!    ([`WearLeveler::inverse`], Theorem 3 relies on one-to-one mapping);
//! 2. a write-paced migration schedule: the controller reports serviced
//!    software writes ([`WearLeveler::record_write`]), the scheme arms
//!    [`Migration`]s ([`WearLeveler::pending`]), and the controller
//!    acknowledges each performed migration
//!    ([`WearLeveler::complete_migration`]).
//!
//! The two-phase pending/complete protocol is what allows the framework to
//! *delay* a migration when no spare block exists (§III-A "delayed space
//! acquisition") without modifying the scheme.

use crate::{SecurityRefresh, StartGap};
use core::fmt;
use wlr_base::{Da, Pa};

/// One data-migration operation requested by a wear-leveling scheme.
///
/// Start-Gap copies into its (empty) gap line; Security Refresh swaps a
/// pair of blocks. Theorem 3's "buffer block" is explicit in the former
/// (the copy destination holds no live data) and implicit in the latter
/// (a swap destroys nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Migration {
    /// Copy the contents of `src` into `dst`; after completion the PA that
    /// mapped to `src` maps to `dst`, and `src` becomes the new buffer.
    Copy {
        /// Source device block.
        src: Da,
        /// Destination device block (the current buffer; holds no live data).
        dst: Da,
    },
    /// Exchange the contents of `a` and `b`; after completion the PAs that
    /// mapped to `a` and `b` are interchanged.
    Swap {
        /// First block of the pair.
        a: Da,
        /// Second block of the pair.
        b: Da,
    },
}

impl fmt::Display for Migration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Migration::Copy { src, dst } => write!(f, "copy {src} -> {dst}"),
            Migration::Swap { a, b } => write!(f, "swap {a} <-> {b}"),
        }
    }
}

/// The panic of an address outside a leveler's space: out of line, so
/// that the lookups that check for it keep no stack frame for its message.
#[cold]
#[inline(never)]
pub(crate) fn outside(addr: impl fmt::Display, space: &str, len: u64) -> ! {
    panic!("{addr} outside {space} space {len}")
}

/// A PCM wear-leveling scheme (see module docs for the protocol).
///
/// # Contract
///
/// Eight laws, each checked for every scheme by the crate's law suite
/// (`laws.rs`; every scheme's tests call `leveler_laws` once):
///
/// 1. **bijection**: `map` is injective into `[0, total_das())`,
///    `inverse(map(pa)) == Some(pa)`, and the `total_das() − len()`
///    unmapped blocks invert to `None`, at every instant.
/// 2. **pending_stable**: `pending()` answers the same until the state
///    changes (`record_write`, a `true` `record_write_fast`,
///    `complete_migration`); completing with nothing pending panics.
/// 3. **copy_into_buffer**: a [`Migration::Copy`]'s `dst` is unmapped
///    until it completes (Theorem 3's premise); afterwards `src`'s PA
///    maps to `dst` and `src` is unmapped.
/// 4. **moves_only_named**: a [`Migration::Swap`] exchanges exactly its
///    two blocks' PAs; no migration moves any other PA.
/// 5. **data_follows_mapping**: moving each migration's data on the
///    device keeps the last data written to every `pa` at `map(pa)`.
/// 6. **fast_recording**: the [`record_write_fast`](Self::record_write_fast)
///    contract below.
/// 7. **clone_identical**: a [`clone_box`](Self::clone_box) driven with
///    the same ops stays state-equal to the original.
/// 8. **every_da_rotates**: under round-robin writes, every device block
///    is a migration target within a bound on writes stated per scheme
///    (none for [`crate::NoWearLeveling`], nor for [`crate::SoftWear`],
///    whose cold scan can pass a block over indefinitely).
pub trait WearLeveler: fmt::Debug + Send {
    /// Number of physical addresses (software-visible blocks) managed.
    fn len(&self) -> u64;

    /// Whether the scheme manages an empty space (never true in practice).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of device blocks used, including buffer lines
    /// (`len()` for in-place schemes, `len() + 1` for Start-Gap).
    fn total_das(&self) -> u64;

    /// Translates a physical address to its current device address.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is outside `[0, len())`.
    fn map(&self, pa: Pa) -> Da;

    /// Translates a device address back to the physical address currently
    /// mapped to it, or `None` for an unmapped buffer block (the gap).
    ///
    /// # Panics
    ///
    /// Panics if `da` is outside `[0, total_das())`.
    fn inverse(&self, da: Da) -> Option<Pa>;

    /// Reports one serviced software write to `pa`. May arm migrations.
    fn record_write(&mut self, pa: Pa);

    /// Fast-path variant of [`record_write`](Self::record_write) for the
    /// steady state: records the write and returns `true` only when the
    /// scheme can prove the recording arms no migration and none is
    /// already pending. Returning `false` must leave the scheme's state
    /// untouched; the caller then runs the full record/pending protocol
    /// for this write.
    ///
    /// The default declines, which is always correct; schemes override it
    /// purely as an optimization. A `true` return must be bit-identical
    /// to `record_write(pa)` with `pending()` staying `None` throughout.
    /// The law suite checks both halves on every write it drives.
    fn record_write_fast(&mut self, _pa: Pa) -> bool {
        false
    }

    /// The migration the scheme wants performed now, if any.
    fn pending(&self) -> Option<Migration>;

    /// Acknowledges that the pending migration's data movement has been
    /// performed; updates the mapping.
    ///
    /// # Panics
    ///
    /// Panics if no migration is pending.
    fn complete_migration(&mut self);

    /// Scheme label for experiment output (e.g. `"Start-Gap"`).
    fn label(&self) -> String;

    /// Deep copy of the scheme's full state — mapping, migration debt,
    /// RNG streams — for simulation snapshots. The copy must behave
    /// bit-identically to the original under the same write sequence.
    fn clone_box(&self) -> Box<dyn WearLeveler>;
}

impl Clone for Box<dyn WearLeveler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A [`WearLeveler`] the caller dispatches on without a virtual call: the
/// two schemes the paper names held inline, so that their `map` and
/// `record_write_fast` inline into a hot loop, and any other scheme —
/// one nobody has registered yet included — behind a box.
#[derive(Debug, Clone)]
pub enum Leveler {
    /// Start-Gap, inline.
    StartGap(StartGap),
    /// Security Refresh, inline.
    SecurityRefresh(SecurityRefresh),
    /// Any other scheme.
    Other(Box<dyn WearLeveler>),
}

impl From<StartGap> for Leveler {
    fn from(wl: StartGap) -> Self {
        Leveler::StartGap(wl)
    }
}

impl From<SecurityRefresh> for Leveler {
    fn from(wl: SecurityRefresh) -> Self {
        Leveler::SecurityRefresh(wl)
    }
}

impl From<Box<dyn WearLeveler>> for Leveler {
    fn from(wl: Box<dyn WearLeveler>) -> Self {
        Leveler::Other(wl)
    }
}

/// Runs `$body` with `$wl` bound to whichever scheme `$self` holds.
macro_rules! each_arm {
    ($self:expr, $wl:ident => $body:expr) => {
        match $self {
            Leveler::StartGap($wl) => $body,
            Leveler::SecurityRefresh($wl) => $body,
            Leveler::Other($wl) => $body,
        }
    };
}

impl WearLeveler for Leveler {
    fn len(&self) -> u64 {
        each_arm!(self, wl => wl.len())
    }

    fn total_das(&self) -> u64 {
        each_arm!(self, wl => wl.total_das())
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        each_arm!(self, wl => wl.map(pa))
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        each_arm!(self, wl => wl.inverse(da))
    }

    fn record_write(&mut self, pa: Pa) {
        each_arm!(self, wl => wl.record_write(pa))
    }

    #[inline]
    fn record_write_fast(&mut self, pa: Pa) -> bool {
        each_arm!(self, wl => wl.record_write_fast(pa))
    }

    fn pending(&self) -> Option<Migration> {
        each_arm!(self, wl => wl.pending())
    }

    fn complete_migration(&mut self) {
        each_arm!(self, wl => wl.complete_migration())
    }

    fn label(&self) -> String {
        each_arm!(self, wl => wl.label())
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_display() {
        let c = Migration::Copy {
            src: Da::new(1),
            dst: Da::new(2),
        };
        assert_eq!(c.to_string(), "copy DA(1) -> DA(2)");
        let s = Migration::Swap {
            a: Da::new(3),
            b: Da::new(4),
        };
        assert_eq!(s.to_string(), "swap DA(3) <-> DA(4)");
    }

    #[test]
    fn both_inline_arms_obey_every_law() {
        use crate::laws::{leveler_laws, PSI};
        use crate::RandomizerKind;
        let sg = |n| {
            let wl = StartGap::builder(n).gap_interval(PSI);
            Leveler::from(wl.randomizer(RandomizerKind::Feistel { seed: 7 }).build())
        };
        leveler_laws(sg, |n| Some(PSI * (n + 1)));
        let sr = |n: u64| {
            let wl = SecurityRefresh::builder(n).region_blocks(n & n.wrapping_neg());
            Leveler::from(wl.refresh_interval(PSI).seed(7).build())
        };
        leveler_laws(sr, |n| (n % 2 == 0).then_some((PSI + 1) * n));
    }
}
