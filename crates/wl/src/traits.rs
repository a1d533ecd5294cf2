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

/// Up to two device blocks named by a [`Migration`], stored inline.
///
/// A migration touches one block (`Copy`) or two (`Swap`); returning this
/// instead of a `Vec<Da>` keeps [`Migration::write_targets`] and
/// [`Migration::read_sources`] allocation-free on the write hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MigrationDas {
    das: [Da; 2],
    len: u8,
}

impl MigrationDas {
    fn one(da: Da) -> Self {
        MigrationDas {
            das: [da, da],
            len: 1,
        }
    }

    fn two(a: Da, b: Da) -> Self {
        MigrationDas {
            das: [a, b],
            len: 2,
        }
    }

    /// The blocks as a slice (length 1 or 2).
    pub fn as_slice(&self) -> &[Da] {
        &self.das[..self.len as usize]
    }
}

impl core::ops::Deref for MigrationDas {
    type Target = [Da];

    fn deref(&self) -> &[Da] {
        self.as_slice()
    }
}

impl IntoIterator for MigrationDas {
    type Item = Da;
    type IntoIter = core::iter::Take<core::array::IntoIter<Da, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.das.into_iter().take(self.len as usize)
    }
}

impl Migration {
    /// The device blocks this migration writes into.
    pub fn write_targets(&self) -> MigrationDas {
        match *self {
            Migration::Copy { dst, .. } => MigrationDas::one(dst),
            Migration::Swap { a, b } => MigrationDas::two(a, b),
        }
    }

    /// The device blocks this migration reads from.
    pub fn read_sources(&self) -> MigrationDas {
        match *self {
            Migration::Copy { src, .. } => MigrationDas::one(src),
            Migration::Swap { a, b } => MigrationDas::two(a, b),
        }
    }
}

impl fmt::Display for Migration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Migration::Copy { src, dst } => write!(f, "copy {src} -> {dst}"),
            Migration::Swap { a, b } => write!(f, "swap {a} <-> {b}"),
        }
    }
}

/// A PCM wear-leveling scheme (see module docs for the protocol).
///
/// # Contract
///
/// * `map` is a bijection from the `len()` PAs into the `total_das()`
///   device blocks; `inverse(map(pa)) == Some(pa)` at every instant.
/// * `pending()` is stable until `complete_migration()` or the next
///   `record_write` that arms further work; completing with no pending
///   migration panics (a protocol violation).
/// * After `complete_migration()`, `map` reflects the migrated layout.
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

/// Drives `wl` until no migration is pending, applying each migration with
/// `apply`. Test/bootstrap helper for callers that never defer migrations.
pub fn drain_migrations<W, F>(wl: &mut W, mut apply: F)
where
    W: WearLeveler + ?Sized,
    F: FnMut(Migration),
{
    while let Some(m) = wl.pending() {
        apply(m);
        wl.complete_migration();
    }
}

/// The [`WearLeveler::record_write_fast`] contract, checked over `pas` on
/// two instances in the same state: a decline leaves `fast` untouched, a
/// fast recording never coexists with a pending migration, and driving
/// `fast` as the controller does (fast recording first, the full protocol
/// when it declines) stays state-for-state equal to `slow`'s plain
/// `record_write`. Every other write leaves its migrations owed until the
/// next, so the declines while something is pending are exercised too.
/// Returns how many recordings took the fast exit.
#[cfg(test)]
pub(crate) fn check_fast_recording<W: WearLeveler>(
    fast: &mut W,
    slow: &mut W,
    pas: &[Pa],
) -> usize {
    let mut taken = 0;
    for (i, &pa) in pas.iter().enumerate() {
        let before = format!("{fast:?}");
        let drain = |wl: &mut W| {
            while i % 2 == 0 && wl.pending().is_some() {
                wl.complete_migration();
            }
        };
        if fast.record_write_fast(pa) {
            assert!(fast.pending().is_none(), "fast recording with work owed");
            taken += 1;
        } else {
            assert_eq!(format!("{fast:?}"), before, "a decline must touch nothing");
            fast.record_write(pa);
            drain(fast);
        }
        slow.record_write(pa);
        drain(slow);
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "write {i}");
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_targets_and_sources() {
        let c = Migration::Copy {
            src: Da::new(1),
            dst: Da::new(2),
        };
        assert_eq!(c.write_targets().as_slice(), &[Da::new(2)]);
        assert_eq!(c.read_sources().as_slice(), &[Da::new(1)]);
        let s = Migration::Swap {
            a: Da::new(3),
            b: Da::new(4),
        };
        assert_eq!(s.write_targets().as_slice(), &[Da::new(3), Da::new(4)]);
        assert_eq!(s.read_sources().as_slice(), &[Da::new(3), Da::new(4)]);
        assert_eq!(s.write_targets().into_iter().count(), 2);
        assert_eq!(
            c.read_sources().into_iter().collect::<Vec<_>>(),
            vec![Da::new(1)]
        );
    }

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
}
