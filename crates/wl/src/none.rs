//! The no-wear-leveling baseline: identity mapping, no migrations.
//!
//! Figure 6's "ECP6" and "PAYG" curves (no `-SG` suffix) run with this
//! scheme: block failures accumulate wherever the workload concentrates
//! writes, which is exactly the early-failure behaviour wear leveling is
//! meant to prevent.

use crate::traits::{Migration, WearLeveler};
use wlr_base::{Da, Pa};

/// Identity PA→DA mapping with no data movement.
///
/// ```
/// use wlr_base::{Da, Pa};
/// use wlr_wl::{NoWearLeveling, WearLeveler};
/// let mut wl = NoWearLeveling::new(16);
/// assert_eq!(wl.map(Pa::new(3)), Da::new(3));
/// wl.record_write(Pa::new(3));
/// assert!(wl.pending().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct NoWearLeveling {
    len: u64,
}

impl NoWearLeveling {
    /// Identity scheme over `len` physical addresses.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "PA space must be nonzero");
        NoWearLeveling { len }
    }
}

impl WearLeveler for NoWearLeveling {
    fn len(&self) -> u64 {
        self.len
    }

    fn total_das(&self) -> u64 {
        self.len
    }

    fn map(&self, pa: Pa) -> Da {
        assert!(pa.index() < self.len, "{pa} outside PA space {}", self.len);
        Da::new(pa.index())
    }

    fn inverse(&self, da: Da) -> Option<Pa> {
        assert!(da.index() < self.len, "{da} outside DA space {}", self.len);
        Some(Pa::new(da.index()))
    }

    fn record_write(&mut self, _pa: Pa) {}

    #[inline]
    fn record_write_fast(&mut self, _pa: Pa) -> bool {
        true
    }

    fn pending(&self) -> Option<Migration> {
        None
    }

    fn complete_migration(&mut self) {
        panic!("NoWearLeveling never has a pending migration");
    }

    fn label(&self) -> String {
        "none".to_string()
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
        // Nothing ever migrates, so no block rotates.
        crate::laws::leveler_laws(NoWearLeveling::new, |_| None);
    }

    #[test]
    fn identity_round_trip() {
        let wl = NoWearLeveling::new(8);
        for i in 0..8 {
            assert_eq!(wl.map(Pa::new(i)), Da::new(i));
            assert_eq!(wl.inverse(Da::new(i)), Some(Pa::new(i)));
        }
        assert_eq!(wl.total_das(), 8);
        assert_eq!(wl.label(), "none");
    }

    #[test]
    fn never_migrates() {
        let mut wl = NoWearLeveling::new(8);
        for i in 0..1000 {
            wl.record_write(Pa::new(i % 8));
        }
        assert!(wl.pending().is_none());
    }
}
