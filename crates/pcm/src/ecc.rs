//! Error-correction schemes deciding when cell failures kill a block.
//!
//! The paper's evaluation (§IV-B) uses two life-extending schemes below the
//! wear-leveler:
//!
//! * **ECP6** (Schechter et al., ISCA'10): six error-correcting pointers
//!   per 512-bit group; the group (here: block) survives its first six cell
//!   failures and dies on the seventh.
//! * **PAYG** (Qureshi, MICRO'11): ECP1 locally plus a *global* pool of
//!   correction entries sized well below worst case (≈19.5 metadata bits
//!   per group vs ECP6's 61). A block's second and later cell failures draw
//!   entries from the pool; once the pool runs dry, the next failure is
//!   uncorrectable. Because entries chain, a hot group can absorb far more
//!   than ECP6's six failures while the pool lasts — that is PAYG's whole
//!   advantage — bounded here by a structural per-block ceiling of 64
//!   (see DESIGN.md §3.5).
//!
//! Schemes implement [`ErrorCorrection`]; the device calls
//! [`ErrorCorrection::correct`] once per cell failure, in order, and kills
//! the block on the first `false`.

use core::fmt;
use wlr_base::Da;

/// A life-extending error-correction scheme.
///
/// The device reports each block's cell failures in order (`nth` = 1 for
/// the block's first failed cell). An implementation returns `true` if the
/// failure is corrected (the block stays alive) and `false` if it is
/// uncorrectable (the block is dead).
pub trait ErrorCorrection: fmt::Debug + Send {
    /// Attempts to correct the `nth` (1-based) cell failure of block `da`.
    fn correct(&mut self, da: Da, nth: u32) -> bool;

    /// Short scheme label used in experiment output (e.g. `"ECP6"`).
    fn label(&self) -> String;

    /// Remaining shared correction resources, if the scheme has any
    /// (`None` for purely local schemes like ECP).
    fn pool_remaining(&self) -> Option<u64> {
        None
    }

    /// Whether the scheme *would* absorb the `nth` (1-based) bad cell of
    /// block `da` without consuming any resource — used for transient
    /// (soft) read errors, which the hardware corrects in place when ECC
    /// headroom remains but which do not burn a permanent entry. The
    /// conservative default says no.
    fn would_correct(&self, da: Da, nth: u32) -> bool {
        let _ = (da, nth);
        false
    }

    /// Deep copy of the scheme's current state, for device snapshots.
    fn clone_box(&self) -> Box<dyn ErrorCorrection>;
}

impl Clone for Box<dyn ErrorCorrection> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Error-Correcting Pointers with a fixed number of entries per block.
///
/// ```
/// use wlr_base::Da;
/// use wlr_pcm::ecc::{Ecp, ErrorCorrection};
/// let mut ecp = Ecp::new(2);
/// let da = Da::new(0);
/// assert!(ecp.correct(da, 1));
/// assert!(ecp.correct(da, 2));
/// assert!(!ecp.correct(da, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ecp {
    entries: u32,
}

impl Ecp {
    /// The most entries a block can use: the device counts a block's cell
    /// failures in a byte and refuses a 250th, and ECP-k sees k + 1.
    pub const MAX_ENTRIES: u32 = 248;

    /// An ECP scheme with `entries` correction entries per block.
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceeds [`Self::MAX_ENTRIES`].
    pub fn new(entries: u32) -> Self {
        assert!(
            entries <= Self::MAX_ENTRIES,
            "ECP{entries}: a block corrects at most {} cells",
            Self::MAX_ENTRIES
        );
        Ecp { entries }
    }

    /// The paper's base configuration: ECP6 (61 metadata bits per 512-bit
    /// group).
    pub fn ecp6() -> Self {
        Ecp::new(6)
    }
}

impl ErrorCorrection for Ecp {
    fn correct(&mut self, _da: Da, nth: u32) -> bool {
        nth <= self.entries
    }

    fn label(&self) -> String {
        format!("ECP{}", self.entries)
    }

    fn would_correct(&self, _da: Da, nth: u32) -> bool {
        nth <= self.entries
    }

    fn clone_box(&self) -> Box<dyn ErrorCorrection> {
        Box::new(self.clone())
    }
}

/// Pay-As-You-Go: local ECP1 plus a global pool of correction entries.
///
/// ```
/// use wlr_base::Da;
/// use wlr_pcm::ecc::{ErrorCorrection, Payg};
/// let mut payg = Payg::new(1, 6); // one pool entry, cap 6
/// let a = Da::new(0);
/// let b = Da::new(1);
/// assert!(payg.correct(a, 1));        // local ECP1
/// assert!(payg.correct(a, 2));        // takes the pool entry
/// assert_eq!(payg.pool_remaining(), Some(0));
/// assert!(payg.correct(b, 1));        // b's local entry still works
/// assert!(!payg.correct(b, 2));       // pool is dry
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payg {
    pool: u64,
    cap: u32,
}

impl Payg {
    /// A PAYG scheme with `pool` global entries and a per-block ceiling of
    /// `cap` corrected cells (local + global).
    pub fn new(pool: u64, cap: u32) -> Self {
        Payg { pool, cap }
    }

    /// Pool sized as `ratio` entries per block, the paper's default budget
    /// (≈0.77 entries per group for 19.5 avg metadata bits — DESIGN.md
    /// §3.5). Unlike fixed ECP, PAYG lets a hot group chain many global
    /// entries; the per-block ceiling models the structural limit of the
    /// chained-entry format, not ECP6's six.
    pub fn with_ratio(num_blocks: u64, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "pool ratio must be non-negative");
        Payg::new((num_blocks as f64 * ratio).floor() as u64, 64)
    }
}

impl ErrorCorrection for Payg {
    fn correct(&mut self, _da: Da, nth: u32) -> bool {
        if nth > self.cap {
            return false;
        }
        if nth == 1 {
            return true; // the local ECP1 entry
        }
        if self.pool > 0 {
            self.pool -= 1;
            true
        } else {
            false
        }
    }

    fn label(&self) -> String {
        "PAYG".to_string()
    }

    fn pool_remaining(&self) -> Option<u64> {
        Some(self.pool)
    }

    fn would_correct(&self, _da: Da, nth: u32) -> bool {
        nth <= self.cap && (nth == 1 || self.pool > 0)
    }

    fn clone_box(&self) -> Box<dyn ErrorCorrection> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{device_laws, Spec};

    #[test]
    fn ecp_obeys_every_device_law() {
        device_laws(Spec::Ecp(0), |d| d);
        device_laws(Spec::Ecp(6), |d| d);
    }

    #[test]
    fn payg_obeys_every_device_law() {
        device_laws(Spec::Payg, |d| d);
    }

    #[test]
    fn ecp_corrects_up_to_entries() {
        let mut e = Ecp::ecp6();
        let da = Da::new(9);
        for nth in 1..=6 {
            assert!(e.correct(da, nth), "ECP6 must correct failure {nth}");
        }
        assert!(!e.correct(da, 7));
        assert_eq!(e.label(), "ECP6");
        assert_eq!(e.pool_remaining(), None);
    }

    #[test]
    #[should_panic(expected = "at most 248 cells")]
    fn ecp_refuses_more_entries_than_a_block_counts() {
        Ecp::new(Ecp::MAX_ENTRIES + 1);
    }

    #[test]
    fn payg_respects_cap() {
        let mut p = Payg::new(1000, 3);
        let da = Da::new(0);
        assert!(p.correct(da, 1));
        assert!(p.correct(da, 2));
        assert!(p.correct(da, 3));
        assert!(!p.correct(da, 4), "cap must bound corrections");
        // The cap rejection must not burn a pool entry.
        assert_eq!(p.pool_remaining(), Some(998));
    }

    #[test]
    fn payg_ratio_sizing() {
        assert_eq!(Payg::with_ratio(1000, 0.77).pool_remaining(), Some(770));
        let p = Payg::with_ratio(65536, 0.77);
        assert_eq!(p.pool_remaining(), Some((65536.0f64 * 0.77) as u64));
    }

    #[test]
    fn payg_label() {
        assert_eq!(Payg::new(1, 6).label(), "PAYG");
    }
}
