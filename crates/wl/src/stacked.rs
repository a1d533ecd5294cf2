//! Stacking two in-place wear-leveling schemes.
//!
//! Security Refresh's full design (Seong et al., ISCA'10) is *two-level*:
//! an inner instance remaps within sub-regions while an outer instance
//! remaps across the whole space, so that even writes that stay inside one
//! sub-region eventually spread chip-wide. [`Stacked`] composes any two
//! [`WearLeveler`]s whose spaces line up:
//!
//! * the inner scheme maps `PA → intermediate`;
//! * the outer scheme maps `intermediate → DA`;
//! * an inner migration `swap(x, y)` (intermediate space) is executed as
//!   the physical swap `swap(outer(x), outer(y))`;
//! * outer migrations are already physical.
//!
//! Both schemes run unmodified — the same one-operation contract the
//! WL-Reviver framework itself relies on. Stacking requires in-place
//! schemes (`total_das == len`): a gap line's "unmapped" hole has no
//! meaning in the intermediate space.

use crate::traits::{Migration, WearLeveler};
use wlr_base::{Da, Pa};

/// Two wear-leveling schemes composed into one (see module docs).
///
/// ```
/// use wlr_base::Pa;
/// use wlr_wl::{SecurityRefresh, Stacked, WearLeveler};
///
/// // The paper-faithful two-level Security Refresh: small inner regions,
/// // one outer region covering the chip.
/// let inner = SecurityRefresh::builder(1024)
///     .region_blocks(64)
///     .refresh_interval(50)
///     .seed(1)
///     .build();
/// let outer = SecurityRefresh::builder(1024)
///     .region_blocks(1024)
///     .refresh_interval(200)
///     .seed(2)
///     .build();
/// let wl = Stacked::new(Box::new(inner), Box::new(outer));
/// let da = wl.map(Pa::new(17));
/// assert_eq!(wl.inverse(da), Some(Pa::new(17)));
/// ```
#[derive(Debug, Clone)]
pub struct Stacked {
    inner: Box<dyn WearLeveler>,
    outer: Box<dyn WearLeveler>,
}

impl Stacked {
    /// Composes `inner` (PA → intermediate) with `outer`
    /// (intermediate → DA).
    ///
    /// # Panics
    ///
    /// Panics unless both schemes are in-place (`total_das() == len()`)
    /// and their spaces are equal.
    pub fn new(inner: Box<dyn WearLeveler>, outer: Box<dyn WearLeveler>) -> Self {
        assert_eq!(
            inner.total_das(),
            inner.len(),
            "inner scheme must be in-place to stack (no buffer line)"
        );
        assert_eq!(
            outer.total_das(),
            outer.len(),
            "outer scheme must be in-place to stack (no buffer line)"
        );
        assert_eq!(
            inner.len(),
            outer.len(),
            "stacked schemes must cover the same space"
        );
        Stacked { inner, outer }
    }

    /// The paper-faithful two-level Security Refresh configuration:
    /// an inner level of `inner_region`-block regions refreshing every
    /// `inner_interval` writes, under an outer level spanning the whole
    /// space refreshing every `outer_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics under [`crate::SecurityRefresh`]'s builder conditions.
    pub fn two_level_security_refresh(
        len: u64,
        inner_region: u64,
        inner_interval: u64,
        outer_interval: u64,
        seed: u64,
    ) -> Self {
        let inner = crate::SecurityRefresh::builder(len)
            .region_blocks(inner_region)
            .refresh_interval(inner_interval)
            .seed(seed ^ 0x1EE7)
            .build();
        let outer_region = len & len.wrapping_neg(); // largest pow2 divisor
        let outer = crate::SecurityRefresh::builder(len)
            .region_blocks(outer_region)
            .refresh_interval(outer_interval)
            .seed(seed ^ 0x0DDE)
            .build();
        Stacked::new(Box::new(inner), Box::new(outer))
    }

    /// Translates an intermediate-space migration into physical space.
    fn lift(&self, m: Migration) -> Migration {
        match m {
            Migration::Copy { src, dst } => Migration::Copy {
                src: self.outer.map(Pa::new(src.index())),
                dst: self.outer.map(Pa::new(dst.index())),
            },
            Migration::Swap { a, b } => Migration::Swap {
                a: self.outer.map(Pa::new(a.index())),
                b: self.outer.map(Pa::new(b.index())),
            },
        }
    }
}

impl WearLeveler for Stacked {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn total_das(&self) -> u64 {
        self.outer.total_das()
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        let mid = self.inner.map(pa);
        self.outer.map(Pa::new(mid.index()))
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        let mid = self.outer.inverse(da)?;
        self.inner.inverse(Da::new(mid.index()))
    }

    fn record_write(&mut self, pa: Pa) {
        self.inner.record_write(pa);
        let mid = self.inner.map(pa);
        self.outer.record_write(Pa::new(mid.index()));
    }

    fn pending(&self) -> Option<Migration> {
        // Outer migrations first: they are already physical and keep the
        // intermediate→DA view stable for lifting inner ones.
        if let Some(m) = self.outer.pending() {
            return Some(m);
        }
        self.inner.pending().map(|m| self.lift(m))
    }

    fn complete_migration(&mut self) {
        if self.outer.pending().is_some() {
            self.outer.complete_migration();
        } else {
            self.inner.complete_migration();
        }
    }

    fn label(&self) -> String {
        format!("{}+{}", self.inner.label(), self.outer.label())
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecurityRefresh;

    fn two_level(len: u64, seed: u64) -> Stacked {
        Stacked::two_level_security_refresh(len, 16, 3, 7, seed)
    }

    #[test]
    fn obeys_every_law() {
        let psi = crate::laws::PSI;
        crate::laws::leveler_laws(
            |n| {
                let inner_region = (n & n.wrapping_neg()).min(64);
                Stacked::two_level_security_refresh(n, inner_region, psi, 4 * psi, 7)
            },
            // The outer level alone is Security Refresh at 4ψ, and inner
            // swaps stay inside one outer region (see `security_refresh`).
            |n| (n % 2 == 0).then_some((4 * psi + 1) * n),
        );
    }

    #[test]
    fn outer_level_spreads_region_local_writes() {
        // Hammer one inner region only; with the outer level active the
        // physically-touched blocks must span more than that region.
        let n = 1024u64;
        let mut wl = two_level(n, 4);
        let mut touched = std::collections::HashSet::new();
        for i in 0..20_000u64 {
            let pa = Pa::new(i % 16); // one 16-block inner region
            wl.record_write(pa);
            touched.insert(wl.map(pa).index());
            while wl.pending().is_some() {
                wl.complete_migration();
            }
        }
        assert!(
            touched.len() > 64,
            "outer level should spread 16 hot blocks over the chip, got {}",
            touched.len()
        );
    }

    #[test]
    fn label_combines_both() {
        assert_eq!(
            two_level(64, 5).label(),
            "Security-Refresh+Security-Refresh"
        );
    }

    #[test]
    #[should_panic(expected = "must cover the same space")]
    fn mismatched_spaces_panic() {
        let a = SecurityRefresh::builder(64).region_blocks(64).build();
        let b = SecurityRefresh::builder(128).region_blocks(128).build();
        Stacked::new(Box::new(a), Box::new(b));
    }

    #[test]
    #[should_panic(expected = "must be in-place")]
    fn gapped_scheme_cannot_stack() {
        let a = crate::StartGap::builder(64).build();
        let b = SecurityRefresh::builder(64).region_blocks(64).build();
        Stacked::new(Box::new(a), Box::new(b));
    }
}
