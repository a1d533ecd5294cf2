//! Theorems 1–3 as one runtime check: the full-scan assertion
//! [`RevivedController::assert_invariants`].

use super::RevivedController;
use wlr_base::Da;
use wlr_wl::WearLeveler;

impl RevivedController {
    /// Asserts the framework's structural invariants. Enabled per request
    /// via [`super::RevivedControllerBuilder::check_invariants`]; also
    /// callable directly from tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn assert_invariants(&self) {
        for (da_idx, v) in self.links.ptr.iter() {
            let da = Da::new(da_idx);
            assert!(self.device.is_dead(da), "linked block {da} is not dead");
            assert!(
                self.is_reserved(v),
                "virtual shadow {v} of {da} is not in a retired page"
            );
            assert_eq!(
                self.links.inv.get(v.index()),
                Some(da),
                "inverse pointer of {v} is inconsistent"
            );
            let sda = self.wl.map(v);
            // One-step chains (Theorem 1): for a *software-accessible*
            // failed block the shadow is healthy, or the block is on a
            // PA–DA loop and holds no data. A head whose own PA has been
            // retired (e.g. the page sacrificed by the very report that
            // ran the spares dry) may transiently carry a dead shadow; it
            // is healed lazily on the next touch, exactly like an
            // undiscovered failure (Theorem 2's note). A *linked* dead
            // shadow is likewise a transient two-step chain — a wear-level
            // migration can rotate a shadow PA onto a dead linked block
            // without moving live data (the source was an undiscovered
            // failure, so nothing was buffered and the Figure-3 repair
            // never ran) — collapsed by `switch` on the next touch. Only
            // an *unlinked*, *discovered* dead shadow is a real violation.
            let accessible = self.safe_inverse(da).is_some_and(|p| !self.is_reserved(p));
            let tolerated = self.links.ptr.contains_key(sda.index())
                || self.pool.undiscovered.contains(sda.index())
                || self.device.silent_failures().contains(&sda);
            assert!(
                !self.switching || !accessible || !self.device.is_dead(sda) || sda == da || tolerated,
                "two-step chain at {da} (PA {:?}, v {v}): shadow {sda} is dead (linked: {}, shadow inverse {:?})",
                self.safe_inverse(da),
                self.links.ptr.contains_key(sda.index()),
                self.safe_inverse(sda),
            );
        }
        for &v in &self.pool.spares {
            assert!(self.is_reserved(v), "spare {v} outside retired pages");
            assert!(
                !self.links.inv.contains_key(v.index()),
                "spare {v} is still linked"
            );
        }
        // Theorem 1 (reachability direction): every dead block mapped by a
        // software-accessible PA is linked — except undiscovered failures
        // (Theorem 2): injected blocks not yet touched, blocks recovery
        // could not heal, and silent write failures the device concealed.
        for da in self.device.dead_iter() {
            if self.pool.undiscovered.contains(da.index()) {
                continue;
            }
            if self.device.silent_failures().contains(&da)
                && !self.links.ptr.contains_key(da.index())
            {
                continue;
            }
            if let Some(p) = self.safe_inverse(da) {
                if !self.is_reserved(p) {
                    assert!(
                        self.links.ptr.contains_key(da.index()),
                        "software-accessible dead block {da} (PA {p}) unlinked"
                    );
                }
            }
        }
    }
}
