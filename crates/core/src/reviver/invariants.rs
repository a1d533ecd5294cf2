//! Theorems 1–3 as runtime checks: the full-scan assertion
//! ([`RevivedController::assert_invariants`]) and the incremental
//! per-event checker ([`InvariantSink`]).

use super::events::{EventSink, ReviverEvent};
use super::RevivedController;
use crate::controller::Controller;
use wlr_base::Da;

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

/// An incremental Theorem-1 checker driven by the event spine.
///
/// Instead of rescanning every link after each request (what
/// [`RevivedController::assert_invariants`] in `check_invariants` mode
/// does), the sink accumulates the device addresses each link-mutating
/// event touched and validates only that *dirty set* when the controller
/// reaches a quiescent point ([`ReviverEvent::Quiesced`]). Violations
/// are recorded (inspect with [`InvariantSink::violations`]); the sink
/// never panics, so it is safe on ablation runs that break the
/// invariants on purpose.
///
/// `strict` mode drops the transient-state tolerances *and* the
/// switching gate: any linked block whose shadow resolves to another
/// dead block is flagged. That is exactly what the chain-growth ablation
/// (`chain_switching(false)`) produces, which the regression suite uses
/// to prove the sink catches seeded violations.
#[derive(Debug, Default)]
pub struct InvariantSink {
    strict: bool,
    dirty: Vec<Da>,
    violations: Vec<String>,
    checks: u64,
}

impl InvariantSink {
    /// A checker with the same tolerance rules as
    /// [`RevivedController::assert_invariants`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A checker with zero tolerance for multi-step chains (see the type
    /// docs); pair with the `chain_switching(false)` ablation to verify
    /// the sink actually fires.
    pub fn strict() -> Self {
        InvariantSink {
            strict: true,
            ..Self::default()
        }
    }

    /// Violations recorded so far, in detection order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Quiescent-point validations performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    fn mark(&mut self, da: Da) {
        if !self.dirty.contains(&da) {
            self.dirty.push(da);
        }
    }

    /// Marks `da` dirty plus — if some linked head's chain now resolves
    /// *into* `da` — that head too (a link appearing at `da` can turn the
    /// head's one-step chain into a two-step one). O(1): one mapping
    /// inverse plus one table lookup.
    fn mark_with_head(&mut self, ctl: &RevivedController, da: Da) {
        self.mark(da);
        if let Some(p) = ctl.safe_inverse(da) {
            if ctl.is_reserved_pa(p) {
                if let Some(head) = ctl.linked_head_of(p) {
                    if head != da {
                        self.mark(head);
                    }
                }
            }
        }
    }

    /// Validates one dirty address against the Theorem-1 chain shape.
    fn check_da(&mut self, ctl: &RevivedController, da: Da) {
        let Some(v) = ctl.shadow_of(da) else {
            return; // unlinked since it was marked
        };
        let sda = ctl.wear_leveler().map(v);
        if sda == da || !ctl.device().is_dead(sda) {
            return; // loop block or healthy shadow: one-step by definition
        }
        if self.strict {
            self.violations.push(format!(
                "strict: linked block {da} has dead shadow {sda} (multi-step chain)"
            ));
            return;
        }
        // Mirror assert_invariants' tolerances exactly: only an unlinked,
        // discovered dead shadow of a software-accessible head violates.
        let accessible = ctl.safe_inverse(da).is_some_and(|p| !ctl.is_reserved_pa(p));
        let tolerated = ctl.shadow_of(sda).is_some()
            || ctl.is_undiscovered(sda)
            || ctl.device().silent_failures().contains(&sda);
        if ctl.switching_enabled() && accessible && !tolerated {
            self.violations
                .push(format!("two-step chain at {da}: shadow {sda} is dead"));
        }
    }
}

impl EventSink for InvariantSink {
    fn on_event(&mut self, ctl: &RevivedController, ev: &ReviverEvent) {
        match ev {
            ReviverEvent::LinkCreated { da, .. } => self.mark_with_head(ctl, *da),
            ReviverEvent::Relinked { da, .. } => self.mark(*da),
            ReviverEvent::ChainSwitched { head, dead_shadow } => {
                self.mark(*head);
                self.mark(*dead_shadow);
            }
            ReviverEvent::LoopFormed { da } => self.mark(*da),
            ReviverEvent::Quiesced => {
                self.checks += 1;
                let dirty = std::mem::take(&mut self.dirty);
                for da in dirty {
                    self.check_da(ctl, da);
                }
            }
            _ => {}
        }
    }

    // Quiescent points are this sink's validation trigger.
    fn wants_quiesced(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
