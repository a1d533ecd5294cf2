//! The data-integrity oracle: the expected content of every application
//! block (a [`wlr_base::dense::DenseMap`] from app address to tag, whose
//! presence bitset is also its sorted key order), the spot and full
//! read-back checks against it, the exemptions injected faults earn (a
//! silently-failed line, a relocation copy a power cut dropped), and
//! application-level reads.

use super::{AppRead, Simulation};
use wlr_base::{AppAddr, Pa};

impl Simulation {
    /// Removes from the oracle the application address currently mapped
    /// to `pa` (a relocation copy that never landed because of an
    /// injected fault). Fault paths only — linear in tracked addresses.
    pub(super) fn exempt_pa(&mut self, pa: Pa) {
        let Some(oracle) = &self.expected else {
            return;
        };
        let hit = oracle.keys().find(|&k| {
            self.os
                .translate(AppAddr::new(k))
                .is_some_and(|cand| cand == pa)
        });
        if let Some(k) = hit {
            self.expected.as_mut().unwrap().remove(k);
        }
    }

    /// Reconciles newly-logged silent write failures with the oracle: the
    /// device reported those writes as stored but the block died, so
    /// whichever logical address owns the block has lost its data through
    /// no fault of the controller. The owner is resolved through the
    /// controller's current mapping and exempted from verification; the
    /// failure itself surfaces later as a normal (reported) failure when
    /// the block is next touched.
    pub(super) fn reconcile_silent_failures(&mut self) {
        let log_len = self.controller.device().silent_failures().len();
        while self.silent_seen < log_len {
            let da = self.controller.device().silent_failures()[self.silent_seen];
            self.silent_seen += 1;
            if let Some(pa) = self.controller.logical_owner(da) {
                self.exempt_pa(pa);
            }
        }
    }

    /// Reads back `count` random tracked addresses and compares with the
    /// oracle; increments [`Self::integrity_errors`] on mismatch.
    pub(super) fn verify_some(&mut self, count: usize) {
        let Some(oracle) = &self.expected else {
            return;
        };
        // Picks index the keys in ascending order, so verification
        // traffic is deterministic, exactly as the seed-state engine's
        // per-sample sort made it; the presence bitset is that order. A
        // read leaves the oracle alone, so each pick is checked as drawn.
        for _ in 0..count.min(oracle.len()) {
            let r = self.verify_rng.gen_range(oracle.len() as u64) as usize;
            let k = oracle.nth_key(r).expect("r < len");
            let Some(pa) = self.os.translate(AppAddr::new(k)) else {
                continue;
            };
            if self.controller.read(pa) != oracle.at(k) {
                self.integrity_errors += 1;
            }
        }
    }

    /// Reads back *every* tracked address (expensive; tests only) and
    /// returns each mismatch as `(app address, expected tag, observed tag)`.
    pub fn find_mismatches(&mut self) -> Vec<(u64, u64, u64)> {
        let Some(oracle) = &self.expected else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (k, want) in oracle.iter() {
            let Some(pa) = self.os.translate(AppAddr::new(k)) else {
                continue;
            };
            let got = self.controller.read(pa);
            if got != want {
                out.push((k, want, got));
            }
        }
        out
    }

    /// [`Self::find_mismatches`], counted: adds this pass's mismatches to
    /// [`Self::integrity_errors`] and returns their number.
    pub fn verify_all(&mut self) -> u64 {
        let errors = self.find_mismatches().len() as u64;
        self.integrity_errors += errors;
        errors
    }

    /// Application-level read of `addr`: translate through the OS, read
    /// through the controller, and classify any injected transient error
    /// the block's ECC could not absorb. The returned tag is meaningful
    /// only in integrity-oracle mode (content tracking on); otherwise it
    /// is 0.
    pub fn read_app(&mut self, addr: AppAddr) -> AppRead {
        let Some(pa) = self.os.translate(addr) else {
            return AppRead::Unmapped;
        };
        let uncorrectable = |sim: &Self| {
            let counters = sim.controller.device().fault_counters();
            counters.map_or(0, |c| c.transients_uncorrectable)
        };
        let before = uncorrectable(self);
        let tag = self.controller.read(pa);
        if uncorrectable(self) > before {
            AppRead::Transient
        } else {
            AppRead::Ok(tag)
        }
    }

    /// Snapshot of the integrity oracle: every tracked application
    /// address with its expected tag, in ascending address order. Empty
    /// when integrity verification is off. This is what degraded-mode
    /// quarantine evacuates from a dying bank.
    pub fn tracked_lines(&self) -> Vec<(u64, u64)> {
        match &self.expected {
            Some(o) => o.iter().collect(),
            None => Vec::new(),
        }
    }
}
