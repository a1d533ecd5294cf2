//! The memory-controller interface the simulator drives.
//!
//! A controller owns the PCM device and a wear-leveling scheme and serves
//! software block reads/writes by PA. The implementations mirror the
//! paper's evaluation matrix:
//!
//! * [`crate::reviver::RevivedController`] — the paper's contribution:
//!   wear leveling keeps running across failures (`*-WLR` curves).
//! * [`crate::linked::LinkedController`] — every comparison column, as one
//!   direct-link engine over three spare supplies:
//!   [`crate::freep::FreepController`] (FREE-p adapted with a pre-reserved
//!   remap region, Figure 7; with a 0% reserve the plain `ECP6-SG` /
//!   `PAYG-SG` baseline that halts on the first failure),
//!   [`crate::lls::LlsController`] (Figure 8, Table II) and
//!   [`crate::zombie::ZombieController`] (§I-C).
//!
//! Controllers never talk to the OS directly — that is the paper's
//! point. They *return* what should be reported ([`WriteResult`]), and the
//! simulator plays the OS: it retires pages, performs the relocation
//! copies back through the controller, and notifies the controller of the
//! retirement ([`Controller::on_page_retired`]) so WL-Reviver can harvest
//! the page's PAs as virtual spare space.
//!
//! The simulator hands a controller up to 32 writes per virtual call
//! ([`Controller::write_run`]); the reviver inlines its steady path and its
//! leveler ([`wlr_wl::Leveler`]) into that loop.

use core::fmt;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::PcmDevice;

use crate::error::ReviverError;
use crate::recovery::RecoveryReport;

/// Outcome of a software write request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteResult {
    /// The write was serviced (possibly via a shadow block).
    Ok,
    /// The write was serviced as for [`Self::Ok`], but an armed fault
    /// plan fired on its way: a silent failure, or a power cut that the
    /// migration journal absorbed. Only [`Controller::write_run_armed`]
    /// returns it, having asked the device
    /// ([`PcmDevice::take_fault_fired`]); it ends that loop like any
    /// result other than `Ok`, so a slab ends on the write where a fault
    /// fires. The simulator treats it as `Ok`, then checks the power and
    /// the silent-failure log.
    OkFaulted,
    /// The controller raises an access-error exception for `pa` — the only
    /// OS interface WL-Reviver permits itself. The write's data was *not*
    /// stored; the OS's retirement procedure re-places it.
    ReportFailure(Pa),
    /// The controller asks the OS to retire these specific pages (explicit
    /// space reservation — the extra OS support LLS needs and WL-Reviver
    /// avoids). The triggering write was *not* serviced; retry it after
    /// granting the pages.
    RequestPages(Vec<PageId>),
    /// The write could not be serviced or reported — power was cut
    /// mid-operation, or torn metadata degraded the access. Nothing was
    /// stored; the simulator decides whether to crash-stop or retry after
    /// recovery.
    Dropped(ReviverError),
}

/// Request-level access accounting: the basis of Table II's "average PCM
/// access time for one software-issued request".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Software read/write requests serviced.
    pub requests: u64,
    /// PCM array accesses performed to serve those requests (excludes
    /// wear-leveling migration and failure-bookkeeping traffic, which the
    /// paper accounts separately as scheme overhead).
    pub accesses: u64,
}

impl RequestStats {
    /// Average PCM accesses per software request (1.0 is optimal).
    pub fn avg_access_time(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.accesses as f64 / self.requests as f64
        }
    }
}

/// A memory controller: device + wear leveling + (optionally) a
/// failure-revival strategy.
pub trait Controller: fmt::Debug + Send {
    /// The software-visible geometry.
    fn geometry(&self) -> &Geometry;

    /// Services a software read of `pa`; returns the stored content tag
    /// (0 when content tracking is off or the data is unrecoverable).
    fn read(&mut self, pa: Pa) -> u64;

    /// Services a software write of `tag` to `pa`.
    fn write(&mut self, pa: Pa, tag: u64) -> WriteResult;

    /// Writes `pas[i]` with tag `tag0 + i`, in order, stopping at the
    /// first result other than [`WriteResult::Ok`]. Returns how many
    /// writes it issued and the last one's result. An override must
    /// behave exactly like this loop.
    fn write_run(&mut self, pas: &[Pa], tag0: u64) -> (usize, WriteResult) {
        for (i, &pa) in pas.iter().enumerate() {
            let res = self.write(pa, tag0 + i as u64);
            if res != WriteResult::Ok {
                return (i + 1, res);
            }
        }
        (pas.len(), WriteResult::Ok)
    }

    /// [`Self::write_run`] on a device an armed fault plan may fault: also
    /// stops after a write that returned `Ok` while a fault fired on its
    /// way, returning [`WriteResult::OkFaulted`] for it. A fault fires
    /// only where a controller takes the device's slow path, so the mark
    /// is read once per write here and never on the plain loop's writes;
    /// once the plan is spent ([`PcmDevice::faults_pending`], asked once
    /// per slab) nothing can fire, and the slab is the plain loop's.
    fn write_run_armed(&mut self, pas: &[Pa], tag0: u64) -> (usize, WriteResult) {
        if !self.device().faults_pending() {
            return self.write_run(pas, tag0);
        }
        for (i, &pa) in pas.iter().enumerate() {
            let res = self.write(pa, tag0 + i as u64);
            // Taken whatever the result, so the mark always speaks of the
            // write just issued.
            let fired = self.device_mut().take_fault_fired();
            if res != WriteResult::Ok {
                return (i + 1, res);
            }
            if fired {
                return (i + 1, WriteResult::OkFaulted);
            }
        }
        (pas.len(), WriteResult::Ok)
    }

    /// Notifies the controller that the OS retired `page` (for any
    /// reason). WL-Reviver harvests the page's PAs as virtual spare space;
    /// baselines ignore it.
    fn on_page_retired(&mut self, page: PageId);

    /// The underlying device, for wear/failure inspection.
    fn device(&self) -> &PcmDevice;

    /// The underlying device, mutably — the fault-injection harness uses
    /// this to restore power and schedule crash points.
    fn device_mut(&mut self) -> &mut PcmDevice;

    /// Dead blocks within the software-visible space, as a fraction of it.
    fn visible_dead_fraction(&self) -> f64 {
        let n = self.geometry().num_blocks();
        self.device().visible_dead_blocks() as f64 / n as f64
    }

    /// Blocks the controller itself holds back from software use
    /// (FREE-p's remap region, LLS's acquired chunks; 0 for WL-Reviver,
    /// whose reservation happens entirely through OS page retirement).
    fn reserved_blocks(&self) -> u64 {
        0
    }

    /// Whether the wear-leveling scheme is still performing migrations
    /// (baselines freeze it on the first unhidden failure).
    fn wl_active(&self) -> bool;

    /// Whether a migration is currently suspended awaiting spare space
    /// (WL-Reviver's delayed acquisition; always false for baselines).
    fn suspended(&self) -> bool {
        false
    }

    /// Request-level access counters.
    fn request_stats(&self) -> RequestStats;

    /// Resets request-level counters (scopes a measurement window).
    fn reset_request_stats(&mut self);

    /// Controller label for experiment output (e.g. `"ECP6-SG-WLR"`).
    fn label(&self) -> String;

    /// Recovers from a power cut, or reboots after a clean power cycle:
    /// restores device power, loses volatile controller state (caches,
    /// in-flight migration buffers), keeps PCM-resident state (data,
    /// pointers, the retired-page bitmap) and rebuilds the rest by
    /// scanning, as the paper sketches in §III-A/B, reporting the cost.
    /// The baselines' metadata is modeled as fully persistent (a cut drops
    /// the write in flight and tears nothing of theirs), so by default
    /// there is nothing to rebuild; WL-Reviver overrides this with its
    /// §III-B scan.
    fn recover(&mut self) -> RecoveryReport {
        self.device_mut().restore_power();
        RecoveryReport::default()
    }

    /// Whether `page`'s retirement reached durable storage — the commit
    /// point the simulator's retirement transaction consults after a
    /// crash. Baselines persist retirements synchronously.
    fn retirement_persisted(&self, _page: PageId) -> bool {
        true
    }

    /// The software PA whose data currently lives in device block `da`
    /// (used to reconcile silent write failures). `None` means the block
    /// holds no attributable data. Deliberately without a default: a
    /// controller that cannot name the owner leaves the address a silent
    /// failure destroyed in the integrity oracle.
    fn logical_owner(&self, da: Da) -> Option<Pa>;

    /// Deep copy of the controller's full state (device image, leveler,
    /// link tables, spare pool, caches) — what a [`Simulation`] snapshot
    /// holds. The copy must behave bit-identically to the original under
    /// the same request sequence.
    ///
    /// [`Simulation`]: crate::sim::Simulation
    fn fork_box(&self) -> Box<dyn Controller>;

    /// Downcast to the WL-Reviver controller, when that is what this is
    /// (gives experiments access to the framework's event counters).
    fn as_reviver(&self) -> Option<&crate::reviver::RevivedController> {
        None
    }

    /// Mutable variant of [`Self::as_reviver`] (gives the fault-injection
    /// harness access to `inject_dead` and `restore_from`).
    fn as_reviver_mut(&mut self) -> Option<&mut crate::reviver::RevivedController> {
        None
    }

    /// Downcast to the LLS controller, when applicable.
    fn as_lls(&self) -> Option<&crate::lls::LlsController> {
        None
    }
}

impl Clone for Box<dyn Controller> {
    fn clone(&self) -> Self {
        self.fork_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_access_time_handles_empty_window() {
        let s = RequestStats::default();
        assert_eq!(s.avg_access_time(), 0.0);
    }

    #[test]
    fn avg_access_time_ratio() {
        let s = RequestStats {
            requests: 100,
            accesses: 150,
        };
        assert!((s.avg_access_time() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn write_result_equality() {
        assert_eq!(WriteResult::Ok, WriteResult::Ok);
        assert_ne!(WriteResult::Ok, WriteResult::ReportFailure(Pa::new(1)));
        assert_eq!(
            WriteResult::RequestPages(vec![PageId::new(1)]),
            WriteResult::RequestPages(vec![PageId::new(1)])
        );
    }
}
