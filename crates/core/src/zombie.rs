//! The Zombie baseline (Azevedo et al., ISCA'13), as characterized in
//! §I-C/§II of the WL-Reviver paper.
//!
//! Zombie pairs a failed block in a working page with a spare block taken
//! from a *disabled* (OS-retired) page, recording the spare's device
//! address in the failed block. Space is acquired incrementally — one
//! page per ~spare-supply exhaustion, exactly like WL-Reviver's virtual
//! spare space — but the link is a **DA→DA pointer**: §I-D's third issue
//! applies in full. If wear leveling migrated data, a spare's content
//! would move and the failed block "cannot find its data via its recorded
//! address"; since neither FREE-p nor Zombie record a back pointer,
//! re-linking would be prohibitively expensive. The faithful adaptation
//! is therefore the same as for FREE-p: **wear leveling freezes at the
//! first block failure**, after which Zombie keeps the *pages* alive by
//! hiding subsequent failures behind spares from retired pages.
//!
//! Comparing the three (Figure 6-style):
//!
//! * `EccOnly` — every failure costs a 64-block page;
//! * `Zombie` — a failure costs one spare block; a page is sacrificed
//!   only when the spare pool runs dry (≈1 page per 64 failures), but
//!   leveling is dead, so hot blocks keep failing fast;
//! * `WL-Reviver` — same incremental page cost *and* the scheme keeps
//!   leveling, which is the paper's whole point.

use crate::linked::{LinkedBuilder, LinkedController, SpareSupply};
use wlr_base::{Da, Geometry, PageId};
use wlr_pcm::PcmDevice;
use wlr_wl::WearLeveler;

/// Zombie's spare supply: the live blocks of pages the OS has retired,
/// addressed by the (by then frozen) mapping of their PAs. An empty pool
/// reports the failure, and the page that costs refills it.
#[derive(Debug, Clone, Default)]
pub struct Harvest {
    spares: Vec<Da>,
    /// Pages already harvested: a page yields its blocks once.
    retired: Vec<bool>,
}

impl SpareSupply for Harvest {
    const FREEZES_ON_FAILURE: bool = true;
    const WALKS_BEFORE_WRITE: bool = true;

    fn install(&mut self, geo: &Geometry, _base: u64, _device_blocks: u64) {
        self.retired = vec![false; geo.num_pages() as usize];
    }

    fn take(&mut self, _origin: Da) -> Option<Da> {
        self.spares.pop()
    }

    fn page_retired(&mut self, page: PageId, healthy: impl Iterator<Item = Da>) {
        if !std::mem::replace(&mut self.retired[page.as_usize()], true) {
            self.spares.extend(healthy);
        }
    }

    fn label(&self) -> &'static str {
        "Zombie"
    }
}

/// The Zombie-adapted controller (see module docs): the direct-link
/// engine over a [`Harvest`].
///
/// ```
/// use wlr_base::{Geometry, Pa};
/// use wlr_pcm::{Ecp, PcmDevice};
/// use wlr_wl::NoWearLeveling;
/// use wl_reviver::controller::Controller;
/// use wl_reviver::zombie::ZombieController;
///
/// let geo = Geometry::builder().num_blocks(128).build()?;
/// let device = PcmDevice::builder(geo).build();
/// let ctl = ZombieController::builder(device, Box::new(NoWearLeveling::new(128))).build();
/// assert!(ctl.wl_active());
/// assert_eq!(ctl.free_spares(), 0);
/// # Ok::<(), wlr_base::geometry::GeometryError>(())
/// ```
pub type ZombieController = LinkedController<Harvest>;

impl LinkedController<Harvest> {
    /// Starts building a Zombie controller over `device` driving `wl`.
    pub fn builder(device: PcmDevice, wl: Box<dyn WearLeveler>) -> LinkedBuilder<Harvest> {
        LinkedBuilder::new(device, wl, Harvest::default())
    }

    /// Spare blocks currently available.
    pub fn free_spares(&self) -> u64 {
        self.supply.spares.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, WriteResult};
    use wlr_base::Pa;
    use wlr_pcm::Ecp;
    use wlr_wl::{RandomizerKind, StartGap};

    const N: u64 = 256;

    fn make(endurance: f64, psi: u64, seed: u64) -> ZombieController {
        let geo = Geometry::builder().num_blocks(N).build().unwrap();
        let device = PcmDevice::builder(geo)
            .extra_blocks(1)
            .endurance_mean(endurance)
            .seed(seed)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(psi)
            .randomizer(RandomizerKind::Feistel { seed })
            .build();
        ZombieController::builder(device, Box::new(wl)).build()
    }

    #[test]
    fn healthy_round_trip_with_leveling() {
        let mut ctl = make(1e9, 5, 1);
        for i in 0..N {
            assert_eq!(ctl.write(Pa::new(i), i + 1), WriteResult::Ok);
        }
        for i in 0..N {
            assert_eq!(ctl.read(Pa::new(i)), i + 1);
        }
        assert!(ctl.wl_active());
    }

    #[test]
    fn first_failure_freezes_and_reports() {
        let mut ctl = make(300.0, 1_000_000, 2);
        let pa = Pa::new(9);
        let mut reported = None;
        for i in 0..30_000u64 {
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(rep) => {
                    reported = Some(rep);
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert_eq!(reported, Some(pa));
        assert!(!ctl.wl_active(), "zombie freezes leveling at first failure");
    }

    #[test]
    fn retired_page_supplies_spares_for_many_failures() {
        let mut ctl = make(250.0, 1_000_000, 3);
        let mut os_retired: Vec<bool> = vec![false; 4];
        let mut reports = 0u64;
        let mut rng = wlr_base::rng::Rng::seed_from(7);
        for i in 0..600_000u64 {
            // Pick an accessible PA.
            let pa = loop {
                let p = Pa::new(rng.gen_range(N));
                if !os_retired[(p.index() / 64) as usize] {
                    break p;
                }
            };
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(rep) => {
                    reports += 1;
                    let page = ctl.geometry().page_of(rep);
                    os_retired[page.as_usize()] = true;
                    ctl.on_page_retired(page);
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
            if ctl.counters().links > 80 {
                break;
            }
        }
        assert!(
            ctl.counters().links > 80,
            "spares should hide many failures (got {})",
            ctl.counters().links
        );
        assert!(
            reports <= 3,
            "one page should cover dozens of failures, got {reports} reports"
        );
    }

    #[test]
    fn linked_blocks_round_trip_after_freeze() {
        let mut ctl = make(300.0, 1_000_000, 4);
        // Force the first report, grant the page.
        let pa = Pa::new(9);
        let mut i = 0u64;
        loop {
            i += 1;
            assert!(i < 60_000);
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(rep) => {
                    ctl.on_page_retired(ctl.geometry().page_of(rep));
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        // Hammer another PA (outside the retired page) until it fails and
        // gets a spare; its data must keep round-tripping.
        let pa2 = Pa::new(200);
        let mut last = 0;
        for j in 0..60_000u64 {
            match ctl.write(pa2, j) {
                WriteResult::Ok => last = j,
                _ => panic!("spares should hide this failure"),
            }
            if ctl.counters().links > 0 && ctl.read(pa2) == last {
                break;
            }
        }
        assert!(ctl.counters().links > 0);
        assert_eq!(ctl.read(pa2), last);
    }

    #[test]
    fn label() {
        assert_eq!(make(1e9, 5, 5).label(), "ECP6-SG-Zombie");
    }
}
