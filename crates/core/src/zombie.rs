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

use crate::cache::RemapCache;
use crate::controller::{linked_owner, Controller, RequestStats, WriteResult};
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{PcmDevice, WriteOutcome};
use wlr_wl::{Migration, WearLeveler};

/// Event counters for the Zombie baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZombieCounters {
    /// Failed blocks linked to spare blocks.
    pub links: u64,
    /// Failures reported to the OS (pool empty → page acquisition).
    pub reports: u64,
    /// Pages harvested for spares.
    pub page_grants: u64,
    /// Reads of blocks whose data was lost with the failure.
    pub garbage_reads: u64,
}

/// Builder for [`ZombieController`].
#[derive(Debug)]
pub struct ZombieControllerBuilder {
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    cache_bytes: Option<usize>,
}

impl ZombieControllerBuilder {
    /// Attaches a remap cache.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Constructs the controller.
    ///
    /// # Panics
    ///
    /// Panics if the wear-leveler does not match the geometry.
    pub fn build(self) -> ZombieController {
        let geo = *self.device.geometry();
        assert_eq!(
            self.wl.len(),
            geo.num_blocks(),
            "wear-leveler PA space must match the geometry"
        );
        let total = self.device.total_blocks();
        ZombieController {
            geo,
            device: self.device,
            wl: self.wl,
            spares: Vec::new(),
            links: DenseMap::with_capacity(total),
            frozen: false,
            retired: vec![false; geo.num_pages() as usize],
            cache: self.cache_bytes.map(RemapCache::with_capacity_bytes),
            req: RequestStats::default(),
            counters: ZombieCounters::default(),
        }
    }
}

/// The Zombie-adapted controller (see module docs).
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
#[derive(Debug)]
pub struct ZombieController {
    geo: Geometry,
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    /// Spare device blocks from retired pages (fixed DAs — the mapping is
    /// frozen by the time any are used).
    spares: Vec<Da>,
    /// failed DA → spare DA (Zombie's direct pairing pointer).
    links: DenseMap<Da>,
    frozen: bool,
    retired: Vec<bool>,
    cache: Option<RemapCache>,
    req: RequestStats,
    counters: ZombieCounters,
}

impl Clone for ZombieController {
    fn clone(&self) -> Self {
        ZombieController {
            geo: self.geo,
            device: self.device.clone(),
            wl: self.wl.clone_box(),
            spares: self.spares.clone(),
            links: self.links.clone(),
            frozen: self.frozen,
            retired: self.retired.clone(),
            cache: self.cache.clone(),
            req: self.req,
            counters: self.counters,
        }
    }
}

impl ZombieController {
    /// Starts building a Zombie controller over `device` driving `wl`.
    pub fn builder(device: PcmDevice, wl: Box<dyn WearLeveler>) -> ZombieControllerBuilder {
        ZombieControllerBuilder {
            device,
            wl,
            cache_bytes: None,
        }
    }

    /// Event counters.
    pub fn counters(&self) -> ZombieCounters {
        self.counters
    }

    /// Spare blocks currently available.
    pub fn free_spares(&self) -> u64 {
        self.spares.len() as u64
    }

    /// Whether wear leveling has been crippled (true from the first
    /// failure onward — the adaptation's premise).
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    fn resolve_link(&mut self, da: Da, acct: bool) -> Option<Da> {
        if let Some(c) = &mut self.cache {
            if let Some(s) = c.get(da.index()) {
                return Some(Da::new(s));
            }
        }
        let s = self.links.get(da.index()).copied();
        if let Some(s) = s {
            self.device.read(da); // pairing pointer lives in the failed block
            if acct {
                self.req.accesses += 1;
            }
            if let Some(c) = &mut self.cache {
                c.insert(da.index(), s.index());
            }
        }
        s
    }

    fn follow_links(&mut self, da: Da, acct: bool) -> Option<Da> {
        let mut cur = da;
        let mut fuel = self.links.len() + 2;
        while self.device.is_dead(cur) {
            if fuel == 0 {
                return None;
            }
            fuel -= 1;
            cur = self.resolve_link(cur, acct)?;
        }
        Some(cur)
    }

    /// Writes through the link chain; `Err(())` = needs a page from the OS.
    fn write_da(&mut self, da: Da, tag: u64, acct: bool) -> Result<(), ()> {
        let mut target = da;
        if self.device.is_dead(target) {
            match self.follow_links(target, acct) {
                Some(t) => target = t,
                None => {
                    // Dead, unlinked end of chain: link it now if we can.
                    target = self.link_last_dead(target)?;
                }
            }
        }
        let mut fuel = self.links.len() + self.spares.len() + 4;
        loop {
            assert!(fuel > 0, "zombie chain failed to converge at {da}");
            fuel -= 1;
            match self.device.write_tagged(target, tag) {
                WriteOutcome::Ok => {
                    if acct {
                        self.req.accesses += 1;
                    }
                    return Ok(());
                }
                WriteOutcome::AlreadyDead => match self.resolve_link(target, acct) {
                    Some(next) => target = next,
                    None => target = self.link_last_dead(target)?,
                },
                WriteOutcome::NewFailure => {
                    if acct {
                        self.req.accesses += 1;
                    }
                    // First failure anywhere freezes the scheme (module
                    // docs); afterwards spares hide the damage.
                    self.frozen = true;
                    target = self.link_last_dead(target)?;
                }
                // Injected power loss: drop the write.
                WriteOutcome::Lost => return Err(()),
            }
        }
    }

    /// Pairs dead block `dead` with a fresh spare, or asks for a page.
    fn link_last_dead(&mut self, dead: Da) -> Result<Da, ()> {
        self.frozen = true;
        let Some(spare) = self.spares.pop() else {
            return Err(());
        };
        self.links.insert(dead.index(), spare);
        self.device.write(dead); // store the pairing pointer
        if let Some(c) = &mut self.cache {
            c.insert(dead.index(), spare.index());
        }
        self.counters.links += 1;
        Ok(spare)
    }

    fn run_migrations(&mut self) {
        while !self.frozen {
            let Some(m) = self.wl.pending() else { break };
            match m {
                Migration::Copy { src, dst } => {
                    let t = self.read_block(src, false);
                    match self.device.write_tagged(dst, t) {
                        WriteOutcome::Ok => self.wl.complete_migration(),
                        _ => {
                            self.frozen = true;
                            return;
                        }
                    }
                }
                Migration::Swap { a, b } => {
                    let ta = self.read_block(a, false);
                    let tb = self.read_block(b, false);
                    self.wl.complete_migration();
                    let ra = self.device.write_tagged(b, ta);
                    let rb = self.device.write_tagged(a, tb);
                    if ra != WriteOutcome::Ok || rb != WriteOutcome::Ok {
                        self.frozen = true;
                        return;
                    }
                }
            }
        }
    }

    fn read_block(&mut self, da: Da, acct: bool) -> u64 {
        if !self.device.is_dead(da) {
            self.device.read(da);
            if acct {
                self.req.accesses += 1;
            }
            return self.device.tag(da);
        }
        match self.follow_links(da, acct) {
            Some(t) => {
                self.device.read(t);
                if acct {
                    self.req.accesses += 1;
                }
                self.device.tag(t)
            }
            None => {
                self.counters.garbage_reads += 1;
                self.device.read(da);
                if acct {
                    self.req.accesses += 1;
                }
                0
            }
        }
    }
}

impl Controller for ZombieController {
    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn read(&mut self, pa: Pa) -> u64 {
        self.req.requests += 1;
        let da = self.wl.map(pa);
        self.read_block(da, true)
    }

    fn write(&mut self, pa: Pa, tag: u64) -> WriteResult {
        self.req.requests += 1;
        let da = self.wl.map(pa);
        match self.write_da(da, tag, true) {
            Ok(()) => {
                if !self.frozen {
                    self.wl.record_write(pa);
                    self.run_migrations();
                }
                WriteResult::Ok
            }
            Err(()) => {
                self.counters.reports += 1;
                WriteResult::ReportFailure(pa)
            }
        }
    }

    fn on_page_retired(&mut self, page: PageId) {
        if self.retired[page.as_usize()] {
            return;
        }
        self.retired[page.as_usize()] = true;
        // The disabled page's blocks become spares, addressed by the
        // (now frozen) mapping of its PAs.
        let healthy: Vec<Da> = self
            .geo
            .page_pas(page)
            .map(|pa| self.wl.map(pa))
            .filter(|&da| !self.device.is_dead(da) && !self.links.contains_key(da.index()))
            .collect();
        self.spares.extend(healthy);
        self.counters.page_grants += 1;
    }

    fn device(&self) -> &PcmDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut PcmDevice {
        &mut self.device
    }

    fn wl_active(&self) -> bool {
        !self.frozen
    }

    fn request_stats(&self) -> RequestStats {
        self.req
    }

    fn reset_request_stats(&mut self) {
        self.req = RequestStats::default();
    }

    fn logical_owner(&self, da: Da) -> Option<Pa> {
        linked_owner(self.wl.as_ref(), &self.links, da)
    }

    fn fork_box(&self) -> Option<Box<dyn Controller>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> String {
        let wl = match self.wl.label().as_str() {
            "Start-Gap" => "SG-",
            "Security-Refresh" => "SR-",
            _ => "",
        };
        format!("{}-{}Zombie", self.device.ecc_label(), wl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
