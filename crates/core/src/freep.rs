//! FREE-p adapted with a pre-reserved remap region (paper §IV-C), and —
//! at a 0% reserve — the plain `ECC+WL` baseline of Figures 5 and 6.
//!
//! FREE-p as published acquires free slots incrementally with OS support
//! and records each slot's *device* address directly in the failed block.
//! Because wear-leveling migration would move the slot's data and strand
//! the pointer, the paper adapts it: a fixed fraction of PCM is
//! pre-reserved as the remap region, invisible to software and *outside*
//! the wear-leveling domain, so the direct DA links stay valid. The
//! adapted scheme works with Start-Gap until the reserve runs dry; the
//! first unhidden failure then reaches the wear-leveler, which — like any
//! algebraic-mapping scheme — ceases to function: migrations freeze, the
//! mapping fossilizes, and every further failure costs the OS a page.

use crate::cache::RemapCache;
use crate::controller::{linked_owner, Controller, RequestStats, WriteResult};
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{PcmDevice, WriteOutcome};
use wlr_wl::{Migration, WearLeveler};

/// Event counters for the FREE-p baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreepCounters {
    /// Failed blocks linked to reserved slots.
    pub links: u64,
    /// Failures exposed to the OS (reserve exhausted).
    pub reports: u64,
    /// Reads of blocks whose data was lost with the failure.
    pub garbage_reads: u64,
}

/// Builder for [`FreepController`].
#[derive(Debug)]
pub struct FreepControllerBuilder {
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    reserve_blocks: u64,
    cache_bytes: Option<usize>,
}

impl FreepControllerBuilder {
    /// Attaches a remap cache.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Constructs the controller.
    ///
    /// # Panics
    ///
    /// Panics if the wear-leveler does not match the geometry or the
    /// device lacks the buffer + reserve blocks.
    pub fn build(self) -> FreepController {
        let geo = *self.device.geometry();
        assert_eq!(
            self.wl.len(),
            geo.num_blocks(),
            "wear-leveler PA space must match the geometry"
        );
        let slot_base = self.wl.total_das();
        assert!(
            self.device.total_blocks() >= slot_base + self.reserve_blocks,
            "device lacks reserve blocks: {} < {}",
            self.device.total_blocks(),
            slot_base + self.reserve_blocks
        );
        // Slots handed out from the base upward (LIFO order irrelevant).
        let slots = (slot_base..slot_base + self.reserve_blocks)
            .rev()
            .map(Da::new)
            .collect();
        let total = self.device.total_blocks();
        FreepController {
            geo,
            device: self.device,
            wl: self.wl,
            reserve_blocks: self.reserve_blocks,
            slots,
            links: DenseMap::with_capacity(total),
            frozen: false,
            cache: self.cache_bytes.map(RemapCache::with_capacity_bytes),
            req: RequestStats::default(),
            counters: FreepCounters::default(),
        }
    }
}

/// The FREE-p-adapted controller (see module docs).
///
/// ```
/// use wlr_base::Geometry;
/// use wlr_pcm::{Ecp, PcmDevice};
/// use wlr_wl::{RandomizerKind, StartGap};
/// use wl_reviver::freep::FreepController;
/// use wl_reviver::controller::Controller;
///
/// let geo = Geometry::builder().num_blocks(128).build()?;
/// // 5% reserve: 6 slot blocks + 1 gap line as extra device space.
/// let device = PcmDevice::builder(geo).extra_blocks(7).build();
/// let wl = StartGap::builder(128)
///     .randomizer(RandomizerKind::Feistel { seed: 1 })
///     .build();
/// let ctl = FreepController::builder(device, Box::new(wl), 6).build();
/// assert_eq!(ctl.reserved_blocks(), 6);
/// assert!(ctl.wl_active());
/// # Ok::<(), wlr_base::geometry::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct FreepController {
    geo: Geometry,
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    reserve_blocks: u64,
    /// Free reserved slots (device addresses outside the WL domain).
    slots: Vec<Da>,
    /// failed DA → slot DA (FREE-p's direct link; slots never move).
    links: DenseMap<Da>,
    /// Set when a failure reached the wear-leveler: migrations stop
    /// forever and the mapping fossilizes.
    frozen: bool,
    cache: Option<RemapCache>,
    req: RequestStats,
    counters: FreepCounters,
}

impl Clone for FreepController {
    fn clone(&self) -> Self {
        FreepController {
            geo: self.geo,
            device: self.device.clone(),
            wl: self.wl.clone_box(),
            reserve_blocks: self.reserve_blocks,
            slots: self.slots.clone(),
            links: self.links.clone(),
            frozen: self.frozen,
            cache: self.cache.clone(),
            req: self.req,
            counters: self.counters,
        }
    }
}

impl FreepController {
    /// Starts building a FREE-p controller with `reserve_blocks` slots.
    pub fn builder(
        device: PcmDevice,
        wl: Box<dyn WearLeveler>,
        reserve_blocks: u64,
    ) -> FreepControllerBuilder {
        FreepControllerBuilder {
            device,
            wl,
            reserve_blocks,
            cache_bytes: None,
        }
    }

    /// Event counters.
    pub fn counters(&self) -> FreepCounters {
        self.counters
    }

    /// Remaining free slots in the reserve.
    pub fn free_slots(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Whether wear leveling has been crippled by an unhidden failure.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Resolves a failed block's slot through the cache.
    fn resolve_link(&mut self, da: Da, acct: bool) -> Option<Da> {
        if let Some(c) = &mut self.cache {
            if let Some(s) = c.get(da.index()) {
                return Some(Da::new(s));
            }
        }
        let s = self.links.get(da.index()).copied();
        if let Some(s) = s {
            self.device.read(da); // pointer read from the failed block
            if acct {
                self.req.accesses += 1;
            }
            if let Some(c) = &mut self.cache {
                c.insert(da.index(), s.index());
            }
        }
        s
    }

    /// Writes `tag` to the block the mapping designates, hiding the
    /// failure behind a slot when possible. `Err(())` means the failure
    /// must be exposed (reserve dry): the caller freezes and reports.
    fn write_da(&mut self, da: Da, tag: u64, acct: bool) -> Result<(), ()> {
        let mut target = da;
        // Follow an existing link first.
        if self.device.is_dead(target) {
            match self.resolve_link(target, acct) {
                Some(slot) => target = slot,
                None => return Err(()), // unhidden dead block
            }
        }
        let mut fuel = self.links.len() + self.slots.len() + 4;
        loop {
            assert!(fuel > 0, "slot chain failed to converge at {da}");
            fuel -= 1;
            match self.device.write_tagged(target, tag) {
                WriteOutcome::Ok => {
                    if acct {
                        self.req.accesses += 1;
                    }
                    return Ok(());
                }
                WriteOutcome::AlreadyDead => {
                    // A slot that died earlier in another chain; follow it.
                    match self.resolve_link(target, acct) {
                        Some(next) => {
                            target = next;
                            continue;
                        }
                        None => return Err(()),
                    }
                }
                WriteOutcome::NewFailure => {
                    if acct {
                        self.req.accesses += 1; // the failing write cycled the array
                    }
                    // Fresh failure: link to a new slot. The link is
                    // recorded on the *original* failed block `da` when the
                    // failure is the first in this chain, or re-pointed
                    // from the dying slot otherwise (FREE-p chains slots).
                    let Some(slot) = self.slots.pop() else {
                        return Err(());
                    };
                    self.links.insert(target.index(), slot);
                    self.device.write(target); // store the pointer
                    if let Some(c) = &mut self.cache {
                        c.insert(target.index(), slot.index());
                    }
                    self.counters.links += 1;
                    target = slot;
                }
                // Injected power loss: the write is dropped. Baselines
                // model all their state as persistent, so there is
                // nothing to tear — the request is simply not serviced.
                WriteOutcome::Lost => return Err(()),
            }
        }
    }

    fn migration_read(&mut self, src: Da) -> u64 {
        if !self.device.is_dead(src) {
            self.device.read(src);
            return self.device.tag(src);
        }
        match self.follow_links(src, false) {
            Some(slot) => {
                self.device.read(slot);
                self.device.tag(slot)
            }
            None => {
                self.counters.garbage_reads += 1;
                self.device.read(src);
                self.device.tag(src)
            }
        }
    }

    /// Walks the slot chain from dead block `da` to the first healthy
    /// slot, or `None` if the chain dead-ends (unhidden failure).
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

    /// Performs pending migrations; a failure that cannot be hidden
    /// freezes wear leveling permanently (the paper's central premise).
    fn run_migrations(&mut self) {
        while !self.frozen {
            let Some(m) = self.wl.pending() else { break };
            match m {
                Migration::Copy { src, dst } => {
                    let t = self.migration_read(src);
                    if self.write_da(dst, t, false).is_err() {
                        // Data still lives at src (mapping not advanced);
                        // the scheme is simply dead from here on.
                        self.frozen = true;
                        return;
                    }
                    self.wl.complete_migration();
                }
                Migration::Swap { a, b } => {
                    let ta = self.migration_read(a);
                    let tb = self.migration_read(b);
                    self.wl.complete_migration();
                    let r1 = self.write_da(b, ta, false);
                    let r2 = self.write_da(a, tb, false);
                    if r1.is_err() || r2.is_err() {
                        self.frozen = true;
                        return;
                    }
                }
            }
        }
    }
}

impl Controller for FreepController {
    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn read(&mut self, pa: Pa) -> u64 {
        self.req.requests += 1;
        let da = self.wl.map(pa);
        if !self.device.is_dead(da) {
            self.device.read(da);
            self.req.accesses += 1;
            return self.device.tag(da);
        }
        match self.follow_links(da, true) {
            Some(slot) => {
                self.device.read(slot);
                self.req.accesses += 1;
                self.device.tag(slot)
            }
            None => {
                self.counters.garbage_reads += 1;
                self.device.read(da);
                self.req.accesses += 1;
                0
            }
        }
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
                self.frozen = true;
                self.counters.reports += 1;
                WriteResult::ReportFailure(pa)
            }
        }
    }

    fn on_page_retired(&mut self, _page: PageId) {
        // FREE-p gains nothing from retirement: its reserve is fixed.
    }

    fn device(&self) -> &PcmDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut PcmDevice {
        &mut self.device
    }

    fn reserved_blocks(&self) -> u64 {
        self.reserve_blocks
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

    fn as_freep(&self) -> Option<&FreepController> {
        Some(self)
    }

    fn logical_owner(&self, da: Da) -> Option<Pa> {
        linked_owner(self.wl.as_ref(), &self.links, da)
    }

    fn fork_box(&self) -> Option<Box<dyn Controller>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> String {
        let wl_label = self.wl.label();
        let wl = match wl_label.as_str() {
            "Start-Gap" => "SG",
            "Security-Refresh" => "SR",
            "none" => {
                return if self.reserve_blocks == 0 {
                    self.device.ecc_label()
                } else {
                    format!("{}-FREEp", self.device.ecc_label())
                }
            }
            other => other,
        };
        if self.reserve_blocks == 0 {
            format!("{}-{}", self.device.ecc_label(), wl)
        } else {
            format!("{}-{}-FREEp", self.device.ecc_label(), wl)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_pcm::Ecp;
    use wlr_wl::{NoWearLeveling, RandomizerKind, StartGap};

    const N: u64 = 256;

    fn geo() -> Geometry {
        Geometry::builder().num_blocks(N).build().unwrap()
    }

    fn make(reserve: u64, endurance: f64, psi: u64, seed: u64) -> FreepController {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + reserve)
            .endurance_mean(endurance)
            .seed(seed)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(psi)
            .randomizer(RandomizerKind::Feistel { seed })
            .build();
        FreepController::builder(device, Box::new(wl), reserve).build()
    }

    #[test]
    fn healthy_round_trip() {
        let mut ctl = make(8, 1e9, 5, 1);
        for i in 0..N {
            assert_eq!(ctl.write(Pa::new(i), i + 1), WriteResult::Ok);
        }
        for i in 0..N {
            assert_eq!(ctl.read(Pa::new(i)), i + 1);
        }
        assert!(ctl.wl_active());
    }

    #[test]
    fn failure_hidden_while_slots_last() {
        let mut ctl = make(8, 300.0, 1_000_000, 2);
        let pa = Pa::new(9);
        let mut last = 0;
        for i in 1..30_000u64 {
            assert_eq!(ctl.write(pa, i), WriteResult::Ok, "write {i}");
            last = i;
            if ctl.counters().links > 0 {
                break;
            }
        }
        assert!(ctl.counters().links > 0, "block never failed");
        assert!(ctl.wl_active(), "reserve should hide the failure");
        assert_eq!(ctl.read(pa), last);
        assert_eq!(ctl.free_slots(), 7);
    }

    #[test]
    fn zero_reserve_freezes_on_first_failure() {
        let mut ctl = make(0, 300.0, 5, 3);
        let pa = Pa::new(9);
        let mut reported = false;
        for i in 0..30_000u64 {
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(rep) => {
                    assert_eq!(rep, pa);
                    reported = true;
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert!(reported);
        assert!(!ctl.wl_active(), "first failure must cripple Start-Gap");
        assert_eq!(ctl.counters().reports, 1);
    }

    #[test]
    fn exhausted_reserve_eventually_freezes() {
        let mut ctl = make(2, 200.0, 1_000_000, 4);
        let mut reports = 0;
        for i in 0..400_000u64 {
            let pa = Pa::new(i % N);
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(_) => {
                    reports += 1;
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert_eq!(reports, 1);
        assert!(!ctl.wl_active());
        assert_eq!(ctl.free_slots(), 0);
    }

    #[test]
    fn frozen_map_still_serves_linked_blocks() {
        let mut ctl = make(1, 250.0, 1_000_000, 5);
        // Exhaust the single slot, then freeze on a second failing block.
        let mut frozen_at = None;
        for i in 0..400_000u64 {
            let pa = Pa::new(i % N);
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(_) => {
                    frozen_at = Some(i);
                    break;
                }
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert!(frozen_at.is_some());
        // Blocks linked before the freeze keep working.
        assert!(ctl.counters().links >= 1);
        let linked_da = ctl.links.keys().next().unwrap();
        let linked_pa = ctl.wl.inverse(Da::new(linked_da)).unwrap();
        assert_eq!(ctl.write(linked_pa, 123), WriteResult::Ok);
        assert_eq!(ctl.read(linked_pa), 123);
    }

    #[test]
    fn works_without_wear_leveling_as_pure_ecc_baseline() {
        let device = PcmDevice::builder(geo())
            .endurance_mean(300.0)
            .seed(6)
            .ecc(Box::new(Ecp::ecp6()))
            .build();
        let mut ctl = FreepController::builder(device, Box::new(NoWearLeveling::new(N)), 0).build();
        assert_eq!(ctl.label(), "ECP6");
        let pa = Pa::new(3);
        let mut reported = false;
        for i in 0..30_000u64 {
            if ctl.write(pa, i) != WriteResult::Ok {
                reported = true;
                break;
            }
        }
        assert!(reported, "no-WL baseline must expose the failure");
    }

    #[test]
    fn labels() {
        assert_eq!(make(0, 1e9, 5, 7).label(), "ECP6-SG");
        assert_eq!(make(8, 1e9, 5, 7).label(), "ECP6-SG-FREEp");
    }

    #[test]
    fn cache_reduces_linked_access_cost() {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + 8)
            .endurance_mean(300.0)
            .seed(8)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(1_000_000)
            .randomizer(RandomizerKind::Feistel { seed: 8 })
            .build();
        let mut ctl = FreepController::builder(device, Box::new(wl), 8)
            .cache_bytes(1024)
            .build();
        let pa = Pa::new(9);
        for i in 0..30_000u64 {
            ctl.write(pa, i);
            if ctl.counters().links > 0 {
                break;
            }
        }
        assert!(ctl.counters().links > 0);
        ctl.read(pa); // warm the cache
        ctl.reset_request_stats();
        ctl.read(pa);
        assert_eq!(ctl.request_stats().accesses, 1);
    }
}
