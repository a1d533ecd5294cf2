//! The direct-link baseline engine: one controller, three spare supplies.
//!
//! The paper's comparison columns — FREE-p (§IV-C, Figure 7), LLS (§IV-D,
//! Figure 8, Table II), Zombie (§I-C) and, as a zero-slot FREE-p, every
//! bare `ECC+WL` stack — hide a failed block the same way: the failed
//! block stores a forward pointer `failed DA → replacement DA`, and every
//! access to it follows the pointer. A replacement that later dies is
//! itself linked onward, so a hot block grows a chain. Because the link
//! names a *device* address, nothing it points at may move: replacements
//! live outside the wear-leveler's domain (or the leveler is frozen), and
//! the first failure no replacement can hide stops wear leveling for good
//! — the premise WL-Reviver exists to remove.
//!
//! What the schemes do differ in is where the replacement comes from, and
//! that is all a [`SpareSupply`] answers: [`crate::freep::Reserve`] pops a
//! fixed pre-reserved region, [`crate::lls::SalvageGroups`] pops the
//! failed block's salvage group and asks the OS for another chunk when it
//! is empty, [`crate::zombie::Harvest`] pops blocks harvested from pages
//! the OS has retired. [`LinkedController`] is everything else: the link
//! table, the remap cache, request accounting, migrations and the freeze.

use core::any::Any;
use core::fmt;

use crate::cache::RemapCache;
use crate::controller::{Controller, RequestStats, WriteResult};
use crate::error::ReviverError;
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{PcmDevice, WriteOutcome};
use wlr_wl::{Migration, WearLeveler};

/// Where a [`LinkedController`] gets the block that replaces a failed one,
/// and the handful of other things the direct-link schemes disagree on.
pub trait SpareSupply: Clone + fmt::Debug + Send + 'static {
    /// Whether the first block failure freezes wear leveling even though
    /// it is hidden (Zombie: its spares are mapped blocks, so the mapping
    /// must stop moving the moment one is in use).
    const FREEZES_ON_FAILURE: bool = false;

    /// How a write reaches the live end of a chain of dead replacements:
    /// by reading pointer after pointer before it touches the array
    /// (Zombie), or by following one link and finding each further dead
    /// replacement when the write to it fails — one more counted array
    /// write per hop (FREE-p, LLS).
    const WALKS_BEFORE_WRITE: bool = false;

    /// Called once by [`LinkedBuilder::build`]. `base` is the first device
    /// block beyond the wear-leveler's domain, `device_blocks` the size of
    /// the device; panics if that leaves no room for what the supply needs.
    fn install(&mut self, geo: &Geometry, base: u64, device_blocks: u64);

    /// The replacement for a block that failed in the chain of `origin`,
    /// the block the mapping designates. `None` is a shortage, and
    /// [`Self::pending_request`] says what it means.
    fn take(&mut self, origin: Da) -> Option<Da>;

    /// After a shortage: the pages the OS must retire before `take` can
    /// succeed — the write is retried once they are granted — or `None`
    /// when nothing more is coming and the failure must be exposed.
    fn pending_request(&self) -> Option<Vec<PageId>> {
        None
    }

    /// A block read on every uncached link lookup on top of the pointer
    /// itself (LLS's bitmap).
    fn lookup_block(&self) -> Option<Da> {
        None
    }

    /// The OS retired `page`. `healthy` yields, lazily, the page's live
    /// and unlinked device blocks under the current mapping.
    fn page_retired(&mut self, _page: PageId, _healthy: impl Iterator<Item = Da>) {}

    /// Blocks held back from software ([`Controller::reserved_blocks`]).
    fn reserved_blocks(&self) -> u64 {
        0
    }

    /// The scheme's part of [`Controller::label`]; empty for none.
    fn label(&self) -> &'static str;
}

/// A write that was not stored: a failure on its way found no replacement,
/// or the power was cut.
#[derive(Debug, Clone, Copy)]
struct Unstored;

/// Event counters of a [`LinkedController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkedCounters {
    /// Failed blocks linked to a replacement.
    pub links: u64,
    /// Failures exposed to the OS.
    pub reports: u64,
    /// Reads of blocks whose data was lost with the failure.
    pub garbage_reads: u64,
}

/// Builder for [`LinkedController`].
#[derive(Debug)]
pub struct LinkedBuilder<S> {
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    pub(crate) supply: S,
    cache_bytes: Option<usize>,
}

impl<S: SpareSupply> LinkedBuilder<S> {
    /// Starts building a controller over `device` driving `wl`, with
    /// replacements drawn from `supply`.
    pub fn new(device: PcmDevice, wl: Box<dyn WearLeveler>, supply: S) -> Self {
        LinkedBuilder {
            device,
            wl,
            supply,
            cache_bytes: None,
        }
    }

    /// Attaches a remap cache.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Constructs the controller.
    ///
    /// # Panics
    ///
    /// Panics if the wear-leveler does not match the geometry, or the
    /// supply rejects the device ([`SpareSupply::install`]).
    pub fn build(mut self) -> LinkedController<S> {
        let geo = *self.device.geometry();
        assert_eq!(
            self.wl.len(),
            geo.num_blocks(),
            "wear-leveler PA space must match the geometry"
        );
        let total = self.device.total_blocks();
        self.supply.install(&geo, self.wl.total_das(), total);
        LinkedController {
            geo,
            device: self.device,
            wl: self.wl,
            supply: self.supply,
            links: DenseMap::with_capacity(total),
            frozen: false,
            cache: self.cache_bytes.map(RemapCache::with_capacity_bytes),
            req: RequestStats::default(),
            counters: LinkedCounters::default(),
        }
    }
}

/// A controller that hides failures behind direct `failed DA →
/// replacement DA` links, generic over where replacements come from (see
/// module docs). [`crate::freep::FreepController`],
/// [`crate::lls::LlsController`] and [`crate::zombie::ZombieController`]
/// are its three instantiations.
#[derive(Debug, Clone)]
pub struct LinkedController<S> {
    geo: Geometry,
    pub(crate) device: PcmDevice,
    pub(crate) wl: Box<dyn WearLeveler>,
    pub(crate) supply: S,
    /// failed DA → replacement DA. Replacements never move.
    pub(crate) links: DenseMap<Da>,
    /// Set when a failure reached the wear-leveler: migrations stop
    /// forever and the mapping fossilizes.
    frozen: bool,
    cache: Option<RemapCache>,
    req: RequestStats,
    counters: LinkedCounters,
}

impl<S: SpareSupply> LinkedController<S> {
    /// Event counters.
    pub fn counters(&self) -> LinkedCounters {
        self.counters
    }

    /// Resolves a failed block's replacement through the cache. A miss
    /// reads the pointer out of the failed block (plus whatever else the
    /// supply's lookup costs).
    fn resolve_link(&mut self, da: Da, acct: bool) -> Option<Da> {
        if let Some(to) = self.cache.as_mut().and_then(|c| c.get(da.index())) {
            return Some(Da::new(to));
        }
        let to = self.links.get(da.index())?;
        self.device.read(da);
        let extra = self.supply.lookup_block().map(|b| self.device.read(b));
        if acct {
            self.req.accesses += 1 + u64::from(extra.is_some());
        }
        if let Some(c) = &mut self.cache {
            c.insert(da.index(), to.index());
        }
        Some(to)
    }

    /// Walks the chain from dead block `da` to its first live replacement.
    /// `Err` carries the dead, unlinked block a dead-ended chain stops on.
    /// Each replacement is handed out once, so the walk cannot cycle.
    fn follow_links(&mut self, da: Da, acct: bool) -> Result<Da, Da> {
        let mut cur = da;
        while self.device.is_dead(cur) {
            cur = self.resolve_link(cur, acct).ok_or(cur)?;
        }
        Ok(cur)
    }

    /// Hides dead block `dead`, found in the chain of `origin`, behind a
    /// fresh replacement and returns it.
    fn link(&mut self, dead: Da, origin: Da) -> Result<Da, Unstored> {
        if S::FREEZES_ON_FAILURE {
            self.frozen = true;
        }
        let to = self.supply.take(origin).ok_or(Unstored)?;
        self.links.insert(dead.index(), to);
        // Store the pointer; a dead block keeps no tag.
        debug_assert!(self.device.is_dead(dead), "only failed blocks are linked");
        self.device.write_tagged(dead, 0);
        if let Some(c) = &mut self.cache {
            c.insert(dead.index(), to.index());
        }
        self.counters.links += 1;
        Ok(to)
    }

    /// Writes `tag` to the block the mapping designates, through its
    /// chain, linking every failure it meets on the way.
    fn write_da(&mut self, da: Da, tag: u64, acct: bool) -> Result<(), Unstored> {
        let mut target = da;
        if self.device.is_dead(target) {
            let hop = if S::WALKS_BEFORE_WRITE {
                self.follow_links(target, acct)
            } else {
                self.resolve_link(target, acct).ok_or(target)
            };
            target = match hop {
                Ok(next) => next,
                // Dead and unlinked: the failure was found earlier, with
                // no replacement to be had (or never reported at all).
                Err(end) => self.link(end, da)?,
            };
        }
        let mut fuel = self.device.total_blocks() + 2;
        loop {
            assert!(fuel > 0, "link chain failed to converge at {da}");
            fuel -= 1;
            match self.device.write_tagged(target, tag) {
                WriteOutcome::Ok => {
                    if acct {
                        self.req.accesses += 1;
                    }
                    return Ok(());
                }
                // A replacement that died earlier, under another write.
                WriteOutcome::AlreadyDead => {
                    target = match self.resolve_link(target, acct) {
                        Some(next) => next,
                        None => self.link(target, da)?,
                    }
                }
                WriteOutcome::NewFailure => {
                    if acct {
                        self.req.accesses += 1; // the failing write cycled the array
                    }
                    target = self.link(target, da)?;
                }
                // Injected power cut: the write is dropped. All baseline
                // state is modelled persistent, so there is nothing to
                // tear; callers tell a cut from a shortage by asking the
                // device.
                WriteOutcome::Lost => return Err(Unstored),
            }
        }
    }

    /// Reads the data the mapping keeps at `da`, through its chain. `None`
    /// is a garbage read: the block died with nothing hiding it.
    fn read_da(&mut self, da: Da, acct: bool) -> Option<u64> {
        let at = self.follow_links(da, acct);
        self.device.read(at.unwrap_or(da));
        if acct {
            self.req.accesses += 1;
        }
        if at.is_err() {
            self.counters.garbage_reads += 1;
        }
        at.ok().map(|at| self.device.tag(at))
    }

    /// A migration's source read: garbage moves as whatever the dead
    /// block still holds.
    fn migration_read(&mut self, src: Da) -> u64 {
        self.read_da(src, false)
            .unwrap_or_else(|| self.device.tag(src))
    }

    /// Performs pending migrations. A failure nothing can hide freezes
    /// wear leveling permanently (the paper's central premise); a supply
    /// waiting for pages only leaves the migration pending.
    fn run_migrations(&mut self) {
        while !self.frozen {
            let Some(m) = self.wl.pending() else { break };
            let moved = match m {
                Migration::Copy { src, dst } => {
                    let t = self.migration_read(src);
                    // On failure the data still lives at src: the mapping
                    // is not advanced.
                    self.write_da(dst, t, false)
                        .map(|()| self.wl.complete_migration())
                }
                Migration::Swap { a, b } => {
                    let ta = self.migration_read(a);
                    let tb = self.migration_read(b);
                    self.wl.complete_migration();
                    let r1 = self.write_da(b, ta, false);
                    self.write_da(a, tb, false).and(r1)
                }
            };
            if moved.is_err() {
                // A power cut is not a failure: it freezes nothing.
                self.frozen |= self.device.powered() && self.supply.pending_request().is_none();
                return;
            }
        }
    }
}

impl<S: SpareSupply> Controller for LinkedController<S> {
    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn read(&mut self, pa: Pa) -> u64 {
        self.req.requests += 1;
        let da = self.wl.map(pa);
        self.read_da(da, true).unwrap_or(0)
    }

    fn write(&mut self, pa: Pa, tag: u64) -> WriteResult {
        self.req.requests += 1;
        // A request a migration left pending surfaces before anything else.
        if let Some(pages) = self.supply.pending_request() {
            return WriteResult::RequestPages(pages);
        }
        let da = self.wl.map(pa);
        if self.write_da(da, tag, true).is_err() {
            // Not serviced. A power cut costs this one write and nothing
            // else. Otherwise either the simulator retries the write after
            // granting the pages the supply waits for, or nothing hides
            // this failure and the OS gets to see it.
            if !self.device.powered() {
                return WriteResult::Dropped(ReviverError::PowerLoss);
            }
            if let Some(pages) = self.supply.pending_request() {
                return WriteResult::RequestPages(pages);
            }
            self.frozen = true;
            self.counters.reports += 1;
            return WriteResult::ReportFailure(pa);
        }
        if !self.frozen {
            self.wl.record_write(pa);
            self.run_migrations();
        }
        WriteResult::Ok
    }

    fn on_page_retired(&mut self, page: PageId) {
        let (wl, device, links) = (&self.wl, &self.device, &self.links);
        let healthy = self
            .geo
            .page_pas(page)
            .map(|pa| wl.map(pa))
            .filter(|&da| !device.is_dead(da) && !links.contains_key(da.index()));
        self.supply.page_retired(page, healthy);
    }

    fn device(&self) -> &PcmDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut PcmDevice {
        &mut self.device
    }

    fn reserved_blocks(&self) -> u64 {
        self.supply.reserved_blocks()
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

    fn as_lls(&self) -> Option<&crate::lls::LlsController> {
        (self as &dyn Any).downcast_ref()
    }

    /// Walks the links backwards from `da` to the block the mapping
    /// designates (the one no link points at) and inverts the mapping
    /// there. Fault path only — linear in the link table per hop, like
    /// the simulator's `exempt_pa`.
    fn logical_owner(&self, da: Da) -> Option<Pa> {
        let mut head = da;
        while let Some((from, _)) = self.links.iter().find(|&(_, to)| to == head) {
            head = Da::new(from);
        }
        // Reserved replacements lie outside the leveler's domain.
        (head.index() < self.wl.total_das())
            .then(|| self.wl.inverse(head))
            .flatten()
    }

    fn fork_box(&self) -> Box<dyn Controller> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        let wl = self.wl.label();
        let wl = match wl.as_str() {
            "Start-Gap" => "SG",
            "Security-Refresh" => "SR",
            "none" => "",
            other => other,
        };
        let mut label = self.device.ecc_label();
        for part in [wl, self.supply.label()].iter().filter(|p| !p.is_empty()) {
            label = label + "-" + part;
        }
        label
    }
}
