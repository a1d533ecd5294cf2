//! The LLS baseline (Jiang et al., TACO 2013), as characterized in §II
//! and §IV-D of the WL-Reviver paper.
//!
//! LLS also keeps wear leveling alive across failures, but differs from
//! WL-Reviver in exactly the four ways the paper measures:
//!
//! 1. **Explicit OS support**: reserved space is acquired from the OS in
//!    large *chunks* (64 MB on the paper's 1 GB chip — 1/16 of the space;
//!    scaled here to 1/16 of the block count), emitted as
//!    [`WriteResult::RequestPages`].
//! 2. **Salvage groups**: a failed block may only use a backup block of
//!    its own group (`da mod groups`), so one hot group exhausts its slots
//!    while others idle — forcing early chunk acquisitions and wasting
//!    reserved space.
//! 3. **Adapted randomization**: integrating Start-Gap requires
//!    restricting its static randomizer to map each half of the PA space
//!    into the other half ([`wlr_wl::HalfRestrictedRandomizer`]), which
//!    keeps concentrated writes from spreading chip-wide — the cause of
//!    LLS's shorter lifetime in Figure 8.
//! 4. **Bitmap indirection**: each access to a failed block reads the
//!    failed block, a bitmap block, and the backup — three PCM accesses
//!    uncached, versus WL-Reviver's two.
//!
//! Backup blocks live outside the wear-leveling domain (the paper: idle
//! reserved blocks "do not participate in wear leveling"), modeled here as
//! a private device region beyond the scheme's DA space; acquiring a chunk
//! simultaneously asks the OS to retire an equal amount of software space,
//! which is where the usable-space staircase of Figure 8 comes from.

use crate::cache::RemapCache;
use crate::controller::{linked_owner, Controller, RequestStats, WriteResult};
use std::collections::VecDeque;
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{PcmDevice, WriteOutcome};
use wlr_wl::{Migration, WearLeveler};

/// Event counters for the LLS baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlsCounters {
    /// Failed blocks linked to backup slots.
    pub links: u64,
    /// Chunks acquired from the OS.
    pub chunks: u64,
    /// Failures exposed to the OS after all chunks were consumed.
    pub reports: u64,
    /// Reads of blocks whose data was lost with the failure.
    pub garbage_reads: u64,
}

/// Builder for [`LlsController`].
#[derive(Debug)]
pub struct LlsControllerBuilder {
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    chunk_blocks: u64,
    max_chunks: u64,
    groups: u64,
    cache_bytes: Option<usize>,
}

impl LlsControllerBuilder {
    /// Reservation chunk size in blocks (default: 1/16 of the space).
    pub fn chunk_blocks(mut self, blocks: u64) -> Self {
        self.chunk_blocks = blocks;
        self
    }

    /// Maximum chunks LLS may acquire (default 16 — the whole space).
    pub fn max_chunks(mut self, chunks: u64) -> Self {
        self.max_chunks = chunks;
        self
    }

    /// Number of salvage groups (default 64).
    pub fn groups(mut self, groups: u64) -> Self {
        self.groups = groups;
        self
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
    /// Panics on mismatched geometry, a chunk size that is not a whole
    /// number of pages, or a device lacking the backup region.
    pub fn build(self) -> LlsController {
        let geo = *self.device.geometry();
        assert_eq!(
            self.wl.len(),
            geo.num_blocks(),
            "wear-leveler PA space must match the geometry"
        );
        assert!(self.chunk_blocks > 0, "chunk size must be nonzero");
        assert_eq!(
            self.chunk_blocks % geo.blocks_per_page(),
            0,
            "chunks must be whole pages"
        );
        assert!(self.groups > 0, "need at least one salvage group");
        let backup_base = self.wl.total_das();
        assert!(
            self.device.total_blocks() >= backup_base + self.chunk_blocks * self.max_chunks,
            "device lacks the backup region"
        );
        let total = self.device.total_blocks();
        LlsController {
            geo,
            device: self.device,
            wl: self.wl,
            chunk_blocks: self.chunk_blocks,
            max_chunks: self.max_chunks,
            groups: self.groups,
            backup_base,
            chunks_acquired: 0,
            group_free: vec![VecDeque::new(); self.groups as usize],
            links: DenseMap::with_capacity(total),
            frozen: false,
            chunk_wanted: false,
            next_victim_page: geo.num_pages(),
            cache: self.cache_bytes.map(RemapCache::with_capacity_bytes),
            req: RequestStats::default(),
            counters: LlsCounters::default(),
        }
    }
}

/// The LLS controller (see module docs).
#[derive(Debug)]
pub struct LlsController {
    geo: Geometry,
    device: PcmDevice,
    wl: Box<dyn WearLeveler>,
    chunk_blocks: u64,
    max_chunks: u64,
    groups: u64,
    backup_base: u64,
    chunks_acquired: u64,
    /// Free backup slots per salvage group.
    group_free: Vec<VecDeque<Da>>,
    /// failed DA → backup DA.
    links: DenseMap<Da>,
    frozen: bool,
    /// Set when a failure needs a chunk; the next write surfaces the
    /// request to the OS.
    chunk_wanted: bool,
    /// Next software page to hand to the OS when reserving a chunk
    /// (descending from the top of the PA space).
    next_victim_page: u64,
    cache: Option<RemapCache>,
    req: RequestStats,
    counters: LlsCounters,
}

impl Clone for LlsController {
    fn clone(&self) -> Self {
        LlsController {
            geo: self.geo,
            device: self.device.clone(),
            wl: self.wl.clone_box(),
            chunk_blocks: self.chunk_blocks,
            max_chunks: self.max_chunks,
            groups: self.groups,
            backup_base: self.backup_base,
            chunks_acquired: self.chunks_acquired,
            group_free: self.group_free.clone(),
            links: self.links.clone(),
            frozen: self.frozen,
            chunk_wanted: self.chunk_wanted,
            next_victim_page: self.next_victim_page,
            cache: self.cache.clone(),
            req: self.req,
            counters: self.counters,
        }
    }
}

impl LlsController {
    /// Starts building an LLS controller; `wl` should use
    /// [`wlr_wl::RandomizerKind::HalfRestricted`] per the paper.
    pub fn builder(device: PcmDevice, wl: Box<dyn WearLeveler>) -> LlsControllerBuilder {
        let blocks = device.geometry().num_blocks();
        let bpp = device.geometry().blocks_per_page();
        let chunk_blocks = (blocks / 16).max(bpp);
        LlsControllerBuilder {
            device,
            wl,
            chunk_blocks,
            max_chunks: (blocks / chunk_blocks).min(16),
            groups: 64,
            cache_bytes: None,
        }
    }

    /// Event counters.
    pub fn counters(&self) -> LlsCounters {
        self.counters
    }

    /// Chunks acquired so far.
    pub fn chunks_acquired(&self) -> u64 {
        self.chunks_acquired
    }

    /// Whether wear leveling has been crippled (all chunks consumed and a
    /// failure left unhidden).
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Read access to the wear-leveler (for inspection and tooling).
    pub fn wear_leveler(&self) -> &dyn WearLeveler {
        self.wl.as_ref()
    }

    /// Force-fails device block `da` without wearing it (Table II setup).
    pub fn inject_dead(&mut self, da: Da) {
        self.device.inject_dead(da);
    }

    /// The page list the OS must retire to grant the next chunk, or
    /// `None` if LLS is out of chunks (or out of software pages).
    fn next_chunk_pages(&self) -> Option<Vec<PageId>> {
        if self.chunks_acquired >= self.max_chunks {
            return None;
        }
        let pages_per_chunk = self.chunk_blocks / self.geo.blocks_per_page();
        if self.next_victim_page < pages_per_chunk {
            return None;
        }
        Some(
            (self.next_victim_page - pages_per_chunk..self.next_victim_page)
                .map(PageId::new)
                .collect(),
        )
    }

    /// Commits the chunk after the OS granted its pages: backup slots are
    /// dealt round-robin into the salvage groups.
    fn commit_chunk(&mut self) {
        let start = self.backup_base + self.chunks_acquired * self.chunk_blocks;
        for i in 0..self.chunk_blocks {
            let group = (i % self.groups) as usize;
            self.group_free[group].push_back(Da::new(start + i));
        }
        self.chunks_acquired += 1;
        let pages_per_chunk = self.chunk_blocks / self.geo.blocks_per_page();
        self.next_victim_page -= pages_per_chunk;
        self.chunk_wanted = false;
        self.counters.chunks += 1;
    }

    fn group_of(&self, da: Da) -> usize {
        (da.index() % self.groups) as usize
    }

    /// Resolves a failed block's backup. A cache miss costs two extra PCM
    /// reads: the failed block and the bitmap.
    fn resolve_link(&mut self, da: Da, acct: bool) -> Option<Da> {
        if let Some(c) = &mut self.cache {
            if let Some(b) = c.get(da.index()) {
                return Some(Da::new(b));
            }
        }
        let b = self.links.get(da.index()).copied();
        if let Some(b) = b {
            self.device.read(da); // the failed block
            self.device.read(Da::new(self.backup_base)); // the bitmap
            if acct {
                self.req.accesses += 2;
            }
            if let Some(c) = &mut self.cache {
                c.insert(da.index(), b.index());
            }
        }
        b
    }

    /// Takes a free backup slot for `group`. `Err(true)` = a chunk is
    /// needed (retryable after the OS grants it); `Err(false)` = LLS is
    /// out of reservable space.
    fn take_slot(&mut self, group: usize) -> Result<Da, bool> {
        if let Some(slot) = self.group_free[group].pop_front() {
            return Ok(slot);
        }
        if self.next_chunk_pages().is_some() {
            self.chunk_wanted = true;
            Err(true)
        } else {
            Err(false)
        }
    }

    /// Links `target` to a fresh same-group backup slot and returns it.
    fn link_to_slot(&mut self, target: Da, group: usize) -> Result<Da, bool> {
        let slot = self.take_slot(group)?;
        self.links.insert(target.index(), slot);
        self.device.write(target); // pointer + bitmap update
        if let Some(c) = &mut self.cache {
            c.insert(target.index(), slot.index());
        }
        self.counters.links += 1;
        Ok(slot)
    }

    /// Writes to the block the mapping designates. `Err(true)` = a chunk
    /// is needed (retryable); `Err(false)` = unhideable failure.
    fn write_da(&mut self, da: Da, tag: u64, acct: bool) -> Result<(), bool> {
        let mut target = da;
        let group = self.group_of(da);
        if self.device.is_dead(target) {
            match self.resolve_link(target, acct) {
                Some(b) => target = b,
                // Dead and unlinked: the failure was discovered earlier
                // while no slot was available; link it now.
                None => target = self.link_to_slot(target, group)?,
            }
        }
        let mut fuel = self.chunk_blocks * self.max_chunks + 2;
        loop {
            assert!(fuel > 0, "backup chain failed to converge at {da}");
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
                    None => target = self.link_to_slot(target, group)?,
                },
                WriteOutcome::NewFailure => {
                    if acct {
                        self.req.accesses += 1;
                    }
                    // A fresh failure needs a same-group backup slot.
                    target = self.link_to_slot(target, group)?;
                }
                // Injected power loss: drop the write, expose nothing.
                WriteOutcome::Lost => return Err(false),
            }
        }
    }

    fn migration_read(&mut self, src: Da) -> u64 {
        if !self.device.is_dead(src) {
            self.device.read(src);
            return self.device.tag(src);
        }
        match self.follow_links(src, false) {
            Some(b) => {
                self.device.read(b);
                self.device.tag(b)
            }
            None => {
                self.counters.garbage_reads += 1;
                self.device.read(src);
                self.device.tag(src)
            }
        }
    }

    /// Walks the backup chain from dead block `da` to the first healthy
    /// backup, or `None` if the chain dead-ends.
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

    fn run_migrations(&mut self) {
        while !self.frozen && !self.chunk_wanted {
            let Some(m) = self.wl.pending() else { break };
            match m {
                Migration::Copy { src, dst } => {
                    let t = self.migration_read(src);
                    match self.write_da(dst, t, false) {
                        Ok(()) => self.wl.complete_migration(),
                        Err(true) => return, // chunk_wanted set; retry later
                        Err(false) => {
                            self.frozen = true;
                            return;
                        }
                    }
                }
                Migration::Swap { a, b } => {
                    let ta = self.migration_read(a);
                    let tb = self.migration_read(b);
                    self.wl.complete_migration();
                    let r1 = self.write_da(b, ta, false);
                    let r2 = self.write_da(a, tb, false);
                    if matches!(r1, Err(false)) || matches!(r2, Err(false)) {
                        self.frozen = true;
                        return;
                    }
                    if r1.is_err() || r2.is_err() {
                        return;
                    }
                }
            }
        }
    }
}

impl Controller for LlsController {
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
            Some(b) => {
                self.device.read(b);
                self.req.accesses += 1;
                self.device.tag(b)
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
        if self.chunk_wanted {
            // Surface the pending chunk request before anything else.
            if let Some(pages) = self.next_chunk_pages() {
                return WriteResult::RequestPages(pages);
            }
            self.chunk_wanted = false;
        }
        let da = self.wl.map(pa);
        match self.write_da(da, tag, true) {
            Ok(()) => {
                if !self.frozen {
                    self.wl.record_write(pa);
                    self.run_migrations();
                }
                WriteResult::Ok
            }
            Err(true) => {
                // Need a chunk; the write was not serviced — the simulator
                // retries it after granting the pages.
                let pages = self
                    .next_chunk_pages()
                    .expect("chunk_wanted implies availability");
                WriteResult::RequestPages(pages)
            }
            Err(false) => {
                self.frozen = true;
                self.counters.reports += 1;
                WriteResult::ReportFailure(pa)
            }
        }
    }

    fn on_page_retired(&mut self, page: PageId) {
        // Chunk grants arrive as retirements of the requested pages; the
        // chunk commits when its last page lands.
        if self.chunk_wanted {
            let pages_per_chunk = self.chunk_blocks / self.geo.blocks_per_page();
            let lo = self.next_victim_page - pages_per_chunk;
            if page.index() >= lo && page.index() < self.next_victim_page && page.index() == lo {
                self.commit_chunk();
            }
        }
        // Failure-triggered retirements (post-freeze) carry no benefit.
    }

    fn device(&self) -> &PcmDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut PcmDevice {
        &mut self.device
    }

    fn reserved_blocks(&self) -> u64 {
        // The space cost of acquired chunks is already visible as retired
        // software pages; counting it here would double-book it.
        0
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

    fn as_lls(&self) -> Option<&LlsController> {
        Some(self)
    }

    fn logical_owner(&self, da: Da) -> Option<Pa> {
        linked_owner(self.wl.as_ref(), &self.links, da)
    }

    fn fork_box(&self) -> Option<Box<dyn Controller>> {
        Some(Box::new(self.clone()))
    }

    fn label(&self) -> String {
        format!("{}-SG-LLS", self.device.ecc_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_pcm::Ecp;
    use wlr_wl::{RandomizerKind, StartGap};

    const N: u64 = 512; // 8 pages

    fn geo() -> Geometry {
        Geometry::builder().num_blocks(N).build().unwrap()
    }

    fn make(endurance: f64, psi: u64, seed: u64) -> LlsController {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + N) // gap + full backup region (16 chunks of N/16)
            .endurance_mean(endurance)
            .seed(seed)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(psi)
            .randomizer(RandomizerKind::HalfRestricted { seed })
            .build();
        LlsController::builder(device, Box::new(wl))
            .groups(8)
            .build()
    }

    /// Drives a write, granting chunk requests like the simulator would.
    fn os_write(ctl: &mut LlsController, pa: Pa, tag: u64) -> WriteResult {
        for _ in 0..4 {
            match ctl.write(pa, tag) {
                WriteResult::RequestPages(pages) => {
                    for p in pages {
                        ctl.on_page_retired(p);
                    }
                }
                other => return other,
            }
        }
        panic!("chunk grant loop did not settle");
    }

    #[test]
    fn healthy_round_trip() {
        let mut ctl = make(1e9, 5, 1);
        for i in 0..N {
            assert_eq!(ctl.write(Pa::new(i), i + 1), WriteResult::Ok);
        }
        for i in 0..N {
            assert_eq!(ctl.read(Pa::new(i)), i + 1);
        }
    }

    #[test]
    fn first_failure_requests_a_chunk() {
        let mut ctl = make(300.0, 1_000_000, 2);
        let pa = Pa::new(9);
        let mut requested = false;
        for i in 0..30_000u64 {
            match ctl.write(pa, i) {
                WriteResult::Ok => {}
                WriteResult::RequestPages(pages) => {
                    // One chunk = chunk_blocks/bpp pages from the top.
                    assert_eq!(
                        pages.len() as u64,
                        (N / 16) / 64 + u64::from(!(N / 16).is_multiple_of(64))
                    );
                    for p in pages {
                        ctl.on_page_retired(p);
                    }
                    requested = true;
                }
                other => panic!("should request, got {other:?}"),
            }
            if requested && ctl.counters().links > 0 {
                break;
            }
        }
        assert!(requested);
        assert_eq!(ctl.chunks_acquired(), 1);
        assert!(ctl.counters().links > 0);
        assert!(ctl.wl_active(), "LLS survives failures");
    }

    #[test]
    fn linked_block_round_trips() {
        let mut ctl = make(300.0, 1_000_000, 3);
        let pa = Pa::new(9);
        let mut last = 0;
        for i in 1..30_000u64 {
            match os_write(&mut ctl, pa, i) {
                WriteResult::Ok => last = i,
                other => panic!("unexpected {other:?}"),
            }
            if ctl.counters().links > 0 {
                break;
            }
        }
        assert!(ctl.counters().links > 0);
        assert_eq!(ctl.read(pa), last);
    }

    #[test]
    fn failed_access_costs_three_uncached() {
        let mut ctl = make(300.0, 1_000_000, 4);
        let pa = Pa::new(9);
        for i in 0..30_000u64 {
            os_write(&mut ctl, pa, i);
            if ctl.counters().links > 0 {
                break;
            }
        }
        ctl.reset_request_stats();
        ctl.read(pa);
        assert_eq!(
            ctl.request_stats().accesses,
            3,
            "failed block + bitmap + backup"
        );
    }

    #[test]
    fn cache_cuts_failed_access_to_one() {
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + N)
            .endurance_mean(300.0)
            .seed(5)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(1_000_000)
            .randomizer(RandomizerKind::HalfRestricted { seed: 5 })
            .build();
        let mut ctl = LlsController::builder(device, Box::new(wl))
            .groups(8)
            .cache_bytes(1024)
            .build();
        let pa = Pa::new(9);
        for i in 0..30_000u64 {
            os_write(&mut ctl, pa, i);
            if ctl.counters().links > 0 {
                break;
            }
        }
        ctl.read(pa); // warm
        ctl.reset_request_stats();
        ctl.read(pa);
        assert_eq!(ctl.request_stats().accesses, 1);
    }

    #[test]
    fn group_exhaustion_forces_second_chunk() {
        // With one group, every failure competes for the same slots; with
        // a tiny chunk the second chunk comes quickly.
        let device = PcmDevice::builder(geo())
            .extra_blocks(1 + N)
            .endurance_mean(150.0)
            .seed(6)
            .ecc(Box::new(Ecp::ecp6()))
            .track_contents(true)
            .build();
        let wl = StartGap::builder(N)
            .gap_interval(20)
            .randomizer(RandomizerKind::HalfRestricted { seed: 6 })
            .build();
        let mut ctl = LlsController::builder(device, Box::new(wl))
            .chunk_blocks(64)
            .max_chunks(8)
            .groups(64)
            .build();
        let mut i = 0u64;
        while ctl.chunks_acquired() < 2 && i < 2_000_000 {
            i += 1;
            let pa = Pa::new(i % (N / 2)); // hammer the lower half
            match os_write(&mut ctl, pa, i) {
                WriteResult::Ok => {}
                WriteResult::ReportFailure(_) => break,
                other => unreachable!("unexpected write result: {other:?}"),
            }
        }
        assert!(
            ctl.chunks_acquired() >= 2,
            "only {} chunks after {i} writes",
            ctl.chunks_acquired()
        );
    }

    #[test]
    fn label() {
        assert_eq!(make(1e9, 5, 7).label(), "ECP6-SG-LLS");
    }
}
