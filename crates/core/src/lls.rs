//! The LLS baseline (Jiang et al., TACO 2013), as characterized in §II
//! and §IV-D of the WL-Reviver paper.
//!
//! LLS also keeps wear leveling alive across failures, but differs from
//! WL-Reviver in exactly the four ways the paper measures:
//!
//! 1. **Explicit OS support**: reserved space is acquired from the OS in
//!    large *chunks* (64 MB on the paper's 1 GB chip — 1/16 of the space;
//!    scaled here to 1/16 of the block count), emitted as
//!    [`crate::WriteResult::RequestPages`].
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

use crate::linked::{LinkedBuilder, LinkedController, SpareSupply};
use std::collections::VecDeque;
use wlr_base::{Da, Geometry, PageId};
use wlr_pcm::PcmDevice;
use wlr_wl::WearLeveler;

/// LLS's spare supply: backup slots acquired from the OS a chunk at a
/// time and dealt into salvage groups; a failed block may only draw from
/// the group of the block the mapping designates.
#[derive(Debug, Clone, Default)]
pub struct SalvageGroups {
    chunk_blocks: u64,
    max_chunks: u64,
    groups: u64,
    pages_per_chunk: u64,
    /// First block of the backup region (and, by convention, the bitmap).
    backup_base: u64,
    chunks_acquired: u64,
    /// Free backup slots per salvage group.
    group_free: Vec<VecDeque<Da>>,
    /// Set when a failure needs a chunk; the next write surfaces the
    /// request to the OS.
    chunk_wanted: bool,
    /// Next software page to hand to the OS when reserving a chunk
    /// (descending from the top of the PA space).
    next_victim_page: u64,
}

impl SalvageGroups {
    /// The page list the OS must retire to grant the next chunk, or
    /// `None` if LLS is out of chunks (or out of software pages).
    fn next_chunk_pages(&self) -> Option<Vec<PageId>> {
        if self.chunks_acquired >= self.max_chunks || self.next_victim_page < self.pages_per_chunk {
            return None;
        }
        Some(
            (self.next_victim_page - self.pages_per_chunk..self.next_victim_page)
                .map(PageId::new)
                .collect(),
        )
    }
}

impl SpareSupply for SalvageGroups {
    fn install(&mut self, geo: &Geometry, base: u64, device_blocks: u64) {
        assert!(self.chunk_blocks > 0, "chunk size must be nonzero");
        assert_eq!(
            self.chunk_blocks % geo.blocks_per_page(),
            0,
            "chunks must be whole pages"
        );
        assert!(self.groups > 0, "need at least one salvage group");
        assert!(
            device_blocks >= base + self.chunk_blocks * self.max_chunks,
            "device lacks the backup region"
        );
        self.pages_per_chunk = self.chunk_blocks / geo.blocks_per_page();
        self.backup_base = base;
        self.group_free = vec![VecDeque::new(); self.groups as usize];
        self.next_victim_page = geo.num_pages();
    }

    fn take(&mut self, origin: Da) -> Option<Da> {
        let slot = self.group_free[(origin.index() % self.groups) as usize].pop_front();
        // An empty group wants the next chunk, while there is one.
        self.chunk_wanted |= slot.is_none() && self.next_chunk_pages().is_some();
        slot
    }

    fn pending_request(&self) -> Option<Vec<PageId>> {
        self.chunk_wanted.then(|| self.next_chunk_pages()).flatten()
    }

    /// A cache miss reads the bitmap as well as the failed block.
    fn lookup_block(&self) -> Option<Da> {
        Some(Da::new(self.backup_base))
    }

    /// Chunk grants arrive as retirements of the requested pages; the
    /// chunk commits when its lowest page lands, its slots dealt
    /// round-robin into the salvage groups. Failure-triggered retirements
    /// (post-freeze) carry no benefit.
    fn page_retired(&mut self, page: PageId, _healthy: impl Iterator<Item = Da>) {
        if !self.chunk_wanted || page.index() != self.next_victim_page - self.pages_per_chunk {
            return;
        }
        let start = self.backup_base + self.chunks_acquired * self.chunk_blocks;
        for i in 0..self.chunk_blocks {
            self.group_free[(i % self.groups) as usize].push_back(Da::new(start + i));
        }
        self.chunks_acquired += 1;
        self.next_victim_page -= self.pages_per_chunk;
        self.chunk_wanted = false;
    }

    // `reserved_blocks` stays 0: the space cost of acquired chunks is
    // already visible as retired software pages; counting it here would
    // double-book it.

    fn label(&self) -> &'static str {
        "LLS"
    }
}

/// The LLS controller (see module docs): the direct-link engine over
/// [`SalvageGroups`].
pub type LlsController = LinkedController<SalvageGroups>;

impl LinkedController<SalvageGroups> {
    /// Starts building an LLS controller; `wl` should use
    /// [`wlr_wl::RandomizerKind::HalfRestricted`] per the paper. Defaults:
    /// chunks of 1/16 of the space, at most 16 of them, 64 salvage groups.
    pub fn builder(device: PcmDevice, wl: Box<dyn WearLeveler>) -> LinkedBuilder<SalvageGroups> {
        let blocks = device.geometry().num_blocks();
        let chunk_blocks = (blocks / 16).max(device.geometry().blocks_per_page());
        let supply = SalvageGroups {
            chunk_blocks,
            max_chunks: (blocks / chunk_blocks).min(16),
            groups: 64,
            ..SalvageGroups::default()
        };
        LinkedBuilder::new(device, wl, supply)
    }

    /// Chunks acquired so far.
    pub fn chunks_acquired(&self) -> u64 {
        self.supply.chunks_acquired
    }

    /// Read access to the wear-leveler (for inspection and tooling).
    pub fn wear_leveler(&self) -> &dyn WearLeveler {
        self.wl.as_ref()
    }

    /// Force-fails device block `da` without wearing it (Table II setup).
    pub fn inject_dead(&mut self, da: Da) {
        self.device.inject_dead(da);
    }
}

impl LinkedBuilder<SalvageGroups> {
    /// Reservation chunk size in blocks; must be whole pages.
    pub fn chunk_blocks(mut self, blocks: u64) -> Self {
        self.supply.chunk_blocks = blocks;
        self
    }

    /// Maximum chunks LLS may acquire.
    pub fn max_chunks(mut self, chunks: u64) -> Self {
        self.supply.max_chunks = chunks;
        self
    }

    /// Number of salvage groups.
    pub fn groups(mut self, groups: u64) -> Self {
        self.supply.groups = groups;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, WriteResult};
    use wlr_base::Pa;
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
