//! Application-page → physical-page mapping with retirement.

use crate::retirement::Retirement;
use wlr_base::rng::SplitMix64;
use wlr_base::{AppAddr, Geometry, Pa, PageId};

/// Builder for [`OsMemory`]; see [`OsMemory::builder`].
#[derive(Debug, Clone)]
pub struct OsMemoryBuilder {
    geometry: Geometry,
    reserve_pages: u64,
}

impl OsMemoryBuilder {
    /// Number of physical pages initially held back as the OS free pool
    /// (default 0: retirements immediately shrink the application space).
    pub fn reserve_pages(mut self, pages: u64) -> Self {
        self.reserve_pages = pages;
        self
    }

    /// Constructs the OS model.
    ///
    /// # Panics
    ///
    /// Panics if the reserve consumes every physical page.
    pub fn build(self) -> OsMemory {
        let num_pages = self.geometry.num_pages();
        assert!(
            self.reserve_pages < num_pages,
            "reserve ({}) must leave at least one application page of {num_pages}",
            self.reserve_pages
        );
        let app_pages = num_pages - self.reserve_pages;
        let table: Vec<Option<PageId>> = (0..app_pages).map(|p| Some(PageId::new(p))).collect();
        let free: Vec<PageId> = (app_pages..num_pages).rev().map(PageId::new).collect();
        OsMemory {
            geometry: self.geometry,
            serving: table.clone(),
            table,
            free,
            phys: (0..num_pages)
                .map(|p| {
                    if p < app_pages {
                        PhysPage::Backs(u32::try_from(p).expect("app pages fit in u32"))
                    } else {
                        PhysPage::Free
                    }
                })
                .collect(),
            retired_count: 0,
            order: (0..app_pages).collect(),
            mapped: app_pages as usize,
            pos: (0..app_pages as usize).collect(),
            failure_reports: 0,
            retire_log: Vec::new(),
        }
    }
}

/// What a physical page is doing: the inverse of the application page
/// table, plus the retired-page bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhysPage {
    /// In the free pool (or never handed out).
    Free,
    /// Retired: software never touches it again.
    Retired,
    /// Backing this application page.
    Backs(u32),
}

/// The modeled operating system's view of memory.
///
/// Only two entry points matter to the rest of the stack:
/// [`OsMemory::translate`] (software address → PA) and
/// [`OsMemory::handle_failure`] (the access-error exception handler).
/// Everything else is metrics.
#[derive(Debug, Clone)]
pub struct OsMemory {
    geometry: Geometry,
    /// Application page → physical page (None once dropped).
    table: Vec<Option<PageId>>,
    /// Application page → the physical page its accesses land on: its own
    /// while mapped, the redirect target's once dropped (None only when
    /// no application page survives). A retirement recomputes it for the
    /// dropped pages and the retired page's owner only, so that
    /// [`OsMemory::translate_or_redirect`] is one lookup.
    serving: Vec<Option<PageId>>,
    /// Free physical pages (LIFO for determinism).
    free: Vec<PageId>,
    /// Physical page → what it is doing (`table`'s inverse).
    phys: Vec<PhysPage>,
    retired_count: u64,
    /// Every application page: the `mapped` still-mapped ones first (the
    /// compact list a dropped page's redirect hashes into), then the
    /// dropped ones.
    order: Vec<u64>,
    mapped: usize,
    /// app page -> its index in `order`.
    pos: Vec<usize>,
    failure_reports: u64,
    /// Physical pages in the order they retired. Replacement choice
    /// (`free.pop()`) and page-drop compaction (the mapped prefix) depend
    /// only on this order, so replaying it through [`Self::retire_page`]
    /// on a fresh instance reconstructs the whole table — the restart
    /// path of `Simulation::restore_durable`.
    retire_log: Vec<PageId>,
}

impl OsMemory {
    /// Starts building an OS model over `geometry`.
    pub fn builder(geometry: Geometry) -> OsMemoryBuilder {
        OsMemoryBuilder {
            geometry,
            reserve_pages: 0,
        }
    }

    /// The geometry in force.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Number of application pages (the software-visible footprint at
    /// boot; shrinks only when the free pool is dry at retirement time).
    pub fn app_pages(&self) -> u64 {
        self.table.len() as u64
    }

    /// Number of application blocks addressable by the workload.
    pub fn app_blocks(&self) -> u64 {
        self.app_pages() * self.geometry.blocks_per_page()
    }

    /// `addr`'s block within the physical page `pages` holds for its
    /// application page (`pages` is `table` or `serving`).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the application space.
    #[inline]
    fn block_in(&self, pages: &[Option<PageId>], addr: AppAddr) -> Option<Pa> {
        let (page, offset) = self.geometry.page_split(addr.index());
        assert!(
            page < self.app_pages(),
            "{addr} outside application space ({} pages)",
            self.app_pages()
        );
        pages[page as usize]
            .map(|phys| Pa::new(phys.index() * self.geometry.blocks_per_page() + offset))
    }

    /// Translates an application block address to its current PA, or
    /// `None` if the containing application page has been dropped.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the application space.
    #[inline]
    pub fn translate(&self, addr: AppAddr) -> Option<Pa> {
        self.block_in(&self.table, addr)
    }

    /// Like [`Self::translate`], but deterministically redirects accesses
    /// to dropped pages onto a surviving page (same in-page offset) —
    /// modeling the OS having compacted that data elsewhere. Returns
    /// `None` only when no application pages survive.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the application space.
    #[inline]
    pub fn translate_or_redirect(&self, addr: AppAddr) -> Option<Pa> {
        self.block_in(&self.serving, addr)
    }

    /// The physical page serving application page `page`: its own while
    /// mapped, otherwise that of a surviving page picked by a hash of
    /// `page` over the mapped prefix of `order` — deterministic between
    /// retirements.
    fn serving_page(&self, page: u64) -> Option<PageId> {
        self.table[page as usize].or_else(|| {
            let survivors = self.mapped as u64;
            (survivors > 0).then(|| {
                let pick = SplitMix64::mix(0x0D1E_C7ED, page) % survivors;
                let target_app = self.order[pick as usize];
                self.table[target_app as usize].expect("the mapped prefix holds mapped pages")
            })
        })
    }

    /// The physical page containing `pa`.
    pub fn page_of(&self, pa: Pa) -> PageId {
        self.geometry.page_of(pa)
    }

    /// Whether physical page `page` has been retired.
    pub fn is_retired(&self, page: PageId) -> bool {
        self.phys[page.as_usize()] == PhysPage::Retired
    }

    /// Handles an access-error exception for `pa` (paper §III-A).
    ///
    /// Retires the containing physical page, relocates the application
    /// page to a pool page if one is free (returning the block-copy work
    /// list), or drops the application page when the pool is dry. Returns
    /// `None` if the page was already retired (a stale report — nothing to
    /// do) or if `pa`'s page is not currently backing any application page
    /// (the error surfaced on an already-reserved page, which software by
    /// assumption never accesses).
    pub fn handle_failure(&mut self, pa: Pa) -> Option<Retirement> {
        let phys = self.geometry.page_of(pa);
        let outcome = self.retire_phys(phys);
        if outcome.is_some() {
            self.failure_reports += 1;
        }
        outcome
    }

    /// Explicitly retires physical page `page` at a component's request —
    /// the *additional OS support* LLS depends on and WL-Reviver avoids
    /// (§II). Not counted as a failure report. Returns `None` if the page
    /// is already retired or backs no application page.
    pub fn retire_page(&mut self, page: PageId) -> Option<Retirement> {
        self.retire_phys(page)
    }

    fn retire_phys(&mut self, phys: PageId) -> Option<Retirement> {
        // Only a page backing an application page retires: a free or an
        // already-retired one is left as it is.
        let PhysPage::Backs(app) = self.phys[phys.as_usize()] else {
            return None;
        };
        let app = app as usize;
        self.phys[phys.as_usize()] = PhysPage::Retired;
        self.retired_count += 1;
        self.retire_log.push(phys);

        let bpp = self.geometry.blocks_per_page();
        let replacement = self.free.pop();
        let copies = match replacement {
            Some(new_phys) => {
                self.table[app] = Some(new_phys);
                self.phys[new_phys.as_usize()] = PhysPage::Backs(app as u32);
                let old_base = phys.index() * bpp;
                let new_base = new_phys.index() * bpp;
                (0..bpp)
                    .map(|i| (Pa::new(old_base + i), Pa::new(new_base + i)))
                    .collect()
            }
            None => {
                // Pool dry: the application page is dropped and the
                // footprint shrinks. Swapping it behind the mapped prefix
                // compacts that prefix exactly as a `swap_remove` would.
                self.table[app] = None;
                let (at, last) = (self.pos[app], self.mapped - 1);
                let moved = self.order[last];
                self.order.swap(at, last);
                self.pos[moved as usize] = at;
                self.pos[app] = last;
                self.mapped = last;
                Vec::new()
            }
        };
        // Mapped pages serve themselves, so only `app` and the dropped
        // pages can change: a relocation moves the pages redirected onto
        // `app`, and a drop changes the mapped prefix, and with it every
        // dropped page's pick.
        self.serving[app] = self.table[app];
        for i in self.mapped..self.order.len() {
            let page = self.order[i];
            self.serving[page as usize] = self.serving_page(page);
        }
        Some(Retirement {
            retired: phys,
            replacement,
            copies,
        })
    }

    /// Number of retired physical pages.
    pub fn retired_pages(&self) -> u64 {
        self.retired_count
    }

    /// Fraction of physical pages not retired — the paper's
    /// "software-usable space" once controller-level reservations are also
    /// subtracted by the caller.
    pub fn usable_fraction(&self) -> f64 {
        let total = self.geometry.num_pages() as f64;
        (total - self.retired_count as f64) / total
    }

    /// Number of application pages still mapped.
    pub fn mapped_app_pages(&self) -> u64 {
        self.mapped as u64
    }

    /// Physical pages currently in the free pool.
    pub fn free_pool(&self) -> u64 {
        self.free.len() as u64
    }

    /// Total access-error exceptions the OS has handled (the paper counts
    /// on these being rare: one per page acquisition, not one per block
    /// failure).
    pub fn failure_reports(&self) -> u64 {
        self.failure_reports
    }

    /// Retired physical pages in retirement order. Unlike
    /// [`Self::retired_iter`] (the unordered persistent bitmap), this
    /// preserves the temporal order the free pool was consumed in, which
    /// is what a replay needs to rebuild the app→phys table exactly:
    /// feed each entry back through [`Self::retire_page`] on a fresh
    /// instance.
    pub fn retirement_log(&self) -> &[PageId] {
        &self.retire_log
    }

    /// Iterator over retired physical pages (the persistent bitmap
    /// WL-Reviver reloads at boot, §III-A).
    pub fn retired_iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.phys
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == PhysPage::Retired)
            .map(|(i, _)| PageId::new(i as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_os(reserve: u64) -> OsMemory {
        // 8 pages of 64 blocks.
        let geo = Geometry::builder().num_blocks(512).build().unwrap();
        OsMemory::builder(geo).reserve_pages(reserve).build()
    }

    #[test]
    fn identity_mapping_at_boot() {
        let os = small_os(0);
        assert_eq!(os.app_pages(), 8);
        assert_eq!(os.app_blocks(), 512);
        for a in [0u64, 63, 64, 511] {
            assert_eq!(os.translate(AppAddr::new(a)), Some(Pa::new(a)));
        }
        assert_eq!(os.free_pool(), 0);
        assert_eq!(os.usable_fraction(), 1.0);
    }

    #[test]
    fn reserve_shrinks_app_space() {
        let os = small_os(3);
        assert_eq!(os.app_pages(), 5);
        assert_eq!(os.free_pool(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one application page")]
    fn reserve_cannot_eat_everything() {
        small_os(8);
    }

    #[test]
    fn retirement_with_replacement_relocates() {
        let mut os = small_os(2);
        let r = os.handle_failure(Pa::new(70)).expect("should retire");
        assert_eq!(r.retired, PageId::new(1));
        let replacement = r.replacement.expect("pool had pages");
        assert_eq!(r.copies.len(), 64);
        assert_eq!(r.copies[0].0, Pa::new(64));
        assert_eq!(r.copies[0].1, os.geometry().page_base(replacement));
        // App page 1 now translates into the replacement page.
        let pa = os.translate(AppAddr::new(70)).unwrap();
        assert_eq!(os.geometry().page_of(pa), replacement);
        assert_eq!(os.retired_pages(), 1);
        assert_eq!(os.free_pool(), 1);
        assert_eq!(os.failure_reports(), 1);
    }

    #[test]
    fn retirement_without_pool_drops_page() {
        let mut os = small_os(0);
        let r = os.handle_failure(Pa::new(70)).expect("should retire");
        assert_eq!(r.replacement, None);
        assert!(r.copies.is_empty());
        assert_eq!(os.translate(AppAddr::new(70)), None);
        assert_eq!(os.mapped_app_pages(), 7);
        // Redirection still lands somewhere valid, at the same offset.
        let pa = os.translate_or_redirect(AppAddr::new(70)).unwrap();
        assert_eq!(pa.index() % 64, 6);
        // And deterministically.
        assert_eq!(os.translate_or_redirect(AppAddr::new(70)), Some(pa));
    }

    #[test]
    fn duplicate_report_is_ignored() {
        let mut os = small_os(1);
        let first = os.handle_failure(Pa::new(0));
        assert!(first.is_some());
        let again = os.handle_failure(Pa::new(1)); // same page 0
        assert!(again.is_none());
        assert_eq!(os.retired_pages(), 1);
        assert_eq!(os.failure_reports(), 1);
    }

    #[test]
    fn report_on_reserved_page_is_ignored() {
        // Page 7 is in the free pool (reserve 1) and backs no app page.
        let mut os = small_os(1);
        assert!(os.handle_failure(Pa::new(7 * 64)).is_none());
        assert_eq!(os.retired_pages(), 0);
    }

    #[test]
    fn replacement_page_can_itself_retire() {
        let mut os = small_os(1);
        let r1 = os.handle_failure(Pa::new(0)).unwrap();
        let repl = r1.replacement.unwrap();
        // Fail the replacement; pool is now dry, app page 0 drops.
        let repl_pa = os.geometry().page_base(repl);
        let r2 = os.handle_failure(repl_pa).unwrap();
        assert_eq!(r2.retired, repl);
        assert_eq!(r2.replacement, None);
        assert_eq!(os.translate(AppAddr::new(0)), None);
        assert_eq!(os.retired_pages(), 2);
    }

    #[test]
    fn usable_fraction_tracks_retirements() {
        let mut os = small_os(0);
        os.handle_failure(Pa::new(0)).unwrap();
        os.handle_failure(Pa::new(64)).unwrap();
        assert!((os.usable_fraction() - 6.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn redirect_exhausts_gracefully() {
        let mut os = small_os(0);
        for p in 0..8 {
            os.handle_failure(Pa::new(p * 64)).unwrap();
        }
        assert_eq!(os.mapped_app_pages(), 0);
        assert_eq!(os.translate_or_redirect(AppAddr::new(0)), None);
    }

    #[test]
    fn retired_iter_matches_reports() {
        let mut os = small_os(0);
        os.handle_failure(Pa::new(130)).unwrap(); // page 2
        os.handle_failure(Pa::new(450)).unwrap(); // page 7
        let retired: Vec<PageId> = os.retired_iter().collect();
        assert_eq!(retired, vec![PageId::new(2), PageId::new(7)]);
        assert!(os.is_retired(PageId::new(2)));
        assert!(!os.is_retired(PageId::new(3)));
    }

    #[test]
    #[should_panic(expected = "outside application space")]
    fn translate_out_of_range_panics() {
        small_os(0).translate(AppAddr::new(512));
    }

    #[test]
    fn retirement_log_replay_reconstructs_the_table() {
        let mut rng = wlr_base::rng::Rng::stream(0x9A6E, 2);
        for _ in 0..12 {
            let reserve = rng.gen_range(4);
            let geo = Geometry::builder().num_blocks(512).build().unwrap();
            let mut live = OsMemory::builder(geo).reserve_pages(reserve).build();
            for _ in 0..rng.gen_range(16) {
                live.handle_failure(Pa::new(rng.gen_range(512)));
            }
            let mut replayed = OsMemory::builder(geo).reserve_pages(reserve).build();
            for &page in live.retirement_log() {
                replayed.retire_page(page);
            }
            assert_eq!(replayed.retired_pages(), live.retired_pages());
            assert_eq!(replayed.free_pool(), live.free_pool());
            assert_eq!(replayed.mapped_app_pages(), live.mapped_app_pages());
            for app in 0..live.app_pages() {
                let addr = AppAddr::new(app * 64);
                assert_eq!(replayed.translate(addr), live.translate(addr));
                assert_eq!(
                    replayed.translate_or_redirect(addr),
                    live.translate_or_redirect(addr)
                );
            }
            assert_eq!(replayed.retirement_log(), live.retirement_log());
        }
    }

    mod properties {
        use super::*;
        use wlr_base::rng::Rng;

        /// Any retirement sequence keeps the table consistent: mapped
        /// app pages point at distinct, unretired physical pages, and
        /// the accounting identities hold.
        #[test]
        fn retirement_sequences_keep_invariants() {
            let mut rng = Rng::stream(0x9A6E, 0);
            for _ in 0..12 {
                let reserve = rng.gen_range(4);
                let geo = Geometry::builder().num_blocks(512).build().unwrap();
                let mut os = OsMemory::builder(geo).reserve_pages(reserve).build();
                for _ in 0..rng.gen_range(64) {
                    os.handle_failure(Pa::new(rng.gen_range(512)));
                    // Identities after every step:
                    let mut seen = std::collections::HashSet::new();
                    let mut mapped = 0;
                    for app in 0..os.app_pages() {
                        if let Some(pa0) = os.translate(AppAddr::new(app * 64)) {
                            let phys = os.geometry().page_of(pa0);
                            assert!(!os.is_retired(phys), "app page on retired phys");
                            assert!(seen.insert(phys), "two app pages share a phys page");
                            mapped += 1;
                        }
                    }
                    assert_eq!(mapped, os.mapped_app_pages());
                    // Pages are conserved: mapped + free + retired = total.
                    assert_eq!(
                        os.mapped_app_pages() + os.free_pool() + os.retired_pages(),
                        os.geometry().num_pages(),
                        "page conservation violated"
                    );
                }
            }
        }

        /// What `translate_or_redirect` computed per call before the
        /// serving table replaced the computation.
        fn hashed_redirect(os: &OsMemory, addr: AppAddr) -> Option<Pa> {
            if let Some(pa) = os.translate(addr) {
                return Some(pa);
            }
            let mapped_list = &os.order[..os.mapped];
            if mapped_list.is_empty() {
                return None;
            }
            let (page, offset) = (addr.index() / 64, addr.index() % 64);
            let pick = SplitMix64::mix(0x0D1E_C7ED, page) % mapped_list.len() as u64;
            let phys = os.table[mapped_list[pick as usize] as usize].unwrap();
            Some(Pa::new(phys.index() * 64 + offset))
        }

        fn assert_serving_matches_hash(os: &OsMemory) {
            for a in 0..os.app_blocks() {
                let addr = AppAddr::new(a);
                assert_eq!(os.translate_or_redirect(addr), hashed_redirect(os, addr));
            }
        }

        /// The serving table is the old per-call hash, precomputed: equal
        /// for every application address after every step of a retirement
        /// sequence — relocations into a reserve pool, drops once it is
        /// dry, down to the last page — and after a log replay.
        #[test]
        fn serving_table_equals_the_hash_it_replaced() {
            let mut rng = Rng::stream(0x9A6E, 3);
            for reserve in [0, 0, 1, 3, 5] {
                let geo = Geometry::builder().num_blocks(512).build().unwrap();
                let mut os = OsMemory::builder(geo).reserve_pages(reserve).build();
                assert_serving_matches_hash(&os);
                for _ in 0..40 {
                    os.handle_failure(Pa::new(rng.gen_range(512)));
                    assert_serving_matches_hash(&os);
                }
                assert!(
                    os.mapped_app_pages() < os.app_pages(),
                    "nothing was dropped"
                );
                let mut replayed = OsMemory::builder(geo).reserve_pages(reserve).build();
                for &page in os.retirement_log() {
                    replayed.retire_page(page);
                }
                assert_serving_matches_hash(&replayed);
                assert_eq!(replayed.serving, os.serving);
            }
        }

        /// A retirement updates `serving` for the retired page's owner and
        /// the dropped pages only; that must equal recomputing every
        /// page, after every retirement, with and without a reserve — and
        /// the inverse table must agree with `table` throughout.
        #[test]
        fn incremental_serving_equals_a_full_recompute() {
            let mut rng = Rng::stream(0x9A6E, 4);
            for reserve in [0, 0, 2, 5, 9] {
                let geo = Geometry::builder().num_blocks(1024).build().unwrap();
                let mut os = OsMemory::builder(geo).reserve_pages(reserve).build();
                let mut retired = 0;
                while os.mapped_app_pages() > 0 {
                    let page = PageId::new(rng.gen_range(16));
                    let retires = !os.is_retired(page)
                        && (0..os.app_pages()).any(|a| os.table[a as usize] == Some(page));
                    assert_eq!(os.retire_page(page).is_some(), retires, "{page:?}");
                    retired += u64::from(retires);
                    let full: Vec<_> = (0..os.app_pages()).map(|p| os.serving_page(p)).collect();
                    assert_eq!(os.serving, full, "reserve {reserve}, after {retired}");
                    for (phys, &state) in os.phys.iter().enumerate() {
                        let phys = PageId::new(phys as u64);
                        match state {
                            PhysPage::Backs(app) => {
                                assert_eq!(os.table[app as usize], Some(phys));
                            }
                            _ => assert!(!os.table.contains(&Some(phys))),
                        }
                    }
                }
                assert_eq!(retired, os.retired_pages());
                assert_eq!(os.translate_or_redirect(AppAddr::new(0)), None);
            }
        }

        /// Redirection is deterministic and always lands on a mapped
        /// page at the same in-page offset.
        #[test]
        fn redirection_is_stable() {
            let mut rng = Rng::stream(0x9A6E, 1);
            for _ in 0..32 {
                let geo = Geometry::builder().num_blocks(512).build().unwrap();
                let mut os = OsMemory::builder(geo).build();
                for _ in 0..rng.gen_range(7) {
                    os.retire_page(PageId::new(rng.gen_range(8)));
                }
                let addr = rng.gen_range(512);
                let a = os.translate_or_redirect(AppAddr::new(addr));
                let b = os.translate_or_redirect(AppAddr::new(addr));
                assert_eq!(a, b);
                if let Some(pa) = a {
                    assert_eq!(pa.index() % 64, addr % 64);
                    assert!(!os.is_retired(os.geometry().page_of(pa)));
                }
            }
        }
    }

    #[test]
    fn redirected_writes_keep_offsets_stable() {
        // Hot block at offset 5 of page 3 stays at offset 5 wherever it
        // lands, so hot data stays hot after compaction.
        let mut os = small_os(0);
        os.handle_failure(Pa::new(3 * 64)).unwrap();
        let pa = os.translate_or_redirect(AppAddr::new(3 * 64 + 5)).unwrap();
        assert_eq!(pa.index() % 64, 5);
    }
}
