use super::*;
use crate::controller::{Controller, WriteResult};
use crate::error::BuilderError;
use std::collections::{HashMap, HashSet};
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{Ecp, PcmDevice};
use wlr_wl::{Leveler, NoWearLeveling, RandomizerKind, SecurityRefresh, StartGap, WearLeveler};

const N: u64 = 256; // 4 pages of 64 blocks

fn geo() -> Geometry {
    Geometry::builder().num_blocks(N).build().unwrap()
}

fn device(endurance: f64, extra: u64, seed: u64) -> PcmDevice {
    PcmDevice::builder(geo())
        .extra_blocks(extra)
        .endurance_mean(endurance)
        .endurance_cov(0.2)
        .seed(seed)
        .ecc(Box::new(Ecp::ecp6()))
        .track_contents(true)
        .build()
}

fn sg(psi: u64, seed: u64) -> StartGap {
    StartGap::builder(N)
        .gap_interval(psi)
        .randomizer(RandomizerKind::Feistel { seed })
        .build()
}

fn checked(endurance: f64, psi: u64, seed: u64) -> RevivedController {
    RevivedController::builder(device(endurance, 1, seed), sg(psi, seed))
        .check_invariants(true)
        .build()
}

/// Minimal OS stand-in for driving the controller directly: tracks
/// retired pages so tests honor the §III-A contract (software never
/// touches a retired page — the simulator's page table enforces this
/// in the full stack).
struct OsSim {
    retired: std::collections::HashSet<u64>,
}

impl OsSim {
    fn new() -> Self {
        OsSim {
            retired: Default::default(),
        }
    }

    /// A software-accessible PA below `n`, or `None` if none is left.
    fn pick_pa(&self, rng: &mut wlr_base::rng::Rng, n: u64) -> Option<Pa> {
        for _ in 0..256 {
            let pa = rng.gen_range(n);
            if !self.retired.contains(&(pa / 64)) {
                return Some(Pa::new(pa));
            }
        }
        None
    }

    fn accessible(&self, pa: Pa) -> bool {
        !self.retired.contains(&(pa.index() / 64))
    }

    /// Standard exception handling: retire the page and grant it.
    fn retire(&mut self, ctl: &mut RevivedController, rep: Pa) {
        let page = ctl.geometry().page_of(rep);
        self.retired.insert(page.index());
        ctl.on_page_retired(page);
    }

    fn grant(&mut self, ctl: &mut RevivedController, page: PageId) {
        self.retired.insert(page.index());
        ctl.on_page_retired(page);
    }
}

#[test]
fn healthy_operation_is_one_access_per_request() {
    let mut ctl = checked(1e9, 10, 1);
    for i in 0..500u64 {
        assert_eq!(ctl.write(Pa::new(i % N), i), WriteResult::Ok);
    }
    for i in 0..100u64 {
        ctl.read(Pa::new(i));
    }
    let s = ctl.request_stats();
    assert_eq!(s.requests, 600);
    assert_eq!(s.accesses, 600, "no failures -> exactly one access each");
    assert_eq!(ctl.linked_blocks(), 0);
}

#[test]
fn data_round_trips_through_migrations() {
    let mut ctl = checked(1e9, 3, 2);
    // Write distinct tags everywhere, interleaved with migrations.
    for round in 0..4u64 {
        for i in 0..N {
            assert_eq!(ctl.write(Pa::new(i), round * N + i), WriteResult::Ok);
        }
    }
    for i in 0..N {
        assert_eq!(ctl.read(Pa::new(i)), 3 * N + i, "PA {i} corrupted");
    }
}

#[test]
fn first_failure_reports_then_links() {
    let mut ctl = checked(300.0, 1_000_000, 3); // no migrations
    let pa = Pa::new(5);
    let mut reported = false;
    for i in 0..10_000u64 {
        match ctl.write(pa, i) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => {
                assert_eq!(rep, pa);
                ctl.on_page_retired(ctl.geometry().page_of(rep));
                reported = true;
                break;
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
    }
    assert!(reported, "hammering must eventually fail the block");
    assert_eq!(ctl.counters().real_reports, 1);
    assert_eq!(ctl.counters().spare_grants, 1);
    // 64-block page, 4 pointer blocks -> 60 spares.
    assert_eq!(ctl.spare_pas(), 60);
    // The block itself gets linked on the next touch of that DA...
    // which is unreachable now (its page retired); instead verify
    // that subsequent failures elsewhere are hidden without reports.
    let pa2 = Pa::new(200);
    for i in 0..10_000u64 {
        assert_eq!(ctl.write(pa2, i), WriteResult::Ok, "failure {i} not hidden");
        if ctl.linked_blocks() > 0 {
            break;
        }
    }
    assert!(ctl.linked_blocks() > 0, "second failure should link");
    assert_eq!(ctl.counters().real_reports, 1, "no further OS reports");
}

#[test]
fn reads_of_failed_blocks_resolve_through_shadow() {
    let mut ctl = checked(300.0, 1_000_000, 4);
    let pa = Pa::new(130);
    // Pre-grant a page so the failure is hidden immediately.
    ctl.on_page_retired(PageId::new(0));
    let mut last = 0;
    for i in 1..20_000u64 {
        match ctl.write(pa, i) {
            WriteResult::Ok => last = i,
            _ => panic!("failure should be hidden"),
        }
        if ctl.linked_blocks() > 0 {
            break;
        }
    }
    assert!(ctl.linked_blocks() > 0);
    assert_eq!(ctl.read(pa), last, "shadow must serve the read");
    // A failed-block read costs two accesses uncached (pointer+shadow).
    ctl.reset_request_stats();
    ctl.read(pa);
    assert_eq!(ctl.request_stats().accesses, 2);
}

#[test]
fn cache_reduces_failed_block_access_to_one() {
    let dev = device(300.0, 1, 5);
    let mut ctl = RevivedController::builder(dev, sg(1_000_000, 5))
        .check_invariants(true)
        .cache_bytes(1024)
        .build();
    ctl.on_page_retired(PageId::new(0));
    let pa = Pa::new(130);
    for i in 1..20_000u64 {
        ctl.write(pa, i);
        if ctl.linked_blocks() > 0 {
            break;
        }
    }
    assert!(ctl.linked_blocks() > 0);
    ctl.read(pa); // populate cache
    ctl.reset_request_stats();
    ctl.read(pa);
    assert_eq!(
        ctl.request_stats().accesses,
        1,
        "cache hit should hide the pointer read"
    );
}

#[test]
fn chains_stay_one_step_under_sustained_hammering() {
    // Low endurance + migrations: shadows keep dying; chains must stay
    // one-step (checked by invariants after every write).
    let mut ctl = checked(150.0, 7, 6);
    let mut os = OsSim::new();
    os.grant(&mut ctl, PageId::new(3));
    let mut rng = wlr_base::rng::Rng::seed_from(99);
    for i in 0..60_000u64 {
        let Some(pa) = os.pick_pa(&mut rng, N) else {
            break;
        };
        match ctl.write(pa, i) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => {
                os.retire(&mut ctl, rep);
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
        if ctl.spare_pas() == 0 && ctl.linked_blocks() > 30 {
            break; // plenty of failure handling exercised
        }
    }
    assert!(ctl.counters().links > 0);
    ctl.assert_invariants();
}

#[test]
fn switching_creates_loops() {
    let mut ctl = checked(150.0, 1_000_000, 7);
    let mut os = OsSim::new();
    os.grant(&mut ctl, PageId::new(0));
    // Hammer one PA: its block dies, then its shadow dies, forcing a
    // switch (Fig 2c) which leaves a loop block behind. If the
    // hammered page itself retires, move to the next accessible PA.
    let mut rng = wlr_base::rng::Rng::seed_from(70);
    let mut pa = Pa::new(100);
    for i in 0..200_000u64 {
        if !os.accessible(pa) {
            pa = os.pick_pa(&mut rng, N).expect("space left");
        }
        match ctl.write(pa, i) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => {
                os.retire(&mut ctl, rep);
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
        if ctl.counters().switches > 0 {
            break;
        }
    }
    assert!(ctl.counters().switches > 0, "no switch ever happened");
    assert!(ctl.loop_blocks() > 0, "a switch must leave a loop behind");
    ctl.assert_invariants();
}

#[test]
fn suspension_sacrifices_next_write_and_resumes() {
    // Tiny endurance and fast migrations with NO spare pages: a
    // migration soon hits a failure, suspends, and the next software
    // write is reported (fake failure).
    let mut ctl = checked(100.0, 1, 8);
    let mut os = OsSim::new();
    let mut rng = wlr_base::rng::Rng::seed_from(80);
    let mut fake_seen = false;
    let mut i = 0u64;
    while i < 200_000 {
        i += 1;
        let Some(pa) = os.pick_pa(&mut rng, N) else {
            break;
        };
        match ctl.write(pa, i) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => {
                if ctl.suspended() {
                    fake_seen = true;
                }
                os.retire(&mut ctl, rep);
                assert!(
                    !ctl.suspended(),
                    "grant must resume the suspended migration"
                );
                if fake_seen {
                    break;
                }
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
    }
    assert!(fake_seen, "no suspension-triggered report observed");
    assert!(ctl.counters().suspensions > 0);
    assert!(ctl.counters().fake_reports > 0);
}

#[test]
fn reads_are_served_during_suspension() {
    let mut ctl = checked(100.0, 1, 9);
    let mut os = OsSim::new();
    let mut rng = wlr_base::rng::Rng::seed_from(90);
    let mut value_of: std::collections::HashMap<u64, u64> = Default::default();
    let mut i = 0u64;
    loop {
        i += 1;
        assert!(i < 400_000, "never suspended");
        let Some(pa) = os.pick_pa(&mut rng, N) else {
            break;
        };
        match ctl.write(pa, i) {
            WriteResult::Ok => {
                value_of.insert(pa.index(), i);
            }
            WriteResult::ReportFailure(_) if ctl.suspended() => break,
            WriteResult::ReportFailure(rep) => {
                os.retire(&mut ctl, rep);
                // Data of the retired page is relocated by the OS;
                // drop those expectations in this mini-harness.
                let page = ctl.geometry().page_of(rep);
                value_of.retain(|&p, _| p / 64 != page.index());
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
    }
    // While suspended, every previously-written accessible PA must
    // still read its last value (possibly out of the migration buffer).
    for (&p, &v) in value_of.iter().take(64) {
        if os.accessible(Pa::new(p)) {
            assert_eq!(ctl.read(Pa::new(p)), v, "stale read at PA {p}");
        }
    }
}

#[test]
fn works_with_security_refresh_unmodified() {
    let dev = device(200.0, 0, 10);
    let wl = SecurityRefresh::builder(N)
        .region_blocks(64)
        .refresh_interval(5)
        .seed(10)
        .build();
    let mut ctl = RevivedController::builder(dev, wl)
        .check_invariants(true)
        .build();
    let mut os = OsSim::new();
    let mut writes = 0u64;
    let mut rng = wlr_base::rng::Rng::seed_from(4);
    let mut model: std::collections::HashMap<u64, u64> = Default::default();
    for i in 0..80_000u64 {
        let Some(pa) = os.pick_pa(&mut rng, N) else {
            break;
        };
        match ctl.write(pa, i) {
            WriteResult::Ok => {
                model.insert(pa.index(), i);
                writes += 1;
            }
            WriteResult::ReportFailure(rep) => {
                let page = ctl.geometry().page_of(rep);
                // Data in the retired page is relocated by the OS; its
                // model entries are dropped in this mini-harness.
                let bpp = ctl.geometry().blocks_per_page();
                let base = page.index() * bpp;
                for b in base..base + bpp {
                    model.remove(&b);
                }
                os.retire(&mut ctl, rep);
            }
            other => unreachable!("unexpected write result: {other:?}"),
        }
        if ctl.linked_blocks() >= 10 {
            break;
        }
    }
    assert!(writes > 1000);
    assert!(ctl.linked_blocks() > 0, "SR failures should be hidden too");
    for (&p, &v) in model.iter() {
        if os.accessible(Pa::new(p)) {
            assert_eq!(ctl.read(Pa::new(p)), v, "PA {p} corrupted under SR");
        }
    }
    assert_eq!(ctl.label(), "ECP6-SR-WLR");
}

#[test]
fn label_for_start_gap() {
    let ctl = checked(1e9, 100, 11);
    assert_eq!(ctl.label(), "ECP6-SG-WLR");
}

#[test]
fn no_wl_also_works_under_framework() {
    // The framework does not require migrations at all.
    let dev = device(300.0, 0, 12);
    let mut ctl = RevivedController::builder(dev, Leveler::Other(Box::new(NoWearLeveling::new(N))))
        .check_invariants(true)
        .build();
    ctl.on_page_retired(PageId::new(0));
    let pa = Pa::new(70);
    let mut last = 0;
    for i in 1..30_000u64 {
        match ctl.write(pa, i) {
            WriteResult::Ok => last = i,
            _ => panic!("hidden failure expected"),
        }
        if ctl.linked_blocks() > 0 {
            break;
        }
    }
    assert!(ctl.linked_blocks() > 0);
    assert_eq!(ctl.read(pa), last);
}

#[test]
fn duplicate_page_grant_is_idempotent() {
    let mut ctl = checked(1e9, 10, 13);
    ctl.on_page_retired(PageId::new(2));
    let before = ctl.spare_pas();
    ctl.on_page_retired(PageId::new(2));
    assert_eq!(ctl.spare_pas(), before);
    assert_eq!(ctl.counters().spare_grants, 1);
}

#[test]
fn pointer_section_sizing_matches_paper() {
    // 64 blocks/page, 16 pointers/block -> 4 pointer blocks, 60 spares.
    let mut ctl = checked(1e9, 10, 14);
    ctl.on_page_retired(PageId::new(1));
    assert_eq!(ctl.spare_pas(), 60);
}

/// The two layout tables every grant used to fill in: shadow PA → the
/// pointer-section PA holding its inverse pointer, and the section PAs.
fn granted_tables(
    geo: Geometry,
    ptrs_per_block: u64,
    pages: &[PageId],
) -> (HashMap<u64, Pa>, HashSet<u64>) {
    let bpp = geo.blocks_per_page();
    let section = bpp.div_ceil(ptrs_per_block + 1).clamp(1, bpp - 1);
    let (mut slot_of, mut sections) = (HashMap::new(), HashSet::new());
    for &page in pages {
        let pas: Vec<Pa> = geo.page_pas(page).collect();
        let (shadows, slots) = pas.split_at((bpp - section) as usize);
        sections.extend(slots.iter().map(|s| s.index()));
        for (i, v) in shadows.iter().enumerate() {
            slot_of.insert(v.index(), slots[i / ptrs_per_block as usize]);
        }
    }
    (slot_of, sections)
}

#[test]
fn computed_layout_equals_the_tables_grants_used_to_build() {
    for bytes in [4, 8] {
        let mut ctl = RevivedController::builder(device(1e9, 1, 15), sg(10, 15))
            .pointer_bytes(bytes)
            .build();
        let assert_layout = |ctl: &RevivedController, pages: &[PageId], when: &str| {
            let (slot_of, sections) = granted_tables(geo(), 64 / bytes, pages);
            for pa in 0..N {
                let v = Pa::new(pa);
                assert_eq!(
                    ctl.slot_of(v),
                    slot_of.get(&pa).copied(),
                    "slot of {v}, {bytes} B pointers, {when}"
                );
                assert_eq!(
                    ctl.is_section(v),
                    sections.contains(&pa),
                    "section {v}, {bytes} B pointers, {when}"
                );
            }
        };
        let mut pages = Vec::new();
        assert_layout(&ctl, &pages, "fresh");
        for page in [2, 0, 3].map(PageId::new) {
            ctl.on_page_retired(page);
            pages.push(page);
            assert_layout(&ctl, &pages, "after a grant");
        }
        let spares = ctl.spare_pas();
        ctl.recover();
        assert_layout(&ctl, &pages, "after recover");
        assert_eq!(ctl.spare_pas(), spares, "{bytes} B pointers");
    }
}

#[test]
fn inject_dead_is_idempotent_on_dead_blocks() {
    let mut ctl = checked(1e9, 1_000_000, 40); // no migrations
    ctl.on_page_retired(PageId::new(0));
    let pa = Pa::new(100);
    let da = ctl.wear_leveler().map(pa);
    ctl.inject_dead(da);
    ctl.inject_dead(da); // double injection before discovery: no-op
    assert_eq!(ctl.device().dead_blocks(), 1);
    assert_eq!(ctl.write(pa, 7), WriteResult::Ok);
    assert_eq!(ctl.linked_blocks(), 1);
    assert_eq!(ctl.read(pa), 7);
    let spares = ctl.spare_pas();
    // Re-injecting an already-linked dead block must not re-link it
    // or consume another spare.
    ctl.inject_dead(da);
    assert_eq!(ctl.write(pa, 8), WriteResult::Ok);
    assert_eq!(ctl.linked_blocks(), 1, "re-injection must not re-link");
    assert_eq!(
        ctl.spare_pas(),
        spares,
        "re-injection must not cost a spare"
    );
    assert_eq!(ctl.read(pa), 8);
}

#[test]
fn exhausting_last_spare_suspends_migration_without_wedging() {
    // Drain the spare pool by injecting failures faster than pages are
    // granted; a migration must eventually need a spare the pool does
    // not have and *suspend* — not panic, not wedge, not corrupt.
    // Needs more pages than the shared 4-page geometry: the drain and
    // recovery phases below retire several more.
    const N: u64 = 1024; // 16 pages of 64 blocks
    let dev = PcmDevice::builder(Geometry::builder().num_blocks(N).build().unwrap())
        .extra_blocks(1)
        .endurance_mean(1e9)
        .endurance_cov(0.2)
        .seed(41)
        .ecc(Box::new(Ecp::ecp6()))
        .track_contents(true)
        .build();
    let wl = StartGap::builder(N)
        .gap_interval(4)
        .randomizer(RandomizerKind::Feistel { seed: 41 })
        .build();
    let mut ctl = RevivedController::builder(dev, wl)
        .check_invariants(true)
        .build();
    let mut os = OsSim::new();
    let mut rng = wlr_base::rng::Rng::stream(41, 1);
    os.grant(&mut ctl, PageId::new(0));
    let mut i = 0u64;
    while !ctl.suspended() {
        i += 1;
        assert!(i < 200_000, "controller wedged instead of suspending");
        if ctl.spare_pas() > 0 && i.is_multiple_of(3) {
            if let Some(pa) = os.pick_pa(&mut rng, N) {
                let da = ctl.wear_leveler().map(pa);
                ctl.inject_dead(da);
            }
        }
        let Some(pa) = os.pick_pa(&mut rng, N) else {
            panic!("ran out of software pages before suspending");
        };
        match ctl.write(pa, i) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => os.retire(&mut ctl, rep),
            other => unreachable!("unexpected write result: {other:?}"),
        }
    }
    assert!(ctl.suspended());
    assert_eq!(ctl.spare_pas(), 0, "suspension means the pool is dry");
    // Delayed space acquisition: each write while suspended is
    // sacrificed as a report until the parked migration resumes.
    for _ in 0..10 {
        if !ctl.suspended() {
            break;
        }
        let pa = os.pick_pa(&mut rng, N).expect("software pages remain");
        match ctl.write(pa, 999_999) {
            WriteResult::ReportFailure(rep) => os.retire(&mut ctl, rep),
            other => unreachable!("suspended controller must report, got {other:?}"),
        }
    }
    assert!(!ctl.suspended(), "grants must resume the parked migration");
    // And the controller still round-trips data afterwards.
    let mut ok = false;
    for attempt in 0..10u64 {
        let pa = os.pick_pa(&mut rng, N).expect("software pages remain");
        match ctl.write(pa, 1_000_000 + attempt) {
            WriteResult::Ok => {
                assert_eq!(ctl.read(pa), 1_000_000 + attempt);
                ok = true;
                break;
            }
            WriteResult::ReportFailure(rep) => os.retire(&mut ctl, rep),
            other => unreachable!("unexpected write result: {other:?}"),
        }
    }
    assert!(ok, "controller never serviced a write after resuming");
}

// ----- the chain walk's bound -------------------------------------------

/// Two PA–DA loop blocks whose shadows one Security Refresh swap
/// exchanges: afterwards the two dataless blocks point at each other
/// (`a → va → b → vb → a`). Nothing was live, so no repair write ever
/// runs — the walk itself must recognise the cycle. Returns the
/// controller with `(a, va, b, vb)`.
fn mutual_loop() -> (RevivedController, (Da, Pa, Da, Pa)) {
    const PSI: u64 = 8;
    for seed in 0.. {
        let wl = SecurityRefresh::builder(N)
            .region_blocks(N)
            .refresh_interval(PSI)
            .seed(seed)
            .build();
        // The pair the scheme's first swap will exchange.
        let mut probe = wl.clone();
        (0..PSI).for_each(|_| probe.record_write(Pa::new(0)));
        let Some(wlr_wl::Migration::Swap { a, b }) = probe.pending() else {
            unreachable!("Security Refresh arms a swap every {PSI} writes");
        };
        let (va, vb) = (wl.inverse(a).unwrap(), wl.inverse(b).unwrap());
        let mut ctl = RevivedController::builder(device(1e9, 0, seed), wl).build();
        ctl.on_page_retired(geo().page_of(va));
        ctl.on_page_retired(geo().page_of(vb));
        // Put each block on a loop: dead, linked to the very PA that maps
        // to it. A PA of a page's pointer section cannot be a shadow; try
        // the next key.
        let spare = |ctl: &RevivedController, v| ctl.pool.spares.iter().position(|&p| p == v);
        if spare(&ctl, va).is_none() || spare(&ctl, vb).is_none() {
            continue;
        }
        for (d, v) in [(a, va), (b, vb)] {
            let at = spare(&ctl, v).unwrap();
            ctl.pool.spares.remove(at);
            ctl.inject_dead(d);
            ctl.link(d, v);
        }
        assert_eq!(ctl.loop_blocks(), 2);
        // PSI software writes arm the swap and the controller performs it.
        let soft: Vec<Pa> = (0..N)
            .map(Pa::new)
            .filter(|&p| !ctl.is_reserved(p))
            .take(PSI as usize)
            .collect();
        for (i, pa) in soft.into_iter().enumerate() {
            assert_eq!(ctl.write(pa, i as u64), WriteResult::Ok);
        }
        assert_eq!(
            (ctl.wl.map(va), ctl.wl.map(vb)),
            (b, a),
            "swap not performed"
        );
        assert_eq!(ctl.loop_blocks(), 0);
        return (ctl, (a, va, b, vb));
    }
    unreachable!()
}

#[test]
fn mutual_loop_walks_end_within_two_pointer_reads() {
    let (mut ctl, (a, va, b, _)) = mutual_loop();
    assert_eq!(ctl.counters().garbage_reads, 2, "the swap moved two loops");

    // Migration side: a → va → b → vb → a, two pointers, no data read.
    let reads = ctl.device().stats().reads;
    let (_, live) = ctl.migration_read(a);
    assert!(!live, "a mutual loop stores nothing");
    assert_eq!(ctl.device().stats().reads - reads, 2);
    assert_eq!(ctl.counters().garbage_reads, 3);

    // Software side (a retirement copy reads reserved PAs): `va` now
    // resolves to `b`; two pointers, then the one access a loop costs.
    let reads = ctl.device().stats().reads;
    ctl.reset_request_stats();
    ctl.read(va);
    assert_eq!(ctl.device().stats().reads - reads, 3);
    assert_eq!(ctl.request_stats().accesses, 3);
    assert_eq!(ctl.wl.map(va), b);

    assert!(!ctl.degraded, "a legal dataless state is not torn metadata");
    assert_eq!(ctl.counters().chain_aborts, 0);
}

// ----- event spine & builder validation --------------------------------

#[test]
fn builder_rejects_zero_pointer_bytes() {
    let err = RevivedController::builder(device(1e9, 1, 50), sg(10, 50))
        .pointer_bytes(0)
        .try_build()
        .unwrap_err();
    assert!(matches!(err, BuilderError::PointerBytesZero));
}

#[test]
fn builder_rejects_cache_smaller_than_one_line() {
    let err = RevivedController::builder(device(1e9, 1, 51), sg(10, 51))
        .cache_bytes(8)
        .try_build()
        .unwrap_err();
    assert!(matches!(err, BuilderError::CacheTooSmall { bytes: 8, .. }));
}

#[test]
fn builder_rejects_mismatched_pa_space() {
    let err = RevivedController::builder(
        device(1e9, 1, 52),
        Leveler::Other(Box::new(NoWearLeveling::new(N / 2))),
    )
    .try_build()
    .unwrap_err();
    assert!(matches!(err, BuilderError::PaSpaceMismatch { .. }));
}

/// A controller over a migration-free Start-Gap, recording its events,
/// whose first hammered block died and was linked to a virtual shadow on
/// the retired page 0.
fn one_link_rig(seed: u64) -> RevivedController {
    let mut ctl = RevivedController::builder(device(300.0, 1, seed), sg(1_000_000, seed)).build();
    ctl.record_events(64);
    ctl.on_page_retired(PageId::new(0));
    let pa = Pa::new(130);
    for i in 1..20_000u64 {
        ctl.write(pa, i);
        if ctl.linked_blocks() > 0 {
            break;
        }
    }
    assert!(ctl.linked_blocks() > 0);
    ctl
}

#[test]
fn ring_sink_captures_link_events() {
    let ctl = one_link_rig(54);
    let ring = ctl.events().expect("ring attached");
    assert!(
        ring.events()
            .any(|(_, e)| matches!(e, ReviverEvent::LinkCreated { .. })),
        "ring must hold the link event"
    );
    assert!(ring.dump().contains("\"event\":\"LinkCreated\""));
}

#[test]
#[should_panic(expected = "two-step chain")]
fn assert_invariants_rejects_a_seeded_two_step_chain() {
    // Kill the one link's shadow behind the controller's back: the device
    // fails it, but it is neither recorded as an undiscovered failure nor
    // a silent one, and nothing links it — the state Theorem 1 forbids.
    let mut ctl = one_link_rig(55);
    let (head, v) = ctl.links.ptr.iter().next().expect("one link");
    let sda = ctl.wl.map(v);
    assert_ne!(sda.index(), head, "the link must not be a loop");
    ctl.device.inject_dead(sda);
    ctl.assert_invariants();
}
