//! Failure injection: watch the framework's machinery up close.
//!
//! Drives a `RevivedController` directly (no simulator), injecting dead
//! blocks at increasing ratios and reporting what the paper's Table II
//! measures: average PCM accesses per software request with and without
//! the 32 KB remap cache, plus the framework's link/switch/loop counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p wl-reviver --example failure_injection
//! ```

use wl_reviver::controller::{Controller, WriteResult};
use wl_reviver::reviver::RevivedController;
use wlr_base::rng::Rng;
use wlr_base::{Geometry, Pa};
use wlr_pcm::{Ecp, PcmDevice};
use wlr_wl::{RandomizerKind, StartGap};

const BLOCKS: u64 = 1 << 14;

fn build(cache: Option<usize>, seed: u64) -> RevivedController {
    let geo = Geometry::builder().num_blocks(BLOCKS).build().unwrap();
    let device = PcmDevice::builder(geo)
        .extra_blocks(1)
        .endurance_mean(1e12) // no organic failures: we inject them
        .seed(seed)
        .ecc(Box::new(Ecp::ecp6()))
        .build();
    let wl = StartGap::builder(BLOCKS)
        .gap_interval(100)
        .randomizer(RandomizerKind::Feistel { seed })
        .build();
    let mut b = RevivedController::builder(device, wl);
    if let Some(bytes) = cache {
        b = b.cache_bytes(bytes);
    }
    b.build()
}

/// Injects dead blocks until `ratio` of the chip has failed, letting the
/// framework discover each failure through a write, and playing the OS
/// when it asks for pages.
fn inject(ctl: &mut RevivedController, ratio: f64, rng: &mut Rng, retired: &mut [bool]) {
    let geo = *ctl.geometry();
    let bpp = geo.blocks_per_page();
    let target = (BLOCKS as f64 * ratio) as u64;
    let mut guard = 0u64;
    while ctl.device().visible_dead_blocks() < target {
        guard += 1;
        assert!(guard < BLOCKS * 64, "injection failed to converge");
        // Kill the block behind a random *accessible* PA, then touch it so
        // the framework links it.
        let pa = Pa::new(rng.gen_range(BLOCKS));
        if retired[(pa.index() / bpp) as usize] {
            continue;
        }
        let da = ctl.wear_leveler().map(pa);
        ctl.inject_dead(da);
        match ctl.write(pa, guard) {
            WriteResult::Ok => {}
            WriteResult::ReportFailure(rep) => {
                let page = geo.page_of(rep);
                retired[page.as_usize()] = true;
                ctl.on_page_retired(page);
            }
            other => unreachable!("unexpected write result without faults: {other:?}"),
        }
    }
}

fn measure(ctl: &mut RevivedController, rng: &mut Rng, retired: &[bool], requests: u64) -> f64 {
    let geo = *ctl.geometry();
    let bpp = geo.blocks_per_page();
    ctl.reset_request_stats();
    let mut done = 0;
    while done < requests {
        let pa = Pa::new(rng.gen_range(BLOCKS));
        if retired[(pa.index() / bpp) as usize] {
            continue;
        }
        if done % 2 == 0 {
            ctl.read(pa);
        } else if ctl.write(pa, done) != WriteResult::Ok {
            continue;
        }
        done += 1;
    }
    ctl.request_stats().avg_access_time()
}

fn main() {
    println!("avg PCM accesses per software request at injected failure ratios\n");
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>9} {:>7}",
        "failed", "no cache", "32KB cache", "links", "switches", "loops"
    );
    for ratio in [0.05, 0.10, 0.20, 0.30] {
        let mut rng = Rng::seed_from(9);
        let mut plain = build(None, 1);
        let mut retired = vec![false; plain.geometry().num_pages() as usize];
        inject(&mut plain, ratio, &mut rng, &mut retired);
        let t_plain = measure(&mut plain, &mut rng, &retired, 200_000);

        let mut rng2 = Rng::seed_from(9);
        let mut cached = build(Some(32 * 1024), 1);
        let mut retired2 = vec![false; cached.geometry().num_pages() as usize];
        inject(&mut cached, ratio, &mut rng2, &mut retired2);
        let t_cached = measure(&mut cached, &mut rng2, &retired2, 200_000);

        let c = cached.counters();
        println!(
            "{:>7.0}% {:>12.4} {:>12.4} {:>8} {:>9} {:>7}",
            ratio * 100.0,
            t_plain,
            t_cached,
            c.links,
            c.switches,
            cached.loop_blocks()
        );
    }
    println!("\n(compare with the paper's Table II: cached access times sit near 1.0)");
}
