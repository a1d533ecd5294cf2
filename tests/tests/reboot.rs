//! Array reboot: a worn, degraded multi-bank front-end powered off and
//! brought back from what survives the power-off — each bank's
//! [`DurableImage`] and the front-end's [`QuarantineImage`] — through
//! [`McFrontend::reboot`].
//!
//! 1. **Restart at N−2** — the recovery scan really runs (blocks scanned,
//!    links recovered), both quarantined banks come back dead, and the
//!    array keeps serving with every line reading back.
//! 2. **Hostile images never panic** — the images are bytes off a disk:
//!    every element replaced by hostile values either reboots or is
//!    refused with a typed `TornMeta`.

use wl_reviver::DurableImage;
use wlr_base::rng::Rng;
use wlr_mc::{McFrontend, McStopPolicy, QuarantineImage};

const BANKS: usize = 4;
const BLOCKS: u64 = 1 << 10;
const SEED: u64 = 29;

fn build() -> McFrontend {
    McFrontend::builder()
        .banks(BANKS)
        .total_blocks(BLOCKS)
        .endurance_mean(300.0)
        .gap_interval(16)
        .seed(SEED)
        .verify_integrity(true)
        .degraded(true)
        .stop_policy(McStopPolicy::Quorum(1.0))
        .build()
        .unwrap()
}

/// Wears every bank into links and its first page retirements, then
/// kills `kill` and lets a little traffic park and redirect at them.
/// Returns the front-end with its pipeline run dry.
fn worn(kill: &[usize], rng: &mut Rng) -> McFrontend {
    let mut mc = build();
    for _ in 0..155_000 {
        mc.submit(rng.gen_range(BLOCKS));
    }
    mc.finish();
    for &b in kill {
        mc.kill_bank_after(b, 0);
    }
    for _ in 0..400 {
        mc.submit(rng.gen_range(BLOCKS));
    }
    let out = mc.finish();
    assert_eq!(out.quarantines, kill.len() as u64, "{out:?}");
    mc
}

/// What survives the power-off: every bank's durable image and the
/// quarantine state.
fn capture(mc: &McFrontend) -> (Vec<DurableImage>, QuarantineImage) {
    let images = mc.banks().iter().map(|b| b.sim().durable_image()).collect();
    (images, mc.quarantine_image().expect("degraded front-end"))
}

/// Directory read-back: mismatches between each rescued or redirected
/// line and its recorded tag.
fn directory_mismatches(mc: &mut McFrontend) -> usize {
    let img = mc.quarantine_image().expect("degraded front-end");
    img.directory
        .iter()
        .filter(|&&(global, tag)| mc.read(global) != Ok(Some(tag)))
        .count()
}

#[test]
fn restart_at_n_minus_2_recovers_and_keeps_serving() {
    let mut rng = Rng::seed_from(SEED);
    let (images, qimg) = capture(&worn(&[1, 2], &mut rng));
    for img in &images {
        assert!(!img.dead.is_empty() && !img.retirements.is_empty(), "worn");
    }
    assert!(
        !qimg.directory.is_empty(),
        "redirected writes live in the directory"
    );

    let mut mc = build();
    let reports = mc.reboot(&images, Some(&qimg)).expect("its own images");
    assert_eq!(reports.len(), BANKS, "one report per bank");
    let scanned: u64 = reports.iter().map(|r| r.blocks_scanned).sum();
    let links: u64 = reports.iter().map(|r| r.links_recovered).sum();
    assert!(scanned > 0, "recovery scanned nothing");
    assert!(links > 0, "recovery re-linked no failed block");
    // The durable state survives: the same deaths and retirement order,
    // and no wear lost (recovery may heal a dead block with a spare, which
    // costs writes and rewrites the metadata).
    for (b, img) in images.iter().enumerate() {
        let back = mc.banks()[b].sim().durable_image();
        assert_eq!(back.dead, img.dead, "bank {b}");
        assert_eq!(back.retirements, img.retirements, "bank {b}");
        assert!(
            back.wear
                .iter()
                .zip(&img.wear)
                .all(|(now, then)| now >= then),
            "bank {b}: wear went backwards"
        );
    }
    let dead: Vec<usize> = (0..BANKS).filter(|&b| !mc.banks()[b].alive()).collect();
    assert_eq!(
        dead,
        [1, 2],
        "exactly the two quarantined banks come back dead"
    );
    assert_eq!(mc.quarantine_image().as_ref(), Some(&qimg));

    // The rebooted array keeps serving at N−2.
    for _ in 0..20_000 {
        mc.submit(rng.gen_range(BLOCKS));
    }
    let out = mc.finish();
    assert!(out.conserves_writes(), "{out:?}");
    assert_eq!(out.dropped, 0);
    assert!(out.redirected > 0, "traffic at the dead banks redirects");
    assert_eq!(out.quarantines, 0, "a reboot does not re-quarantine");
    assert_eq!(directory_mismatches(&mut mc), 0);
    for b in [0, 3] {
        assert_eq!(mc.bank_sim_mut(b).verify_all(), 0, "bank {b}");
    }
}

/// The six hostile replacements for a value `x`.
fn hostile(x: u64) -> [u64; 6] {
    [0, 1, u64::MAX, x ^ 1, x ^ (1 << 31), x ^ (1 << 63)]
}

/// One element of the captured state replaced by one hostile value.
type Mutant = (Vec<DurableImage>, QuarantineImage);

/// Every single-element mutant of `(images, q)`: each element of every
/// bank's `wear`, `dead` and `retirements`, each 8-byte word of `meta`,
/// each `substitutes` entry, both halves of each `directory` pair and
/// `dir_seq`, replaced by each hostile value — plus every `dead` flag
/// flipped. Replacements equal to the original are skipped.
fn mutants(images: &[DurableImage], q: &QuarantineImage) -> Vec<Mutant> {
    let mut out = Vec::new();
    let mut bank_mutant = |b: usize, edit: &dyn Fn(&mut DurableImage)| {
        let mut m = images.to_vec();
        edit(&mut m[b]);
        if m[b] != images[b] {
            out.push((m, q.clone()));
        }
    };
    for (b, img) in images.iter().enumerate() {
        for i in 0..img.wear.len() {
            for v in hostile(img.wear[i].into()) {
                // Wear counters are 32-bit: the top-bit flip truncates to
                // the original and is skipped.
                bank_mutant(b, &|m| m.wear[i] = v as u32);
            }
        }
        for i in 0..img.dead.len() {
            for v in hostile(img.dead[i]) {
                bank_mutant(b, &|m| m.dead[i] = v);
            }
        }
        for i in 0..img.retirements.len() {
            for v in hostile(img.retirements[i]) {
                bank_mutant(b, &|m| m.retirements[i] = v);
            }
        }
        for at in (0..img.meta.len()).step_by(8) {
            let n = (img.meta.len() - at).min(8);
            let mut word = [0u8; 8];
            word[..n].copy_from_slice(&img.meta[at..at + n]);
            for v in hostile(u64::from_le_bytes(word)) {
                bank_mutant(b, &|m| {
                    m.meta[at..at + n].copy_from_slice(&v.to_le_bytes()[..n])
                });
            }
        }
    }
    let mut q_mutant = |edit: &dyn Fn(&mut QuarantineImage)| {
        let mut m = q.clone();
        edit(&mut m);
        if m != *q {
            out.push((images.to_vec(), m));
        }
    };
    for i in 0..q.dead.len() {
        q_mutant(&|m| m.dead[i] = !m.dead[i]);
    }
    for i in 0..q.substitutes.len() {
        for v in hostile(q.substitutes[i]) {
            q_mutant(&|m| m.substitutes[i] = v);
        }
    }
    for i in 0..q.directory.len() {
        let (addr, tag) = q.directory[i];
        for v in hostile(addr) {
            q_mutant(&|m| m.directory[i].0 = v);
        }
        for v in hostile(tag) {
            q_mutant(&|m| m.directory[i].1 = v);
        }
    }
    for v in hostile(q.dir_seq) {
        q_mutant(&|m| m.dir_seq = v);
    }
    out
}

/// A real image of a worn 4-bank front-end with bank 2 quarantined, every
/// element replaced by each of six hostile values: each mutant reboots a
/// fresh front-end or is refused with a `TornMeta`. Nothing panics,
/// and the sweep is not vacuous — some mutants reboot, others are
/// refused.
#[test]
fn hostile_images_reboot_or_are_refused_and_never_panic() {
    let (images, q) = capture(&worn(&[2], &mut Rng::seed_from(SEED)));
    assert_eq!(q.dead, [false, false, true, false]);
    assert!(
        !q.directory.is_empty(),
        "redirected writes live in the directory"
    );
    let all = mutants(&images, &q);
    // `(rebooted, refused)` over a slice of the mutants.
    let sweep = |part: &[Mutant]| {
        let rebooted = part
            .iter()
            .filter(|(images, q)| build().reboot(images, Some(q)).is_ok())
            .count();
        (rebooted, part.len() - rebooted)
    };
    // Some 8,600 reboots: one half of the mutants per core.
    let (a, b) = all.split_at(all.len() / 2);
    let ((ra, fa), (rb, fb)) = std::thread::scope(|s| {
        let first = s.spawn(|| sweep(a));
        let second = sweep(b);
        (first.join().expect("no mutant panics"), second)
    });
    let (rebooted, refused) = (ra + rb, fa + fb);
    assert!(
        rebooted > 0 && refused > 0,
        "{} mutants: {rebooted} rebooted, {refused} refused",
        all.len()
    );
}
