//! Golden determinism tests for the write engine.
//!
//! The hot-path refactor (dense index tables, batched stepping, the
//! incremental oracle order) must be *behaviour-preserving*: for a fixed
//! seed, every scheme stack must produce a bit-identical `Outcome` and
//! `TimeSeries` to the pre-refactor engine. The goldens below are FNV-1a
//! fingerprints of those structures captured from the seed-state
//! (HashMap-table, per-write-checked) engine; any engine change that
//! alters a single sample bit or the final write count fails here.
//!
//! To re-capture after an *intentional* behaviour change, run:
//!
//! ```text
//! WLR_CAPTURE_GOLDEN=1 cargo test -p wlr-tests --release \
//!     --test equivalence -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use wl_reviver::metrics::TimeSeries;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Outcome, Simulation, StopCondition};

const BLOCKS: u64 = 1 << 10;
const ENDURANCE: f64 = 300.0;
const PSI: u64 = 7;
const SEED: u64 = 7;
/// Deep into the failure era (mean wear ≈ 0.9× endurance) so links,
/// switches, page retirements and redirection all shape the curves.
const STOP_WRITES: u64 = 280_000;

fn sim(scheme: &str, verify: bool) -> Simulation {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(PSI)
        .stack(scheme)
        .seed(SEED)
        .verify_integrity(verify)
        .build()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Bit-exact fingerprint of an outcome plus the full sampled series.
fn fingerprint(outcome: &Outcome, series: &TimeSeries) -> u64 {
    let mut h = Fnv::new();
    h.u64(outcome.writes_issued);
    h.u64(format!("{:?}", outcome.reason).len() as u64);
    h.f64(outcome.survival);
    h.f64(outcome.usable);
    for p in series {
        h.u64(p.writes);
        h.f64(p.survival);
        h.f64(p.usable);
        h.f64(p.avg_access_time);
        h.u64(p.wl_active as u64);
    }
    h.0
}

/// Goldens captured from the seed-state engine (see module docs).
const GOLDEN: &[(&str, u64)] = &[
    ("ecc", 0xd30e0db011aee6f9),
    ("sg", 0xce1adf2f1ee9f99c),
    ("sr", 0x35e1b9827b561ff0),
    ("softwear", 0x273ecfdfdfdebdf1),
    ("adaptive-sg", 0xcc2d02d5323e64bf),
    ("freep", 0xf70fda549cea7b5c),
    ("lls", 0xcb262ff9cfc1b02a),
    ("zombie", 0x0cec8fb56bbee471),
    ("reviver-sg", 0x82a91d5fa092d560),
    ("reviver-sr", 0x74ac0550cb0985e1),
    ("reviver-tiled", 0xacabc7818ee1fc51),
    ("reviver-sr2", 0xb9bcda0cdd26c283),
    ("softwear-wlr", 0xf2eb2758e9e8e128),
    ("adaptive-sg-wlr", 0xd3c3e532fe11c00d),
];

/// Goldens for integrity-oracle runs (exercises the verification-order
/// path: key picks must match the seed engine's sort-then-index picks;
/// for the four direct-link baselines, their read and garbage-read path).
const GOLDEN_ORACLE: &[(&str, u64)] = &[
    ("sg", 0xa1ad4347288e80a6),
    ("freep", 0x4cceadb27d564d07),
    ("lls", 0x6830750d33733226),
    ("zombie", 0x050ef7b877e1253a),
    ("reviver-sg", 0x2788c618225eac3e),
    ("reviver-sr", 0xdec389ce3669ea13),
    ("softwear-wlr", 0xff2345f943fd3c54),
    ("adaptive-sg-wlr", 0x3ffca1b8797cc82f),
];

/// End-of-run `(device reads, device writes, requests, accesses)` of every
/// stack: the eight non-revivable ones, which all run the one direct-link
/// engine (`wl_reviver::linked`), then the six revived ones. The
/// fingerprints above see `RequestStats` only through `avg_access_time`
/// and the device's `AccessStats` not at all; this table is what holds
/// both engines to "the same device accesses".
const GOLDEN_ACCESS: &[(&str, [u64; 4])] = &[
    ("ecc", [0, 135860, 135860, 135860]),
    ("sg", [16683, 140192, 123509, 123509]),
    ("sr", [29504, 138419, 108915, 108915]),
    ("softwear", [15992, 98853, 82862, 82861]),
    ("adaptive-sg", [4650, 136889, 132239, 132239]),
    ("freep", [18085, 136274, 119088, 120122]),
    ("lls", [169449, 231459, 198348, 319438]),
    ("zombie", [22506, 166671, 148812, 155223]),
    ("reviver-sg", [31094, 173510, 145973, 152501]),
    ("reviver-sr", [47692, 173293, 129731, 135655]),
    ("reviver-tiled", [31501, 175698, 148060, 154806]),
    ("reviver-sr2", [54626, 172712, 122931, 128596]),
    ("softwear-wlr", [54018, 173029, 131727, 142245]),
    ("adaptive-sg-wlr", [16137, 172884, 160501, 168318]),
];

/// Whether this run prints fresh goldens instead of asserting them.
fn capturing() -> bool {
    std::env::var("WLR_CAPTURE_GOLDEN").is_ok_and(|v| v == "1")
}

fn run_fingerprint(scheme: &str, verify: bool) -> u64 {
    let mut s = sim(scheme, verify);
    let out = s.run(StopCondition::Writes(STOP_WRITES));
    if verify {
        assert_eq!(s.verify_all(), 0, "data loss under {scheme:?}");
    }
    fingerprint(&out, s.series())
}

#[test]
fn outcomes_match_seed_engine_goldens() {
    let capture = capturing();
    for label in SchemeRegistry::global().names() {
        let fp = run_fingerprint(label, false);
        if capture {
            println!("    (\"{label}\", {fp:#018x}),");
            continue;
        }
        let golden = GOLDEN
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no golden for {label}"))
            .1;
        assert_eq!(
            fp, golden,
            "{label}: engine output diverged from the seed-state engine"
        );
    }
}

#[test]
fn oracle_runs_match_seed_engine_goldens() {
    let capture = capturing();
    for &(label, golden) in GOLDEN_ORACLE {
        let fp = run_fingerprint(label, true);
        if capture {
            println!("    (\"{label}\", {fp:#018x}), // oracle");
            continue;
        }
        assert_eq!(fp, golden, "{label}: oracle-mode run diverged");
    }
}

#[test]
fn access_counts_match_goldens() {
    let capture = capturing();
    for label in SchemeRegistry::global().names() {
        let mut s = sim(label, false);
        s.run(StopCondition::Writes(STOP_WRITES));
        let dev = s.controller().device().stats();
        let req = s.controller().request_stats();
        let got = [dev.reads, dev.writes, req.requests, req.accesses];
        if capture {
            println!("    (\"{label}\", {got:?}),");
            continue;
        }
        let golden = GOLDEN_ACCESS
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no access golden for {label}"))
            .1;
        assert_eq!(got, golden, "{label}: device/request access counts moved");
    }
}

/// Replay determinism: two identical runs of the same build agree. This
/// guards the fingerprints above against flakiness in the harness itself.
#[test]
fn same_build_is_deterministic() {
    let a = run_fingerprint("reviver-sg", false);
    let b = run_fingerprint("reviver-sg", false);
    assert_eq!(a, b);
}

/// Persistence round-trip for every stack: run deep into the failure
/// era, serialize the durable metadata (reviver stacks), power-cycle,
/// recover, and the rebuilt controller must be behaviorally equal to the
/// live one — same logical contents, durable image intact, and it keeps
/// running cleanly afterwards. Baselines model persistent metadata, so
/// for them the reboot must simply be a no-op behaviorally.
#[test]
fn persistence_round_trip_preserves_state_all_stacks() {
    use wl_reviver::recovery::PersistedMeta;

    for label in SchemeRegistry::global().names() {
        // A shorter rig than the golden config: deep wear by 40k writes.
        let mut s = Simulation::builder()
            .num_blocks(1 << 9)
            .endurance_mean(100.0)
            .gap_interval(PSI)
            .stack(label)
            .seed(SEED)
            .verify_integrity(true)
            .build();
        s.run(StopCondition::Writes(40_000));
        assert_eq!(s.verify_all(), 0, "{label}: dirty before reboot");

        let live = s.controller().as_reviver().map(|r| {
            let meta = r.persisted_meta();
            // The serialized image parses back to the identical mirror.
            let image = meta.to_bytes();
            let back =
                PersistedMeta::from_bytes(&image, meta.ptr.capacity()).expect("clean image parses");
            assert_eq!(back.to_bytes(), image, "{label}: lossy serialization");
            (image, r.linked_blocks(), r.spare_pas())
        });

        s.recover();

        assert_eq!(s.verify_all(), 0, "{label}: reboot lost logical data");
        if let Some((image, links, spares)) = live {
            let r = s.controller().as_reviver().expect("still a reviver");
            assert_eq!(
                r.persisted_meta().to_bytes(),
                image,
                "{label}: recovery corrupted the durable image"
            );
            assert_eq!(r.linked_blocks(), links, "{label}: links diverged");
            assert_eq!(r.spare_pas(), spares, "{label}: spare pool diverged");
        }

        // The recovered controller keeps servicing the same workload.
        s.run(StopCondition::Writes(50_000));
        assert_eq!(s.verify_all(), 0, "{label}: post-reboot run corrupted");
    }
}

/// A reviver controller rebuilt *from the serialized image alone* (the
/// firmware-scan path, `restore_from`) equals the live controller.
#[test]
fn restore_from_serialized_image_matches_live_state() {
    use wl_reviver::recovery::PersistedMeta;

    let mut s = Simulation::builder()
        .num_blocks(1 << 9)
        .endurance_mean(100.0)
        .gap_interval(PSI)
        .stack("reviver-sg")
        .seed(SEED)
        .verify_integrity(true)
        .build();
    s.run(StopCondition::Writes(40_000));

    let image = s
        .controller()
        .as_reviver()
        .expect("reviver stack")
        .persisted_meta()
        .to_bytes();
    let (links, spares) = {
        let r = s.controller().as_reviver().unwrap();
        (r.linked_blocks(), r.spare_pas())
    };

    let blocks = s.controller().device().total_blocks();
    let meta = PersistedMeta::from_bytes(&image, blocks).expect("clean image parses");
    let report = s
        .controller_mut()
        .as_reviver_mut()
        .expect("reviver stack")
        .restore_from(meta)
        .expect("the image is this controller's own");
    assert!(report.blocks_scanned > 0, "restore scanned nothing");
    assert_eq!(report.links_recovered, links, "links not all recovered");

    let r = s.controller().as_reviver().unwrap();
    assert_eq!(r.linked_blocks(), links);
    assert_eq!(r.spare_pas(), spares);
    assert_eq!(s.verify_all(), 0, "restore_from lost logical data");
}
