//! Event-spine equivalence and replay tests.
//!
//! The reviver emits a [`wl_reviver::ReviverEvent`] at every state
//! transition, and an attached event ring records the stream. Events are
//! observability, not behavior: this suite proves that attaching a ring
//! leaves every golden fingerprint from `equivalence.rs` bit-identical,
//! and that the recorded stream is *complete*: replaying it through a
//! fresh [`ReviverCounters`] fold reconstructs the controller's own
//! counters exactly.

use wl_reviver::metrics::TimeSeries;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Outcome, Simulation, StopCondition};
use wl_reviver::ReviverCounters;

const BLOCKS: u64 = 1 << 10;
const ENDURANCE: f64 = 300.0;
const PSI: u64 = 7;
const SEED: u64 = 7;
const STOP_WRITES: u64 = 280_000;

/// The reviver rows of `equivalence.rs`'s `GOLDEN` table. Kept in sync
/// by hand; if a golden is intentionally re-captured there, update here.
const REVIVER_GOLDEN: &[(&str, u64)] = &[
    ("reviver-sg", 0x82a91d5fa092d560),
    ("reviver-sr", 0x74ac0550cb0985e1),
    ("reviver-tiled", 0xacabc7818ee1fc51),
    ("reviver-sr2", 0xb9bcda0cdd26c283),
];

fn golden_sim(scheme: &str) -> Simulation {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(PSI)
        .stack(scheme)
        .seed(SEED)
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

/// The same bit-exact fingerprint `equivalence.rs` computes.
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

/// Recording every event in a ring must not move a single output bit:
/// every reviver golden from `equivalence.rs` holds with the ring
/// attached for the whole lifetime.
#[test]
fn an_attached_ring_preserves_every_reviver_golden() {
    for &(label, golden) in REVIVER_GOLDEN {
        let mut s = golden_sim(label);
        s.controller_mut()
            .as_reviver_mut()
            .expect("golden reviver stack")
            .record_events(64);
        let out = s.run(StopCondition::Writes(STOP_WRITES));
        assert_eq!(
            fingerprint(&out, s.series()),
            golden,
            "{label}: attaching an event ring changed the run"
        );
        let ring = s
            .controller()
            .as_reviver()
            .and_then(|r| r.events())
            .expect("ring still attached");
        assert!(ring.seen() > 0, "{label}: no events recorded");
    }
}

/// Stream-completeness property: replaying a recorded event stream
/// through a fresh [`ReviverCounters::apply`] fold reconstructs the
/// controller's own counters exactly. If any emission site bumped a
/// counter without emitting (or vice versa), this diverges.
#[test]
fn replaying_recorded_events_reconstructs_counters() {
    for &(label, _) in REVIVER_GOLDEN {
        let mut s = Simulation::builder()
            .num_blocks(1 << 9)
            .endurance_mean(100.0)
            .gap_interval(PSI)
            .stack(label)
            .seed(SEED)
            .build();
        s.controller_mut()
            .as_reviver_mut()
            .expect("reviver stack")
            .record_events(usize::MAX);
        s.run(StopCondition::Writes(60_000));
        s.recover();
        s.run(StopCondition::Writes(80_000));

        let r = s.controller().as_reviver().expect("reviver stack");
        let recorded = r.events().expect("ring attached");
        assert!(!recorded.is_empty(), "{label}: no events recorded");
        assert_eq!(
            recorded.seen(),
            recorded.len() as u64,
            "{label}: the ring evicted events"
        );

        let mut replayed = ReviverCounters::default();
        for (_, ev) in recorded.events() {
            replayed.apply(&ev);
        }
        assert_eq!(
            replayed,
            r.counters(),
            "{label}: replaying {} events did not reconstruct the counters",
            recorded.len()
        );
    }
}

/// On/off equivalence of the steady-state write path (the mapped block
/// or its one-step shadow, then the scheme's fast recording): for every
/// revivable stack, with and without a remap cache, one seeded stream
/// driven through the tail of a lifetime leaves the same chip, the same
/// access counts and the same event counts as the full per-write
/// protocol, which invariant checking after every request forces.
#[test]
fn steady_state_path_matches_the_full_protocol_on_every_revivable_stack() {
    for spec in SchemeRegistry::global().revivable() {
        for cache in [None, Some(1024)] {
            let run = |full_protocol: bool| {
                let mut b = Simulation::builder()
                    .num_blocks(BLOCKS)
                    .endurance_mean(ENDURANCE)
                    .gap_interval(PSI)
                    .stack(spec.name)
                    .seed(SEED)
                    .check_invariants(full_protocol);
                if let Some(bytes) = cache {
                    b = b.cache_bytes(bytes);
                }
                let mut s = b.build();
                s.run(StopCondition::UsableBelow(0.5));
                let ctl = s.controller();
                let r = ctl.as_reviver().expect("revivable stack");
                (
                    s.fingerprint(),
                    ctl.device().stats(),
                    ctl.request_stats(),
                    r.counters(),
                    r.cache_hit_ratio().map(f64::to_bits),
                )
            };
            let (fast, full) = (run(false), run(true));
            assert!(
                fast.3.links > 0,
                "{}: the run never left the healthy era",
                spec.name
            );
            assert_eq!(
                fast, full,
                "{} (cache {cache:?}): the steady-state path diverged from the full protocol",
                spec.name
            );
        }
    }
}
