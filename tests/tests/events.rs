//! Event-spine equivalence and replay tests.
//!
//! The reviver emits a [`ReviverEvent`] at every state transition, and
//! attached [`EventSink`]s observe the stream. Events are observability,
//! not behavior: this suite proves that attaching sinks — the zero-cost
//! no-op, the counter fold, the incremental invariant checker — leaves
//! every golden fingerprint from `equivalence.rs` bit-identical, and
//! that the recorded stream is *complete*: replaying it through a fresh
//! [`ReviverCounters`] fold reconstructs the controller's own counters
//! exactly.

use wl_reviver::metrics::TimeSeries;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Outcome, Simulation, StopCondition};
use wl_reviver::{
    EventSink, InvariantSink, NoopSink, RevivedController, ReviverCounters, ReviverEvent,
};

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
    for p in series.points() {
        h.u64(p.writes);
        h.f64(p.survival);
        h.f64(p.usable);
        h.f64(p.avg_access_time);
        h.u64(p.wl_active as u64);
    }
    h.0
}

/// Runs one golden-config lifetime with the given sinks attached and
/// returns the fingerprint.
fn run_with_sinks(scheme: &str, sinks: Vec<Box<dyn EventSink>>) -> (u64, Simulation) {
    let mut s = golden_sim(scheme);
    let r = s
        .controller_mut()
        .as_reviver_mut()
        .expect("golden reviver stack");
    for sink in sinks {
        r.add_sink(sink);
    }
    let out = s.run(StopCondition::Writes(STOP_WRITES));
    let fp = fingerprint(&out, s.series());
    (fp, s)
}

/// Dispatching events to a no-op sink must not move a single output bit:
/// every reviver golden from `equivalence.rs` holds with the dispatch
/// path forced on.
#[test]
fn noop_sink_preserves_every_reviver_golden() {
    for &(label, golden) in REVIVER_GOLDEN {
        let (fp, _) = run_with_sinks(label, vec![Box::new(NoopSink)]);
        assert_eq!(
            fp, golden,
            "{label}: attaching a no-op sink changed the run"
        );
    }
}

/// A *stacked* sink pipeline — counter fold plus the incremental
/// invariant checker — is equally behavior-neutral, the counter sink
/// bit-matches the controller's built-in counters, and the tolerant
/// checker stays silent across a healthy lifetime.
#[test]
fn counter_and_invariant_sinks_preserve_goldens_and_agree() {
    for &(label, golden) in &[REVIVER_GOLDEN[0], REVIVER_GOLDEN[1]] {
        let (fp, s) = run_with_sinks(
            label,
            vec![
                Box::new(ReviverCounters::default()),
                Box::new(InvariantSink::new()),
            ],
        );
        assert_eq!(fp, golden, "{label}: stacked sinks changed the run");

        let r = s.controller().as_reviver().expect("reviver stack");
        let folded = r
            .sink::<ReviverCounters>()
            .expect("counter sink still attached");
        assert_eq!(
            *folded,
            r.counters(),
            "{label}: the sink fold diverged from the built-in counters"
        );
        let inv = r.sink::<InvariantSink>().expect("invariant sink attached");
        assert!(inv.checks() > 0, "{label}: the checker never ran");
        assert!(
            inv.violations().is_empty(),
            "{label}: healthy run flagged: {:?}",
            inv.violations()
        );
    }
}

/// A minimal recording sink: the raw event stream, in order.
#[derive(Debug, Default)]
struct RecordingSink(Vec<ReviverEvent>);

impl EventSink for RecordingSink {
    fn on_event(&mut self, _ctl: &RevivedController, ev: &ReviverEvent) {
        self.0.push(*ev);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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
            .add_sink(Box::new(RecordingSink::default()));
        s.run(StopCondition::Writes(60_000));
        s.simulate_reboot();
        s.run(StopCondition::Writes(80_000));

        let r = s.controller().as_reviver().expect("reviver stack");
        let recorded = r.sink::<RecordingSink>().expect("recorder attached");
        assert!(!recorded.0.is_empty(), "{label}: no events recorded");

        let mut replayed = ReviverCounters::default();
        for ev in &recorded.0 {
            replayed.apply(ev);
        }
        assert_eq!(
            replayed,
            r.counters(),
            "{label}: replaying {} events did not reconstruct the counters",
            recorded.0.len()
        );
    }
}

/// Subscribes to quiescent points and does nothing with them — which
/// alone keeps the controller off its steady-state write path.
#[derive(Debug)]
struct QuiescedSink;

impl EventSink for QuiescedSink {
    fn on_event(&mut self, _ctl: &RevivedController, _ev: &ReviverEvent) {}

    fn wants_quiesced(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// On/off equivalence of the steady-state write path (the mapped block
/// or its one-step shadow, then the scheme's fast recording): for every
/// revivable stack, with and without a remap cache, one seeded stream
/// driven through the tail of a lifetime leaves the same chip, the same
/// access counts and the same event counts as the full per-write
/// protocol, which a quiescence subscriber forces.
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
                    .seed(SEED);
                if let Some(bytes) = cache {
                    b = b.cache_bytes(bytes);
                }
                let mut s = b.build();
                if full_protocol {
                    s.controller_mut()
                        .as_reviver_mut()
                        .expect("revivable stack")
                        .add_sink(Box::new(QuiescedSink));
                }
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

/// JSONL tracer smoke test: with the `trace-events` feature on, a sink
/// created on a scratch path writes one well-formed line per event.
#[cfg(feature = "trace-events")]
#[test]
fn jsonl_sink_writes_one_line_per_event() {
    use wl_reviver::JsonlSink;

    let path = std::env::temp_dir()
        .join(format!("wlr-events-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut s = Simulation::builder()
        .num_blocks(1 << 9)
        .endurance_mean(60.0)
        .gap_interval(PSI)
        .stack("reviver-sg")
        .seed(SEED)
        .build();
    s.controller_mut()
        .as_reviver_mut()
        .expect("reviver stack")
        .add_sink(Box::new(
            JsonlSink::create(&path).expect("scratch file opens"),
        ));
    s.run(StopCondition::Writes(30_000));
    drop(s);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "no events traced");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"event\":"),
            "malformed JSONL line: {line}"
        );
    }
}
