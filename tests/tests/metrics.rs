//! Live-metrics equivalence and round-trip tests (DESIGN.md §8).
//!
//! The serve daemon's observability layer must be a *view*, never a
//! fork: a [`MetricsSink`] folding events into registry atomics has to
//! agree bit-for-bit with the controller's own [`ReviverCounters`], the
//! registry's mergeable histogram snapshots must not care how per-bank
//! publications are grouped, and a `/metrics` scrape must survive a
//! parse round-trip — that is what the smoke harness asserts against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Simulation, StopCondition};
use wl_reviver::{MetricsSink, RevivalMetrics};
use wlr_base::stats::registry::{
    parse_exposition, HistogramSnapshot, LogHistogram, MetricsRegistry,
};

const BLOCKS: u64 = 1 << 10;
const ENDURANCE: f64 = 300.0;
const PSI: u64 = 7;
const SEED: u64 = 7;
const STOP_WRITES: u64 = 280_000;

fn golden_sim(scheme: &str) -> Simulation {
    Simulation::builder()
        .num_blocks(BLOCKS)
        .endurance_mean(ENDURANCE)
        .gap_interval(PSI)
        .stack(scheme)
        .seed(SEED)
        .build()
}

/// The live registry fold agrees with the controller's built-in
/// counters on every registered stack — including across a mid-run
/// reboot, so the recovery replay is folded too. Bare stacks have no
/// reviver, which is itself part of the contract: the sink attaches
/// only where revival state exists, exactly where the registry says so.
#[test]
fn metrics_sink_matches_builtin_counters_on_every_golden_stack() {
    for spec in SchemeRegistry::global().iter() {
        let label = spec.name;
        let mut s = golden_sim(label);
        let registry = MetricsRegistry::new();
        let reviver = s.controller_mut().as_reviver_mut();
        assert_eq!(
            reviver.is_some(),
            spec.revivable,
            "{label}: the registry's revivable flag must describe the built stack"
        );
        let Some(r) = reviver else { continue };
        r.add_sink(Box::new(MetricsSink::new(RevivalMetrics::register(
            &registry,
        ))));
        s.run(StopCondition::Writes(STOP_WRITES / 2));
        s.simulate_reboot();
        s.run(StopCondition::Writes(STOP_WRITES));

        let r = s.controller().as_reviver().expect("reviver stack");
        let sink = r.sink::<MetricsSink>().expect("metrics sink attached");
        let mut expected = r.counters();
        // Not event-derived (bumped outside the `apply` fold); the
        // registry view documents it as always reading 0.
        expected.reboot_lost_migrations = 0;
        assert_eq!(
            sink.snapshot_counters(),
            expected,
            "{label}: registry fold diverged from the built-in counters"
        );
        assert!(
            expected.links > 0 && expected.reboots > 0,
            "{label}: run too quiet to prove anything \
             (links {}, reboots {})",
            expected.links,
            expected.reboots
        );
    }
}

/// Histogram snapshot merging is associative and order-independent, so
/// it does not matter how (or in what order) per-bank publications are
/// batched into the global view.
#[test]
fn histogram_merge_is_associative_and_order_independent() {
    let per_bank: Vec<HistogramSnapshot> = (0u64..4)
        .map(|bank| {
            let h = LogHistogram::new();
            for i in 0..200 {
                h.record(bank * 1_000 + i * 17 + 1);
            }
            h.snapshot()
        })
        .collect();

    // ((a ⊕ b) ⊕ c) ⊕ d
    let mut left = HistogramSnapshot::new();
    for s in &per_bank {
        left.merge(s);
    }
    // (a ⊕ (b ⊕ (c ⊕ d))), built right-to-left.
    let mut right = HistogramSnapshot::new();
    for s in per_bank.iter().rev() {
        right.merge(s);
    }
    // Pairwise tree: (a ⊕ c) ⊕ (d ⊕ b).
    let mut odd = HistogramSnapshot::new();
    odd.merge(&per_bank[0]);
    odd.merge(&per_bank[2]);
    let mut even = HistogramSnapshot::new();
    even.merge(&per_bank[3]);
    even.merge(&per_bank[1]);
    let mut tree = HistogramSnapshot::new();
    tree.merge(&odd);
    tree.merge(&even);

    for other in [&right, &tree] {
        assert_eq!(left.buckets, other.buckets);
        assert_eq!(left.count, other.count);
        assert_eq!(left.sum, other.sum);
        assert_eq!(left.max, other.max);
    }
    assert_eq!(left.count, 800);
    for q in [0.5, 0.99, 0.999] {
        assert_eq!(left.percentile(q), right.percentile(q));
        assert_eq!(left.percentile(q), tree.percentile(q));
    }
}

/// Concurrent lock-free publication: worker threads hammer the same
/// shared histogram and counter handles; nothing is lost.
#[test]
fn concurrent_publication_loses_nothing() {
    let registry = MetricsRegistry::new();
    let hist = registry.histogram("wlr_test_spans", "test spans");
    let ctr = registry.counter("wlr_test_events_total", "test events");
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for worker in 0u64..4 {
            let hist = hist.clone();
            let ctr = ctr.clone();
            let total = total.clone();
            scope.spawn(move || {
                let mut sum = 0u64;
                for i in 0..10_000 {
                    let v = worker * 31 + i % 997 + 1;
                    hist.record(v);
                    ctr.inc();
                    sum += v;
                }
                total.fetch_add(sum, Ordering::Relaxed);
            });
        }
    });
    let snap = hist.snapshot();
    assert_eq!(snap.count, 40_000);
    assert_eq!(snap.sum, total.load(Ordering::Relaxed));
    assert_eq!(ctr.get(), 40_000);
}

/// A rendered exposition scrape survives `parse_exposition` with every
/// scalar value and histogram aggregate intact — the same round trip
/// `scripts/serve_smoke.sh` performs against the live daemon.
#[test]
fn exposition_round_trips_through_parse() {
    let registry = MetricsRegistry::new();
    registry
        .counter("wlr_requests_total", "requests serviced")
        .add(12_345);
    registry
        .gauge_with("wlr_ring_occupancy", "ring occupancy", &[("bank", "3")])
        .set(17);
    let h = registry.histogram("wlr_span_ns", "span wall-clock");
    for v in [1, 2, 900, 70_000, 70_001] {
        h.record(v);
    }

    let text = registry.render();
    let samples = parse_exposition(&text).expect("render emits parseable exposition");
    let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (ek, ev))| k == ek && v == ev)
            })
            .unwrap_or_else(|| panic!("sample {name}{labels:?} missing from scrape"))
            .value
    };

    assert_eq!(find("wlr_requests_total", &[]), 12_345.0);
    assert_eq!(find("wlr_ring_occupancy", &[("bank", "3")]), 17.0);
    assert_eq!(find("wlr_span_ns_count", &[]), 5.0);
    assert_eq!(
        find("wlr_span_ns_sum", &[]),
        (1 + 2 + 900 + 70_000 + 70_001) as f64
    );
    assert_eq!(find("wlr_span_ns_bucket", &[("le", "+Inf")]), 5.0);
    // Cumulative bucket counts are monotone and end at the total.
    let mut last = 0.0;
    for s in samples.iter().filter(|s| s.name == "wlr_span_ns_bucket") {
        assert!(s.value >= last, "bucket counts must be cumulative");
        last = s.value;
    }
    assert_eq!(last, 5.0);

    // Parsing is stable: a second render parses to the same samples.
    assert_eq!(
        parse_exposition(&registry.render()).expect("second scrape"),
        samples
    );
}
