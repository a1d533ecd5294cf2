//! `wlr-serve`: the always-on WL-Reviver service daemon.
//!
//! Runs the pinned multi-bank pipeline ([`wlr_mc::McFrontend`]) as a
//! long-lived service: an open-loop client [`fleet`] feeds a bounded
//! admission ring, the service loop drains it through
//! [`McFrontend::with_pipeline`], and a std-only [`http`] endpoint
//! exposes live `/metrics` (Prometheus text), `/healthz`, and
//! `/snapshot`. Observability rides the existing machinery end to end:
//! revival counters arrive through per-bank
//! [`wl_reviver::MetricsSink`]s on the event spine, pipeline gauges come
//! from lag-one [`wlr_mc::PipelineSnapshot`]s, and wall-clock spans are
//! sampled 1-in-N via the front-end's span probes — the hot path never
//! takes a lock for any of it.
//!
//! On SIGTERM/SIGINT (or after `WLR_SERVE_REQUESTS` arrivals) the daemon
//! drains, persists the device image ([`state`]), optionally dumps the
//! per-bank trace rings, and exits. A restart with the same
//! configuration replays the image — wear, page retirements, reviver
//! metadata — and the §III-B recovery scan runs *into the same live
//! sinks*, so the first post-restart scrape already shows the recovery
//! phase counters. Per-bank recovery runs in parallel on the shared
//! worker pool, and the listener only binds once the whole replay (and
//! any persisted quarantine state) is back.
//!
//! The daemon always runs the pipeline in degraded mode: a bank death is
//! quarantined (wreckage rescued into the migrated-line directory,
//! steering excluded, substitute elected) and the service keeps going at
//! N−1. Faults can be injected into the live pipeline with
//! `WLR_CHAOS_PLAN` or `GET /chaos?plan=...` (see [`chaos`]). A panic
//! anywhere in the service loop — driver or pinned worker — unwinds
//! through the pipeline scope with the banks restored, so the crash path
//! still dumps the trace rings and persists the device image before the
//! process exits.

#![deny(unsafe_code)]

mod chaos;
mod config;
mod fleet;
mod http;
mod metrics;
mod signal;
mod state;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wl_reviver::{MetricsSink, TraceRingSink};
use wlr_base::spsc::{self, Consumer};
use wlr_mc::{McFrontend, McStopPolicy, PipelineSnapshot};
use wlr_trace::HotRegionWorkload;

use chaos::ChaosCmd;
use config::Config;
use fleet::{FleetConfig, FleetCounters};
use metrics::ServeMetrics;

/// ψ, writes per leveler migration step (part of the persisted-image
/// identity).
const GAP_INTERVAL: u64 = 100;
/// Per-bank trace-ring capacity in events.
const TRACE_RING: usize = 512;

fn main() {
    let cfg = Config::from_env();
    signal::install();
    // The default hook prints the panic; ours additionally raises the
    // stop flag so the fleet thread winds down while main unwinds
    // toward the persist-and-dump crash path.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        signal::request_stop();
        default_hook(info);
    }));
    let m = ServeMetrics::new(cfg.banks);

    let mut mc = build_frontend(&cfg);
    if cfg.metrics_sample != 0 {
        mc.set_span_histogram(m.span_ns.clone());
    }
    for b in 0..cfg.banks {
        let r = mc
            .bank_sim_mut(b)
            .controller_mut()
            .as_reviver_mut()
            .expect("wlr-serve requires a reviver scheme");
        r.add_sink(Box::new(MetricsSink::new(m.revival.clone())));
        r.add_sink(Box::new(TraceRingSink::new(TRACE_RING)));
    }

    let shared = Arc::new(http::Shared::new(Arc::clone(&m.registry)));
    shared.set_scheme(
        wl_reviver::SchemeRegistry::global()
            .get(&cfg.scheme)
            .expect("validated in Config::from_env")
            .name,
    );

    // The configuration identity a persisted image is only accepted under.
    let identity = [
        cfg.banks as u64,
        cfg.total_blocks,
        cfg.seed,
        cfg.endurance_mean.to_bits(),
        GAP_INTERVAL,
        state::scheme_hash(&cfg.scheme),
    ];
    // Restore a persisted image, replaying recovery into the live sinks.
    let mut lifetime_serviced = 0u64;
    if let Some(path) = &cfg.state_path {
        match state::load(path) {
            Ok(Some(img)) => {
                if !img.matches(identity) {
                    eprintln!("wlr-serve: {path} was captured under a different configuration");
                    std::process::exit(2);
                }
                lifetime_serviced = img.serviced;
                let t = Instant::now();
                let reports = state::restore(&mut mc, &img).unwrap_or_else(|e| {
                    eprintln!("wlr-serve: cannot restore {path}: {e}");
                    std::process::exit(2);
                });
                m.recovery_ms.set(t.elapsed().as_millis() as u64);
                m.restores.inc();
                shared.recovered.store(true, Ordering::Relaxed);
                let mut report = wl_reviver::RecoveryReport::default();
                for r in &reports {
                    report.absorb(r);
                }
                eprintln!(
                    "wlr-serve: restored {path} ({} banks in {:.0?}): {} blocks scanned, \
                     {} links recovered, {} healed, {} quarantined",
                    reports.len(),
                    t.elapsed(),
                    report.blocks_scanned,
                    report.links_recovered,
                    report.healed_links,
                    img.quarantine
                        .as_ref()
                        .map_or(0, |q| q.dead.iter().filter(|&&d| d).count()),
                );
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("wlr-serve: cannot restore {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    // Boot-time chaos plan: bank clauses post into the live mailboxes
    // now, daemon kill points ride into the service loop.
    let mut kill_points: Vec<u64> = Vec::new();
    if let Some(plan) = &cfg.chaos_plan {
        match chaos::parse_plan(plan) {
            Ok(cmds) => {
                eprintln!("wlr-serve: chaos plan armed ({} clauses)", cmds.len());
                apply_chaos(cmds, &mc, &mut kill_points);
            }
            Err(e) => {
                eprintln!("wlr-serve: bad WLR_CHAOS_PLAN: {e}");
                std::process::exit(2);
            }
        }
    }

    // Pre-render a snapshot so the very first `/snapshot` scrape is
    // well-formed even if it beats the service loop's first publish, and
    // only then leave `recovering` — the listener binds after this.
    let boot_snap = mc.pipeline_snapshot();
    m.publish(&boot_snap, 0);
    shared.set_snapshot(snapshot_json(&boot_snap, &m, lifetime_serviced));
    shared.set_state(if boot_snap.dead_banks() > 0 {
        http::ServeState::Degraded
    } else {
        http::ServeState::Ok
    });

    let addr = match http::spawn(&cfg.addr, Arc::clone(&shared)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wlr-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    eprintln!("wlr-serve: listening on {addr}");

    let (producer, consumer) = spsc::ring(cfg.admission_depth);
    let fleet_stop = Arc::new(AtomicBool::new(false));
    let fleet = fleet::spawn(
        FleetConfig {
            // 80 % of arrivals on 1/16th of the lines — hot blocks, yet
            // too many for the 32-line write buffer to keep off the PCM
            // (64 lines even at the smoke's 1,024 blocks).
            workload: Box::new(HotRegionWorkload::new(
                cfg.total_blocks,
                0.8,
                1.0 / 16.0,
                cfg.seed,
            )),
            rate: cfg.arrival_rate,
            total: cfg.requests,
            policy: cfg.shed_policy,
        },
        producer,
        FleetCounters {
            generated: m.generated.clone(),
            shed: m.shed.clone(),
        },
        Arc::clone(&fleet_stop),
    );

    // Panics in the driver or a pinned worker unwind out of the pipeline
    // scope with the banks restored, so the crash path below can still
    // dump traces and persist the image before exiting.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_service(&mut mc, consumer, &fleet, &m, &shared, &cfg, kill_points)
    }));
    fleet_stop.store(true, Ordering::Relaxed);
    shared.set_state(http::ServeState::Draining);
    let crashed = run.is_err();
    let serviced = match run {
        Ok(n) => n,
        // The crash path loses at most the submits since the last
        // serviced-counter update; the persisted image is still the
        // drained ground truth.
        Err(_) => shared.serviced.load(Ordering::Relaxed),
    };
    let outcome = mc.finish();
    m.read_retries.set(outcome.read_retries);
    m.retry_exhausted.set(outcome.retry_exhausted);
    fleet.join();

    // Final publication so a last scrape sees the drained pipeline.
    let snap = mc.pipeline_snapshot();
    m.publish(&snap, 0);
    shared.set_snapshot(snapshot_json(&snap, &m, lifetime_serviced + serviced));

    if let Some(prefix) = &cfg.trace_dump {
        dump_traces(&mut mc, prefix, cfg.banks);
    }
    if let Some(path) = &cfg.state_path {
        let img = state::capture(&mc, identity, lifetime_serviced + serviced);
        match state::save(path, &img) {
            Ok(()) => eprintln!("wlr-serve: persisted {path}"),
            Err(e) => {
                eprintln!("wlr-serve: cannot persist {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if crashed {
        eprintln!("wlr-serve: service loop panicked; state persisted, exiting 101");
        std::process::exit(101);
    }
    eprintln!(
        "wlr-serve: drained; serviced {serviced} (lifetime {}), issued {}, \
         shed {}, quarantined {}, stop {:?}",
        lifetime_serviced + serviced,
        outcome.issued,
        m.shed.get(),
        outcome.quarantines,
        outcome.stop,
    );
}

fn build_frontend(cfg: &Config) -> McFrontend {
    McFrontend::builder()
        .banks(cfg.banks)
        .total_blocks(cfg.total_blocks)
        .endurance_mean(cfg.endurance_mean)
        .stack(&cfg.scheme)
        .gap_interval(GAP_INTERVAL)
        .seed(cfg.seed)
        .span_sample(cfg.metrics_sample)
        // A service keeps serving while any bank survives.
        .stop_policy(McStopPolicy::Quorum(1.0))
        // Bank deaths quarantine and the array keeps serving at N−k;
        // bit-identical to a plain run when no faults fire.
        .degraded(true)
        .verify_integrity(cfg.verify)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("wlr-serve: bad geometry: {e}");
            std::process::exit(2);
        })
}

/// Routes parsed chaos commands: bank clauses into the front-end's live
/// mailboxes, daemon kill points into the service loop's list.
fn apply_chaos(cmds: Vec<ChaosCmd>, mc: &McFrontend, kill_points: &mut Vec<u64>) {
    for cmd in cmds {
        match cmd {
            ChaosCmd::Bank { bank, chaos } => {
                if bank < mc.num_banks() {
                    mc.inject_chaos(bank, chaos);
                } else {
                    eprintln!("wlr-serve: chaos clause targets missing bank {bank}, ignored");
                }
            }
            ChaosCmd::DaemonKill(n) => kill_points.push(n),
        }
    }
}

/// The service loop: drain the admission ring through the live pipeline,
/// publishing metrics and the JSON snapshot every publish interval.
/// Returns the number of requests serviced.
fn run_service(
    mc: &mut McFrontend,
    mut ring: Consumer,
    fleet: &fleet::Fleet,
    m: &ServeMetrics,
    shared: &http::Shared,
    cfg: &Config,
    mut kill_points: Vec<u64>,
) -> u64 {
    let publish_every = Duration::from_millis(cfg.publish_ms.max(10));
    mc.with_pipeline(|mc| {
        let mut buf: Vec<u64> = Vec::with_capacity(4096);
        let mut last_publish = Instant::now();
        let mut last_requests = mc.requests();
        let base = mc.requests();
        loop {
            // Admin chaos lands here: bank clauses go straight into the
            // live mailboxes, kill points join the armed list.
            let cmds = shared.take_chaos();
            if !cmds.is_empty() {
                apply_chaos(cmds, mc, &mut kill_points);
            }
            buf.clear();
            let n = ring.pop_into(&mut buf);
            for &addr in &buf {
                mc.submit(addr);
            }
            let serviced_now = mc.requests() - base;
            if n > 0 {
                m.serviced.add(n as u64);
                shared.serviced.store(serviced_now, Ordering::Relaxed);
            }
            if kill_points.iter().any(|&k| serviced_now >= k) {
                // The whole-daemon kill point: no drain, no persist —
                // the next boot recovers from the last committed image.
                eprintln!(
                    "wlr-serve: chaos kill point reached at {serviced_now} serviced, aborting"
                );
                std::process::abort();
            }
            if last_publish.elapsed() >= publish_every {
                let dt = last_publish.elapsed().as_secs_f64();
                let snap = mc.pipeline_snapshot();
                let wps = ((snap.requests - last_requests) as f64 / dt) as u64;
                last_requests = snap.requests;
                last_publish = Instant::now();
                m.publish(&snap, wps);
                shared.set_state(if snap.dead_banks() > 0 {
                    http::ServeState::Degraded
                } else {
                    http::ServeState::Ok
                });
                shared.set_snapshot(snapshot_json(&snap, m, snap.requests));
            }
            if signal::stop_requested() || mc.stopped().is_some() {
                break;
            }
            if n == 0 {
                if fleet.done() && ring.is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        mc.requests() - base
    })
}

/// Renders a pipeline snapshot (plus service counters) as JSON by hand —
/// flat, stable keys, no dependencies.
fn snapshot_json(snap: &PipelineSnapshot, m: &ServeMetrics, lifetime: u64) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"requests\":{},\"lifetime_requests\":{lifetime},\"ticks\":{},\"drains\":{},\
         \"occupancy\":{},\"dead_banks\":{},\"p50_ticks\":{},\"p99_ticks\":{},\
         \"p999_ticks\":{},\"mean_batch\":{:.3},\"mean_flush_age\":{:.3},\
         \"generated\":{},\"shed\":{},\"links\":{},\"switches\":{},\
         \"quarantines\":{},\"redirected\":{},\"migrated_lines\":{},\
         \"directory_lines\":{},\"banks\":[",
        snap.requests,
        snap.ticks,
        snap.drains,
        snap.total_occupancy(),
        snap.dead_banks(),
        snap.p50_ticks,
        snap.p99_ticks,
        snap.p999_ticks,
        snap.accum.mean_batch(),
        snap.accum.mean_flush_age(),
        m.generated.get(),
        m.shed.get(),
        m.revival.links.get(),
        m.revival.switches.get(),
        snap.quarantines,
        snap.redirected,
        snap.migrated_lines,
        snap.directory_lines,
    );
    for (i, b) in snap.banks.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"bank\":{},\"flushed\":{},\"consumed\":{},\"occupancy\":{},\"dead\":{}}}",
            if i == 0 { "" } else { "," },
            b.bank,
            b.flushed,
            b.consumed,
            b.occupancy,
            b.dead,
        );
    }
    s.push_str("]}");
    s
}

/// Writes each bank's retained trace-ring window to
/// `<prefix>.bank<i>.jsonl`.
fn dump_traces(mc: &mut McFrontend, prefix: &str, banks: usize) {
    for b in 0..banks {
        if let Some(dump) = mc.bank_sim_mut(b).trace_dump() {
            let path = format!("{prefix}.bank{b}.jsonl");
            match std::fs::write(&path, dump) {
                Ok(()) => eprintln!("wlr-serve: trace ring dumped to {path}"),
                Err(e) => eprintln!("wlr-serve: cannot dump {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_mc::{BankPipeStat, PipeAccum};

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = ServeMetrics::new(1);
        m.generated.add(5);
        let json = snapshot_json(
            &PipelineSnapshot {
                requests: 4,
                ticks: 4,
                drains: 1,
                accum: PipeAccum::new(),
                steer_rotations: 0,
                p50_ticks: 1,
                p99_ticks: 2,
                p999_ticks: 3,
                quarantines: 0,
                redirected: 0,
                migrated_lines: 0,
                directory_lines: 0,
                banks: vec![BankPipeStat {
                    bank: 0,
                    flushed: 4,
                    consumed: 4,
                    occupancy: 0,
                    busy_until: 5,
                    dead: false,
                }],
            },
            &m,
            4,
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\":4"));
        assert!(json.contains("\"generated\":5"));
        assert!(json.contains("\"dead\":false"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }
}
