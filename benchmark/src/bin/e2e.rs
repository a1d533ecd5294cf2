//! `e2e` — the end-to-end run: one workload, tracing off.
//!
//! Sets the workload up several times, runs one untimed warm-up
//! repetition, then repeats a fixed-size, fresh-state piece of work until
//! `--seconds` have passed and reports the throughput, the simulated
//! statistics (which must be identical in every repetition) and peak
//! memory. A repetition is timed in short pieces, and each piece counts
//! with the lower quartile of its repetitions (`stats::QUIET_PCT`): the
//! host's interference comes in bursts and only ever adds time.
//!
//! This binary is the regression gate of later refactors, so it uses only
//! a narrow, pinned surface of the crates (listed in README.md): no
//! `SchemeKind`, no per-scheme setters, no `WLR_*` knobs. Everything
//! layer-specific lives in `layers`.

use std::time::{Duration, Instant};
use wl_reviver::sim::{SimSnapshot, Simulation, StopCondition, StopReason};
use wlr_benchmark::json::Value;
use wlr_benchmark::shape::{self, STACKS};
use wlr_benchmark::{stats, Args, Metrics, END_TO_END, REPORTED_ONLY};
use wlr_mc::McStopReason;
use wlr_pcm::{AccessStats, FaultPlan};
use wlr_trace::Workload;

/// The simulated statistics of one repetition. Deterministic: every
/// repetition of a run must produce the same value, and so must two
/// commits that only differ in host speed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Simulated {
    /// Software writes (simulator) or requests (`mc`) completed in the
    /// timed spans.
    ops: u64,
    /// Operations attempted and failed, as the result line counts them.
    attempted: u64,
    failed: u64,
    /// `sim_lifetime_writes`.
    lifetime_writes: u64,
    device: (u64, u64),
    service_ticks: (u64, u64),
    retirements: u64,
    lost_writes: u64,
    /// `fingerprint()` of every final simulator state, in run order.
    fingerprints: Vec<u64>,
}

impl Simulated {
    fn add_device(&mut self, before: AccessStats, after: AccessStats) {
        self.device.0 += after.writes - before.writes;
        self.device.1 += after.reads - before.reads;
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("ops", Value::Int(self.ops)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("sim_lifetime_writes", Value::Int(self.lifetime_writes)),
            ("device_writes", Value::Int(self.device.0)),
            ("device_reads", Value::Int(self.device.1)),
            ("service_p50_ticks", Value::Int(self.service_ticks.0)),
            ("service_p99_ticks", Value::Int(self.service_ticks.1)),
            ("retirements", Value::Int(self.retirements)),
            ("lost_writes", Value::Int(self.lost_writes)),
            (
                "fingerprints",
                Value::Arr(self.fingerprints.iter().map(|&f| Value::Int(f)).collect()),
            ),
        ])
    }
}

/// One repetition: what it simulated, and the host ns of each of its
/// timed pieces (a slice of a stack's run, a future, a slice of the
/// requests, a crash cycle), in the order they ran. Every repetition runs
/// the same pieces, so piece `j` of one does the work of piece `j` of any
/// other.
struct Rep {
    pieces: Vec<f64>,
    sim: Simulated,
}

/// Runs `f` as the next timed piece of a repetition.
fn piece<R>(pieces: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    pieces.push(t.elapsed().as_nanos() as f64);
    r
}

/// A workload: how to set it up, and one repetition on that state.
/// `rep` returns `Err` when a correctness check fails.
trait Load {
    type State;
    /// Whether a piece is one crash cycle: the run then also reports the
    /// cycle-time distribution, and counts a cycle's writes over the
    /// median cycle instead of all writes over all cycles.
    const PIECE_IS_CYCLE: bool = false;
    fn setup(&self) -> Self::State;
    fn rep(&self, state: &Self::State) -> Result<Rep, String>;
}

fn device_stats(sim: &Simulation) -> AccessStats {
    sim.controller().device().stats()
}

/// The single-domain simulator serves each write before it pulls the
/// next one: in the front-end's clock (one tick per request) that is a
/// service latency of one tick, by construction.
const UNQUEUED_TICKS: (u64, u64) = (1, 1);

struct HealthyStream {
    seed: u64,
}

impl Load for HealthyStream {
    type State = Vec<SimSnapshot>;

    fn setup(&self) -> Vec<SimSnapshot> {
        STACKS
            .iter()
            .map(|(stack, _)| shape::healthy_sim(stack, shape::ocean(self.seed)).snapshot())
            .collect()
    }

    fn rep(&self, snaps: &Vec<SimSnapshot>) -> Result<Rep, String> {
        let mut pieces = Vec::new();
        let mut s = Simulated {
            service_ticks: UNQUEUED_TICKS,
            ..Simulated::default()
        };
        for (snap, (stack, _)) in snaps.iter().zip(STACKS) {
            let mut sim = Simulation::fork(snap);
            let before = device_stats(&sim);
            let slice = shape::HEALTHY_WRITES / shape::SLICES;
            let out = (1..=shape::SLICES)
                .map(|k| piece(&mut pieces, || sim.run(StopCondition::Writes(k * slice))))
                .last()
                .expect("at least one slice");
            if out.reason != StopReason::ConditionMet {
                return Err(format!("{stack}: stopped {:?}", out.reason));
            }
            if sim.retirements() != 0 {
                return Err(format!("{stack}: a page retired on a healthy chip"));
            }
            s.ops += out.writes_issued;
            s.failed += sim.lost_writes();
            s.lost_writes += sim.lost_writes();
            s.add_device(before, device_stats(&sim));
            s.fingerprints.push(sim.fingerprint());
        }
        s.attempted = s.ops;
        s.lifetime_writes = s.ops;
        Ok(Rep { pieces, sim: s })
    }
}

struct WearoutTail {
    seed: u64,
}

impl Load for WearoutTail {
    type State = Vec<SimSnapshot>;

    fn setup(&self) -> Vec<SimSnapshot> {
        STACKS
            .iter()
            .map(|(stack, _)| shape::wearout_snapshot(stack, self.seed))
            .collect()
    }

    fn rep(&self, snaps: &Vec<SimSnapshot>) -> Result<Rep, String> {
        let mut pieces = Vec::new();
        let mut s = Simulated {
            service_ticks: UNQUEUED_TICKS,
            ..Simulated::default()
        };
        for (snap, (stack, _)) in snaps.iter().zip(STACKS) {
            for i in 0..shape::WEAROUT_FUTURES {
                let mut sim = piece(&mut pieces, || Simulation::fork(snap));
                let (w0, before) = (sim.writes_issued(), device_stats(&sim));
                let (lost0, retired0) = (sim.lost_writes(), sim.retirements());
                let out = piece(&mut pieces, || {
                    sim.replace_workload(shape::future_stream(sim.workload_len(), self.seed, i));
                    sim.run(StopCondition::UsableBelow(shape::WEAROUT_TO))
                });
                if out.reason != StopReason::ConditionMet {
                    return Err(format!("{stack} future {i}: stopped {:?}", out.reason));
                }
                let lost = sim.lost_writes() - lost0;
                let retired = sim.retirements() - retired0;
                s.ops += out.writes_issued - w0;
                s.lifetime_writes += out.writes_issued;
                // A memory that wears out with no OS reserve drops the one
                // write in flight whenever a page retires: that is the
                // simulated outcome (gated as `sim_lifetime_writes`), not a
                // failed operation. Any loss beyond it is.
                s.failed += lost.saturating_sub(retired);
                s.lost_writes += lost;
                s.retirements += retired;
                s.add_device(before, device_stats(&sim));
                s.fingerprints.push(sim.fingerprint());
            }
        }
        s.attempted = s.ops;
        Ok(Rep { pieces, sim: s })
    }
}

struct Bank {
    seed: u64,
    hot: bool,
}

impl Load for Bank {
    type State = ();

    /// The front-end has no snapshot, so every repetition builds its own
    /// (untimed); set-up is one such build.
    fn setup(&self) {
        std::hint::black_box(shape::bank_frontend(shape::BANKS));
    }

    fn rep(&self, _: &()) -> Result<Rep, String> {
        let mut pieces = Vec::new();
        let mut mc = shape::bank_frontend(shape::BANKS);
        let mut stream: Box<dyn Workload> = if self.hot {
            Box::new(shape::hot(self.seed))
        } else {
            Box::new(shape::uniform(self.seed))
        };
        // `run` drains the front-end when it returns and the front-end
        // keeps accepting requests: the last outcome covers every slice.
        let slice = shape::BANK_REQUESTS / shape::SLICES;
        let out = (0..shape::SLICES)
            .map(|_| piece(&mut pieces, || mc.run(stream.as_mut(), slice)))
            .last()
            .expect("at least one slice");
        if out.stop != McStopReason::TraceComplete {
            return Err(format!("stopped {:?}", out.stop));
        }
        let accounted = out.absorbed + out.coalesced + out.issued + out.dropped + out.redirected;
        let mut s = Simulated {
            ops: out.requests,
            attempted: out.requests,
            failed: out.dropped + out.requests.abs_diff(accounted),
            lifetime_writes: out.requests,
            service_ticks: (out.latency.p50(), out.latency.p99()),
            ..Simulated::default()
        };
        if !out.conserves_writes() || out.dropped != 0 || out.requests != shape::BANK_REQUESTS {
            return Err(format!(
                "{} of {} requests dropped or unaccounted",
                s.failed, out.requests
            ));
        }
        for bank in mc.banks() {
            s.add_device(AccessStats::default(), device_stats(bank.sim()));
            s.retirements += bank.sim().retirements();
            s.lost_writes += bank.sim().lost_writes();
            s.fingerprints.push(bank.sim().fingerprint());
        }
        Ok(Rep { pieces, sim: s })
    }
}

struct CrashRecover {
    seed: u64,
}

impl Load for CrashRecover {
    type State = Vec<SimSnapshot>;
    const PIECE_IS_CYCLE: bool = true;

    fn setup(&self) -> Vec<SimSnapshot> {
        STACKS
            .iter()
            .map(|(stack, _)| shape::crash_snapshot(stack, self.seed))
            .collect()
    }

    /// One piece per cycle: fork → crash → recover → finish.
    fn rep(&self, snaps: &Vec<SimSnapshot>) -> Result<Rep, String> {
        let mut pieces = Vec::with_capacity((shape::CRASH_CYCLES * 2) as usize);
        let mut s = Simulated {
            service_ticks: UNQUEUED_TICKS,
            ..Simulated::default()
        };
        for snap in snaps {
            // Where every cycle of this stack starts from.
            let start = Simulation::fork(snap);
            let (w0, before, lost0) = (
                start.writes_issued(),
                device_stats(&start),
                start.lost_writes(),
            );
            for i in 0..shape::CRASH_CYCLES {
                let (mut sim, crashes, reason) = piece(&mut pieces, || {
                    let mut sim = Simulation::fork(snap);
                    sim.replace_workload(shape::future_stream(sim.workload_len(), self.seed, i));
                    sim.arm_faults(FaultPlan::new().power_loss_at_write(shape::crash_point(i)));
                    let mut crashes = 0u64;
                    let reason = loop {
                        let out = sim.run(StopCondition::Writes(w0 + shape::CRASH_WRITES));
                        if out.reason != StopReason::PowerLoss {
                            break out.reason;
                        }
                        sim.recover();
                        crashes += 1;
                    };
                    (sim, crashes, reason)
                });
                // Off the clock: read back every tracked line.
                let clean = sim.verify_all() == 0 && sim.integrity_errors() == 0;
                let ok = clean && crashes >= 1 && reason == StopReason::ConditionMet;
                s.attempted += 1;
                s.failed += u64::from(!ok);
                s.ops += sim.writes_issued() - w0;
                s.lost_writes += sim.lost_writes() - lost0;
                s.add_device(before, device_stats(&sim));
                s.fingerprints.push(sim.fingerprint());
            }
        }
        if s.failed != 0 {
            return Err(format!(
                "{} of {} cycles did not crash, recover and verify clean",
                s.failed, s.attempted
            ));
        }
        s.lifetime_writes = s.ops;
        // 1 200 fingerprints per repetition would swamp the detail file:
        // fold them into one.
        s.fingerprints = vec![s.fingerprints.iter().fold(0xcbf2_9ce4_8422_2325, |h, &f| {
            (h ^ f).wrapping_mul(0x0000_0100_0000_01b3)
        })];
        Ok(Rep { pieces, sim: s })
    }
}

/// Set-up is repeated at least this often, and until this much time has
/// gone into it (a millisecond set-up needs many samples for a steady
/// quartile; a second-long one gets the minimum).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 3;

/// Everything one run measured.
struct Measured {
    piece_is_cycle: bool,
    setup_s: Vec<f64>,
    reps: Vec<Rep>,
    error: Option<String>,
}

fn measure<L: Load>(load: &L, seconds: f64) -> Measured {
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let state = loop {
        let t = Instant::now();
        let state = load.setup();
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = started.elapsed() >= SETUP_BUDGET || setup_s.len() >= MAX_SETUPS;
        if setup_s.len() >= MIN_SETUPS && enough {
            break state;
        }
    };
    // The first repetition faults in the binary and grows the heap: it
    // fixes the simulated statistics every later one must reproduce, and
    // is not timed.
    let mut reps: Vec<Rep> = Vec::new();
    let error = (|| {
        let warm_up = load.rep(&state)?;
        let started = Instant::now();
        while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
            let rep = load.rep(&state)?;
            if rep.sim != warm_up.sim {
                return Err(format!(
                    "repetition {} simulated {:?}, the warm-up {:?}",
                    reps.len() + 1,
                    rep.sim,
                    warm_up.sim
                ));
            }
            reps.push(rep);
        }
        Ok(())
    })()
    .err();
    Measured {
        piece_is_cycle: L::PIECE_IS_CYCLE,
        setup_s,
        reps,
        error,
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) if a.trace => {
            eprintln!("e2e: --trace 1 is the `layers` binary's run");
            std::process::exit(2);
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    let seed = args.seed;
    let m = match args.workload.as_str() {
        "healthy_stream" => measure(&HealthyStream { seed }, args.seconds),
        "wearout_tail" => measure(&WearoutTail { seed }, args.seconds),
        "bank_uniform" => measure(&Bank { seed, hot: false }, args.seconds),
        "bank_hot" => measure(&Bank { seed, hot: true }, args.seconds),
        "crash_recover" => measure(&CrashRecover { seed }, args.seconds),
        other => {
            eprintln!("e2e: --workload {other}: one workload per process");
            std::process::exit(2);
        }
    };
    if let Some(e) = &m.error {
        eprintln!("e2e: {}: INCORRECT: {e}", args.workload);
    }
    let Some(first) = m.reps.first() else {
        // Nothing was measured, so there is no result to print.
        std::process::exit(1);
    };
    let sim = &first.sim;
    let ops = sim.ops as f64;
    // Operations per second of a repetition whose pieces took `ns`. A
    // crash cycle that retires a page costs twice the usual, and how many
    // do depends on the state the input seed left the chip in; so that
    // this tail does not pass for a change of speed, `crash_recover`
    // counts a cycle's writes over the *median* cycle.
    let rate = |ns: &[f64]| {
        if m.piece_is_cycle {
            shape::CRASH_WRITES as f64 / stats::median(ns) * 1e9
        } else {
            ops / ns.iter().sum::<f64>() * 1e9
        }
    };
    // What each repetition achieved by itself: the spread `compare` sees.
    let rows: Vec<&[f64]> = m.reps.iter().map(|r| r.pieces.as_slice()).collect();
    let rates: Vec<f64> = rows.iter().map(|r| rate(r)).collect();
    // What the pieces take when the host leaves them alone (see
    // `stats::QUIET_PCT`): the number that is compared between commits.
    let quiet = stats::quiet_pieces(&rows);
    let mut metrics = Metrics::new();
    metrics.set("setup_s", stats::percentile(&m.setup_s, stats::QUIET_PCT));
    metrics.set("writes_per_s", rate(&quiet));
    metrics.set("peak_rss_mb", wlr_benchmark::peak_rss_mb());
    metrics.set("sim_lifetime_writes", sim.lifetime_writes as f64);
    metrics.set("device_writes_per_write", sim.device.0 as f64 / ops);
    metrics.set("device_reads_per_write", sim.device.1 as f64 / ops);
    metrics.set("service_p50_ticks", sim.service_ticks.0 as f64);
    metrics.set("service_p99_ticks", sim.service_ticks.1 as f64);

    let attempted: u64 = m.reps.iter().map(|r| r.sim.attempted).sum();
    let failed: u64 = m.reps.iter().map(|r| r.sim.failed).sum();
    let mut extra = Metrics::new();
    extra.set("failed_share", failed as f64 / attempted.max(1) as f64);
    let mut samples = vec![
        ("setup_s", Value::nums(&m.setup_s)),
        ("writes_per_s", Value::nums(&rates)),
    ];
    // `crash_recover`: a piece is a cycle, so the quiet pieces are the
    // cycle-time distribution; the per-repetition medians give `compare`
    // a spread.
    let mut cycle_tail = None;
    if m.piece_is_cycle {
        let us: Vec<f64> = quiet.iter().map(|ns| ns / 1e3).collect();
        extra.set("crash_cycle_us_p50", stats::median(&us));
        let per_rep: Vec<f64> = rows.iter().map(|r| stats::median(r) / 1e3).collect();
        samples.push(("crash_cycle_us_p50", Value::nums(&per_rep)));
        cycle_tail = stats::tail_percentile(us.len())
            .map(|pct| (pct, stats::percentile(&us, pct), us.len()));
    }

    let correct = m.error.is_none();
    let result =
        wlr_benchmark::result_line(correct, attempted, failed, metrics.to_json(END_TO_END));
    println!(
        "workload {} seed {seed} repetitions {} set-ups {}",
        args.workload,
        m.reps.len(),
        m.setup_s.len()
    );
    metrics.print(END_TO_END);
    extra.print(REPORTED_ONLY);
    if let Some((pct, value, n)) = cycle_tail {
        println!(
            "crash_cycle_us_p{pct} {} us ({n} cycles)",
            Value::Num(value)
        );
    }
    println!("simulated {}", sim.to_json());

    let detail = Value::obj([
        ("workload", Value::str(args.workload.as_str())),
        ("seed", Value::Int(seed)),
        ("seconds", Value::Num(args.seconds)),
        ("machine", wlr_benchmark::machine()),
        ("result", result.clone()),
        ("extra", extra.to_json_present(REPORTED_ONLY)),
        ("samples", Value::obj(samples)),
        ("simulated", sim.to_json()),
    ]);
    let file = format!("{}.e2e.json", args.workload);
    if let Err(e) = wlr_benchmark::write_detail(&args.out, &file, &detail) {
        eprintln!("e2e: cannot write {}: {e}", args.out.join(file).display());
        std::process::exit(1);
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
