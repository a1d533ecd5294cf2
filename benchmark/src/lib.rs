//! Shared pieces of the repository's benchmark: the metric tables that
//! `BENCHMARK.json` mirrors, command-line parsing, the result line, host
//! identity and peak memory. The runs live in `src/bin`: `e2e`
//! (end-to-end metrics, tracing off), `layers` (the traced run) and
//! `compare` (two `results.json` files side by side).
//! See `README.md` in this directory.
//!
//! Nothing here or in the binaries reads an environment variable: a run
//! is a function of its arguments and the machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod shape;
pub mod span;
pub mod stats;

use json::Value;
use std::path::PathBuf;

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "healthy_stream",
    "wearout_tail",
    "bank_uniform",
    "bank_hot",
    "crash_recover",
];

/// `--workload all`: the traced run re-composes every workload in one
/// process (what `run.sh` without `--workload` asks for).
pub const ALL: &str = "all";

/// Seed of the simulated chip (endurance draws, randomizer keys). Fixed:
/// `--seed` feeds only the input generators, so every run wears out the
/// same chip.
pub const CHIP_SEED: u64 = 42;

/// The `--seconds` value the repetition and probe sizes were chosen for;
/// the traced run scales its probe lengths by `seconds / REFERENCE_SECONDS`.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark: its name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a simulated statistic (it repeats exactly for
    /// the same seed, and `compare` demands equality) rather than a host
    /// measurement.
    pub simulated: bool,
    /// End-to-end metrics only: the share of the parent's value by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

impl MetricDef {
    const fn bounded(mut self, bound: f64) -> MetricDef {
        self.bound = Some(bound);
        self
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        simulated: false,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        simulated: true,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics `BENCHMARK.json` lists: every workload reports
/// every one of them, and none is ever 0. Host-time bounds are several
/// times the run-to-run spread measured on the reference box, and leave
/// room for the 15–20 % by which the shared host's speed drifts within an
/// hour (README.md); simulated
/// statistics repeat exactly for one seed, and their bounds only have to
/// cover how much they differ from one input seed to the next.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", Lower).bounded(0.25),
    host("writes_per_s", "1/s", Higher).bounded(0.25),
    host("peak_rss_mb", "MB", Lower).bounded(0.15),
    sim("sim_lifetime_writes", "count", Higher).bounded(0.01),
    sim("device_writes_per_write", "ratio", Lower).bounded(0.01),
    sim("device_reads_per_write", "ratio", Lower).bounded(0.25),
    sim("service_p50_ticks", "ticks", Lower).bounded(0.02),
    sim("service_p99_ticks", "ticks", Lower).bounded(0.02),
];

/// End-to-end metrics that `run.sh` prints and `compare` checks but that
/// `BENCHMARK.json` cannot list: `crash_cycle_us_p50` exists on one
/// workload only, and `failed_share` is 0 whenever the run is correct.
pub const REPORTED_ONLY: &[MetricDef] = &[
    host("crash_cycle_us_p50", "us", Lower).bounded(0.10),
    sim("failed_share", "ratio", Lower),
];

/// The per-layer metrics: every traced run reports every one of them.
pub const PER_LAYER: &[MetricDef] = &[
    // trace
    host("trace.next_write.ocean.ns", "ns", Lower),
    host("trace.next_write.uniform.ns", "ns", Lower),
    host("trace.next_write.hot.ns", "ns", Lower),
    // os
    host("os.translate.fresh.ns", "ns", Lower),
    host("os.translate.worn.ns", "ns", Lower),
    host("os.retire_page.us", "us", Lower),
    // wl
    host("wl.map.sg.ns", "ns", Lower),
    host("wl.map.sr.ns", "ns", Lower),
    host("wl.record_write.sg.ns", "ns", Lower),
    host("wl.record_write.sr.ns", "ns", Lower),
    sim("wl.migrations_per_kwrite.sg", "count", Lower),
    sim("wl.migrations_per_kwrite.sr", "count", Lower),
    // pcm
    host("pcm.write_tagged.fresh.ns", "ns", Lower),
    host("pcm.write_fast.fresh.ns", "ns", Lower),
    host("pcm.read.fresh.ns", "ns", Lower),
    host("pcm.write_tagged.worn.ns", "ns", Lower),
    host("pcm.build.ms", "ms", Lower),
    // core: the controller alone
    host("core.ctl_write.sg.healthy.ns", "ns", Lower),
    host("core.ctl_write.sr.healthy.ns", "ns", Lower),
    host("core.reviver_self.sg.ns", "ns", Lower),
    host("core.reviver_self.sr.ns", "ns", Lower),
    host("core.ctl_read.healthy.ns", "ns", Lower),
    host("core.ctl_read.worn.ns", "ns", Lower),
    // core: the engine
    host("core.sim_run.sg.healthy.ns", "ns", Lower),
    host("core.sim_run.sr.healthy.ns", "ns", Lower),
    host("core.sim_self.sg.ns", "ns", Lower),
    host("core.sim_self.sr.ns", "ns", Lower),
    host("core.sim_run.sg.tail.ns", "ns", Lower),
    host("core.sim_run.sr.tail.ns", "ns", Lower),
    host("core.run_batch.plain.ns", "ns", Lower),
    host("core.run_batch.guarded.ns", "ns", Lower),
    // core: state
    host("core.snapshot.us", "us", Lower),
    host("core.fork.us.p50", "us", Lower),
    host("core.fork.us.p95", "us", Lower),
    host("core.recover.us.p50", "us", Lower),
    host("core.recover.us.p95", "us", Lower),
    host("core.verify_all.us", "us", Lower),
    host("core.crash_cycle.us.p50", "us", Lower),
    host("core.crash_cycle.us.p95", "us", Lower),
    // core: counts at the end of the wear-out futures
    sim("core.links", "count", Lower),
    sim("core.switches", "count", Lower),
    sim("core.spare_grants", "count", Lower),
    sim("core.suspensions", "count", Lower),
    sim("core.fake_reports", "count", Lower),
    sim("core.retirements", "count", Lower),
    sim("core.lost_writes", "count", Lower),
    // mc: the pieces
    host("mc.wbuf.admit.uniform.ns", "ns", Lower),
    host("mc.wbuf.admit.hot.ns", "ns", Lower),
    sim("mc.wbuf.hit_ratio.hot", "ratio", Higher),
    host("mc.queue.push.uniform.ns", "ns", Lower),
    host("mc.queue.push.hot.ns", "ns", Lower),
    host("mc.queue.take_into.ns", "ns", Lower),
    sim("mc.queue.coalesce_ratio.hot", "ratio", Higher),
    host("mc.steer.note_flush.ns", "ns", Lower),
    host("mc.bank.drain.ns", "ns", Lower),
    // mc: the front-end whole
    host("mc.submit.b1.ns", "ns", Lower),
    host("mc.submit.b8.ns", "ns", Lower),
    host("mc.submit.b64.ns", "ns", Lower),
    host("mc.frontend_self.uniform.ns", "ns", Lower),
    host("mc.frontend_self.hot.ns", "ns", Lower),
    host("mc.finish.ms", "ms", Lower),
    // mc: counts of one front-end run per bank workload
    sim("mc.absorbed.uniform", "count", Higher),
    sim("mc.absorbed.hot", "count", Higher),
    sim("mc.coalesced.uniform", "count", Higher),
    sim("mc.coalesced.hot", "count", Higher),
    sim("mc.issued.uniform", "count", Lower),
    sim("mc.issued.hot", "count", Lower),
    sim("mc.drains.uniform", "count", Lower),
    sim("mc.drains.hot", "count", Lower),
    sim("mc.batch_len_mean.uniform", "count", Higher),
    sim("mc.batch_len_mean.hot", "count", Higher),
    // base
    host("base.spsc.push_pop.ns", "ns", Lower),
    host("base.spsc.handoff.ns", "ns", Lower),
    // the re-composed pipeline of the traced workload
    host("compose.ns_per_op", "ns", Lower),
    host("compose.engine.ns_per_op", "ns", Lower),
    host("compose_gap_pct", "%", Lower),
];

/// Parsed command line of `e2e` and `layers`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`], or [`ALL`].
    pub workload: String,
    /// Seed of the input generators.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// `--trace 1`: the traced run was asked for.
    pub trace: bool,
    /// Directory for the detail file and the span log.
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1 --out DIR`
    /// (any order; `--seed` defaults to 42, `--seconds` to
    /// [`REFERENCE_SECONDS`], `--trace` to 0, `--out` to `benchmark/out`).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 42,
            seconds: REFERENCE_SECONDS,
            trace: false,
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {val}: expected {what}");
            match flag.as_str() {
                "--workload" => out.workload = val,
                "--seed" => out.seed = val.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    out.seconds = val.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err(bad("between 0 and 600 seconds"));
                    }
                }
                "--trace" => {
                    out.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--out" => out.out = PathBuf::from(val),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if out.workload != ALL && !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, {ALL}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(out)
    }
}

/// Metric values collected by a run, checked against a metric table when
/// the result is assembled.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// An empty collection.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already recorded.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name.to_string(), value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `defs`, in table order, each `{"value": …, "unit": …}`.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `defs` is missing or not finite, or if a
    /// recorded metric is not in `defs`: the table, `BENCHMARK.json` and
    /// the code must not drift apart.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == name),
                "metric {name} is not in the table"
            );
        }
        Value::obj(defs.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.is_finite(), "metric {} is not finite", d.name);
            (
                d.name,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(d.unit))]),
            )
        }))
    }

    /// Like [`Self::to_json`], but a metric of `defs` that was not
    /// recorded is left out (metrics that exist on some workloads only).
    pub fn to_json_present(&self, defs: &[MetricDef]) -> Value {
        let present: Vec<MetricDef> = defs
            .iter()
            .filter(|d| self.get(d.name).is_some())
            .copied()
            .collect();
        self.to_json(&present)
    }

    /// Prints every recorded metric of `defs` as a `name value unit` line.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.get(d.name) {
                println!("{} {} {}", d.name, Value::Num(v), d.unit);
            }
        }
    }
}

/// The one JSON object a run prints as the last line of its standard
/// output: exactly the keys `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted.max(1))),
        ("failed", Value::Int(failed)),
        ("metrics", metrics),
    ])
}

/// Extracts `VmHWM` (peak resident set, kB) from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process so far, in MB (2²⁰ bytes).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// `model name` of the first processor in the text of `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim())
}

/// The machine a result was measured on: results from machines that
/// differ here are never compared.
pub fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj([
        ("nproc", Value::Int(nproc as u64)),
        (
            "cpu_model",
            Value::str(cpu_model(&cpuinfo).unwrap_or("unknown")),
        ),
    ])
}

/// Writes `value` to `dir/name`, creating `dir` first.
pub fn write_detail(dir: &std::path::Path, name: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), format!("{value}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&[
            "--workload",
            "bank_hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "bank_hot");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let d = parse(&["--workload", "healthy_stream"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (42, REFERENCE_SECONDS, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--workload", "bank_hot", "--trace", "2"],
            &["--workload", "bank_hot", "--seed", "-1"],
            &["--workload", "bank_hot", "--seconds", "0"],
            &["--workload", "bank_hot", "--frobnicate", "1"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\te2e\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(20480));
        assert_eq!(vm_hwm_kb("Name:\te2e\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_model_is_parsed_from_cpuinfo() {
        let info = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(cpu_model(info), Some("Some CPU @ 2.10GHz"));
        assert_eq!(cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let line = result_line(true, 0, 0, m.to_json(END_TO_END));
        let Value::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted"), Some(&Value::Int(1)), "at least 1");
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Metrics::new().to_json(END_TO_END);
    }

    /// `BENCHMARK.json` is what the driver reads and the tables above are
    /// what the binaries emit: they must name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let spec = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}: count differs");
            for (entry, d) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).unwrap();
                assert_eq!(field("name"), d.name);
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                assert_eq!(field("better"), d.better.as_str(), "{}", d.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        let script = include_str!("../run.sh");
        let listed = format!("workloads=({})", WORKLOADS.join(" "));
        assert!(script.contains(&listed), "run.sh runs other workloads");
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(REFERENCE_SECONDS)
        );
    }
}
