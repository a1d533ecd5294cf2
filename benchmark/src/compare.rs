//! Two `results.json` files side by side: one row per end-to-end metric
//! and workload, with both values, their ratio, the bound and a verdict.
//!
//! Host-time metrics are judged against their bound, and reported as
//! unresolved when the run-to-run spread of either side is wider than the
//! bound. Simulated statistics are a function of the input seed alone, so
//! they must be equal, as must the whole `simulated` block of a workload.

use crate::json::Value;
use crate::{stats, Better, MetricDef, END_TO_END, REPORTED_ONLY};

/// `setup_s` may also get worse by this many seconds, whatever its share:
/// a millisecond set-up doubles on scheduling noise alone.
pub const SETUP_FLOOR_S: f64 = 0.25;

/// How side B of a row reads against side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound (or equal, for a
    /// simulated statistic).
    Ok,
    /// B is worse than A by more than the bound (or differs at all, for a
    /// simulated statistic).
    Worse,
    /// The spread between the repetitions of one side is wider than the
    /// bound, so the two medians say nothing either way.
    Unresolved,
}

impl Verdict {
    /// The word the table prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload the row is about.
    pub workload: String,
    /// Metric the row is about (`simulated` for the whole block).
    pub metric: &'static str,
    /// Value in the first file (the base of the ratio).
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// Allowed worsening as a share of `a`; `None` means "must be equal".
    pub bound: Option<f64>,
    /// The wider of the two sides' interquartile spreads, as a share of
    /// the median (0 where a file keeps no repetitions).
    pub spread: f64,
    /// The judgement.
    pub verdict: Verdict,
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

fn need<'a>(v: &'a Value, path: &[&str], file: &str) -> Result<&'a Value, String> {
    field(v, path).ok_or_else(|| format!("{file}: no {}", path.join(".")))
}

/// The per-workload `e2e` entries of a results file, by workload name.
fn workloads<'a>(results: &'a Value, file: &str) -> Result<Vec<(&'a str, &'a Value)>, String> {
    need(results, &["e2e"], file)?
        .as_arr()
        .ok_or_else(|| format!("{file}: e2e is not a list"))?
        .iter()
        .map(|w| {
            let name = need(w, &["workload"], file)?
                .as_str()
                .ok_or_else(|| format!("{file}: workload is not a string"))?;
            Ok((name, w))
        })
        .collect()
}

/// Value of metric `name` in one workload's entry: a listed metric sits in
/// the result line, a reported-only one under `extra`.
fn metric_value(entry: &Value, name: &str) -> Option<f64> {
    field(entry, &["result", "metrics", name, "value"])
        .or_else(|| field(entry, &["extra", name, "value"]))
        .and_then(Value::as_f64)
}

fn samples(entry: &Value, name: &str) -> Vec<f64> {
    field(entry, &["samples", name])
        .and_then(Value::as_arr)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Judges one host-time metric.
fn judge(def: &MetricDef, a: f64, b: f64, sa: &[f64], sb: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let spread = stats::iqr_share(sa).max(stats::iqr_share(sb));
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let mut allowed = bound * a.abs();
    if def.name == "setup_s" {
        allowed = allowed.max(SETUP_FLOOR_S);
    }
    let verdict = if spread > bound {
        // Too noisy to call — unless every repetition of B reads better
        // than every repetition of A.
        let b_wins = match def.better {
            Better::Lower => max(sb) < min(sa),
            Better::Higher => min(sb) > max(sa),
        };
        if b_wins && !sa.is_empty() && !sb.is_empty() {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (spread, verdict)
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Compares two parsed `results.json` documents. `Err` when they cannot
/// be compared at all: measured on different machines, with different
/// input seeds, or over different workloads.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    let names = |ws: &[(&str, &Value)]| ws.iter().map(|&(n, _)| n.to_string()).collect::<Vec<_>>();
    if names(&wa) != names(&wb) {
        return Err(format!(
            "different workloads: A has {:?}, B has {:?}",
            names(&wa),
            names(&wb)
        ));
    }
    let mut rows = Vec::new();
    for (&(name, ea), &(_, eb)) in wa.iter().zip(&wb) {
        for key in ["machine", "seed", "seconds"] {
            let (va, vb) = (need(ea, &[key], "A")?, need(eb, &[key], "B")?);
            if va != vb {
                return Err(format!(
                    "{name}: {key} differs ({va} against {vb}): these runs are not comparable"
                ));
            }
        }
        for def in END_TO_END.iter().chain(REPORTED_ONLY) {
            let (va, vb) = match (metric_value(ea, def.name), metric_value(eb, def.name)) {
                (Some(va), Some(vb)) => (va, vb),
                (None, None) => continue,
                _ => return Err(format!("{name}: {} is in one file only", def.name)),
            };
            let (bound, spread, verdict) = if def.simulated {
                let verdict = if va == vb {
                    Verdict::Ok
                } else {
                    Verdict::Worse
                };
                (None, 0.0, verdict)
            } else {
                let (sa, sb) = (samples(ea, def.name), samples(eb, def.name));
                let (spread, verdict) = judge(def, va, vb, &sa, &sb);
                (def.bound, spread, verdict)
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: def.name,
                a: va,
                b: vb,
                bound,
                spread,
                verdict,
            });
        }
        let same = need(ea, &["simulated"], "A")? == need(eb, &["simulated"], "B")?;
        rows.push(Row {
            workload: name.to_string(),
            metric: "simulated",
            a: 1.0,
            b: if same { 1.0 } else { 0.0 },
            bound: None,
            spread: 0.0,
            verdict: if same { Verdict::Ok } else { Verdict::Worse },
        });
    }
    Ok(rows)
}

/// The comparison as an aligned text table, ratio given with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    for r in rows {
        let bound = r
            .bound
            .map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0));
        // 0 against 0 (no failures on either side) has no ratio.
        let ratio = if r.a == r.b { 1.0 } else { r.b / r.a };
        out += &format!(
            "{:<15} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>7} {:>7.2}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            bound,
            r.spread * 100.0,
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results document with one workload, shaped as `e2e` and `run.sh`
    /// write it.
    fn results(writes_per_s: f64, reps: &[f64], lifetime: u64, cpu: &str) -> Value {
        let metric =
            |v: f64, unit: &str| Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]);
        let entry = Value::obj([
            ("workload", Value::str("wearout_tail")),
            ("seed", Value::Int(42)),
            ("seconds", Value::Num(10.0)),
            (
                "machine",
                Value::obj([("nproc", Value::Int(2)), ("cpu_model", Value::str(cpu))]),
            ),
            (
                "result",
                Value::obj([
                    ("correct", Value::Bool(true)),
                    ("attempted", Value::Int(10)),
                    ("failed", Value::Int(0)),
                    (
                        "metrics",
                        Value::obj([
                            ("setup_s", metric(0.001, "s")),
                            ("writes_per_s", metric(writes_per_s, "1/s")),
                            ("sim_lifetime_writes", metric(lifetime as f64, "count")),
                        ]),
                    ),
                ]),
            ),
            (
                "extra",
                Value::obj([("failed_share", metric(0.0, "ratio"))]),
            ),
            (
                "samples",
                Value::obj([
                    ("setup_s", Value::nums(&[0.001, 0.001, 0.001])),
                    ("writes_per_s", Value::nums(reps)),
                ]),
            ),
            (
                "simulated",
                Value::obj([(
                    "fingerprints",
                    Value::Arr(vec![Value::Int(u64::MAX - lifetime)]),
                )]),
            ),
        ]);
        Value::obj([("seed", Value::Int(42)), ("e2e", Value::Arr(vec![entry]))])
    }

    /// `writes_per_s` of 1e7 made worse by `factor` times its bound, with
    /// repetitions within ±1 % of it.
    fn worse_by(factor: f64) -> Value {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == "writes_per_s")
            .unwrap();
        let v = 1e7 * (1.0 - factor * def.bound.unwrap());
        results(v, &[0.99 * v, v, 1.01 * v], 300, "cpu")
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn a_results_file_round_trips_and_agrees_with_itself() {
        let written = results(1e7, &[0.99e7, 1e7, 1.01e7], 300, "cpu").to_string();
        let read = Value::parse(&written).unwrap();
        assert_eq!(read.to_string(), written);
        let rows = compare(&read, &read).unwrap();
        let metrics: Vec<&str> = rows.iter().map(|r| r.metric).collect();
        assert_eq!(
            metrics,
            [
                "setup_s",
                "writes_per_s",
                "sim_lifetime_writes",
                "failed_share",
                "simulated"
            ]
        );
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        let table = render(&rows);
        assert_eq!(table.lines().count(), 6);
        assert!(table.contains("exact") && table.contains("25%"));
    }

    #[test]
    fn host_metrics_are_judged_against_their_bound() {
        let a = results(1e7, &[0.99e7, 1e7, 1.01e7], 300, "cpu");
        let within = worse_by(0.7);
        assert_eq!(
            verdict_of(&compare(&a, &within).unwrap(), "writes_per_s"),
            Verdict::Ok
        );
        let slower = worse_by(1.3);
        assert_eq!(
            verdict_of(&compare(&a, &slower).unwrap(), "writes_per_s"),
            Verdict::Worse
        );
        // Higher is better: a faster B is never worse.
        assert_eq!(
            verdict_of(&compare(&slower, &a).unwrap(), "writes_per_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = results(1e7, &[0.99e7, 1e7, 1.01e7], 300, "cpu");
        let noisy = results(0.8e7, &[0.5e7, 0.8e7, 1.1e7], 300, "cpu");
        assert_eq!(
            verdict_of(&compare(&a, &noisy).unwrap(), "writes_per_s"),
            Verdict::Unresolved
        );
        // ... unless every repetition of B beats every repetition of A.
        let noisy_but_faster = results(1.6e7, &[1.2e7, 1.6e7, 2.0e7], 300, "cpu");
        assert_eq!(
            verdict_of(&compare(&a, &noisy_but_faster).unwrap(), "writes_per_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn simulated_statistics_must_be_equal() {
        let a = results(1e7, &[1e7; 3], 300, "cpu");
        let b = results(1e7, &[1e7; 3], 301, "cpu");
        let rows = compare(&a, &b).unwrap();
        assert_eq!(verdict_of(&rows, "sim_lifetime_writes"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "simulated"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "writes_per_s"), Verdict::Ok);
    }

    #[test]
    fn setup_may_move_by_its_floor() {
        let a = results(1e7, &[1e7; 3], 300, "cpu");
        let rows = compare(&a, &a).unwrap();
        let setup = rows.iter().find(|r| r.metric == "setup_s").unwrap();
        let def = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        // 1 ms against 200 ms: far beyond 25 %, within the 0.25 s floor.
        assert_eq!(judge(def, setup.a, 0.2, &[], &[]).1, Verdict::Ok);
        assert_eq!(judge(def, setup.a, 0.3, &[], &[]).1, Verdict::Worse);
    }

    #[test]
    fn refuses_runs_from_different_machines_or_workloads() {
        let a = results(1e7, &[1e7; 3], 300, "cpu one");
        let b = results(1e7, &[1e7; 3], 300, "cpu two");
        let err = compare(&a, &b).unwrap_err();
        assert!(
            err.contains("machine") && err.contains("not comparable"),
            "{err}"
        );
        let empty = Value::obj([("e2e", Value::Arr(vec![]))]);
        assert!(compare(&a, &empty)
            .unwrap_err()
            .contains("different workloads"));
        assert!(compare(&a, &Value::Null).unwrap_err().contains("no e2e"));
    }
}
