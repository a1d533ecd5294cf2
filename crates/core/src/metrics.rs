//! Time-series metrics for the experiments.
//!
//! Every figure in the paper is a function of the number of software
//! writes issued: block survival rate (Figure 6), user-usable space
//! (Figures 7 and 8), or a scalar derived from the series (Figure 5's
//! writes-to-30%-failure). The simulator records a [`SamplePoint`] every
//! `sample_interval` writes; the bench harness prints the series.

use std::sync::Arc;

/// [`TimeSeries::iter`]: the shared history, then the series' own tail.
type Samples<'a> =
    std::iter::Chain<std::slice::Iter<'a, SamplePoint>, std::slice::Iter<'a, SamplePoint>>;

/// One sample of the simulation's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplePoint {
    /// Software writes issued so far.
    pub writes: u64,
    /// Fraction of software-visible blocks still alive (Figure 6 y-axis).
    pub survival: f64,
    /// Fraction of the total PCM usable by software: visible space minus
    /// retired pages, over visible space plus controller reserves
    /// (Figures 7 and 8 y-axis).
    pub usable: f64,
    /// Average PCM accesses per software request in the window since the
    /// previous sample (Table II metric).
    pub avg_access_time: f64,
    /// Whether the wear-leveling scheme was still migrating at this point.
    pub wl_active: bool,
}

/// An append-only series of [`SamplePoint`]s.
///
/// The history is a frozen, shared prefix plus this series' own tail. A
/// clone shares the prefix and copies only the tail, and a snapshot
/// ([`crate::sim::Simulation::snapshot`]) moves its tail into the prefix,
/// so every fork of it starts with an empty tail and copies no sample.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    frozen: Arc<Vec<SamplePoint>>,
    tail: Vec<SamplePoint>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `point.writes` is not monotonically non-decreasing.
    pub fn push(&mut self, point: SamplePoint) {
        if let Some(last) = self.last() {
            assert!(
                point.writes >= last.writes,
                "samples must be recorded in write order"
            );
        }
        self.tail.push(point);
    }

    /// Moves the tail into the shared prefix: without copying a sample
    /// when the prefix is empty, in place when it is this series' alone,
    /// and onto a copy of it when it is shared.
    pub(crate) fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        if self.frozen.is_empty() {
            self.frozen = Arc::new(std::mem::take(&mut self.tail));
        } else {
            Arc::make_mut(&mut self.frozen).append(&mut self.tail);
        }
    }

    /// The recorded samples, oldest first.
    pub fn iter(&self) -> Samples<'_> {
        self.frozen.iter().chain(self.tail.iter())
    }

    /// The newest sample.
    pub fn last(&self) -> Option<&SamplePoint> {
        self.tail.last().or_else(|| self.frozen.last())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.frozen.len() + self.tail.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linearly interpolated write count at which `survival` first drops
    /// to `target`, or `None` if it never does within the series.
    pub fn writes_at_survival(&self, target: f64) -> Option<u64> {
        self.crossing(target, |p| p.survival)
    }

    /// Linearly interpolated write count at which `usable` first drops to
    /// `target`, or `None`.
    pub fn writes_at_usable(&self, target: f64) -> Option<u64> {
        self.crossing(target, |p| p.usable)
    }

    fn crossing(&self, target: f64, metric: impl Fn(&SamplePoint) -> f64) -> Option<u64> {
        let mut prev: Option<&SamplePoint> = None;
        for p in self {
            let v = metric(p);
            if v <= target {
                return Some(match prev {
                    Some(q) => {
                        let qv = metric(q);
                        if qv <= v {
                            p.writes
                        } else {
                            let frac = (qv - target) / (qv - v);
                            q.writes + ((p.writes - q.writes) as f64 * frac) as u64
                        }
                    }
                    None => p.writes,
                });
            }
            prev = Some(p);
        }
        None
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a SamplePoint;
    type IntoIter = Samples<'a>;

    fn into_iter(self) -> Samples<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(writes: u64, survival: f64, usable: f64) -> SamplePoint {
        SamplePoint {
            writes,
            survival,
            usable,
            avg_access_time: 1.0,
            wl_active: true,
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut s = TimeSeries::new();
        s.push(pt(0, 1.0, 1.0));
        s.push(pt(100, 0.9, 0.95));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let writes: Vec<u64> = (&s).into_iter().map(|p| p.writes).collect();
        assert_eq!(writes, vec![0, 100]);
    }

    #[test]
    fn forks_share_history() {
        let mut s = TimeSeries::new();
        for i in 0..300 {
            s.push(pt(i, 1.0, 1.0));
        }
        s.freeze();
        assert!(
            s.tail.is_empty(),
            "freezing an unshared series moves its tail"
        );
        let mut fork = s.clone();
        assert!(
            Arc::ptr_eq(&fork.frozen, &s.frozen),
            "a fork copies the history"
        );
        fork.push(pt(300, 0.5, 0.5));
        fork.push(pt(301, 0.4, 0.4));
        assert!(
            Arc::ptr_eq(&fork.frozen, &s.frozen),
            "a push touches the history"
        );
        assert_eq!(fork.tail.len(), 2);
        assert_eq!((s.len(), fork.len()), (300, 302));
        assert_eq!(fork.last().map(|p| p.writes), Some(301));
        let writes: Vec<u64> = fork.iter().map(|p| p.writes).collect();
        assert_eq!(writes, (0..302).collect::<Vec<_>>());

        // Freezing a fork whose history is shared leaves the parent's alone.
        let frozen = Arc::clone(&s.frozen);
        fork.freeze();
        assert!(fork.tail.is_empty() && !Arc::ptr_eq(&fork.frozen, &s.frozen));
        assert!(Arc::ptr_eq(&frozen, &s.frozen) && s.len() == 300);
        assert!(fork.iter().map(|p| p.writes).eq(0..302));
    }

    #[test]
    #[should_panic(expected = "write order")]
    fn rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.push(pt(100, 1.0, 1.0));
        s.push(pt(50, 1.0, 1.0));
    }

    #[test]
    fn crossing_interpolates() {
        let mut s = TimeSeries::new();
        s.push(pt(0, 1.0, 1.0));
        s.push(pt(100, 0.8, 1.0));
        // survival hits 0.9 halfway between samples.
        assert_eq!(s.writes_at_survival(0.9), Some(50));
        assert_eq!(s.writes_at_survival(0.8), Some(100));
        assert_eq!(s.writes_at_survival(0.5), None);
    }

    #[test]
    fn crossing_at_first_sample() {
        let mut s = TimeSeries::new();
        s.push(pt(10, 0.5, 0.5));
        assert_eq!(s.writes_at_survival(0.7), Some(10));
        assert_eq!(s.writes_at_usable(0.7), Some(10));
    }

    #[test]
    fn flat_series_has_no_crossing() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(pt(i * 10, 1.0, 1.0));
        }
        assert_eq!(s.writes_at_survival(0.7), None);
    }
}

/// Wear-distribution quality over a device's visible blocks: how flat the
/// leveling kept the write counts. The paper argues WL-Reviver "neither
/// compromises nor improves a scheme's wear-leveling efficacy" — these
/// statistics let experiments check exactly that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearReport {
    /// Mean writes per block.
    pub mean: f64,
    /// Coefficient of variation of per-block wear (0 = perfectly flat).
    pub cov: f64,
    /// Gini coefficient of per-block wear (0 = perfectly flat, 1 = all
    /// wear on one block).
    pub gini: f64,
    /// Ratio of the maximum block wear to the mean (the "hottest block"
    /// overshoot an attacker tries to maximize).
    pub max_over_mean: f64,
}

impl WearReport {
    /// Computes the report from per-block wear counts (see
    /// [`wlr_pcm::PcmDevice::wear`]), typically the software-visible
    /// prefix. The counts are sorted in place for the Gini coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `wear` is empty.
    pub fn from_wear(mut wear: Vec<u32>) -> Self {
        assert!(!wear.is_empty(), "wear report of an empty device");
        let n = wear.len() as f64;
        let mean = wear.iter().map(|&w| w as f64).sum::<f64>() / n;
        let var = wear
            .iter()
            .map(|&w| {
                let d = w as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let cov = if mean == 0.0 { 0.0 } else { var.sqrt() / mean };
        let max = wear.iter().copied().max().unwrap_or(0) as f64;

        // Gini via the sorted-rank identity:
        // G = (2·Σ i·xᵢ) / (n·Σ xᵢ) − (n+1)/n with xᵢ ascending, i from 1.
        wear.sort_unstable();
        let total: f64 = wear.iter().map(|&w| w as f64).sum();
        let gini = if total == 0.0 {
            0.0
        } else {
            let weighted: f64 = wear
                .iter()
                .enumerate()
                .map(|(i, &w)| (i as f64 + 1.0) * w as f64)
                .sum();
            (2.0 * weighted) / (n * total) - (n + 1.0) / n
        };
        WearReport {
            mean,
            cov,
            gini,
            max_over_mean: if mean == 0.0 { 0.0 } else { max / mean },
        }
    }
}

// The mergeable wear histogram now lives in `wlr_base::stats` (it is
// shared with the multi-bank front-end's cross-bank aggregation); the
// re-export keeps every historical `wl_reviver::metrics::WearHistogram`
// path working.
pub use wlr_base::stats::WearHistogram;

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn histogram_cov_matches_exact_wear_report() {
        // Matches the exact WearReport CoV on the same data — the
        // re-exported base histogram and the local report must agree.
        let h = WearHistogram::from_wear(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let report = WearReport::from_wear(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(
            (h.cov() - report.cov).abs() < 1e-12,
            "{} vs {}",
            h.cov(),
            report.cov
        );
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;

    #[test]
    fn flat_wear_scores_zero() {
        let r = WearReport::from_wear(vec![7; 100]);
        assert_eq!(r.mean, 7.0);
        assert!(r.cov.abs() < 1e-12);
        assert!(r.gini.abs() < 1e-9);
        assert!((r.max_over_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concentrated_wear_scores_high() {
        let mut wear = vec![0u32; 100];
        wear[0] = 1000;
        let r = WearReport::from_wear(wear);
        assert!(r.gini > 0.95, "gini {}", r.gini);
        assert!(r.max_over_mean > 90.0);
        assert!(r.cov > 5.0);
    }

    #[test]
    fn gini_of_linear_ramp() {
        // xᵢ = i for i in 1..=n has Gini → 1/3 as n grows.
        let wear: Vec<u32> = (1..=1000).collect();
        let r = WearReport::from_wear(wear);
        assert!((r.gini - 1.0 / 3.0).abs() < 0.01, "gini {}", r.gini);
    }

    #[test]
    fn untouched_device_is_flat() {
        let r = WearReport::from_wear(vec![0; 10]);
        assert_eq!(r.cov, 0.0);
        assert_eq!(r.gini, 0.0);
        assert_eq!(r.max_over_mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty device")]
    fn empty_panics() {
        WearReport::from_wear(Vec::new());
    }
}
