//! Mergeable histograms shared by the simulation core and the multi-bank
//! front-end.
//!
//! Both crates need the same two aggregates — a per-block wear
//! distribution and a queue-latency distribution — and both need them to
//! merge by plain addition so per-bank images fold into fleet-wide ones.
//! They live here, beneath both crates, so there is exactly one
//! implementation (they were previously duplicated between
//! `wl_reviver::metrics` and `wlr_mc::stats`, which re-export these types
//! for backward compatibility).

/// A mergeable histogram of per-block wear, for folding per-bank wear
/// images into controller-level aggregates without shipping whole
/// snapshots around.
///
/// Counts land in power-of-two buckets (bucket `i` holds wear values
/// with bit-width `i`, i.e. `[2^(i-1), 2^i)`, bucket 0 holds zeros), so
/// two histograms merge by plain addition regardless of their wear
/// ranges. Mean, CoV and max are tracked exactly from running moments;
/// percentiles resolve to the upper bound of the containing bucket
/// (within 2× of the true value, which is what cross-bank imbalance
/// monitoring needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearHistogram {
    /// `buckets[i]` counts blocks whose wear has bit-width `i` (0..=32).
    buckets: [u64; 33],
    blocks: u64,
    sum: u64,
    /// Σ w², for the exact CoV. u128: 2³² blocks × (2³²)² still fits.
    sum_sq: u128,
    max: u32,
}

impl Default for WearHistogram {
    fn default() -> Self {
        WearHistogram {
            buckets: [0; 33],
            blocks: 0,
            sum: 0,
            sum_sq: 0,
            max: 0,
        }
    }
}

impl WearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from a wear snapshot (one write count per
    /// block, typically truncated to the software-visible prefix).
    pub fn from_wear(wear: &[u32]) -> Self {
        let mut h = Self::new();
        for &w in wear {
            h.push(w);
        }
        h
    }

    /// Records one block's wear count.
    pub fn push(&mut self, wear: u32) {
        self.buckets[(32 - wear.leading_zeros()) as usize] += 1;
        self.blocks += 1;
        self.sum += u64::from(wear);
        self.sum_sq += u128::from(wear) * u128::from(wear);
        self.max = self.max.max(wear);
    }

    /// Folds another histogram into this one. The result is identical to
    /// having pushed both histograms' blocks into one.
    pub fn merge(&mut self, other: &WearHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.blocks += other.blocks;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.max = self.max.max(other.max);
    }

    /// Number of blocks recorded.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Whether no blocks have been recorded.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Mean wear (exact). 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.sum as f64 / self.blocks as f64
        }
    }

    /// Maximum wear seen (exact).
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Ratio of the maximum wear to the mean (exact; 0 on flat-zero or
    /// empty histograms).
    pub fn max_over_mean(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            f64::from(self.max) / mean
        }
    }

    /// Coefficient of variation of per-block wear (exact, from running
    /// moments; 0 = perfectly flat).
    pub fn cov(&self) -> f64 {
        let mean = self.mean();
        if self.blocks == 0 || mean == 0.0 {
            return 0.0;
        }
        let n = self.blocks as f64;
        let var = (self.sum_sq as f64 / n - mean * mean).max(0.0);
        var.sqrt() / mean
    }

    /// The wear value at quantile `q` in `[0, 1]`, resolved to the upper
    /// bound of its power-of-two bucket (exact for 0; within 2× above).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or the histogram is empty.
    pub fn percentile(&self, q: f64) -> u32 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(self.blocks > 0, "percentile of an empty histogram");
        // Rank of the q-quantile block, 1-based, ceiling convention.
        let rank = ((q * self.blocks as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 {
                    0
                } else {
                    // Upper bound of bucket i is 2^i − 1, capped at the
                    // exact observed max for the top occupied bucket.
                    (((1u64 << i) - 1) as u32).min(self.max)
                };
            }
        }
        self.max
    }
}

/// Queue-latency ticks below which counts are exact; beyond, latencies
/// land in a single overflow bucket and percentiles report the observed
/// maximum.
const RESOLUTION: usize = 4096;

/// An exact-count latency histogram over queueing delays in ticks.
///
/// Latencies `0..4096` are counted exactly; larger ones share an
/// overflow bucket (with the true maximum tracked separately, so
/// [`Self::percentile`] stays meaningful). Histograms from different
/// banks or runs [`merge`](Self::merge) by plain addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `counts[l]` for each exact latency `l`, then the overflow bucket:
    /// a latency lands in slot `min(l, RESOLUTION)`, with no branch.
    counts: Box<[u64; RESOLUTION + 1]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; RESOLUTION + 1]
                .into_boxed_slice()
                .try_into()
                .expect("RESOLUTION + 1 slots"),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one latency observation.
    pub fn push(&mut self, latency: u64) {
        self.counts[latency.min(RESOLUTION as u64) as usize] += 1;
        self.total += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Records a batch served one entry per tick from tick `start`: entry
    /// `i`, arrived at `arrivals[i]`, waited `start + i − arrivals[i]`
    /// ticks (0 if it arrived later). Equal to [`push`](Self::push)ing each.
    #[inline(never)]
    pub fn push_served(&mut self, start: u64, arrivals: impl ExactSizeIterator<Item = u64>) {
        self.total += arrivals.len() as u64;
        let (mut at, mut sum, mut max) = (start, 0u64, self.max);
        let counts = &mut *self.counts;
        for arrival in arrivals {
            let latency = at.saturating_sub(arrival);
            counts[latency.min(RESOLUTION as u64) as usize] += 1;
            sum += latency;
            max = max.max(latency);
            at += 1;
        }
        self.sum += sum;
        self.max = max;
    }

    /// Adds `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean latency in ticks.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram.
    pub fn mean(&self) -> f64 {
        assert!(self.total > 0, "mean of an empty latency histogram");
        self.sum as f64 / self.total as f64
    }

    /// Largest latency observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile latency (ceiling rank). Ranks falling in the
    /// overflow bucket report the observed maximum.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram or `q` outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!(self.total > 0, "percentile of an empty latency histogram");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (latency, &count) in self.counts[..RESOLUTION].iter().enumerate() {
            seen += count;
            if seen >= rank {
                return latency as u64;
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;

    #[test]
    fn moments_are_exact() {
        let h = WearHistogram::from_wear(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(h.blocks(), 8);
        assert_eq!(h.mean(), 3.5);
        assert_eq!(h.max(), 7);
        assert!((h.max_over_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_union() {
        let a_wear: Vec<u32> = (0..500).map(|i| i * 3 % 97).collect();
        let b_wear: Vec<u32> = (0..300).map(|i| 1000 + i).collect();
        let mut merged = WearHistogram::from_wear(&a_wear);
        merged.merge(&WearHistogram::from_wear(&b_wear));

        let mut union: Vec<u32> = a_wear;
        union.extend(&b_wear);
        let direct = WearHistogram::from_wear(&union);
        assert_eq!(merged, direct);
        assert!((merged.cov() - direct.cov()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_bound_the_true_quantile() {
        let wear: Vec<u32> = (1..=1024).collect();
        let h = WearHistogram::from_wear(&wear);
        for q in [0.5f64, 0.9, 0.99] {
            let true_q = wear[((q * 1024.0).ceil() as usize).max(1) - 1];
            let est = h.percentile(q);
            assert!(est >= true_q, "p{q}: {est} < true {true_q}");
            assert!(
                est < true_q.saturating_mul(2).max(2),
                "p{q}: {est} ≥ 2×{true_q}"
            );
        }
        assert_eq!(h.percentile(1.0), 1024);
    }

    #[test]
    fn flat_and_empty_cases() {
        let flat = WearHistogram::from_wear(&[9; 64]);
        assert_eq!(flat.cov(), 0.0);
        assert_eq!(flat.max_over_mean(), 1.0);
        assert_eq!(flat.percentile(0.5), 9); // capped at the observed max

        let zeros = WearHistogram::from_wear(&[0; 8]);
        assert_eq!(zeros.percentile(0.99), 0);
        assert_eq!(zeros.cov(), 0.0);

        let empty = WearHistogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_percentile_panics() {
        WearHistogram::new().percentile(0.5);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn percentiles_follow_exact_counts() {
        let mut h = LatencyHistogram::new();
        for lat in 1..=100u64 {
            h.push(lat);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for lat in 0..50u64 {
            a.push(lat);
            whole.push(lat);
        }
        for lat in 50..200u64 {
            b.push(lat * 40); // push some into overflow
            whole.push(lat * 40);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn p999_follows_exact_counts() {
        let mut h = LatencyHistogram::new();
        for lat in 1..=1000u64 {
            h.push(lat);
        }
        assert_eq!(h.p999(), 999);
        h.push(1001);
        assert_eq!(h.p999(), 1000);
    }

    #[test]
    fn overflow_ranks_report_observed_max() {
        let mut h = LatencyHistogram::new();
        h.push(10);
        h.push(1_000_000);
        assert_eq!(h.p99(), 1_000_000);
        assert_eq!(h.p50(), 10);
    }

    #[test]
    fn push_served_equals_push_per_entry() {
        // Latencies past the 4 096 exact slots, arrivals after `start`
        // (latency 0), and a second batch on top of the first.
        let batches: [(u64, Vec<u64>); 3] = [
            (100, vec![0, 50, 99, 100, 120, 150, 200]),
            (10_000, vec![1, 5_000, 5_904, 5_905, 9_999, 20_000]),
            (3, vec![]),
        ];
        let mut batched = LatencyHistogram::new();
        let mut single = LatencyHistogram::new();
        for (start, arrivals) in &batches {
            batched.push_served(*start, arrivals.iter().copied());
            for (i, &arrival) in arrivals.iter().enumerate() {
                single.push((start + i as u64).saturating_sub(arrival));
            }
        }
        assert_eq!(batched.counts, single.counts);
        assert_eq!(
            (batched.total, batched.sum, batched.max),
            (single.total, single.sum, single.max)
        );
        assert!(
            batched.counts[RESOLUTION] > 0,
            "some latency must pass the exact slots"
        );
        assert!(
            batched.counts[0] > 0,
            "some entry must arrive after its start"
        );
    }

    #[test]
    #[should_panic(expected = "empty latency histogram")]
    fn empty_percentile_panics() {
        LatencyHistogram::new().percentile(0.5);
    }
}
