//! Mergeable exact quantiles and empirical CDFs over full sample sets.
//!
//! The Monte Carlo fleet fans a campaign out over worker threads, each of
//! which accumulates the lifetimes of its own forked futures; the reporter
//! then merges the per-worker sets and reads quantiles off the union.
//! Sample counts are thousands, not billions, so the accumulator keeps
//! every observation and answers *exactly* — no sketch error to reason
//! about when two CDF rows sit close together.
//!
//! # Tie rule
//!
//! [`QuantileSet::quantile`] uses the **nearest-rank** definition:
//! `quantile(q)` is the smallest sample `x` such that at least `⌈q·n⌉` of
//! the `n` samples are `≤ x`. In particular `q = 0` returns the minimum,
//! `q = 1` the maximum, and every returned value is an observed sample
//! (no interpolation), so a quantile of an integer-valued sample is an
//! integer. Duplicates count with multiplicity: over `[1, 2, 2, 3]`,
//! `quantile(0.5)` is `2` (rank `⌈0.5·4⌉ = 2`).

/// Exact, mergeable quantile/CDF accumulator (see module docs for the
/// nearest-rank tie rule).
///
/// ```
/// let mut q = wlr_base::stats::QuantileSet::new();
/// for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
///     q.push(x);
/// }
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.quantile(0.5), 3.0);
/// assert_eq!(q.quantile(1.0), 5.0);
/// assert_eq!(q.cdf_at(2.5), 0.4); // 2 of 5 samples ≤ 2.5
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSet {
    /// All observations, kept sorted between mutations.
    xs: Vec<f64>,
}

impl QuantileSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        QuantileSet { xs: Vec::new() }
    }

    /// Builds a set from a batch of observations.
    ///
    /// # Panics
    ///
    /// Panics if any observation is NaN.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut q = QuantileSet::new();
        for &x in xs {
            q.push(x);
        }
        q
    }

    /// Accumulates one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN would poison the sort order and make
    /// every later quantile meaningless).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation pushed into QuantileSet");
        let at = self.xs.partition_point(|&y| y <= x);
        self.xs.insert(at, x);
    }

    /// Merges another set into this one. Merging the per-worker sets of a
    /// partitioned campaign yields exactly the set of the whole campaign,
    /// in any merge order.
    pub fn merge(&mut self, other: &QuantileSet) {
        // Classic sorted-merge; both sides are already ordered.
        let mut merged = Vec::with_capacity(self.xs.len() + other.xs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.xs.len() && j < other.xs.len() {
            if self.xs[i] <= other.xs[j] {
                merged.push(self.xs[i]);
                i += 1;
            } else {
                merged.push(other.xs[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.xs[i..]);
        merged.extend_from_slice(&other.xs[j..]);
        self.xs = merged;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The nearest-rank quantile for `q ∈ [0, 1]`: the smallest sample
    /// `x` with at least `⌈q·n⌉` samples `≤ x` (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.xs.is_empty(), "quantile of empty QuantileSet");
        assert!((0.0..=1.0).contains(&q), "quantile q out of range: {q}");
        let n = self.xs.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.xs[rank - 1]
    }

    /// The empirical CDF at `x`: the fraction of samples `≤ x`.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn cdf_at(&self, x: f64) -> f64 {
        assert!(!self.xs.is_empty(), "cdf_at of empty QuantileSet");
        self.xs.partition_point(|&y| y <= x) as f64 / self.xs.len() as f64
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    /// One `(q, quantile(q))` row per requested probability — the shape
    /// the fleet reporter writes into its report's CDF rows.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or any `q` is outside `[0, 1]`.
    pub fn cdf_rows(&self, qs: &[f64]) -> Vec<(f64, f64)> {
        qs.iter().map(|&q| (q, self.quantile(q))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_tie_rule() {
        // Over [1, 2, 2, 3]: rank(0.5) = ⌈2⌉ = 2 → second sample = 2;
        // rank(0.51) = ⌈2.04⌉ = 3 → third sample = 2 (the duplicate);
        // rank(0.76) = ⌈3.04⌉ = 4 → 3.
        let q = QuantileSet::from_samples(&[3.0, 2.0, 1.0, 2.0]);
        assert_eq!(q.quantile(0.5), 2.0);
        assert_eq!(q.quantile(0.51), 2.0);
        assert_eq!(q.quantile(0.76), 3.0);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 3.0);
    }

    #[test]
    fn quantiles_are_observed_samples() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        let q = QuantileSet::from_samples(&xs);
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert!(xs.contains(&q.quantile(p)), "q={p} not a sample");
        }
    }

    #[test]
    fn cdf_at_counts_fractions() {
        let q = QuantileSet::from_samples(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(q.cdf_at(0.5), 0.0);
        assert_eq!(q.cdf_at(1.0), 0.25);
        assert_eq!(q.cdf_at(2.0), 0.75);
        assert_eq!(q.cdf_at(99.0), 1.0);
    }

    #[test]
    fn merge_equals_union() {
        let xs: Vec<f64> = (0..97).map(|i| ((i * 7919) % 101) as f64).collect();
        let whole = QuantileSet::from_samples(&xs);
        let mut left = QuantileSet::from_samples(&xs[..40]);
        let right = QuantileSet::from_samples(&xs[40..]);
        left.merge(&right);
        assert_eq!(left, whole);
        for p in [0.0, 0.05, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(left.quantile(p), whole.quantile(p));
        }
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let a = QuantileSet::from_samples(&[5.0, 1.0]);
        let b = QuantileSet::from_samples(&[3.0, 3.0, 2.0]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 5);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = QuantileSet::from_samples(&[1.0, 2.0]);
        let mut left = a.clone();
        left.merge(&QuantileSet::new());
        assert_eq!(left, a);
        let mut empty = QuantileSet::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn cdf_rows_shape() {
        let q = QuantileSet::from_samples(&[4.0, 8.0, 15.0, 16.0, 23.0, 42.0]);
        let rows = q.cdf_rows(&[0.05, 0.5, 0.95, 0.99]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], (0.05, 4.0));
        assert_eq!(rows[1], (0.5, 15.0));
        assert_eq!(rows[3], (0.99, 42.0));
    }

    #[test]
    fn mean_and_extremes() {
        let q = QuantileSet::from_samples(&[2.0, 4.0, 9.0]);
        assert_eq!(q.min(), 2.0);
        assert_eq!(q.max(), 9.0);
        assert_eq!(q.mean(), 5.0);
        assert_eq!(QuantileSet::new().mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_push_panics() {
        QuantileSet::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty QuantileSet")]
    fn empty_quantile_panics() {
        QuantileSet::new().quantile(0.5);
    }

    /// Against the textbook definition computed the slow way: the
    /// nearest-rank quantile is the smallest x with cdf_at(x) ≥ q.
    #[test]
    fn quantile_agrees_with_cdf_inverse() {
        let xs: Vec<f64> = (0..250).map(|i| ((i * 31) % 83) as f64).collect();
        let q = QuantileSet::from_samples(&xs);
        for p in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let v = q.quantile(p);
            assert!(q.cdf_at(v) >= p);
            // No smaller sample reaches the rank.
            let smaller: Vec<f64> = xs.iter().cloned().filter(|&x| x < v).collect();
            if !smaller.is_empty() {
                let just_below = smaller.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert!(q.cdf_at(just_below) < p);
            }
        }
    }
}
