//! Walker/Vose alias method: O(1) sampling from a discrete distribution.
//!
//! The CoV-targeted generators sample one of up to 2²⁴ block weights per
//! simulated write; the alias method makes that a single random draw and
//! one table lookup regardless of the distribution's shape.

use std::sync::Arc;
use wlr_base::rng::Rng;

/// A pre-processed discrete distribution supporting O(1) sampling.
///
/// ```
/// use wlr_base::rng::Rng;
/// use wlr_trace::alias::AliasTable;
///
/// let t = AliasTable::new(&[1.0, 0.0, 3.0]);
/// let mut rng = Rng::seed_from(1);
/// let mut counts = [0u64; 3];
/// for _ in 0..40_000 {
///     counts[t.sample(&mut rng) as usize] += 1;
/// }
/// assert_eq!(counts[1], 0);           // zero weight never drawn
/// assert!(counts[2] > counts[0] * 2); // 3:1 ratio approximately
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability per bucket, scaled to u64 for a branch-cheap
    /// integer comparison in the hot path. Like `alias`, fixed once built:
    /// a clone shares both.
    prob: Arc<[u64]>,
    alias: Arc<[u32]>,
}

impl AliasTable {
    /// Builds the table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative or non-finite,
    /// or all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table limited to 2^32 buckets"
        );
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight {i} must be finite and non-negative (got {w})"
            );
            total += w;
        }
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        // Scaled weights: mean 1.0.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut prob = vec![0u64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let si = s as usize;
            let li = l as usize;
            prob[si] = to_fixed(scaled[si]);
            alias[si] = l;
            scaled[li] = (scaled[li] + scaled[si]) - 1.0;
            if scaled[li] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &l in &large {
            prob[l as usize] = u64::MAX;
        }
        for &s in &small {
            // Leftovers from floating-point drift: accept always.
            prob[s as usize] = u64::MAX;
        }
        AliasTable {
            prob: prob.into(),
            alias: alias.into(),
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index according to the weights.
    ///
    /// Consumes exactly two draws from `rng`, in this order: the bucket
    /// (`gen_range(len)`), then the acceptance word (`next_u64`), kept
    /// when `word <= prob[bucket]`. The choice between the bucket and its
    /// alias is branchless: under a skewed profile most buckets accept
    /// about half the time, so a branch on a fresh random word mispredicts
    /// on every other sample, while a conditional move costs the same
    /// whichever way the word falls.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let i = rng.gen_range(self.prob.len() as u64) as usize;
        let accept = rng.next_u64() <= self.prob[i];
        std::hint::select_unpredictable(accept, i as u64, u64::from(self.alias[i]))
    }
}

#[inline]
fn to_fixed(p: f64) -> u64 {
    // Map [0,1] to the full u64 range.
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: u64, seed: u64) -> Vec<f64> {
        let t = AliasTable::new(weights);
        let mut rng = Rng::seed_from(seed);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    /// The first 64 draws from a fixed skewed table, captured with the
    /// branchy `if` this sampler replaced: a change to which draws a sample
    /// consumes, or to the `<=`, fails here before it moves a fingerprint.
    #[test]
    fn sample_stream_is_pinned() {
        const GOLDEN: [u64; 64] = [
            0, 1, 1, 1, 7, 1, 7, 1, 0, 1, 0, 0, 2, 0, 1, 0, 7, 7, 7, 0, 0, 7, 7, 0, 7, 4, 0, 0, 0,
            0, 1, 0, 0, 0, 3, 1, 1, 1, 1, 0, 0, 1, 2, 0, 0, 0, 3, 1, 7, 7, 0, 7, 0, 0, 1, 7, 7, 0,
            4, 7, 0, 3, 7, 0,
        ];
        let t = AliasTable::new(&[8.0, 4.0, 2.0, 1.0, 1.0, 0.25, 0.0, 3.5]);
        let mut rng = Rng::seed_from(42);
        let drawn: Vec<u64> = (0..64).map(|_| t.sample(&mut rng)).collect();
        assert_eq!(drawn, GOLDEN);
    }

    #[test]
    fn a_clone_shares_the_tables() {
        let t = AliasTable::new(&[1.0, 0.0, 3.0]);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.prob, &c.prob) && Arc::ptr_eq(&t.alias, &c.alias));
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freqs = empirical(&[1.0; 16], 160_000, 3);
        for (i, f) in freqs.iter().enumerate() {
            assert!(
                (f - 1.0 / 16.0).abs() < 0.005,
                "bucket {i} frequency {f} too far from 1/16"
            );
        }
    }

    #[test]
    fn skewed_weights_match_expectations() {
        let w = [8.0, 4.0, 2.0, 1.0, 1.0];
        let total: f64 = w.iter().sum();
        let freqs = empirical(&w, 200_000, 5);
        for (i, f) in freqs.iter().enumerate() {
            let expect = w[i] / total;
            assert!(
                (f - expect).abs() < 0.01,
                "bucket {i}: {f} vs expected {expect}"
            );
        }
    }

    #[test]
    fn zero_weights_never_sampled() {
        let freqs = empirical(&[0.0, 1.0, 0.0, 1.0], 50_000, 7);
        assert_eq!(freqs[0], 0.0);
        assert_eq!(freqs[2], 0.0);
    }

    #[test]
    fn single_bucket_always_wins() {
        let freqs = empirical(&[42.0], 1000, 9);
        assert_eq!(freqs[0], 1.0);
    }

    #[test]
    fn extreme_skew_is_handled() {
        let mut w = vec![1.0; 1024];
        w[7] = 1e9;
        let freqs = empirical(&w, 100_000, 11);
        assert!(freqs[7] > 0.99, "dominant bucket frequency {}", freqs[7]);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0]);
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut a), t.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -0.1]);
    }
}
