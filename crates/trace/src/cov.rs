//! CoV-targeted workload generation.
//!
//! The paper characterizes each benchmark by the CoV of its per-block
//! write counts (Table I). [`CovTargetedWorkload`] reproduces an arbitrary
//! target CoV exactly:
//!
//! 1. Build a *lognormal quantile profile*: weight `wᵢ = exp(σ·zᵢ)` with
//!    `zᵢ = Φ⁻¹((i+½)/n)`. For n blocks this is the deterministic,
//!    noise-free discretization of a LogNormal(0, σ) weight distribution.
//! 2. The profile's CoV is continuous and strictly increasing in σ, so a
//!    bisection on σ pins the empirical CoV to the target within 10⁻⁴
//!    relative error. (The analytic relation CoV² = exp(σ²)−1 holds only
//!    for the untruncated distribution; the bisection absorbs the
//!    finite-n truncation that matters at CoV ≈ 40.)
//! 3. Lay the weights out over the address space with page-granular
//!    spatial clustering ([`SpatialMode::Clustered`]), mimicking programs
//!    whose hot blocks live in hot pages — the locality that address
//!    randomization exists to break — or scattered at random
//!    ([`SpatialMode::Scattered`]).
//! 4. Sample in O(1) via a Walker alias table.

use crate::alias::AliasTable;
use crate::generator::Workload;
use std::sync::Arc;
use wlr_base::rng::Rng;
use wlr_base::stats::{coefficient_of_variation, normal_inv_cdf};
use wlr_base::AppAddr;

/// How the weight profile is laid out over the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialMode {
    /// Weights assigned to blocks in uniformly random order.
    Scattered,
    /// Weights sorted and grouped into runs of `run_blocks` consecutive
    /// blocks; run order shuffled. Hot blocks therefore cluster into hot
    /// runs (use the page size, 64 blocks, to model hot pages).
    Clustered {
        /// Length of each contiguous run in blocks.
        run_blocks: u64,
    },
}

/// A workload whose stationary per-block write distribution has an exact,
/// configurable coefficient of variation.
///
/// ```
/// use wlr_trace::cov::{CovTargetedWorkload, SpatialMode};
/// use wlr_trace::generator::Workload;
///
/// let mut w = CovTargetedWorkload::new(4096, 11.30, SpatialMode::Scattered, 3);
/// assert!((w.exact_cov() - 11.30).abs() < 0.02);
/// let a = w.next_write();
/// assert!(a.index() < 4096);
/// ```
#[derive(Debug, Clone)]
pub struct CovTargetedWorkload {
    len: u64,
    target_cov: f64,
    achieved_cov: f64,
    sigma: f64,
    table: AliasTable,
    /// Fixed once laid out, like the alias table: a clone shares both.
    weights: Arc<[f64]>,
    rng: Rng,
    label: String,
}

impl CovTargetedWorkload {
    /// Builds a generator over `len` blocks hitting `target_cov`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `target_cov` is negative, or the target is
    /// unreachable for this address-space size (the profile's CoV is
    /// bounded by ≈√(n−1); e.g. a 16-block space cannot reach CoV 40).
    pub fn new(len: u64, target_cov: f64, spatial: SpatialMode, seed: u64) -> Self {
        Self::with_label(
            len,
            target_cov,
            spatial,
            seed,
            format!("cov{target_cov:.2}"),
        )
    }

    /// As [`Self::new`] with an explicit label (used by the Table I
    /// benchmark presets).
    pub fn with_label(
        len: u64,
        target_cov: f64,
        spatial: SpatialMode,
        seed: u64,
        label: String,
    ) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        assert!(target_cov >= 0.0, "target CoV must be non-negative");
        let max_cov = ((len as f64) - 1.0).sqrt();
        assert!(
            target_cov < max_cov * 0.99,
            "CoV {target_cov} unreachable over {len} blocks (max ≈ {max_cov:.1})"
        );

        let (sigma, profile, achieved) = calibrate_profile(len, target_cov);
        let weights = lay_out(profile, spatial, seed);
        let table = AliasTable::new(&weights);
        CovTargetedWorkload {
            len,
            target_cov,
            achieved_cov: achieved,
            sigma,
            table,
            weights: weights.into(),
            rng: Rng::stream(seed, 0xC0F),
            label,
        }
    }

    /// The requested CoV.
    pub fn target_cov(&self) -> f64 {
        self.target_cov
    }

    /// The calibrated lognormal σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The stationary write probability of each block (normalized
    /// weights), for analysis.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Workload for CovTargetedWorkload {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn next_write(&mut self) -> AppAddr {
        AppAddr::new(self.table.sample(&mut self.rng))
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn exact_cov_opt(&self) -> Option<f64> {
        Some(self.achieved_cov)
    }
}

/// Builds the sorted quantile profile for `len` blocks and bisects σ to
/// hit `target_cov`. Returns `(sigma, sorted_weights, achieved_cov)`.
fn calibrate_profile(len: u64, target_cov: f64) -> (f64, Vec<f64>, f64) {
    let n = usize::try_from(len).expect("address space too large for host");
    if target_cov == 0.0 {
        return (0.0, vec![1.0; n], 0.0);
    }
    // Quantile grid is fixed; only σ scales it.
    let z: Vec<f64> = (0..n)
        .map(|i| normal_inv_cdf((i as f64 + 0.5) / n as f64))
        .collect();
    let profile_cov = |sigma: f64| -> f64 {
        let w: Vec<f64> = z.iter().map(|&zi| (sigma * zi).exp()).collect();
        coefficient_of_variation(&w)
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while profile_cov(hi) < target_cov {
        hi *= 2.0;
        assert!(hi < 256.0, "σ search diverged for CoV {target_cov}");
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if profile_cov(mid) < target_cov {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let sigma = 0.5 * (lo + hi);
    let weights: Vec<f64> = z.iter().map(|&zi| (sigma * zi).exp()).collect();
    let achieved = coefficient_of_variation(&weights);
    (sigma, weights, achieved)
}

/// Distributes the ascending-sorted `profile` over the address space.
fn lay_out(profile: Vec<f64>, spatial: SpatialMode, seed: u64) -> Vec<f64> {
    let n = profile.len();
    match spatial {
        SpatialMode::Scattered => {
            let mut order: Vec<u64> = (0..n as u64).collect();
            Rng::stream(seed, 0x5CA7).shuffle(&mut order);
            let mut out = vec![0.0; n];
            for (w, &slot) in profile.into_iter().zip(order.iter()) {
                out[slot as usize] = w;
            }
            out
        }
        SpatialMode::Clustered { run_blocks } => {
            assert!(run_blocks > 0, "cluster run length must be nonzero");
            let run = run_blocks as usize;
            let num_runs = n.div_ceil(run);
            let mut run_order: Vec<u64> = (0..num_runs as u64).collect();
            Rng::stream(seed, 0xC105).shuffle(&mut run_order);
            let mut out = vec![0.0; n];
            let mut src = 0usize;
            for &r in &run_order {
                let base = r as usize * run;
                let end = (base + run).min(n);
                for slot in out.iter_mut().take(end).skip(base) {
                    *slot = profile[src];
                    src += 1;
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_base::stats::Summary;

    #[test]
    fn hits_every_table1_cov() {
        for target in [4.15, 5.44, 5.54, 8.88, 11.30, 13.17, 13.87, 40.87] {
            let w = CovTargetedWorkload::new(1 << 14, target, SpatialMode::Scattered, 1);
            let got = w.exact_cov();
            assert!(
                (got - target).abs() / target < 1e-3,
                "target {target}: achieved {got}"
            );
        }
    }

    #[test]
    fn zero_cov_is_uniform() {
        let w = CovTargetedWorkload::new(256, 0.0, SpatialMode::Scattered, 1);
        assert_eq!(w.exact_cov(), 0.0);
        assert!(w.weights().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn sampling_matches_weights() {
        let mut w = CovTargetedWorkload::new(64, 2.0, SpatialMode::Scattered, 5);
        let total: f64 = w.weights().iter().sum();
        let probs: Vec<f64> = w.weights().iter().map(|x| x / total).collect();
        let mut counts = vec![0u64; 64];
        let draws = 400_000;
        for _ in 0..draws {
            counts[w.next_write().as_usize()] += 1;
        }
        // Compare empirical frequency of the hottest block.
        let hot = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let f = counts[hot] as f64 / draws as f64;
        assert!(
            (f - probs[hot]).abs() / probs[hot] < 0.05,
            "hot block frequency {f} vs {p}",
            p = probs[hot]
        );
    }

    #[test]
    fn clustered_mode_concentrates_hot_pages() {
        let w = CovTargetedWorkload::new(4096, 10.0, SpatialMode::Clustered { run_blocks: 64 }, 7);
        // Per-page total weight should be much more dispersed than under
        // scattering: the hottest page should hold a large share.
        let page_weight =
            |weights: &[f64]| -> Vec<f64> { weights.chunks(64).map(|c| c.iter().sum()).collect() };
        let clustered_pages = page_weight(w.weights());
        let s = CovTargetedWorkload::new(4096, 10.0, SpatialMode::Scattered, 7);
        let scattered_pages = page_weight(s.weights());
        let max_c = clustered_pages.iter().cloned().fold(0.0, f64::max);
        let max_s = scattered_pages.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_c > max_s * 3.0,
            "clustering should concentrate page heat: {max_c} vs {max_s}"
        );
    }

    #[test]
    fn deterministic_stream() {
        let mut a = CovTargetedWorkload::new(256, 5.0, SpatialMode::Scattered, 9);
        let mut b = CovTargetedWorkload::new(256, 5.0, SpatialMode::Scattered, 9);
        for _ in 0..64 {
            assert_eq!(a.next_write(), b.next_write());
        }
    }

    #[test]
    fn a_clone_shares_the_tables_and_continues_the_stream() {
        let mut a = CovTargetedWorkload::new(256, 5.0, SpatialMode::Scattered, 9);
        a.next_write();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.weights, &b.weights));
        for _ in 0..64 {
            assert_eq!(a.next_write(), b.next_write());
        }
    }

    #[test]
    fn seeds_change_layout_not_cov() {
        let a = CovTargetedWorkload::new(1024, 8.0, SpatialMode::Scattered, 1);
        let b = CovTargetedWorkload::new(1024, 8.0, SpatialMode::Scattered, 2);
        assert!((a.exact_cov() - b.exact_cov()).abs() < 1e-9);
        assert_ne!(a.weights()[0], b.weights()[0]);
    }

    #[test]
    fn empirical_count_cov_approaches_target() {
        // The CoV of actual sampled counts converges to the weight CoV.
        let mut w = CovTargetedWorkload::new(512, 3.0, SpatialMode::Scattered, 11);
        let mut counts = vec![0u64; 512];
        for _ in 0..2_000_000 {
            counts[w.next_write().as_usize()] += 1;
        }
        let mut s = Summary::new();
        for &c in &counts {
            s.push(c as f64);
        }
        assert!(
            (s.cov() - 3.0).abs() < 0.15,
            "empirical count CoV {} vs target 3.0",
            s.cov()
        );
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn impossible_cov_panics() {
        CovTargetedWorkload::new(16, 40.0, SpatialMode::Scattered, 1);
    }

    #[test]
    fn addresses_stay_in_range() {
        let mut w = CovTargetedWorkload::new(100, 6.0, SpatialMode::Clustered { run_blocks: 7 }, 3);
        for _ in 0..10_000 {
            assert!(w.next_write().index() < 100);
        }
    }
}
