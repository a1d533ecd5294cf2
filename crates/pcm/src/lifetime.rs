//! Per-block cell-lifetime model.
//!
//! Each block holds `cells` one-bit PCM cells (512 for the paper's 64 B
//! blocks). Every cell endures a number of writes drawn i.i.d. from
//! Normal(μ, CoV·μ), truncated below at one write (§IV-A: μ = 10⁸,
//! CoV = 0.2). A write to the block wears all of its cells equally, so the
//! block's *i*-th cell failure happens when the block's write count reaches
//! the *i*-th order statistic of the `cells` lifetimes.
//!
//! Rather than storing 512 lifetimes per block, [`LifetimeModel`]
//! regenerates the order statistics on demand from a per-block deterministic
//! stream (see `wlr_base::stats::order`); the device only persists the next
//! un-crossed threshold and, on a worn chip, the uniform order statistic it
//! was drawn from, so that the next threshold resumes the stream instead of
//! replaying it ([`LifetimeModel::threshold_from`]). ECP replacement cells
//! are assumed to be no weaker than the surviving original cells — the
//! standard modeling simplification in ECP-style evaluations, which leaves
//! block death at the (k+1)-th order statistic.

use wlr_base::rng::Rng;
use wlr_base::stats::OrderStatistics;

/// Distribution of cell endurance and the per-block threshold generator.
///
/// ```
/// use wlr_pcm::lifetime::LifetimeModel;
/// let model = LifetimeModel::new(10_000.0, 0.2, 512, 99);
/// let t1 = model.threshold(7, 1);
/// let t2 = model.threshold(7, 2);
/// assert!(0 < t1 && t1 < t2, "order statistics must increase");
/// // Deterministic per (seed, block):
/// assert_eq!(t1, LifetimeModel::new(10_000.0, 0.2, 512, 99).threshold(7, 1));
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeModel {
    mean: f64,
    sd: f64,
    cells: u32,
    seed: u64,
}

impl LifetimeModel {
    /// Creates a model with endurance ~ Normal(`mean`, `cov`·`mean`) over
    /// `cells` cells per block, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive, `cov` is negative, or `cells` is 0.
    pub fn new(mean: f64, cov: f64, cells: u32, seed: u64) -> Self {
        assert!(mean > 0.0, "endurance mean must be positive");
        assert!(cov >= 0.0, "endurance CoV must be non-negative");
        assert!(cells > 0, "blocks must contain at least one cell");
        LifetimeModel {
            mean,
            sd: mean * cov,
            cells,
            seed,
        }
    }

    /// The paper's distribution parameters (μ = 10⁸, CoV 0.2, 512 cells).
    pub fn paper_scale(seed: u64) -> Self {
        LifetimeModel::new(1e8, 0.2, 512, seed)
    }

    /// Mean cell endurance in writes.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of cell endurance in writes.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Cells per block.
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// The write count at which block `block`'s `nth` cell fails
    /// (1-based). Regenerated deterministically from `(seed, block)`;
    /// successive `nth` values are non-decreasing.
    ///
    /// This replays the block's stream from its first failure, O(`nth`)
    /// `powf` steps: it is the spec the device's resumed draw
    /// ([`Self::threshold_from`]) is checked against, and what callers
    /// without a block's earlier statistic use.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is 0 or exceeds the cell count.
    pub fn threshold(&self, block: u64, nth: u32) -> u64 {
        self.threshold_from(block, nth, &mut 0.0)
    }

    /// [`Self::threshold`], resumed from the block's `(nth − 1)`-th uniform
    /// order statistic `*last`, which it replaces with the `nth`-th.
    ///
    /// `*last == 0.0` means unknown: the stream is replayed, every statistic
    /// below the one asked for drawn as a uniform and only the last one
    /// through the inverse normal CDF. Otherwise the block's stream skips
    /// the `nth − 1` uniforms those statistics consumed, with no `powf`,
    /// and draws one statistic on from `*last`. A drawn statistic is
    /// never 0.0 (each step adds at least `f64::MIN_POSITIVE` of what is
    /// left), so a stored one always resumes. Both ways give the same
    /// threshold and the same `*last`.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is 0 or exceeds the cell count.
    pub fn threshold_from(&self, block: u64, nth: u32, last: &mut f64) -> u64 {
        assert!(nth >= 1, "cell-failure index is 1-based");
        assert!(nth <= self.cells, "a block has only {} cells", self.cells);
        let mut rng = Rng::stream(self.seed, block);
        let mut os = if *last > 0.0 {
            for _ in 1..nth {
                rng.gen_open_f64();
            }
            OrderStatistics::resume(rng, self.cells, nth - 1, *last)
        } else {
            let mut os = OrderStatistics::new(rng, self.cells);
            for _ in 1..nth {
                os.next_uniform();
            }
            os
        };
        let value = os
            .next_normal(self.mean, self.sd, 1.0)
            .expect("nth is bounded by the cell count");
        *last = os.current();
        // Cell fails *at* this write count (ceil keeps thresholds >= 1).
        value.ceil() as u64
    }

    /// Convenience: the write count at which the block dies under an ECC
    /// scheme that corrects `correctable` cells (death at failure
    /// `correctable + 1`).
    pub fn death_threshold(&self, block: u64, correctable: u32) -> u64 {
        self.threshold(block, correctable + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_base::stats::Summary;

    #[test]
    fn thresholds_are_monotone_per_block() {
        let m = LifetimeModel::new(10_000.0, 0.2, 512, 5);
        for block in 0..20 {
            let mut prev = 0;
            for nth in 1..=8 {
                let t = m.threshold(block, nth);
                assert!(t >= prev, "block {block} nth {nth}: {t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn threshold_equals_the_all_normals_loop() {
        // The loop `threshold` used to run: every statistic up to `nth`
        // through the inverse normal CDF, keeping the last.
        let all_normals = |m: &LifetimeModel, block: u64, nth: u32| {
            let mut os = OrderStatistics::new(Rng::stream(m.seed, block), m.cells);
            let mut value = 1.0;
            for _ in 0..nth {
                value = os.next_normal(m.mean, m.sd, 1.0).unwrap();
            }
            value.ceil() as u64
        };
        for m in [
            LifetimeModel::new(1e4, 0.2, 512, 5),
            LifetimeModel::paper_scale(5),
        ] {
            for block in 0..2_000 {
                for nth in 1..=8 {
                    assert_eq!(
                        m.threshold(block, nth),
                        all_normals(&m, block, nth),
                        "mean {}, block {block}, nth {nth}",
                        m.mean
                    );
                }
            }
        }
    }

    #[test]
    fn resumed_thresholds_equal_the_replay() {
        for m in [
            LifetimeModel::paper_scale(5),
            LifetimeModel::new(2_000.0, 0.2, 512, 42),
            // Almost every statistic checked clamps at the 1-write floor
            // (z < −1: about the first 80 of 512 cells), so the thresholds
            // agree trivially and the statistics underneath must match.
            LifetimeModel::new(2_000.0, 1.0, 512, 7),
        ] {
            let model = format!("mean {}, sd {}", m.mean, m.sd);
            for block in 0..1_000 {
                let mut last = 0.0;
                for nth in 1..=64 {
                    let want = m.threshold(block, nth);
                    let before = last;
                    assert_eq!(
                        m.threshold_from(block, nth, &mut last),
                        want,
                        "{model}, block {block}, nth {nth}, resumed"
                    );
                    assert!(
                        last > before,
                        "block {block}, nth {nth}: {last} <= {before}"
                    );
                    // From "unknown", the same threshold and statistic.
                    let mut fresh = 0.0;
                    assert_eq!(m.threshold_from(block, nth, &mut fresh), want);
                    assert_eq!(fresh, last, "{model}, block {block}, nth {nth}");
                }
            }
        }
    }

    #[test]
    fn blocks_have_distinct_lifetimes() {
        let m = LifetimeModel::new(10_000.0, 0.2, 512, 5);
        let a = m.threshold(1, 7);
        let b = m.threshold(2, 7);
        assert_ne!(a, b);
    }

    #[test]
    fn seed_changes_lifetimes() {
        let a = LifetimeModel::new(10_000.0, 0.2, 512, 5).threshold(42, 3);
        let b = LifetimeModel::new(10_000.0, 0.2, 512, 6).threshold(42, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn first_failure_mean_matches_theory() {
        // E[min of n normals] ≈ μ − σ·(√(2·ln n) − (ln ln n + ln 4π)/(2√(2·ln n)) − γ/√(2·ln n))
        // ≈ μ − 3.08σ for n = 512 (extreme-value asymptotics).
        let m = LifetimeModel::new(10_000.0, 0.2, 512, 7);
        let mut s = Summary::new();
        for block in 0..4000 {
            s.push(m.threshold(block, 1) as f64);
        }
        let expect = 10_000.0 - 3.08 * 2_000.0;
        assert!(
            (s.mean() - expect).abs() < 150.0,
            "mean first-failure {} vs expected {expect}",
            s.mean()
        );
    }

    #[test]
    fn ecp6_death_is_much_later_than_first_failure() {
        let m = LifetimeModel::new(10_000.0, 0.2, 512, 9);
        let mut gain = Summary::new();
        for block in 0..1000 {
            let t1 = m.threshold(block, 1) as f64;
            let t7 = m.death_threshold(block, 6) as f64;
            gain.push(t7 - t1);
        }
        assert!(gain.mean() > 500.0, "ECP6 gain too small: {}", gain.mean());
    }

    #[test]
    fn zero_cov_collapses_to_mean() {
        let m = LifetimeModel::new(5_000.0, 0.0, 512, 11);
        for nth in 1..=4 {
            assert_eq!(m.threshold(3, nth), 5_000);
        }
    }

    #[test]
    fn floor_applies_to_pathological_distributions() {
        // Enormous CoV drives early order statistics far negative; they
        // must clamp to one write.
        let m = LifetimeModel::new(10.0, 100.0, 512, 13);
        assert!(m.threshold(0, 1) >= 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zeroth_threshold_panics() {
        LifetimeModel::new(1e4, 0.2, 512, 1).threshold(0, 0);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn threshold_beyond_cells_panics() {
        LifetimeModel::new(1e4, 0.2, 4, 1).threshold(0, 5);
    }
}
