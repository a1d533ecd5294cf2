//! Successive order statistics of i.i.d. uniform samples.
//!
//! A 512-cell PCM block protected by ECP-k dies when its (k+1)-th weakest
//! cell dies. Simulating 512 individual cell lifetimes for every one of up
//! to 2²⁴ blocks is wasteful; instead we sample the *order statistics*
//! directly (DESIGN.md §3.4).
//!
//! For `n` i.i.d. U(0,1) variables, the minimum satisfies
//! `U₍₁₎ = 1 − (1−V)^(1/n)` with `V ~ U(0,1)`, and conditional on `U₍ᵢ₎`
//! the next order statistic is
//! `U₍ᵢ₊₁₎ = U₍ᵢ₎ + (1 − U₍ᵢ₎) · (1 − (1−V)^(1/(n−i)))`
//! — the remaining `n−i` samples are uniform on `(U₍ᵢ₎, 1)`. Both forms
//! only need `Beta(1, m)` draws, which have the closed form above, so no
//! general Beta/Gamma sampling is required.
//!
//! Transforming through the inverse normal CDF yields the order statistics
//! of `n` i.i.d. Normal(μ, σ) lifetimes, exactly as if all `n` had been
//! drawn and sorted.

use crate::rng::Rng;
use crate::stats::normal::normal_inv_cdf;

/// Iterator over successive order statistics `U₍₁₎ < U₍₂₎ < …` of `n`
/// i.i.d. uniform samples, seeded deterministically.
///
/// ```
/// use wlr_base::rng::Rng;
/// use wlr_base::stats::OrderStatistics;
///
/// let mut os = OrderStatistics::new(Rng::seed_from(1), 512);
/// let u1 = os.next_uniform().unwrap();
/// let u2 = os.next_uniform().unwrap();
/// assert!(0.0 < u1 && u1 < u2 && u2 < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct OrderStatistics {
    rng: Rng,
    n: u32,
    emitted: u32,
    current: f64,
}

impl OrderStatistics {
    /// Starts the order-statistic stream for `n` i.i.d. uniforms.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(rng: Rng, n: u32) -> Self {
        assert!(n > 0, "order statistics require at least one sample");
        OrderStatistics {
            rng,
            n,
            emitted: 0,
            current: 0.0,
        }
    }

    /// Resumes a stream after `emitted` statistics, the last of which was
    /// `current` (0.0 when `emitted` is 0): `rng` must stand where the
    /// original stream's stood after those draws, one `gen_open_f64` per
    /// statistic. The resumed stream then continues exactly like the
    /// original, without redrawing what came before.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `emitted > n`, or `current` is outside `[0, 1)`.
    pub fn resume(rng: Rng, n: u32, emitted: u32, current: f64) -> Self {
        assert!(n > 0, "order statistics require at least one sample");
        assert!(emitted <= n, "only {n} order statistics exist");
        assert!(
            (0.0..1.0).contains(&current),
            "a uniform order statistic lies in [0, 1)"
        );
        OrderStatistics {
            rng,
            n,
            emitted,
            current,
        }
    }

    /// The last uniform order statistic emitted (0.0 before the first).
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Total number of underlying samples.
    pub fn population(&self) -> u32 {
        self.n
    }

    /// How many order statistics have been emitted so far.
    pub fn emitted(&self) -> u32 {
        self.emitted
    }

    /// Next uniform order statistic, or `None` once all `n` are exhausted.
    pub fn next_uniform(&mut self) -> Option<f64> {
        if self.emitted >= self.n {
            return None;
        }
        let remaining = (self.n - self.emitted) as f64;
        // Beta(1, remaining) draw: minimum of `remaining` uniforms.
        let v = self.rng.gen_open_f64();
        let min_frac = 1.0 - (1.0 - v).powf(1.0 / remaining);
        // Guard against powf rounding producing exactly 0 or pushing us to 1.
        self.current += (1.0 - self.current) * min_frac.clamp(f64::MIN_POSITIVE, 1.0);
        if self.current >= 1.0 {
            self.current = 1.0 - f64::EPSILON;
        }
        self.emitted += 1;
        Some(self.current)
    }

    /// Next order statistic of `n` i.i.d. Normal(μ, σ) samples, clamped to
    /// at least `floor` (cell endurance cannot be negative).
    pub fn next_normal(&mut self, mean: f64, sd: f64, floor: f64) -> Option<f64> {
        self.next_uniform()
            .map(|u| (mean + sd * normal_inv_cdf(u)).max(floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_exactly_n_values() {
        let mut os = OrderStatistics::new(Rng::seed_from(3), 5);
        let mut count = 0;
        while os.next_uniform().is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
        assert_eq!(os.next_uniform(), None);
    }

    #[test]
    fn values_are_strictly_increasing_in_unit_interval() {
        let mut os = OrderStatistics::new(Rng::seed_from(7), 512);
        let mut prev = 0.0;
        for _ in 0..512 {
            let u = os.next_uniform().unwrap();
            assert!(u > prev, "order statistics must increase: {u} <= {prev}");
            assert!(u < 1.0);
            prev = u;
        }
    }

    #[test]
    fn minimum_matches_analytical_distribution() {
        // E[U₍₁₎] for n samples is 1/(n+1).
        let n = 512u32;
        let trials = 20_000;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut os = OrderStatistics::new(Rng::stream(11, t), n);
            sum += os.next_uniform().unwrap();
        }
        let mean = sum / trials as f64;
        let expect = 1.0 / (n as f64 + 1.0);
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "E[min] = {mean}, want ≈ {expect}"
        );
    }

    #[test]
    fn kth_statistic_matches_beta_mean() {
        // E[U₍ₖ₎] = k/(n+1). Check k = 7 (ECP6 failure point) for n = 512.
        let n = 512u32;
        let k = 7;
        let trials = 20_000;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut os = OrderStatistics::new(Rng::stream(13, t), n);
            let mut u = 0.0;
            for _ in 0..k {
                u = os.next_uniform().unwrap();
            }
            sum += u;
        }
        let mean = sum / trials as f64;
        let expect = k as f64 / (n as f64 + 1.0);
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "E[U_(7)] = {mean}, want ≈ {expect}"
        );
    }

    #[test]
    fn normal_transform_respects_floor() {
        let mut os = OrderStatistics::new(Rng::seed_from(17), 512);
        // Absurdly negative mean forces the clamp.
        let v = os.next_normal(-1e9, 1.0, 1.0).unwrap();
        assert_eq!(v, 1.0);
    }

    #[test]
    fn normal_order_statistics_increase() {
        let mut os = OrderStatistics::new(Rng::seed_from(19), 64);
        let mut prev = f64::NEG_INFINITY;
        while let Some(v) = os.next_normal(1e4, 2e3, 1.0) {
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let seq = |seed| {
            let mut os = OrderStatistics::new(Rng::seed_from(seed), 32);
            (0..32)
                .map(|_| os.next_uniform().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(23), seq(23));
        assert_ne!(seq(23), seq(24));
    }

    #[test]
    fn resume_continues_the_original_stream() {
        let n = 512;
        for k in 0..40 {
            let mut original = OrderStatistics::new(Rng::stream(37, k.into()), n);
            let mut rng = Rng::stream(37, k.into());
            for _ in 0..k {
                original.next_uniform();
                rng.gen_open_f64();
            }
            let mut resumed = OrderStatistics::resume(rng, n, k, original.current());
            assert_eq!(resumed.emitted(), original.emitted());
            for _ in 0..24 {
                assert_eq!(resumed.next_uniform(), original.next_uniform(), "k = {k}");
                assert_eq!(resumed.current(), original.current());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_population_panics() {
        OrderStatistics::new(Rng::seed_from(1), 0);
    }

    #[test]
    fn matches_brute_force_distribution() {
        // Compare the 3rd order statistic of 16 uniforms against sorting 16
        // raw draws: Kolmogorov–Smirnov-style coarse check on the mean and
        // variance.
        let trials = 30_000;
        let (mut m_fast, mut m_brute) = (0.0, 0.0);
        for t in 0..trials {
            let mut os = OrderStatistics::new(Rng::stream(29, t), 16);
            let mut u = 0.0;
            for _ in 0..3 {
                u = os.next_uniform().unwrap();
            }
            m_fast += u;

            let mut rng = Rng::stream(31, t);
            let mut raw: Vec<f64> = (0..16).map(|_| rng.gen_f64()).collect();
            raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
            m_brute += raw[2];
        }
        let (m_fast, m_brute) = (m_fast / trials as f64, m_brute / trials as f64);
        assert!(
            (m_fast - m_brute).abs() < 0.005,
            "fast {m_fast} vs brute {m_brute}"
        );
    }
}
