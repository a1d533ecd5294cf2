//! Reference workloads: uniform, Zipf, and hot/cold regions.
//!
//! These are not Table I benchmarks; they exist for unit tests, ablations,
//! and the examples (a Zipf stream is the conventional stand-in for cache
//! write-back traffic).

use crate::alias::AliasTable;
use crate::generator::Workload;
use wlr_base::rng::Rng;
use wlr_base::stats::coefficient_of_variation;
use wlr_base::AppAddr;

/// Uniform writes over the whole space (CoV 0): the best case for any
/// endurance scheme.
///
/// ```
/// use wlr_trace::{UniformWorkload, Workload};
/// let mut w = UniformWorkload::new(128, 3);
/// assert_eq!(w.exact_cov(), 0.0);
/// assert!(w.next_write().index() < 128);
/// ```
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    len: u64,
    rng: Rng,
}

impl UniformWorkload {
    /// Uniform workload over `len` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: u64, seed: u64) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        UniformWorkload {
            len,
            rng: Rng::stream(seed, 0x0717F),
        }
    }
}

impl Workload for UniformWorkload {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn next_write(&mut self) -> AppAddr {
        AppAddr::new(self.rng.gen_range(self.len))
    }

    fn label(&self) -> String {
        "uniform".to_string()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn exact_cov_opt(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Zipf-distributed writes: block `i` (after a seeded shuffle) receives
/// weight `(i+1)^-s`.
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    len: u64,
    exponent: f64,
    cov: f64,
    table: AliasTable,
    order: Vec<u64>,
    rng: Rng,
}

impl ZipfWorkload {
    /// Zipf workload with exponent `s` over `len` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `s` is negative or non-finite.
    pub fn new(len: u64, s: f64, seed: u64) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite, non-negative"
        );
        let n = usize::try_from(len).expect("space too large");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let cov = coefficient_of_variation(&weights);
        let mut order: Vec<u64> = (0..len).collect();
        Rng::stream(seed, 0x21FF).shuffle(&mut order);
        ZipfWorkload {
            len,
            exponent: s,
            cov,
            table: AliasTable::new(&weights),
            order,
            rng: Rng::stream(seed, 0x21F0),
        }
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl Workload for ZipfWorkload {
    fn len(&self) -> u64 {
        self.len
    }

    fn next_write(&mut self) -> AppAddr {
        let rank = self.table.sample(&mut self.rng);
        AppAddr::new(self.order[rank as usize])
    }

    fn label(&self) -> String {
        format!("zipf(s={})", self.exponent)
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn exact_cov_opt(&self) -> Option<f64> {
        Some(self.cov)
    }
}

/// The classic hot/cold mixture: a `hot_fraction` of writes goes uniformly
/// to a contiguous region covering `hot_space` of the address space, the
/// rest uniformly everywhere.
#[derive(Debug, Clone)]
pub struct HotRegionWorkload {
    len: u64,
    hot_blocks: u64,
    hot_start: u64,
    hot_fraction: f64,
    rng: Rng,
}

impl HotRegionWorkload {
    /// E.g. `hot_fraction = 0.8`, `hot_space = 0.2` is the 80/20 rule.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the fractions are outside `(0, 1]`.
    pub fn new(len: u64, hot_fraction: f64, hot_space: f64, seed: u64) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction must be in [0,1]"
        );
        assert!(
            hot_space > 0.0 && hot_space <= 1.0,
            "hot space must be in (0,1]"
        );
        let hot_blocks = ((len as f64 * hot_space).ceil() as u64).clamp(1, len);
        let mut rng = Rng::stream(seed, 0x407);
        let hot_start = rng.gen_range(len - hot_blocks + 1);
        HotRegionWorkload {
            len,
            hot_blocks,
            hot_start,
            hot_fraction,
            rng,
        }
    }

    /// The contiguous hot range `[start, start + blocks)`.
    pub fn hot_range(&self) -> (u64, u64) {
        (self.hot_start, self.hot_start + self.hot_blocks)
    }
}

impl Workload for HotRegionWorkload {
    fn len(&self) -> u64 {
        self.len
    }

    fn next_write(&mut self) -> AppAddr {
        if self.rng.gen_bool(self.hot_fraction) {
            AppAddr::new(self.hot_start + self.rng.gen_range(self.hot_blocks))
        } else {
            AppAddr::new(self.rng.gen_range(self.len))
        }
    }

    fn label(&self) -> String {
        format!(
            "hot({:.0}%/{:.0}%)",
            self.hot_fraction * 100.0,
            self.hot_blocks as f64 / self.len as f64 * 100.0
        )
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn exact_cov_opt(&self) -> Option<f64> {
        // Two-level distribution: analytic CoV.
        let n = self.len as f64;
        let h = self.hot_blocks as f64;
        let f = self.hot_fraction;
        let p_hot = f / h + (1.0 - f) / n;
        let p_cold = (1.0 - f) / n;
        let mean = 1.0 / n;
        let var = (h * (p_hot - mean).powi(2) + (n - h) * (p_cold - mean).powi(2)) / n;
        Some(var.sqrt() / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut w = UniformWorkload::new(32, 1);
        let mut seen = [false; 32];
        for _ in 0..2000 {
            seen[w.next_write().as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform should touch every block");
    }

    #[test]
    fn zipf_orders_by_rank() {
        let mut w = ZipfWorkload::new(64, 1.2, 5);
        let mut counts = vec![0u64; 64];
        for _ in 0..100_000 {
            counts[w.next_write().as_usize()] += 1;
        }
        // The top block should dominate: rank-1 weight share for s=1.2
        // over 64 blocks is ≈ 1/H ≈ 0.27.
        let max = *counts.iter().max().unwrap();
        assert!(max > 20_000, "top block only got {max}");
        assert!(w.exact_cov() > 1.0);
        assert_eq!(w.exponent(), 1.2);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let w = ZipfWorkload::new(64, 0.0, 5);
        assert!(w.exact_cov().abs() < 1e-12);
    }

    #[test]
    fn hot_region_heats_its_range() {
        let mut w = HotRegionWorkload::new(1000, 0.9, 0.1, 7);
        let (lo, hi) = w.hot_range();
        let mut hot_hits = 0u64;
        let total = 50_000;
        for _ in 0..total {
            let a = w.next_write().index();
            assert!(a < 1000);
            if a >= lo && a < hi {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / total as f64;
        // 90% targeted + ~10% of background land inside.
        assert!((frac - 0.91).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn hot_region_analytic_cov_sane() {
        let w = HotRegionWorkload::new(1000, 0.8, 0.2, 7);
        let cov = w.exact_cov();
        // p_hot/p_cold = (0.8/200 + 0.2/1000)/(0.2/1000) = 21 → strong skew.
        assert!(cov > 1.0 && cov < 3.0, "cov {cov}");
    }

    #[test]
    fn labels() {
        assert_eq!(UniformWorkload::new(8, 0).label(), "uniform");
        assert_eq!(ZipfWorkload::new(8, 1.0, 0).label(), "zipf(s=1)");
        assert!(HotRegionWorkload::new(100, 0.8, 0.2, 0)
            .label()
            .starts_with("hot("));
    }
}
