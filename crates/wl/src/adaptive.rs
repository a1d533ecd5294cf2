//! SAWL-style self-adaptive wear-leveling granularity.
//!
//! Fixed-rate schemes pay a constant migration overhead regardless of how
//! hostile the workload actually is: under uniform traffic Start-Gap's ψ
//! writes-per-gap-move are mostly wasted wear, while under a pinned hot
//! line the same ψ may be too slow. SAWL's observation is that the right
//! granularity can be chosen *online* from the observed wear imbalance.
//!
//! [`Adaptive`] wraps any [`WearLeveler`] and paces how fast the inner
//! scheme's write clock advances:
//!
//! * every serviced write updates per-PA write counters (epoch-stamped,
//!   O(1)) plus running `Σc` / `Σc²` aggregates, so the coefficient of
//!   variation of the write distribution — the driver of wear imbalance —
//!   is available in O(1) at any time;
//! * every `epoch_writes` writes the CoV is evaluated against the band
//!   0.75–1.5, calibrated so uniform traffic at the default epoch falls
//!   below it and adversarial skew above it: above the band the
//!   forwarding rate doubles (inner migrations come sooner — the
//!   effective interval narrows), below it the rate halves (the interval
//!   widens), always clamped to `[1/4, 4]`;
//! * the rate is applied through a Q16 fixed-point credit accumulator:
//!   each real write adds `rate` credit and every whole credit forwards
//!   one `record_write` to the inner scheme. At rate 4 the inner scheme
//!   ages four write-clocks per write; at rate ¼ only every fourth write
//!   reaches it.
//!
//! The mapping itself is untouched — `map`/`inverse`/`pending`/
//! `complete_migration` delegate — so the wrapper composes with the
//! WL-Reviver framework exactly like the scheme it wraps.

use crate::traits::{Migration, WearLeveler};
use wlr_base::{Da, Pa};

const Q: u64 = 1 << 16;
/// The CoV band outside which the rate steps.
const COV_LO: f64 = 0.75;
const COV_HI: f64 = 1.5;
/// The rate's clamp, in Q16.
const RATE_MIN_Q16: u64 = Q / 4;
const RATE_MAX_Q16: u64 = 4 * Q;

/// Builder for [`Adaptive`]; see [`Adaptive::builder`].
#[derive(Debug)]
pub struct AdaptiveBuilder<W> {
    inner: W,
    epoch_writes: u64,
}

impl<W: WearLeveler + Clone + 'static> AdaptiveBuilder<W> {
    /// Writes between successive CoV evaluations (default `4 * len`).
    pub fn epoch_writes(mut self, writes: u64) -> Self {
        self.epoch_writes = writes;
        self
    }

    /// Builds the wrapper.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is zero.
    pub fn build(self) -> Adaptive<W> {
        assert!(self.epoch_writes > 0, "adaptation epoch must be nonzero");
        let n = self.inner.len() as usize;
        Adaptive {
            epoch_writes: self.epoch_writes,
            rate_q16: Q,
            credit_q16: 0,
            counts: vec![0; n],
            stamp: vec![0; n],
            epoch_id: 1,
            sum: 0,
            sum_sq: 0,
            writes_in_epoch: 0,
            last_cov: 0.0,
            inner: self.inner,
        }
    }
}

/// A SAWL-style adaptive pacing wrapper over any wear-leveling scheme.
/// See the module docs for the adaptation rule.
///
/// ```
/// use wlr_base::Pa;
/// use wlr_wl::{Adaptive, StartGap, WearLeveler};
///
/// let inner = StartGap::builder(64).gap_interval(8).build();
/// let mut wl = Adaptive::builder(inner).epoch_writes(32).build();
/// let da = wl.map(Pa::new(5));
/// assert_eq!(wl.inverse(da), Some(Pa::new(5)));
/// assert_eq!(wl.rate(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adaptive<W> {
    inner: W,
    epoch_writes: u64,
    /// Current forwarding rate in Q16 fixed point.
    rate_q16: u64,
    /// Fractional write-clock credit owed to the inner scheme.
    credit_q16: u64,
    /// Per-PA writes within the current epoch, valid iff the stamp matches.
    counts: Vec<u64>,
    stamp: Vec<u32>,
    epoch_id: u32,
    /// Running Σ count over the epoch (= writes_in_epoch).
    sum: u64,
    /// Running Σ count² over the epoch, maintained incrementally.
    sum_sq: u128,
    writes_in_epoch: u64,
    last_cov: f64,
}

impl<W: WearLeveler + Clone + 'static> Adaptive<W> {
    /// Starts building an adaptive wrapper around `inner`.
    pub fn builder(inner: W) -> AdaptiveBuilder<W> {
        let epoch = inner.len().saturating_mul(4).max(1);
        AdaptiveBuilder {
            inner,
            epoch_writes: epoch,
        }
    }

    /// The current forwarding rate (1.0 = the inner scheme's native pace).
    pub fn rate(&self) -> f64 {
        self.rate_q16 as f64 / Q as f64
    }

    /// The CoV observed at the last epoch boundary.
    pub fn last_cov(&self) -> f64 {
        self.last_cov
    }

    /// Read access to the wrapped scheme.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    fn observe(&mut self, pa: Pa) {
        let i = pa.index() as usize;
        if self.stamp[i] != self.epoch_id {
            self.stamp[i] = self.epoch_id;
            self.counts[i] = 0;
        }
        let c = self.counts[i];
        self.counts[i] = c + 1;
        self.sum += 1;
        self.sum_sq += u128::from(2 * c + 1);
        self.writes_in_epoch += 1;
        if self.writes_in_epoch >= self.epoch_writes {
            self.adapt();
        }
    }

    /// Epoch boundary: evaluate the CoV of the epoch's write distribution
    /// over all `len` PAs (untouched PAs count as zero) and step the rate.
    fn adapt(&mut self) {
        let n = self.inner.len() as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sum_sq as f64 / n - mean * mean).max(0.0);
        let cov = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        self.last_cov = cov;
        if cov > COV_HI {
            self.rate_q16 = (self.rate_q16 * 2).min(RATE_MAX_Q16);
        } else if cov < COV_LO {
            self.rate_q16 = (self.rate_q16 / 2).max(RATE_MIN_Q16);
        }
        self.epoch_id = self.epoch_id.wrapping_add(1);
        if self.epoch_id == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch_id = 1;
        }
        self.sum = 0;
        self.sum_sq = 0;
        self.writes_in_epoch = 0;
    }
}

impl<W: WearLeveler + Clone + 'static> WearLeveler for Adaptive<W> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn total_das(&self) -> u64 {
        self.inner.total_das()
    }

    #[inline]
    fn map(&self, pa: Pa) -> Da {
        self.inner.map(pa)
    }

    #[inline]
    fn inverse(&self, da: Da) -> Option<Pa> {
        self.inner.inverse(da)
    }

    fn record_write(&mut self, pa: Pa) {
        self.observe(pa);
        self.credit_q16 += self.rate_q16;
        while self.credit_q16 >= Q {
            self.credit_q16 -= Q;
            self.inner.record_write(pa);
        }
    }

    #[inline]
    fn record_write_fast(&mut self, pa: Pa) -> bool {
        // Declines at an epoch boundary (`observe` would re-rate before
        // the credit is added) and when the credit forwards more than one
        // write; the inner scheme is asked first, so a `false` from it
        // leaves both layers untouched.
        if self.writes_in_epoch + 1 >= self.epoch_writes {
            return false;
        }
        let credit = self.credit_q16 + self.rate_q16;
        let fast = match credit / Q {
            0 => self.inner.pending().is_none(),
            1 => self.inner.record_write_fast(pa),
            _ => false,
        };
        if fast {
            self.observe(pa);
            self.credit_q16 = credit % Q;
        }
        fast
    }

    fn pending(&self) -> Option<Migration> {
        self.inner.pending()
    }

    fn complete_migration(&mut self) {
        self.inner.complete_migration();
    }

    fn label(&self) -> String {
        format!("Adaptive({})", self.inner.label())
    }

    fn clone_box(&self) -> Box<dyn WearLeveler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomizer::RandomizerKind;
    use crate::start_gap::StartGap;

    fn adaptive_sg(len: u64, psi: u64, epoch: u64) -> Adaptive<StartGap> {
        let inner = StartGap::builder(len).gap_interval(psi).build();
        Adaptive::builder(inner).epoch_writes(epoch).build()
    }

    fn drain(wl: &mut dyn WearLeveler) -> u64 {
        let mut n = 0;
        while wl.pending().is_some() {
            wl.complete_migration();
            n += 1;
        }
        n
    }

    #[test]
    fn obeys_every_law() {
        let psi = crate::laws::PSI;
        crate::laws::leveler_laws(
            |n| {
                let inner = StartGap::builder(n)
                    .gap_interval(psi)
                    .randomizer(RandomizerKind::Feistel { seed: 7 })
                    .build();
                Adaptive::builder(inner).build()
            },
            // The rate never falls below 1/4, so 4(k + 1) writes forward
            // at least k to Start-Gap, whose bound is ψ(N + 1).
            |n| Some(4 * (psi * (n + 1) + 1)),
        );
    }

    #[test]
    fn rate_rises_under_pinned_hot_line() {
        let mut wl = adaptive_sg(64, 8, 64);
        for _ in 0..64 * 8 {
            wl.record_write(Pa::new(0));
            drain(&mut wl);
        }
        assert!(
            wl.last_cov() > 1.5,
            "a single hot line is maximally skewed, cov={}",
            wl.last_cov()
        );
        assert_eq!(wl.rate(), 4.0, "rate should clamp at the maximum");
    }

    #[test]
    fn rate_falls_under_uniform_traffic() {
        let mut wl = adaptive_sg(64, 8, 256);
        for i in 0..256u64 * 8 {
            wl.record_write(Pa::new(i % 64)); // perfectly uniform
            drain(&mut wl);
        }
        assert!(
            wl.last_cov() < 0.75,
            "round-robin traffic has near-zero cov, cov={}",
            wl.last_cov()
        );
        assert_eq!(wl.rate(), 0.25, "rate should clamp at the minimum");
    }

    #[test]
    fn high_rate_narrows_the_migration_interval() {
        // At rate 4 the inner ψ=16 behaves like ψ=4.
        let mut wl = adaptive_sg(64, 16, 16);
        // Drive the rate to max with a hot line.
        for _ in 0..16 * 16 {
            wl.record_write(Pa::new(0));
            drain(&mut wl);
        }
        assert_eq!(wl.rate(), 4.0);
        let mut migrations = 0;
        for _ in 0..64 {
            wl.record_write(Pa::new(0));
            migrations += drain(&mut wl);
        }
        assert!(
            migrations >= 12,
            "64 writes at rate 4 under ψ=16 should move ~16 gaps, got {migrations}"
        );
    }

    #[test]
    fn low_rate_widens_the_migration_interval() {
        let mut wl = adaptive_sg(64, 4, 64);
        for i in 0..64u64 * 8 {
            wl.record_write(Pa::new(i % 64));
            drain(&mut wl);
        }
        assert_eq!(wl.rate(), 0.25);
        let mut migrations = 0;
        for i in 0..64u64 {
            wl.record_write(Pa::new(i % 64));
            migrations += drain(&mut wl);
        }
        assert!(
            migrations <= 5,
            "64 writes at rate 1/4 under ψ=4 should move ~4 gaps, got {migrations}"
        );
    }

    #[test]
    fn rate_is_clamped_and_steps_by_powers_of_two() {
        // One-space epochs: a hot line is far above the band, round-robin
        // (every count 1, CoV 0) far below it.
        let mut wl = adaptive_sg(16, 4, 16);
        let mut rates = vec![wl.rate()];
        for i in 0..400u64 {
            wl.record_write(Pa::new(if i < 200 { 0 } else { i % 16 }));
            drain(&mut wl);
            rates.push(wl.rate());
        }
        rates.dedup();
        assert_eq!(rates, [1.0, 2.0, 4.0, 2.0, 1.0, 0.5, 0.25]);
    }

    #[test]
    fn label_names_the_inner_scheme() {
        let wl = adaptive_sg(32, 4, 16);
        assert_eq!(wl.label(), "Adaptive(Start-Gap)");
    }

    #[test]
    #[should_panic(expected = "epoch must be nonzero")]
    fn zero_epoch_panics() {
        let inner = StartGap::builder(16).gap_interval(4).build();
        Adaptive::builder(inner).epoch_writes(0).build();
    }
}
