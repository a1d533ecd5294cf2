//! The workload interface.

use core::fmt;
use wlr_base::AppAddr;

/// An infinite, deterministic stream of application-block write addresses.
///
/// Workloads are *write* streams because PCM endurance, and therefore the
/// whole evaluation, is driven by writes; reads are modeled at the
/// controller layer where they matter (Table II's access-time metric).
pub trait Workload: fmt::Debug + Send {
    /// Size of the application address space in blocks; all generated
    /// addresses are below this.
    fn len(&self) -> u64;

    /// Whether the address space is empty (never true for valid configs).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces the next block address to write.
    fn next_write(&mut self) -> AppAddr;

    /// Fills `out` with the next `out.len()` addresses of the stream.
    ///
    /// The contract is exact: the addresses, and the state left behind,
    /// equal those of `out.len()` calls to [`Self::next_write`]. A consumer
    /// may therefore draw ahead in slabs — the simulation engine does —
    /// without reordering or skipping anything in the stream.
    fn fill(&mut self, out: &mut [AppAddr]) {
        for a in out {
            *a = self.next_write();
        }
    }

    /// Generator label for experiment output.
    fn label(&self) -> String;

    /// Deep copy of the generator's current stream position, for
    /// simulation snapshots. The copy must produce the identical address
    /// stream as the original from this point on.
    fn clone_box(&self) -> Box<dyn Workload>;

    /// The exact coefficient of variation of the generator's stationary
    /// per-block write distribution, when known analytically (from its
    /// weight profile). `None` for adaptive/attack workloads.
    fn exact_cov_opt(&self) -> Option<f64> {
        None
    }

    /// Like [`Self::exact_cov_opt`] but panics when unknown.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no analytic CoV.
    fn exact_cov(&self) -> f64 {
        self.exact_cov_opt()
            .expect("workload has no analytic write CoV")
    }
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Fixed;

    impl Workload for Fixed {
        fn len(&self) -> u64 {
            1
        }
        fn next_write(&mut self) -> AppAddr {
            AppAddr::new(0)
        }
        fn label(&self) -> String {
            "fixed".into()
        }
        fn clone_box(&self) -> Box<dyn Workload> {
            Box::new(self.clone())
        }
    }

    /// Every generator in the crate, sized so that 64 and 1,000 draws cross
    /// a birthday epoch (48 writes) and a trace lap (37 records).
    fn every_generator() -> Vec<Box<dyn Workload>> {
        use crate::*;
        vec![
            Box::new(UniformWorkload::new(1000, 1)),
            Box::new(ZipfWorkload::new(1000, 1.1, 2)),
            Box::new(HotRegionWorkload::new(1000, 0.9, 0.05, 3)),
            Box::new(CovTargetedWorkload::new(
                1024,
                8.0,
                SpatialMode::Clustered { run_blocks: 64 },
                4,
            )),
            Box::new(RepeatAttack::new(1000, 7, 5)),
            Box::new(BirthdayAttack::new(1000, 5, 48, 6)),
            Box::new(TraceWorkload::from_records(
                1000,
                (0..37).map(|i| i * 27).collect(),
            )),
        ]
    }

    #[test]
    fn fill_is_next_write_n_times() {
        for n in [1, 64, 1000] {
            for mut by_fill in every_generator() {
                let mut by_next = by_fill.clone();
                // Start mid-stream, off any epoch or lap boundary.
                for w in [&mut by_fill, &mut by_next] {
                    w.next_write();
                }
                let mut got = vec![AppAddr::new(0); n];
                by_fill.fill(&mut got);
                let want: Vec<AppAddr> = (0..n).map(|_| by_next.next_write()).collect();
                let label = by_fill.label();
                assert_eq!(got, want, "{label}: fill({n})");
                assert_eq!(
                    format!("{by_fill:?}"),
                    format!("{by_next:?}"),
                    "{label}: state after fill({n})"
                );
            }
        }
    }

    #[test]
    fn default_cov_is_unknown() {
        assert_eq!(Fixed.exact_cov_opt(), None);
    }

    #[test]
    #[should_panic(expected = "no analytic")]
    fn exact_cov_panics_when_unknown() {
        Fixed.exact_cov();
    }
}
