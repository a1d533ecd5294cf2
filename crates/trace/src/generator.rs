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
