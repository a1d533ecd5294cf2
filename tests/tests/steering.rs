//! Wear-aware steering integration: with the knob off (the default) the
//! front-end's logical→physical mapping is the identity and outcomes are
//! bit-identical to a build that never heard of steering; with it on,
//! writes are conserved and a bank-skewed trace ends with visibly more
//! even cross-bank wear than the deterministic mapping gives.

use wlr_base::rng::Rng;
use wlr_base::stats::coefficient_of_variation;
use wlr_base::AppAddr;
use wlr_mc::{McFrontend, McOutcome};
use wlr_trace::Workload;

/// A trace that concentrates traffic on the *banks* rather than on hot
/// blocks: under cache-line interleave (`bank = addr mod banks`) most
/// addresses land on banks 0 and 1, while staying spread over many
/// distinct blocks so queue coalescing cannot flatten the skew.
#[derive(Debug, Clone)]
struct BankSkewedWorkload {
    banks: u64,
    len: u64,
    rng: Rng,
}

impl Workload for BankSkewedWorkload {
    fn len(&self) -> u64 {
        self.len
    }

    fn next_write(&mut self) -> AppAddr {
        let r = self.rng.gen_range(100);
        let addr = if r < 85 {
            // Hot: a random row of bank (r mod 2).
            let row = self.rng.gen_range(self.len / self.banks);
            row * self.banks + (r & 1)
        } else {
            self.rng.gen_range(self.len)
        };
        AppAddr::new(addr)
    }

    fn label(&self) -> String {
        "bank-skewed".into()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

fn run_skewed(steering: bool) -> McOutcome {
    let banks = 8u64;
    let len = 1u64 << 12;
    let mut mc = McFrontend::builder()
        .banks(banks as usize)
        .total_blocks(len)
        .endurance_mean(1e6)
        .steering(steering)
        .seed(7)
        .build()
        .unwrap();
    let mut w = BankSkewedWorkload {
        banks,
        len,
        rng: Rng::stream(7, 0xBA17),
    };
    mc.run(&mut w, 400_000)
}

/// Per-physical-bank issued-write counts as floats, for CoV computation.
fn bank_load(out: &McOutcome) -> Vec<f64> {
    out.banks.iter().map(|b| b.writes_issued as f64).collect()
}

/// With steering disabled (explicitly or by never mentioning the knob)
/// the run must be bit-identical: same per-bank fingerprints, same
/// latency profile, same counters.
#[test]
fn steering_off_is_bit_identical_to_a_build_without_the_knob() {
    let explicit = {
        let mut mc = McFrontend::builder()
            .banks(8)
            .total_blocks(1 << 12)
            .steering(false)
            .seed(3)
            .build()
            .unwrap();
        let mut w = BankSkewedWorkload {
            banks: 8,
            len: 1 << 12,
            rng: Rng::stream(3, 0xBA17),
        };
        mc.run(&mut w, 200_000)
    };
    let default = {
        let mut mc = McFrontend::builder()
            .banks(8)
            .total_blocks(1 << 12)
            .seed(3)
            .build()
            .unwrap();
        let mut w = BankSkewedWorkload {
            banks: 8,
            len: 1 << 12,
            rng: Rng::stream(3, 0xBA17),
        };
        mc.run(&mut w, 200_000)
    };
    assert_eq!(explicit.issued, default.issued);
    assert_eq!(explicit.coalesced, default.coalesced);
    assert_eq!(explicit.ticks, default.ticks);
    assert_eq!(explicit.latency.p99(), default.latency.p99());
    for (a, b) in explicit.banks.iter().zip(&default.banks) {
        assert_eq!(a.fingerprint, b.fingerprint, "bank {} diverged", a.bank);
        assert_eq!(a.writes_issued, b.writes_issued);
    }
}

/// A steered run that stays under one epoch (4,096 flushed writes) never
/// rotates the permutation away from the identity, so the outcome must
/// stay bit-identical to the unsteered pipeline — the knob only changes
/// behavior once a rotation actually happens.
#[test]
fn steering_with_an_unreached_epoch_matches_unsteered_bit_for_bit() {
    let steered = {
        let mut mc = McFrontend::builder()
            .banks(8)
            .total_blocks(1 << 12)
            .steering(true)
            .seed(5)
            .build()
            .unwrap();
        let mut w = BankSkewedWorkload {
            banks: 8,
            len: 1 << 12,
            rng: Rng::stream(5, 0xBA17),
        };
        mc.run(&mut w, 4_000)
    };
    let unsteered = {
        let mut mc = McFrontend::builder()
            .banks(8)
            .total_blocks(1 << 12)
            .seed(5)
            .build()
            .unwrap();
        let mut w = BankSkewedWorkload {
            banks: 8,
            len: 1 << 12,
            rng: Rng::stream(5, 0xBA17),
        };
        mc.run(&mut w, 4_000)
    };
    assert_eq!(steered.issued, unsteered.issued);
    assert_eq!(steered.latency.p99(), unsteered.latency.p99());
    for (a, b) in steered.banks.iter().zip(&unsteered.banks) {
        assert_eq!(a.fingerprint, b.fingerprint, "bank {} diverged", a.bank);
    }
}

/// On a bank-skewed trace, steering must conserve every write and leave
/// the physical banks' write loads markedly more even than the
/// deterministic mapping does.
#[test]
fn steering_levels_cross_bank_wear_on_a_skewed_trace() {
    let unsteered = run_skewed(false);
    let steered = run_skewed(true);
    assert!(unsteered.conserves_writes());
    assert!(steered.conserves_writes());
    assert_eq!(
        steered.issued, unsteered.issued,
        "steering only reroutes batches; it must not create or lose writes"
    );

    let cov_un = coefficient_of_variation(&bank_load(&unsteered));
    let cov_st = coefficient_of_variation(&bank_load(&steered));
    assert!(
        cov_un > 0.5,
        "the trace must actually skew the banks (unsteered CoV = {cov_un:.3})"
    );
    assert!(
        cov_st <= cov_un,
        "steering must not worsen cross-bank balance (steered {cov_st:.3} vs unsteered {cov_un:.3})"
    );
    assert!(
        cov_st < 0.5 * cov_un,
        "rotating hot logical banks across physical banks should slash the \
         load imbalance (steered {cov_st:.3} vs unsteered {cov_un:.3})"
    );
}
