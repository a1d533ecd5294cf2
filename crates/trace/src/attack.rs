//! Malicious wear-out attack workloads.
//!
//! Start-Gap and Security Refresh were designed against adversaries that
//! "keep writing at the same set of addresses" (paper §II), and the paper
//! names the birthday-paradox attack (Seznec) when arguing WL-Reviver's
//! benefit persists under highly biased writes. These generators model
//! those adversaries.

use crate::generator::Workload;
use wlr_base::rng::Rng;
use wlr_base::AppAddr;

/// The simplest adversary: cycle over a fixed, small set of addresses at
/// full speed.
///
/// ```
/// use wlr_trace::{RepeatAttack, Workload};
/// let mut a = RepeatAttack::new(1024, 4, 1);
/// let first = a.next_write();
/// // With 4 targets the pattern repeats every 4 writes.
/// for _ in 0..3 { a.next_write(); }
/// assert_eq!(a.next_write(), first);
/// ```
#[derive(Debug, Clone)]
pub struct RepeatAttack {
    len: u64,
    targets: Vec<AppAddr>,
    cursor: usize,
}

impl RepeatAttack {
    /// Attacks `set_size` random (seeded) addresses in a `len`-block space.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `set_size` is 0 or exceeds `len`.
    pub fn new(len: u64, set_size: u64, seed: u64) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        assert!(
            set_size > 0 && set_size <= len,
            "attack set must be within the space"
        );
        let mut rng = Rng::stream(seed, 0xA77);
        let mut chosen = std::collections::HashSet::new();
        let mut targets = Vec::with_capacity(set_size as usize);
        while targets.len() < set_size as usize {
            let a = rng.gen_range(len);
            if chosen.insert(a) {
                targets.push(AppAddr::new(a));
            }
        }
        RepeatAttack {
            len,
            targets,
            cursor: 0,
        }
    }

    /// The attacked addresses.
    pub fn targets(&self) -> &[AppAddr] {
        &self.targets
    }
}

impl Workload for RepeatAttack {
    fn len(&self) -> u64 {
        self.len
    }

    fn next_write(&mut self) -> AppAddr {
        let a = self.targets[self.cursor];
        self.cursor = (self.cursor + 1) % self.targets.len();
        a
    }

    fn label(&self) -> String {
        format!("repeat-attack({})", self.targets.len())
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

/// Birthday-paradox attack (Seznec, CAL'10): instead of hammering one
/// address — which randomized wear leveling spreads — the adversary
/// hammers a modest random set for an epoch, then re-draws the set. Over
/// many epochs, by the birthday paradox, some *device* blocks absorb far
/// more than their share because distinct epochs' sets collide with the
/// slowly-moving mapping.
#[derive(Debug, Clone)]
pub struct BirthdayAttack {
    len: u64,
    set_size: u64,
    epoch_writes: u64,
    written_in_epoch: u64,
    targets: Vec<AppAddr>,
    cursor: usize,
    rng: Rng,
}

impl BirthdayAttack {
    /// Attacks sets of `set_size` addresses, re-drawn every `epoch_writes`
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `set_size` is 0 or exceeds `len`, or
    /// `epoch_writes == 0`.
    pub fn new(len: u64, set_size: u64, epoch_writes: u64, seed: u64) -> Self {
        assert!(len > 0, "workload address space must be nonzero");
        assert!(
            set_size > 0 && set_size <= len,
            "attack set must be within the space"
        );
        assert!(epoch_writes > 0, "epoch must be nonzero");
        let mut attack = BirthdayAttack {
            len,
            set_size,
            epoch_writes,
            written_in_epoch: 0,
            targets: Vec::new(),
            cursor: 0,
            rng: Rng::stream(seed, 0xB1D),
        };
        attack.redraw();
        attack
    }

    fn redraw(&mut self) {
        self.targets.clear();
        let mut chosen = std::collections::HashSet::new();
        while self.targets.len() < self.set_size as usize {
            let a = self.rng.gen_range(self.len);
            if chosen.insert(a) {
                self.targets.push(AppAddr::new(a));
            }
        }
        self.cursor = 0;
        self.written_in_epoch = 0;
    }

    /// The current epoch's target set.
    pub fn targets(&self) -> &[AppAddr] {
        &self.targets
    }
}

impl Workload for BirthdayAttack {
    fn len(&self) -> u64 {
        self.len
    }

    fn next_write(&mut self) -> AppAddr {
        if self.written_in_epoch >= self.epoch_writes {
            self.redraw();
        }
        let a = self.targets[self.cursor];
        self.cursor = (self.cursor + 1) % self.targets.len();
        self.written_in_epoch += 1;
        a
    }

    fn label(&self) -> String {
        format!("birthday-attack({}x{})", self.set_size, self.epoch_writes)
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_attack_cycles_fixed_set() {
        let mut a = RepeatAttack::new(100, 3, 1);
        let targets: Vec<AppAddr> = a.targets().to_vec();
        assert_eq!(targets.len(), 3);
        for round in 0..4 {
            for &t in &targets {
                assert_eq!(a.next_write(), t, "round {round}");
            }
        }
    }

    #[test]
    fn repeat_attack_single_address() {
        let mut a = RepeatAttack::new(100, 1, 2);
        let t = a.next_write();
        for _ in 0..10 {
            assert_eq!(a.next_write(), t);
        }
    }

    #[test]
    fn repeat_attack_targets_distinct() {
        let a = RepeatAttack::new(50, 50, 3);
        let mut set: Vec<u64> = a.targets().iter().map(|t| t.index()).collect();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn birthday_attack_redraws_each_epoch() {
        let mut a = BirthdayAttack::new(10_000, 8, 16, 5);
        let first: Vec<AppAddr> = a.targets().to_vec();
        for _ in 0..16 {
            a.next_write();
        }
        a.next_write(); // first write of the new epoch
        assert_ne!(a.targets(), first.as_slice(), "epoch should redraw");
    }

    #[test]
    fn birthday_attack_concentrates_within_epoch() {
        let mut a = BirthdayAttack::new(10_000, 4, 100, 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(a.next_write());
        }
        assert_eq!(seen.len(), 4, "only the 4 targets within an epoch");
    }

    #[test]
    fn attack_labels() {
        assert_eq!(RepeatAttack::new(10, 2, 0).label(), "repeat-attack(2)");
        assert_eq!(
            BirthdayAttack::new(10, 2, 5, 0).label(),
            "birthday-attack(2x5)"
        );
    }

    #[test]
    fn attacks_have_no_analytic_cov() {
        assert_eq!(RepeatAttack::new(10, 2, 0).exact_cov_opt(), None);
        assert_eq!(BirthdayAttack::new(10, 2, 5, 0).exact_cov_opt(), None);
    }

    #[test]
    #[should_panic(expected = "within the space")]
    fn oversized_set_panics() {
        RepeatAttack::new(4, 5, 0);
    }
}
