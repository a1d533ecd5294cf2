//! The [`WearLeveler`] contract, checked once for every scheme: the
//! eight laws of the trait's `# Contract`, each panicking with its name.
//! Every scheme's tests call [`leveler_laws`] with the construction the
//! scheme registry uses.

use crate::traits::{Migration, WearLeveler};
use std::{any::Any, panic::catch_unwind, panic::AssertUnwindSafe};
use wlr_base::rng::Rng;
use wlr_base::{Da, Pa};

/// ψ for every leveler under test: small, so migrations come often.
pub(crate) const PSI: u64 = 3;

/// The space sizes driven; a size the builder rejects is skipped.
const SIZES: [u64; 10] = [1, 2, 3, 7, 16, 24, 48, 64, 100, 128];

/// Runs every law against `make(n)` for each size `make` accepts. Law 8
/// runs where `rotation_bound(n)` promises a bound, in writes, on how
/// long any DA waits to be a migration target under round-robin writes.
pub(crate) fn leveler_laws<W: WearLeveler + Clone>(
    make: impl Fn(u64) -> W,
    rotation_bound: impl Fn(u64) -> Option<u64>,
) {
    let built: Vec<W> = (SIZES.into_iter())
        .filter_map(|n| catch_unwind(AssertUnwindSafe(|| make(n))).ok())
        .collect();
    assert!(!built.is_empty(), "the builder rejected every size");
    for w in built {
        let n = w.len();
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let mut run = Run::new(w);
            run.stream();
            if let Some(bound) = rotation_bound(n) {
                run.rotate(bound);
            }
        }));
        if let Err(e) = checked {
            panic!("{} (n = {n})", message(&*e));
        }
    }
}

fn message(panic: &(dyn Any + Send)) -> &str {
    (panic.downcast_ref::<String>().map(String::as_str))
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default()
}

/// One leveler under test plus the models its laws are checked against.
struct Run<W> {
    w: W,
    /// N plus the ops so far: the latest write's tag, above tags `0..N`.
    op: u64,
    /// Per DA, the tag of the data the device holds there.
    data: Vec<Option<u64>>,
    /// Per PA, the tag last written to it.
    tags: Vec<u64>,
    /// Per PA, its DA as of the last check.
    map: Vec<Da>,
    /// The `clone_box` taken mid-stream, driven in lockstep.
    twin: Option<Box<dyn WearLeveler>>,
}

impl<W: WearLeveler + Clone> Run<W> {
    fn new(w: W) -> Self {
        let n = w.len();
        let mut run = Run {
            data: vec![None; w.total_das() as usize],
            w,
            op: n,
            tags: (0..n).collect(),
            map: vec![Da::new(0); n as usize],
            twin: None,
        };
        run.check_bijection();
        for (pa, da) in run.map.iter().enumerate() {
            run.data[da.as_usize()] = Some(pa as u64);
        }
        run
    }

    /// Uniform, hot-line and sequential phases of writes; migrations stay
    /// owed for a few writes and are then completed in a burst.
    fn stream(&mut self) {
        let n = self.w.len();
        let mut rng = Rng::stream(0x1A75, n);
        self.check();
        self.completing_nothing_panics();
        let (writes, phase) = (8 * n + 64, 2 * n + 8);
        for i in 0..writes {
            let pa = match (i / phase) % 3 {
                0 => rng.gen_range(n),
                1 => (i / phase * 37) % n,
                _ => i % n,
            };
            self.write(Pa::new(pa));
            // Clone while a migration is owed, so the copy carries debt.
            let owed = self.w.pending().is_some() || i + 1 == writes;
            if self.twin.is_none() && i >= writes / 2 && owed {
                self.twin = Some(self.w.clone_box());
                self.check();
            }
            // After a quarter of the writes, a burst of one to four.
            for _ in 0..rng.gen_range(16).saturating_sub(11) {
                if self.w.pending().is_some() {
                    self.complete();
                }
            }
        }
        while self.w.pending().is_some() {
            self.complete();
        }
        self.completing_nothing_panics();
    }

    fn write(&mut self, pa: Pa) {
        self.op += 1;
        self.tags[pa.as_usize()] = self.op;
        self.data[self.map[pa.as_usize()].as_usize()] = Some(self.op);
        let (before, mut slow) = (self.w.clone(), self.w.clone());
        slow.record_write(pa);
        if self.w.record_write_fast(pa) {
            let owed = before.pending().or(slow.pending());
            assert!(owed.is_none(), "fast_recording: {owed:?} owed");
            let same = format!("{:?}", self.w) == format!("{slow:?}");
            assert!(same, "fast_recording: fast {pa} differs");
        } else {
            let same = format!("{:?}", self.w) == format!("{before:?}");
            assert!(same, "fast_recording: declining {pa} changed state");
            self.w.record_write(pa);
        }
        if let Some(twin) = &mut self.twin {
            twin.record_write(pa);
        }
        self.check();
    }

    fn complete(&mut self) {
        self.op += 1;
        let m = self.w.pending().expect("only what is pending is completed");
        let moved = match m {
            Migration::Copy { src, dst } => {
                let owner = self.w.inverse(dst);
                assert!(owner.is_none(), "copy_into_buffer: {m} onto {owner:?}");
                self.data[dst.as_usize()] = self.data[src.as_usize()].take();
                [self.w.inverse(src), None]
            }
            Migration::Swap { a, b } => {
                self.data.swap(a.as_usize(), b.as_usize());
                [self.w.inverse(a), self.w.inverse(b)]
            }
        };
        self.w.complete_migration();
        if let Some(twin) = &mut self.twin {
            twin.complete_migration();
        }
        let w = &self.w;
        match m {
            Migration::Copy { src, dst } => {
                let landed = moved[0].is_some_and(|pa| w.map(pa) == dst);
                let ok = landed && w.inverse(src).is_none();
                assert!(ok, "copy_into_buffer: {m} left {moved:?}");
            }
            Migration::Swap { a, b } => {
                let ok = w.inverse(a) == moved[1] && w.inverse(b) == moved[0];
                assert!(ok, "moves_only_named: {m} kept {moved:?}");
            }
        }
        for (pa, &was) in (0..).map(Pa::new).zip(&self.map) {
            let ok = moved.contains(&Some(pa)) || w.map(pa) == was;
            assert!(ok, "moves_only_named: {m} also moved {pa}");
        }
        self.check();
    }

    /// Laws 1, 2, 5 and 7, which hold between any two ops.
    fn check(&mut self) {
        let pending = self.w.pending();
        self.check_bijection();
        let again = self.w.pending();
        assert!(again == pending, "pending_stable: {pending:?} to {again:?}");
        for (pa, da) in self.map.iter().enumerate() {
            let (held, wrote) = (self.data[da.as_usize()], self.tags[pa]);
            let ok = held == Some(wrote);
            assert!(ok, "data_follows_mapping: PA {pa} lost {wrote} at {da}");
        }
        if let Some(twin) = &self.twin {
            let same = format!("{twin:?}") == format!("{:?}", self.w);
            assert!(same, "clone_identical: diverged at op {}", self.op);
        }
    }

    fn check_bijection(&mut self) {
        let total = self.w.total_das();
        let mut mapped = vec![false; total as usize];
        for (pa, slot) in (0..).map(Pa::new).zip(&mut self.map) {
            let da = self.w.map(pa);
            let fresh = da.index() < total && !mapped[da.as_usize()];
            assert!(fresh, "bijection: {pa} maps to {da}, taken or out of range");
            mapped[da.as_usize()] = true;
            let back = self.w.inverse(da);
            assert!(back == Some(pa), "bijection: {pa} to {da} to {back:?}");
            *slot = da;
        }
        for da in (0..total).map(Da::new).filter(|da| !mapped[da.as_usize()]) {
            let back = self.w.inverse(da);
            assert!(back.is_none(), "bijection: unmapped {da} to {back:?}");
        }
    }

    fn completing_nothing_panics(&self) {
        let mut w = self.w.clone();
        let panicked = catch_unwind(AssertUnwindSafe(move || w.complete_migration()));
        assert!(panicked.is_err(), "pending_stable: completed nothing");
    }

    /// Law 8: round-robin writes, every migration completed at once.
    fn rotate(&mut self, bound: u64) {
        let mut last = vec![0; self.w.total_das() as usize];
        let end = 3 * bound;
        for t in 1..=end {
            self.w.record_write(Pa::new(t % self.w.len()));
            while let Some(m) = self.w.pending() {
                let targets = match m {
                    Migration::Copy { dst, .. } => [dst, dst],
                    Migration::Swap { a, b } => [a, b],
                };
                for da in targets {
                    let waited = t - last[da.as_usize()];
                    assert!(waited <= bound, "every_da_rotates: {da} waited {waited}");
                    last[da.as_usize()] = t;
                }
                self.w.complete_migration();
            }
        }
        let (da, t) = (0..).zip(&last).min_by_key(|&(_, t)| t).expect("a block");
        let waited = end - t;
        assert!(waited <= bound, "every_da_rotates: DA {da} waited {waited}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoWearLeveling, SecurityRefresh, StartGap};

    /// A real leveler with exactly the law named by `breaks` broken.
    #[derive(Debug, Clone)]
    struct Mutant<W> {
        inner: W,
        breaks: &'static str,
    }

    impl<W: WearLeveler + Clone + 'static> WearLeveler for Mutant<W> {
        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn total_das(&self) -> u64 {
            self.inner.total_das()
        }

        fn map(&self, pa: Pa) -> Da {
            self.inner.map(pa)
        }

        fn inverse(&self, da: Da) -> Option<Pa> {
            let forgets = self.breaks == "bijection" && da.index() == 0;
            self.inner.inverse(da).filter(|_| !forgets)
        }

        fn record_write(&mut self, pa: Pa) {
            // Half the pace: still a correct leveler, only too slow.
            if self.breaks != "every_da_rotates" || pa.index().is_multiple_of(2) {
                self.inner.record_write(pa);
            }
            // Migrates without saying so: the mapping moves, the data not.
            if self.breaks == "data_follows_mapping" && self.inner.pending().is_some() {
                self.inner.complete_migration();
            }
        }

        fn record_write_fast(&mut self, pa: Pa) -> bool {
            if self.breaks == "fast_recording" {
                self.inner.record_write(pa); // bumps its write counter
            }
            false
        }

        fn pending(&self) -> Option<Migration> {
            match self.inner.pending() {
                Some(Migration::Swap { a, b }) if self.breaks == "copy_into_buffer" => {
                    Some(Migration::Copy { src: a, dst: b })
                }
                m => m,
            }
        }

        fn complete_migration(&mut self) {
            if self.breaks != "pending_stable" || self.inner.pending().is_some() {
                self.inner.complete_migration();
            }
            if self.breaks == "moves_only_named" && self.inner.pending().is_some() {
                self.inner.complete_migration();
            }
        }

        fn label(&self) -> String {
            format!("mutant({})", self.breaks)
        }

        fn clone_box(&self) -> Box<dyn WearLeveler> {
            let mut copy = self.clone();
            while self.breaks == "clone_identical" && copy.inner.pending().is_some() {
                copy.inner.complete_migration();
            }
            Box::new(copy)
        }
    }

    fn expect_broken<W: WearLeveler + Clone + 'static>(
        breaks: &'static str,
        make: fn(u64) -> W,
        bound: fn(u64) -> Option<u64>,
    ) {
        let mutant = |n| Mutant {
            inner: make(n),
            breaks,
        };
        let err = catch_unwind(|| leveler_laws(mutant, bound)).expect_err(breaks);
        let msg = message(&*err);
        let named = msg.starts_with(&format!("{breaks}: "));
        assert!(named, "the {breaks} mutant failed with: {msg}");
    }

    #[test]
    fn every_law_rejects_its_mutant() {
        let sg = |n| StartGap::builder(n).gap_interval(PSI).build();
        let sr = |n| SecurityRefresh::builder(n).refresh_interval(PSI).build();
        let none = |_| None;
        expect_broken("bijection", NoWearLeveling::new, none);
        expect_broken("pending_stable", sg, none);
        expect_broken("copy_into_buffer", sr, none);
        expect_broken("moves_only_named", sr, none);
        expect_broken("data_follows_mapping", sr, none);
        expect_broken("fast_recording", sg, none);
        expect_broken("clone_identical", sg, none);
        expect_broken("every_da_rotates", sg, |n| Some(PSI * (n + 1)));
    }
}
