//! The [`PcmDevice`] contract, checked once for every ECC `EccKind`
//! builds (ECP-k, PAYG), unarmed and armed. A naive model runs beside the
//! device on one seeded op stream: per block its wear, cell failures,
//! death and tag, thresholds read straight from
//! [`LifetimeModel::threshold`], and the fault schedule as sets of
//! absolute indices. Nine laws, each panicking with its name:
//!
//! * `dead_set_matches_model`: the dead set, its counts and every read of
//!   a dead block are the model's;
//! * `dies_at_threshold`: every write outcome, wear and failure count is
//!   the model's and a live block's next threshold is `threshold(b,
//!   failures + 1)`: the i-th cell failure lands at exactly
//!   `threshold(b, i)`, a block dies at its correction cap plus one, dead
//!   stays dead and wear never falls;
//! * `tag_is_last_committed_write`: a failed or lost write leaves the old
//!   tag in place;
//! * `fast_equals_slow`: a serving `write_fast` leaves the state
//!   `write_tagged` would, a declining one touches nothing;
//! * `quiet_is_unarmed`: on an index no scheduled fault sits at, an armed
//!   device changes as an unarmed copy does; a transient read is absorbed
//!   iff the ECC has room for one more cell; an unarmed device has no
//!   fault state and ignores crash points;
//! * `stats_count_every_access`: reads, writes, fault counters, the
//!   silent-failure log, power and whether a fault is pending are the
//!   model's, and the fired mark (`take_fault_fired`) rises on exactly
//!   the writes and crash points at which a fault fires;
//! * `payg_conserves`: the pool drops by exactly the entries taken;
//! * `clone_identical`: a clone driven in lockstep stays identical;
//! * `restore_roundtrip`: a fresh device given `wear_snapshot()`, and the
//!   deaths wear cannot replay, equals the live one in wear, failures,
//!   thresholds, deaths and ECC; once a PAYG pool has refused an entry,
//!   replay order may move deaths (see `restore_wear_image`) and only wear
//!   is compared.

use crate::device::WriteOutcome::{self, AlreadyDead, NewFailure};
use crate::device::{AccessStats, PcmDevice, PcmDeviceBuilder, ReadOutcome};
use crate::ecc::{Ecp, ErrorCorrection, Payg};
use crate::fault::{CrashPoint, FaultCounters, FaultPlan};
use crate::lifetime::LifetimeModel;
use std::collections::BTreeSet;
use std::{any::Any, panic::catch_unwind, panic::AssertUnwindSafe};
use wlr_base::rng::Rng;
use wlr_base::{Da, Geometry};

/// Software-visible blocks, and the extra (buffer) blocks beyond them.
const BLOCKS: u64 = 64;
const EXTRA: u64 = 2;
const TOTAL: u64 = BLOCKS + EXTRA;
const OPS: u64 = 4_000;

/// An ECC as `EccKind` builds it for the device under test.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Spec {
    Ecp(u32),
    /// The paper's 0.77 pool entries per visible block, capped at 64.
    Payg,
}

/// What the law suite drives: the device, or a wrapper that breaks it.
pub(crate) trait Device: Sized {
    fn pcm(&self) -> &PcmDevice;
    fn pcm_mut(&mut self) -> &mut PcmDevice;
    fn fork(&self) -> Self;
    fn write_tagged(&mut self, da: Da, tag: u64) -> WriteOutcome {
        self.pcm_mut().write_tagged(da, tag)
    }
    fn write_fast(&mut self, da: Da, tag: u64) -> bool {
        self.pcm_mut().write_fast(da, tag)
    }
    fn read(&mut self, da: Da) -> ReadOutcome {
        self.pcm_mut().read(da)
    }
    fn inject_dead(&mut self, da: Da) {
        self.pcm_mut().inject_dead(da)
    }
    fn restore_wear_image(&mut self, wear: &[u32]) {
        self.pcm_mut().restore_wear_image(wear)
    }
}

impl Device for PcmDevice {
    fn pcm(&self) -> &PcmDevice {
        self
    }

    fn pcm_mut(&mut self) -> &mut PcmDevice {
        self
    }

    fn fork(&self) -> Self {
        self.clone()
    }
}

/// Runs every law on `make(device)` for `spec`, unarmed and then armed.
pub(crate) fn device_laws<D: Device>(spec: Spec, make: impl Fn(PcmDevice) -> D) {
    for armed in [false, true] {
        let checked = catch_unwind(AssertUnwindSafe(|| Run::new(spec, armed, &make).stream()));
        if let Err(e) = checked {
            let how = if armed { "armed" } else { "unarmed" };
            panic!("{} ({spec:?}, {how})", message(&*e));
        }
    }
}

fn message(panic: &(dyn Any + Send)) -> &str {
    (panic.downcast_ref::<String>().map(String::as_str))
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default()
}

fn build(spec: Spec, plan: Option<FaultPlan>) -> PcmDevice {
    let ecc: Box<dyn ErrorCorrection> = match spec {
        Spec::Ecp(k) => Box::new(Ecp::new(k)),
        Spec::Payg => Box::new(Payg::with_ratio(BLOCKS, 0.77)),
    };
    let geo = Geometry::builder().num_blocks(BLOCKS).build().unwrap();
    let builder = PcmDevice::builder(geo)
        .extra_blocks(EXTRA)
        .endurance_mean(100.0)
        .seed(0xDE71CE)
        .ecc(ecc)
        .track_contents(true);
    plan.into_iter()
        .fold(builder, PcmDeviceBuilder::fault_plan)
        .build()
}

fn state(dev: &PcmDevice) -> String {
    format!("{dev:?}")
}

/// `dev` with its fault plan taken away.
fn unarmed(dev: &PcmDevice) -> PcmDevice {
    let mut dev = dev.clone();
    dev.fault = None;
    dev
}

/// The fault schedule as absolute indices, and what it has done.
#[derive(Default)]
struct Faults {
    off: bool,
    /// A fault fired since the mark was last taken.
    fired: bool,
    /// Writes seen while powered, and all reads: the schedules' indices.
    writes: u64,
    reads: u64,
    power: BTreeSet<u64>,
    silent: BTreeSet<u64>,
    transient: BTreeSet<u64>,
    counters: FaultCounters,
    silent_log: Vec<Da>,
}

/// The naive device.
struct Model {
    lifetime: LifetimeModel,
    /// The most cell failures a block survives.
    cap: u32,
    /// PAYG's shared entries left; `None` for ECP.
    pool: Option<u64>,
    /// Whether PAYG refused a failure because its pool was dry.
    pool_dry: bool,
    wear: Vec<u32>,
    failures: Vec<u32>,
    dead: Vec<bool>,
    tags: Vec<u64>,
    /// Deaths that wear alone does not replay: injected and silent.
    unworn: Vec<Da>,
    stats: AccessStats,
    faults: Option<Faults>,
}

impl Model {
    fn new(spec: Spec, lifetime: LifetimeModel) -> Self {
        let (cap, pool) = match spec {
            Spec::Ecp(k) => (k, None),
            Spec::Payg => (64, Some((BLOCKS as f64 * 0.77) as u64)),
        };
        let n = TOTAL as usize;
        Model {
            lifetime,
            cap,
            pool,
            pool_dry: false,
            wear: vec![0; n],
            failures: vec![0; n],
            dead: vec![false; n],
            tags: vec![0; n],
            unworn: Vec::new(),
            stats: AccessStats::default(),
            faults: None,
        }
    }

    /// Whether the ECC corrects a block's `nth` cell failure; beyond the
    /// first, a PAYG correction takes a pool entry when `take`.
    fn corrects(&mut self, nth: u32, take: bool) -> bool {
        let pooled = nth > 1 && nth <= self.cap && self.pool.is_some();
        let ok = nth <= self.cap && (!pooled || self.pool > Some(0));
        if pooled && take {
            self.pool_dry |= !ok;
            self.pool = self.pool.map(|left| left - u64::from(ok));
        }
        ok
    }

    fn kill_unworn(&mut self, da: Da) {
        let was = std::mem::replace(&mut self.dead[da.as_usize()], true);
        self.unworn.extend((!was).then_some(da));
    }

    /// Whether the next write's (or read's) index is one no scheduled
    /// fault sits at, on an armed device.
    fn quiet(&self, write: bool) -> bool {
        (self.faults.as_ref()).is_some_and(|f| match write {
            true => !f.off && !f.power.contains(&f.writes) && !f.silent.contains(&f.writes),
            false => !f.transient.contains(&f.reads),
        })
    }

    fn write(&mut self, da: Da, tag: u64) -> WriteOutcome {
        let b = da.as_usize();
        if let Some(f) = &mut self.faults {
            let idx = f.writes;
            f.writes += u64::from(!f.off);
            if !f.off && f.power.remove(&idx) {
                f.silent.remove(&idx); // the write never reaches the array
                f.counters.power_losses += 1;
                f.off = true;
            }
            if f.off {
                f.counters.writes_lost += 1;
                f.fired = true;
                return WriteOutcome::Lost;
            }
            if f.silent.remove(&idx) {
                f.fired = true;
                f.counters.silent_failures += 1;
                f.silent_log.push(da);
                self.stats.writes += 1;
                self.kill_unworn(da);
                return WriteOutcome::Ok;
            }
        }
        self.stats.writes += 1;
        if self.dead[b] {
            return WriteOutcome::AlreadyDead;
        }
        self.wear[b] += 1;
        while u64::from(self.wear[b]) >= self.lifetime.threshold(da.index(), self.failures[b] + 1) {
            self.failures[b] += 1;
            if !self.corrects(self.failures[b], true) {
                self.dead[b] = true;
                return WriteOutcome::NewFailure;
            }
        }
        self.tags[b] = tag;
        WriteOutcome::Ok
    }

    fn read(&mut self, da: Da) -> ReadOutcome {
        self.stats.reads += 1;
        let transient = (self.faults.as_mut()).is_some_and(|f| {
            f.reads += 1;
            f.transient.remove(&(f.reads - 1))
        });
        if self.dead[da.as_usize()] {
            return ReadOutcome::Dead;
        }
        if !transient {
            return ReadOutcome::Ok;
        }
        let corrected = self.corrects(self.failures[da.as_usize()] + 1, false);
        let c = &mut self.faults.as_mut().expect("armed").counters;
        match corrected {
            true => (c.transients_corrected += 1, ReadOutcome::Ok).1,
            false => (c.transients_uncorrectable += 1, ReadOutcome::Transient).1,
        }
    }

    /// Schedules a power loss and silent failures at writes `power` and
    /// `silent` from now, and `burst.1` transient reads from read
    /// `burst.0` on; returns the plan that does the same.
    fn arm(&mut self, power: Option<u64>, silent: &[u64], burst: (u64, u64)) -> FaultPlan {
        let f = self.faults.get_or_insert_with(Faults::default);
        let mut plan = FaultPlan::new().transient_read_burst(burst.0, burst.1);
        let first = f.reads + burst.0;
        f.transient.extend(first..first + burst.1);
        if let Some(p) = power {
            plan = plan.power_loss_at_write(p);
            f.power.insert(f.writes + p);
        }
        for &s in silent {
            plan = plan.silent_failure_at_write(s);
            f.silent.insert(f.writes + s);
        }
        plan
    }
}

/// One device under test, the model, and the clone driven in lockstep.
struct Run<'a, D, F> {
    spec: Spec,
    make: &'a F,
    d: D,
    twin: Option<D>,
    m: Model,
    rng: Rng,
    op: u64,
    /// Fast writes served: the stream must exercise the fast path.
    served: u64,
}

impl<'a, D: Device, F: Fn(PcmDevice) -> D> Run<'a, D, F> {
    fn new(spec: Spec, armed: bool, make: &'a F) -> Self {
        let mut m = Model::new(spec, build(spec, None).lifetime_model().clone());
        // Armed, a silent failure shares write 10 with a power loss, and a
        // second one waits at write 12.
        let plan = armed.then(|| m.arm(Some(10), &[10, 12], (5, 2)));
        Run {
            spec,
            make,
            d: make(build(spec, plan)),
            twin: None,
            m,
            rng: Rng::stream(0x1A75, u64::from(armed)),
            op: 0,
            served: 0,
        }
    }

    fn stream(&mut self) {
        self.check(Da::new(0));
        for i in 0..OPS {
            self.op += 1;
            // Skewed to the low blocks, so some die early and some never
            // fail; one pick in five is uniform over the whole device.
            let skew = self.rng.gen_range(TOTAL) + 1;
            let uniform = self.rng.gen_range(5) == 0;
            let da = Da::new(self.rng.gen_range(if uniform { TOTAL } else { skew }));
            match self.rng.gen_range(1_000) {
                0..=409 => self.write(da, false),
                410..=709 => self.write(da, true),
                710..=909 => self.read(da),
                910..=914 => self.inject_dead(da),
                915..=929 => self.arm(),
                930..=934 => self.power_cut(),
                935..=989 => self.restore_power(),
                _ => self.restore_roundtrip(),
            }
            if i == OPS / 2 {
                self.twin = Some(self.d.fork());
            }
            self.check(da);
        }
        self.restore_roundtrip();
        let f = self.m.faults.as_ref().map(|f| f.counters);
        let transients = f.map(|c| c.transients_corrected + c.transients_uncorrectable);
        let faulted = f.is_none_or(|c| c.power_losses * c.silent_failures > 0);
        let worn_out = self.m.dead.iter().filter(|&&d| d).count() > self.m.unworn.len();
        let ran = worn_out && self.served > 0 && faulted && transients != Some(0);
        assert!(ran, "a path went untried: {f:?}");
    }

    /// `op` on the twin, then on the device; the device's result.
    fn both<R>(&mut self, op: impl Fn(&mut D) -> R) -> R {
        if let Some(twin) = &mut self.twin {
            op(twin);
        }
        op(&mut self.d)
    }

    fn same_as_bare(&self, bare: &PcmDevice) {
        let same = state(&unarmed(self.d.pcm())) == state(bare);
        assert!(same, "quiet_is_unarmed: op {} differs", self.op);
    }

    /// A tagged write, or with `fast` a fast write that falls back to one.
    fn write(&mut self, da: Da, fast: bool) {
        let tag = self.op;
        let bare = self.m.quiet(true).then(|| unarmed(self.d.pcm()));
        let before = self.d.pcm().clone();
        let mut slow = before.clone();
        let slow_out = slow.write_tagged(da, tag);
        let want = self.m.write(da, tag);
        let served = fast && self.both(|d| d.write_fast(da, tag));
        let got = if served {
            let same = slow_out == WriteOutcome::Ok && state(self.d.pcm()) == state(&slow);
            assert!(same, "fast_equals_slow: serving {da} differs");
            self.served += 1;
            WriteOutcome::Ok
        } else {
            let same = !fast || state(self.d.pcm()) == state(&before);
            assert!(same, "fast_equals_slow: declining {da} wrote");
            self.both(|d| d.write_tagged(da, tag))
        };
        let died = [got, want]
            .iter()
            .any(|o| matches!(o, NewFailure | AlreadyDead));
        let law = ["quiet_is_unarmed", "dies_at_threshold"][usize::from(died)];
        assert!(got == want, "{law}: {da} gave {got:?}, model {want:?}");
        self.take_fired("write");
        if let Some(mut bare) = bare {
            let bare_served = fast && bare.write_fast(da, tag);
            if !bare_served {
                bare.write_tagged(da, tag);
            }
            assert!(served == bare_served, "quiet_is_unarmed: fast {da}");
            self.same_as_bare(&bare);
        }
    }

    fn read(&mut self, da: Da) {
        let bare = self.m.quiet(false).then(|| unarmed(self.d.pcm()));
        let want = self.m.read(da);
        let got = self.both(|d| d.read(da));
        let dead = [got, want].contains(&ReadOutcome::Dead);
        let law = ["quiet_is_unarmed", "dead_set_matches_model"][usize::from(dead)];
        assert!(got == want, "{law}: {da} read {got:?}, model {want:?}");
        if let Some(mut bare) = bare {
            bare.read(da);
            self.same_as_bare(&bare);
        }
    }

    fn inject_dead(&mut self, da: Da) {
        self.m.kill_unworn(da);
        self.both(|d| d.inject_dead(da));
    }

    fn arm(&mut self) {
        if self.m.faults.is_none() {
            return;
        }
        let power = self.rng.gen_bool(0.5).then(|| self.rng.gen_range(60));
        // One plan in eight puts a silent failure on the very write its
        // power loss drops, one in eight puts it elsewhere.
        let other = [self.rng.gen_range(60)];
        let silent = [power.as_slice(), &other, &[]][self.rng.gen_range(8).min(2) as usize];
        let burst = (self.rng.gen_range(30), self.rng.gen_range(4));
        let plan = self.m.arm(power, silent, burst);
        self.both(|d| d.pcm_mut().arm_faults(plan.clone()));
    }

    /// A crash point cuts a powered armed device's power at once (one
    /// armed without power would wait for a later report); an unarmed
    /// device ignores it.
    fn power_cut(&mut self) {
        let at = CrashPoint::MidLink;
        let armed = self.m.faults.is_some();
        if let Some(f) = &mut self.m.faults {
            if f.off {
                return;
            }
            f.off = true;
            f.counters.power_losses += 1;
            let plan = FaultPlan::new().power_loss_at_point(at, 0);
            self.both(|d| d.pcm_mut().arm_faults(plan.clone()));
        }
        let cut = self.both(|d| d.pcm_mut().crash_point(at));
        let law = ["quiet_is_unarmed", "stats_count_every_access"][usize::from(armed)];
        assert!(cut == armed, "{law}: the crash point cut {cut}");
        if let Some(f) = &mut self.m.faults {
            f.fired = true;
        }
        self.take_fired("crash point");
    }

    /// Takes the device's fired mark (and the twin's) and holds it to the
    /// model's.
    fn take_fired(&mut self, what: &str) {
        let want = (self.m.faults.as_mut()).is_some_and(|f| std::mem::take(&mut f.fired));
        let got = self.both(|d| d.pcm_mut().take_fault_fired());
        let op = self.op;
        assert!(
            got == want,
            "stats_count_every_access: {what} fired {got} at op {op}"
        );
    }

    fn restore_power(&mut self) {
        self.both(|d| d.pcm_mut().restore_power());
        if let Some(f) = &mut self.m.faults {
            f.off = false;
            f.fired = false;
        }
    }

    fn restore_roundtrip(&mut self) {
        let mut back = (self.make)(build(self.spec, None));
        back.restore_wear_image(&self.d.pcm().wear_snapshot());
        for &da in &self.m.unworn {
            back.inject_dead(da);
        }
        let (live, back, op) = (self.d.pcm(), back.pcm(), self.op);
        let same = back.wear_snapshot() == live.wear_snapshot();
        assert!(same, "restore_roundtrip: wear differs at op {op}");
        if !self.m.pool_dry {
            let same = format!("{:?}", back.blocks) == format!("{:?}", live.blocks)
                && back.dead_iter().eq(live.dead_iter())
                && format!("{:?}", back.ecc) == format!("{:?}", live.ecc);
            assert!(same, "restore_roundtrip: state differs at op {op}");
        }
    }

    /// The laws that hold between any two ops, `da` the op's block.
    fn check(&self, da: Da) {
        let (dev, m, op) = (self.d.pcm(), &self.m, self.op);
        let dead: Vec<Da> = (0..TOTAL)
            .map(Da::new)
            .filter(|d| m.dead[d.as_usize()])
            .collect();
        let visible = dead.iter().filter(|d| d.index() < BLOCKS).count() as u64;
        let listed = dev.dead_iter().eq(dead.iter().copied())
            && dev.dead_set().len() == dead.len()
            && dev.dead_blocks() == dead.len() as u64
            && dev.visible_dead_blocks() == visible
            && dead.iter().all(|&d| dev.is_dead(d));
        assert!(listed, "dead_set_matches_model: at op {op}");

        let failures: Vec<u32> = dev.blocks.iter().map(|b| b.failures.into()).collect();
        let worn = dev.wear_snapshot() == m.wear && failures == m.failures;
        assert!(worn, "dies_at_threshold: wear or failures at op {op}");
        let b = da.as_usize();
        let next = match m.dead[b] || m.wear[b] == 0 {
            true => 0,
            false => m.lifetime.threshold(da.index(), m.failures[b] + 1),
        };
        let got = u64::from(dev.blocks[b].threshold);
        assert!(got == next, "dies_at_threshold: {da} fails next at {got}");

        let tags: Vec<u64> = (0..TOTAL).map(|i| dev.tag(Da::new(i))).collect();
        assert!(tags == m.tags, "tag_is_last_committed_write: at op {op}");

        let faults = m.faults.as_ref();
        let bare = dev.powered() && dev.fault_counters().is_none();
        let quiet = faults.is_some() || bare && dev.silent_failures().is_empty();
        assert!(quiet, "quiet_is_unarmed: unarmed fault state at op {op}");

        let counted = dev.stats() == m.stats
            && dev.fault_counters() == faults.map(|f| f.counters)
            && dev.silent_failures() == faults.map_or(&[][..], |f| &f.silent_log[..])
            && dev.powered() == faults.is_none_or(|f| !f.off)
            && dev.faults_pending()
                == faults.is_some_and(|f| f.off || !f.power.is_empty() || !f.silent.is_empty());
        assert!(counted, "stats_count_every_access: at op {op}");

        let pool = dev.ecc.pool_remaining();
        assert!(pool == m.pool, "payg_conserves: {pool:?}, not {:?}", m.pool);

        let twin = self.twin.as_ref().map(|t| state(t.pcm()));
        let same = twin.is_none_or(|t| t == state(dev));
        assert!(same, "clone_identical: diverged at op {op}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real device with exactly the law named by `breaks` broken.
    struct Mutant {
        inner: PcmDevice,
        breaks: &'static str,
    }

    impl Device for Mutant {
        fn pcm(&self) -> &PcmDevice {
            &self.inner
        }

        fn pcm_mut(&mut self) -> &mut PcmDevice {
            &mut self.inner
        }

        fn fork(&self) -> Self {
            let (mut inner, breaks) = (self.inner.clone(), self.breaks);
            if breaks == "clone_identical" {
                inner.read(Da::new(0)); // the copy is not the original
            }
            Mutant { inner, breaks }
        }

        fn write_tagged(&mut self, da: Da, tag: u64) -> WriteOutcome {
            let tag = tag ^ u64::from(self.breaks == "tag_is_last_committed_write");
            let out = self.inner.write_tagged(da, tag);
            match self.breaks {
                // Says nothing of the death.
                "dies_at_threshold" if out == NewFailure => WriteOutcome::Ok,
                // An armed write that commits also reads its block back.
                "quiet_is_unarmed" if out == WriteOutcome::Ok => {
                    if self.inner.fault_counters().is_some() && !self.inner.is_dead(da) {
                        self.inner.read(da);
                    }
                    out
                }
                _ => out,
            }
        }

        fn write_fast(&mut self, da: Da, tag: u64) -> bool {
            let served = self.inner.write_fast(da, tag);
            if !served && self.breaks == "fast_equals_slow" {
                self.inner.write_tagged(da, tag); // declines having written
            }
            served
        }

        fn read(&mut self, da: Da) -> ReadOutcome {
            let dead = self.inner.is_dead(da);
            if dead && self.breaks == "stats_count_every_access" {
                return ReadOutcome::Dead; // answered without an access
            }
            if !dead && self.breaks == "payg_conserves" {
                self.inner.ecc.correct(da, 2); // a read that takes an entry
            }
            self.inner.read(da)
        }

        fn inject_dead(&mut self, da: Da) {
            self.inner.inject_dead(da);
            if self.breaks == "dead_set_matches_model" {
                self.inner.inject_dead(Da::new((da.index() + 1) % TOTAL));
            }
        }

        fn restore_wear_image(&mut self, wear: &[u32]) {
            let halve = u32::from(self.breaks == "restore_roundtrip");
            let wear: Vec<u32> = wear.iter().map(|w| w >> halve).collect();
            self.inner.restore_wear_image(&wear);
        }
    }

    fn expect_broken(breaks: &'static str, spec: Spec) {
        let mutant = |inner| Mutant { inner, breaks };
        let err = catch_unwind(|| device_laws(spec, mutant)).expect_err(breaks);
        let msg = message(&*err);
        let named = msg.starts_with(&format!("{breaks}: "));
        assert!(named, "the {breaks} mutant failed with: {msg}");
    }

    #[test]
    fn every_law_rejects_its_mutant() {
        for law in [
            "dead_set_matches_model",
            "dies_at_threshold",
            "tag_is_last_committed_write",
            "fast_equals_slow",
            "quiet_is_unarmed",
            "stats_count_every_access",
            "clone_identical",
            "restore_roundtrip",
        ] {
            expect_broken(law, Spec::Ecp(6));
        }
        expect_broken("payg_conserves", Spec::Payg);
    }
}
