//! The PCM device: wear, failures, accesses.
//!
//! [`PcmDevice`] models the chip below the memory controller. It knows
//! nothing about physical addresses, wear-leveling, or failure hiding — it
//! exposes raw block reads/writes by device address (DA) and reports when a
//! write pushes a block past its (ECC-mediated) endurance.
//!
//! Two bookkeeping features exist purely for the experiments:
//!
//! * **Access accounting** ([`AccessStats`]): every read and write is
//!   counted, which is how the paper's "average access time measured in
//!   number of PCM accesses" (Table II) is produced.
//! * **Content tags**: optionally, every block stores a 64-bit tag standing
//!   in for its data. The integration tests use tags as an integrity
//!   oracle: after arbitrary migrations, failures and revivals, reading a
//!   PA must return the last tag written to that PA.

use crate::ecc::{Ecp, ErrorCorrection};
use crate::fault::{CrashPoint, FaultCounters, FaultInjector, FaultPlan, ReadFault, WriteFault};
use crate::lifetime::LifetimeModel;
use wlr_base::dense::DenseSet;
use wlr_base::{Da, Geometry};

/// Result of a block write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write succeeded on a healthy block.
    Ok,
    /// The write pushed the block past its correctable endurance; the block
    /// is now dead and the write's data was not stored.
    NewFailure,
    /// The block was already dead; the access is counted but stores nothing.
    AlreadyDead,
    /// Power is lost (fault injection): the write was dropped entirely —
    /// no access counted, no wear, nothing stored. Only possible when a
    /// [`crate::fault::FaultPlan`] is configured.
    Lost,
}

/// Result of a block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The block is healthy; data (tag) is valid.
    Ok,
    /// The block is dead; returned data is whatever the failure left behind.
    Dead,
    /// A transient (soft) error the block's ECC scheme could not absorb
    /// (fault injection). Unlike [`ReadOutcome::Dead`] the block is still
    /// alive and a retry may succeed.
    Transient,
}

/// Raw access counters (each unit is one PCM array access).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of block reads serviced.
    pub reads: u64,
    /// Number of block writes serviced (including failed ones — the array
    /// is still cycled).
    pub writes: u64,
}

/// Builder for [`PcmDevice`]; see [`PcmDevice::builder`].
#[derive(Debug)]
pub struct PcmDeviceBuilder {
    geometry: Geometry,
    extra_blocks: u64,
    endurance_mean: f64,
    endurance_cov: f64,
    seed: u64,
    ecc: Option<Box<dyn ErrorCorrection>>,
    track_contents: bool,
    fault_plan: Option<FaultPlan>,
}

impl PcmDeviceBuilder {
    /// Adds `extra` device blocks beyond the software-visible space.
    /// Wear-leveling schemes use these for buffer lines (e.g. Start-Gap's
    /// gap line).
    pub fn extra_blocks(mut self, extra: u64) -> Self {
        self.extra_blocks = extra;
        self
    }

    /// Mean cell endurance in writes (paper: 10⁸; scaled default: 10⁴).
    pub fn endurance_mean(mut self, mean: f64) -> Self {
        self.endurance_mean = mean;
        self
    }

    /// Cell-lifetime coefficient of variation (paper: 0.2).
    pub fn endurance_cov(mut self, cov: f64) -> Self {
        self.endurance_cov = cov;
        self
    }

    /// Experiment seed; all cell lifetimes derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Error-correction scheme (default: ECP6).
    pub fn ecc(mut self, ecc: Box<dyn ErrorCorrection>) -> Self {
        self.ecc = Some(ecc);
        self
    }

    /// Enables per-block 64-bit content tags (integrity-oracle mode).
    /// Costs 8 bytes per block; off by default.
    pub fn track_contents(mut self, on: bool) -> Self {
        self.track_contents = on;
        self
    }

    /// Arms a fault-injection plan (power loss, silent failures,
    /// transient read errors). Without one the device never fails
    /// un-organically and the fault paths cost a single branch per access.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Constructs the device.
    pub fn build(self) -> PcmDevice {
        let total = self.geometry.num_blocks() + self.extra_blocks;
        let total_usize = usize::try_from(total).expect("device too large for host");
        let lifetime = LifetimeModel::new(
            self.endurance_mean,
            self.endurance_cov,
            self.geometry.block_bits() as u32,
            self.seed,
        );
        PcmDevice {
            geometry: self.geometry,
            total_blocks: total,
            lifetime,
            ecc: self.ecc.unwrap_or_else(|| Box::new(Ecp::ecp6())),
            blocks: vec![BlockState::default(); total_usize],
            contents: if self.track_contents {
                Some(vec![0; total_usize])
            } else {
                None
            },
            dead: DenseSet::with_capacity(total),
            visible_dead: 0,
            stats: AccessStats::default(),
            fault: self.fault_plan.map(FaultInjector::new),
        }
    }
}

/// Per-block mutable state, packed into one slot so the write hot path
/// (wear bump + threshold compare) touches a single cache line instead of
/// parallel arrays. Whether a block is dead is not here but in
/// [`PcmDevice`]'s dead set; a dead block's threshold is 0, which the fast
/// write declines like any threshold not yet drawn.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockState {
    /// Writes absorbed so far.
    pub(crate) wear: u32,
    /// Next cell-failure threshold; 0 = not yet materialized, or dead.
    pub(crate) threshold: u32,
    /// Cell failures suffered so far.
    pub(crate) failures: u8,
}

/// The simulated PCM chip.
///
/// See the crate-level example for typical use. `Clone` is a deep copy of
/// the full device state — wear counters, failure thresholds, ECC
/// resources, content image, armed faults. The block table is a flat vec
/// of plain data, so it is a bulk memcpy: the device half of
/// `Simulation::snapshot`-style forking.
#[derive(Debug, Clone)]
pub struct PcmDevice {
    geometry: Geometry,
    total_blocks: u64,
    lifetime: LifetimeModel,
    // `pub(crate)`: the law suite (`laws.rs`) reads these three directly.
    pub(crate) ecc: Box<dyn ErrorCorrection>,
    pub(crate) blocks: Vec<BlockState>,
    contents: Option<Vec<u64>>,
    /// The permanently dead blocks: the one record of a death, one bit a
    /// block.
    dead: DenseSet,
    /// Dead blocks below `geometry.num_blocks()` — the software-visible
    /// share of `dead`, kept so that sampling need not scan.
    visible_dead: u64,
    stats: AccessStats,
    /// Present only when a fault plan is armed; `None` keeps the access
    /// hot paths fault-free beyond one discriminant check.
    pub(crate) fault: Option<FaultInjector>,
}

/// The panic of an access outside the device: out of line, so that the
/// accesses that check for it keep no stack frame for its message.
#[cold]
#[inline(never)]
fn out_of_range(da: Da, total_blocks: u64) -> ! {
    panic!("{da} out of range (device has {total_blocks} blocks)")
}

impl PcmDevice {
    /// Starts building a device over `geometry` (defaults: ECP6, endurance
    /// N(10⁴, CoV 0.2), seed 0, no extra blocks, no content tracking).
    pub fn builder(geometry: Geometry) -> PcmDeviceBuilder {
        PcmDeviceBuilder {
            geometry,
            extra_blocks: 0,
            endurance_mean: 1e4,
            endurance_cov: 0.2,
            seed: 0,
            ecc: None,
            track_contents: false,
            fault_plan: None,
        }
    }

    /// The software-visible geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Total device blocks, including extra (buffer) blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// The lifetime model in force.
    pub fn lifetime_model(&self) -> &LifetimeModel {
        &self.lifetime
    }

    /// Label of the configured ECC scheme.
    pub fn ecc_label(&self) -> String {
        self.ecc.label()
    }

    /// Marks live block `i` dead — the one place the dead set and counts
    /// move. The zeroed threshold keeps [`Self::write_fast`] off the block.
    #[inline]
    fn kill(&mut self, i: usize) {
        self.blocks[i].threshold = 0;
        self.dead.insert(i as u64);
        self.visible_dead += u64::from((i as u64) < self.geometry.num_blocks());
    }

    #[inline]
    fn check(&self, da: Da) {
        if da.index() >= self.total_blocks {
            out_of_range(da, self.total_blocks);
        }
    }

    /// Reads block `da`. Counts one PCM access.
    ///
    /// # Panics
    ///
    /// Panics if `da` is outside the device.
    #[inline]
    pub fn read(&mut self, da: Da) -> ReadOutcome {
        self.check(da);
        self.stats.reads += 1;
        if self.fault.is_some() {
            return self.faulted_read(da);
        }
        if self.dead.contains_checked(da.index()) {
            ReadOutcome::Dead
        } else {
            ReadOutcome::Ok
        }
    }

    /// Read path with a fault plan armed: consult the injector, then
    /// route transient errors through the ECC scheme's headroom check.
    #[cold]
    fn faulted_read(&mut self, da: Da) -> ReadOutcome {
        let fault = self.fault.as_mut().expect("caller checked");
        let raised = fault.on_read();
        if self.dead.contains(da.index()) {
            return ReadOutcome::Dead;
        }
        match raised {
            ReadFault::None => ReadOutcome::Ok,
            ReadFault::Transient => {
                // A soft error is one more bad cell to correct on this
                // read; the scheme absorbs it iff a real (permanent)
                // failure of the same rank would still be correctable.
                // No entry is consumed — the cell recovers.
                let nth = u32::from(self.blocks[da.as_usize()].failures) + 1;
                let corrected = self.ecc.would_correct(da, nth);
                let fault = self.fault.as_mut().expect("caller checked");
                fault.note_transient(corrected);
                if corrected {
                    ReadOutcome::Ok
                } else {
                    ReadOutcome::Transient
                }
            }
        }
    }

    /// Writes block `da`: counts one PCM access, wears the block, and
    /// reports a new uncorrectable failure if one occurs. In
    /// content-tracking mode `tag` becomes the block's data only if the
    /// write succeeded — a failing write loses its data, which is exactly
    /// the hazard WL-Reviver's delayed-acquisition logic must handle. A
    /// silent injected failure reports `Ok` but stores nothing: the block
    /// is dead.
    ///
    /// # Panics
    ///
    /// Panics if `da` is outside the device.
    #[inline]
    pub fn write_tagged(&mut self, da: Da, tag: u64) -> WriteOutcome {
        self.check(da);
        if self.fault.is_some() {
            if let Some(out) = self.faulted_write(da) {
                return out;
            }
        }
        self.stats.writes += 1;
        let i = da.as_usize();
        if self.dead.contains(da.index()) {
            return WriteOutcome::AlreadyDead;
        }
        self.blocks[i].wear = self.blocks[i].wear.saturating_add(1);
        if !self.cross_thresholds(i) {
            return WriteOutcome::NewFailure;
        }
        if let Some(c) = &mut self.contents {
            c[i] = tag;
        }
        WriteOutcome::Ok
    }

    /// Brings live block `i`'s cell failures up to its wear: draws its
    /// first threshold if it has none yet, then crosses every threshold
    /// the wear has reached, the ECC correcting each failure in turn.
    /// Kills the block at the first failure the ECC refuses; returns
    /// whether the block is still alive.
    #[inline]
    fn cross_thresholds(&mut self, i: usize) -> bool {
        let da = Da::new(i as u64);
        if self.blocks[i].threshold == 0 {
            self.blocks[i].threshold = clamp_u32(self.lifetime.threshold(da.index(), 1));
        }
        while self.blocks[i].wear >= self.blocks[i].threshold {
            // One more cell just failed.
            let nth = u32::from(self.blocks[i].failures) + 1;
            assert!(nth < 250, "implausible cell-failure count on {da}");
            self.blocks[i].failures = nth as u8;
            if !self.ecc.correct(da, nth) {
                self.kill(i);
                return false;
            }
            self.blocks[i].threshold = clamp_u32(self.lifetime.threshold(da.index(), nth + 1));
        }
        true
    }

    /// Steady-state fast write: services the write only when nothing rare
    /// can happen — the block alive with its wear threshold already drawn,
    /// this write provably not reaching it, and, under an armed fault plan,
    /// a *quiet* device-write index. Returns `true` iff the write was
    /// serviced; the effect is then bit-identical to [`Self::write_tagged`]
    /// returning [`WriteOutcome::Ok`]. On `false` no state changes and the
    /// caller must take the full path.
    ///
    /// An index is quiet when the injector is powered and neither its next
    /// scheduled power loss nor its next silent failure sits at it
    /// (`FaultInjector::on_quiet_write`). On such an index
    /// `FaultInjector::on_write` would return `WriteFault::None` having
    /// done exactly one thing — counted the write — so counting it here is
    /// the whole of its effect, and an armed plan whose next event is
    /// thousands of writes away (or already spent) costs the steady state
    /// three compares instead of the full write protocol. The count is
    /// taken only once the block checks have passed: a declined call
    /// leaves the injector's index space untouched too.
    ///
    /// Always inlined, quiet check included: grown by the armed branch,
    /// the function is otherwise left out of line by the inliner, and
    /// every *unarmed* write then pays a call (+2 ns, a tenth of the
    /// wear-out set-up). Inlined whole there is no call on either path and
    /// the unarmed sequence is the two block checks and one not-taken
    /// branch it always was.
    ///
    /// # Panics
    ///
    /// Panics if `da` is outside the device.
    #[inline(always)]
    pub fn write_fast(&mut self, da: Da, tag: u64) -> bool {
        // The block table spans the device, so its bounds are the check.
        let Some(b) = self.blocks.get_mut(da.as_usize()) else {
            out_of_range(da, self.total_blocks)
        };
        // `threshold == 0` — lazy init outstanding, or the block is dead —
        // declines here too, since any `wear + 1 >= 0`.
        if b.wear.saturating_add(1) >= b.threshold {
            return false;
        }
        if let Some(fault) = &mut self.fault {
            if !fault.on_quiet_write() {
                return false;
            }
        }
        self.stats.writes += 1;
        b.wear += 1;
        if let Some(c) = &mut self.contents {
            c[da.as_usize()] = tag;
        }
        true
    }

    /// Write path with a fault plan armed. `Some` short-circuits
    /// [`Self::write_tagged`]; `None` falls through to the normal path.
    #[cold]
    fn faulted_write(&mut self, da: Da) -> Option<WriteOutcome> {
        let fault = self.fault.as_mut().expect("caller checked");
        match fault.on_write(da) {
            WriteFault::None => None,
            // Power lost: the array never sees the write — no access
            // counted, no wear, nothing stored.
            WriteFault::Lost => Some(WriteOutcome::Lost),
            WriteFault::Silent => {
                // The block dies but the device reports success (the
                // paper's "failure is *sometimes* reported" caveat). The
                // access is serviced and counted; the data is gone, which
                // a later read/verify discovers via `is_dead`.
                self.stats.writes += 1;
                if !self.dead.contains(da.index()) {
                    self.kill(da.as_usize());
                }
                Some(WriteOutcome::Ok)
            }
        }
    }

    /// The content tag of block `da` (0 if never written or content
    /// tracking is off). Does not count an access; pair with [`Self::read`].
    pub fn tag(&self, da: Da) -> u64 {
        // The content table spans the device, so its bounds are the check.
        let Some(contents) = &self.contents else {
            self.check(da);
            return 0;
        };
        match contents.get(da.as_usize()) {
            Some(&tag) => tag,
            None => out_of_range(da, self.total_blocks),
        }
    }

    /// Whether block `da` is dead.
    #[inline]
    pub fn is_dead(&self, da: Da) -> bool {
        self.check(da);
        self.dead.contains_checked(da.index())
    }

    /// The dead blocks' indices, as a set.
    pub fn dead_set(&self) -> &DenseSet {
        &self.dead
    }

    /// Number of dead blocks.
    pub fn dead_blocks(&self) -> u64 {
        self.dead.len() as u64
    }

    /// Number of dead blocks in the software-visible space — the failure
    /// ratio's numerator when the controller has appended private device
    /// blocks (buffer lines, backup regions). Counted as blocks die.
    pub fn visible_dead_blocks(&self) -> u64 {
        self.visible_dead
    }

    /// The full wear vector, for leveling-quality analysis. Collected
    /// out of the packed per-block state, so the caller owns it.
    pub fn wear_snapshot(&self) -> Vec<u32> {
        self.wear().collect()
    }

    /// Every block's wear count, in block order, read in place.
    pub fn wear(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.blocks.iter().map(|b| b.wear)
    }

    /// Forces block `da` dead without wearing it or counting accesses.
    /// Used to set up fixed failure ratios (Table II).
    pub fn inject_dead(&mut self, da: Da) {
        self.check(da);
        if !self.dead.contains(da.index()) {
            self.kill(da.as_usize());
        }
    }

    /// Whether the device currently has power. Always `true` without a
    /// fault plan.
    #[inline]
    pub fn powered(&self) -> bool {
        self.fault.as_ref().is_none_or(FaultInjector::powered)
    }

    /// Whether an armed plan fired a fault — a power loss (at a write or a
    /// crash point), a write dropped while the power was off, a silent
    /// failure — since the last call, which clears the mark. Never on
    /// [`Self::write_fast`], which services quiet indices only. The
    /// simulator's armed write loop asks after every write, to end a slab
    /// on the write where a fault fires (`Controller::write_run_armed` in
    /// the `wl-reviver` crate). Always `false` without a fault plan.
    #[inline]
    pub fn take_fault_fired(&mut self) -> bool {
        self.fault.as_mut().is_some_and(FaultInjector::take_fired)
    }

    /// Whether an armed plan can still fault a write: the power is off, or
    /// a power loss, silent failure or crash point is still scheduled.
    /// `Controller::write_run_armed` (in the `wl-reviver` crate) asks once
    /// per slab, and runs a spent plan's slabs without reading the fired
    /// mark.
    pub fn faults_pending(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultInjector::pending)
    }

    /// Restores power after an injected loss (the reboot boundary), and
    /// clears the fired mark ([`Self::take_fault_fired`]); no-op without a
    /// fault plan.
    pub fn restore_power(&mut self) {
        if let Some(f) = &mut self.fault {
            f.restore_power();
        }
    }

    /// Reports a named controller crash point to the fault plan, which
    /// may cut power here. No-op without a plan. Returns whether *this*
    /// report cut the power (was powered before, unpowered after), so
    /// the controller can surface the cut as an event.
    #[inline]
    pub fn crash_point(&mut self, point: CrashPoint) -> bool {
        let Some(f) = &mut self.fault else {
            return false;
        };
        let before = f.powered();
        f.on_crash_point(point);
        before && !f.powered()
    }

    /// Arms an additional fault plan on a *live* device. Indices in
    /// `plan` are relative to the accesses serviced so far, and its
    /// crash-point occurrences to the occurrences seen; a device built
    /// without any plan gains an injector here, permanently switching its
    /// access paths onto the fault-checked variants. No-op for an empty
    /// plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            return;
        }
        match &mut self.fault {
            Some(f) => f.arm(plan),
            // A fresh injector's access counts are zero, which matches
            // the relative interpretation exactly.
            None => self.fault = Some(FaultInjector::new(plan)),
        }
    }

    /// Fault counters, when a fault plan is armed.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault.as_ref().map(FaultInjector::counters)
    }

    /// Device addresses killed by silent write failures so far (empty
    /// without a fault plan).
    pub fn silent_failures(&self) -> &[Da] {
        self.fault.as_ref().map_or(&[], FaultInjector::silent_log)
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Rebuilds wear state on a *fresh* device from a persisted
    /// [`Self::wear_snapshot`] image, replaying each block's cell-failure
    /// thresholds exactly as [`Self::write_tagged`] would have crossed them.
    ///
    /// Because cell lifetimes are a pure function of (seed, block, nth
    /// failure), a block that absorbed `W` writes before the snapshot
    /// crosses the same thresholds here: `failures`, `dead`, and the next
    /// threshold come out bit-identical to the pre-snapshot state. ECC
    /// state is replayed through the same [`ErrorCorrection::correct`]
    /// calls; for stateless schemes (ECP) this is exact, while a shared
    /// pool (PAYG) ends with the same number of entries consumed but not
    /// necessarily charged in the original temporal order — callers
    /// restoring PAYG devices should treat per-block pool attribution as
    /// approximate.
    ///
    /// Blocks killed *without* organic wear (injected or silent-failure
    /// deaths) are not reproducible from wear alone; re-kill them
    /// afterwards via [`Self::inject_dead`]. Content tags and access
    /// stats are not part of the image.
    ///
    /// # Panics
    ///
    /// Panics if the device is not fresh (any wear or accesses), or if
    /// `wear` does not cover exactly [`Self::total_blocks`].
    pub fn restore_wear_image(&mut self, wear: &[u32]) {
        assert_eq!(
            wear.len(),
            self.blocks.len(),
            "wear image covers a different device"
        );
        assert!(
            self.stats == AccessStats::default()
                && self.dead.is_empty()
                && self.blocks.iter().all(|b| b.wear == 0),
            "restore_wear_image requires a fresh device"
        );
        for (i, &w) in wear.iter().enumerate() {
            if w > 0 {
                self.blocks[i].wear = w;
                self.cross_thresholds(i);
            }
        }
    }

    /// Iterator over all dead block addresses, in ascending order.
    pub fn dead_iter(&self) -> impl Iterator<Item = Da> + '_ {
        self.dead.iter().map(Da::new)
    }
}

#[inline]
fn clamp_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device() -> PcmDevice {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        PcmDevice::builder(geo).build()
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        small_device().write_tagged(Da::new(64), 0);
    }

    #[test]
    #[should_panic(expected = "fresh device")]
    fn restore_rejects_worn_devices() {
        let mut dev = small_device();
        dev.write_tagged(Da::new(0), 0);
        let img = dev.wear_snapshot();
        dev.restore_wear_image(&img);
    }
}
