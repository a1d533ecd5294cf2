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

impl AccessStats {
    /// Total array accesses (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
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
struct BlockState {
    /// Writes absorbed so far.
    wear: u32,
    /// Next cell-failure threshold; 0 = not yet materialized, or dead.
    threshold: u32,
    /// Cell failures suffered so far.
    failures: u8,
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
    ecc: Box<dyn ErrorCorrection>,
    blocks: Vec<BlockState>,
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
    fault: Option<FaultInjector>,
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

    /// Remaining shared ECC pool entries, if the scheme has a pool.
    pub fn ecc_pool_remaining(&self) -> Option<u64> {
        self.ecc.pool_remaining()
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
        assert!(
            da.index() < self.total_blocks,
            "{da} out of range (device has {} blocks)",
            self.total_blocks
        );
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
        if self.dead.contains(da.index()) {
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

    /// Writes block `da`. Counts one PCM access, wears the block, and
    /// reports a new uncorrectable failure if one occurs.
    ///
    /// # Panics
    ///
    /// Panics if `da` is outside the device.
    #[inline]
    pub fn write(&mut self, da: Da) -> WriteOutcome {
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
                return WriteOutcome::NewFailure;
            }
            self.blocks[i].threshold = clamp_u32(self.lifetime.threshold(da.index(), nth + 1));
        }
        WriteOutcome::Ok
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
    /// ([`FaultInjector::on_quiet_write`]). On such an index
    /// [`FaultInjector::on_write`] would return [`WriteFault::None`] having
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
        self.check(da);
        let b = &mut self.blocks[da.as_usize()];
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
    /// [`Self::write`]; `None` falls through to the normal path.
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

    /// Writes block `da` and, in content-tracking mode, stores `tag` as its
    /// data (only if the write succeeded — a failing write loses its data,
    /// which is exactly the hazard WL-Reviver's delayed-acquisition logic
    /// must handle). A silent injected failure reports `Ok` but stores
    /// nothing: the block is dead.
    pub fn write_tagged(&mut self, da: Da, tag: u64) -> WriteOutcome {
        let outcome = self.write(da);
        if outcome == WriteOutcome::Ok && !self.dead.contains(da.index()) {
            if let Some(c) = &mut self.contents {
                c[da.as_usize()] = tag;
            }
        }
        outcome
    }

    /// The content tag of block `da` (0 if never written or content
    /// tracking is off). Does not count an access; pair with [`Self::read`].
    pub fn tag(&self, da: Da) -> u64 {
        self.check(da);
        self.contents.as_ref().map_or(0, |c| c[da.as_usize()])
    }

    /// Whether content tags are being tracked.
    pub fn tracks_contents(&self) -> bool {
        self.contents.is_some()
    }

    /// Whether block `da` is dead.
    #[inline]
    pub fn is_dead(&self, da: Da) -> bool {
        self.check(da);
        self.dead.contains(da.index())
    }

    /// The dead blocks' indices, as a set.
    pub fn dead_set(&self) -> &DenseSet {
        &self.dead
    }

    /// Number of dead blocks.
    pub fn dead_blocks(&self) -> u64 {
        self.dead.len() as u64
    }

    /// Number of dead blocks with address below `bound` — used to report
    /// failure ratios over the software-visible space when the controller
    /// has appended private device blocks (buffer lines, backup regions).
    ///
    /// Counted as blocks die for the two bounds every run asks about (the
    /// visible space and the whole device); any other bound walks the dead
    /// set up to it.
    pub fn dead_blocks_under(&self, bound: u64) -> u64 {
        if bound == self.geometry.num_blocks() {
            return self.visible_dead;
        }
        if bound >= self.total_blocks {
            return self.dead_blocks();
        }
        self.dead.iter().take_while(|&i| i < bound).count() as u64
    }

    /// Fraction of all device blocks that are dead.
    pub fn dead_fraction(&self) -> f64 {
        self.dead_blocks() as f64 / self.total_blocks as f64
    }

    /// Wear (write count) of block `da`.
    pub fn wear(&self, da: Da) -> u64 {
        self.check(da);
        u64::from(self.blocks[da.as_usize()].wear)
    }

    /// The full wear vector, for leveling-quality analysis. Collected
    /// out of the packed per-block state, so the caller owns it.
    pub fn wear_snapshot(&self) -> Vec<u32> {
        self.blocks.iter().map(|b| b.wear).collect()
    }

    /// Cell failures suffered so far by block `da`.
    pub fn cell_failures(&self, da: Da) -> u32 {
        self.check(da);
        u32::from(self.blocks[da.as_usize()].failures)
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

    /// Whether an injected power loss is in effect (writes are being
    /// dropped).
    #[inline]
    pub fn power_lost(&self) -> bool {
        !self.powered()
    }

    /// Restores power after an injected loss (the reboot boundary);
    /// no-op without a fault plan or with power intact.
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
    /// `plan` are relative to the accesses serviced so far (see
    /// [`FaultInjector::arm`]); a device built without any plan gains an
    /// injector here, permanently switching its access paths onto the
    /// fault-checked variants. No-op for an empty plan.
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

    /// Resets access counters (not wear or failures) — used to scope
    /// measurement windows.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Rebuilds wear state on a *fresh* device from a persisted
    /// [`Self::wear_snapshot`] image, replaying each block's cell-failure
    /// thresholds exactly as [`Self::write`] would have crossed them.
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
            self.stats.total() == 0
                && self.dead.is_empty()
                && self.blocks.iter().all(|b| b.wear == 0),
            "restore_wear_image requires a fresh device"
        );
        for (i, &w) in wear.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let da = Da::new(i as u64);
            let b = &mut self.blocks[i];
            b.wear = w;
            // Mirror write()'s lazy-init + crossing loop against the
            // final wear value.
            b.threshold = clamp_u32(self.lifetime.threshold(da.index(), 1));
            while self.blocks[i].wear >= self.blocks[i].threshold {
                let nth = u32::from(self.blocks[i].failures) + 1;
                assert!(nth < 250, "implausible cell-failure count on {da}");
                self.blocks[i].failures = nth as u8;
                if !self.ecc.correct(da, nth) {
                    self.kill(i);
                    break;
                }
                self.blocks[i].threshold = clamp_u32(self.lifetime.threshold(da.index(), nth + 1));
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
    use crate::ecc::{NoCorrection, Payg};

    fn small_device(ecc: Box<dyn ErrorCorrection>) -> PcmDevice {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        PcmDevice::builder(geo)
            .endurance_mean(200.0)
            .endurance_cov(0.2)
            .seed(1)
            .ecc(ecc)
            .build()
    }

    fn hammer_to_death(dev: &mut PcmDevice, da: Da) -> u64 {
        let mut writes = 0;
        loop {
            writes += 1;
            match dev.write(da) {
                WriteOutcome::NewFailure => return writes,
                WriteOutcome::AlreadyDead => panic!("block died without NewFailure"),
                WriteOutcome::Ok => {}
                WriteOutcome::Lost => panic!("no fault plan armed"),
            }
            assert!(writes < 10_000_000, "block never died");
        }
    }

    #[test]
    fn fresh_device_is_healthy() {
        let dev = small_device(Box::new(Ecp::ecp6()));
        assert_eq!(dev.dead_blocks(), 0);
        assert_eq!(dev.dead_fraction(), 0.0);
        assert_eq!(dev.stats(), AccessStats::default());
        assert_eq!(dev.ecc_label(), "ECP6");
    }

    #[test]
    fn death_matches_lifetime_model() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        let da = Da::new(7);
        let expect = dev.lifetime_model().death_threshold(da.index(), 6);
        let writes = hammer_to_death(&mut dev, da);
        assert_eq!(writes, expect);
        assert!(dev.is_dead(da));
        assert_eq!(dev.dead_blocks(), 1);
        assert_eq!(dev.cell_failures(da), 7);
    }

    #[test]
    fn no_correction_dies_at_first_cell() {
        let mut dev = small_device(Box::new(NoCorrection));
        let da = Da::new(3);
        let expect = dev.lifetime_model().threshold(da.index(), 1);
        assert_eq!(hammer_to_death(&mut dev, da), expect);
    }

    #[test]
    fn ecp6_outlives_ecp1_on_same_block() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        let mk = |ecc: Box<dyn ErrorCorrection>| {
            PcmDevice::builder(geo)
                .endurance_mean(200.0)
                .seed(7)
                .ecc(ecc)
                .build()
        };
        let da = Da::new(11);
        let mut d1 = mk(Box::new(Ecp::ecp1()));
        let mut d6 = mk(Box::new(Ecp::ecp6()));
        let w1 = hammer_to_death(&mut d1, da);
        let w6 = hammer_to_death(&mut d6, da);
        assert!(w6 > w1, "ECP6 ({w6}) must outlast ECP1 ({w1})");
    }

    #[test]
    fn writes_after_death_are_counted_but_inert() {
        let mut dev = small_device(Box::new(NoCorrection));
        let da = Da::new(0);
        hammer_to_death(&mut dev, da);
        let wear_at_death = dev.wear(da);
        assert_eq!(dev.write(da), WriteOutcome::AlreadyDead);
        assert_eq!(dev.wear(da), wear_at_death, "dead blocks do not wear");
        assert_eq!(dev.read(da), ReadOutcome::Dead);
    }

    #[test]
    fn access_stats_count_reads_and_writes() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        dev.read(Da::new(0));
        dev.read(Da::new(1));
        dev.write(Da::new(2));
        let s = dev.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total(), 3);
        dev.reset_stats();
        assert_eq!(dev.stats().total(), 0);
    }

    #[test]
    fn content_tags_follow_successful_writes() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        let mut dev = PcmDevice::builder(geo)
            .endurance_mean(1e6)
            .seed(3)
            .track_contents(true)
            .build();
        let da = Da::new(5);
        assert_eq!(dev.tag(da), 0);
        assert_eq!(dev.write_tagged(da, 0xDEAD), WriteOutcome::Ok);
        assert_eq!(dev.tag(da), 0xDEAD);
    }

    #[test]
    fn failed_write_loses_its_data() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        let mut dev = PcmDevice::builder(geo)
            .endurance_mean(100.0)
            .seed(3)
            .ecc(Box::new(NoCorrection))
            .track_contents(true)
            .build();
        let da = Da::new(2);
        let mut last_good = 0;
        let mut i = 0u64;
        loop {
            i += 1;
            match dev.write_tagged(da, i) {
                WriteOutcome::Ok => last_good = i,
                WriteOutcome::NewFailure => break,
                WriteOutcome::AlreadyDead | WriteOutcome::Lost => unreachable!(),
            }
        }
        assert_eq!(
            dev.tag(da),
            last_good,
            "the failing write must not appear stored"
        );
    }

    #[test]
    fn inject_dead_is_idempotent_and_stat_free() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        dev.inject_dead(Da::new(9));
        dev.inject_dead(Da::new(9));
        assert_eq!(dev.dead_blocks(), 1);
        assert!(dev.is_dead(Da::new(9)));
        assert_eq!(dev.stats().total(), 0);
    }

    #[test]
    fn dead_iter_reports_exactly_the_dead() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        dev.inject_dead(Da::new(1));
        dev.inject_dead(Da::new(40));
        let dead: Vec<Da> = dev.dead_iter().collect();
        assert_eq!(dead, vec![Da::new(1), Da::new(40)]);
    }

    #[test]
    fn dead_blocks_under_counts_what_a_scan_would() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        let mut dev = PcmDevice::builder(geo)
            .extra_blocks(2)
            .endurance_mean(50.0)
            .ecc(Box::new(NoCorrection))
            .build();
        dev.inject_dead(Da::new(3));
        dev.inject_dead(Da::new(64)); // a buffer block, outside the visible space
        hammer_to_death(&mut dev, Da::new(40));
        hammer_to_death(&mut dev, Da::new(65));
        for bound in [0, 4, 40, 41, 64, 65, 66, 1_000] {
            let scanned = dev.dead_iter().filter(|da| da.index() < bound).count() as u64;
            assert_eq!(dev.dead_blocks_under(bound), scanned, "bound {bound}");
        }
        assert_eq!(dev.clone().dead_blocks_under(64), 2);
    }

    #[test]
    fn the_dead_set_agrees_with_a_per_block_model() {
        let geo = Geometry::builder().num_blocks(128).build().unwrap();
        let mk = || {
            PcmDevice::builder(geo)
                .extra_blocks(3)
                .endurance_mean(100.0)
                .seed(4)
                .ecc(Box::new(Ecp::new(1)))
                .build()
        };
        let agree = |dev: &PcmDevice, model: &[bool], when: &str| {
            let dead: Vec<u64> = (0..model.len() as u64)
                .filter(|&i| model[i as usize])
                .collect();
            let iterated: Vec<u64> = dev.dead_iter().map(|da| da.index()).collect();
            assert_eq!(iterated, dead, "dead_iter {when}");
            assert_eq!(dev.dead_blocks(), dead.len() as u64, "{when}");
            for (i, &d) in model.iter().enumerate() {
                assert_eq!(dev.is_dead(Da::new(i as u64)), d, "block {i} {when}");
            }
            for bound in 0..=model.len() as u64 + 1 {
                let below = dead.iter().filter(|&&i| i < bound).count() as u64;
                assert_eq!(dev.dead_blocks_under(bound), below, "bound {bound} {when}");
            }
        };
        let mut rng = wlr_base::rng::Rng::stream(0xDEAD, 0);
        let mut dev = mk();
        let total = dev.total_blocks();
        let mut model = vec![false; total as usize];
        let mut injected = Vec::new();
        for step in 0..6_000 {
            let da = Da::new(rng.gen_range(total));
            let i = da.as_usize();
            if rng.gen_range(50) == 0 {
                dev.inject_dead(da);
                if !model[i] {
                    injected.push(da);
                }
                model[i] = true;
            } else if dev.write_fast(da, 0) {
                assert!(!model[i], "the fast write served dead block {i}");
            } else {
                match dev.write(da) {
                    WriteOutcome::NewFailure => {
                        assert!(!model[i], "block {i} died twice");
                        model[i] = true;
                    }
                    WriteOutcome::AlreadyDead => assert!(model[i], "block {i} is not dead"),
                    WriteOutcome::Ok => assert!(!model[i], "dead block {i} took a write"),
                    WriteOutcome::Lost => panic!("no fault plan armed"),
                }
            }
            if step % 500 == 0 {
                agree(&dev, &model, &format!("at step {step}"));
            }
        }
        let organic = model.iter().filter(|&&d| d).count() - injected.len();
        assert!(organic > 10 && organic < 100, "{organic} organic deaths");
        agree(&dev, &model, "after the run");
        // Wear alone re-derives the organic deaths; injected ones are
        // re-killed by hand, as `restore_wear_image` asks.
        let mut restored = mk();
        restored.restore_wear_image(&dev.wear_snapshot());
        for &da in &injected {
            restored.inject_dead(da);
        }
        agree(&restored, &model, "after a restore");
    }

    #[test]
    fn extra_blocks_are_addressable() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        let mut dev = PcmDevice::builder(geo).extra_blocks(1).build();
        assert_eq!(dev.total_blocks(), 65);
        assert_eq!(dev.write(Da::new(64)), WriteOutcome::Ok);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        dev.write(Da::new(64));
    }

    #[test]
    fn payg_extends_lifetime_until_pool_dries() {
        let geo = Geometry::builder().num_blocks(64).build().unwrap();
        // Large pool: behaves like ECP6 for a single hammered block.
        let mut rich = PcmDevice::builder(geo)
            .endurance_mean(200.0)
            .seed(9)
            .ecc(Box::new(Payg::new(1_000, 6)))
            .build();
        // Empty pool: behaves like ECP1.
        let mut poor = PcmDevice::builder(geo)
            .endurance_mean(200.0)
            .seed(9)
            .ecc(Box::new(Payg::new(0, 6)))
            .build();
        let da = Da::new(13);
        let w_rich = hammer_to_death(&mut rich, da);
        let w_poor = hammer_to_death(&mut poor, da);
        assert!(
            w_rich > w_poor,
            "pool must extend life: {w_rich} vs {w_poor}"
        );
        // Failures 2..=6 draw from the pool (the first is local ECP1).
        assert_eq!(rich.ecc_pool_remaining(), Some(1_000 - 5));
    }

    mod properties {
        use super::*;
        use wlr_base::rng::Rng;

        /// Device behaviour is a pure function of (seed, op sequence).
        #[test]
        fn deterministic_under_identical_traffic() {
            let mut rng = Rng::stream(0xDE7E, 0);
            for _ in 0..16 {
                let seed = rng.next_u64();
                let geo = Geometry::builder().num_blocks(64).build().unwrap();
                let mk = || {
                    PcmDevice::builder(geo)
                        .endurance_mean(150.0)
                        .seed(seed)
                        .ecc(Box::new(Ecp::ecp1()))
                        .build()
                };
                let mut a = mk();
                let mut b = mk();
                for _ in 0..rng.gen_range(300) {
                    let da = Da::new(rng.gen_range(64));
                    if rng.gen_bool(0.5) {
                        assert_eq!(a.write(da), b.write(da));
                    } else {
                        assert_eq!(a.read(da), b.read(da));
                    }
                }
                assert_eq!(a.dead_blocks(), b.dead_blocks());
                assert_eq!(a.stats(), b.stats());
            }
        }

        /// Dead blocks stay dead; wear never decreases; dead count
        /// equals the dead iterator's length.
        #[test]
        fn monotone_decay() {
            let mut rng = Rng::stream(0xDE7E, 1);
            for _ in 0..16 {
                let seed = rng.next_u64();
                let geo = Geometry::builder().num_blocks(64).build().unwrap();
                let mut dev = PcmDevice::builder(geo)
                    .endurance_mean(100.0)
                    .seed(seed)
                    .ecc(Box::new(Ecp::new(2)))
                    .build();
                let mut prev_dead = 0u64;
                let mut prev_wear = vec![0u64; 64];
                for _ in 0..rng.gen_range(500) {
                    let da = Da::new(rng.gen_range(32));
                    let was_dead = dev.is_dead(da);
                    let out = dev.write(da);
                    if was_dead {
                        assert_eq!(out, WriteOutcome::AlreadyDead);
                    }
                    assert!(dev.dead_blocks() >= prev_dead);
                    prev_dead = dev.dead_blocks();
                    for i in 0..64u64 {
                        let w = dev.wear(Da::new(i));
                        assert!(w >= prev_wear[i as usize]);
                        prev_wear[i as usize] = w;
                    }
                }
                assert_eq!(dev.dead_iter().count() as u64, dev.dead_blocks());
            }
        }
    }

    mod faults {
        use super::*;
        use crate::fault::{CrashPoint, FaultPlan};

        fn faulted(plan: FaultPlan) -> PcmDevice {
            let geo = Geometry::builder().num_blocks(64).build().unwrap();
            PcmDevice::builder(geo)
                .endurance_mean(1e6)
                .seed(2)
                .track_contents(true)
                .fault_plan(plan)
                .build()
        }

        #[test]
        fn power_loss_freezes_the_device_until_restored() {
            let mut dev = faulted(FaultPlan::new().power_loss_at_write(1));
            assert_eq!(dev.write_tagged(Da::new(0), 10), WriteOutcome::Ok);
            let stats_before = dev.stats();
            let wear_before = dev.wear(Da::new(1));
            assert_eq!(dev.write_tagged(Da::new(1), 20), WriteOutcome::Lost);
            assert!(dev.power_lost());
            assert_eq!(dev.write_tagged(Da::new(2), 30), WriteOutcome::Lost);
            // Lost writes leave no trace: stats, wear, and contents frozen.
            assert_eq!(dev.stats(), stats_before);
            assert_eq!(dev.wear(Da::new(1)), wear_before);
            assert_eq!(dev.tag(Da::new(1)), 0);
            dev.restore_power();
            assert!(dev.powered());
            assert_eq!(dev.write_tagged(Da::new(1), 40), WriteOutcome::Ok);
            assert_eq!(dev.tag(Da::new(1)), 40);
        }

        #[test]
        fn silent_failure_reports_ok_but_kills_and_drops_data() {
            let mut dev = faulted(FaultPlan::new().silent_failure_at_write(1));
            assert_eq!(dev.write_tagged(Da::new(5), 1), WriteOutcome::Ok);
            assert_eq!(dev.tag(Da::new(5)), 1);
            // The lying write: reports Ok, stores nothing, block is dead.
            assert_eq!(dev.write_tagged(Da::new(5), 2), WriteOutcome::Ok);
            assert_eq!(dev.tag(Da::new(5)), 1, "silent failure must drop data");
            assert!(dev.is_dead(Da::new(5)));
            assert_eq!(dev.silent_failures(), &[Da::new(5)]);
            assert_eq!(dev.read(Da::new(5)), ReadOutcome::Dead);
            assert_eq!(dev.fault_counters().unwrap().silent_failures, 1);
        }

        #[test]
        fn crash_point_cuts_power_between_writes() {
            let mut dev = faulted(FaultPlan::new().power_loss_at_point(CrashPoint::MidSwitch, 0));
            assert_eq!(dev.write(Da::new(0)), WriteOutcome::Ok);
            dev.crash_point(CrashPoint::MidSwitch);
            assert!(dev.power_lost());
            assert_eq!(dev.write(Da::new(1)), WriteOutcome::Lost);
        }

        #[test]
        fn transient_read_corrected_while_ecc_has_headroom() {
            // ECP6 device, fresh block: a soft error is absorbed.
            let mut dev = faulted(FaultPlan::new().transient_read_at(0).transient_read_at(1));
            assert_eq!(dev.read(Da::new(3)), ReadOutcome::Ok);
            let c = dev.fault_counters().unwrap();
            assert_eq!(c.transients_corrected, 1);
            // Second transient lands on a block whose ECC is saturated.
            let geo = Geometry::builder().num_blocks(64).build().unwrap();
            let mut sat = PcmDevice::builder(geo)
                .endurance_mean(1e6)
                .seed(2)
                .ecc(Box::new(Ecp::new(0)))
                .fault_plan(FaultPlan::new().transient_read_at(0))
                .build();
            assert_eq!(sat.read(Da::new(3)), ReadOutcome::Transient);
            assert!(!sat.is_dead(Da::new(3)), "transient must not kill");
            assert_eq!(sat.fault_counters().unwrap().transients_uncorrectable, 1);
        }

        #[test]
        fn write_fast_serves_quiet_indices_and_declines_scheduled_ones() {
            let plan = FaultPlan::new()
                .silent_failure_at_write(2)
                .power_loss_at_write(4);
            let mut dev = faulted(plan);
            let da = Da::new(7);
            // The first write draws the block's threshold; `write_fast`
            // declines until then, and declining counts nothing.
            assert!(!dev.write_fast(da, 1));
            assert_eq!(dev.write_tagged(da, 1), WriteOutcome::Ok); // index 0
            assert!(dev.write_fast(da, 2)); // index 1: quiet, counted
            assert_eq!((dev.tag(da), dev.wear(da), dev.stats().writes), (2, 2, 2));
            // Index 2 holds the silent failure: declined, nothing touched,
            // and the full path fires it on the same index.
            assert!(!dev.write_fast(da, 3));
            assert_eq!((dev.tag(da), dev.wear(da), dev.stats().writes), (2, 2, 2));
            assert_eq!(dev.write_tagged(Da::new(9), 3), WriteOutcome::Ok);
            assert_eq!(dev.silent_failures(), &[Da::new(9)]);
            assert!(dev.write_fast(da, 4)); // index 3: quiet again
            assert!(!dev.write_fast(da, 5)); // index 4: the power loss
            assert_eq!(dev.write_tagged(da, 5), WriteOutcome::Lost);
            assert!(!dev.write_fast(da, 6), "no fast writes while unpowered");
            assert_eq!(dev.fault_counters().unwrap().writes_lost, 1);
            dev.restore_power();
            // Both events spent: the armed device is back on the fast path.
            assert!(dev.write_fast(da, 7));
            assert_eq!((dev.tag(da), dev.wear(da)), (7, 4));
        }

        #[test]
        fn unarmed_device_reports_no_fault_state() {
            let mut dev = small_device(Box::new(Ecp::ecp6()));
            assert!(dev.powered());
            assert!(!dev.power_lost());
            assert_eq!(dev.fault_counters(), None);
            assert!(dev.silent_failures().is_empty());
            dev.crash_point(CrashPoint::MidSwitch); // no-op
            dev.restore_power(); // no-op
            assert_eq!(dev.write(Da::new(0)), WriteOutcome::Ok);
        }
    }

    #[test]
    fn restore_wear_image_replays_thresholds_exactly() {
        let mut rng = wlr_base::rng::Rng::stream(0xE57, 0);
        for _ in 0..8 {
            let seed = rng.next_u64();
            let geo = Geometry::builder().num_blocks(64).build().unwrap();
            let mk = || {
                PcmDevice::builder(geo)
                    .endurance_mean(120.0)
                    .seed(seed)
                    .ecc(Box::new(Ecp::new(2)))
                    .build()
            };
            let mut live = mk();
            for _ in 0..rng.gen_range(4_000) {
                live.write(Da::new(rng.gen_range(16)));
            }
            let mut restored = mk();
            restored.restore_wear_image(&live.wear_snapshot());
            assert_eq!(restored.wear_snapshot(), live.wear_snapshot());
            assert_eq!(restored.dead_blocks(), live.dead_blocks());
            for i in 0..64 {
                let da = Da::new(i);
                assert_eq!(restored.cell_failures(da), live.cell_failures(da));
                assert_eq!(restored.is_dead(da), live.is_dead(da));
            }
            // The next writes behave identically: thresholds came back
            // bit-identical, not just the visible counters.
            for _ in 0..500 {
                let da = Da::new(rng.gen_range(16));
                assert_eq!(live.write(da), restored.write(da));
            }
        }
    }

    #[test]
    #[should_panic(expected = "fresh device")]
    fn restore_rejects_worn_devices() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        dev.write(Da::new(0));
        let img = dev.wear_snapshot();
        dev.restore_wear_image(&img);
    }

    #[test]
    fn wear_snapshot_tracks_writes() {
        let mut dev = small_device(Box::new(Ecp::ecp6()));
        for _ in 0..5 {
            dev.write(Da::new(4));
        }
        assert_eq!(dev.wear(Da::new(4)), 5);
        assert_eq!(dev.wear_snapshot()[4], 5);
        assert_eq!(dev.wear(Da::new(5)), 0);
    }
}
