//! Seeded fault injection for the PCM device.
//!
//! A [`FaultPlan`] schedules failures the happy-path model cannot produce
//! organically, and a `FaultInjector` (owned by
//! [`crate::device::PcmDevice`] when a plan is configured) fires them
//! deterministically as the device services traffic:
//!
//! * **Power loss** at an arbitrary device-write index: the write in
//!   flight — and every later write until power is restored — is dropped
//!   ([`crate::device::WriteOutcome::Lost`]), freezing the persistent
//!   image at exactly the crash point. Controllers above re-enter via
//!   their recovery path after `restore_power`.
//! * **Power loss at a named crash point**: controllers report named
//!   multi-write operations ([`CrashPoint`]) so a plan can target e.g.
//!   "the 3rd virtual-shadow switch, between its two pointer writes" —
//!   the torn-metadata windows a write-index sweep only hits by luck.
//! * **Silent write failure**: the block dies but the device reports
//!   `Ok` — the paper's "failure is *sometimes* reported" caveat. The
//!   failure surfaces on a later touch, like an undiscovered failure.
//! * **Transient read error**: a soft error on a read. If the block's ECC
//!   scheme still has headroom the error is corrected in place (counted,
//!   no state change); otherwise the read reports
//!   [`crate::device::ReadOutcome::Transient`] — retryable, unlike `Dead`.
//!
//! All schedules are fixed up front (sorted, deduplicated) so a run with
//! a plan is exactly as deterministic as one without; the seeded helpers
//! derive index sets from a [`wlr_base::rng::Rng`] stream.

use wlr_base::rng::Rng;
use wlr_base::Da;

/// A named multi-write controller operation whose interior is a
/// crash-consistency hazard. Controllers report these to the device via
/// [`crate::device::PcmDevice::crash_point`]; occurrences are counted
/// per kind so a plan can target the n-th one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Between the two pointer writes of a virtual-shadow switch
    /// (Figures 2(d)/3(b)) — the torn-switch window.
    MidSwitch,
    /// After a migration's mapping advanced but before its buffered data
    /// landed on the target block.
    MidMigration,
    /// After the retirement bitmap was updated but before the page's
    /// spare PAs were put to use.
    MidRetire,
    /// Immediately after a failed block was linked, before its inverse
    /// pointer is persisted.
    MidLink,
}

impl CrashPoint {
    fn slot(self) -> usize {
        match self {
            CrashPoint::MidSwitch => 0,
            CrashPoint::MidMigration => 1,
            CrashPoint::MidRetire => 2,
            CrashPoint::MidLink => 3,
        }
    }
}

/// Fault-event counters, exposed through
/// [`crate::device::PcmDevice::fault_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Power-loss events fired (write-index and crash-point triggers).
    pub power_losses: u64,
    /// Writes dropped while power was lost (including the triggering one).
    pub writes_lost: u64,
    /// Silent write failures fired.
    pub silent_failures: u64,
    /// Transient read errors corrected in place by the ECC scheme.
    pub transients_corrected: u64,
    /// Transient read errors the ECC scheme could no longer absorb.
    pub transients_uncorrectable: u64,
}

/// A deterministic schedule of injected faults.
///
/// Write/read indices are 0-based and count the device accesses of that
/// kind serviced *while powered*; the k-th scheduled write is itself
/// affected (a power loss at index k means write k does not commit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    power_loss_writes: Vec<u64>,
    silent_writes: Vec<u64>,
    transient_reads: Vec<u64>,
    crash_points: Vec<(CrashPoint, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.power_loss_writes.is_empty()
            && self.silent_writes.is_empty()
            && self.transient_reads.is_empty()
            && self.crash_points.is_empty()
    }

    /// Schedules a power loss at device-write index `idx`: that write and
    /// all later ones are dropped until power is restored.
    pub fn power_loss_at_write(mut self, idx: u64) -> Self {
        self.power_loss_writes.push(idx);
        self
    }

    /// Schedules a power loss at the `occurrence`-th (0-based) report of
    /// the named crash point.
    pub fn power_loss_at_point(mut self, point: CrashPoint, occurrence: u64) -> Self {
        self.crash_points.push((point, occurrence));
        self
    }

    /// Schedules a silent failure: the write at device-write index `idx`
    /// kills its block but reports `Ok`. A power loss at the same index
    /// wins: that write never reaches the array.
    pub fn silent_failure_at_write(mut self, idx: u64) -> Self {
        self.silent_writes.push(idx);
        self
    }

    /// Schedules a burst of `count` consecutive transient read errors
    /// starting at device-read index `start` — the error-burst shape the
    /// chaos harness arms against live banks.
    /// A burst that would run past the last read index stops there.
    pub fn transient_read_burst(mut self, start: u64, count: u64) -> Self {
        self.transient_reads
            .extend((0..count).map_while(|i| start.checked_add(i)));
        self
    }

    /// Adds `count` seeded silent-failure write indices drawn uniformly
    /// from `[lo, hi)`.
    pub fn seeded_silent_failures(mut self, seed: u64, count: usize, lo: u64, hi: u64) -> Self {
        let mut rng = Rng::stream(seed, 0x51EE7);
        for _ in 0..count {
            self.silent_writes.push(lo + rng.gen_range(hi - lo));
        }
        self
    }

    /// Adds `count` seeded transient-read indices drawn uniformly from
    /// `[lo, hi)`.
    pub fn seeded_transient_reads(mut self, seed: u64, count: usize, lo: u64, hi: u64) -> Self {
        let mut rng = Rng::stream(seed, 0x7EA0);
        for _ in 0..count {
            self.transient_reads.push(lo + rng.gen_range(hi - lo));
        }
        self
    }
}

/// Which fault, if any, an injector applied to a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// No fault; the write proceeds normally.
    None,
    /// Power is (now) lost; the write must be dropped.
    Lost,
    /// The write silently kills its block but must report success.
    Silent,
}

/// Which fault, if any, an injector applied to a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadFault {
    /// No fault; the read proceeds normally.
    None,
    /// A transient (soft) error was raised; the device decides whether
    /// the block's ECC scheme absorbs it.
    Transient,
}

/// Runtime state of a [`FaultPlan`] being executed against a device.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    /// Sorted, deduplicated schedules with advancing cursors.
    power_loss_writes: Vec<u64>,
    silent_writes: Vec<u64>,
    transient_reads: Vec<u64>,
    crash_points: Vec<(CrashPoint, u64)>,
    next_power: usize,
    next_silent: usize,
    next_transient: usize,
    /// Powered writes/reads serviced so far (the schedules' index space).
    writes_seen: u64,
    reads_seen: u64,
    /// Occurrence counters per [`CrashPoint`] kind.
    point_seen: [u64; 4],
    powered: bool,
    /// Set whenever a fault fires — a power loss, a write dropped while
    /// the power is off, a silent failure — and cleared by
    /// [`Self::take_fired`].
    fired: bool,
    counters: FaultCounters,
    silent_log: Vec<Da>,
}

impl FaultInjector {
    /// Compiles `plan` into runnable form.
    pub fn new(plan: FaultPlan) -> Self {
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let FaultPlan {
            power_loss_writes,
            silent_writes,
            transient_reads,
            mut crash_points,
        } = plan;
        let power_loss_writes = sorted(power_loss_writes);
        let silent_writes = sorted(silent_writes);
        let transient_reads = sorted(transient_reads);
        crash_points.sort_unstable_by_key(|&(p, occ)| (p.slot(), occ));
        crash_points.dedup();
        FaultInjector {
            power_loss_writes,
            silent_writes,
            transient_reads,
            crash_points,
            next_power: 0,
            next_silent: 0,
            next_transient: 0,
            writes_seen: 0,
            reads_seen: 0,
            point_seen: [0; 4],
            powered: true,
            fired: false,
            counters: FaultCounters::default(),
            silent_log: Vec::new(),
        }
    }

    /// Arms an additional plan on a *live* injector. Incoming indices are
    /// interpreted relative to the current access counts — a plan with
    /// `power_loss_at_write(0)` cuts power on the very next powered
    /// write — so callers can script faults against a pipeline that has
    /// already serviced traffic. Crash-point occurrences are likewise
    /// shifted by the occurrences already seen. Already-consumed schedule
    /// entries are untouched; the un-consumed suffix is merged, re-sorted
    /// and deduplicated, preserving determinism from this point on.
    pub fn arm(&mut self, plan: FaultPlan) {
        fn merge_tail(sched: &mut Vec<u64>, cursor: usize, add: Vec<u64>, base: u64) {
            if add.is_empty() {
                return;
            }
            let mut tail = sched.split_off(cursor);
            tail.extend(add.into_iter().map(|i| base.saturating_add(i)));
            tail.sort_unstable();
            tail.dedup();
            // Entries below the current access count can never match an
            // exact-index check again; drop them so they cannot jam the
            // cursor.
            tail.retain(|&i| i >= base);
            sched.append(&mut tail);
        }
        let FaultPlan {
            power_loss_writes,
            silent_writes,
            transient_reads,
            crash_points,
        } = plan;
        merge_tail(
            &mut self.power_loss_writes,
            self.next_power,
            power_loss_writes,
            self.writes_seen,
        );
        merge_tail(
            &mut self.silent_writes,
            self.next_silent,
            silent_writes,
            self.writes_seen,
        );
        merge_tail(
            &mut self.transient_reads,
            self.next_transient,
            transient_reads,
            self.reads_seen,
        );
        if !crash_points.is_empty() {
            self.crash_points.extend(
                crash_points
                    .into_iter()
                    .map(|(p, occ)| (p, self.point_seen[p.slot()].saturating_add(occ))),
            );
            self.crash_points
                .sort_unstable_by_key(|&(p, occ)| (p.slot(), occ));
            self.crash_points.dedup();
        }
    }

    /// Whether the device still has power.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Whether the power is off, or a power loss, silent failure or crash
    /// point is still scheduled. A pending transient read does not count.
    pub fn pending(&self) -> bool {
        !self.powered
            || self.next_power < self.power_loss_writes.len()
            || self.next_silent < self.silent_writes.len()
            || (self.crash_points.iter()).any(|&(p, occ)| occ >= self.point_seen[p.slot()])
    }

    /// Whether a fault fired since the last call; clears the mark.
    #[inline]
    pub fn take_fired(&mut self) -> bool {
        std::mem::take(&mut self.fired)
    }

    /// Restores power after a loss, and clears the fired mark: the loss
    /// it recorded is what the restore answers. Consumed schedule entries
    /// do not re-fire; later ones remain armed.
    pub fn restore_power(&mut self) {
        self.powered = true;
        self.fired = false;
    }

    /// Fault counters accumulated so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Device addresses killed by silent write failures, in order.
    pub fn silent_log(&self) -> &[Da] {
        &self.silent_log
    }

    /// Consults the schedule for the write about to be serviced on `da`.
    pub fn on_write(&mut self, da: Da) -> WriteFault {
        if self.on_quiet_write() {
            return WriteFault::None;
        }
        self.fired = true;
        if !self.powered {
            self.counters.writes_lost += 1;
            return WriteFault::Lost;
        }
        let idx = self.writes_seen;
        self.writes_seen += 1;
        if self.power_loss_writes.get(self.next_power) == Some(&idx) {
            self.next_power += 1;
            // The write never reaches the array, so a silent failure
            // scheduled for it is spent too; left under the cursor it
            // would hold back every later one.
            self.next_silent += usize::from(self.silent_writes.get(self.next_silent) == Some(&idx));
            self.powered = false;
            self.counters.power_losses += 1;
            self.counters.writes_lost += 1;
            return WriteFault::Lost;
        }
        // Powered, not quiet, not a power loss: the next silent failure.
        debug_assert_eq!(self.silent_writes.get(self.next_silent), Some(&idx));
        self.next_silent += 1;
        self.counters.silent_failures += 1;
        self.silent_log.push(da);
        WriteFault::Silent
    }

    /// Counts the write about to be serviced iff its index is *quiet* —
    /// power is on and neither the next scheduled power loss nor the next
    /// silent failure sits at it — and returns whether it was. This is the
    /// whole of what [`Self::on_write`] does on such an index before it
    /// returns [`WriteFault::None`], so a device may service the write on
    /// its steady-state path; on `false` nothing changed and the write
    /// must go through [`Self::on_write`], the only place a fault fires.
    #[inline]
    pub fn on_quiet_write(&mut self) -> bool {
        let idx = self.writes_seen;
        let quiet = self.powered
            && self.power_loss_writes.get(self.next_power) != Some(&idx)
            && self.silent_writes.get(self.next_silent) != Some(&idx);
        self.writes_seen += u64::from(quiet);
        quiet
    }

    /// Consults the schedule for the read about to be serviced.
    pub fn on_read(&mut self) -> ReadFault {
        let idx = self.reads_seen;
        self.reads_seen += 1;
        if self.transient_reads.get(self.next_transient) == Some(&idx) {
            self.next_transient += 1;
            return ReadFault::Transient;
        }
        ReadFault::None
    }

    /// Registers one occurrence of `point`; cuts power if the plan
    /// targets this occurrence.
    pub fn on_crash_point(&mut self, point: CrashPoint) {
        if !self.powered {
            return;
        }
        let occ = self.point_seen[point.slot()];
        self.point_seen[point.slot()] += 1;
        if self.crash_points.contains(&(point, occ)) {
            self.powered = false;
            self.fired = true;
            self.counters.power_losses += 1;
        }
    }

    /// Records the ECC verdict on a transient read error.
    pub fn note_transient(&mut self, corrected: bool) {
        if corrected {
            self.counters.transients_corrected += 1;
        } else {
            self.counters.transients_uncorrectable += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new());
        for _ in 0..100 {
            assert_eq!(inj.on_write(Da::new(0)), WriteFault::None);
            assert_eq!(inj.on_read(), ReadFault::None);
        }
        assert!(inj.powered());
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn crash_point_targets_nth_occurrence() {
        let mut inj =
            FaultInjector::new(FaultPlan::new().power_loss_at_point(CrashPoint::MidSwitch, 1));
        inj.on_crash_point(CrashPoint::MidSwitch); // occurrence 0
        assert!(inj.powered());
        inj.on_crash_point(CrashPoint::MidMigration); // other kind
        assert!(inj.powered());
        inj.on_crash_point(CrashPoint::MidSwitch); // occurrence 1
        assert!(!inj.powered());
    }

    #[test]
    fn arming_preserves_pending_entries_and_shifts_crash_points() {
        let mut inj = FaultInjector::new(FaultPlan::new().silent_failure_at_write(5));
        inj.on_write(Da::new(0)); // absolute 0
        inj.on_crash_point(CrashPoint::MidSwitch); // occurrence 0
        inj.arm(
            FaultPlan::new()
                .silent_failure_at_write(1) // absolute 2
                .power_loss_at_point(CrashPoint::MidSwitch, 1), // occurrence 2
        );
        assert_eq!(inj.on_write(Da::new(1)), WriteFault::None); // 1
        assert_eq!(inj.on_write(Da::new(2)), WriteFault::Silent); // 2, armed
        assert_eq!(inj.on_write(Da::new(3)), WriteFault::None); // 3
        assert_eq!(inj.on_write(Da::new(4)), WriteFault::None); // 4
        assert_eq!(inj.on_write(Da::new(5)), WriteFault::Silent); // 5, original
        inj.on_crash_point(CrashPoint::MidSwitch); // occurrence 1
        assert!(inj.powered());
        inj.on_crash_point(CrashPoint::MidSwitch); // occurrence 2, armed
        assert!(!inj.powered());
    }

    #[test]
    fn transient_burst_stops_at_the_last_read_index() {
        // `start + i` used to overflow here: a panic in the dev profile,
        // and in release a wrap that scheduled errors at reads 0, 1, ….
        let plan = FaultPlan::new().transient_read_burst(u64::MAX - 1, 5);
        assert_eq!(plan.transient_reads, [u64::MAX - 1, u64::MAX]);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_read(), ReadFault::None, "nothing wrapped to read 0");
    }

    #[test]
    fn seeded_helpers_are_deterministic() {
        let a = FaultPlan::new().seeded_silent_failures(7, 5, 100, 1_000);
        let b = FaultPlan::new().seeded_silent_failures(7, 5, 100, 1_000);
        assert_eq!(a, b);
        let c = FaultPlan::new().seeded_silent_failures(8, 5, 100, 1_000);
        assert_ne!(a, c);
    }
}
