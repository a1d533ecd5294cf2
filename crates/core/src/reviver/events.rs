//! The typed event spine: every state transition the revival framework
//! performs is emitted as a [`ReviverEvent`].
//!
//! The controller consumes its own events: [`ReviverCounters`] is folded
//! inline on every emission, and the event is then pushed to the bounded
//! post-mortem [`EventRing`] if one is attached
//! ([`super::RevivedController::record_events`]). Without a ring,
//! emission costs one match arm per event (the counter fold) and a
//! `None` check — no allocation and no device access by construction.

use wlr_base::{Da, Pa, PageId};
use wlr_pcm::CrashPoint;

/// One state transition of the revival framework (paper §III).
///
/// Events are plain data: emitting one performs no device access and no
/// RNG draw, so recording them can never perturb a run's observable
/// behavior (the golden-equivalence suite pins this down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReviverEvent {
    /// A failed block was linked to a virtual shadow PA (§III-B).
    LinkCreated {
        /// The failed device address.
        da: Da,
        /// The virtual shadow it now points at.
        shadow: Pa,
    },
    /// A loop block received a fresh virtual shadow; the old PA returned
    /// to the spare pool.
    Relinked {
        /// The failed device address.
        da: Da,
        /// Its new virtual shadow.
        shadow: Pa,
        /// The PA freed back into the pool.
        freed: Pa,
    },
    /// Two failed blocks switched virtual shadows to restore one-step
    /// chains (Figures 2(d) and 3(b)).
    ChainSwitched {
        /// The chain head whose shadow had died.
        head: Da,
        /// The dead shadow block it switched with.
        dead_shadow: Da,
    },
    /// A switch left this block on a PA–DA loop (no shadow, provably
    /// unreachable — Theorem 1).
    LoopFormed {
        /// The looped device address.
        da: Da,
    },
    /// A spare PA left the pool to serve as a virtual shadow.
    SpareAcquired {
        /// The acquired reserved PA.
        shadow: Pa,
    },
    /// The pool was dry; the dead block parked in Theorem 2's
    /// undiscovered-failure state instead of linking.
    SpareParked {
        /// The dead block left unlinked.
        dead: Da,
    },
    /// The OS retired a page and its shadow PAs entered the pool
    /// (§III-A space acquisition).
    PageRetired {
        /// The retired page.
        page: PageId,
        /// Spare shadow PAs harvested from it.
        shadows: u64,
    },
    /// A migration needed a spare that did not exist; migration is
    /// suspended and its data parked in the controller buffer.
    MigrationSuspended,
    /// A page grant resumed the suspended migration.
    MigrationResumed,
    /// Delayed space acquisition sacrificed this software write as a
    /// (possibly fake) failure report (§III-A).
    WriteSacrificed {
        /// The software PA whose write was sacrificed.
        pa: Pa,
    },
    /// A genuine failure report: the write's own failure handling ran
    /// out of spares.
    FailureReported {
        /// The software PA reported to the OS.
        pa: Pa,
    },
    /// Inverse-pointer writes were skipped for lack of resources
    /// (rebuildable by a scan, per §III-B).
    MetaSkipped {
        /// How many pointer writes were skipped.
        skipped: u64,
    },
    /// A migration read a block holding no live data.
    GarbageRead {
        /// The device address read.
        da: Da,
    },
    /// A chain walk aborted for lack of fuel (torn metadata produced a
    /// cycle); the access degraded instead of panicking.
    ChainAborted {
        /// The device address where the walk gave up.
        da: Da,
    },
    /// The fault injector cut power at an instrumented crash point.
    PowerCut {
        /// Which crash point fired.
        at: CrashPoint,
    },
    /// One phase of [`RevivedController::recover`] completed.
    ///
    /// [`RevivedController::recover`]: super::RevivedController::recover
    RecoveryStep {
        /// The recovery phase.
        phase: RecoveryPhase,
        /// Items the phase processed (links rebuilt, spares found, …).
        items: u64,
    },
    /// Recovery finished rebuilding the volatile state.
    RecoveryCompleted {
        /// Dead blocks healed with fresh links.
        healed: u64,
        /// Dead blocks left parked for lack of spares.
        unhealed: u64,
    },
    /// An access found a structural invariant broken (degraded mode).
    InvariantViolation {
        /// The device address involved.
        da: Da,
        /// What was broken.
        kind: ViolationKind,
    },
}

/// The phases of [`RevivedController::recover`], in execution order.
///
/// [`RevivedController::recover`]: super::RevivedController::recover
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Restoring the retired-page bitmap, which is the whole layout.
    Layout,
    /// Rebuilding the link tables from persisted failed-block pointers.
    Links,
    /// Completing half-finished virtual-shadow switches.
    TornSwitches,
    /// Rebuilding the spare-PA pool by scanning retired pages.
    SparePool,
    /// Healing unlinked software-accessible dead blocks.
    Heal,
    /// Replaying the battery-backed migration journal.
    JournalReplay,
    /// Collapsing two-step chains left by uncommitted links.
    ChainCollapse,
}

/// What an [`ReviverEvent::InvariantViolation`] found broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A chain repair failed to converge within its fuel budget.
    ChainDiverged,
    /// A software-reachable dead block carried no link outside the
    /// tolerated undiscovered-failure states.
    UnlinkedDeadRead,
}

/// Event counters exposed for the experiments and ablations.
///
/// The counters are a pure fold over the event stream
/// ([`ReviverCounters::apply`]): the controller folds them inline on
/// every emission, so a recorded stream replayed into a fresh instance
/// reconstructs them (the event-replay property test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReviverCounters {
    /// Failed blocks linked to virtual shadow blocks.
    pub links: u64,
    /// Virtual-shadow switches performed to restore one-step chains.
    pub switches: u64,
    /// Migrations suspended for lack of spare PAs.
    pub suspensions: u64,
    /// Software writes sacrificed as (possibly fake) failure reports.
    pub fake_reports: u64,
    /// Genuine failure reports raised because a software write's own
    /// failure handling ran out of spares.
    pub real_reports: u64,
    /// Pages harvested for spare PAs.
    pub spare_grants: u64,
    /// Inverse-pointer writes skipped for lack of resources (rebuildable
    /// by a scan, per the paper).
    pub meta_skips: u64,
    /// Migration reads of blocks holding no live data.
    pub garbage_reads: u64,
    /// Simulated power cycles survived.
    pub reboots: u64,
    /// In-flight migration lines lost to power cycles. With the
    /// battery-backed migration journal this stays 0 — buffered lines are
    /// replayed by recovery, not lost — but the counter is kept for
    /// journal-ablation experiments.
    pub reboot_lost_migrations: u64,
    /// Chain walks aborted for lack of fuel (torn metadata produced a
    /// cycle); the access degraded instead of panicking.
    pub chain_aborts: u64,
}

impl ReviverCounters {
    /// Folds one event into the counters. This is the *only* place
    /// counters change: the controller calls it on every emission, so
    /// replaying a recorded stream through a fresh instance reconstructs
    /// the controller's counters exactly.
    pub fn apply(&mut self, ev: &ReviverEvent) {
        match ev {
            ReviverEvent::LinkCreated { .. } => self.links += 1,
            ReviverEvent::ChainSwitched { .. } => self.switches += 1,
            ReviverEvent::MigrationSuspended => self.suspensions += 1,
            ReviverEvent::WriteSacrificed { .. } => self.fake_reports += 1,
            ReviverEvent::FailureReported { .. } => self.real_reports += 1,
            ReviverEvent::PageRetired { .. } => self.spare_grants += 1,
            ReviverEvent::MetaSkipped { skipped } => self.meta_skips += skipped,
            ReviverEvent::GarbageRead { .. } => self.garbage_reads += 1,
            ReviverEvent::ChainAborted { .. } => self.chain_aborts += 1,
            ReviverEvent::RecoveryCompleted { .. } => self.reboots += 1,
            ReviverEvent::Relinked { .. }
            | ReviverEvent::LoopFormed { .. }
            | ReviverEvent::SpareAcquired { .. }
            | ReviverEvent::SpareParked { .. }
            | ReviverEvent::MigrationResumed
            | ReviverEvent::PowerCut { .. }
            | ReviverEvent::RecoveryStep { .. }
            | ReviverEvent::InvariantViolation { .. } => {}
        }
    }

    /// Adds another instance's counts into this one (multi-bank merges).
    pub fn absorb(&mut self, other: &ReviverCounters) {
        self.links += other.links;
        self.switches += other.switches;
        self.suspensions += other.suspensions;
        self.fake_reports += other.fake_reports;
        self.real_reports += other.real_reports;
        self.spare_grants += other.spare_grants;
        self.meta_skips += other.meta_skips;
        self.garbage_reads += other.garbage_reads;
        self.reboots += other.reboots;
        self.reboot_lost_migrations += other.reboot_lost_migrations;
        self.chain_aborts += other.chain_aborts;
    }
}

/// A bounded ring buffer of the most recent events, for post-mortem
/// dumps after a power cut or an invariant violation.
///
/// The capacity only bounds eviction: the buffer grows as events arrive,
/// so a huge capacity costs nothing until it is filled.
#[derive(Debug, Clone)]
pub struct EventRing {
    cap: usize,
    seq: u64,
    buf: std::collections::VecDeque<(u64, ReviverEvent)>,
}

impl EventRing {
    /// A ring holding the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            cap: capacity.max(1),
            seq: 0,
            buf: std::collections::VecDeque::new(),
        }
    }

    /// Records one event, evicting the oldest once the ring is full.
    pub fn push(&mut self, ev: ReviverEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((self.seq, ev));
        self.seq += 1;
    }

    /// Events currently held, oldest first, with their sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = (u64, ReviverEvent)> + '_ {
        self.buf.iter().copied()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed (including those the ring already evicted).
    pub fn seen(&self) -> u64 {
        self.seq
    }

    /// Renders the retained window as JSON lines, oldest first.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for &(seq, ev) in &self.buf {
            out.push_str(&event_json(seq, &ev));
            out.push('\n');
        }
        out
    }
}

/// Renders one event as a single JSON object line (hand-rolled: the
/// workspace carries no serialization dependency).
pub fn event_json(seq: u64, ev: &ReviverEvent) -> String {
    let body = match ev {
        ReviverEvent::LinkCreated { da, shadow } => {
            format!(
                "\"event\":\"LinkCreated\",\"da\":{},\"shadow\":{}",
                da.index(),
                shadow.index()
            )
        }
        ReviverEvent::Relinked { da, shadow, freed } => format!(
            "\"event\":\"Relinked\",\"da\":{},\"shadow\":{},\"freed\":{}",
            da.index(),
            shadow.index(),
            freed.index()
        ),
        ReviverEvent::ChainSwitched { head, dead_shadow } => format!(
            "\"event\":\"ChainSwitched\",\"head\":{},\"dead_shadow\":{}",
            head.index(),
            dead_shadow.index()
        ),
        ReviverEvent::LoopFormed { da } => {
            format!("\"event\":\"LoopFormed\",\"da\":{}", da.index())
        }
        ReviverEvent::SpareAcquired { shadow } => {
            format!("\"event\":\"SpareAcquired\",\"shadow\":{}", shadow.index())
        }
        ReviverEvent::SpareParked { dead } => {
            format!("\"event\":\"SpareParked\",\"dead\":{}", dead.index())
        }
        ReviverEvent::PageRetired { page, shadows } => format!(
            "\"event\":\"PageRetired\",\"page\":{},\"shadows\":{shadows}",
            page.index()
        ),
        ReviverEvent::MigrationSuspended => "\"event\":\"MigrationSuspended\"".to_string(),
        ReviverEvent::MigrationResumed => "\"event\":\"MigrationResumed\"".to_string(),
        ReviverEvent::WriteSacrificed { pa } => {
            format!("\"event\":\"WriteSacrificed\",\"pa\":{}", pa.index())
        }
        ReviverEvent::FailureReported { pa } => {
            format!("\"event\":\"FailureReported\",\"pa\":{}", pa.index())
        }
        ReviverEvent::MetaSkipped { skipped } => {
            format!("\"event\":\"MetaSkipped\",\"skipped\":{skipped}")
        }
        ReviverEvent::GarbageRead { da } => {
            format!("\"event\":\"GarbageRead\",\"da\":{}", da.index())
        }
        ReviverEvent::ChainAborted { da } => {
            format!("\"event\":\"ChainAborted\",\"da\":{}", da.index())
        }
        ReviverEvent::PowerCut { at } => format!("\"event\":\"PowerCut\",\"at\":\"{at:?}\""),
        ReviverEvent::RecoveryStep { phase, items } => {
            format!("\"event\":\"RecoveryStep\",\"phase\":\"{phase:?}\",\"items\":{items}")
        }
        ReviverEvent::RecoveryCompleted { healed, unhealed } => {
            format!("\"event\":\"RecoveryCompleted\",\"healed\":{healed},\"unhealed\":{unhealed}")
        }
        ReviverEvent::InvariantViolation { da, kind } => format!(
            "\"event\":\"InvariantViolation\",\"da\":{},\"kind\":\"{kind:?}\"",
            da.index()
        ),
    };
    format!("{{\"seq\":{seq},{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_matches_fields() {
        let mut c = ReviverCounters::default();
        c.apply(&ReviverEvent::LinkCreated {
            da: Da::new(3),
            shadow: Pa::new(9),
        });
        c.apply(&ReviverEvent::ChainSwitched {
            head: Da::new(3),
            dead_shadow: Da::new(5),
        });
        c.apply(&ReviverEvent::MetaSkipped { skipped: 4 });
        c.apply(&ReviverEvent::MigrationResumed);
        assert_eq!(c.links, 1);
        assert_eq!(c.switches, 1);
        assert_eq!(c.meta_skips, 4);
        assert_eq!(c.fake_reports, 0);
    }

    #[test]
    fn absorb_sums_fieldwise() {
        let mut a = ReviverCounters {
            links: 2,
            reboots: 1,
            ..Default::default()
        };
        let b = ReviverCounters {
            links: 3,
            chain_aborts: 7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.links, 5);
        assert_eq!(a.reboots, 1);
        assert_eq!(a.chain_aborts, 7);
    }

    #[test]
    fn ring_keeps_the_newest_window() {
        let mut ring = EventRing::new(2);
        ring.push(ReviverEvent::MigrationSuspended);
        ring.push(ReviverEvent::MigrationResumed);
        ring.push(ReviverEvent::LoopFormed { da: Da::new(1) });
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.seen(), 3);
        let kept: Vec<ReviverEvent> = ring.events().map(|(_, e)| e).collect();
        assert_eq!(
            kept,
            vec![
                ReviverEvent::MigrationResumed,
                ReviverEvent::LoopFormed { da: Da::new(1) }
            ]
        );
        let dump = ring.dump();
        assert!(dump.contains("\"event\":\"LoopFormed\",\"da\":1"));
    }

    #[test]
    fn event_json_is_one_object_per_line() {
        let j = event_json(
            7,
            &ReviverEvent::PageRetired {
                page: PageId::new(2),
                shadows: 60,
            },
        );
        assert_eq!(
            j,
            "{\"seq\":7,\"event\":\"PageRetired\",\"page\":2,\"shadows\":60}"
        );
        let j = event_json(
            0,
            &ReviverEvent::PowerCut {
                at: CrashPoint::MidSwitch,
            },
        );
        assert!(j.contains("\"at\":\"MidSwitch\""));
    }
}
