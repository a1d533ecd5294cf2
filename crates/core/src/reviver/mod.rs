//! The WL-Reviver framework (paper §III).
//!
//! [`RevivedController`] interposes between an unmodified wear-leveling
//! scheme and the PCM device so that the scheme keeps operating after
//! block failures:
//!
//! * **Linking** (§III-B): a failed block stores a pointer to a *virtual
//!   shadow block* — a reserved PA — and the scheme's own PA→DA mapping
//!   resolves that PA to the current *shadow block*. Data migration moves
//!   the shadow; the failed-DA→PA link never needs rewriting.
//! * **Space acquisition** (§III-A): reserved PAs come from OS pages
//!   retired through the standard access-error exception. The framework
//!   holds the unlinked PAs in registers (modeled as a queue) and only
//!   reports a failure to the OS when the pool is empty.
//! * **Delayed acquisition**: if a *migration* needs a spare and none is
//!   available, the migration is suspended (its data parked in the
//!   controller's migration buffer) and the next *software write* is
//!   reported to the OS as a failure — possibly a fake one — to obtain a
//!   page. Reads keep being served (from the buffer if necessary), which
//!   is why the paper sacrifices writes rather than reads.
//! * **One-step chains** (§III-B, Figures 2–3): whenever a two-step chain
//!   forms — a shadow dies while serving a write, or a migration lands a
//!   virtual shadow's mapping on another failed block — the framework
//!   switches the two failed blocks' virtual shadows, leaving one of them
//!   on a PA–DA *loop* (no shadow, provably unreachable).
//! * **Inverse pointers** (Figure 4): the last PAs of each retired page
//!   index blocks storing virtual-shadow→failed-block pointers, needed to
//!   find the chain head during the Figure 3 switch. Which block holds a
//!   shadow's pointer is arithmetic on the retired-page bitmap, not a
//!   table. Their reads/writes are charged to the device like any other
//!   access.
//!
//! Theorems 1–3 of the paper are encoded as one runtime check,
//! [`RevivedController::assert_invariants`] (run after every request in
//! [`RevivedControllerBuilder::check_invariants`] mode), and exercised by
//! this module's tests and the cross-crate integration suite.
//!
//! # Module layout
//!
//! The controller is a thin orchestrator over focused submodules, wired
//! together by the typed event spine of [`events`]:
//!
//! * [`events`] — [`ReviverEvent`], the [`ReviverCounters`] fold and the
//!   post-mortem [`EventRing`];
//! * `link_table` — the failed-DA→PA link table, inverse pointers and
//!   the pointer-metadata write machinery;
//! * `spare_pool` — reactive spare acquisition, parking, and the
//!   retired-page layout (computed from the bitmap, not stored);
//! * `chain` — the write chain: failure discovery, one-step switching,
//!   migrations and the Theorem-3 repair;
//! * `invariants` — Theorems 1–3 as a full-scan assertion;
//! * `recover` — crash recovery from the durable metadata mirror;
//! * `frontend` — the [`crate::Controller`] trait implementation (the
//!   request-facing surface).

pub mod events;

mod chain;
mod frontend;
mod invariants;
mod link_table;
mod recover;
mod spare_pool;
#[cfg(test)]
mod tests;

pub use events::{EventRing, RecoveryPhase, ReviverCounters, ReviverEvent, ViolationKind};

use crate::cache::RemapCache;
use crate::controller::RequestStats;
use crate::error::BuilderError;
use crate::recovery::PersistedMeta;
use link_table::LinkTable;
use spare_pool::SparePool;
use std::collections::VecDeque;
use wlr_base::{Da, Geometry, Pa, PageId};
use wlr_pcm::{PcmDevice, WriteOutcome};
use wlr_wl::{Leveler, WearLeveler};

/// Builder for [`RevivedController`].
#[derive(Debug)]
pub struct RevivedControllerBuilder {
    device: PcmDevice,
    wl: Leveler,
    cache_bytes: Option<usize>,
    check_invariants: bool,
    pointer_bytes: u64,
    chain_switching: bool,
    proactive_acquisition: bool,
}

impl RevivedControllerBuilder {
    /// Attaches a remap cache of `bytes` capacity (Table II uses 32 KB).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Enables Theorem 1–3 invariant assertions after every request
    /// (testing aid; expensive on large devices).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Pointer width used to size the inverse-pointer section (default 4,
    /// the paper's 32-bit pointers: 16 per 64 B block).
    pub fn pointer_bytes(mut self, bytes: u64) -> Self {
        self.pointer_bytes = bytes;
        self
    }

    /// Disables the one-step-chain switching of §III-B (ablation): chains
    /// are allowed to grow and every access walks them to the end. Data
    /// remains correct; access time degrades — which is the design point
    /// the paper's Figures 2–3 machinery exists to avoid.
    pub fn chain_switching(mut self, on: bool) -> Self {
        self.chain_switching = on;
        self
    }

    /// Switches to the §III-A alternative the paper rejects: when a
    /// migration needs spare space, *proactively* request a page from the
    /// OS (a new interrupt type) instead of suspending and sacrificing
    /// the next software write as a (possibly fake) failure report.
    pub fn proactive_acquisition(mut self, on: bool) -> Self {
        self.proactive_acquisition = on;
        self
    }

    /// Constructs the controller, validating the knob combination.
    ///
    /// # Errors
    ///
    /// Rejects degenerate configurations with a typed [`BuilderError`]:
    /// a zero pointer width, a remap cache smaller than one cache set,
    /// a wear-leveler whose PA space disagrees with the geometry, or a
    /// device lacking the scheme's buffer blocks.
    pub fn try_build(self) -> Result<RevivedController, BuilderError> {
        let geo = *self.device.geometry();
        if self.pointer_bytes == 0 {
            return Err(BuilderError::PointerBytesZero);
        }
        if let Some(bytes) = self.cache_bytes {
            let min = 4 * crate::cache::ENTRY_BYTES;
            if bytes < min {
                return Err(BuilderError::CacheTooSmall { bytes, min });
            }
        }
        if self.wl.len() != geo.num_blocks() {
            return Err(BuilderError::PaSpaceMismatch {
                wl: self.wl.len(),
                geometry: geo.num_blocks(),
            });
        }
        if self.device.total_blocks() < self.wl.total_das() {
            return Err(BuilderError::MissingBufferBlocks {
                device: self.device.total_blocks(),
                required: self.wl.total_das(),
            });
        }
        let ppb = (geo.block_bytes() / self.pointer_bytes).max(1);
        // Figure 4: 4 blocks of 16 pointers cover 60 shadows per 64-block
        // page. A one-block page is all pointer section.
        let bpp = geo.blocks_per_page();
        let section = bpp.div_ceil(ppb + 1).min(bpp - 1).max(1);
        // Dense tables: failed-DA keys are bounded by the device size,
        // PA keys by the visible space — both known here.
        let total = self.device.total_blocks();
        Ok(RevivedController {
            geo,
            device: self.device,
            wl: self.wl,
            links: LinkTable {
                ptr: wlr_base::dense::DenseMap::with_capacity(total),
                inv: wlr_base::dense::DenseMap::with_capacity(geo.num_blocks()),
                cache: self.cache_bytes.map(RemapCache::with_capacity_bytes),
            },
            pool: SparePool {
                spares: VecDeque::new(),
                shadows: bpp - section,
                ptrs_per_block: ppb,
                retired: vec![false; geo.num_pages() as usize],
                undiscovered: wlr_base::dense::DenseSet::with_capacity(total),
            },
            suspended: false,
            mig_buf: VecDeque::new(),
            req: RequestStats::default(),
            counters: ReviverCounters::default(),
            check: self.check_invariants,
            switching: self.chain_switching,
            proactive: self.proactive_acquisition,
            in_write_da: 0,
            pending_meta: Vec::new(),
            persist: PersistedMeta::new(total, geo.num_pages()),
            degraded: false,
            ring: None,
        })
    }

    /// Constructs the controller.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`Self::try_build`] rejects.
    pub fn build(self) -> RevivedController {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A memory controller running any [`WearLeveler`] under the WL-Reviver
/// framework: failures are hidden behind shadow blocks and the scheme's
/// migrations continue unmodified.
///
/// See the crate-level example for end-to-end use with the simulator; the
/// controller can also be driven directly:
///
/// ```
/// use wlr_base::{Geometry, Pa, PageId};
/// use wlr_pcm::{Ecp, PcmDevice};
/// use wlr_wl::{RandomizerKind, StartGap};
/// use wl_reviver::controller::{Controller, WriteResult};
/// use wl_reviver::reviver::RevivedController;
///
/// let geo = Geometry::builder().num_blocks(128).build()?;
/// let device = PcmDevice::builder(geo)
///     .extra_blocks(1) // Start-Gap's gap line
///     .endurance_mean(500.0)
///     .ecc(Box::new(Ecp::ecp6()))
///     .track_contents(true)
///     .build();
/// let wl = StartGap::builder(128)
///     .gap_interval(10)
///     .randomizer(RandomizerKind::Feistel { seed: 1 })
///     .build();
/// let mut ctl = RevivedController::builder(device, wl).build();
///
/// // Hammer one address until the controller must involve the OS.
/// let mut reported = None;
/// for i in 0..100_000u64 {
///     match ctl.write(Pa::new(7), i) {
///         WriteResult::Ok => {}
///         WriteResult::ReportFailure(pa) => { reported = Some(pa); break; }
///         other => unreachable!("unexpected write result: {other:?}"),
///     }
/// }
/// // Play the OS: retire the page, granting the framework its PAs.
/// let pa = reported.expect("a failure eventually surfaces");
/// ctl.on_page_retired(geo.page_of(pa));
/// assert!(ctl.spare_pas() > 0);
/// # Ok::<(), wlr_base::geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RevivedController {
    geo: Geometry,
    device: PcmDevice,
    /// The scheme, inline when it is one of the two the paper names, so
    /// the steady-state write calls its `map` and `record_write_fast`
    /// without a virtual call.
    wl: Leveler,
    /// The failed-DA→PA link table with its inverse image and cache.
    links: LinkTable,
    /// Spare acquisition state and the retired-page layout.
    pool: SparePool,
    suspended: bool,
    /// Outstanding migration writes `(post-mapping target, data)`; data
    /// lives in controller registers while a migration is suspended.
    mig_buf: VecDeque<(Da, u64)>,
    req: RequestStats,
    counters: ReviverCounters,
    check: bool,
    /// One-step-chain switching enabled (§III-B; off only for ablation).
    switching: bool,
    /// Proactive page acquisition (§III-A alternative; ablation only).
    proactive: bool,
    /// Number of active chain-repair frames (metadata writes defer while
    /// this is nonzero).
    in_write_da: u32,
    /// Deferred inverse-pointer writes awaiting a quiescent flush point.
    pending_meta: Vec<Pa>,
    /// The durable metadata mirror: what the PCM (and the battery-backed
    /// migration journal) actually hold. Updated only when the
    /// corresponding device write commits; the sole source of truth for
    /// [`Self::recover`].
    persist: PersistedMeta,
    /// Set when an access hit torn metadata it could not repair (fuel
    /// exhaustion, unlinked dead read outside check mode).
    degraded: bool,
    /// The post-mortem event ring, if one is attached
    /// ([`Self::record_events`]); a clone carries its parent's ring.
    ring: Option<Box<EventRing>>,
}

impl RevivedController {
    /// Starts building a revived controller over `device` driving `wl`:
    /// a [`wlr_wl::StartGap`] or [`wlr_wl::SecurityRefresh`] by value, or
    /// any scheme boxed.
    pub fn builder(device: PcmDevice, wl: impl Into<Leveler>) -> RevivedControllerBuilder {
        RevivedControllerBuilder {
            device,
            wl: wl.into(),
            cache_bytes: None,
            check_invariants: false,
            pointer_bytes: 4,
            chain_switching: true,
            proactive_acquisition: false,
        }
    }

    // ----- the event spine --------------------------------------------

    /// Emits one event: folds it into the counters and pushes it to the
    /// ring if one is attached. Emission performs no device access and no
    /// RNG draw, so recording can never perturb a run's observable
    /// behavior.
    pub(super) fn emit(&mut self, ev: ReviverEvent) {
        self.counters.apply(&ev);
        if let Some(ring) = &mut self.ring {
            ring.push(ev);
        }
    }

    /// Attaches a fresh ring recording the last `capacity` events
    /// (subsequent events only), replacing any ring already attached.
    pub fn record_events(&mut self, capacity: usize) {
        self.ring = Some(Box::new(EventRing::new(capacity)));
    }

    /// The attached event ring, if any.
    pub fn events(&self) -> Option<&EventRing> {
        self.ring.as_deref()
    }

    // ----- inspection --------------------------------------------------

    /// Event counters.
    pub fn counters(&self) -> ReviverCounters {
        self.counters
    }

    /// Unlinked spare PAs currently available.
    pub fn spare_pas(&self) -> u64 {
        self.pool.spares.len() as u64
    }

    /// Number of failed blocks currently linked to virtual shadows.
    pub fn linked_blocks(&self) -> u64 {
        self.links.ptr.len() as u64
    }

    /// Number of linked blocks currently on PA–DA loops (no shadow).
    pub fn loop_blocks(&self) -> u64 {
        self.links
            .ptr
            .iter()
            .filter(|&(da, v)| self.wl.map(v).index() == da)
            .count() as u64
    }

    /// Length of every linked block's chain (steps to a healthy block or
    /// a loop), for the chain-switching ablation's statistics.
    pub fn chain_lengths(&self) -> Vec<u32> {
        self.links
            .ptr
            .keys()
            .map(|d| {
                let mut cur = Da::new(d);
                let mut steps = 0u32;
                while let Some(v) = self.links.ptr.get(cur.index()) {
                    let next = self.wl.map(v);
                    steps += 1;
                    if next == cur || !self.device.is_dead(next) {
                        break;
                    }
                    cur = next;
                    if steps > self.links.ptr.len() as u32 + 1 {
                        break;
                    }
                }
                steps
            })
            .collect()
    }

    /// Cache hit ratio, if a remap cache is configured.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        self.links.cache.as_ref().map(|c| c.hit_ratio())
    }

    /// Read access to the wear-leveler (for inspection and tooling).
    pub fn wear_leveler(&self) -> &dyn WearLeveler {
        &self.wl
    }

    /// Force-fails device block `da` without wearing it — the setup knob
    /// for fixed-failure-ratio measurements (Table II). The failure is
    /// "undiscovered": the framework links it on the next touch, exactly
    /// like an organic failure detected at write time.
    pub fn inject_dead(&mut self, da: Da) {
        self.device.inject_dead(da);
        // Idempotent: re-injecting a block that is already linked (or
        // already recorded as undiscovered) changes nothing.
        if !self.links.ptr.contains_key(da.index()) {
            self.pool.undiscovered.insert(da.index());
        }
    }

    // ----- device helpers ---------------------------------------------

    #[inline]
    pub(super) fn dev_read(&mut self, da: Da, acct: bool) {
        self.device.read(da);
        if acct {
            self.req.accesses += 1;
        }
    }

    #[inline]
    pub(super) fn dev_write(&mut self, da: Da, tag: u64, acct: bool) -> WriteOutcome {
        let out = self.device.write_tagged(da, tag);
        if acct {
            self.req.accesses += 1;
        }
        out
    }

    #[inline]
    pub(super) fn is_reserved(&self, pa: Pa) -> bool {
        self.pool.retired[self.geo.page_of(pa).as_usize()]
    }

    /// The lowest-indexed page not yet retired (proactive-acquisition
    /// ablation's nomination), or `None` when everything is retired.
    pub(super) fn pick_page_to_request(&self) -> Option<PageId> {
        self.pool
            .retired
            .iter()
            .position(|&r| !r)
            .map(|i| PageId::new(i as u64))
    }
}
