//! The scheme registry: one table describing every controller stack.
//!
//! The paper's central claim is that WL-Reviver revives *any* wear-leveling
//! scheme. The registry is where that openness lives in the reproduction:
//! each stack is a [`StackSpec`] — a name, report title, revivable/bare
//! flags, and a builder function that assembles the
//! `(WearLeveler, Controller)` pair from a [`StackCtx`] — and the
//! [`SchemeRegistry`] is the single source of truth consumed by
//! [`crate::sim::SimulationBuilder`], every bench bin, `wlr-fleet`,
//! `wlr-mc` and the test harnesses. Adding a scheme is one
//! `WearLeveler` impl plus one entry in [`SPECS`]; every sweep, golden,
//! crash harness and fleet campaign picks it up by iteration.
//!
//! # Adding a backend
//!
//! 1. Implement [`WearLeveler`] (in `crates/wl`) and add one
//!    `leveler_laws` call to its tests, which checks the eight laws of
//!    the trait's contract. Algebraic mappings (Start-Gap registers,
//!    Security Refresh keys) and table-mapped ones (SoftWear's
//!    indirection table) are both fine — the framework only needs
//!    `map`/`inverse` and the migration protocol.
//! 2. Append a [`StackSpec`] to [`SPECS`] — usually two: the bare stack
//!    (frozen on the first failure) and the revived one via
//!    [`StackCtx::revive`]. Scheme parameters nobody sweeps are constants
//!    in the spec's build fn, not builder knobs.
//! 3. Run the registry-completeness suite (`tests/tests/registry.rs`) and
//!    capture goldens (`WLR_CAPTURE_GOLDEN=1`); the new names appear in
//!    `--list-stacks`, `WLR_CRASH_STACKS`, `WLR_FLEET_SCHEMES`, etc.
//!
//! A failure-tolerant *baseline* that hides a failed block behind a direct
//! link to a replacement block (FREE-p, LLS, Zombie) is not a new
//! controller either: implement [`crate::linked::SpareSupply`] and build
//! the stack with [`crate::linked::LinkedBuilder::new`]. Every bare stack
//! here is that engine over an empty FREE-p reserve
//! ([`StackCtx::freeze_on_failure`]).
//!
//! A failure-tolerant design that is neither a leveler nor a link table —
//! a decoder-reprogramming controller, say — is a [`Controller`] impl of
//! its own, registered the same way. It must implement
//! [`Controller::fork_box`] (and a new workload `Workload::clone_box`):
//! neither has a default, so a backend the fleet could not snapshot does
//! not compile.

use crate::controller::Controller;
use crate::freep::FreepController;
use crate::lls::LlsController;
use crate::reviver::RevivedController;
use crate::zombie::ZombieController;
use wlr_base::Geometry;
use wlr_pcm::{ErrorCorrection, FaultPlan, PcmDevice};
use wlr_wl::{
    Adaptive, Leveler, NoWearLeveling, RandomizerKind, SecurityRefresh, SoftWear, Stacked,
    StartGap, TiledStartGap, WearLeveler,
};

/// The stack knobs [`crate::sim::SimulationBuilder`]'s setters write and
/// the build fns read, with the one copy of their defaults.
#[derive(Debug, Clone, Copy)]
pub struct StackKnobs {
    /// ψ: writes per leveler migration step (a Start-Gap gap movement, a
    /// Security Refresh or SoftWear swap).
    pub gap_interval: u64,
    /// Remap-cache size, if any.
    pub cache_bytes: Option<usize>,
    /// Experiment seed.
    pub seed: u64,
    /// Start-Gap randomizer override; see [`Self::randomizer`].
    pub sg_randomizer: Option<RandomizerKind>,
    /// Tile count for tiled Start-Gap.
    pub sg_tiles: u64,
    /// WL-Reviver: per-request invariant checking.
    pub check_invariants: bool,
    /// WL-Reviver: inverse-pointer width in bytes.
    pub reviver_pointer_bytes: u64,
    /// WL-Reviver: one-step chain switching.
    pub reviver_chain_switching: bool,
    /// WL-Reviver: proactive page acquisition.
    pub reviver_proactive: bool,
}

impl Default for StackKnobs {
    fn default() -> Self {
        StackKnobs {
            gap_interval: 100,
            cache_bytes: None,
            seed: 0,
            sg_randomizer: None,
            sg_tiles: 16,
            check_invariants: false,
            reviver_pointer_bytes: 4,
            reviver_chain_switching: true,
            reviver_proactive: false,
        }
    }
}

impl StackKnobs {
    /// Start-Gap's static randomizer: the override, else a Feistel
    /// network keyed by the experiment seed.
    pub fn randomizer(&self) -> RandomizerKind {
        self.sg_randomizer
            .unwrap_or(RandomizerKind::Feistel { seed: self.seed })
    }
}

/// Everything a stack builder may consult, pre-resolved by
/// [`crate::sim::SimulationBuilder::build`]: the visible geometry, the
/// scheme/pacing knobs, and the one-shot device ingredients (ECC, fault
/// plan). Builders construct exactly one device via [`StackCtx::device`].
#[derive(Debug)]
pub struct StackCtx {
    /// Software-visible blocks (total minus any FREE-p pre-reserve).
    pub visible: u64,
    /// Blocks pre-reserved for FREE-p remapping (0 elsewhere).
    pub reserve_blocks: u64,
    /// Blocks per OS page.
    pub bpp: u64,
    /// The scheme and framework knobs.
    pub knobs: StackKnobs,
    geo: Geometry,
    endurance_mean: f64,
    endurance_cov: f64,
    track_contents: bool,
    ecc: Option<Box<dyn ErrorCorrection>>,
    fault_plan: Option<FaultPlan>,
}

/// Device ingredients handed to [`StackCtx`] exactly once per build.
#[derive(Debug)]
pub struct DeviceParts {
    /// Visible-space geometry.
    pub geo: Geometry,
    /// Mean cell endurance.
    pub endurance_mean: f64,
    /// Cell-lifetime CoV.
    pub endurance_cov: f64,
    /// Whether the device tracks block contents (integrity oracle).
    pub track_contents: bool,
    /// The error-correction scheme (consumed by the single device build).
    pub ecc: Box<dyn ErrorCorrection>,
    /// Optional fault-injection schedule.
    pub fault_plan: Option<FaultPlan>,
}

impl StackCtx {
    /// Assembles a context. Called by
    /// [`crate::sim::SimulationBuilder::build`]; exposed for harnesses
    /// that drive stack construction directly.
    pub fn new(
        visible: u64,
        reserve_blocks: u64,
        bpp: u64,
        knobs: StackKnobs,
        parts: DeviceParts,
    ) -> Self {
        StackCtx {
            visible,
            reserve_blocks,
            bpp,
            knobs,
            geo: parts.geo,
            endurance_mean: parts.endurance_mean,
            endurance_cov: parts.endurance_cov,
            track_contents: parts.track_contents,
            ecc: Some(parts.ecc),
            fault_plan: parts.fault_plan,
        }
    }

    /// Builds the PCM device with `extra_blocks` beyond the visible space
    /// (gap lines, tiles, FREE-p reserve, LLS backup chunks).
    ///
    /// # Panics
    ///
    /// Panics if called more than once: a stack has exactly one device.
    pub fn device(&mut self, extra_blocks: u64) -> PcmDevice {
        let ecc = self.ecc.take().expect("a stack builds exactly one device");
        let mut b = PcmDevice::builder(self.geo)
            .extra_blocks(extra_blocks)
            .endurance_mean(self.endurance_mean)
            .endurance_cov(self.endurance_cov)
            .seed(self.knobs.seed)
            .ecc(ecc)
            .track_contents(self.track_contents);
        if let Some(plan) = self.fault_plan.take() {
            b = b.fault_plan(plan);
        }
        b.build()
    }

    /// A Start-Gap leveler over the visible space with the configured
    /// randomizer.
    pub fn start_gap(&self) -> StartGap {
        self.start_gap_with(self.knobs.randomizer())
    }

    /// A Start-Gap leveler with an explicit randomizer (LLS uses the
    /// half-restricted one).
    pub fn start_gap_with(&self, kind: RandomizerKind) -> StartGap {
        StartGap::builder(self.visible)
            .gap_interval(self.knobs.gap_interval)
            .randomizer(kind)
            .build()
    }

    /// A Security Refresh leveler over the visible space, in regions of
    /// the largest power of two that divides it (the builder's default).
    pub fn security_refresh(&self, seed: u64) -> SecurityRefresh {
        SecurityRefresh::builder(self.visible)
            .refresh_interval(self.knobs.gap_interval)
            .seed(seed)
            .build()
    }

    /// A SoftWear leveler (table-mapped page sorting) over the visible
    /// space, at the scheme's default 16-frame cold-scan window.
    pub fn soft_wear(&self) -> Box<dyn WearLeveler> {
        Box::new(
            SoftWear::builder(self.visible)
                .swap_interval(self.knobs.gap_interval)
                .build(),
        )
    }

    /// A SAWL-style adaptive Start-Gap over the visible space, at the
    /// wrapper's defaults (CoV band 0.75–1.5, evaluated every 4× the
    /// visible space in writes).
    pub fn adaptive_start_gap(&self) -> Box<dyn WearLeveler> {
        let inner = StartGap::builder(self.visible)
            .gap_interval(self.knobs.gap_interval)
            .randomizer(self.knobs.randomizer())
            .build();
        Box::new(Adaptive::builder(inner).build())
    }

    /// The bare baseline assembly: error correction plus `wl`, frozen on
    /// the first unhidden failure (a zero-reserve FREE-p controller).
    pub fn freeze_on_failure(
        &mut self,
        extra_blocks: u64,
        wl: Box<dyn WearLeveler>,
    ) -> Box<dyn Controller> {
        Box::new(FreepController::builder(self.device(extra_blocks), wl, 0).build())
    }

    /// The WL-Reviver assembly over `wl` with the configured framework
    /// knobs (invariants, pointer width, chain switching, proactive
    /// acquisition, remap cache).
    pub fn revive(&mut self, extra_blocks: u64, wl: impl Into<Leveler>) -> Box<dyn Controller> {
        let k = self.knobs;
        let mut b = RevivedController::builder(self.device(extra_blocks), wl)
            .check_invariants(k.check_invariants)
            .pointer_bytes(k.reviver_pointer_bytes)
            .chain_switching(k.reviver_chain_switching)
            .proactive_acquisition(k.reviver_proactive);
        if let Some(bytes) = k.cache_bytes {
            b = b.cache_bytes(bytes);
        }
        Box::new(b.build())
    }
}

/// One registered controller stack.
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    /// Canonical short name, used on every CLI/env surface
    /// (`WLR_CRASH_STACKS`, `WLR_FLEET_SCHEMES`, `--list-stacks`, …).
    pub name: &'static str,
    /// Report/JSON title (the historical CamelCase names, kept stable so
    /// baselines keep matching).
    pub title: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Whether the stack runs the WL-Reviver framework (survives failures
    /// and participates in crash/recovery harnesses as a reviver).
    pub revivable: bool,
    /// The bare stack used as this stack's lifetime baseline, if any
    /// (for revived stacks: the same scheme frozen on first failure).
    pub bare: Option<&'static str>,
    /// Default fraction of the PCM pre-reserved for FREE-p remapping, for
    /// the stacks that carve one out (`None`: the stack has no
    /// pre-reserve and rejects
    /// [`crate::sim::SimulationBuilder::freep_reserve_frac`]).
    pub reserve_frac: Option<f64>,
    build: fn(&mut StackCtx) -> Box<dyn Controller>,
}

impl StackSpec {
    /// Builds the stack's controller from a prepared context.
    pub fn build_stack(&self, ctx: &mut StackCtx) -> Box<dyn Controller> {
        (self.build)(ctx)
    }
}

fn build_ecc_only(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = Box::new(NoWearLeveling::new(ctx.visible));
    ctx.freeze_on_failure(0, wl)
}

fn build_start_gap_only(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = Box::new(ctx.start_gap());
    ctx.freeze_on_failure(1, wl)
}

fn build_security_refresh_only(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = Box::new(ctx.security_refresh(ctx.knobs.seed));
    ctx.freeze_on_failure(0, wl)
}

fn build_soft_wear_only(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.soft_wear();
    ctx.freeze_on_failure(0, wl)
}

fn build_adaptive_start_gap_only(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.adaptive_start_gap();
    ctx.freeze_on_failure(1, wl)
}

fn build_freep(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = Box::new(ctx.start_gap());
    let reserve = ctx.reserve_blocks;
    let mut b = FreepController::builder(ctx.device(1 + reserve), wl, reserve);
    if let Some(bytes) = ctx.knobs.cache_bytes {
        b = b.cache_bytes(bytes);
    }
    Box::new(b.build())
}

fn build_lls(ctx: &mut StackCtx) -> Box<dyn Controller> {
    // Up to 16 backup chunks of 1/16 of the visible space each, at the
    // controller's default 64 salvage groups.
    const CHUNKS: u64 = 16;
    let chunk = ((ctx.visible / CHUNKS) / ctx.bpp).max(1) * ctx.bpp;
    let wl = Box::new(ctx.start_gap_with(RandomizerKind::HalfRestricted {
        seed: ctx.knobs.seed,
    }));
    let mut b = LlsController::builder(ctx.device(1 + chunk * CHUNKS), wl)
        .chunk_blocks(chunk)
        .max_chunks(CHUNKS);
    if let Some(bytes) = ctx.knobs.cache_bytes {
        b = b.cache_bytes(bytes);
    }
    Box::new(b.build())
}

fn build_zombie(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = Box::new(ctx.start_gap());
    let mut b = ZombieController::builder(ctx.device(1), wl);
    if let Some(bytes) = ctx.knobs.cache_bytes {
        b = b.cache_bytes(bytes);
    }
    Box::new(b.build())
}

fn build_reviver_start_gap(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.start_gap();
    ctx.revive(1, wl)
}

fn build_reviver_security_refresh(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.security_refresh(ctx.knobs.seed);
    ctx.revive(0, wl)
}

fn build_reviver_tiled_start_gap(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = TiledStartGap::builder(ctx.visible)
        .tiles(ctx.knobs.sg_tiles)
        .gap_interval(ctx.knobs.gap_interval)
        .randomizer(ctx.knobs.randomizer())
        .build();
    let tiles = ctx.knobs.sg_tiles;
    ctx.revive(tiles, Leveler::Other(Box::new(wl)))
}

fn build_reviver_two_level_sr(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let inner_region = (ctx.visible & ctx.visible.wrapping_neg()).min(64);
    let wl = Stacked::two_level_security_refresh(
        ctx.visible,
        inner_region,
        ctx.knobs.gap_interval,
        ctx.knobs.gap_interval * 4,
        ctx.knobs.seed,
    );
    ctx.revive(0, Leveler::Other(Box::new(wl)))
}

fn build_reviver_soft_wear(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.soft_wear();
    ctx.revive(0, wl)
}

fn build_reviver_adaptive_start_gap(ctx: &mut StackCtx) -> Box<dyn Controller> {
    let wl = ctx.adaptive_start_gap();
    ctx.revive(1, wl)
}

/// Every registered stack, in canonical sweep order: bare baselines first,
/// then the failure-tolerant baselines, then the revived stacks.
pub const SPECS: &[StackSpec] = &[
    StackSpec {
        name: "ecc",
        title: "EccOnly",
        description: "error correction only; every failure costs a page",
        revivable: false,
        bare: None,
        reserve_frac: None,
        build: build_ecc_only,
    },
    StackSpec {
        name: "sg",
        title: "StartGap",
        description: "Start-Gap, frozen on the first unhidden failure",
        revivable: false,
        bare: None,
        reserve_frac: None,
        build: build_start_gap_only,
    },
    StackSpec {
        name: "sr",
        title: "SecurityRefresh",
        description: "Security Refresh, frozen on the first unhidden failure",
        revivable: false,
        bare: None,
        reserve_frac: None,
        build: build_security_refresh_only,
    },
    StackSpec {
        name: "softwear",
        title: "SoftWear",
        description: "SoftWear table-mapped page sorting, frozen on the first failure",
        revivable: false,
        bare: None,
        reserve_frac: None,
        build: build_soft_wear_only,
    },
    StackSpec {
        name: "adaptive-sg",
        title: "AdaptiveStartGap",
        description: "SAWL-style adaptive Start-Gap, frozen on the first failure",
        revivable: false,
        bare: None,
        reserve_frac: None,
        build: build_adaptive_start_gap_only,
    },
    StackSpec {
        name: "freep",
        title: "Freep",
        description: "FREE-p with a pre-reserved remap region (default 10%)",
        revivable: false,
        bare: Some("sg"),
        reserve_frac: Some(0.1),
        build: build_freep,
    },
    StackSpec {
        name: "lls",
        title: "Lls",
        description: "the LLS salvage baseline",
        revivable: false,
        bare: Some("sg"),
        reserve_frac: None,
        build: build_lls,
    },
    StackSpec {
        name: "zombie",
        title: "Zombie",
        description: "Zombie-adapted baseline: spares from retired pages, WL frozen",
        revivable: false,
        bare: Some("sg"),
        reserve_frac: None,
        build: build_zombie,
    },
    StackSpec {
        name: "reviver-sg",
        title: "ReviverStartGap",
        description: "WL-Reviver over Start-Gap",
        revivable: true,
        bare: Some("sg"),
        reserve_frac: None,
        build: build_reviver_start_gap,
    },
    StackSpec {
        name: "reviver-sr",
        title: "ReviverSecurityRefresh",
        description: "WL-Reviver over Security Refresh",
        revivable: true,
        bare: Some("sr"),
        reserve_frac: None,
        build: build_reviver_security_refresh,
    },
    StackSpec {
        name: "reviver-tiled",
        title: "ReviverTiledStartGap",
        description: "WL-Reviver over region-tiled Start-Gap",
        revivable: true,
        bare: Some("sg"),
        reserve_frac: None,
        build: build_reviver_tiled_start_gap,
    },
    StackSpec {
        name: "reviver-sr2",
        title: "ReviverTwoLevelSecurityRefresh",
        description: "WL-Reviver over two-level Security Refresh",
        revivable: true,
        bare: Some("sr"),
        reserve_frac: None,
        build: build_reviver_two_level_sr,
    },
    StackSpec {
        name: "softwear-wlr",
        title: "ReviverSoftWear",
        description: "WL-Reviver over SoftWear (table-mapped corner of the framework)",
        revivable: true,
        bare: Some("softwear"),
        reserve_frac: None,
        build: build_reviver_soft_wear,
    },
    StackSpec {
        name: "adaptive-sg-wlr",
        title: "ReviverAdaptiveStartGap",
        description: "WL-Reviver over SAWL-style adaptive Start-Gap",
        revivable: true,
        bare: Some("adaptive-sg"),
        reserve_frac: None,
        build: build_reviver_adaptive_start_gap,
    },
];

/// An unknown stack name, carrying the valid names for the error message.
#[derive(Debug, Clone)]
pub struct UnknownStack {
    /// The name that failed to resolve.
    pub name: String,
}

impl core::fmt::Display for UnknownStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown stack {:?}; valid stacks: {}",
            self.name,
            SchemeRegistry::global()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownStack {}

/// The registry of every known controller stack. See the module docs.
#[derive(Debug)]
pub struct SchemeRegistry {
    specs: &'static [StackSpec],
}

static GLOBAL: SchemeRegistry = SchemeRegistry { specs: SPECS };

impl SchemeRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static SchemeRegistry {
        &GLOBAL
    }

    /// All stacks in canonical sweep order.
    pub fn iter(&self) -> impl Iterator<Item = &'static StackSpec> {
        self.specs.iter()
    }

    /// All revived (WL-Reviver) stacks.
    pub fn revivable(&self) -> impl Iterator<Item = &'static StackSpec> {
        self.specs.iter().filter(|s| s.revivable)
    }

    /// Looks a stack up by canonical name or report title.
    pub fn get(&self, name: &str) -> Option<&'static StackSpec> {
        self.specs
            .iter()
            .find(|s| s.name == name || s.title == name)
    }

    /// As [`Self::get`], with an error naming every valid stack.
    pub fn resolve(&self, name: &str) -> Result<&'static StackSpec, UnknownStack> {
        self.get(name).ok_or_else(|| UnknownStack {
            name: name.to_string(),
        })
    }

    /// As [`Self::resolve`] for callers that hard-code registry names (the
    /// builders' `.stack(name)`).
    ///
    /// # Panics
    ///
    /// Panics with the valid-name list if `name` is not registered.
    pub fn expect(&self, name: &str) -> &'static StackSpec {
        self.resolve(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolves a comma-separated stack list (whitespace tolerated,
    /// empty segments ignored).
    pub fn resolve_list(&self, csv: &str) -> Result<Vec<&'static StackSpec>, UnknownStack> {
        csv.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| self.resolve(s))
            .collect()
    }

    /// The canonical names, in sweep order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }
}
