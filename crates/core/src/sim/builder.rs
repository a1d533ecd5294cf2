//! [`SimulationBuilder`]: the configuration surface, and the one place a
//! [`Simulation`] is assembled from the registry's stack, the OS model
//! and a workload.

use super::{Simulation, LOOKAHEAD};
use crate::metrics::TimeSeries;
use crate::registry::{DeviceParts, SchemeRegistry, StackCtx, StackKnobs, StackSpec};
use wlr_base::dense::DenseMap;
use wlr_base::rng::Rng;
use wlr_base::{AppAddr, Geometry};
use wlr_os::OsMemory;
use wlr_pcm::{Ecp, ErrorCorrection, FaultPlan, Payg};
use wlr_trace::{UniformWorkload, Workload};
use wlr_wl::RandomizerKind;

/// Which error-correction scheme to configure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EccKind {
    /// ECP with `k` entries per block (the paper's base is ECP6).
    Ecp(u32),
    /// PAYG with a pool of `ratio` entries per block (paper default 0.77).
    Payg {
        /// Global pool entries per block.
        ratio: f64,
    },
}

/// Builder for [`Simulation`]; see [`Simulation::builder`].
#[derive(Debug)]
pub struct SimulationBuilder {
    num_blocks: u64,
    block_bytes: u64,
    page_bytes: u64,
    endurance_mean: f64,
    endurance_cov: f64,
    ecc: EccKind,
    stack: &'static StackSpec,
    freep_reserve_frac: Option<f64>,
    knobs: StackKnobs,
    os_reserve_pages: u64,
    sample_interval: u64,
    workload: Option<Box<dyn Workload>>,
    verify_integrity: bool,
    hard_cap: u64,
    fault_plan: Option<FaultPlan>,
    trace_ring: Option<usize>,
}

impl SimulationBuilder {
    /// Total PCM capacity in blocks (default 2¹⁶ = 4 MB of 64 B blocks).
    /// FREE-p's pre-reserve is carved out of this.
    pub fn num_blocks(mut self, blocks: u64) -> Self {
        self.num_blocks = blocks;
        self
    }

    /// Mean cell endurance in writes (default 10⁴; the paper's chip is
    /// 10⁸ — see DESIGN.md §3.2 on scaling).
    pub fn endurance_mean(mut self, mean: f64) -> Self {
        self.endurance_mean = mean;
        self
    }

    /// Cell-lifetime CoV (default 0.2, as in the paper).
    pub fn endurance_cov(mut self, cov: f64) -> Self {
        self.endurance_cov = cov;
        self
    }

    /// Error-correction scheme (default ECP6).
    pub fn ecc(mut self, ecc: EccKind) -> Self {
        self.ecc = ecc;
        self
    }

    /// Controller stack by registry name (e.g. `"reviver-sg"`,
    /// `"softwear-wlr"`) or report title (e.g. `"ReviverStartGap"`);
    /// default `"reviver-sg"`. Callers needing graceful errors resolve
    /// through [`SchemeRegistry::resolve`] themselves and pass the
    /// spec's name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name, listing the valid stacks.
    pub fn stack(mut self, name: &str) -> Self {
        self.stack = SchemeRegistry::global().expect(name);
        self
    }

    /// Fraction of the total PCM that FREE-p pre-reserves for remapping
    /// (Figure 7 sweeps it; default: the stack's own, 10% for `"freep"`).
    /// [`Self::build`] panics if the selected stack has no pre-reserve.
    pub fn freep_reserve_frac(mut self, frac: f64) -> Self {
        self.freep_reserve_frac = Some(frac);
        self
    }

    /// ψ: writes per leveler migration step — a Start-Gap gap movement, a
    /// Security Refresh swap, a SoftWear hot↔cold swap (default 100, as
    /// in the paper).
    pub fn gap_interval(mut self, psi: u64) -> Self {
        self.knobs.gap_interval = psi;
        self
    }

    /// Remap cache size in bytes (Table II uses 32 KB; default none).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.knobs.cache_bytes = Some(bytes);
        self
    }

    /// OS free-page reserve (default 0).
    pub fn os_reserve_pages(mut self, pages: u64) -> Self {
        self.os_reserve_pages = pages;
        self
    }

    /// Writes between time-series samples (default: visible blocks / 4,
    /// clamped to at least 1024).
    pub fn sample_interval(mut self, writes: u64) -> Self {
        self.sample_interval = writes;
        self
    }

    /// Experiment seed; drives cell lifetimes, keys, and the default
    /// workload.
    pub fn seed(mut self, seed: u64) -> Self {
        self.knobs.seed = seed;
        self
    }

    /// The write workload. Its address space must equal the application
    /// space (`visible blocks − OS reserve`); defaults to uniform writes.
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// As [`Self::workload`] for an already-boxed trait object.
    pub fn workload_boxed(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Enables the data-integrity oracle: every application block's
    /// expected content is tracked and reads are cross-checked (costs
    /// memory and time; used by the tests).
    pub fn verify_integrity(mut self, on: bool) -> Self {
        self.verify_integrity = on;
        self
    }

    /// Enables WL-Reviver's Theorem 1–3 assertions per request (tests).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.knobs.check_invariants = on;
        self
    }

    /// Safety cap on total writes (default 10¹²).
    pub fn hard_cap(mut self, writes: u64) -> Self {
        self.hard_cap = writes;
        self
    }

    /// Overrides Start-Gap's static randomizer (default: Feistel seeded
    /// by the experiment seed). Ablation knob.
    pub fn sg_randomizer(mut self, kind: RandomizerKind) -> Self {
        self.knobs.sg_randomizer = Some(kind);
        self
    }

    /// Tile count for the `"reviver-tiled"` stack (default 16).
    pub fn sg_tiles(mut self, tiles: u64) -> Self {
        self.knobs.sg_tiles = tiles;
        self
    }

    /// WL-Reviver pointer width in bytes (sizes the inverse-pointer
    /// section; default 4). Ablation knob.
    pub fn reviver_pointer_bytes(mut self, bytes: u64) -> Self {
        self.knobs.reviver_pointer_bytes = bytes;
        self
    }

    /// Disables WL-Reviver's one-step-chain switching (ablation).
    pub fn reviver_chain_switching(mut self, on: bool) -> Self {
        self.knobs.reviver_chain_switching = on;
        self
    }

    /// Enables WL-Reviver's proactive page acquisition (the §III-A
    /// alternative; ablation).
    pub fn reviver_proactive(mut self, on: bool) -> Self {
        self.knobs.reviver_proactive = on;
        self
    }

    /// Attaches a bounded [`EventRing`] of `events` capacity to a
    /// WL-Reviver controller, retaining the newest events for post-mortem
    /// dumps ([`Simulation::trace_dump`]) after a power loss or an
    /// invariant violation. Ignored by non-reviver schemes.
    ///
    /// [`EventRing`]: crate::reviver::EventRing
    pub fn trace_ring(mut self, events: usize) -> Self {
        self.trace_ring = Some(events);
        self
    }

    /// Installs a fault-injection schedule on the device (power losses,
    /// silent write failures, transient read errors). An empty plan is
    /// equivalent to none: the fault machinery stays entirely out of the
    /// hot path and runs are bit-identical to fault-free ones.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// `(visible, reserved)` blocks: the total minus any FREE-p
    /// pre-reserve, page-aligned.
    fn visible_and_reserve(&self) -> (u64, u64) {
        assert!(
            self.freep_reserve_frac.is_none() || self.stack.reserve_frac.is_some(),
            "stack {:?} has no pre-reserve for freep_reserve_frac to size",
            self.stack.name
        );
        let bpp = self.page_bytes / self.block_bytes;
        let (visible, reserve) = match self.freep_reserve_frac.or(self.stack.reserve_frac) {
            Some(frac) => {
                assert!(
                    (0.0..1.0).contains(&frac),
                    "reserve fraction must be in [0,1)"
                );
                let reserve_pages = ((self.num_blocks as f64 * frac) / bpp as f64).round() as u64;
                (self.num_blocks - reserve_pages * bpp, reserve_pages * bpp)
            }
            None => (self.num_blocks - self.num_blocks % bpp, 0),
        };
        assert!(visible >= bpp, "no visible space left after reservation");
        (visible, reserve)
    }

    /// The application address space this configuration will present —
    /// visible blocks minus the OS reserve — which is the length the
    /// [workload](Self::workload) must have.
    ///
    /// # Panics
    ///
    /// As [`Self::build`] on an inconsistent reserve configuration.
    pub fn app_blocks(&self) -> u64 {
        let bpp = self.page_bytes / self.block_bytes;
        self.visible_and_reserve().0 - self.os_reserve_pages * bpp
    }

    /// Constructs the simulation.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (mismatched workload size,
    /// invalid geometry, reserve fractions outside `[0, 1)`, or
    /// [`Self::freep_reserve_frac`] on a stack without a pre-reserve).
    pub fn build(self) -> Simulation {
        let bpp = self.page_bytes / self.block_bytes;
        let (visible, reserve_blocks) = self.visible_and_reserve();
        let geo = Geometry::builder()
            .block_bytes(self.block_bytes)
            .page_bytes(self.page_bytes)
            .num_blocks(visible)
            .build()
            .expect("geometry parameters are validated above");

        let ecc: Box<dyn ErrorCorrection> = match self.ecc {
            EccKind::Ecp(k) => Box::new(Ecp::new(k)),
            EccKind::Payg { ratio } => Box::new(Payg::with_ratio(self.num_blocks, ratio)),
        };

        let fault_active = self.fault_plan.as_ref().is_some_and(|p| !p.is_empty());

        // All stack construction lives in the scheme registry; the builder
        // only prepares the context (knobs + one-shot device ingredients).
        let mut ctx = StackCtx::new(
            visible,
            reserve_blocks,
            bpp,
            self.knobs,
            DeviceParts {
                geo,
                endurance_mean: self.endurance_mean,
                endurance_cov: self.endurance_cov,
                track_contents: self.verify_integrity,
                ecc,
                fault_plan: self.fault_plan,
            },
        );
        let mut controller = self.stack.build_stack(&mut ctx);
        if let (Some(r), Some(cap)) = (controller.as_reviver_mut(), self.trace_ring) {
            r.record_events(cap);
        }

        let os = OsMemory::builder(geo)
            .reserve_pages(self.os_reserve_pages)
            .build();
        let app_blocks = os.app_blocks();
        let workload = match self.workload {
            Some(w) => {
                assert_eq!(
                    w.len(),
                    app_blocks,
                    "workload space ({}) must equal the application space ({app_blocks})",
                    w.len()
                );
                w
            }
            None => Box::new(UniformWorkload::new(app_blocks, self.knobs.seed)),
        };

        let sample_interval = if self.sample_interval == 0 {
            (visible / 4).max(1024)
        } else {
            self.sample_interval
        };

        Simulation {
            geo,
            os,
            controller,
            workload,
            lookahead: [AppAddr::new(0); LOOKAHEAD],
            drawn_at: LOOKAHEAD,
            writes_issued: 0,
            seq: 0,
            series: TimeSeries::new(),
            sample_interval,
            last_req: (0, 0),
            next_sample: sample_interval,
            expected: self
                .verify_integrity
                .then(|| DenseMap::with_capacity(app_blocks)),
            verify_rng: Rng::stream(self.knobs.seed, 0x07AC1E),
            integrity_errors: 0,
            retirements: 0,
            grants: 0,
            lost_writes: 0,
            hard_cap: self.hard_cap,
            fault_active,
            silent_seen: 0,
        }
    }
}

impl Simulation {
    /// Starts building a simulation with the scaled default configuration
    /// (see DESIGN.md §6).
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            num_blocks: 1 << 16,
            block_bytes: 64,
            page_bytes: 4096,
            endurance_mean: 1e4,
            endurance_cov: 0.2,
            ecc: EccKind::Ecp(6),
            stack: SchemeRegistry::global().expect("reviver-sg"),
            freep_reserve_frac: None,
            knobs: StackKnobs::default(),
            os_reserve_pages: 0,
            sample_interval: 0,
            workload: None,
            verify_integrity: false,
            hard_cap: 1_000_000_000_000,
            fault_plan: None,
            trace_ring: None,
        }
    }
}
