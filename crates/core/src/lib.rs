//! WL-Reviver: reviving any PCM wear-leveling scheme in the face of block
//! failures — a full reproduction of the DSN 2014 paper.
//!
//! State-of-the-art PCM wear leveling (Start-Gap, Security Refresh) maps
//! physical addresses to device addresses with cheap algebraic bijections
//! and ceases to function the moment a single block fails in its working
//! space. WL-Reviver is a framework that hides failures behind *shadow
//! blocks* reached through *virtual shadow blocks* — reserved physical
//! addresses harvested from OS page retirement — so that any unmodified
//! wear-leveling scheme keeps delivering its leveling service, with no OS
//! support beyond the standard access-error exception.
//!
//! The crate layers:
//!
//! * [`reviver::RevivedController`] — the framework (§III of the paper);
//! * [`linked::LinkedController`] — the one engine behind the comparison
//!   columns, which all hide a failed block behind a direct link to a
//!   replacement block and differ only in their [`linked::SpareSupply`]:
//!   * [`freep::FreepController`] — the FREE-p-adapted baseline
//!     (Figure 7) which, at 0% reserve, is also the plain `ECC+WL`
//!     baseline that halts on the first failure (Figures 5 and 6);
//!   * [`lls::LlsController`] — the LLS baseline (Figure 8, Table II);
//!   * [`zombie::ZombieController`] — the Zombie-adapted baseline
//!     (§I-C): incremental page acquisition like WL-Reviver, but direct
//!     DA links that force wear leveling to freeze;
//! * [`cache::RemapCache`] — the 32 KB remap cache of Table II;
//! * [`sim::Simulation`] — the trace-driven simulation loop binding a
//!   workload (`wlr-trace`), the OS model (`wlr-os`), a controller, and
//!   the PCM device (`wlr-pcm`) together. `sim/` holds it in four files:
//!   the state and the one write loop (`mod.rs`; a snapshot is the
//!   state's `Clone`), the builder, the OS side of the failure protocol,
//!   and the integrity oracle;
//! * [`registry`] — the one table of controller stacks, and
//!   [`registry::StackKnobs`], the one copy of the stack knobs' defaults;
//! * [`metrics`] — time-series sampling of survival rate, usable space,
//!   and average access time — the y-axes of the paper's figures.
//!
//! # Quickstart
//!
//! ```
//! use wl_reviver::sim::{Simulation, StopCondition};
//! use wlr_trace::Benchmark;
//!
//! let mut sim = Simulation::builder()
//!     .num_blocks(1 << 12)
//!     .endurance_mean(2_000.0)
//!     .stack("reviver-sg")
//!     .workload(Benchmark::Ocean.build(1 << 12, 7))
//!     .seed(7)
//!     .build();
//! let outcome = sim.run(StopCondition::DeadFraction(0.05));
//! assert!(outcome.writes_issued > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod controller;
pub mod error;
pub mod freep;
pub mod linked;
pub mod lls;
pub mod metrics;
pub mod recovery;
pub mod registry;
pub mod reviver;
pub mod sim;
pub mod zombie;

pub use cache::RemapCache;
pub use controller::{Controller, RequestStats, WriteResult};
pub use error::{BuilderError, ReviverError};
pub use freep::FreepController;
pub use linked::{LinkedBuilder, LinkedController, SpareSupply};
pub use lls::LlsController;
pub use metrics::{WearHistogram, WearReport};
pub use recovery::{DurableImage, PersistedMeta, RecoveryReport, TornMeta};
pub use registry::{SchemeRegistry, StackSpec, UnknownStack};
pub use reviver::{
    EventRing, RecoveryPhase, RevivedController, ReviverCounters, ReviverEvent, ViolationKind,
};
pub use sim::{AppRead, BatchStatus, SimSnapshot, Simulation, StopCondition};
pub use zombie::ZombieController;
