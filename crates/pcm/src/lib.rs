//! Phase-change-memory device model.
//!
//! This crate simulates the PCM chip the WL-Reviver paper evaluates on
//! (§IV-A): 64 B memory blocks, per-cell write endurance drawn from a
//! normal distribution (mean 10⁸, lifetime CoV 0.2 in the paper; scaled in
//! the default experiments), and pluggable error-correction schemes that
//! decide when accumulated cell failures kill a block:
//!
//! * [`ecc::Ecp`] — Error-Correcting Pointers with `k` entries per 512-bit
//!   group (the paper's base scheme is ECP6);
//! * [`ecc::Payg`] — Pay-As-You-Go: local ECP1 plus a global pool of
//!   correction entries allocated on demand.
//!
//! The central type is [`device::PcmDevice`]: it owns per-block wear
//! counters, lazily materializes each block's cell-failure thresholds from
//! order statistics ([`lifetime`]), routes cell failures through the ECC
//! scheme, and keeps access accounting used for the paper's "average access
//! time in number of PCM accesses" metric (Table II).
//!
//! The device is deliberately *dumb*: it performs no address remapping and
//! no failure hiding. Wear-leveling lives in `wlr-wl`, and failure revival
//! (the paper's contribution) lives in the `wl-reviver` crate, layered on
//! top of this model.
//!
//! # Example
//!
//! ```
//! use wlr_base::{Da, Geometry};
//! use wlr_pcm::device::{PcmDevice, WriteOutcome};
//! use wlr_pcm::ecc::Ecp;
//!
//! let geo = Geometry::builder().num_blocks(64).build()?;
//! let mut dev = PcmDevice::builder(geo)
//!     .endurance_mean(1_000.0)
//!     .seed(42)
//!     .ecc(Box::new(Ecp::ecp6()))
//!     .build();
//!
//! // Hammer one block until it dies.
//! let da = Da::new(3);
//! let mut writes = 0u64;
//! loop {
//!     writes += 1;
//!     if dev.write_tagged(da, writes) == WriteOutcome::NewFailure {
//!         break;
//!     }
//! }
//! assert!(dev.is_dead(da));
//! assert!(writes > 100); // ECP6 tolerates the first six weak cells
//! # Ok::<(), wlr_base::geometry::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod ecc;
pub mod fault;
pub mod lifetime;

pub use device::{AccessStats, PcmDevice, PcmDeviceBuilder, ReadOutcome, WriteOutcome};
pub use ecc::{Ecp, ErrorCorrection, Payg};
pub use fault::{CrashPoint, FaultCounters, FaultPlan};
pub use lifetime::LifetimeModel;

#[cfg(test)]
mod laws;
