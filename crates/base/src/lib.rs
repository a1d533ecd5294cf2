//! Foundation types for the WL-Reviver PCM simulation stack.
//!
//! This crate hosts everything the higher layers share and that must be
//! bit-for-bit deterministic across runs:
//!
//! * [`addr`] — newtypes for the three address spaces the paper
//!   distinguishes: application addresses, software-visible *physical
//!   addresses* (PA), and device addresses (DA), plus OS page identifiers.
//! * [`geometry`] — the chip/page/block geometry every component agrees on.
//! * [`mod@env`] — the one strict parser for `WLR_*` environment knobs
//!   (malformed value → exit 2 naming the variable).
//! * [`rng`] — a small, seed-stable pseudo-random number generator
//!   (SplitMix64 for stream derivation, Xoshiro256** for bulk generation).
//!   We deliberately do not depend on external RNG crates: experiment
//!   reproducibility depends on the exact generator, and owning it keeps
//!   every figure regenerable forever.
//! * [`interleave`] — the bank-interleaved address split used by the
//!   multi-bank memory-controller front-end (`wlr-mc`): global block
//!   address ↔ `(bank, local address)`, at cache-line or page striping.
//! * [`pool`] — the shared work-stealing worker pool (scoped threads, so
//!   jobs may borrow; results in input order) used by the experiment
//!   harness and the front-end's parallel bank stepping.
//! * [`spsc`] — bounded lock-free single-producer/single-consumer rings,
//!   the transport between the front-end and its pinned per-bank drain
//!   workers.
//! * [`stats`] — the special functions the PCM lifetime model needs
//!   (inverse normal CDF, successive uniform order statistics) and summary
//!   statistics (mean/CoV/percentiles) used by the workload generators and
//!   the experiment harness.
//!
//! # Example
//!
//! ```
//! use wlr_base::geometry::Geometry;
//! use wlr_base::rng::Rng;
//!
//! let geo = Geometry::builder().num_blocks(1 << 16).build()?;
//! assert_eq!(geo.blocks_per_page(), 64);
//!
//! let mut rng = Rng::seed_from(42);
//! let x = rng.next_u64();
//! let y = Rng::seed_from(42).next_u64();
//! assert_eq!(x, y); // seed-stable
//! # Ok::<(), wlr_base::geometry::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dense;
pub mod env;
pub mod geometry;
pub mod interleave;
pub mod pool;
pub mod rng;
pub mod spsc;
pub mod stats;

pub use addr::{AppAddr, Da, Pa, PageId};
pub use geometry::Geometry;
pub use interleave::{Interleave, InterleaveMap};
pub use pool::{run_pooled, PooledJob};
pub use rng::Rng;
