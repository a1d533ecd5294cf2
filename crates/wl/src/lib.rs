//! PCM wear-leveling schemes.
//!
//! The paper's premise (§I-A) is that practical PCM wear-leveling runs in
//! the memory controller with *algebraic* PA→DA mapping functions — no
//! per-block indirection tables — and periodically migrates data so every
//! block absorbs an even share of writes. This crate implements the two
//! state-of-the-art schemes the paper names, behind one trait:
//!
//! * [`start_gap::StartGap`] — Qureshi et al., MICRO'09: one spare *gap*
//!   line rotates through the space, shifting one line's data every ψ
//!   writes, composed with a static address randomizer to break spatial
//!   locality.
//! * [`security_refresh::SecurityRefresh`] — Seong et al., ISCA'10:
//!   region-local XOR remapping with a current and a previous random key;
//!   a refresh pointer gradually re-encrypts the region by *swapping*
//!   block pairs.
//! * [`none::NoWearLeveling`] — identity mapping, no migrations (baseline).
//!
//! The [`traits::WearLeveler`] interface mirrors the paper's framework
//! contract (§III): the only operation a scheme needs from the outside
//! world is "migrate data into a memory block" — surfaced here as
//! [`traits::Migration`] values that the caller executes against the
//! device and then acknowledges with
//! [`traits::WearLeveler::complete_migration`]. The acknowledgement is
//! what lets WL-Reviver *suspend* a migration when it has no spare block
//! available (§III-A) without the scheme ever knowing.
//!
//! # Example
//!
//! ```
//! use wlr_base::Pa;
//! use wlr_wl::prelude::*;
//!
//! let mut wl = StartGap::builder(128)
//!     .gap_interval(4)
//!     .randomizer(RandomizerKind::Feistel { seed: 7 })
//!     .build();
//!
//! // The mapping is a bijection onto 129 device blocks (one gap line).
//! let da = wl.map(Pa::new(5));
//! assert_eq!(wl.inverse(da), Some(Pa::new(5)));
//!
//! // Every 4th serviced write arms one gap movement.
//! for _ in 0..4 {
//!     wl.record_write(Pa::new(0));
//! }
//! let m = wl.pending().expect("a migration is armed");
//! // ... caller copies the data m.src -> m.dst on the device ...
//! wl.complete_migration();
//! assert!(wl.pending().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
#[cfg(test)]
mod laws;
pub mod none;
pub mod randomizer;
pub mod security_refresh;
pub mod softwear;
pub mod stacked;
pub mod start_gap;
pub mod tiled;
pub mod traits;

pub use adaptive::Adaptive;
pub use none::NoWearLeveling;
pub use randomizer::{
    AddressRandomizer, FeistelRandomizer, HalfRestrictedRandomizer, IdentityRandomizer,
    MemoizedRandomizer, RandomizerKind, TableRandomizer,
};
pub use security_refresh::SecurityRefresh;
pub use softwear::SoftWear;
pub use stacked::Stacked;
pub use start_gap::StartGap;
pub use tiled::TiledStartGap;
pub use traits::{Leveler, Migration, WearLeveler};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::adaptive::Adaptive;
    pub use crate::none::NoWearLeveling;
    pub use crate::randomizer::RandomizerKind;
    pub use crate::security_refresh::SecurityRefresh;
    pub use crate::softwear::SoftWear;
    pub use crate::stacked::Stacked;
    pub use crate::start_gap::StartGap;
    pub use crate::tiled::TiledStartGap;
    pub use crate::traits::{Leveler, Migration, WearLeveler};
}
