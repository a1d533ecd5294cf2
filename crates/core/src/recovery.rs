//! Persistent controller metadata and the crash-recovery report.
//!
//! On real hardware the revival framework's durable state lives in the
//! PCM itself: each failed block stores its virtual-shadow pointer (plus a
//! status bit), retired pages are recorded in a bitmap, and an in-flight
//! migration's lines sit in a small battery-backed journal so a power cut
//! mid-migration loses nothing. [`PersistedMeta`] models exactly that
//! durable subset — the controller mirrors every *committed* metadata
//! write into it, and [`crate::reviver::RevivedController::recover`]
//! rebuilds all volatile tables (inverse pointers, the spare-PA pool,
//! the remap cache) from it after a simulated reboot; the pointer-section
//! layout is computed from the retired-page bitmap.
//!
//! The mirror is updated only when the corresponding device write actually
//! commits (i.e. the device was powered): a write the injector dropped
//! leaves the mirror at its pre-crash value, which is how torn states —
//! a half-completed virtual-shadow switch, a link whose pointer write
//! never landed — arise and get exercised.

use std::collections::VecDeque;
use wlr_base::dense::DenseMap;
use wlr_base::{Da, Pa};

/// Magic/version tag leading a serialized [`PersistedMeta`] image.
const META_MAGIC: u64 = 0x574C_524D_4554_4131; // "WLRMETA1"

/// The serialized image was torn or corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornMeta(pub String);

impl core::fmt::Display for TornMeta {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "torn persisted metadata: {}", self.0)
    }
}

impl std::error::Error for TornMeta {}

/// The controller state that survives a power cut.
#[derive(Debug, Clone)]
pub struct PersistedMeta {
    /// Failed DA → virtual shadow PA, as actually committed to the failed
    /// blocks themselves (§III-B: the pointer is written *into* the dead
    /// block).
    pub ptr: DenseMap<Pa>,
    /// The retired-page bitmap (§III-A).
    pub retired: Vec<bool>,
    /// In-flight migration lines `(post-mapping target, data)` — the
    /// battery-backed migration journal. Replayed by recovery.
    pub journal: VecDeque<(Da, u64)>,
}

impl PersistedMeta {
    /// Empty metadata for a device of `total_blocks` blocks and
    /// `num_pages` software-visible pages.
    pub fn new(total_blocks: u64, num_pages: u64) -> Self {
        PersistedMeta {
            ptr: DenseMap::with_capacity(total_blocks),
            retired: vec![false; num_pages as usize],
            journal: VecDeque::new(),
        }
    }

    /// Serializes to a little-endian `u64` image (the layout a firmware
    /// scan of the PCM metadata region would produce).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut words: Vec<u64> = Vec::with_capacity(
            5 + 2 * self.ptr.len() + self.retired.len().div_ceil(64) + 2 * self.journal.len(),
        );
        words.push(META_MAGIC);
        words.push(self.ptr.capacity());
        words.push(self.ptr.len() as u64);
        words.push(self.retired.len() as u64);
        words.push(self.journal.len() as u64);
        for (da, v) in self.ptr.iter() {
            words.push(da);
            words.push(v.index());
        }
        let mut word = 0u64;
        for (i, &r) in self.retired.iter().enumerate() {
            if r {
                word |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                words.push(word);
                word = 0;
            }
        }
        if !self.retired.len().is_multiple_of(64) {
            words.push(word);
        }
        for &(da, tag) in &self.journal {
            words.push(da.index());
            words.push(tag);
        }
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Parses a serialized image of a `total_blocks`-block device,
    /// rejecting torn (truncated or inconsistent) data — the
    /// graceful-suspension path for a corrupt metadata region. Every
    /// length the image declares is checked before anything is allocated
    /// from it: the counted sections against the words that remain, and
    /// the table capacity — which the image's size cannot bound — against
    /// the device the caller is restoring.
    pub fn from_bytes(bytes: &[u8], total_blocks: u64) -> Result<Self, TornMeta> {
        if !bytes.len().is_multiple_of(8) {
            return Err(TornMeta("image is not a whole number of words".into()));
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        let mut it = words.iter().copied();
        let mut next = |what: &str| {
            it.next()
                .ok_or_else(|| TornMeta(format!("truncated {what}")))
        };
        if next("magic")? != META_MAGIC {
            return Err(TornMeta("bad magic".into()));
        }
        let cap = next("ptr capacity")?;
        let ptr_len = next("ptr length")?;
        let pages = next("page count")?;
        let journal_len = next("journal length")?;
        if cap != total_blocks {
            return Err(TornMeta(format!(
                "image of a {cap}-block device, expected {total_blocks}"
            )));
        }
        // The body is exactly these three sections; a declared length that
        // disagrees with the words present is torn, whichever way.
        let body =
            2 * u128::from(ptr_len) + u128::from(pages.div_ceil(64)) + 2 * u128::from(journal_len);
        if ptr_len > cap || body != (words.len() - 5) as u128 {
            return Err(TornMeta(
                "declared lengths disagree with the image size".into(),
            ));
        }
        let pages = pages as usize;
        let mut ptr = DenseMap::with_capacity(cap);
        for _ in 0..ptr_len {
            let da = next("ptr key")?;
            let v = next("ptr value")?;
            if da >= cap || v >= cap {
                return Err(TornMeta(format!("pointer {da}->{v} outside device")));
            }
            if ptr.insert(da, Pa::new(v)).is_some() {
                return Err(TornMeta(format!("block {da} has two pointers")));
            }
        }
        let mut retired = vec![false; pages];
        for chunk in 0..pages.div_ceil(64) {
            let word = next("retired bitmap")?;
            for bit in 0..64 {
                let i = chunk * 64 + bit;
                if i < pages {
                    retired[i] = word & (1 << bit) != 0;
                }
            }
        }
        let mut journal = VecDeque::with_capacity(journal_len as usize);
        for _ in 0..journal_len {
            let da = next("journal target")?;
            let tag = next("journal tag")?;
            if da >= cap {
                return Err(TornMeta(format!("journal target {da} outside device")));
            }
            journal.push_back((Da::new(da), tag));
        }
        Ok(PersistedMeta {
            ptr,
            retired,
            journal,
        })
    }
}

/// One simulation's durable state — everything the paper models as
/// surviving a power-off: captured by
/// [`crate::sim::Simulation::durable_image`], replayed into a freshly built
/// simulation of the same configuration by
/// [`crate::sim::Simulation::restore_durable`]. Volatile state (leveler
/// registers, caches, the oracle) is deliberately absent: a reboot loses
/// it and recovery rebuilds what §III-B says is rebuildable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableImage {
    /// Full device wear snapshot (reviver-reserved blocks included);
    /// replayed exactly by `PcmDevice::restore_wear_image`.
    pub wear: Vec<u32>,
    /// Dead block indices at capture time. Deaths replay
    /// deterministically from `wear`; restore checks they came out the same.
    pub dead: Vec<u64>,
    /// OS page retirements in retirement order — the page table is a pure
    /// function of that order.
    pub retirements: Vec<u64>,
    /// Serialized [`PersistedMeta`].
    pub meta: Vec<u8>,
}

/// What a [`crate::reviver::RevivedController::recover`] pass did — the
/// recovery-cost record `crash_sweep` aggregates per stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// PCM blocks scanned to rebuild volatile state (retired-page
    /// sections plus every persisted link).
    pub blocks_scanned: u64,
    /// Links rebuilt from persisted failed-block pointers.
    pub links_recovered: u64,
    /// Persisted pointers discarded as torn (their grant never committed,
    /// or their block is not actually dead).
    pub torn_links_dropped: u64,
    /// Half-completed virtual-shadow switches detected (two blocks
    /// claiming one shadow) and repaired by reassigning the orphan.
    pub torn_switch_repairs: u64,
    /// Inverse-pointer entries rebuilt.
    pub inv_rebuilt: u64,
    /// Spare PAs recovered by scanning retired pages.
    pub spares_recovered: u64,
    /// Journaled migration lines replayed.
    pub migration_replays: u64,
    /// Unlinked software-accessible dead blocks healed with a spare.
    pub healed_links: u64,
    /// Such blocks left unhealed for lack of spares (they heal lazily on
    /// the next touch, or via a failure report).
    pub unhealed_dead: u64,
    /// Whether the controller came back suspended (replay needed a spare
    /// that does not exist yet).
    pub suspended: bool,
    /// Whether an unrepairable torn state forced a link to be dropped
    /// (the block re-enters the undiscovered-failure path).
    pub degraded: bool,
}

impl RecoveryReport {
    /// Accumulates another report (bench aggregation across crash points).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.blocks_scanned += other.blocks_scanned;
        self.links_recovered += other.links_recovered;
        self.torn_links_dropped += other.torn_links_dropped;
        self.torn_switch_repairs += other.torn_switch_repairs;
        self.inv_rebuilt += other.inv_rebuilt;
        self.spares_recovered += other.spares_recovered;
        self.migration_replays += other.migration_replays;
        self.healed_links += other.healed_links;
        self.unhealed_dead += other.unhealed_dead;
        self.suspended |= other.suspended;
        self.degraded |= other.degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PersistedMeta {
        let mut m = PersistedMeta::new(300, 5);
        m.ptr.insert(3, Pa::new(130));
        m.ptr.insert(250, Pa::new(131));
        m.retired[2] = true;
        m.retired[4] = true;
        m.journal.push_back((Da::new(9), 777));
        m.journal.push_back((Da::new(10), 778));
        m
    }

    #[test]
    fn round_trips_through_bytes() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = PersistedMeta::from_bytes(&bytes, 300).expect("clean image parses");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.retired, m.retired);
        assert_eq!(back.journal, m.journal);
        assert_eq!(
            back.ptr.iter().collect::<Vec<_>>(),
            m.ptr.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_meta_round_trips() {
        let m = PersistedMeta::new(64, 1);
        let back = PersistedMeta::from_bytes(&m.to_bytes(), 64).unwrap();
        assert!(back.ptr.is_empty());
        assert_eq!(back.retired, vec![false]);
        assert!(back.journal.is_empty());
    }

    #[test]
    fn truncated_image_is_torn() {
        let bytes = sample().to_bytes();
        for cut in [0, 8, 16, bytes.len() - 8, bytes.len() - 1] {
            assert!(
                PersistedMeta::from_bytes(&bytes[..cut], 300).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn bad_magic_and_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(PersistedMeta::from_bytes(&bytes, 300).is_err());
        let mut ok = sample().to_bytes();
        ok.extend_from_slice(&[0u8; 8]);
        assert!(
            PersistedMeta::from_bytes(&ok, 300).is_err(),
            "trailing garbage must be rejected"
        );
    }

    #[test]
    fn out_of_range_pointer_rejected() {
        let mut m = PersistedMeta::new(300, 5);
        m.ptr.insert(3, Pa::new(130));
        let mut bytes = m.to_bytes();
        // Patch the pointer value (word 6: magic, cap, len, pages,
        // journal, key, value) to exceed the capacity.
        let off = 6 * 8;
        bytes[off..off + 8].copy_from_slice(&10_000u64.to_le_bytes());
        let err = PersistedMeta::from_bytes(&bytes, 300).unwrap_err();
        assert!(err.to_string().contains("outside device"), "{err}");
    }

    /// ROADMAP 1(c), first decoder: a real image from a worn run, with
    /// every word replaced by each of six hostile values and every
    /// word-aligned truncation. `from_bytes` answers `Ok` or `TornMeta` —
    /// it never panics and never allocates from a length it has not
    /// checked (`u64::MAX` in words 1–4 is the proof) — and whatever
    /// parses either restores or is refused by `restore_from`.
    #[test]
    fn mutated_images_parse_or_are_torn_and_never_panic() {
        use crate::sim::{Simulation, StopCondition};
        let mut sim = Simulation::builder()
            .num_blocks(1 << 10)
            .endurance_mean(1_500.0)
            .gap_interval(10)
            .stack("reviver-sg")
            .seed(5)
            .build();
        sim.run(StopCondition::DeadFraction(0.05));
        let snap = sim.snapshot();
        let blocks = sim.controller().device().total_blocks();
        let live = sim.controller().as_reviver().unwrap();
        assert!(live.linked_blocks() > 20, "the image must hold real links");
        let image = live.persisted_meta().to_bytes();
        assert!(PersistedMeta::from_bytes(&image, blocks).is_ok());
        assert!(PersistedMeta::from_bytes(&image, blocks + 1).is_err());

        for cut in (0..image.len()).step_by(8) {
            assert!(
                PersistedMeta::from_bytes(&image[..cut], blocks).is_err(),
                "truncation to {cut} bytes must be torn"
            );
        }
        let (mut parsed, mut restored) = (0, 0);
        for at in (0..image.len()).step_by(8) {
            let word = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
            for hostile in [0, 1, u64::MAX, word ^ 1, word ^ (1 << 31), word ^ (1 << 63)] {
                let mut bytes = image.clone();
                bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                let Ok(meta) = PersistedMeta::from_bytes(&bytes, blocks) else {
                    continue;
                };
                parsed += 1;
                let mut fork = Simulation::fork(&snap);
                let ctl = fork.controller_mut().as_reviver_mut().unwrap();
                restored += u32::from(ctl.restore_from(meta).is_ok());
            }
        }
        assert!(
            parsed > 0 && restored > 0,
            "{parsed} parsed, {restored} restored"
        );

        // A well-formed image of some other device is refused, not indexed.
        let other = PersistedMeta::new(blocks, 3);
        let mut fork = Simulation::fork(&snap);
        let ctl = fork.controller_mut().as_reviver_mut().unwrap();
        assert!(ctl.restore_from(other).is_err());
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = RecoveryReport {
            blocks_scanned: 10,
            links_recovered: 2,
            ..Default::default()
        };
        let b = RecoveryReport {
            blocks_scanned: 5,
            migration_replays: 3,
            suspended: true,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.blocks_scanned, 15);
        assert_eq!(a.links_recovered, 2);
        assert_eq!(a.migration_replays, 3);
        assert!(a.suspended);
        assert!(!a.degraded);
    }
}
