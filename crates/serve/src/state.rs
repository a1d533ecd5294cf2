//! Crash persistence: the device image the daemon writes on shutdown
//! and replays at boot.
//!
//! The image carries, per bank, a [`DurableImage`] — everything the
//! paper models as durable (wear state, OS page-retirement order, the
//! reviver's persisted metadata); core owns what is in it and the
//! §III-B reboot that replays it
//! (`Simulation::{durable_image, restore_durable}`), whose recovery scan
//! emits every phase into the live sinks. This module owns the file
//! format. Volatile state — wear-leveling registers, caches, queue
//! contents — is deliberately *not* captured: a restart loses it,
//! exactly as a power cut would, and recovery rebuilds what the paper
//! says is rebuildable.
//!
//! Since the degraded-mode work the image also carries the front-end's
//! quarantine state (dead banks, substitute chain, the migrated-line
//! directory), so a daemon that lost a bank resumes serving at N−1
//! immediately after recovery instead of rediscovering the death.
//!
//! Format: little-endian `u64` words, a leading magic, a trailing commit
//! marker, written to a temp file and renamed into place so a crash
//! mid-save leaves the previous image intact.

use std::io;
use std::path::Path;

use wl_reviver::{DurableImage, RecoveryReport, TornMeta};
use wlr_base::pool::{run_pooled, PooledJob};
use wlr_mc::{McFrontend, QuarantineImage};

const MAGIC: u64 = 0x574c_5253_4552_5633; // "WLRSERV3"
const COMMIT: u64 = 0x434f_4d4d_4954_4f4b; // "COMMITOK"

/// FNV-1a of a registry stack name — the image identity stores the hash
/// so the header stays fixed-width `u64` words.
pub fn scheme_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The whole daemon image: the configuration identity it was captured
/// under, plus every bank.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// Bank count.
    pub banks: u64,
    /// Global block space.
    pub total_blocks: u64,
    /// Experiment seed.
    pub seed: u64,
    /// `endurance_mean.to_bits()`.
    pub endurance_bits: u64,
    /// Start-Gap ψ.
    pub gap_interval: u64,
    /// [`scheme_hash`] of the registry stack the banks were built with.
    pub scheme: u64,
    /// Requests serviced over all prior lifetimes (informational).
    pub serviced: u64,
    /// Quarantine state at capture time (`None` when the front-end is
    /// not running in degraded mode).
    pub quarantine: Option<QuarantineImage>,
    /// Per-bank durable state, in bank order.
    pub per_bank: Vec<DurableImage>,
}

impl StateImage {
    /// Whether this image was captured under the configuration `identity`
    /// (the six words [`capture`] takes, in that order).
    pub fn matches(&self, identity: [u64; 6]) -> bool {
        identity
            == [
                self.banks,
                self.total_blocks,
                self.seed,
                self.endurance_bits,
                self.gap_interval,
                self.scheme,
            ]
    }

    /// Serializes to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.word(MAGIC);
        for v in [
            self.banks,
            self.total_blocks,
            self.seed,
            self.endurance_bits,
            self.gap_interval,
            self.scheme,
            self.serviced,
        ] {
            w.word(v);
        }
        match &self.quarantine {
            None => w.word(0),
            Some(q) => {
                w.word(1);
                w.word(q.dead.len() as u64);
                for &d in &q.dead {
                    w.word(u64::from(d));
                }
                w.word(q.substitutes.len() as u64);
                for &s in &q.substitutes {
                    w.word(s);
                }
                w.word(q.directory.len() as u64);
                for &(addr, tag) in &q.directory {
                    w.word(addr);
                    w.word(tag);
                }
                w.word(q.dir_seq);
            }
        }
        for b in &self.per_bank {
            w.word(b.wear.len() as u64);
            for &x in &b.wear {
                w.word(x as u64);
            }
            w.word(b.dead.len() as u64);
            for &x in &b.dead {
                w.word(x);
            }
            w.word(b.retirements.len() as u64);
            for &x in &b.retirements {
                w.word(x);
            }
            w.word(b.meta.len() as u64);
            w.bytes(&b.meta);
        }
        w.word(COMMIT);
        w.out
    }

    /// Parses the on-disk layout, rejecting truncated or uncommitted
    /// images.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<StateImage> {
        let mut r = Reader { bytes, pos: 0 };
        if r.word()? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let banks = r.word()?;
        let total_blocks = r.word()?;
        let seed = r.word()?;
        let endurance_bits = r.word()?;
        let gap_interval = r.word()?;
        let scheme = r.word()?;
        let serviced = r.word()?;
        if banks > 4096 {
            return Err(corrupt("implausible bank count"));
        }
        let quarantine = match r.word()? {
            0 => None,
            1 => {
                let dead = r.vec()?.into_iter().map(|d| d != 0).collect();
                let substitutes = r.vec()?;
                let pairs = r.word()? as usize;
                if pairs > bytes.len() / 16 {
                    return Err(corrupt("implausible directory length"));
                }
                let directory = (0..pairs)
                    .map(|_| Ok((r.word()?, r.word()?)))
                    .collect::<io::Result<Vec<_>>>()?;
                let dir_seq = r.word()?;
                Some(QuarantineImage {
                    dead,
                    substitutes,
                    directory,
                    dir_seq,
                })
            }
            _ => return Err(corrupt("bad quarantine flag")),
        };
        let mut per_bank = Vec::with_capacity(banks as usize);
        for _ in 0..banks {
            let wear = r.vec()?.into_iter().map(|w| w as u32).collect();
            let dead = r.vec()?;
            let retirements = r.vec()?;
            let meta_len = r.word()? as usize;
            let meta = r.take(meta_len)?.to_vec();
            per_bank.push(DurableImage {
                wear,
                dead,
                retirements,
                meta,
            });
        }
        if r.word()? != COMMIT {
            return Err(corrupt("missing commit marker"));
        }
        Ok(StateImage {
            banks,
            total_blocks,
            seed,
            endurance_bits,
            gap_interval,
            scheme,
            serviced,
            quarantine,
            per_bank,
        })
    }
}

fn corrupt(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("state image: {why}"))
}

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn word(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
        // Pad to a word boundary so subsequent words stay aligned.
        while !self.out.len().is_multiple_of(8) {
            self.out.push(0);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn word(&mut self) -> io::Result<u64> {
        let end = self.pos + 8;
        if end > self.bytes.len() {
            return Err(corrupt("truncated"));
        }
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }
    fn vec(&mut self) -> io::Result<Vec<u64>> {
        let n = self.word()? as usize;
        if n > self.bytes.len() / 8 {
            return Err(corrupt("implausible length"));
        }
        (0..n).map(|_| self.word()).collect()
    }
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = (end + 7) & !7; // skip the word padding
        Ok(slice)
    }
}

/// Captures the durable state of every bank. Requires the pipeline to be
/// quiescent (no workers active, queues and rings drained — i.e. after
/// [`McFrontend::finish`]).
pub fn capture(mc: &McFrontend, cfg_identity: [u64; 6], serviced: u64) -> StateImage {
    let [banks, total_blocks, seed, endurance_bits, gap_interval, scheme] = cfg_identity;
    StateImage {
        banks,
        total_blocks,
        seed,
        endurance_bits,
        gap_interval,
        scheme,
        serviced,
        quarantine: mc.quarantine_image(),
        per_bank: mc.banks().iter().map(|b| b.sim().durable_image()).collect(),
    }
}

/// Replays an image into a *freshly built* front-end. Banks are
/// independent stacks, so their reboots (and the recovery scans inside
/// them, emitting into whatever sinks are already attached) run in
/// parallel on the shared worker pool; once every bank is back, any
/// persisted quarantine state is re-applied so a degraded array resumes
/// serving at N−k without rediscovering the deaths. Returns the per-bank
/// recovery reports, in bank order.
///
/// # Errors
///
/// [`TornMeta`] when the image holds another number of banks, a bank's
/// durable image does not fit the bank it is restored into (the first
/// such bank's error), or the quarantine section does not fit the
/// front-end.
pub fn restore(mc: &mut McFrontend, img: &StateImage) -> Result<Vec<RecoveryReport>, TornMeta> {
    if img.per_bank.len() != mc.num_banks() {
        return Err(TornMeta(format!(
            "image of {} banks, front-end has {}",
            img.per_bank.len(),
            mc.num_banks()
        )));
    }
    let jobs: Vec<PooledJob<Result<RecoveryReport, TornMeta>>> = mc
        .banks_mut()
        .iter_mut()
        .zip(&img.per_bank)
        .map(|(bank, bank_img)| {
            Box::new(move || bank.sim_mut().restore_durable(bank_img))
                as PooledJob<Result<RecoveryReport, TornMeta>>
        })
        .collect();
    let reports = run_pooled(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(q) = &img.quarantine {
        mc.restore_quarantine(q)?;
    }
    Ok(reports)
}

/// Atomically writes `img` to `path` (temp file + rename).
pub fn save(path: &str, img: &StateImage) -> io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, img.to_bytes())?;
    std::fs::rename(&tmp, path)
}

/// Loads the image at `path`; `Ok(None)` when no image exists yet.
pub fn load(path: &str) -> io::Result<Option<StateImage>> {
    if !Path::new(path).exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(path)?;
    StateImage::from_bytes(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlr_base::rng::Rng;

    fn worn_frontend(seed: u64) -> (McFrontend, u64) {
        let mut mc = McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 10)
            .endurance_mean(300.0)
            .gap_interval(16)
            .seed(seed)
            .stop_policy(wlr_mc::McStopPolicy::Quorum(1.0))
            .build()
            .unwrap();
        let mut rng = Rng::seed_from(seed);
        // Enough traffic to wear 300-endurance blocks into failure, so
        // the image carries real links, retirements, and deaths.
        let n = 400_000;
        mc.with_pipeline(|mc| {
            for _ in 0..n {
                mc.submit(rng.gen_range(1 << 10));
            }
        });
        mc.finish();
        (mc, n)
    }

    fn fresh_like(seed: u64) -> McFrontend {
        McFrontend::builder()
            .banks(2)
            .total_blocks(1 << 10)
            .endurance_mean(300.0)
            .gap_interval(16)
            .seed(seed)
            .stop_policy(wlr_mc::McStopPolicy::Quorum(1.0))
            .build()
            .unwrap()
    }

    fn identity() -> [u64; 6] {
        [
            2,
            1 << 10,
            23,
            (300.0f64).to_bits(),
            16,
            scheme_hash("reviver-sg"),
        ]
    }

    #[test]
    fn image_round_trips_through_bytes() {
        let (mc, n) = worn_frontend(23);
        let img = capture(&mc, identity(), n);
        assert!(
            img.per_bank.iter().any(|b| !b.retirements.is_empty()),
            "a worn run retires pages (endurance 300 over 400k writes)"
        );
        let back = StateImage::from_bytes(&img.to_bytes()).expect("round trip");
        assert_eq!(back, img);
        let [banks, blocks, seed, endurance, psi, scheme] = identity();
        assert!(back.matches(identity()));
        assert!(!back.matches([4, blocks, seed, endurance, psi, scheme]));
        assert!(
            !back.matches([
                banks,
                blocks,
                seed,
                endurance,
                psi,
                scheme_hash("softwear-wlr")
            ]),
            "an image never restores into a different stack"
        );
    }

    #[test]
    fn quarantine_section_round_trips() {
        let (mc, n) = worn_frontend(23);
        let mut img = capture(&mc, identity(), n);
        assert!(
            img.quarantine.is_none(),
            "plain front-end has no quarantine"
        );
        img.quarantine = Some(QuarantineImage {
            dead: vec![false, true],
            substitutes: vec![u64::MAX, 0],
            directory: vec![(7, 1), (9, (1 << 63) + 2)],
            dir_seq: (1 << 63) + 2,
        });
        let back = StateImage::from_bytes(&img.to_bytes()).expect("round trip");
        assert_eq!(back, img);
    }

    #[test]
    fn truncated_or_uncommitted_images_are_rejected() {
        let (mc, n) = worn_frontend(23);
        let bytes = capture(&mc, identity(), n).to_bytes();
        assert!(StateImage::from_bytes(&bytes[..bytes.len() - 8]).is_err());
        assert!(StateImage::from_bytes(&bytes[..64]).is_err());
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xff;
        assert!(StateImage::from_bytes(&flipped).is_err());
    }

    #[test]
    fn restore_reproduces_the_durable_state() {
        let (mut worn, n) = worn_frontend(23);
        let img = capture(&worn, identity(), n);
        let mut fresh = fresh_like(23);
        let reports = restore(&mut fresh, &img).expect("a captured image restores");
        assert_eq!(reports.len(), 2, "one report per bank");
        let scanned: u64 = reports.iter().map(|r| r.blocks_scanned).sum();
        assert!(scanned > 0, "recovery actually scanned");
        for b in 0..2 {
            let a = worn.bank_sim_mut(b);
            let restored_wear = a.controller().device().wear_snapshot();
            let restored_meta = a
                .controller()
                .as_reviver()
                .unwrap()
                .persisted_meta()
                .to_bytes();
            let os_retired = a.os().retired_pages();
            let f = fresh.bank_sim_mut(b);
            assert_eq!(f.controller().device().wear_snapshot(), restored_wear);
            assert_eq!(
                f.controller()
                    .as_reviver()
                    .unwrap()
                    .persisted_meta()
                    .to_bytes(),
                restored_meta,
                "bank {b}: reviver metadata survives the round trip"
            );
            assert_eq!(f.os().retired_pages(), os_retired);
        }
    }

    /// ROADMAP 1(c), `StateImage` and `QuarantineImage`: a real image of a
    /// worn 4-bank front-end with one bank quarantined, every word
    /// replaced by each of six hostile values and every word-aligned
    /// truncation. `from_bytes` answers `Ok` or `InvalidData`, and what
    /// parses is replayed the way `main` does it — identity check, then
    /// `restore` — and either comes back or is refused with the typed
    /// error. Nothing panics, nothing allocates from an unchecked length.
    #[test]
    fn mutated_images_restore_or_are_refused_and_never_panic() {
        let build = || {
            McFrontend::builder()
                .banks(4)
                .total_blocks(1 << 10)
                .endurance_mean(300.0)
                .gap_interval(16)
                .seed(29)
                .degraded(true)
                .stop_policy(wlr_mc::McStopPolicy::Quorum(1.0))
                .build()
                .unwrap()
        };
        // Wear every bank into links and its first retirement, then kill
        // bank 2 and let a little traffic park and redirect at it.
        let mut worn = build();
        let mut rng = Rng::seed_from(29);
        for _ in 0..155_000 {
            worn.submit(rng.gen_range(1 << 10));
        }
        worn.finish();
        worn.inject_chaos(2, wlr_mc::BankChaos::KillAfter(0));
        for _ in 0..400 {
            worn.submit(rng.gen_range(1 << 10));
        }
        worn.finish();
        let ident = [
            4,
            1 << 10,
            29,
            (300.0f64).to_bits(),
            16,
            scheme_hash("reviver-sg"),
        ];
        let img = capture(&worn, ident, 155_400);
        let q = img.quarantine.as_ref().expect("degraded front-end");
        assert_eq!(q.dead, [false, false, true, false]);
        assert!(
            !q.directory.is_empty(),
            "redirected writes live in the directory"
        );
        for b in &img.per_bank {
            assert!(!b.dead.is_empty() && !b.retirements.is_empty(), "worn");
        }
        let bytes = img.to_bytes();

        for cut in (0..bytes.len()).step_by(8) {
            let err = StateImage::from_bytes(&bytes[..cut]).expect_err("truncated");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // `(parsed, restored)` over the mutants of the words in `range`.
        let sweep = |range: std::ops::Range<usize>| {
            let (mut parsed, mut restored) = (0u32, 0u32);
            for at in range.step_by(8) {
                let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                for hostile in [0, 1, u64::MAX, word ^ 1, word ^ (1 << 31), word ^ (1 << 63)] {
                    let mut mutant = bytes.clone();
                    mutant[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                    let back = match StateImage::from_bytes(&mutant) {
                        Ok(back) => back,
                        Err(e) => {
                            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "word {at}");
                            continue;
                        }
                    };
                    parsed += 1;
                    if back.matches(ident) {
                        restored += u32::from(restore(&mut build(), &back).is_ok());
                    }
                }
            }
            (parsed, restored)
        };
        // Some 9,000 reboots: one half of the image per core.
        let half = bytes.len() / 16 * 8;
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| sweep(0..half));
            (
                sweep(half..bytes.len()),
                a.join().expect("no mutant panics"),
            )
        });
        let (parsed, restored) = (a.0 + b.0, a.1 + b.1);
        assert!(
            restored > 0 && restored < parsed,
            "{parsed} parsed, {restored} restored"
        );
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let (mc, n) = worn_frontend(23);
        let img = capture(&mc, identity(), n);
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("wlr_serve_state_test_{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        save(&path, &img).expect("save");
        let back = load(&path).expect("load").expect("image exists");
        assert_eq!(back, img);
        std::fs::remove_file(&path).ok();
        assert!(load(&path).expect("missing file is not an error").is_none());
    }
}
