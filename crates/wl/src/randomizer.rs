//! Static invertible address randomization.
//!
//! Start-Gap alone only shifts addresses by one position per gap rotation,
//! so spatially clustered hot lines would march through the space together
//! and wear out a moving front. The Start-Gap paper therefore composes the
//! gap movement with a *static* random bijection of the address space; the
//! WL-Reviver paper's Figure 8 discussion hinges on this component (LLS
//! must restrict it, WL-Reviver keeps it intact).
//!
//! Implementations:
//!
//! * [`IdentityRandomizer`] — no randomization (ablation baseline).
//! * [`TableRandomizer`] — an explicit random permutation plus its inverse
//!   (exact, O(N) memory; what the Start-Gap paper calls RIB).
//! * [`FeistelRandomizer`] — a 4-round Feistel network with cycle-walking
//!   for non-power-of-two domains (O(1) memory; the Start-Gap paper's FPB).
//! * [`HalfRestrictedRandomizer`] — LLS's weakened variant: the first half
//!   of the PA space randomizes only into the second half of the
//!   intermediate space and vice versa (§IV-D), which is what keeps
//!   concentrated writes from spreading across the whole chip under LLS.

use core::fmt;
use std::sync::Arc;
use wlr_base::rng::{Rng, SplitMix64};

/// An invertible mapping on the block-address domain `[0, len)`.
pub trait AddressRandomizer: fmt::Debug + Send {
    /// Domain size.
    fn len(&self) -> u64;

    /// Whether the domain is empty (never true for valid configurations).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forward mapping; a bijection on `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    fn forward(&self, x: u64) -> u64;

    /// Inverse mapping: `backward(forward(x)) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= len()`.
    fn backward(&self, y: u64) -> u64;

    /// Deep copy of the randomizer, for leveler/simulation snapshots.
    fn clone_box(&self) -> Box<dyn AddressRandomizer>;
}

impl Clone for Box<dyn AddressRandomizer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Declarative randomizer choice, for builders and experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomizerKind {
    /// No randomization.
    Identity,
    /// Explicit permutation table seeded from `seed`.
    Table {
        /// Permutation seed.
        seed: u64,
    },
    /// Feistel network seeded from `seed`.
    Feistel {
        /// Key-derivation seed.
        seed: u64,
    },
    /// LLS's half-restricted randomization seeded from `seed`.
    HalfRestricted {
        /// Seed for the two half-permutations.
        seed: u64,
    },
}

impl RandomizerKind {
    /// Instantiates the randomizer for a domain of `len` addresses.
    ///
    /// # Panics
    ///
    /// Panics under the constructors' conditions (e.g. `HalfRestricted`
    /// requires an even `len`).
    pub fn build(self, len: u64) -> Box<dyn AddressRandomizer> {
        match self {
            RandomizerKind::Identity => Box::new(IdentityRandomizer::new(len)),
            RandomizerKind::Table { seed } => Box::new(TableRandomizer::new(len, seed)),
            RandomizerKind::Feistel { seed } => {
                let feistel = FeistelRandomizer::new(len, seed);
                // The network is on Start-Gap's per-write path; at the
                // simulator's scaled domains a memoized table (8 B per
                // address) beats four rounds of mixing plus cycle-walking.
                // Beyond the gate the table cost would dominate, and the
                // O(1)-memory network is the whole point at chip scale.
                if len <= MEMOIZE_MAX_DOMAIN {
                    Box::new(MemoizedRandomizer::new(feistel))
                } else {
                    Box::new(feistel)
                }
            }
            RandomizerKind::HalfRestricted { seed } => {
                Box::new(HalfRestrictedRandomizer::new(len, seed))
            }
        }
    }
}

/// [`RandomizerKind::build`]'s randomizer with the memoized table inline
/// (no virtual call) and any other kind boxed.
#[derive(Debug, Clone)]
pub(crate) enum InlineRandomizer {
    Memoized(MemoizedRandomizer),
    Boxed(Box<dyn AddressRandomizer>),
}

impl InlineRandomizer {
    pub(crate) fn build(kind: RandomizerKind, len: u64) -> Self {
        match kind {
            RandomizerKind::Feistel { seed } if len <= MEMOIZE_MAX_DOMAIN => {
                Self::Memoized(MemoizedRandomizer::new(FeistelRandomizer::new(len, seed)))
            }
            kind => Self::Boxed(kind.build(len)),
        }
    }

    #[inline]
    pub(crate) fn forward(&self, x: u64) -> u64 {
        match self {
            Self::Memoized(r) => r.forward(x),
            Self::Boxed(r) => r.forward(x),
        }
    }

    #[inline]
    pub(crate) fn backward(&self, y: u64) -> u64 {
        match self {
            Self::Memoized(r) => r.backward(y),
            Self::Boxed(r) => r.backward(y),
        }
    }
}

/// The identity mapping.
///
/// ```
/// use wlr_wl::randomizer::{AddressRandomizer, IdentityRandomizer};
/// let r = IdentityRandomizer::new(8);
/// assert_eq!(r.forward(3), 3);
/// assert_eq!(r.backward(3), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IdentityRandomizer {
    len: u64,
}

impl IdentityRandomizer {
    /// Identity over `[0, len)`.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "randomizer domain must be nonzero");
        IdentityRandomizer { len }
    }
}

impl AddressRandomizer for IdentityRandomizer {
    fn len(&self) -> u64 {
        self.len
    }

    fn forward(&self, x: u64) -> u64 {
        assert!(x < self.len, "address {x} out of domain {}", self.len);
        x
    }

    fn backward(&self, y: u64) -> u64 {
        assert!(y < self.len, "address {y} out of domain {}", self.len);
        y
    }

    fn clone_box(&self) -> Box<dyn AddressRandomizer> {
        Box::new(self.clone())
    }
}

/// An explicit random permutation (Fisher–Yates) with a stored inverse.
///
/// Exact and fast, at 16 bytes per address — fine at the scaled default
/// geometry; use [`FeistelRandomizer`] at paper scale. The tables never
/// change once built, so a clone shares them.
#[derive(Debug, Clone)]
pub struct TableRandomizer {
    forward: Arc<[u64]>,
    backward: Arc<[u64]>,
}

impl TableRandomizer {
    /// A uniformly random permutation of `[0, len)` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or exceeds the host's address space.
    pub fn new(len: u64, seed: u64) -> Self {
        assert!(len > 0, "randomizer domain must be nonzero");
        let n = usize::try_from(len).expect("domain too large for a table");
        let mut forward: Vec<u64> = (0..len).collect();
        Rng::stream(seed, 0x7AB1E).shuffle(&mut forward);
        let mut backward = vec![0u64; n];
        for (i, &v) in forward.iter().enumerate() {
            backward[usize::try_from(v).expect("fits")] = i as u64;
        }
        TableRandomizer {
            forward: forward.into(),
            backward: backward.into(),
        }
    }
}

impl AddressRandomizer for TableRandomizer {
    fn len(&self) -> u64 {
        self.forward.len() as u64
    }

    fn forward(&self, x: u64) -> u64 {
        self.forward[usize::try_from(x).expect("address out of domain")]
    }

    fn backward(&self, y: u64) -> u64 {
        self.backward[usize::try_from(y).expect("address out of domain")]
    }

    fn clone_box(&self) -> Box<dyn AddressRandomizer> {
        Box::new(self.clone())
    }
}

/// A 4-round balanced Feistel network over the next even-bit power of two,
/// restricted to `[0, len)` by cycle-walking.
///
/// Cycle-walking re-applies the permutation while the value lands outside
/// the domain; because the underlying map is a bijection on the enclosing
/// power of two, the walk always terminates and the restriction is itself
/// a bijection on `[0, len)`.
///
/// ```
/// use wlr_wl::randomizer::{AddressRandomizer, FeistelRandomizer};
/// let r = FeistelRandomizer::new(1000, 9);
/// for x in 0..1000 {
///     assert_eq!(r.backward(r.forward(x)), x);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FeistelRandomizer {
    len: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl FeistelRandomizer {
    /// A Feistel permutation of `[0, len)` keyed from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: u64, seed: u64) -> Self {
        assert!(len > 0, "randomizer domain must be nonzero");
        // Enclosing domain: 2^(2*half_bits) >= len, half_bits >= 1.
        let bits = 64 - (len - 1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut sm = SplitMix64::new(seed ^ 0xFE15_7E1D);
        let keys = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        FeistelRandomizer {
            len,
            half_bits,
            keys,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.half_bits) - 1
    }

    #[inline]
    fn round(&self, r: u64, key: u64) -> u64 {
        SplitMix64::mix(key, r) & self.mask()
    }

    #[inline]
    fn permute_once(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.mask();
        for &k in &self.keys {
            let (nl, nr) = (r, l ^ self.round(r, k));
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    #[inline]
    fn unpermute_once(&self, y: u64) -> u64 {
        let mut l = y >> self.half_bits;
        let mut r = y & self.mask();
        for &k in self.keys.iter().rev() {
            let (nl, nr) = (r ^ self.round(l, k), l);
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }
}

impl AddressRandomizer for FeistelRandomizer {
    fn len(&self) -> u64 {
        self.len
    }

    fn forward(&self, x: u64) -> u64 {
        assert!(x < self.len, "address {x} out of domain {}", self.len);
        let mut y = self.permute_once(x);
        while y >= self.len {
            y = self.permute_once(y);
        }
        y
    }

    fn backward(&self, y: u64) -> u64 {
        assert!(y < self.len, "address {y} out of domain {}", self.len);
        let mut x = self.unpermute_once(y);
        while x >= self.len {
            x = self.unpermute_once(x);
        }
        x
    }

    fn clone_box(&self) -> Box<dyn AddressRandomizer> {
        Box::new(self.clone())
    }
}

/// Largest domain [`RandomizerKind::build`] will memoize into tables.
const MEMOIZE_MAX_DOMAIN: u64 = 1 << 20;

/// Any randomizer, memoized into forward/backward lookup tables.
///
/// Produces the *identical* bijection as the wrapped randomizer — it is a
/// pure evaluation-speed trade (one table read per mapping instead of
/// whatever the inner randomizer computes), so swapping it in cannot
/// change any simulation outcome. Entries are `u32`: the domains worth
/// tabulating are far below 2³² (the builder stops at 2²⁰). The tables
/// never change once built, so a clone (a leveler snapshot, a forked
/// simulation) shares them.
///
/// ```
/// use wlr_wl::randomizer::{AddressRandomizer, FeistelRandomizer, MemoizedRandomizer};
/// let inner = FeistelRandomizer::new(1000, 9);
/// let memo = MemoizedRandomizer::new(inner.clone());
/// for x in 0..1000 {
///     assert_eq!(memo.forward(x), inner.forward(x));
///     assert_eq!(memo.backward(x), inner.backward(x));
/// }
/// ```
#[derive(Clone)]
pub struct MemoizedRandomizer {
    forward: Arc<[u32]>,
    backward: Arc<[u32]>,
    inner: &'static str,
}

impl MemoizedRandomizer {
    /// Tabulates `inner` over its whole domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain exceeds 2³² addresses.
    pub fn new<R: AddressRandomizer + fmt::Debug>(inner: R) -> Self {
        let len = u32::try_from(inner.len()).expect("domain too large to memoize");
        let mut forward = Vec::with_capacity(len as usize);
        let mut backward = vec![0u32; len as usize];
        for x in 0..len {
            // A bijection on `[0, len)` stays below `len`.
            let y = inner.forward(u64::from(x)) as u32;
            forward.push(y);
            backward[y as usize] = x;
        }
        MemoizedRandomizer {
            forward: forward.into(),
            backward: backward.into(),
            inner: core::any::type_name::<R>(),
        }
    }
}

/// The panic of an address outside a table's domain: out of line, so that
/// the lookups keep no stack frame for its message.
#[cold]
#[inline(never)]
fn out_of_domain(x: u64, len: u64) -> ! {
    panic!("address {x} out of domain {len}")
}

impl fmt::Debug for MemoizedRandomizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoizedRandomizer")
            .field("len", &self.forward.len())
            .field("inner", &self.inner)
            .finish()
    }
}

impl AddressRandomizer for MemoizedRandomizer {
    fn len(&self) -> u64 {
        self.forward.len() as u64
    }

    #[inline]
    fn forward(&self, x: u64) -> u64 {
        match self.forward.get(x as usize) {
            Some(&y) => u64::from(y),
            None => out_of_domain(x, self.len()),
        }
    }

    #[inline]
    fn backward(&self, y: u64) -> u64 {
        match self.backward.get(y as usize) {
            Some(&x) => u64::from(x),
            None => out_of_domain(y, self.len()),
        }
    }

    fn clone_box(&self) -> Box<dyn AddressRandomizer> {
        Box::new(self.clone())
    }
}

/// LLS's restricted randomization (paper §IV-D): addresses in the first
/// half of the domain randomize only into the second half and vice versa.
///
/// This models the adaptation the LLS design imposes on Start-Gap, which
/// "keeps concentrated writes in a region from being fully spread" — the
/// root cause of LLS's shorter lifetime in Figure 8.
#[derive(Debug, Clone)]
pub struct HalfRestrictedRandomizer {
    lo: TableRandomizer,
    hi: TableRandomizer,
    half: u64,
}

impl HalfRestrictedRandomizer {
    /// Builds the two half-permutations from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or odd.
    pub fn new(len: u64, seed: u64) -> Self {
        assert!(len > 0, "randomizer domain must be nonzero");
        assert!(
            len.is_multiple_of(2),
            "half-restricted randomizer needs an even domain"
        );
        let half = len / 2;
        HalfRestrictedRandomizer {
            lo: TableRandomizer::new(half, SplitMix64::mix(seed, 0)),
            hi: TableRandomizer::new(half, SplitMix64::mix(seed, 1)),
            half,
        }
    }
}

impl AddressRandomizer for HalfRestrictedRandomizer {
    fn len(&self) -> u64 {
        self.half * 2
    }

    fn forward(&self, x: u64) -> u64 {
        assert!(x < self.len(), "address {x} out of domain {}", self.len());
        if x < self.half {
            self.half + self.lo.forward(x)
        } else {
            self.hi.forward(x - self.half)
        }
    }

    fn backward(&self, y: u64) -> u64 {
        assert!(y < self.len(), "address {y} out of domain {}", self.len());
        if y < self.half {
            self.half + self.hi.backward(y)
        } else {
            self.lo.backward(y - self.half)
        }
    }

    fn clone_box(&self) -> Box<dyn AddressRandomizer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bijection(r: &dyn AddressRandomizer) {
        let n = r.len();
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = r.forward(x);
            assert!(y < n, "forward({x}) = {y} escapes the domain");
            assert!(!seen[y as usize], "forward is not injective at {x}");
            seen[y as usize] = true;
            assert_eq!(r.backward(y), x, "backward(forward({x})) != {x}");
        }
    }

    #[test]
    fn identity_is_bijective() {
        assert_bijection(&IdentityRandomizer::new(33));
    }

    #[test]
    fn table_is_bijective_and_scrambles() {
        let r = TableRandomizer::new(256, 5);
        assert_bijection(&r);
        let moved = (0..256).filter(|&x| r.forward(x) != x).count();
        assert!(
            moved > 200,
            "table permutation left {moved} points moved only"
        );
    }

    #[test]
    fn feistel_is_bijective_on_power_of_two() {
        assert_bijection(&FeistelRandomizer::new(256, 11));
    }

    #[test]
    fn feistel_is_bijective_on_awkward_sizes() {
        for n in [1u64, 2, 3, 5, 100, 1000, 4097] {
            assert_bijection(&FeistelRandomizer::new(n, 13));
        }
    }

    #[test]
    fn feistel_differs_by_seed() {
        let a = FeistelRandomizer::new(1024, 1);
        let b = FeistelRandomizer::new(1024, 2);
        let same = (0..1024).filter(|&x| a.forward(x) == b.forward(x)).count();
        assert!(
            same < 32,
            "seeds produce near-identical permutations ({same})"
        );
    }

    #[test]
    fn feistel_spreads_contiguous_ranges() {
        // A hot contiguous range must not stay contiguous: check that the
        // images of 0..64 in a 4096 domain span a wide spread.
        let r = FeistelRandomizer::new(4096, 17);
        let mut images: Vec<u64> = (0..64).map(|x| r.forward(x)).collect();
        images.sort_unstable();
        let spread = images.last().unwrap() - images.first().unwrap();
        assert!(spread > 2048, "images span only {spread}");
    }

    #[test]
    fn half_restricted_crosses_halves() {
        let r = HalfRestrictedRandomizer::new(128, 23);
        assert_bijection(&r);
        for x in 0..64 {
            assert!(r.forward(x) >= 64, "low address {x} stayed in low half");
        }
        for x in 64..128 {
            assert!(r.forward(x) < 64, "high address {x} stayed in high half");
        }
    }

    #[test]
    #[should_panic(expected = "even domain")]
    fn half_restricted_rejects_odd() {
        HalfRestrictedRandomizer::new(7, 1);
    }

    #[test]
    fn kind_builds_all_variants() {
        for kind in [
            RandomizerKind::Identity,
            RandomizerKind::Table { seed: 1 },
            RandomizerKind::Feistel { seed: 1 },
            RandomizerKind::HalfRestricted { seed: 1 },
        ] {
            let r = kind.build(64);
            assert_bijection(r.as_ref());
        }
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn forward_out_of_domain_panics() {
        FeistelRandomizer::new(10, 1).forward(10);
    }

    #[test]
    fn memoized_matches_inner_exactly() {
        for n in [1u64, 2, 63, 64, 1000, 4097] {
            let inner = FeistelRandomizer::new(n, 29);
            let memo = MemoizedRandomizer::new(inner.clone());
            assert_eq!(memo.len(), inner.len());
            for x in 0..n {
                assert_eq!(memo.forward(x), inner.forward(x));
                assert_eq!(memo.backward(x), inner.backward(x));
            }
        }
    }

    /// What a leveler snapshot (so a forked simulation) copies of a table
    /// randomizer is two pointers: `clone_box` is `Box::new(self.clone())`.
    #[test]
    fn clones_share_their_tables() {
        let memo = MemoizedRandomizer::new(FeistelRandomizer::new(1000, 29));
        let fork = memo.clone();
        assert!(Arc::ptr_eq(&memo.forward, &fork.forward));
        assert!(Arc::ptr_eq(&memo.backward, &fork.backward));
        let table = TableRandomizer::new(1000, 29);
        let fork = table.clone();
        assert!(Arc::ptr_eq(&table.forward, &fork.forward));
        assert!(Arc::ptr_eq(&table.backward, &fork.backward));
        assert_eq!(fork.clone_box().forward(7), table.forward(7));
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn memoized_out_of_domain_panics() {
        MemoizedRandomizer::new(FeistelRandomizer::new(10, 1)).forward(10);
    }

    #[test]
    fn feistel_roundtrip_random_domains() {
        let mut rng = Rng::stream(0xF715, 0);
        for _ in 0..128 {
            let len = 1 + rng.gen_range(4999);
            let seed = rng.next_u64();
            let x = rng.gen_range(len);
            let r = FeistelRandomizer::new(len, seed);
            let y = r.forward(x);
            assert!(y < len);
            assert_eq!(r.backward(y), x);
        }
    }

    #[test]
    fn table_roundtrip_random_domains() {
        let mut rng = Rng::stream(0x7AB7, 0);
        for _ in 0..64 {
            let len = 1 + rng.gen_range(1999);
            let seed = rng.next_u64();
            let x = rng.gen_range(len);
            let r = TableRandomizer::new(len, seed);
            assert_eq!(r.backward(r.forward(x)), x);
        }
    }
}
