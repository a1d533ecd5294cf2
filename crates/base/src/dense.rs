//! Dense, fixed-capacity index tables for the write hot path.
//!
//! Every failure-era table in the controllers — failed-block pointers,
//! inverse pointers, FREE-p/LLS links, the simulator's integrity oracle —
//! is keyed by a block index bounded by the device size, which is known
//! at construction. A `HashMap<u64, _>` pays hashing and probing on every
//! access to what is really an array index. [`DenseMap`] and [`DenseSet`]
//! replace those tables with a flat slot array plus a presence bitset:
//! O(1) unhashed lookups, and ascending-key iteration that is
//! deterministic across runs (a `HashMap`'s order is not).
//!
//! Memory is one bit per key up front, plus `capacity ×
//! size_of::<V::Packed>()` for the slot array from the first insert on. A
//! table that never holds an entry — every failure-era table of a healthy
//! chip — costs only its bits to hold, clone and fork. A value sits in its
//! slot in the form its [`Slot`] impl names: block addresses ([`Pa`],
//! [`Da`]) as `u32`, so a used 2¹⁶-block link table costs 256 KiB where a
//! `u64`-valued one costs 512 — and that again every time a simulation is
//! forked, since a fork copies every slot, used or not.

use crate::addr::{Da, Pa};
use core::fmt;

const WORD_BITS: usize = 64;

/// How a value is held in a [`DenseMap`] slot.
pub trait Slot: Copy {
    /// The stored form.
    type Packed: Copy + Default;
    /// Value → stored form.
    ///
    /// # Panics
    ///
    /// May panic if the value has no stored form (a block index past 2³²).
    fn pack(self) -> Self::Packed;
    /// Stored form → value.
    fn unpack(packed: Self::Packed) -> Self;
}

impl Slot for u64 {
    type Packed = u64;
    #[inline]
    fn pack(self) -> u64 {
        self
    }
    #[inline]
    fn unpack(packed: u64) -> u64 {
        packed
    }
}

macro_rules! slot_as_u32 {
    ($($ty:ident),*) => {$(
        impl Slot for $ty {
            type Packed = u32;
            #[inline]
            fn pack(self) -> u32 {
                u32::try_from(self.index()).expect("block index past 2^32 in a dense table")
            }
            #[inline]
            fn unpack(packed: u32) -> $ty {
                $ty::new(u64::from(packed))
            }
        }
    )*};
}
slot_as_u32!(Pa, Da);

/// A map from `u64` keys in `[0, capacity)` to values, backed by a flat
/// slot array and a presence bitset. The slot array is allocated at the
/// first insert: until then the map is its bits.
///
/// ```
/// use wlr_base::dense::DenseMap;
/// let mut m: DenseMap<u64> = DenseMap::with_capacity(128);
/// assert_eq!(m.insert(7, 700), None);
/// assert_eq!(m.insert(7, 701), Some(700));
/// assert_eq!(m.get(7), Some(701));
/// assert_eq!(m.remove(7), Some(701));
/// assert!(m.is_empty());
/// ```
#[derive(Clone)]
pub struct DenseMap<V: Slot> {
    /// Empty until the first insert, then `capacity` long for good: a slot
    /// is only ever read behind its presence bit.
    slots: Vec<V::Packed>,
    present: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl<V: Slot> DenseMap<V> {
    /// An empty map accepting keys in `[0, capacity)`.
    pub fn with_capacity(capacity: u64) -> Self {
        let cap = usize::try_from(capacity).expect("capacity exceeds address space");
        DenseMap {
            slots: Vec::new(),
            present: vec![0u64; cap.div_ceil(WORD_BITS)],
            capacity: cap,
            len: 0,
        }
    }

    /// Key capacity (exclusive upper bound on keys).
    pub fn capacity(&self) -> u64 {
        self.capacity as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bit(&self, k: u64) -> (usize, u64) {
        let k = k as usize;
        debug_assert!(k < self.capacity, "key {k} outside dense capacity");
        (k / WORD_BITS, 1u64 << (k % WORD_BITS))
    }

    /// Whether `k` is present.
    ///
    /// # Panics
    ///
    /// Panics (all accessors do) if `k >= capacity`.
    #[inline]
    pub fn contains_key(&self, k: u64) -> bool {
        let (w, m) = self.bit(k);
        self.present[w] & m != 0
    }

    /// The value at `k`, if present.
    #[inline]
    pub fn get(&self, k: u64) -> Option<V> {
        if self.contains_key(k) {
            Some(V::unpack(self.slots[k as usize]))
        } else {
            None
        }
    }

    /// The value at `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is absent.
    #[inline]
    pub fn at(&self, k: u64) -> V {
        self.get(k).expect("key not present in dense map")
    }

    /// Inserts `v` at `k`, returning the previous value if any. Always
    /// inlined: the integrity oracle records a slab's writes in a loop.
    #[inline(always)]
    pub fn insert(&mut self, k: u64, v: V) -> Option<V> {
        let (w, m) = self.bit(k);
        let old = if self.present[w] & m != 0 {
            Some(V::unpack(self.slots[k as usize]))
        } else {
            if self.slots.is_empty() {
                self.allocate_slots();
            }
            self.present[w] |= m;
            self.len += 1;
            None
        };
        self.slots[k as usize] = v.pack();
        old
    }

    /// The first insert's one allocation.
    #[cold]
    #[inline(never)]
    fn allocate_slots(&mut self) {
        self.slots = vec![V::Packed::default(); self.capacity];
    }

    /// Removes the entry at `k`, returning its value if it was present.
    #[inline]
    pub fn remove(&mut self, k: u64) -> Option<V> {
        let (w, m) = self.bit(k);
        if self.present[w] & m == 0 {
            return None;
        }
        self.present[w] &= !m;
        self.len -= 1;
        Some(V::unpack(self.slots[k as usize]))
    }

    /// Removes every entry, keeping the slot array (if one was allocated)
    /// for the next insert: one pass over the presence words.
    pub fn clear(&mut self) {
        self.present.fill(0);
        self.len = 0;
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        iter_bits(self.present.iter().copied()).map(move |k| (k, V::unpack(self.slots[k as usize])))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        iter_bits(self.present.iter().copied())
    }

    /// The `r`-th smallest key (0-based), or `None` when `r >= len`: a
    /// popcount walk over the presence words, so the bitset doubles as
    /// the sorted key list.
    pub fn nth_key(&self, mut r: usize) -> Option<u64> {
        if r >= self.len {
            return None;
        }
        for (w, &bits) in self.present.iter().enumerate() {
            let ones = bits.count_ones() as usize;
            if r < ones {
                let mut b = bits;
                for _ in 0..r {
                    b &= b - 1;
                }
                return Some((w * WORD_BITS) as u64 + u64::from(b.trailing_zeros()));
            }
            r -= ones;
        }
        unreachable!("`len` counts the presence bits")
    }
}

impl<V: Slot + fmt::Debug> fmt::Debug for DenseMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of `u64` keys in `[0, capacity)`, backed by a bitset.
///
/// ```
/// use wlr_base::dense::DenseSet;
/// let mut s = DenseSet::with_capacity(64);
/// assert!(s.insert(9));
/// assert!(!s.insert(9));
/// assert!(s.contains(9));
/// assert!(s.remove(9));
/// assert!(s.is_empty());
/// ```
#[derive(Clone)]
pub struct DenseSet {
    present: Vec<u64>,
    capacity: u64,
    len: usize,
}

impl DenseSet {
    /// An empty set accepting keys in `[0, capacity)`.
    pub fn with_capacity(capacity: u64) -> Self {
        let cap = usize::try_from(capacity).expect("capacity exceeds address space");
        DenseSet {
            present: vec![0u64; cap.div_ceil(WORD_BITS)],
            capacity,
            len: 0,
        }
    }

    /// Key capacity (exclusive upper bound on keys).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bit(&self, k: u64) -> (usize, u64) {
        debug_assert!(k < self.capacity, "key {k} outside dense capacity");
        ((k as usize) / WORD_BITS, 1u64 << (k as usize % WORD_BITS))
    }

    /// Whether `k` is a member.
    ///
    /// # Panics
    ///
    /// Panics (all accessors do) if `k >= capacity`.
    #[inline]
    pub fn contains(&self, k: u64) -> bool {
        let (w, m) = self.bit(k);
        self.present[w] & m != 0
    }

    /// [`Self::contains`] for a key its caller has already checked
    /// against the capacity: the word lookup has no panic path of its own
    /// (a key past the last word reads as absent).
    #[inline]
    pub fn contains_checked(&self, k: u64) -> bool {
        let (w, m) = self.bit(k);
        self.present.get(w).is_some_and(|&x| x & m != 0)
    }

    /// Adds `k`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, k: u64) -> bool {
        let (w, m) = self.bit(k);
        if self.present[w] & m != 0 {
            return false;
        }
        self.present[w] |= m;
        self.len += 1;
        true
    }

    /// Removes `k`; returns whether it was a member.
    #[inline]
    pub fn remove(&mut self, k: u64) -> bool {
        let (w, m) = self.bit(k);
        if self.present[w] & m == 0 {
            return false;
        }
        self.present[w] &= !m;
        self.len -= 1;
        true
    }

    /// Removes every member. One pass over the backing words, so for
    /// small capacities this beats removing members one by one.
    pub fn clear(&mut self) {
        self.present.fill(0);
        self.len = 0;
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        iter_bits(self.present.iter().copied())
    }

    /// Members that are not keys of `map`, in ascending order: one
    /// and-not per 64 keys, so the cost is the words plus the hits.
    pub fn iter_not_in<'a, V: Slot>(
        &'a self,
        map: &'a DenseMap<V>,
    ) -> impl Iterator<Item = u64> + 'a {
        let keys = map.present.iter().copied().chain(std::iter::repeat(0));
        iter_bits(self.present.iter().zip(keys).map(|(&m, k)| m & !k))
    }
}

impl fmt::Debug for DenseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending indices of the set bits in `words`.
fn iter_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    words.enumerate().flat_map(|(w, bits)| {
        let base = (w * WORD_BITS) as u64;
        std::iter::successors(if bits == 0 { None } else { Some(bits) }, |&b| {
            let b = b & (b - 1);
            if b == 0 {
                None
            } else {
                Some(b)
            }
        })
        .map(move |b| base + b.trailing_zeros() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::collections::{BTreeSet, HashMap, HashSet};

    #[test]
    fn set_clear_empties_and_allows_reinsert() {
        let mut s = DenseSet::with_capacity(200);
        for k in [0, 63, 64, 199] {
            assert!(s.insert(k));
        }
        s.clear();
        assert!(s.is_empty());
        for k in [0, 63, 64, 199] {
            assert!(!s.contains(k));
            assert!(s.insert(k), "cleared key is insertable again");
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn map_insert_get_remove_roundtrip() {
        let mut m: DenseMap<u64> = DenseMap::with_capacity(200);
        assert!(m.is_empty());
        assert_eq!(m.insert(3, 30), None);
        assert_eq!(m.insert(199, 40), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(3), Some(30));
        assert_eq!(m.get(4), None);
        assert!(m.contains_key(199));
        assert_eq!(m.insert(3, 31), Some(30));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(3), Some(31));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.at(199), 40);
    }

    #[test]
    fn map_clear_empties_and_keeps_its_capacity() {
        let mut m: DenseMap<u64> = DenseMap::with_capacity(200);
        for k in [0, 63, 64, 199] {
            m.insert(k, k + 1);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 200);
        assert_eq!(m.iter().count(), 0);
        for k in [0, 63, 64, 199] {
            assert_eq!(m.get(k), None, "a cleared slot is not readable");
            assert_eq!(m.insert(k, 7), None, "a cleared key inserts as new");
        }
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn a_never_inserted_map_reads_as_empty_and_holds_no_slots() {
        let m: DenseMap<Pa> = DenseMap::with_capacity(200);
        assert!(m.slots.is_empty(), "no slot array before the first insert");
        for k in [0, 63, 64, 199] {
            assert_eq!(m.get(k), None);
            assert!(!m.contains_key(k));
        }
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.keys().count(), 0);
        assert_eq!(m.nth_key(0), None);
        assert_eq!(format!("{m:?}"), "{}");
        let copy = m.clone();
        assert!(copy.slots.is_empty() && copy.is_empty());
        assert_eq!(copy.capacity(), 200);
        let mut m = m;
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 0);
        assert!(m.slots.is_empty(), "a remove allocates nothing");
    }

    #[test]
    fn the_first_insert_allocates_and_clear_keeps_the_slots() {
        let mut m: DenseMap<Da> = DenseMap::with_capacity(200);
        assert_eq!(m.insert(199, Da::new(7)), None);
        assert_eq!(m.slots.len(), 200, "the first insert allocates every slot");
        let slots = m.slots.as_ptr();
        assert_eq!(format!("{m:?}"), format!("{{199: {:?}}}", Da::new(7)));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.as_ptr(), slots, "clear keeps the slot array");
        assert_eq!(m.insert(0, Da::new(1)), None);
        assert_eq!(m.slots.as_ptr(), slots, "an insert after clear reuses it");
        assert_eq!(m.clone().iter().collect::<Vec<_>>(), vec![(0, Da::new(1))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside dense capacity")]
    fn a_key_past_the_capacity_of_a_never_inserted_map_panics() {
        // 200 shares its presence word with valid keys: only the
        // capacity check can catch it.
        let m: DenseMap<u64> = DenseMap::with_capacity(200);
        let _ = m.get(200);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside dense capacity")]
    fn an_insert_past_the_capacity_of_a_never_inserted_map_panics() {
        DenseMap::<u64>::with_capacity(200).insert(255, 0);
    }

    #[test]
    fn block_addresses_round_trip_through_their_narrow_slots() {
        let mut m: DenseMap<Pa> = DenseMap::with_capacity(8);
        let top = Pa::new(u64::from(u32::MAX));
        assert_eq!(m.insert(3, top), None);
        assert_eq!(m.insert(3, Pa::new(5)), Some(top));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(3, Pa::new(5))]);
        assert_eq!(size_of::<<Da as Slot>::Packed>(), 4);
    }

    #[test]
    #[should_panic(expected = "past 2^32")]
    fn a_block_index_too_wide_for_its_slot_is_refused() {
        DenseMap::<Da>::with_capacity(8).insert(0, Da::new(1 << 32));
    }

    #[test]
    fn map_iterates_in_ascending_key_order() {
        let mut m: DenseMap<u64> = DenseMap::with_capacity(1 << 10);
        for k in [512, 3, 64, 65, 1023, 0] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().collect();
        assert_eq!(keys, vec![0, 3, 64, 65, 512, 1023]);
        let pairs: Vec<(u64, u64)> = m.iter().collect();
        assert!(pairs.iter().all(|&(k, v)| v == k * 10));
    }

    #[test]
    fn map_agrees_with_hashmap_under_random_ops() {
        let mut rng = Rng::stream(0xDE5E, 0);
        let cap = 512u64;
        let mut dense: DenseMap<u64> = DenseMap::with_capacity(cap);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(cap);
            match rng.gen_range(3) {
                0 => {
                    let v = rng.next_u64();
                    assert_eq!(dense.insert(k, v), model.insert(k, v));
                }
                1 => assert_eq!(dense.remove(k), model.remove(&k)),
                _ => assert_eq!(dense.get(k), model.get(&k).copied()),
            }
            assert_eq!(dense.len(), model.len());
        }
        let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = dense.iter().collect();
        assert_eq!(got, expect, "iteration must be the sorted entry set");
    }

    #[test]
    fn set_agrees_with_hashset_under_random_ops() {
        let mut rng = Rng::stream(0xDE5E, 1);
        let cap = 300u64;
        let mut dense = DenseSet::with_capacity(cap);
        let mut model: HashSet<u64> = HashSet::new();
        for _ in 0..10_000 {
            let k = rng.gen_range(cap);
            match rng.gen_range(3) {
                0 => assert_eq!(dense.insert(k), model.insert(k)),
                1 => assert_eq!(dense.remove(k), model.remove(&k)),
                _ => assert_eq!(dense.contains(k), model.contains(&k)),
            }
            assert_eq!(dense.len(), model.len());
        }
        let mut expect: Vec<u64> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(dense.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn nth_key_agrees_with_a_sorted_key_model_under_random_ops() {
        let mut rng = Rng::stream(0xDE5E, 2);
        let cap = 700u64;
        let mut dense: DenseMap<u64> = DenseMap::with_capacity(cap);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for i in 0..20_000 {
            let k = rng.gen_range(cap);
            if rng.gen_range(3) == 0 {
                dense.remove(k);
                model.remove(&k);
            } else {
                dense.insert(k, i);
                model.insert(k);
            }
            let r = rng.gen_range(model.len() as u64 + 2) as usize;
            assert_eq!(
                dense.nth_key(r),
                model.iter().nth(r).copied(),
                "op {i}, r {r}"
            );
        }
        let sorted: Vec<u64> = model.iter().copied().collect();
        let picked: Vec<u64> = (0..sorted.len())
            .map(|r| dense.nth_key(r).unwrap())
            .collect();
        assert_eq!(picked, sorted);
        assert_eq!(dense.nth_key(sorted.len()), None);
    }

    #[test]
    fn iter_not_in_is_the_set_difference() {
        let mut rng = Rng::stream(0xDE5E, 3);
        // The map is shorter than the set: keys past its capacity are
        // never in it.
        let mut set = DenseSet::with_capacity(300);
        let mut map: DenseMap<u64> = DenseMap::with_capacity(200);
        for _ in 0..400 {
            set.insert(rng.gen_range(300));
            map.insert(rng.gen_range(200), 0);
        }
        let expect: Vec<u64> = set
            .iter()
            .filter(|&k| !(k < 200 && map.contains_key(k)))
            .collect();
        assert_eq!(set.iter_not_in(&map).collect::<Vec<_>>(), expect);
        assert!(expect.iter().any(|&k| k < 200) && expect.iter().any(|&k| k >= 200));
    }

    #[test]
    fn boundary_keys_work() {
        let mut m: DenseMap<u64> = DenseMap::with_capacity(64);
        m.insert(0, 1);
        m.insert(63, 2);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![0, 63]);
        let mut s = DenseSet::with_capacity(65);
        s.insert(64);
        assert!(s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    #[should_panic(expected = "key not present")]
    fn index_of_absent_key_panics() {
        let m: DenseMap<u64> = DenseMap::with_capacity(8);
        let _ = m.at(3);
    }
}
