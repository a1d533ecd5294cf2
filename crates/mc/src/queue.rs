//! Bounded per-bank write queue with address coalescing.
//!
//! Each bank owns one [`WriteQueue`]. The front-end enqueues bank-local
//! block addresses as requests arrive; a queue holds at most `depth`
//! distinct addresses, and a request to an address already queued is
//! *coalesced* — real memory controllers merge pending writes to the same
//! line, so only the last data ever reaches the array. The queue keeps
//! the **earliest** arrival tick for a coalesced address: the merged
//! write has been waiting since the first request to that line.
//!
//! Entries are `(address, arrival)` pairs in one fixed array of `depth`
//! slots (the queue only ever fills and then drains completely, so no
//! ring arithmetic is needed): a push is one membership probe and one
//! store, its bounds check the full-queue check. A local block is pending
//! iff its stamp is the current batch's, so a drain forgets every member
//! by bumping one counter. The front-end's flush reads the batch in place.

/// One pending write: bank-local address and its arrival tick.
pub type QueueEntry = (u64, u64);

/// A bounded FIFO of pending bank-local writes with O(1) coalescing.
#[derive(Debug)]
pub struct WriteQueue {
    /// `depth` slots; `entries[..len]` are pending, in arrival order.
    entries: Box<[QueueEntry]>,
    len: usize,
    /// Per local block, the stamp of the last batch it joined.
    seen: Vec<u8>,
    /// The current batch's stamp, never 0 (no batch's).
    stamp: u8,
    coalesced: u64,
}

impl WriteQueue {
    /// A queue of at most `depth` pending writes over a bank-local space
    /// of `local_space` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (a zero-depth queue can never accept a
    /// write).
    pub fn new(depth: usize, local_space: u64) -> Self {
        assert!(depth > 0, "write queue depth must be nonzero");
        WriteQueue {
            entries: vec![(0, 0); depth].into_boxed_slice(),
            len: 0,
            seen: vec![0; usize::try_from(local_space).expect("space fits in memory")],
            stamp: 1,
            coalesced: 0,
        }
    }

    /// Pending distinct addresses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the queue cannot accept a new distinct address.
    pub fn is_full(&self) -> bool {
        self.len >= self.entries.len()
    }

    /// Requests coalesced into an already-pending slot so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Enqueues a write of `local` arriving at tick `now`. Returns `true`
    /// if a new slot was taken, `false` if the write coalesced into a
    /// pending one.
    ///
    /// # Panics
    ///
    /// Panics if called on a full queue with a non-coalescing address;
    /// the front-end drains all banks before that can happen.
    #[inline]
    pub fn push(&mut self, local: u64, now: u64) -> bool {
        let seen = &mut self.seen[local as usize];
        if *seen == self.stamp {
            self.coalesced += 1;
            return false;
        }
        *seen = self.stamp;
        let Some(slot) = self.entries.get_mut(self.len) else {
            panic!("push on a full write queue")
        };
        *slot = (local, now);
        self.len += 1;
        true
    }

    /// The pending entries, in arrival order.
    pub(crate) fn pending(&self) -> &[QueueEntry] {
        &self.entries[..self.len]
    }

    /// Drops every pending entry (the caller has taken the batch); every
    /// 255 batches the stamps wrap and are all forgotten.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1).max(1);
        if self.stamp == 1 {
            self.seen.fill(0);
        }
    }

    /// Empties the queue in arrival order into `out`, replacing what it
    /// held — latency accounting is the caller's, since it depends on
    /// the drain model (the pinned pipeline's service clock).
    pub fn take_into(&mut self, out: &mut Vec<QueueEntry>) {
        out.clear();
        out.extend_from_slice(self.pending());
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_duplicates_keeping_first_arrival() {
        let mut q = WriteQueue::new(4, 16);
        assert!(q.push(3, 1));
        assert!(q.push(5, 2));
        assert!(!q.push(3, 3), "duplicate must coalesce");
        assert_eq!(q.coalesced(), 1);
        assert_eq!(q.len(), 2);
        let mut batch = Vec::new();
        q.take_into(&mut batch);
        assert_eq!(batch, vec![(3, 1), (5, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn take_into_clears_the_handed_buffer() {
        let mut q = WriteQueue::new(2, 8);
        let mut batch = vec![(99, 99)];
        q.push(1, 0);
        q.take_into(&mut batch);
        assert_eq!(batch, vec![(1, 0)], "stale caller contents are discarded");
        q.push(2, 5);
        q.take_into(&mut batch);
        assert_eq!(batch, vec![(2, 5)]);
    }

    #[test]
    fn address_can_requeue_after_drain() {
        let mut q = WriteQueue::new(2, 8);
        q.push(1, 0);
        q.take_into(&mut Vec::new());
        assert!(q.push(1, 1), "drained address is a fresh slot again");
        // Past the stamps' wrap, a drained address is still fresh and a
        // pending one still coalesces.
        for round in 0..600 {
            q.take_into(&mut Vec::new());
            assert!(q.push(1, round), "round {round}");
            assert!(!q.push(1, round), "round {round}");
        }
    }

    #[test]
    fn full_detection_counts_distinct_only() {
        let mut q = WriteQueue::new(2, 8);
        q.push(0, 0);
        q.push(0, 1); // coalesced, takes no slot
        assert!(!q.is_full());
        q.push(1, 2);
        assert!(q.is_full());
    }

    #[test]
    #[should_panic(expected = "full write queue")]
    fn push_on_full_queue_panics() {
        let mut q = WriteQueue::new(1, 8);
        q.push(0, 0);
        q.push(1, 1);
    }
}
