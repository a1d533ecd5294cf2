//! A small DRAM write-buffer model in front of the bank queues.
//!
//! PCM controllers put a DRAM buffer between the last-level cache and the
//! PCM array so that hot lines are rewritten in DRAM instead of burning
//! PCM endurance. This model keeps the `cap` most-recently-admitted
//! distinct global lines: a request that hits the buffer is *absorbed*
//! (no PCM write happens at all); a miss admits the line and, once the
//! buffer is over capacity, evicts the oldest line to its bank queue —
//! FIFO, so eviction order is a pure function of the request stream and
//! the multi-bank run stays deterministic.

/// FIFO write buffer over global block addresses.
///
/// The buffer is a flat ring of `cap` slots, empty ones holding
/// `u64::MAX`: admitting a new line overwrites the slot at the cursor,
/// whose occupant is by construction the oldest line (or nothing while
/// the buffer fills). Membership is a flag per global block, so the hot
/// path is one flag set, one slot exchange, and one flag cleared.
#[derive(Debug)]
pub struct WriteBuffer {
    /// `cap` slots in ring order: the oldest line at or after `cursor`.
    slots: Box<[u64]>,
    /// Next slot to overwrite.
    cursor: usize,
    /// `present[line]`: whether `line` is buffered.
    present: Vec<bool>,
    absorbed: u64,
}

/// A slot that holds no line (no global space reaches `u64::MAX`).
const EMPTY: u64 = u64::MAX;

impl WriteBuffer {
    /// A buffer of `cap` lines over a global space of `space` blocks.
    /// `cap = 0` disables buffering: every request passes straight
    /// through.
    pub fn new(cap: usize, space: u64) -> Self {
        WriteBuffer {
            slots: vec![EMPTY; cap].into_boxed_slice(),
            cursor: 0,
            present: vec![false; usize::try_from(space).expect("space fits in memory")],
            absorbed: 0,
        }
    }

    /// Requests absorbed by buffer hits so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Admits a write of `global`. Returns the line the front-end must
    /// now enqueue toward its bank: the request itself when buffering is
    /// disabled, the evicted oldest line when the buffer overflowed, or
    /// `None` when the write was absorbed or buffered without eviction.
    #[inline]
    pub fn admit(&mut self, global: u64) -> Option<u64> {
        // No slot at the cursor: `cap` is zero.
        let Some(slot) = self.slots.get_mut(self.cursor) else {
            return Some(global);
        };
        let present = &mut self.present[global as usize];
        if *present {
            self.absorbed += 1;
            return None;
        }
        *present = true;
        let oldest = std::mem::replace(slot, global);
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
        if oldest == EMPTY {
            return None;
        }
        self.present[oldest as usize] = false;
        Some(oldest)
    }

    /// Drains every buffered line in FIFO order (end of run: the dirty
    /// lines must reach PCM).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.flush_into(&mut out);
        out
    }

    /// [`Self::flush`] onto the end of `out`: a caller that reuses `out`
    /// with the buffer's capacity reserved allocates nothing.
    pub fn flush_into(&mut self, out: &mut Vec<u64>) {
        let (newer, older) = self.slots.split_at(self.cursor);
        for &line in older.iter().chain(newer).filter(|&&s| s != EMPTY) {
            out.push(line);
            self.present[line as usize] = false;
        }
        self.slots.fill(EMPTY);
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_line_rewrites_are_absorbed() {
        let mut b = WriteBuffer::new(2, 16);
        assert_eq!(b.admit(7), None);
        assert_eq!(b.admit(7), None);
        assert_eq!(b.admit(7), None);
        assert_eq!(b.absorbed(), 2);
        assert_eq!(b.flush(), vec![7]);
    }

    #[test]
    fn overflow_evicts_oldest_fifo() {
        let mut b = WriteBuffer::new(2, 16);
        assert_eq!(b.admit(1), None);
        assert_eq!(b.admit(2), None);
        assert_eq!(b.admit(3), Some(1), "oldest line goes to its bank");
        // The buffer is full, so re-admitting the evicted line evicts in turn.
        assert_eq!(b.admit(1), Some(2), "evicted line is admissible again");
        assert_eq!(b.admit(4), Some(3));
        assert_eq!(b.flush(), vec![1, 4]);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn zero_capacity_bypasses() {
        let mut b = WriteBuffer::new(0, 16);
        assert_eq!(b.admit(5), Some(5));
        assert_eq!(b.admit(5), Some(5));
        assert_eq!(b.absorbed(), 0);
        assert!(b.flush().is_empty());
    }
}
