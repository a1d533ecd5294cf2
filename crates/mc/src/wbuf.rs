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

use wlr_base::dense::DenseSet;

/// FIFO write buffer over global block addresses.
///
/// Once full (the steady state) the buffer is a flat ring: admitting a
/// new line overwrites the slot at the cursor — whose occupant is by
/// construction the oldest line — so the hot path is one bitset insert,
/// one slot exchange, and one bitset remove, with no deque arithmetic.
#[derive(Debug)]
pub struct WriteBuffer {
    /// Buffered lines. Ring-ordered once `len == cap`: the oldest line
    /// sits at `cursor`. Empty forever when `cap` is zero.
    slots: Vec<u64>,
    /// Next eviction position once the buffer is full.
    cursor: usize,
    present: DenseSet,
    cap: usize,
    absorbed: u64,
}

impl WriteBuffer {
    /// A buffer of `cap` lines over a global space of `space` blocks.
    /// `cap = 0` disables buffering: every request passes straight
    /// through.
    pub fn new(cap: usize, space: u64) -> Self {
        WriteBuffer {
            slots: Vec::with_capacity(cap),
            cursor: 0,
            present: DenseSet::with_capacity(space),
            cap,
            absorbed: 0,
        }
    }

    /// Requests absorbed by buffer hits so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no lines.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Admits a write of `global`. Returns the line the front-end must
    /// now enqueue toward its bank: the request itself when buffering is
    /// disabled, the evicted oldest line when the buffer overflowed, or
    /// `None` when the write was absorbed or buffered without eviction.
    #[inline]
    pub fn admit(&mut self, global: u64) -> Option<u64> {
        if self.cap == 0 {
            return Some(global);
        }
        if !self.present.insert(global) {
            self.absorbed += 1;
            return None;
        }
        if self.slots.len() < self.cap {
            self.slots.push(global);
            return None;
        }
        let oldest = std::mem::replace(&mut self.slots[self.cursor], global);
        self.cursor += 1;
        if self.cursor == self.cap {
            self.cursor = 0;
        }
        self.present.remove(oldest);
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
        out.extend_from_slice(&self.slots[self.cursor..]);
        out.extend_from_slice(&self.slots[..self.cursor]);
        for &line in &self.slots {
            self.present.remove(line);
        }
        self.slots.clear();
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
        assert!(b.is_empty());
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
