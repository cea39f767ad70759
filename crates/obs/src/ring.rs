//! The one bounded ring behind the trace rings and the flight recorder.
//!
//! A [`Ring`] keeps the newest `cap` items, evicts the oldest when full and
//! counts what it evicted. The shard and server trace rings are
//! `Ring<SpanRecord>` (drained by reading); the flight recorder is a
//! `Ring<SpanTree>` (read non-destructively through [`Ring::iter`]).

use std::collections::VecDeque;

/// A bounded evict-oldest ring with drop accounting.
///
/// A disabled ring ([`Ring::disabled`]) makes pushes no-ops at the cost of
/// one branch, which is what lets the daemon keep `trace_capacity = 0` as
/// the default with no measurable overhead.
#[derive(Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics when `cap == 0`: a zero-capacity ring can never hold an
    /// item, so asking for one is a configuration bug. Call
    /// [`Ring::disabled`] to turn recording off explicitly.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "Ring capacity must be >= 1; use Ring::disabled() to turn recording off");
        Ring { buf: VecDeque::with_capacity(cap.min(4096)), cap, dropped: 0 }
    }

    /// A ring that records nothing: pushes are no-ops.
    pub fn disabled() -> Self {
        Ring { buf: VecDeque::new(), cap: 0, dropped: 0 }
    }

    /// Items evicted (oldest-first) since the last [`Ring::drain_up_to`]
    /// (since creation for a ring that is only ever read with
    /// [`Ring::iter`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Takes up to `max` buffered items (oldest first) plus the
    /// evicted-count, resetting the count. Leftover items stay buffered
    /// for the next call, which is how a ring larger than one wire frame
    /// drains across several bounded responses instead of one oversized
    /// (and therefore rejected) frame.
    pub fn drain_up_to(&mut self, max: usize) -> (Vec<T>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        let n = self.buf.len().min(max);
        (self.buf.drain(..n).collect(), dropped)
    }

    /// The buffered items, oldest first, without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        // Reading through `iter` consumes nothing and keeps the count.
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        let (items, dropped) = r.drain_up_to(usize::MAX);
        assert_eq!(dropped, 2);
        assert_eq!(items, vec![2, 3, 4]);
        assert_eq!((r.iter().count(), r.dropped()), (0, 0));
    }

    #[test]
    fn bounded_drain_leaves_the_remainder_buffered() {
        let mut r = Ring::new(8);
        for i in 0..6 {
            r.push(i);
        }
        let (first, dropped) = r.drain_up_to(4);
        assert_eq!(dropped, 0);
        assert_eq!(first, vec![0, 1, 2, 3]);
        let (second, _) = r.drain_up_to(4);
        assert_eq!(second, vec![4, 5], "undrained items stay, oldest first, for the next call");
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::<u64>::new(0);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = Ring::disabled();
        r.push(1);
        assert_eq!((r.iter().count(), r.dropped()), (0, 0));
    }
}
