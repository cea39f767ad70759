//! A bounded MPSC queue with an explicit drop-oldest overflow policy.
//!
//! Connection threads push, the owning shard worker pops. When the queue is
//! full, the *oldest droppable* entry is discarded to admit the new one:
//! under sustained overload a notification queue should shed stale items
//! first, because the paper's utility model values freshness (an old friend
//! activity is worth little by the time budgets free up). Control messages
//! (ticks, snapshots, shutdown) are never droppable — shedding them would
//! wedge the caller waiting on a reply.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};

/// Outcome of a [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Accepted without shedding anything.
    Accepted,
    /// Accepted after dropping the oldest droppable entry.
    DroppedOldest,
    /// The queue is draining and refuses droppable entries.
    Refused,
    /// The queue is closed; the value was discarded.
    Closed,
}

struct Inner<T> {
    deque: VecDeque<T>,
    dropped: u64,
    refused: u64,
    closed: bool,
    draining: bool,
}

/// See the module docs.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    droppable: fn(&T) -> bool,
    /// Times a caller found the queue lock held and had to wait — the
    /// producer/consumer contention signal exported per shard.
    contended: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` entries, where `droppable`
    /// marks the entries overflow may shed.
    pub fn new(capacity: usize, droppable: fn(&T) -> bool) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                deque: VecDeque::new(),
                dropped: 0,
                refused: 0,
                closed: false,
                draining: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            droppable,
            contended: AtomicU64::new(0),
        }
    }

    /// Acquires the queue lock, counting the acquisitions that could not
    /// proceed immediately. The count, not the wait time, is the signal:
    /// it rises when producers gang up on one shard's queue (or a slow
    /// round holds the consumer side), which is exactly when per-shard
    /// cost metrics need to explain where wall time went.
    fn lock_counting(&self) -> MutexGuard<'_, Inner<T>> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().unwrap()
            }
            Err(TryLockError::Poisoned(_)) => self.inner.lock().unwrap(), // propagate the panic
        }
    }

    /// Pushes `value`, shedding the oldest droppable entry when full.
    ///
    /// Never blocks. A full queue containing only non-droppable entries
    /// still admits `value` (capacity is a soft bound for control traffic,
    /// which is rare and drains fast).
    pub fn push(&self, value: T) -> PushOutcome {
        self.push_evicting(value).0
    }

    /// Like [`BoundedQueue::push`], but also hands back the entry that
    /// will never be processed, when there is one: the shed oldest
    /// droppable (on `DroppedOldest`), or `value` itself (on `Refused` or
    /// `Closed`). Callers that attach causal traces to entries use the
    /// returned casualty to record a Drop span instead of losing the
    /// trace silently.
    pub fn push_evicting(&self, value: T) -> (PushOutcome, Option<T>) {
        let mut inner = self.lock_counting();
        if inner.closed {
            return (PushOutcome::Closed, Some(value));
        }
        if inner.draining && (self.droppable)(&value) {
            inner.refused += 1;
            return (PushOutcome::Refused, Some(value));
        }
        let mut outcome = PushOutcome::Accepted;
        let mut evicted = None;
        if inner.deque.len() >= self.capacity {
            if let Some(pos) = inner.deque.iter().position(self.droppable) {
                evicted = inner.deque.remove(pos);
                inner.dropped += 1;
                outcome = PushOutcome::DroppedOldest;
            }
        }
        inner.deque.push_back(value);
        drop(inner);
        self.not_empty.notify_one();
        (outcome, evicted)
    }

    /// Pops the oldest entry, blocking while the queue is empty.
    /// Returns `None` once the queue is closed **and** drained.
    ///
    /// Before it sleeps on an empty queue the consumer yields once. A
    /// producer that is in the middle of a burst and shares the CPU then
    /// finishes the burst, and the consumer takes it in one go; sleeping
    /// straight away has every push wake the consumer for one entry, two
    /// context switches each, and how often the kernel lets the woken
    /// consumer preempt the producer varies from one second to the next.
    /// With nothing else runnable on the CPU the yield returns at once.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock_counting();
        if inner.deque.is_empty() && !inner.closed {
            drop(inner);
            std::thread::yield_now();
            inner = self.lock_counting();
        }
        loop {
            if let Some(v) = inner.deque.pop_front() {
                return Some(v);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the queue: pushes are refused, pops drain what remains.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().deque.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries shed by the overflow policy so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Switches draining mode: while on, droppable entries are refused at
    /// the door (control messages still pass, so the final drain round and
    /// checkpoint can run).
    pub fn set_draining(&self, draining: bool) {
        self.inner.lock().unwrap().draining = draining;
    }

    /// Total droppable entries refused while draining.
    pub fn refused(&self) -> u64 {
        self.inner.lock().unwrap().refused
    }

    /// Total lock acquisitions (push or pop) that found the lock held.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(8, |_: &u32| true);
        for i in 0..5 {
            assert_eq!(q.push(i), PushOutcome::Accepted);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn overflow_drops_oldest_droppable() {
        // Odd values are protected, even values droppable.
        let q = BoundedQueue::new(3, |v: &u32| v.is_multiple_of(2));
        q.push(1);
        q.push(2);
        q.push(4);
        assert_eq!(q.push(6), PushOutcome::DroppedOldest); // sheds 2
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop(), Some(1)); // protected entry survived
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(6));
    }

    #[test]
    fn soft_bound_when_nothing_droppable() {
        let q = BoundedQueue::new(2, |_: &u32| false);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::Accepted);
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4, |_: &u32| true);
        q.push(1);
        q.close();
        assert_eq!(q.push(9), PushOutcome::Closed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn draining_refuses_droppable_only() {
        // Odd values are protected, even values droppable.
        let q = BoundedQueue::new(4, |v: &u32| v.is_multiple_of(2));
        q.set_draining(true);
        assert_eq!(q.push(2), PushOutcome::Refused);
        assert_eq!(q.push(1), PushOutcome::Accepted);
        assert_eq!(q.refused(), 1);
        assert_eq!(q.len(), 1);
        q.set_draining(false);
        assert_eq!(q.push(2), PushOutcome::Accepted);
    }

    #[test]
    fn push_evicting_returns_the_casualty() {
        // Odd values are protected, even values droppable.
        let q = BoundedQueue::new(2, |v: &u32| v.is_multiple_of(2));
        assert_eq!(q.push_evicting(2), (PushOutcome::Accepted, None));
        assert_eq!(q.push_evicting(4), (PushOutcome::Accepted, None));
        assert_eq!(q.push_evicting(6), (PushOutcome::DroppedOldest, Some(2)));
        q.set_draining(true);
        assert_eq!(q.push_evicting(8), (PushOutcome::Refused, Some(8)));
        q.close();
        assert_eq!(q.push_evicting(10), (PushOutcome::Closed, Some(10)));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(4, |_: &u32| true));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(42);
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn contention_counter_counts_blocked_acquisitions() {
        let q = Arc::new(BoundedQueue::new(8, |_: &u32| true));
        q.push(1);
        assert_eq!(q.contended(), 0, "uncontended pushes count nothing");
        // Hold the queue lock so the pusher's try_lock must fail, then
        // watch the counter tick before releasing — the counter is bumped
        // *before* the blocking acquisition, so this cannot deadlock and
        // makes no scheduling assumptions.
        let guard = q.inner.lock().unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push(2);
            })
        };
        while q.contended() == 0 {
            std::hint::spin_loop();
        }
        drop(guard);
        pusher.join().unwrap();
        assert_eq!(q.contended(), 1, "exactly one acquisition found the lock held");
        assert_eq!(q.len(), 2, "the contended push still landed");
    }
}
