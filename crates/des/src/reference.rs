//! The previous event-queue kernel, kept as a **reference oracle**.
//!
//! [`ReferenceQueue`] is the four-ary index-min heap that served as the
//! simulation's pending-event set before the hierarchical timer wheel
//! ([`crate::EventQueue`]) replaced it. It stays in the tree — not behind
//! `#[cfg(test)]`, because the queue microbench measures wheel-vs-heap
//! directly — with two jobs:
//!
//! - **property-test oracle**: `tests/kernel_properties.rs` drives both
//!   kernels through identical schedule/pop churn and asserts the
//!   pop streams match exactly (the same style PR 3 used for `Placer`'s
//!   reference scan);
//! - **benchmark baseline**: `cpsim-bench --bench queue` reports the
//!   wheel's win over this heap on the periodic-timer pattern, so the
//!   speedup is measured, not asserted.
//!
//! It must not be used by simulation code; the wheel is the kernel.
//!
//! # Implementation
//!
//! A four-ary implicit min-heap ordered by `(time, seq)`: event sets here
//! routinely hold 10⁴–10⁵ pending events, and a 4-ary layout halves the
//! tree depth vs. a binary heap, so `pop` does half the cache-missing
//! levels per sift-down.

use crate::time::SimTime;

/// Heap arity. Four children per node halves tree depth vs. a binary heap.
const ARITY: usize = 4;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The retired heap kernel: a four-ary index-min heap with the same
/// `(time, seq)` total order as [`crate::EventQueue`]. Oracle and
/// benchmark baseline only — see the module docs.
#[derive(Default)]
pub struct ReferenceQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let len = self.heap.len();
        if len == 0 {
            return None;
        }
        self.heap.swap(0, len - 1);
        let e = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((e.time, e.event))
    }

    /// Removes and returns the earliest event **if it fires at or
    /// before `horizon`**; otherwise leaves the queue untouched.
    pub fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first()?.time > horizon {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        self.heap[a].key() < self.heap[b].key()
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.less(i, parent) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let end = (first + ARITY).min(len);
            for c in first + 1..end {
                if self.less(c, min) {
                    min = c;
                }
            }
            if self.less(min, i) {
                self.heap.swap(min, i);
                i = min;
            } else {
                break;
            }
        }
    }
}

impl<E> std::fmt::Debug for ReferenceQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceQueue")
            .field("len", &self.len())
            .field("next_time", &self.next_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_and_breaks_ties_by_insertion() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(SimTime::from_secs(2), 99);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 99]);
    }
}
