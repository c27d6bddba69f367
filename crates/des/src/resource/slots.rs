//! A counting slot pool, used for admission limits (global, per-host,
//! per-datastore, per-VM concurrency caps in the management plane).
//!
//! Unlike [`FifoQueue`](crate::FifoQueue), a `SlotPool` has no waiting room:
//! the admission layer owns its own queue of blocked tasks and retries when
//! slots free up.

/// A bounded pool of identical permits.
///
/// ```
/// use cpsim_des::SlotPool;
/// let mut pool = SlotPool::new(2);
/// assert!(pool.try_acquire());
/// assert!(pool.try_acquire());
/// assert!(!pool.try_acquire()); // full
/// pool.release();
/// assert!(pool.try_acquire());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotPool {
    capacity: u32,
    used: u32,
    peak: u32,
}

impl SlotPool {
    /// Creates a pool of `capacity` permits. A capacity of zero is allowed
    /// and always rejects (used to disable an operation class).
    pub fn new(capacity: u32) -> Self {
        SlotPool {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// An effectively-unbounded pool (for "no limit" configurations).
    pub fn unbounded() -> Self {
        SlotPool::new(u32::MAX)
    }

    /// Attempts to take a permit; `false` if the pool is exhausted.
    pub fn try_acquire(&mut self) -> bool {
        if self.used < self.capacity {
            self.used += 1;
            if self.used > self.peak {
                self.peak = self.used;
            }
            true
        } else {
            false
        }
    }

    /// Whether a permit is available without taking it.
    pub fn has_capacity(&self) -> bool {
        self.used < self.capacity
    }

    /// Returns a permit to the pool.
    ///
    /// # Panics
    ///
    /// Panics if no permit is outstanding (a release/acquire imbalance is a
    /// logic error in the caller).
    pub fn release(&mut self) {
        assert!(
            self.used > 0,
            "SlotPool::release with no permit outstanding"
        );
        self.used -= 1;
    }

    /// Permits currently in use.
    pub fn in_use(&self) -> u32 {
        self.used
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> u32 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_capacity() {
        let mut p = SlotPool::new(3);
        assert!(p.try_acquire() && p.try_acquire() && p.try_acquire());
        assert!(!p.try_acquire());
        assert_eq!(p.in_use(), 3);
        assert_eq!(p.peak(), 3);
        p.release();
        assert_eq!(p.in_use(), 2);
        assert!(p.has_capacity());
        assert!(p.try_acquire());
        assert_eq!(p.peak(), 3);
    }

    #[test]
    fn zero_capacity_always_rejects() {
        let mut p = SlotPool::new(0);
        assert!(!p.try_acquire());
        assert!(!p.has_capacity());
    }

    #[test]
    fn unbounded_never_rejects() {
        let mut p = SlotPool::unbounded();
        for _ in 0..10_000 {
            assert!(p.try_acquire());
        }
        assert!(p.has_capacity());
    }

    #[test]
    #[should_panic(expected = "no permit outstanding")]
    fn release_imbalance_panics() {
        SlotPool::new(1).release();
    }
}
