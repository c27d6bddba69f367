//! A multi-server FIFO queue (`c` identical servers, unbounded waiting room).
//!
//! Models shared service points such as the management server's CPU pool or
//! the inventory database's connection pool. The queue is passive: `arrive`
//! and `complete` report which job should *start service* now, and the
//! caller draws its service time and schedules the completion event.

use std::collections::VecDeque;

use crate::resource::timeweighted::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// A job admitted to a [`FifoQueue`], carrying its arrival time for
/// waiting-time accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admitted<J> {
    /// The caller's job payload.
    pub job: J,
    /// How long the job waited in queue before starting service.
    pub waited: SimDuration,
}

/// `c`-server FIFO queue with occupancy statistics.
///
/// ```
/// use cpsim_des::{FifoQueue, SimTime};
/// let mut q: FifoQueue<&str> = FifoQueue::new(1);
/// let t0 = SimTime::ZERO;
/// assert!(q.arrive(t0, "a").is_some());      // server free: starts now
/// assert!(q.arrive(t0, "b").is_none());      // queued behind "a"
/// let next = q.complete(SimTime::from_secs(3)).unwrap();
/// assert_eq!(next.job, "b");
/// assert_eq!(next.waited, SimTime::from_secs(3).since(t0));
/// ```
#[derive(Debug)]
pub struct FifoQueue<J> {
    servers: u32,
    busy: u32,
    waiting: VecDeque<(SimTime, J)>,
    occupancy: TimeWeighted,
    served: u64,
}

impl<J> FifoQueue<J> {
    /// Creates a queue with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "a FifoQueue needs at least one server");
        FifoQueue {
            servers,
            busy: 0,
            waiting: VecDeque::new(),
            occupancy: TimeWeighted::new(SimTime::ZERO, 0.0),
            served: 0,
        }
    }

    /// Offers `job` at `now`. Returns `Some` if a server is free and the job
    /// starts service immediately; otherwise the job waits in FIFO order.
    pub fn arrive(&mut self, now: SimTime, job: J) -> Option<Admitted<J>> {
        if self.busy < self.servers {
            self.busy += 1;
            self.occupancy.set(now, self.busy as f64);
            self.served += 1;
            Some(Admitted {
                job,
                waited: SimDuration::ZERO,
            })
        } else {
            self.waiting.push_back((now, job));
            None
        }
    }

    /// Reports a service completion at `now`; returns the next job to start,
    /// if any is waiting.
    ///
    /// # Panics
    ///
    /// Panics if no job is in service.
    pub fn complete(&mut self, now: SimTime) -> Option<Admitted<J>> {
        assert!(self.busy > 0, "complete() with no job in service");
        match self.waiting.pop_front() {
            Some((arrived, job)) => {
                let waited = now.since(arrived);
                self.served += 1;
                // Occupancy unchanged: one job leaves, one enters service.
                Some(Admitted { job, waited })
            }
            None => {
                self.busy -= 1;
                self.occupancy.set(now, self.busy as f64);
                None
            }
        }
    }

    /// Fails the station at `now`: every waiting job is evicted (and
    /// returned, in FIFO order) and all servers are freed without serving
    /// their jobs. In-service payloads are not stored here — they were
    /// moved out to the caller at service start — so the caller is
    /// responsible for any in-service jobs it is still tracking.
    ///
    /// Used to model a crashed host agent: the pending primitive queue is
    /// lost wholesale.
    pub fn fail_all(&mut self, now: SimTime) -> Vec<J> {
        let dropped: Vec<J> = self.waiting.drain(..).map(|(_, job)| job).collect();
        self.busy = 0;
        self.occupancy.set(now, 0.0);
        dropped
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Jobs currently in service.
    pub fn in_service(&self) -> u32 {
        self.busy
    }

    /// Jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Total jobs that have entered service.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean fraction of server capacity in use through `now` (0..=1).
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.occupancy.mean(now) / self.servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut q = FifoQueue::new(1);
        assert!(q.arrive(SimTime::ZERO, 1).is_some());
        assert!(q.arrive(SimTime::ZERO, 2).is_none());
        assert!(q.arrive(SimTime::ZERO, 3).is_none());
        assert_eq!(q.queue_len(), 2);
        assert_eq!(q.complete(SimTime::from_secs(1)).unwrap().job, 2);
        assert_eq!(q.complete(SimTime::from_secs(2)).unwrap().job, 3);
        assert!(q.complete(SimTime::from_secs(3)).is_none());
        assert_eq!(q.in_service(), 0);
        assert_eq!(q.served(), 3);
    }

    #[test]
    fn multi_server_admits_up_to_capacity() {
        let mut q = FifoQueue::new(3);
        for i in 0..3 {
            assert!(q.arrive(SimTime::ZERO, i).is_some());
        }
        assert!(q.arrive(SimTime::ZERO, 99).is_none());
        assert_eq!(q.in_service(), 3);
    }

    #[test]
    fn waiting_time_is_measured() {
        let mut q = FifoQueue::new(1);
        q.arrive(SimTime::ZERO, "a");
        q.arrive(SimTime::from_secs(1), "b");
        let adm = q.complete(SimTime::from_secs(5)).unwrap();
        assert_eq!(adm.job, "b");
        assert_eq!(adm.waited, SimDuration::from_secs(4));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut q = FifoQueue::new(2);
        q.arrive(SimTime::ZERO, ());
        // one of two servers busy for 10 s => utilization 0.5
        assert!((q.utilization(SimTime::from_secs(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fail_all_evicts_waiters_and_frees_servers() {
        let mut q = FifoQueue::new(1);
        q.arrive(SimTime::ZERO, 1);
        q.arrive(SimTime::ZERO, 2);
        q.arrive(SimTime::ZERO, 3);
        let dropped = q.fail_all(SimTime::from_secs(5));
        assert_eq!(dropped, vec![2, 3]);
        assert_eq!(q.in_service(), 0);
        assert_eq!(q.queue_len(), 0);
        // The station is immediately usable again.
        assert!(q.arrive(SimTime::from_secs(6), 4).is_some());
    }

    #[test]
    #[should_panic(expected = "no job in service")]
    fn complete_on_idle_panics() {
        let mut q: FifoQueue<()> = FifoQueue::new(1);
        q.complete(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _: FifoQueue<()> = FifoQueue::new(0);
    }
}
