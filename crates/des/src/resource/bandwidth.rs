//! Processor-sharing bandwidth: `n` concurrent transfers each progress at
//! `rate / n` until one finishes, at which point the shares grow.
//!
//! This models a datastore (or network link) copying several VMDKs at once.
//! The engine is event-driven: every membership change yields a fresh
//! [`TransferPlan`] naming the next completion instant and carrying an epoch
//! number; plans from before the change are stale and their events must be
//! ignored (compare epochs).
//!
//! # Protocol
//!
//! ```
//! use cpsim_des::{SharedBandwidth, SimTime};
//!
//! let mut link = SharedBandwidth::new(100.0); // 100 bytes/sec
//! let plan = link.start(SimTime::ZERO, "a", 400.0).unwrap();
//! // Sole flow: finishes at t = 4 s.
//! assert_eq!(plan.next_completion, SimTime::from_secs(4));
//!
//! // A second flow halves the rate; the old plan is superseded.
//! let plan2 = link.start(SimTime::from_secs(2), "b", 100.0).unwrap();
//! assert!(!link.is_current(plan.epoch));
//! // At t=2: "a" has 200 left, "b" has 100; each gets 50 B/s, so "b"
//! // finishes first at t = 4 s.
//! assert_eq!(plan2.next_completion, SimTime::from_secs(4));
//!
//! let done = link.on_tick(SimTime::from_secs(4), plan2.epoch).unwrap();
//! assert_eq!(done.finished, vec!["b"]);
//! // "a" has 100 left at full rate: finishes at t = 5 s.
//! assert_eq!(done.plan.unwrap().next_completion, SimTime::from_secs(5));
//! ```

use crate::resource::timeweighted::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// Sub-byte residue below which a transfer counts as finished. This must
/// absorb floating-point error from repeated advancement: one ulp of a
/// multi-gigabyte byte count is on the order of 1e-6 bytes, so the
/// threshold sits three orders of magnitude above that (and nine below
/// any real transfer).
const EPSILON_BYTES: f64 = 1e-3;

/// A scheduling directive from the bandwidth engine: post a tick at
/// `next_completion` carrying `epoch`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPlan {
    /// When the earliest active transfer will finish under the current
    /// membership.
    pub next_completion: SimTime,
    /// Identifies the membership era this plan belongs to.
    pub epoch: u64,
}

/// The result of an [`SharedBandwidth::on_tick`] with a current epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferDone<K> {
    /// Transfers that completed at this instant (usually one, but exact
    /// ties complete together).
    pub finished: Vec<K>,
    /// The follow-up plan, or `None` if the link went idle.
    pub plan: Option<TransferPlan>,
}

#[derive(Clone, Debug)]
struct Flow<K> {
    key: K,
    remaining: f64,
}

/// A shared link/array of fixed aggregate bandwidth with egalitarian
/// processor sharing among active transfers.
#[derive(Debug)]
pub struct SharedBandwidth<K> {
    rate: f64,
    flows: Vec<Flow<K>>,
    last_advance: SimTime,
    epoch: u64,
    bytes_moved: f64,
    busy: TimeWeighted,
    completed: u64,
}

impl<K: Clone> SharedBandwidth<K> {
    /// Creates a link with aggregate `rate` in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "bandwidth must be finite and positive, got {rate}"
        );
        SharedBandwidth {
            rate,
            flows: Vec::new(),
            last_advance: SimTime::ZERO,
            epoch: 0,
            bytes_moved: 0.0,
            busy: TimeWeighted::new(SimTime::ZERO, 0.0),
            completed: 0,
        }
    }

    /// Aggregate link rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Begins a transfer of `bytes` for `key` at `now`, superseding any
    /// previously issued plan.
    ///
    /// Zero-byte transfers are legal and complete at the very next tick.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or non-finite, or if `now` precedes a
    /// previous update.
    pub fn start(&mut self, now: SimTime, key: K, bytes: f64) -> Option<TransferPlan> {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "transfer size must be finite and >= 0, got {bytes}"
        );
        self.advance(now);
        self.flows.push(Flow {
            key,
            remaining: bytes,
        });
        self.note_membership(now);
        self.reschedule(now)
    }

    /// Handles a tick scheduled by a previous plan. Returns `None` if
    /// `epoch` is stale (the membership changed since the plan was issued);
    /// the caller simply drops the event.
    pub fn on_tick(&mut self, now: SimTime, epoch: u64) -> Option<TransferDone<K>> {
        if epoch != self.epoch {
            return None;
        }
        self.advance(now);
        let mut finished = Vec::new();
        self.flows.retain(|f| {
            if f.remaining <= EPSILON_BYTES {
                finished.push(f.key.clone());
                false
            } else {
                true
            }
        });
        // A current-epoch tick normally completes at least one flow; in
        // the pathological case where rounding left a hair of residue the
        // fresh plan below fires again a microsecond later and drains it,
        // so an empty `finished` is safe (callers handle empty lists).
        self.completed += finished.len() as u64;
        self.note_membership(now);
        let plan = self.reschedule(now);
        Some(TransferDone { finished, plan })
    }

    /// Whether `epoch` belongs to the current membership era.
    pub fn is_current(&self, epoch: u64) -> bool {
        epoch == self.epoch
    }

    /// Number of active transfers.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes moved through `now` (advances internal accounting only
    /// on membership changes, so pass the current time).
    pub fn bytes_moved(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        let draining: f64 = if self.flows.is_empty() {
            0.0
        } else {
            let share = self.rate * dt / self.flows.len() as f64;
            self.flows.iter().map(|f| f.remaining.min(share)).sum()
        };
        self.bytes_moved + draining
    }

    /// Fraction of time the link was busy through `now` (0..=1).
    pub fn busy_fraction(&self, now: SimTime) -> f64 {
        self.busy.mean(now)
    }

    /// Total transfers completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        let share = self.rate * dt / self.flows.len() as f64;
        for f in &mut self.flows {
            let drained = f.remaining.min(share);
            f.remaining -= drained;
            self.bytes_moved += drained;
        }
    }

    fn note_membership(&mut self, now: SimTime) {
        self.busy
            .set(now, if self.flows.is_empty() { 0.0 } else { 1.0 });
    }

    fn reschedule(&mut self, now: SimTime) -> Option<TransferPlan> {
        self.epoch += 1;
        if self.flows.is_empty() {
            return None;
        }
        let n = self.flows.len() as f64;
        let min_remaining = self
            .flows
            .iter()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        let secs = (min_remaining.max(0.0)) * n / self.rate;
        // Round *up* to the next clock tick: rounding down would leave
        // residual bytes at the tick and stall progress in a zero-delay loop.
        let micros = (secs * 1e6).ceil();
        let delay = if micros >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_micros(micros as u64)
        };
        Some(TransferPlan {
            next_completion: now + delay,
            epoch: self.epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_finishes_on_time() {
        let mut bw = SharedBandwidth::new(10.0);
        let plan = bw.start(SimTime::ZERO, 1u32, 50.0).unwrap();
        assert_eq!(plan.next_completion, SimTime::from_secs(5));
        let done = bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        assert_eq!(done.finished, vec![1]);
        assert!(done.plan.is_none());
        assert_eq!(bw.active(), 0);
        assert_eq!(bw.completed(), 1);
        assert!((bw.bytes_moved(SimTime::from_secs(5)) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn stale_epoch_is_ignored() {
        let mut bw = SharedBandwidth::new(10.0);
        let plan1 = bw.start(SimTime::ZERO, 1u32, 50.0).unwrap();
        let _plan2 = bw.start(SimTime::from_secs(1), 2u32, 5.0).unwrap();
        assert!(bw.on_tick(plan1.next_completion, plan1.epoch).is_none());
        assert!(!bw.is_current(plan1.epoch));
    }

    #[test]
    fn two_flows_share_fairly() {
        // 100 B/s; both flows 100 B, started together: each runs at 50 B/s,
        // both finish at t = 2 s.
        let mut bw = SharedBandwidth::new(100.0);
        bw.start(SimTime::ZERO, 1u32, 100.0);
        let plan = bw.start(SimTime::ZERO, 2u32, 100.0).unwrap();
        assert_eq!(plan.next_completion, SimTime::from_secs(2));
        let done = bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        assert_eq!(done.finished, vec![1, 2]); // exact tie: both complete
        assert!(done.plan.is_none());
    }

    #[test]
    fn late_joiner_slows_first_flow() {
        let mut bw = SharedBandwidth::new(100.0);
        bw.start(SimTime::ZERO, 1u32, 300.0);
        // At t=1, flow 1 has 200 left. Flow 2 brings 50 bytes.
        let plan = bw.start(SimTime::from_secs(1), 2u32, 50.0).unwrap();
        // Flow 2 finishes after 50 * 2 / 100 = 1 s.
        assert_eq!(plan.next_completion, SimTime::from_secs(2));
        let done = bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        assert_eq!(done.finished, vec![2]);
        // Flow 1 had 200 - 50 = 150 left; at full rate: 1.5 s more.
        let plan = done.plan.unwrap();
        assert_eq!(plan.next_completion, SimTime::from_millis(3_500));
        let done = bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        assert_eq!(done.finished, vec![1]);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut bw = SharedBandwidth::new(10.0);
        let plan = bw.start(SimTime::from_secs(3), 9u32, 0.0).unwrap();
        assert_eq!(plan.next_completion, SimTime::from_secs(3));
        let done = bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        assert_eq!(done.finished, vec![9]);
    }

    #[test]
    fn busy_fraction_tracks_membership() {
        let mut bw = SharedBandwidth::new(10.0);
        let plan = bw.start(SimTime::ZERO, 1u32, 50.0).unwrap();
        bw.on_tick(plan.next_completion, plan.epoch).unwrap();
        // Busy 5 s out of 10.
        assert!((bw.busy_fraction(SimTime::from_secs(10)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn work_is_conserved_across_many_flows() {
        let mut bw = SharedBandwidth::new(1000.0);
        let sizes = [10.0, 250.0, 999.0, 4.5, 333.3];
        let mut plan = None;
        for (i, &s) in sizes.iter().enumerate() {
            plan = bw.start(SimTime::from_millis(i as u64 * 100), i as u32, s);
        }
        let mut finished = 0;
        while let Some(p) = plan {
            let done = bw.on_tick(p.next_completion, p.epoch).unwrap();
            finished += done.finished.len();
            plan = done.plan;
        }
        assert_eq!(finished, sizes.len());
        let total: f64 = sizes.iter().sum();
        assert!((bw.bytes_moved(bw.last_advance) - total).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_rejected() {
        let _: SharedBandwidth<u32> = SharedBandwidth::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_bytes_rejected() {
        let mut bw = SharedBandwidth::new(1.0);
        bw.start(SimTime::ZERO, 1u32, -5.0);
    }
}
