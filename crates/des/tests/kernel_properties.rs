//! Property-based tests of the simulation kernel.

use cpsim_des::{EventQueue, FifoQueue, SharedBandwidth, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, with insertion
    /// order breaking ties.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(i > li, "tie not broken by insertion order");
                }
            }
            last = Some((t, i));
        }
    }

    /// The shared-bandwidth engine conserves work: total bytes moved
    /// equals total bytes offered, and all flows complete.
    #[test]
    fn shared_bandwidth_conserves_work(
        sizes in proptest::collection::vec(1.0f64..1e7, 1..40),
        starts in proptest::collection::vec(0u64..10_000_000, 1..40),
        rate in 1e3f64..1e9,
    ) {
        let n = sizes.len().min(starts.len());
        let mut offers: Vec<(u64, f64)> = starts[..n]
            .iter()
            .copied()
            .zip(sizes[..n].iter().copied())
            .collect();
        offers.sort_by_key(|(t, _)| *t);

        let mut bw: SharedBandwidth<usize> = SharedBandwidth::new(rate);
        let mut plan = None;
        let mut finished = 0usize;
        let mut pending: Vec<(u64, f64)> = offers.clone();
        pending.reverse();

        // Interleave starts and ticks in time order.
        loop {
            let next_start = pending.last().map(|(t, _)| SimTime::from_micros(*t));
            let next_tick = plan.map(|p: cpsim_des::TransferPlan| p.next_completion);
            match (next_start, next_tick) {
                (None, None) => break,
                (Some(ts), tick) if tick.is_none() || ts <= tick.unwrap() => {
                    let (t, bytes) = pending.pop().unwrap();
                    let key = offers.len() - pending.len() - 1;
                    plan = bw.start(SimTime::from_micros(t), key, bytes);
                }
                (_, Some(tt)) => {
                    let p = plan.take().unwrap();
                    if let Some(done) = bw.on_tick(tt, p.epoch) {
                        finished += done.finished.len();
                        plan = done.plan;
                    }
                }
                (Some(_), None) => unreachable!("guarded arm above covers this"),
            }
        }
        prop_assert_eq!(finished, offers.len());
        prop_assert_eq!(bw.active(), 0);
        let total: f64 = offers.iter().map(|(_, b)| b).sum();
        let moved = bw.bytes_moved(SimTime::MAX);
        prop_assert!((moved - total).abs() < 1.0 + total * 1e-9,
            "moved {moved} vs offered {total}");
    }

    /// The event queue agrees with a stable-sorted reference model under
    /// arbitrary interleavings of schedules and horizon pops.
    #[test]
    fn event_queue_matches_reference_under_horizon_pops(
        ops in proptest::collection::vec((0u64..2_000, any::<bool>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, insertion index) pairs still pending.
        let mut reference: Vec<(u64, usize)> = Vec::new();
        for (i, &(t, drain)) in ops.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
            reference.push((t, i));
            if drain {
                let horizon = t / 2;
                reference.sort(); // stable order == (time, seq) order
                while let Some((pt, pi)) = q.pop_if_before(SimTime::from_micros(horizon)) {
                    prop_assert!(pt.as_micros() <= horizon, "popped event past horizon");
                    prop_assert!(!reference.is_empty());
                    let (rt, ri) = reference.remove(0);
                    prop_assert_eq!((rt, ri), (pt.as_micros(), pi));
                }
                if let Some(&(rt, _)) = reference.first() {
                    prop_assert!(rt > horizon, "left an in-horizon event unpopped");
                }
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        reference.sort();
        while let Some((pt, pi)) = q.pop() {
            let (rt, ri) = reference.remove(0);
            prop_assert_eq!((rt, ri), (pt.as_micros(), pi));
        }
        prop_assert!(reference.is_empty());
        prop_assert!(q.is_empty());
    }

    /// FIFO queues conserve jobs and never exceed their server count.
    #[test]
    fn fifo_conserves_jobs(ops in proptest::collection::vec(any::<bool>(), 1..200), servers in 1u32..5) {
        let mut q: FifoQueue<u32> = FifoQueue::new(servers);
        let mut t = 0u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_micros(t);
            if op {
                q.arrive(now, submitted as u32);
                submitted += 1;
            } else if q.in_service() > 0 {
                q.complete(now);
                completed += 1;
            }
            prop_assert!(q.in_service() <= servers);
            // Conservation: submitted = completed + in_service + waiting.
            prop_assert_eq!(
                submitted,
                completed + u64::from(q.in_service()) + q.queue_len() as u64
            );
        }
    }
}
