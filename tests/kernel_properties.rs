//! Kernel event-queue properties: the hierarchical timer wheel
//! ([`EventQueue`]) must be observationally identical to the four-ary
//! heap it replaced ([`ReferenceQueue`], kept as the oracle) under any
//! interleaving of schedules and pops — including entries that cross
//! bucket boundaries, cascade down levels, and round trip through the
//! overflow heap.

use cpsim_des::{EventQueue, ReferenceQueue, SimTime};
use proptest::prelude::*;

/// One scripted queue operation, interpreted identically on both queues.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `base_scale * mult + off` µs.
    Schedule { scale: u8, mult: u64, off: u64 },
    /// Pop up to `n` events, comparing the streams element-wise.
    Pop { n: usize },
}

/// Time scales that land on and around every structural boundary: within
/// a level-0 bucket, across the level-0/1 and higher cascade boundaries
/// (64^k µs), and past the wheel span into the overflow heap (2^42 µs).
const SCALES: &[u64] = &[
    1,
    64,
    4096,
    262_144,
    1 << 24,
    1 << 36,
    (1 << 42) - 64,
    1 << 42,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    let schedule = (0u8..SCALES.len() as u8, 0u64..6, 0u64..130)
        .prop_map(|(scale, mult, off)| Op::Schedule { scale, mult, off });
    // The schedule arm appears twice: biasing toward schedules keeps the
    // queues populated so pops have entries to chew on.
    prop_oneof![
        schedule.clone(),
        schedule,
        (1usize..40).prop_map(|n| Op::Pop { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn wheel_equals_heap_under_schedule_pop_churn(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::new();
        let mut payload = 0u64;
        for op in &ops {
            match *op {
                Op::Schedule { scale, mult, off } => {
                    let t = SimTime::from_micros(
                        SCALES[scale as usize].saturating_mul(mult) + off,
                    );
                    wheel.schedule(t, payload);
                    heap.schedule(t, payload);
                    payload += 1;
                }
                Op::Pop { n } => {
                    for _ in 0..n {
                        prop_assert_eq!(wheel.next_time(), heap.next_time());
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b, "pop streams diverged");
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain both to the end: every remaining event must agree.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Regression: same-time events sitting *exactly* on a cascade boundary
/// (a multiple of 64^k µs, where they wait in a level-k bucket until the
/// cursor reaches the boundary and cascades them down) must keep their
/// FIFO order through the cascade, and must not be reordered against
/// their neighbors on either side of the boundary.
#[test]
fn same_time_fifo_survives_every_cascade_boundary() {
    // Every level boundary of the 64-slot wheel, plus the wheel-span
    // boundary where the entries start out in the overflow heap.
    for boundary in [64u64, 4_096, 262_144, 1 << 24, 1 << 42] {
        let mut q = EventQueue::new();
        let mut r = ReferenceQueue::new();
        // Neighbors straddling the boundary, interleaved with two events
        // *at* the boundary: both share one bucket and must pop in
        // scheduling order.
        let schedule = [
            (1, "first"),
            (boundary - 1, "before"),
            (boundary, "tied-a"),
            (boundary + 1, "after"),
            (boundary, "tied-b"),
        ];
        for (t, e) in schedule {
            q.schedule(SimTime::from_micros(t), e);
            r.schedule(SimTime::from_micros(t), e);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop() {
            let (rt, re) = r.pop().expect("reference agrees on length");
            assert_eq!((t, e), (rt, re), "boundary {boundary} diverged");
            popped.push(e);
        }
        assert_eq!(r.pop(), None);
        assert_eq!(
            popped,
            vec!["first", "before", "tied-a", "tied-b", "after"],
            "boundary {boundary}: same-time order broken"
        );
        assert!(q.is_empty());
    }
}
